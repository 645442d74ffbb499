"""Brute-force ground truth and fixture generators for desk-scale checks.

The enumerator walks every admissible chain depth-first (its own
enumeration, sharing only the per-extension predicates with the
admissibility module) and reports the best duration, the best chains
deduplicated by section set, the number of chains visited, and the size of
the uninformed allocation space ``prod(|sections of each lower job| + 1)``
that an unguided enumeration would have to consider.

The generators build reproducible task sets in the canonical text format:
an antidiagonal family with one long section per lower-priority job, and
seeded random task sets whose nesting always descends in resource index so
the resource order is acyclic by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator

from .admissibility import _extension_failure
from .deadlock import require_acyclic
from .relevance import _direct, _induced
from .taskset import (
    CriticalSection,
    DurationLike,
    TaskSet,
    ZChain,
    _compiled,
    as_duration,
    chain_duration,
    parse_taskset,
)

__all__ = [
    "OracleLimitError",
    "OracleResult",
    "brute_force_blocking_time",
    "generate_antidiagonal_family",
    "iter_admissible_chains",
    "random_taskset",
    "uninformed_space_size",
]


class OracleLimitError(Exception):
    """The uninformed allocation space exceeds the configured limit."""


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive-enumeration outcome for one target job."""

    best_duration: Fraction
    best_chains: tuple[ZChain, ...]
    chains_enumerated: int
    uninformed_space: int


def uninformed_space_size(ts: TaskSet, i: int) -> int:
    """Allocations an unguided search would evaluate: each lower-priority
    job contributes one of its sections or nothing."""
    return prod(len(job.sections) + 1 for job in ts.jobs[i:])


def iter_admissible_chains(ts: TaskSet, i: int) -> Iterator[ZChain]:
    """Depth-first enumeration of every admissible chain for job ``i``,
    starting from the empty chain.

    The walk keeps one generator of extensions per chain on the current
    path in an explicit stack, so chain length is not limited by the
    interpreter's recursion depth.
    """
    index = _compiled(ts)

    def extensions(
        chain: ZChain, jobs: int, resources: int, in_set: int
    ) -> Iterator[tuple[ZChain, int, int, int]]:
        for job in ts.jobs[i:]:
            if jobs >> job.index & 1:
                continue
            for s in index.sections[job.index - 1]:
                if resources & s.bit:
                    continue
                if _extension_failure(index, chain, jobs, resources, in_set, s.z) is None:
                    yield (
                        chain + (s.z,),
                        jobs | 1 << job.index,
                        resources | s.bit,
                        in_set | _induced(index, i, s, in_set),
                    )

    yield ()
    stack = [extensions((), 0, 0, _direct(index, i))]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
        else:
            yield step[0]
            stack.append(extensions(*step))


def brute_force_blocking_time(
    ts: TaskSet, i: int, *, limit: int = 10**6
) -> OracleResult:
    """Maximum admissible-chain duration by exhaustive enumeration.

    Refuses cyclic task sets and instances whose uninformed space exceeds
    ``limit``.  ``best_chains`` are deduplicated by section set, each
    reported in its first discovered order.
    """
    require_acyclic(ts)
    space = uninformed_space_size(ts, i)
    if space > limit:
        raise OracleLimitError(
            f"uninformed space {space} exceeds the limit {limit}"
        )
    best = Fraction(0)
    reps: dict[frozenset[CriticalSection], ZChain] = {frozenset(): ()}
    count = 0
    for chain in iter_admissible_chains(ts, i):
        count += 1
        duration = chain_duration(chain)
        if duration > best:
            best = duration
            reps = {frozenset(chain): chain}
        elif duration == best:
            reps.setdefault(frozenset(chain), chain)
    ordered = tuple(
        reps[key]
        for key in sorted(
            reps, key=lambda s: sorted((z.job, z.position) for z in s)
        )
    )
    return OracleResult(
        best_duration=best,
        best_chains=ordered,
        chains_enumerated=count,
        uninformed_space=space,
    )


def generate_antidiagonal_family(
    n: int, i: int, delta: DurationLike, epsilon: DurationLike
) -> TaskSet:
    """Family with a loose bound: each of the ``n - i`` lower-priority jobs
    has disjoint sections on R1..R(n-i) in that order, lasting ``delta`` at
    the antidiagonal position (job i+1 last, job n first) and ``epsilon``
    elsewhere.  Job ``i`` touches every resource briefly so that all of
    them can block it; higher-priority jobs are empty.

    With ``w = n - i``, job ``i``'s bound is ``w·delta`` (the assignment gives
    every lower-priority job its long cell) and its exact blocking time is
    ``max(delta + 2⌊(w−1)/2⌋·epsilon, w·epsilon)``, i.e.
    ``delta + 2⌊(w−1)/2⌋·epsilon`` when ``delta ≥ 2·epsilon``.  A job holding
    ``R_p`` has already passed ``R_1..R_{p-1}``, so an admissible chain is
    strictly increasing in (job, resource); it therefore holds at most one
    long cell, and the longest such chain through one has
    ``1 + 2⌊(w−1)/2⌋`` sections.
    """
    if not 1 <= i < n:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    delta = as_duration(delta)
    epsilon = as_duration(epsilon)
    if not epsilon < delta:
        raise ValueError("epsilon must be smaller than delta")
    width = n - i
    lines = [f"J{j}:" for j in range(1, i)]
    lines.append(
        f"J{i}: " + " ".join(f"[R{p}: {epsilon}]" for p in range(1, width + 1))
    )
    for j in range(i + 1, n + 1):
        groups = []
        for p in range(1, width + 1):
            duration = delta if p == n - j + 1 else epsilon
            groups.append(f"[R{p}: {duration}]")
        lines.append(f"J{j}: " + " ".join(groups))
    return parse_taskset("\n".join(lines))


def random_taskset(
    seed: int,
    *,
    jobs: int = 5,
    resources: int = 5,
    sections_per_job: int = 3,
    nesting_depth: int = 2,
) -> TaskSet:
    """Reproducible pseudo-random task set, deadlock-free by construction.

    Nested sections always use a strictly smaller resource index than
    their parent, so containment is compatible with the fixed order
    R1 < R2 < ... and no resource repeats along a nesting path.  A
    section's duration covers its nested sections (executing the outer
    span includes the inner ones), so durations never shrink inward.
    """
    if min(jobs, resources, sections_per_job, nesting_depth) < 1:
        raise ValueError("all limits must be positive")
    rng = random.Random(seed)
    lines = []
    for j in range(1, jobs + 1):
        budget = rng.randint(0, sections_per_job)

        def group(max_resource: int, depth: int) -> tuple[str, int]:
            nonlocal budget
            budget -= 1
            resource = rng.randint(1, max_resource)
            inner: list[str] = []
            inner_time = 0
            while (
                budget > 0
                and depth < nesting_depth
                and resource > 1
                and rng.random() < 0.4
            ):
                text, time = group(resource - 1, depth + 1)
                inner.append(text)
                inner_time += time
            duration = inner_time + rng.randint(1, 9)
            body = f"[R{resource}: {duration}"
            return body + ("" if not inner else " " + " ".join(inner)) + "]", duration

        groups = []
        while budget > 0:
            groups.append(group(resources, 1)[0])
        lines.append(f"J{j}:" + (f" {' '.join(groups)}" if groups else ""))
    return parse_taskset("\n".join(lines))
