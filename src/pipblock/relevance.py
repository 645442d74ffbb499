"""Blocking scopes: which resources and jobs can block a given job.

With at most one resource held at a time, a resource can block job ``i``
exactly when it is used both by some job of priority >= i's and by some
lower-priority job (the direct sets).  Nesting adds transitive priority
inheritance: a resource nested inside a blocking-capable section acquires
blocking potential of its own.  The enlarged ("relevant") sets are the
least fixpoint of the induced-set operator, seeded with the direct set.

The functions read the set's compiled index, which the first of them
to run builds and caches on the set (:func:`~pipblock.taskset._compiled`),
and keep the last job's fixpoint in the index's job slot (:func:`_scope`).
Results depend only on the arguments, and scopes for different target
jobs may be computed in parallel: a reader uses the slot only when it
holds its own job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .definitions import is_maximal
from .taskset import (
    CriticalSection,
    ResourceId,
    TaskSet,
    _compiled,
    _Index,
    _on_inside,
    _positions,
    _Section,
)

__all__ = [
    "BlockingScope",
    "blocking_scope",
    "direct_blocking_jobs",
    "direct_blocking_resources",
    "fixpoint_trace",
    "induced_set",
    "relevant_jobs",
    "relevant_resources",
]


@dataclass(frozen=True)
class BlockingScope:
    """All four blocking sets for one target job."""

    target: int
    direct_resources: frozenset[ResourceId]
    direct_jobs: frozenset[int]
    relevant_resources: frozenset[ResourceId]
    relevant_jobs: frozenset[int]


def _check_target(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"target job index {i} out of range 1..{n}")


def _direct(index: _Index, i: int) -> int:
    """Mask of job ``i``'s direct blocking resources: those used both by
    a job of priority >= i's and by a job below it."""
    _check_target(len(index.sections), i)
    upper, direct = (1 << i + 1) - 2, 0
    for bit, jobs in index.users.items():
        if jobs & upper and jobs >> i + 1:
            direct |= bit
    return direct


def direct_blocking_resources(ts: TaskSet, i: int) -> frozenset[ResourceId]:
    """Resources used both at priority >= job i's and below it."""
    index = _compiled(ts)
    return index.resources_of(_direct(index, i))


def _jobs_using(index: _Index, i: int, scope: int) -> int:
    """Mask (bit j for job j) of the jobs below job ``i`` using a resource
    of the ``scope`` mask."""
    users, jobs = index.users, 0
    while scope:
        bit = scope & -scope
        jobs |= users[bit]
        scope ^= bit
    return jobs >> i + 1 << i + 1


def direct_blocking_jobs(ts: TaskSet, i: int) -> frozenset[int]:
    """Lower-priority jobs using a direct blocking resource of job ``i``."""
    index = _compiled(ts)
    return frozenset(_positions(_jobs_using(index, i, _direct(index, i))))


def _induced(index: _Index, i: int, s: _Section, scope: int) -> int:
    """Mask of the resources nested in section ``s`` that gain blocking
    potential toward job i: outside the ``scope`` mask and used by some
    other job below i."""
    others = ~(1 << s.z.job)
    out = 0
    fresh = s.nested & ~scope
    while fresh:
        bit = fresh & -fresh
        if (index.users[bit] & others) >> (i + 1):
            out |= bit
        fresh ^= bit
    return out


def induced_set(
    ts: TaskSet, i: int, z: CriticalSection, scope: Iterable[ResourceId]
) -> frozenset[ResourceId]:
    """Set induced by ``(job i, z)`` from ``scope``.

    ``z`` must belong to a lower-priority job and be maximal w.r.t.
    ``scope``; violating either raises ``ValueError``.
    """
    _check_target(ts.n, i)
    scope = frozenset(scope)
    if z.job <= i:
        raise ValueError(f"{z.label} does not belong to a job below J{i}")
    if not is_maximal(z, scope):
        raise ValueError(f"{z.label} is not maximal w.r.t. {sorted(scope)}")
    index = _compiled(ts)
    return index.resources_of(_induced(index, i, index.entry(z), index.mask(scope)))


def _fixpoint(index: _Index, i: int) -> list[int]:
    """Mask iterates of job ``i``'s relevant-resource fixpoint: the first
    is the direct-set mask (:func:`_direct`), and each step adds one
    non-empty induced set.

    Each step adds the set induced by the first section of a job below i,
    in key order, that is maximal w.r.t. the scope and induces something.
    The maximal sections are ``hit & ~out``, the index's ``on`` and
    ``inside`` masks ORed over the scope's resources
    (:func:`~pipblock.taskset._on_inside`), each grown by the resources a
    step adds.  Every section is tried at most once: the scope only grows,
    so an induced set only shrinks, and a section that induced nothing, or
    whose induced set is now in scope, never induces again.  The iteration
    stops when no untried maximal section is left.
    """
    scope = fresh = _direct(index, i)
    rows = index.rows
    tried = index.keys((1 << i + 1) - 2)  # job i's keys and those above
    hit = out = 0
    trace = [scope]
    while True:
        on, inside = _on_inside(index, fresh)
        hit, out = hit | on, out | inside
        untried = hit & ~out & ~tried
        while untried:
            low = untried & -untried
            tried |= low
            untried ^= low
            fresh = _induced(index, i, rows[low.bit_length() - 1], scope)
            if fresh:
                break
        else:
            return trace
        scope |= fresh
        trace.append(scope)


def _scope(index: _Index, i: int) -> tuple:
    """The index's job slot for job ``i``, ``(i, iterates, kernel, jobs,
    resources)``: read when it holds job ``i``, else filled from
    :func:`_fixpoint` with no kernel yet (None)."""
    slot = index.slot
    if slot is None or slot[0] != i:
        trace, ids = _fixpoint(index, i), index.ids
        jobs = _positions(_jobs_using(index, i, trace[-1]))
        slot = index.slot = (i, trace, None, jobs, [ids[k] for k in _positions(trace[-1])])
    return slot


def relevant_resources(ts: TaskSet, i: int) -> frozenset[ResourceId]:
    """All resources that can block job ``i`` once nesting and transitive
    inheritance are accounted for (least fixpoint of the induced sets)."""
    return blocking_scope(ts, i).relevant_resources


def fixpoint_trace(ts: TaskSet, i: int) -> list[frozenset[ResourceId]]:
    """The deterministic iterate sequence of :func:`relevant_resources`,
    each iterate built as the previous one plus the resources its step
    added, from the job slot's iterates (:func:`_scope`)."""
    index = _compiled(ts)
    ids, before = index.ids, 0
    resources: frozenset[ResourceId] = frozenset()
    trace = []
    for after in _scope(index, i)[1]:
        resources = resources.union(ids[k] for k in _positions(after & ~before))
        trace.append(resources)
        before = after
    return trace


def relevant_jobs(ts: TaskSet, i: int) -> frozenset[int]:
    """Lower-priority jobs using any relevant resource of job ``i``."""
    return blocking_scope(ts, i).relevant_jobs


def blocking_scope(ts: TaskSet, i: int) -> BlockingScope:
    """Bundle all four blocking sets for job ``i``."""
    index = _compiled(ts)
    _, trace, _, jobs, resources = _scope(index, i)
    return BlockingScope(
        target=i,
        direct_resources=index.resources_of(trace[0]),
        direct_jobs=frozenset(_positions(_jobs_using(index, i, trace[0]))),
        relevant_resources=frozenset(resources),
        relevant_jobs=frozenset(jobs),
    )
