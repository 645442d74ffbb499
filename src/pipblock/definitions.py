"""The admissibility conditions, stated over critical sections.

This is the reference semantics of a z-chain's admissibility.  It reads
jobs and :class:`~pipblock.taskset.CriticalSection`s only, never the
compiled index, so it shares no predicate with the engine that the chain
check, the quick screen and the search run on.  The oracle enumerates
with it, and the tests compare the engine's verdicts with
:func:`chain_verdict`.

For a target job ``i``, a chain's scope starts as the direct set and
grows by the set each member induces.  Extending ``chain`` by ``z`` must
pass, in this order:

* NBJ: ``z``'s job is new to the chain;
* NBR: ``z``'s resource is new to the chain;
* LSM: ``z`` is maximal w.r.t. the chain's scope;
* FHO: no section of a higher-priority member's job, before the member,
  uses a resource ``z`` holds;
* FLO: no section of ``z``'s job, before ``z``, uses a resource a
  lower-priority member holds.

Each condition takes ``(ts, chain, scope, z)`` and returns None when it
holds, else the pair of sections that violates it: the first clashing
member, the innermost ancestor of ``z`` in scope, or the first earlier
section by position on a resource the other side holds.  LSM returns
``()`` when ``z``'s resource is outside the scope, which no pair names.

The package re-exports only :func:`is_maximal` and
:func:`maximal_sequence`; the rest is read from this module.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .taskset import CriticalSection, ResourceId, TaskSet

__all__ = ["is_maximal", "maximal_sequence"]

Scope = frozenset[ResourceId]


def direct(ts: TaskSet, i: int) -> Scope:
    """Job ``i``'s direct set: the resources used both by a job of
    priority >= i's and by a job below it."""
    if not 1 <= i <= ts.n:
        raise ValueError(f"target job index {i} out of range 1..{ts.n}")
    upper = {z.resource for job in ts.jobs[:i] for z in job.sections}
    return frozenset(z.resource for job in ts.jobs[i:] for z in job.sections if z.resource in upper)


def induced(ts: TaskSet, i: int, z: CriticalSection, scope: Iterable[ResourceId]) -> Scope:
    """The set induced by ``(job i, z)`` from ``scope``: the resources of
    the sections strictly inside ``z``, outside ``scope``, that a job
    below i other than ``z``'s own uses."""
    inside = {w.resource for w in ts.job(z.job).sections if z in w.ancestors()}
    others = {w.resource for job in ts.jobs[i:] if job.index != z.job for w in job.sections}
    return frozenset(inside & others).difference(scope)


def held(z: CriticalSection) -> set[ResourceId]:
    """The resources held while ``z`` runs: its own and its ancestors'."""
    return {z.resource, *(a.resource for a in z.ancestors())}


def is_maximal(z: CriticalSection, scope: Iterable[ResourceId]) -> bool:
    """True iff ``z``'s resource is in ``scope`` and no containing section
    of the same job uses a resource in ``scope``."""
    scope = frozenset(scope)
    if z.resource not in scope:
        return False
    return not any(a.resource in scope for a in z.ancestors())


def maximal_sequence(
    ts: TaskSet, job: int, scope: Iterable[ResourceId]
) -> tuple[CriticalSection, ...]:
    """The subsequence of job ``job``'s sections maximal w.r.t. ``scope``."""
    scope = frozenset(scope)
    return tuple(z for z in ts.job(job).sections if is_maximal(z, scope))


def _earlier_on(ts: TaskSet, z: CriticalSection, resources: set[ResourceId]):
    """The first section of ``z``'s job before ``z`` on one of ``resources``."""
    return next((e for e in ts.job(z.job).sections[: z.position - 1] if e.resource in resources), None)


def nbj(ts: TaskSet, chain: Sequence[CriticalSection], scope: Scope, z: CriticalSection):
    """NBJ: None, or the first member of ``z``'s job and ``z``."""
    return next(((m, z) for m in chain if m.job == z.job), None)


def nbr(ts: TaskSet, chain: Sequence[CriticalSection], scope: Scope, z: CriticalSection):
    """NBR: None, or the first member on ``z``'s resource and ``z``."""
    return next(((m, z) for m in chain if m.resource == z.resource), None)


def lsm(ts: TaskSet, chain: Sequence[CriticalSection], scope: Scope, z: CriticalSection):
    """LSM: None, ``()`` if ``z``'s resource is outside ``scope``, or
    ``z``'s innermost ancestor in ``scope`` and ``z``."""
    if z.resource not in scope:
        return ()
    return next(((a, z) for a in z.ancestors() if a.resource in scope), None)


def fho(ts: TaskSet, chain: Sequence[CriticalSection], scope: Scope, z: CriticalSection):
    """FHO: None, or, for the first higher-priority member whose job
    locks a resource ``z`` holds before the member, that job's first such
    section and the member."""
    covering = held(z)
    for m in chain:
        if m.job < z.job and (q := _earlier_on(ts, m, covering)):
            return q, m
    return None


def flo(ts: TaskSet, chain: Sequence[CriticalSection], scope: Scope, z: CriticalSection):
    """FLO: None, or, for the first lower-priority member holding a
    resource that ``z``'s job locks before ``z``, that job's first such
    section and the member."""
    for m in chain:
        if m.job > z.job and (o := _earlier_on(ts, z, held(m))):
            return o, m
    return None


def chain_verdict(ts: TaskSet, i: int, chain: Sequence[CriticalSection]) -> tuple | None:
    """``(condition, z, pair)`` for the first extension ``z`` of ``chain``
    that violates a condition for job ``i``, naming the first condition
    it violates and that condition's pair (None for LSM's ``()``), or
    None if the chain is admissible."""
    scope = direct(ts, i)
    for k, z in enumerate(chain):
        for name, condition in (("NBJ", nbj), ("NBR", nbr), ("LSM", lsm), ("FHO", fho), ("FLO", flo)):
            pair = condition(ts, chain[:k], scope, z)
            if pair is not None:
                return name, z, pair or None
        scope |= induced(ts, i, z, scope)
    return None
