"""Admissibility of z-chains: which blocking scenarios a schedule can realize.

A z-chain is admissible for a target job when it is built element by
element, each extension satisfying five conditions:

* ``NBJ``: the extension's job is new to the chain;
* ``NBR``: the extension's resource is new to the chain;
* ``LSM``: the extension is maximal w.r.t. the set the chain induces
  (this also forces induction compatibility: each element's resource must
  gain blocking potential from the chain built so far);
* ``FHO``: no earlier section of a higher-priority chain job uses a
  resource the extension holds (the chain's higher-priority sections must
  stay reachable);
* ``FLO``: no earlier section of the extension's own job uses a resource
  a lower-priority chain job holds (the extension itself must be
  reachable).

The empty chain is admissible; admissibility of a longer chain means every
prefix extension passed.  The chain order is construction order, so the
predicate is order-sensitive; the exact search explores orders.

Every condition is a test on the compiled index's masks.  FHO and FLO
are one predicate, :func:`_obstructed`, over the extension's row and two
masks of the chain: ``above``, the OR of ``earlier`` over the members of
higher priority than the extension's job, and ``below``, the OR of
``held`` over those of lower priority; :func:`_priority_masks` builds
both, for the chain check and the oracle's enumeration.  Only a failure
that has to be reported walks the chain, to name the witness pair.  The
exact search calls none of these: it reads NBJ, NBR, FHO and FLO from
the index's ``conflict`` masks and LSM from its ``on`` and ``inside``
masks (:mod:`~pipblock.search`).

``quick_admissibility_verdict`` is the fast screen run after the
assignment bound: it tries to realize the bound as a chain by always
taking the leftmost longest section per assignment pair, then checks the
constructed chain with ``is_admissible_chain``.  It is sound (a pass yields
a verified witness chain) but not complete: picking the leftmost section
can fail where another section of equal length would have worked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bound import AssignmentSet
from .relevance import _direct, _induced
from .taskset import CriticalSection, TaskSet, ZChain, _compiled, _Index, _maximal, _Section

__all__ = [
    "AdmissibilityVerdict",
    "QuickCheckResult",
    "is_admissible_chain",
    "quick_admissibility_verdict",
]

NBJ = "NBJ"
NBR = "NBR"
LSM = "LSM"
FHO = "FHO"
FLO = "FLO"
INDUCTION = "induction-compatibility"


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of an admissibility test.

    ``failed_condition`` names the first violated condition (check order
    NBJ, NBR, LSM, FHO, FLO); ``section`` is the rejected extension and
    ``witness`` the conflicting pair of sections when one exists.
    """

    admissible: bool
    failed_condition: str | None = None
    section: CriticalSection | None = None
    witness: tuple[CriticalSection, CriticalSection] | None = None

    def __bool__(self) -> bool:
        return self.admissible


_OK = AdmissibilityVerdict(admissible=True)


def _check_members(ts: TaskSet, i: int, chain: Sequence[CriticalSection]) -> None:
    for z in chain:
        if z.job <= i:
            raise ValueError(
                f"{z.label} belongs to J{z.job}, not below the target J{i}"
            )
        # identity, not equality: sections compare by (job, position) only
        if ts.section(z.job, z.position) is not z:
            raise ValueError(f"{z.label} is not a section of this task set")


def _extension_failure(
    index: _Index,
    chain: Sequence[CriticalSection],
    jobs: int,
    resources: int,
    in_set: int,
    z: CriticalSection,
) -> AdmissibilityVerdict | None:
    """First violated condition when extending ``chain`` with ``z``, or
    None if ``z`` is an admissible extension.  ``jobs`` (bit j for job j),
    ``resources`` and ``in_set`` are the masks of the chain's jobs, its
    resources and its induced set; the chain is walked only to name the
    member an NBJ or NBR failure conflicts with."""
    if jobs >> z.job & 1:
        member = next(m for m in chain if m.job == z.job)
        return AdmissibilityVerdict(False, NBJ, z, (member, z))
    s = index.entry(z)
    if resources & s.bit:
        member = next(m for m in chain if m.resource == z.resource)
        return AdmissibilityVerdict(False, NBR, z, (member, z))
    if not s.bit & in_set:
        return AdmissibilityVerdict(False, LSM, z, None)
    if not _maximal(s, in_set):
        anc = next(a for a in z.ancestors() if index.bits[a.resource] & in_set)
        return AdmissibilityVerdict(False, LSM, z, (anc, z))
    above, below = _priority_masks(index, chain, z.job)
    return _obstruction(index, chain, s, above, below)


def _priority_masks(
    index: _Index, chain: Sequence[CriticalSection], job: int
) -> tuple[int, int]:
    """``(above, below)`` for a section of ``job``: the OR of ``earlier``
    over the chain members of higher priority (smaller job index) and the
    OR of ``held`` over those of lower priority."""
    above = below = 0
    for member in chain:
        if member.job < job:
            above |= index.entry(member).earlier
        elif member.job > job:
            below |= index.entry(member).held
    return above, below


def _obstructed(s: _Section, above: int, below: int) -> bool:
    """True iff FHO or FLO rejects the section of row ``s``: a resource it
    holds is used by an earlier section of a higher-priority member (in
    ``above``), or one of its job's earlier sections uses a resource a
    lower-priority member holds (in ``below``)."""
    return above & s.held != 0 or s.earlier & below != 0


def _obstruction(
    index: _Index,
    chain: Sequence[CriticalSection],
    s: _Section,
    above: int,
    below: int,
) -> AdmissibilityVerdict | None:
    """FHO, then FLO, failure for extending ``chain`` with the section of
    row ``s``, or None when neither obstruction applies; ``above`` and
    ``below`` are the chain's priority masks for ``s``'s job (see
    :func:`_priority_masks`).  The masks decide; only on failure is the
    chain walked to name the witness pair: the first member, in chain
    order, that obstructs on its own, with the job's first earlier
    section on a resource of the conflict."""
    if not _obstructed(s, above, below):
        return None
    z = s.z
    rows = [index.entry(member) for member in chain]
    for m in rows:
        if m.z.job < z.job and _obstructed(s, m.earlier, 0):
            q = next(e.z for e in index.sections[m.z.job - 1] if e.bit & s.held)
            return AdmissibilityVerdict(False, FHO, z, (q, m.z))
    m = next(m for m in rows if m.z.job > z.job and _obstructed(s, 0, m.held))
    o = next(e.z for e in index.sections[z.job - 1] if e.bit & m.held)
    return AdmissibilityVerdict(False, FLO, z, (o, m.z))


def is_admissible_chain(
    ts: TaskSet, i: int, chain: Sequence[CriticalSection]
) -> AdmissibilityVerdict:
    """Check a whole chain: every prefix extension, in the stated order.
    The target index is checked before the chain's members."""
    index = _compiled(ts)
    in_set = _direct(index, i)
    _check_members(ts, i, chain)
    prefix: list[CriticalSection] = []
    jobs = resources = 0
    for z in chain:
        failure = _extension_failure(index, prefix, jobs, resources, in_set, z)
        if failure is not None:
            return failure
        prefix.append(z)
        s = index.entry(z)
        jobs |= 1 << z.job
        resources |= s.bit
        in_set |= _induced(index, i, s, in_set)
    return _OK


@dataclass(frozen=True)
class QuickCheckResult:
    """Outcome of the fast bound-realization screen.

    On success ``chain`` is an admissible chain of duration ``achieved``
    equal to the bound.  On failure ``failed_condition`` is
    ``induction-compatibility`` when the assignment pairs could not all be
    woven into one induction-compatible chain (the accumulated duration
    falls short of the bound); otherwise it is the condition, with
    ``witness`` the conflicting pair, that :func:`is_admissible_chain`
    reports for the constructed chain.
    """

    passed: bool
    chain: ZChain
    achieved: Fraction
    failed_condition: str | None = None
    witness: tuple[CriticalSection, CriticalSection] | None = None

    def __bool__(self) -> bool:
        return self.passed


def quick_admissibility_verdict(
    ts: TaskSet, i: int, assignment: AssignmentSet
) -> QuickCheckResult:
    """Try to realize the bound ``assignment.value`` as an admissible chain
    built from the assignment pairs.

    Pairs are consumed in ascending job order whenever their resource has
    entered the induction scope (seeded with the direct blocking set); for
    each pair the leftmost section of the job's longest duration on the
    resource is chosen, its nested resources join the scope and the
    consumed resource leaves it.  If the accumulated duration falls short
    of the bound the screen fails; otherwise the constructed chain passes
    exactly when :func:`is_admissible_chain` accepts it.
    """
    index = _compiled(ts)
    scope = _direct(index, i)
    chain: list[CriticalSection] = []
    total = 0
    remaining = sorted(assignment.pairs)
    while True:
        pick = next(
            (
                (job, resource)
                for (job, resource) in remaining
                if index.bits[resource] & scope and index.longest[job - 1].get(resource, 0)
            ),
            None,
        )
        if pick is None:
            break
        remaining.remove(pick)
        job, resource = pick
        bit, longest = index.bits[resource], index.longest[job - 1][resource]
        s = next(e for e in index.sections[job - 1] if e.bit == bit and e.duration == longest)
        chain.append(s.z)
        total += longest
        scope = (scope | s.nested) & ~bit
    achieved = Fraction(total, index.scale)
    if achieved < assignment.value:
        return QuickCheckResult(
            passed=False,
            chain=tuple(chain),
            achieved=achieved,
            failed_condition=INDUCTION,
        )
    verdict = is_admissible_chain(ts, i, tuple(chain))
    if not verdict.admissible:
        return QuickCheckResult(
            passed=False,
            chain=tuple(chain),
            achieved=achieved,
            failed_condition=verdict.failed_condition,
            witness=verdict.witness,
        )
    return QuickCheckResult(passed=True, chain=tuple(chain), achieved=achieved)
