"""Task-set model: jobs, properly nested critical sections, bracket notation.

A task set lists jobs in descending priority order (job 1 has the highest
priority).  Each job is a sequence of critical sections; section ``p`` of
job ``j`` (written ``zj,p``) is the code span between the job's p-th wait
on a binary semaphore and the matching signal.  Every resource is guarded
by its own binary semaphore, so resources are identified directly by a
positive index ``Rk``.

Sections of one job are properly nested: two sections are either disjoint
or one entirely contains the other, and a resource is never re-locked
inside one of its own sections.  Durations are exact rationals so that
analyses compare times without rounding.

The text format, one line per job::

    J1: [R2: 3 [R1: 1]]
    J2: [R1: 3] [R1: 4]

describes job 1 holding R2 for 3 time units with a nested section on R1,
and job 2 with two disjoint sections on R1.  Lines starting with ``#`` are
comments.  Durations are decimal literals; exact fractions such as ``1/3``
are accepted as an extension.

Positions follow wait order: outer before inner, left to right, so a
section's parent is still open when the section starts and the sections
inside one form a contiguous run of positions.  The parser numbers them
so; a set built in code from :class:`Job` and :class:`CriticalSection`
must list them so too, or :class:`TaskSet` raises :class:`TaskSetError`.

The analyses read a task set through its compiled index (``_Index``):
integer durations and resource bit masks, built once on first use.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

__all__ = [
    "CriticalSection",
    "Job",
    "NestingError",
    "ParseError",
    "ResourceId",
    "TaskSet",
    "TaskSetError",
    "ZChain",
    "ZeroDurationWarning",
    "chain_duration",
    "contains",
    "format_chain",
    "parse_chain",
    "parse_taskset",
    "serialize_taskset",
]

ResourceId = int

DurationLike = Union[Fraction, int, str]


class TaskSetError(Exception):
    """Invalid task-set structure."""


class ParseError(TaskSetError):
    """Malformed task-set or chain text."""


class NestingError(TaskSetError):
    """A resource is locked again inside one of its own sections."""


class ZeroDurationWarning(UserWarning):
    """A critical section has duration zero (permitted but suspicious)."""


def as_duration(value: DurationLike) -> Fraction:
    """Normalize a duration to a non-negative ``Fraction`` (a ``Fraction``
    is kept as it is: it is immutable)."""
    duration = value
    if type(duration) is not Fraction:
        try:
            duration = Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ParseError(f"bad duration {value!r}") from exc
    if duration.numerator < 0:
        raise TaskSetError(f"negative duration {value!r}")
    return duration


class CriticalSection:
    """One critical section: the ``position``-th wait/signal span of ``job``.

    Identity is the pair ``(job, position)``; resource and duration are
    attributes (a job may lock the same resource in several disjoint
    sections).  ``parent`` is the immediately containing section of the
    same job, or ``None`` for a top-level section.
    """

    __slots__ = ("job", "position", "resource", "duration", "parent")

    def __init__(
        self,
        job: int,
        position: int,
        resource: ResourceId,
        duration: DurationLike,
        parent: "CriticalSection | None" = None,
    ) -> None:
        if job < 1 or position < 1 or resource < 1:
            raise TaskSetError(
                f"job, position and resource indices are 1-based "
                f"(got z{job},{position} on R{resource})"
            )
        self.job = job
        self.position = position
        self.resource = resource
        self.duration = as_duration(duration)
        self.parent = parent

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CriticalSection):
            return NotImplemented
        return self.job == other.job and self.position == other.position

    def __hash__(self) -> int:
        return hash((self.job, self.position))

    def __repr__(self) -> str:
        return f"<z{self.job},{self.position} R{self.resource}:{self.duration}>"

    @property
    def label(self) -> str:
        """Compact name ``zj,p`` used in reports and on the command line."""
        return f"z{self.job},{self.position}"

    def ancestors(self) -> Iterator["CriticalSection"]:
        """Strictly containing sections, innermost first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


#: An ordered sequence of critical sections (a candidate blocking scenario).
ZChain = tuple[CriticalSection, ...]


@dataclass(frozen=True)
class Job:
    """A job: priority rank ``index`` (smaller = higher priority) and its
    ordered critical sections."""

    index: int
    sections: tuple[CriticalSection, ...]


class TaskSet:
    """An immutable application: jobs 1..n plus the referenced resources.

    Safe to share read-only across threads.  The analyses in this package
    give results that depend only on the set and their arguments, but they
    are not pure: they fill caches on the set, its compiled index
    (:func:`_compiled`), the index's ``conflict`` masks, deadlock verdict
    and job slot (one job's fixpoint and kernel at a time) and the memo of
    the relaxed bound M (:func:`_relaxed`).  These live as long as the
    set.  The M memo is shared by every
    search on the set, outlives each call and is cleared only past
    ``_RELAXED_CAP`` entries: after the exact search of J2 on the 40-job
    random set of seed 0 it holds 774,733 entries, and the process keeps
    about 100 MB resident (16 MB before the call, 23 MB with the memo
    cleared; CPython 3.11).  Drop the set, or clear ``_index.relaxed``, to
    free it.
    """

    __slots__ = ("jobs", "resources", "_index")

    def __init__(self, jobs: Sequence[Job]) -> None:
        self.jobs: tuple[Job, ...] = tuple(jobs)
        self._validate()
        self.resources: frozenset[ResourceId] = frozenset(
            z.resource for z in self.iter_sections()
        )

    def _validate(self) -> None:
        if not self.jobs:
            raise TaskSetError("a task set needs at least one job")
        for rank, job in enumerate(self.jobs, start=1):
            if job.index != rank:
                raise TaskSetError(
                    f"jobs must be numbered J1..Jn in priority order "
                    f"(expected J{rank}, found J{job.index})"
                )
            # The open path: the last section and the sections enclosing
            # it, with the open section on each of their resources.
            path: list[CriticalSection] = []
            open_on: dict[ResourceId, CriticalSection] = {}
            for pos, z in enumerate(job.sections, start=1):
                if z.job != job.index or z.position != pos:
                    raise TaskSetError(
                        f"section {z.label} out of place in J{job.index} "
                        f"(expected z{job.index},{pos})"
                    )
                if z.parent is not None:
                    if z.parent.job != job.index or z.parent.position >= pos:
                        raise TaskSetError(
                            f"{z.label}: parent must be an earlier section "
                            f"of the same job"
                        )
                    if job.sections[z.parent.position - 1] is not z.parent:
                        raise TaskSetError(f"{z.label}: parent link is stale")
                while path and path[-1] is not z.parent:
                    del open_on[path.pop().resource]
                if z.parent is not None and not path:
                    raise TaskSetError(
                        f"{z.label}: sections must be listed in wait order "
                        f"(its parent {z.parent.label} has already closed)"
                    )
                a = open_on.get(z.resource)
                if a is not None:
                    raise NestingError(
                        f"R{z.resource} locked again inside its own "
                        f"section ({a.label} contains {z.label})"
                    )
                path.append(z)
                open_on[z.resource] = z
                if not z.duration:
                    warnings.warn(
                        f"{z.label} has duration 0", ZeroDurationWarning, stacklevel=3
                    )

    @property
    def n(self) -> int:
        return len(self.jobs)

    def job(self, index: int) -> Job:
        if not 1 <= index <= len(self.jobs):
            raise TaskSetError(f"no job J{index} (task set has {len(self.jobs)} jobs)")
        return self.jobs[index - 1]

    def section(self, job: int, position: int) -> CriticalSection:
        sections = self.job(job).sections
        if not 1 <= position <= len(sections):
            raise TaskSetError(f"no section z{job},{position}")
        return sections[position - 1]

    def iter_sections(self) -> Iterator[CriticalSection]:
        for job in self.jobs:
            yield from job.sections

    def _canonical(self) -> tuple:
        return tuple(
            (
                job.index,
                tuple(
                    (
                        z.position,
                        z.resource,
                        z.duration,
                        z.parent.position if z.parent else None,
                    )
                    for z in job.sections
                ),
            )
            for job in self.jobs
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskSet):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        return f"<TaskSet n={len(self.jobs)} resources={sorted(self.resources)}>"


class _Section(NamedTuple):
    """One section's row of the index.  Masks hold resource bits: ``held``
    is the section's own resource and its enclosing sections' ones,
    ``earlier`` the resources of the job's earlier sections and ``nested``
    those of the sections it contains; ``duration`` is scaled.  ``key``
    numbers the set's sections job by job in position order, so a set of
    sections is one integer, the OR of ``1 << key`` over its sections.
    The position is stored rather than the bit: the bits of a large set
    are long integers, and an index stays alive as long as its set."""

    z: CriticalSection
    bit: int
    held: int
    earlier: int
    nested: int
    duration: int
    key: int


class _Index:
    """Integer view of a task set: the one representation the engine reads.

    Durations are integers in units of ``1/scale``, the common denominator
    of all durations, and resource sets are bit masks (``bits`` gives each
    resource its bit, ``ids[k]`` is the resource of bit ``1 << k``).
    ``longest[j-1]`` maps each resource R job j uses to the row of the
    job's leftmost longest section on R: the matrix cell (J_j, R), read
    by the bound's kernel and the quick screen alike.  ``sections[j-1]``
    holds job j's section rows in position order, ``rows[key]`` is the
    row of each section key, and ``users`` maps each resource bit to the
    mask of the jobs using it (bit ``j`` for job j).

    Three masks over section keys are built with the rows: ``on`` maps
    each resource bit to the keys of the sections on it, ``inside`` to the
    keys strictly inside a section on it, and ``job_keys[j]`` holds the
    keys of job j's sections (entry 0 unused).  Positions are in wait
    order, so a subtree is a contiguous key range.  The relevance fixpoint
    and the exact search read maximality from ``on`` and ``inside``
    (:func:`_on_inside`).  ``conflict``, one mask of S bits for each of
    the S sections, is built on first read: only the exact search reads it.
    ``relaxed`` is :func:`_relaxed`'s memo, shared by every search on the
    set, and ``durations[key]`` each row's duration, for it.

    ``verdict`` is the deadlock check's, computed once.  ``slot`` holds
    one job's work, ``(i, iterates, kernel, jobs, resources)``
    (:func:`~pipblock.relevance._scope`, :func:`~pipblock.bound._job_kernel`);
    a scope for another job replaces it.
    """

    __slots__ = (
        "scale", "bits", "ids", "longest", "sections", "rows", "durations", "users",
        "on", "inside", "job_keys", "_conflict", "relaxed", "verdict", "slot",
    )

    def __init__(self, ts: TaskSet) -> None:
        self.scale = math.lcm(*(z.duration.denominator for z in ts.iter_sections()))
        self.ids = sorted(ts.resources)
        self.bits = {r: 1 << k for k, r in enumerate(self.ids)}
        self.users = dict.fromkeys(self.bits.values(), 0)
        self.on = dict.fromkeys(self.bits.values(), 0)
        self.inside = dict.fromkeys(self.bits.values(), 0)
        self.job_keys = [0] * (len(ts.jobs) + 1)
        self.longest: list[dict[ResourceId, _Section]] = []
        self.sections: list[list[_Section]] = []
        bits, on, inside, users, scale = self.bits, self.on, self.inside, self.users, self.scale
        key = 0
        for job in ts.jobs:
            nested = [0] * len(job.sections)
            last = list(range(key, key + len(job.sections)))  # each subtree's last key
            for z in reversed(job.sections):
                if z.parent is not None:
                    p, up = z.position - 1, z.parent.position - 1
                    nested[up] |= bits[z.resource] | nested[p]
                    last[up] = max(last[up], last[p])
            self.job_keys[job.index] = ((1 << len(job.sections)) - 1) << key
            longest: dict[ResourceId, _Section] = {}
            rows: list[_Section] = []
            earlier = 0
            for z, inner, stop in zip(job.sections, nested, last):
                bit, d = bits[z.resource], z.duration
                held = bit | (rows[z.parent.position - 1].held if z.parent else 0)
                duration = d.numerator * (scale // d.denominator)  # scaled(d), inline
                rows.append(_Section(z, bit, held, earlier, inner, duration, key))
                on[bit] |= 1 << key
                inside[bit] |= ((1 << stop - key) - 1) << key + 1
                key += 1
                # strictly longer only, so the leftmost of equal sections stays
                if z.resource not in longest or duration > longest[z.resource].duration:
                    longest[z.resource] = rows[-1]
                users[bit] |= 1 << job.index
                earlier |= bit
            self.longest.append(longest)
            self.sections.append(rows)
        self.rows = [s for job in self.sections for s in job]
        self.durations = [s.duration for s in self.rows]
        self._conflict: list[int] | None = None
        self.relaxed: dict[int, int] = {0: 0}
        self.verdict = self.slot = None

    def scaled(self, duration: Fraction) -> int:
        """``duration`` in units of ``1/scale`` (exact for the set's durations)."""
        return duration.numerator * (self.scale // duration.denominator)

    def entry(self, z: CriticalSection) -> _Section:
        """The row of the section at ``z``'s job and position."""
        return self.sections[z.job - 1][z.position - 1]

    def mask(self, resources: Iterable[ResourceId]) -> int:
        """Bit mask of the task set's resources among ``resources``."""
        return sum(self.bits.get(r, 0) for r in set(resources))

    def resources_of(self, mask: int) -> frozenset[ResourceId]:
        """The resources whose bits are set in ``mask``."""
        ids = self.ids
        return frozenset([ids[k] for k in _positions(mask)])

    def keys(self, jobs: int) -> int:
        """The mask of the section keys of the jobs in ``jobs`` (bit j for
        job j)."""
        return sum(self.job_keys[j] for j in _positions(jobs))

    @property
    def conflict(self) -> list[int]:
        """Per row, the keys no chain holding that row can take (built on
        first read)."""
        if self._conflict is None:
            self._conflict = self._conflicts()
        return self._conflict

    def _conflicts(self) -> list[int]:
        """Row m's conflict mask holds section s when s has m's job (the
        job's ``job_keys`` range) or m's resource (NBJ, NBR), when m's job
        has higher priority and ``m.earlier & s.held`` (FHO), or when m's
        job has lower priority and ``s.earlier & m.held`` (FLO).

        No pair is tested.  Per resource, ``on | inside`` masks the sections
        holding it and ``after`` the sections whose job used it earlier (the
        rest of the job after its first section on it).  Walking a job in
        position order, the FHO mask of a row is the OR of the holding masks
        over its earlier resources, grown one row at a time, and its FLO
        mask the OR of ``after`` over its held resources, its parent's plus
        its own.  Each is then cut to the jobs below, or above, the row's
        own; the FLO cut reads ``after`` only for the jobs already walked,
        so it grows in the same walk.
        """
        on, inside, after = self.on, self.inside, dict.fromkeys(self.on, 0)
        conflict: list[int] = []
        for j, rows in enumerate(self.sections, 1):
            if not rows:
                continue
            own, first, end = self.job_keys[j], rows[0].key, rows[-1].key + 1
            reach = 0
            held: list[int] = []
            for s in rows:
                if not s.earlier & s.bit:
                    after[s.bit] |= ((1 << end - s.key - 1) - 1) << s.key + 1
                parent = s.z.parent
                held.append(after[s.bit] | (held[parent.position - 1] if parent else 0))
                conflict.append(
                    own
                    | on[s.bit]
                    | reach >> end << end
                    | held[-1] & (1 << first) - 1
                )
                reach |= on[s.bit] | inside[s.bit]
        return conflict


def _positions(mask: int) -> list[int]:
    """The positions of the bits set in ``mask``, ascending."""
    positions = []
    while mask:
        positions.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return positions


def _maximal(s: _Section, mask: int) -> bool:
    """True iff the section's resource is in ``mask`` and no enclosing
    section's resource is (maximality w.r.t. a resource set)."""
    return s.held & mask == s.bit


def _on_inside(index: _Index, mask: int) -> tuple[int, int]:
    """The keys of the sections on a resource of ``mask``, and of those
    strictly inside a section on one: the index's ``on`` and ``inside``
    masks ORed over the bits of ``mask``."""
    on, inside = index.on, index.inside
    hit = out = 0
    while mask:
        bit = mask & -mask
        hit |= on[bit]
        out |= inside[bit]
        mask ^= bit
    return hit, out


# Entries :func:`_relaxed`'s memo may hold before a call clears it.
_RELAXED_CAP = 1 << 20


def _relaxed(index: _Index, cand: int) -> int:
    """The relaxed bound M: the largest total duration of a set of
    pairwise conflict-free sections (no one in another's ``conflict``
    mask) among the keys of ``cand``, in units of ``1/scale``.

    Take or skip the lowest key s: ``M(c) = max(d(s) + M(c & ~conflict[s]),
    M(c & ~bit(s)))``, since ``conflict[s]`` holds s itself.  It is
    evaluated with an explicit stack, so a mask of thousands of keys cannot
    exhaust the interpreter's recursion limit, and memoised per mask on the
    index.  A mask's split replaces it on the stack at its first visit, for
    its second.  The memo is cleared
    when a call finds it above ``_RELAXED_CAP`` entries, so it holds at most
    the cap plus one call's own entries.  Each mask's value is read from the
    memo once and kept in a local, and the result is that local, so another
    thread's clear between a store and the return cannot lose it.

    Why the exact search may prune with it.  Take job i and a node
    ``(live, induced)``, and let ``cand = live & ~inside(induced) &
    on(R_i)``, where R_i is job i's relevant resources and ``inside(I)``,
    ``on(R)`` OR the index's masks over the bits of I and R.  Every
    admissible completion of the node is a set within ``cand``: its
    members pass NBJ, NBR, FHO and FLO against the chain (``live``) and
    pairwise (exactly the ``conflict`` masks), each lies on a relevant
    resource, and none lies inside a section on an induced resource,
    since such a section is never maximal again once the induced set
    only grows.  So M of that mask bounds every completion from above.
    """
    memo = index.relaxed
    value = memo.get(cand)
    if value is not None:
        return value
    if len(memo) > _RELAXED_CAP:
        memo.clear()
        memo[0] = 0
    conflict, durations = index._conflict or index.conflict, index.durations
    stack: list = [cand]
    while stack:
        c = stack[-1]
        if type(c) is int:
            value = memo.get(c)
            if value is not None:
                stack.pop()
                continue
            low = c & -c
            key = low.bit_length() - 1
            c = stack[-1] = c, c & ~conflict[key], c ^ low, durations[key]
        c, taken, rest, duration = c
        take, skip = memo.get(taken), memo.get(rest)
        if take is None or skip is None:
            if take is None:
                stack.append(taken)
            if skip is None:
                stack.append(rest)
            continue
        stack.pop()
        value = duration + take
        if skip > value:
            value = skip
        memo[c] = value
    return value


def _compiled(ts: TaskSet) -> _Index:
    """The index of ``ts``, compiled on first use and kept on the set
    (it depends only on the immutable set)."""
    index = getattr(ts, "_index", None)
    if index is None:
        index = ts._index = _Index(ts)
    return index


def contains(a: CriticalSection, b: CriticalSection) -> bool:
    """True iff ``b`` is entirely contained in ``a`` (strict containment)."""
    return a.job == b.job and any(anc is a or anc == a for anc in b.ancestors())


def chain_duration(chain: Iterable[CriticalSection]) -> Fraction:
    """Total duration of a z-chain; 0 for the empty chain."""
    return sum((z.duration for z in chain), start=Fraction(0))


# --- text format ------------------------------------------------------------

_JOB_LINE = re.compile(r"J(\d+)\s*:\s*(.*)$")
_TOKEN = re.compile(r"(\[|\]|R\d+\s*:|\d+/\d+|\d+\.\d+|\.\d+|\d+)")


def parse_taskset(text: str) -> TaskSet:
    """Parse the bracket notation into a :class:`TaskSet`.

    Positions are assigned in wait order: left to right, outer before
    inner.  Raises :class:`ParseError` on malformed text and
    :class:`NestingError` when a resource is re-locked inside its own
    section.
    """
    jobs: list[Job] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _JOB_LINE.match(line)
        if not match:
            raise ParseError(f"line {lineno}: expected 'J<j>: <sections>'")
        index = int(match.group(1))
        if index != len(jobs) + 1:
            raise ParseError(
                f"line {lineno}: jobs must appear as J1..Jn in priority order "
                f"(expected J{len(jobs) + 1}, found J{index})"
            )
        jobs.append(Job(index=index, sections=_parse_sections(match.group(2), index, lineno)))
    if not jobs:
        raise ParseError("no jobs found")
    return TaskSet(jobs)


def _parse_sections(body: str, job: int, lineno: int) -> tuple[CriticalSection, ...]:
    sections: list[CriticalSection] = []
    stack: list[CriticalSection] = []
    state = "open"  # open -> '[', resource -> 'R<k>:', duration -> literal
    pending_resource = 0
    parts = _TOKEN.split(body)  # text before each token, the token; the text after the last
    for gap, token in zip(parts[::2], parts[1::2]):
        if gap.strip():
            raise ParseError(f"line {lineno}: unexpected {gap.strip()!r}")
        if token == "[":
            if state != "open":
                raise ParseError(f"line {lineno}: unexpected '['")
            state = "resource"
        elif token.startswith("R"):
            if state != "resource":
                raise ParseError(f"line {lineno}: unexpected {token!r}")
            pending_resource = int(token[1:].rstrip(": \t"))
            state = "duration"
        elif token == "]":
            if state != "open" or not stack:
                raise ParseError(f"line {lineno}: unbalanced ']'")
            stack.pop()
        else:
            if state != "duration":
                raise ParseError(f"line {lineno}: unexpected {token!r}")
            # A token of decimal digits is an integer; int() reads it
            # several times faster than the Fraction parser.
            duration = Fraction(int(token)) if token.isdecimal() else as_duration(token)
            section = CriticalSection(
                job, len(sections) + 1, pending_resource, duration, stack[-1] if stack else None
            )
            sections.append(section)
            stack.append(section)
            state = "open"
    if parts[-1].strip():
        raise ParseError(f"line {lineno}: unexpected {parts[-1].strip()!r}")
    if stack or state != "open":
        raise ParseError(f"line {lineno}: unbalanced brackets")
    return tuple(sections)


def _format_job(job: Job) -> str:
    """One line of the text format, from an explicit stack of child
    iterators (nesting depth costs no recursion)."""
    children: list[list[CriticalSection]] = [[] for _ in range(len(job.sections) + 1)]
    for z in job.sections:
        children[z.parent.position if z.parent else 0].append(z)
    parts = [f"J{job.index}:"]
    stack = [iter(children[0])]
    while stack:
        z = next(stack[-1], None)
        if z is None:
            stack.pop()
            if stack:
                parts.append("]")
        else:
            parts.append(f" [R{z.resource}: {z.duration!s}")
            stack.append(iter(children[z.position]))
    return "".join(parts)


def serialize_taskset(ts: TaskSet) -> str:
    """Render a task set in the canonical text format (one job per line)."""
    return "".join(_format_job(job) + "\n" for job in ts.jobs)


_CHAIN_TOKEN = re.compile(r"z?(\d+)\s*,\s*(\d+)")


def parse_chain(ts: TaskSet, text: str) -> ZChain:
    """Parse a chain written as section labels, e.g. ``"z4,1 z3,2 z2,1"``."""
    chain: list[CriticalSection] = []
    cursor = 0
    for match in _CHAIN_TOKEN.finditer(text):
        if text[cursor : match.start()].strip(" ;\t"):
            raise ParseError(f"bad chain element {text[cursor:match.start()]!r}")
        cursor = match.end()
        chain.append(ts.section(int(match.group(1)), int(match.group(2))))
    if text[cursor:].strip(" ;\t"):
        raise ParseError(f"bad chain element {text[cursor:]!r}")
    return tuple(chain)


def format_chain(chain: Iterable[CriticalSection]) -> str:
    labels = [z.label for z in chain]
    return "<" + ", ".join(labels) + ">"
