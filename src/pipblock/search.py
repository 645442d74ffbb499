"""Exact worst-case blocking time via best-first search over z-chains.

Nodes carry a partial admissible chain plus derived sets; the heuristic is
the assignment bound over the jobs and resources the chain has not used
yet.  The bound never underestimates the best completion (any completion
picks at most one new section per remaining job on distinct remaining
resources), so the heuristic is admissible and the first leaf popped from
the fringe carries the exact maximum.

Fringe discipline: descending estimate ``f = g + h``; ties prefer leaf
nodes, then the newest expansion batch (within a batch, generation
order).  All generated-but-unexpanded nodes stay in the fringe, and the
fringe also remembers every chain set ever generated: differently-ordered
permutations of one section set have equal gain, heuristic and extension
options, so exploring a set once suffices.  The duplicate guard therefore
discards an extension exactly when its section set was generated before.
A section set is one integer: every section of the index has its own
bit (``1 << _Section.key``), a node's ``members`` is the OR of its
chain's bits, and the guard is a set of those integers, so a query is
one OR and one hash of an int.

Successor generation is mask arithmetic.  Candidates satisfy LSM and
NBR (maximal w.r.t. the induced set, resource new to the chain); one
generator, :func:`_candidates`, finds them for the extensions and the
leaf test.  NBR reads ``remaining_resources``, so a node keeps no mask
``taken`` of the chain's resources: taken = relevant − remaining and
taken ⊆ induced ⊆ relevant (a section joins only once its resource is
induced, and induction stays within the relevant set), so
induced − taken = induced ∩ remaining.  FHO and FLO are one test of the
candidate's row against two masks of the chain
(:func:`~pipblock.admissibility._obstructed`): ``above``, the
earlier-section resources of the members of higher priority than the
candidate's job, and ``below``, the held resources of the members of
lower priority.  Both depend only on the job, so ``successors`` builds
them once per candidate job, with the chain check's
:func:`~pipblock.admissibility._priority_masks`.  A rejected candidate
is simply dropped: the search never names the conflicting pair, so it
never walks the chain for a witness
(:func:`~pipblock.admissibility._obstruction` does that for reports).

Nodes live on the task set's compiled index: the chain's section set, its
induced set and the remaining jobs and resources are bit masks, and gain
and heuristic are integers in units of ``1/index.scale``, so the fringe
orders by exact integer keys.  Only the returned result (and the
expansion records, on reading) hold ``Fraction`` values.

Heuristics are inherited, not solved afresh.  One cost matrix serves
the whole search: :func:`_root` builds it with row j for job j, column
k + 1 for resource bit ``1 << k`` and zero padding after them, and
solves the root's assignment over the relevant rows and columns and as
much padding as squares them.  A child's problem is its parent's minus
the row of the added section's job and the column of its resource, so
:meth:`~pipblock.bound._Assignment.without` deactivates exactly those
two numbers and repairs the optimum with one augmenting path in O(n²).
Every estimate, the root's too, is minus the solved assignment's
:meth:`~pipblock.bound._Assignment.total`; the maximum value is unique,
so it equals a fresh ``hungarian_bound`` over the node's sets, and with
it every fringe key, node count and witness.  The deletion is well
defined because candidates are drawn from the remaining jobs and the
remaining resources.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .admissibility import _obstructed, _priority_masks
from .bound import _Assignment, hungarian_bound  # noqa: F401 (bench/spans.py traces it)
from .deadlock import require_acyclic
from .relevance import _induced, blocking_scope
from .taskset import (
    CriticalSection,
    TaskSet,
    ZChain,
    _compiled,
    _Index,
    _maximal,
    _positions,
    _Section,
)

__all__ = [
    "ExpansionRecord",
    "Fringe",
    "SearchNode",
    "SearchResult",
    "blocking_time",
    "expand",
    "successors",
]

@dataclass
class SearchNode:
    """One search-tree node: a partial chain and its derived sets.

    ``members`` is the chain's section set, the OR of ``1 << key`` over
    its sections' index rows.  ``induced`` is the chain's induced set, a
    resource mask of the task set's index.  ``remaining_resources`` (a
    resource mask) and ``remaining_jobs`` (bit ``j`` for job j) are the
    relevant sets minus what the chain used.
    ``gain`` (the chain's duration) and ``heuristic`` are integers in
    units of ``1/index.scale``.  ``seq`` and ``batch`` are bookkeeping for
    deterministic tie-breaking.  ``assignment`` is the solved
    :class:`~pipblock.bound._Assignment` behind ``heuristic`` (active:
    the remaining jobs and resources and their padding), or None when the
    node had no candidate extension on creation (a leaf).
    """

    chain: ZChain
    members: int
    induced: int
    remaining_resources: int
    remaining_jobs: int
    gain: int
    heuristic: int
    seq: int = -1
    batch: int = -1
    assignment: _Assignment | None = None

    @property
    def estimate(self) -> int:
        return self.gain + self.heuristic

    @property
    def is_leaf(self) -> bool:
        return self.heuristic == 0


class Fringe:
    """Generated-but-unexpanded nodes, ordered for Remove-First.

    Also keeps a permanent record of every chain set generated so far, as
    the ``members`` masks of the pushed nodes; the duplicate guard queries
    it.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[tuple, SearchNode]] = []
        self._live: set[int] = set()
        self._generated: set[int] = set()

    def push(self, node: SearchNode) -> None:
        if node.seq < 0 or node.seq in self._live:
            raise ValueError("nodes need a fresh non-negative seq before insertion")
        key = (-node.estimate, 0 if node.is_leaf else 1, -node.batch, node.seq)
        heapq.heappush(self._heap, (key, node))
        self._live.add(node.seq)
        self._generated.add(node.members)

    def pop(self) -> SearchNode:
        _, node = heapq.heappop(self._heap)
        self._live.remove(node.seq)
        return node

    def already_generated(self, sections: int) -> bool:
        """True iff a node with exactly this chain set (a ``members`` mask)
        was ever pushed."""
        return sections in self._generated


@dataclass(frozen=True)
class ExpansionRecord:
    """One Remove-First step, for traces and instrumentation.  The expanded
    node's gain and heuristic are kept as integers in units of
    ``1/scale`` and read as exact durations."""

    seq: int
    chain: ZChain
    gain_units: int
    heuristic_units: int
    scale: int
    extensions: tuple[str, ...]
    releafed: bool

    @property
    def gain(self) -> Fraction:
        return Fraction(self.gain_units, self.scale)

    @property
    def heuristic(self) -> Fraction:
        return Fraction(self.heuristic_units, self.scale)

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.gain_units + self.heuristic_units, self.scale)


@dataclass(frozen=True)
class SearchResult:
    """Exact blocking time with a witness chain and search statistics."""

    blocking_time: Fraction
    witness: ZChain
    nodes_generated: int
    nodes_expanded: int
    expansions: tuple[ExpansionRecord, ...] = ()


def _candidates(
    index: _Index, jobs: int, induced: int, remaining: int
) -> Iterator[_Section]:
    """The rows of ``jobs`` (bit j for job j) that may extend a chain, in
    job then position order: maximal w.r.t. the ``induced`` resource mask
    (LSM), with their resource in the ``remaining`` mask (NBR).  Only jobs
    using a resource of ``induced & remaining`` can own one."""
    free = induced & remaining
    users = 0
    for k in _positions(free):
        users |= index.users[1 << k]
    for j in _positions(jobs & users):
        for s in index.sections[j - 1]:
            if s.bit & free and _maximal(s, induced):
                yield s


def successors(
    ts: TaskSet, i: int, node: SearchNode, fringe: Fringe
) -> tuple[CriticalSection, ...]:
    """Admissible extensions of ``node``'s chain, in job then section order.

    Candidates come from :func:`_candidates` over the remaining jobs (new
    job, new resource, limited-scope maximality); the duplicate guard
    discards extensions whose section set was already generated; the FHO/FLO
    predicate shared with :mod:`~pipblock.admissibility` rejects sections
    that would block, or be blocked by, chain members.  Candidates arrive
    in job order, so each job's priority masks are built once, by
    :func:`~pipblock.admissibility._priority_masks`.
    """
    index = _compiled(ts)
    extensions: list[CriticalSection] = []
    job = 0
    for s in _candidates(
        index, node.remaining_jobs, node.induced, node.remaining_resources
    ):
        if s.z.job != job:
            job = s.z.job
            above, below = _priority_masks(index, node.chain, job)
        if fringe.already_generated(node.members | 1 << s.key):
            continue
        if not _obstructed(s, above, below):
            extensions.append(s.z)
    return tuple(extensions)


def expand(ts: TaskSet, i: int, node: SearchNode, fringe: Fringe) -> list[SearchNode]:
    """Successor nodes of ``node``; ``node`` itself (re-marked as a leaf)
    when it has no admissible extensions.

    A successor gets the assignment heuristic, repaired from ``node``'s
    assignment, only when it has a candidate extension; otherwise it is
    a leaf.  Creation stops early when a successor is a leaf matching the
    parent's estimate: that leaf already proves the branch's optimum.
    """
    created: list[SearchNode] = []
    index = _compiled(ts)
    for z in successors(ts, i, node, fringe):
        s = index.entry(z)
        remaining_jobs = node.remaining_jobs & ~(1 << z.job)
        remaining_resources = node.remaining_resources & ~s.bit
        induced = node.induced | _induced(index, i, s, node.induced)
        cost, assignment = 0, None
        candidate = _candidates(index, remaining_jobs, induced, remaining_resources)
        if next(candidate, None) is not None:
            cost, assignment = node.assignment.without(z.job, s.bit.bit_length())
        successor = SearchNode(
            chain=node.chain + (z,),
            members=node.members | 1 << s.key,
            induced=induced,
            remaining_resources=remaining_resources,
            remaining_jobs=remaining_jobs,
            gain=node.gain + s.duration,
            heuristic=-cost,
            assignment=assignment,
        )
        created.append(successor)
        if successor.is_leaf and successor.estimate == node.estimate:
            return created
    if not created:
        node.heuristic = 0
        created.append(node)
    return created


def _root(ts: TaskSet, i: int) -> SearchNode:
    """The search's root for job ``i``: the empty chain, inducing the
    direct resources, with the relevant jobs and resources remaining and
    the assignment over them solved on the search's matrix, minus its
    cost as the estimate.  A cell costs minus the job's longest duration
    on the resource, unperturbed: the search needs only values."""
    scope = blocking_scope(ts, i)
    index = _compiled(ts)
    jobs = sorted(scope.relevant_jobs)
    resources = index.mask(scope.relevant_resources)
    columns = [k + 1 for k in _positions(resources)]
    pad = [0] * (len(jobs) - len(columns))
    cost = [[-longest.get(r, 0) for r in index.ids] + pad for longest in index.longest]
    cost += [[0] * len(cost[0]) for _ in range(len(columns) - len(jobs))]
    rows = jobs + list(range(ts.n + 1, len(cost) + 1))
    columns += range(len(index.ids) + 1, len(cost[0]) + 1)
    assignment = _Assignment(cost, rows, columns)
    return SearchNode(
        chain=(),
        members=0,
        induced=index.mask(scope.direct_resources),
        remaining_resources=resources,
        remaining_jobs=sum(1 << j for j in jobs),
        gain=0,
        heuristic=-assignment.total(),
        seq=0,
        batch=0,
        assignment=assignment,
    )


def blocking_time(ts: TaskSet, i: int) -> SearchResult:
    """Exact maximum blocking time of job ``i`` with a witness chain.

    Raises :class:`~pipblock.deadlock.CyclicResourceOrderError` when the
    resource order is cyclic (blocking is unbounded).
    """
    require_acyclic(ts)
    index = _compiled(ts)
    fringe = Fringe()
    fringe.push(_root(ts, i))
    generated = 1
    expanded = 0
    next_seq = 1
    batch = 0
    records: list[ExpansionRecord] = []

    while True:
        node = fringe.pop()
        if node.is_leaf:
            return SearchResult(
                blocking_time=Fraction(node.gain, index.scale),
                witness=node.chain,
                nodes_generated=generated,
                nodes_expanded=expanded,
                expansions=tuple(records),
            )
        expanded += 1
        batch += 1
        gain, heuristic = node.gain, node.heuristic
        created = expand(ts, i, node, fringe)
        releafed = len(created) == 1 and created[0] is node
        records.append(
            ExpansionRecord(
                seq=node.seq,
                chain=node.chain,
                gain_units=gain,
                heuristic_units=heuristic,
                scale=index.scale,
                extensions=tuple(
                    s.chain[-1].label for s in created if s is not node
                ),
                releafed=releafed,
            )
        )
        for successor in created:
            if successor is node:
                successor.batch = batch
            else:
                successor.seq = next_seq
                successor.batch = batch
                next_seq += 1
                generated += 1
            fringe.push(successor)
