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

Nodes live on the task set's compiled index: the chain's resources and
induced set are bit masks, and gain and heuristic are integers in units
of ``1/index.scale``, so the fringe orders by exact integer keys.  Only
the returned result and the expansion records hold ``Fraction`` values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .admissibility import _obstruction
from .bound import hungarian_bound
from .deadlock import require_acyclic
from .relevance import _induced, blocking_scope
from .taskset import CriticalSection, ResourceId, TaskSet, ZChain, _compiled, _Index, _maximal

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

    ``taken`` and ``induced`` are resource masks of the task set's index:
    the chain's resources and its induced set.  ``remaining_*`` are the
    relevant sets minus what the chain used.  ``gain`` (the chain's
    duration) and ``heuristic`` are integers in units of ``1/index.scale``.
    ``seq`` and ``batch`` are bookkeeping for deterministic tie-breaking.
    """

    chain: ZChain
    taken: int
    induced: int
    remaining_resources: frozenset[ResourceId]
    remaining_jobs: frozenset[int]
    gain: int
    heuristic: int
    seq: int = -1
    batch: int = -1

    @property
    def estimate(self) -> int:
        return self.gain + self.heuristic

    @property
    def is_leaf(self) -> bool:
        return self.heuristic == 0


class Fringe:
    """Generated-but-unexpanded nodes, ordered for Remove-First.

    Also keeps a permanent record of every chain set generated so far;
    the duplicate guard queries it.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[tuple, SearchNode]] = []
        self._live: set[int] = set()
        self._generated: set[frozenset[CriticalSection]] = set()

    def push(self, node: SearchNode) -> None:
        if node.seq < 0 or node.seq in self._live:
            raise ValueError("nodes need a fresh non-negative seq before insertion")
        key = (-node.estimate, 0 if node.is_leaf else 1, -node.batch, node.seq)
        heapq.heappush(self._heap, (key, node))
        self._live.add(node.seq)
        self._generated.add(frozenset(node.chain))

    def pop(self) -> SearchNode:
        _, node = heapq.heappop(self._heap)
        self._live.remove(node.seq)
        return node

    def already_generated(self, sections: frozenset[CriticalSection]) -> bool:
        """True iff a node with exactly this chain set was ever pushed."""
        return sections in self._generated


@dataclass(frozen=True)
class ExpansionRecord:
    """One Remove-First step, for traces and instrumentation."""

    seq: int
    chain: ZChain
    gain: Fraction
    heuristic: Fraction
    extensions: tuple[str, ...]
    releafed: bool

    @property
    def estimate(self) -> Fraction:
        return self.gain + self.heuristic


@dataclass(frozen=True)
class SearchResult:
    """Exact blocking time with a witness chain and search statistics."""

    blocking_time: Fraction
    witness: ZChain
    nodes_generated: int
    nodes_expanded: int
    expansions: tuple[ExpansionRecord, ...] = ()


def _fresh_sections(
    index: _Index, job: int, induced: int, taken: int
) -> Iterator[CriticalSection]:
    """``job``'s sections, in position order, that are maximal w.r.t. the
    ``induced`` resource mask but not w.r.t. the ``taken`` mask (the
    chain's resources)."""
    for s in index.sections[job - 1]:
        if _maximal(s, induced) and not _maximal(s, taken):
            yield s.z


def successors(
    ts: TaskSet, i: int, node: SearchNode, fringe: Fringe
) -> tuple[CriticalSection, ...]:
    """Admissible extensions of ``node``'s chain, in job then section order.

    Candidate sections are the ones maximal w.r.t. the node's induced set
    but not already maximal w.r.t. the chain's resources (new job, new
    resource, limited-scope maximality); the duplicate guard discards
    extensions whose chain was already generated; the FHO/FLO obstruction
    check shared with :mod:`~pipblock.admissibility` rejects sections that
    would block, or be blocked by, chain members.
    """
    extensions: list[CriticalSection] = []
    chain = node.chain
    members = frozenset(chain)
    index = _compiled(ts)
    for j in sorted(node.remaining_jobs):
        for z in _fresh_sections(index, j, node.induced, node.taken):
            if fringe.already_generated(members | {z}):
                continue
            if _obstruction(index, chain, index.entry(z)) is not None:
                continue
            extensions.append(z)
    return tuple(extensions)


def expand(ts: TaskSet, i: int, node: SearchNode, fringe: Fringe) -> list[SearchNode]:
    """Successor nodes of ``node``; ``node`` itself (re-marked as a leaf)
    when it has no admissible extensions.

    A successor gets the assignment heuristic only when some remaining
    job still owns an eligible section; otherwise it is a leaf.  Creation
    stops early when a successor is a leaf matching the parent's
    estimate: that leaf already proves the branch's optimum.
    """
    created: list[SearchNode] = []
    index = _compiled(ts)
    for z in successors(ts, i, node, fringe):
        s = index.entry(z)
        remaining_jobs = node.remaining_jobs - {z.job}
        remaining_resources = node.remaining_resources - {z.resource}
        taken = node.taken | s.bit
        induced = node.induced | _induced(index, i, s, node.induced)
        heuristic = 0
        if any(next(_fresh_sections(index, k, induced, taken), None) for k in remaining_jobs):
            h, _ = hungarian_bound(ts, remaining_jobs, remaining_resources)
            heuristic = index.scaled(h)
        successor = SearchNode(
            chain=node.chain + (z,),
            taken=taken,
            induced=induced,
            remaining_resources=remaining_resources,
            remaining_jobs=remaining_jobs,
            gain=node.gain + s.duration,
            heuristic=heuristic,
        )
        created.append(successor)
        if successor.is_leaf and successor.estimate == node.estimate:
            return created
    if not created:
        node.heuristic = 0
        created.append(node)
    return created


def blocking_time(ts: TaskSet, i: int) -> SearchResult:
    """Exact maximum blocking time of job ``i`` with a witness chain.

    Raises :class:`~pipblock.deadlock.CyclicResourceOrderError` when the
    resource order is cyclic (blocking is unbounded).
    """
    require_acyclic(ts)
    scope = blocking_scope(ts, i)
    index = _compiled(ts)
    h0, _ = hungarian_bound(ts, scope.relevant_jobs, scope.relevant_resources)
    root = SearchNode(
        chain=(),
        taken=0,
        induced=index.mask(scope.direct_resources),
        remaining_resources=scope.relevant_resources,
        remaining_jobs=scope.relevant_jobs,
        gain=0,
        heuristic=index.scaled(h0),
        seq=0,
        batch=0,
    )
    fringe = Fringe()
    fringe.push(root)
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
                gain=Fraction(gain, index.scale),
                heuristic=Fraction(heuristic, index.scale),
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
