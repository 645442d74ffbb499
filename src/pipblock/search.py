"""Exact worst-case blocking time via best-first search over z-chains.

Nodes carry a partial admissible chain plus derived sets; the heuristic is
the assignment bound over the jobs and resources the chain has not used
yet.  The bound never underestimates the best completion (any completion
picks at most one new section per remaining job on distinct remaining
resources), so the heuristic is admissible and the first leaf popped from
the fringe carries the exact maximum.

Fringe discipline: descending estimate ``f = g + h``; ties prefer leaf
nodes, then the newest expansion batch (within a batch, generation
order).  Both keys are :func:`blocking_time`'s counters: ``seq`` counts
the nodes generated before a node, ``batch`` the expansions made so far;
a node whose expansion creates no successor goes back as a leaf in the
current batch.  Generated-but-unexpanded nodes stay in the fringe, and
the fringe also remembers every chain set ever generated:
differently-ordered permutations of one section set have equal gain,
heuristic and extension options, so exploring a set once suffices.  The
duplicate guard therefore discards an extension exactly when its section
set was generated before.
A section set is one integer: every section of the index has its own
bit (``1 << _Section.key``), a node's ``members`` is the OR of its
chain's bits, and the guard is a set of those integers, so a query is
one OR and one hash of an int.

Successor generation is mask arithmetic over section keys.  NBJ, NBR,
FHO and FLO are pairwise tests between a member and a section that read
no duration and no chain order, so each index row m has a mask
:attr:`~pipblock.taskset._Index.conflict` of the sections that no chain
holding m can take.  The root's ``live`` is every section of the
relevant jobs, and a child's is its parent's minus the added row's
conflict mask: once a section is obstructed it stays obstructed, so the
mask only shrinks.  A rejected candidate is simply dropped: the search
never names the conflicting pair, so it never walks the chain for a
witness (:func:`~pipblock.admissibility._obstruction` does that for
reports).

LSM is a mask too: the sections maximal w.r.t. a resource mask I are
those on a resource of I (the index's ``on``) and not strictly inside a
section on one (its ``inside``), since a resource is never re-locked
inside its own section.  Each node stores ``maximal``, its eligible
sections maximal w.r.t. its induced set, computed once when the node is
created.  The leaf test on creation reads it: a node is a leaf when none
of its eligible sections (NBJ and NBR alone) is maximal.  It reads
``eligible``, not ``live``: reading ``live`` would make leaves on
creation of nodes that are now expanded and re-marked, and so change
which optimal leaf pops first; that waits until the witness no longer
depends on search order (ROADMAP item 1).  Since ``live`` lies within
``eligible``, the extensions are the keys of ``live & maximal``,
ascending, which is job then position order, walked with the duplicate
guard's set read as a local name.

One child step derives a child's masks (:func:`_child`, for
:func:`_dive`): its ``live`` mask is its parent's minus the added row's
conflict mask, and its induced set grows through
:func:`~pipblock.relevance._induced` only when the row has a nested
resource (otherwise it adds nothing).  Its LSM mask and candidate mask
depend only on the induced set, so they are computed once per search:
the fringe keeps a memo of the pair keyed by the induced mask
(:func:`_lsm`, from :func:`~pipblock.taskset._on_inside`), and the root
reads the direct set's pair through it too.

:func:`expand`, called once per expanded node, runs the walk, the child
step, the M memo lookup, the repair and the node's construction in one
loop: a child costs a call only for a nested row's induced set, a memo
miss and the repair (:meth:`~pipblock.bound._Assignment.without`).  The
tests hold :func:`_child` and this inline step to the same masks.

Pruning against a floor.  :func:`blocking_time` reads job i's scope
from the index's job slot: the root's direct and relevant sets, and the
fringe's ``on`` mask of the relevant resources.  Before its
loop it dives once from the root (:func:`_dive`): each step takes the
extension with the largest duration plus M of the child's candidates,
the lowest key on ties, where M is the relaxed bound
:func:`~pipblock.taskset._relaxed`, the heaviest conflict-free set of
sections within a mask.  A node's candidates, from the child step, are
its live sections on a relevant resource and not strictly inside a
section on an induced one; every completion of the node is a
conflict-free set of them, so gain plus M bounds every leaf below the
node.  The dive's chain is admissible, so its gain, the floor L, is at
most the exact value.  :func:`expand` drops a child whose gain plus M is
below L, before the child enters the duplicate guard or the assignment
repair (branch and bound with a known lower bound; Ibaraki, "The power
of dominance relations in branch-and-bound algorithms", JACM 24(2),
1977).
Neither the assignment heuristic nor the fringe key changes, and the
popped witness is the one the search without pruning pops:
- a pruned child has no completion reaching L, so it lies on no path
  to an optimal leaf;
- the guard entry a pruned child would have made could only drop nodes
  with its section set, which fixes gain, ``live`` and ``induced`` and so
  M; those nodes are pruned too, so a surviving node is kept or dropped
  as without pruning;
- a node whose children are all pruned goes back as a leaf with its
  gain, which is below L, so it never pops before the optimum;
- the surviving nodes keep the relative order of their keys, since
  ``seq`` and ``batch`` still count in generation and expansion order.
Only node counts move: a pruned child is neither generated nor listed in
its parent's expansion record (``created``), so traces show fewer
extensions, and nodes expanded only below pruned children are gone.
M is memoised on the index, so :func:`~pipblock.analysis.analyze`'s
searches on one set share its entries.  A root without extensions is a
leaf, and then the search neither dives nor prunes.

Nodes live on the task set's compiled index: the chain's section set,
its live and eligible sections and its induced set are bit masks, and
gain and heuristic are integers in units of ``1/index.scale``, so the
fringe orders by exact integer keys.  Only the returned result (and the
expansion records, on reading) hold ``Fraction`` values.

Expansion records exist only when traced: ``blocking_time(ts, i,
trace=True)`` keeps one :class:`ExpansionRecord` per expanded node, and
an untraced search (the default, and what
:func:`~pipblock.analysis.analyze` runs unless asked) builds none, so a
large search leaves no long-lived record for the cyclic garbage
collector to walk.  A record keeps the created successors' last sections
and labels them only when read.

The deadlock verdict :func:`~pipblock.deadlock.require_acyclic` reads is
kept on the index, so a search runs no SCC pass of its own.

Heuristics are inherited, not solved afresh.  :func:`_root` renumbers
the kernel of the index's job slot (the bound stage's solve, or
:func:`~pipblock.bound._job_kernel`'s for a standalone search) into the
index's numbering: row j - 1 for job j, column k for resource bit
``1 << k``, cells only between relevant jobs and relevant resources.  A
child's problem is its parent's minus the row of the added section's job and the
column of its resource, so :meth:`~pipblock.bound._Assignment.without`
deactivates exactly those two numbers and repairs the optimum with at
most two shortest-path grows over the positive cells, and none when the
job held the resource.  Every estimate, the root's too, is the solved
assignment's ``value``; the maximum value is unique, so it equals a
fresh ``hungarian_bound`` over the node's sets, and with it every fringe
key, node count and witness.  The deletion is well defined because an
extension is eligible: its job and resource are still active rows and
columns.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .bound import _Assignment, _job_kernel
from .bound import hungarian_bound  # noqa: F401 (bench/spans.py traces it)
from .deadlock import require_acyclic
from .relevance import _induced
from .taskset import (
    CriticalSection,
    TaskSet,
    ZChain,
    _compiled,
    _Index,
    _on_inside,
    _positions,
    _relaxed,
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

@dataclass(slots=True)
class SearchNode:
    """One search-tree node: a partial chain and its derived sets.

    ``members`` is the chain's section set, the OR of ``1 << key`` over
    its sections' index rows.  In the same bits, ``eligible`` holds the
    relevant jobs' sections off the chain's jobs and resources (NBJ,
    NBR), ``live`` those of them that no member conflicts with, and
    ``maximal`` the eligible sections maximal w.r.t. ``induced`` (LSM),
    stored on creation: the node's extensions are ``live & maximal``.
    ``induced`` is the chain's induced set, a resource mask of the task
    set's index.  ``gain`` (the chain's duration) and ``heuristic`` are
    integers in units of ``1/index.scale``.  ``seq`` and ``batch`` are
    the fringe's tie-break keys, set by :func:`blocking_time`.
    ``assignment`` is the solved :class:`~pipblock.bound._Assignment`
    behind ``heuristic`` (active: the relevant jobs and resources the
    chain has not used), or None on a leaf: a node whose ``maximal`` is
    empty on creation, or one :func:`blocking_time` re-marked as a leaf.
    """

    chain: ZChain
    members: int
    induced: int
    eligible: int
    gain: int
    heuristic: int
    live: int
    maximal: int
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

    Also keeps two permanent records of one search, which :func:`expand`
    reads directly: every chain set generated so far, as the ``members``
    masks of the pushed nodes (``_generated``, the duplicate guard); and,
    for each induced set met, its maximal-section mask and the relevant
    sections not strictly inside a section on it (``_maximal``, see
    :func:`_lsm`).  ``_floor`` is the gain of an
    admissible chain and ``_relevant`` the ``on`` mask of the target's
    relevant resources; :func:`blocking_time` sets both.  A fresh fringe
    has floor 0, under which :func:`expand` prunes nothing.
    :func:`blocking_time`, which numbers its nodes itself, uses ``_heap``
    and ``_generated`` directly, without :meth:`push`'s seq check.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, int, SearchNode]] = []
        self._queued: set[int] = set()
        self._generated: set[int] = set()
        self._maximal: dict[int, tuple[int, int]] = {}
        self._floor = 0
        self._relevant = 0

    def push(self, node: SearchNode) -> None:
        """Queue ``node`` under the key (-estimate, leaf flag, -batch, seq);
        ``seq`` is unique, so the node itself is never compared."""
        seq = node.seq
        if seq < 0 or seq in self._queued:
            raise ValueError("nodes need a fresh non-negative seq before insertion")
        heuristic = node.heuristic
        entry = (-node.gain - heuristic, 1 if heuristic else 0, -node.batch, seq, node)
        heapq.heappush(self._heap, entry)
        self._queued.add(seq)
        self._generated.add(node.members)

    def pop(self) -> SearchNode:
        node = heapq.heappop(self._heap)[-1]
        self._queued.remove(node.seq)
        return node

    def already_generated(self, sections: int) -> bool:
        """True iff a node with exactly this chain set (a ``members`` mask)
        was ever pushed."""
        return sections in self._generated


@dataclass(frozen=True, slots=True)
class ExpansionRecord:
    """One Remove-First step, for traces and instrumentation.  The expanded
    node's gain and heuristic are integers in units of ``1/scale``;
    ``estimate`` reads their sum as an exact duration.  ``created`` holds
    the last sections of the created successors (pruned ones are not
    created), and ``extensions`` their labels; ``releafed`` reads true
    when none was created and the node went back as a leaf.  Both are
    derived on reading."""

    seq: int
    chain: ZChain
    gain_units: int
    heuristic_units: int
    scale: int
    created: tuple[CriticalSection, ...]

    @property
    def extensions(self) -> tuple[str, ...]:
        return tuple(z.label for z in self.created)

    @property
    def releafed(self) -> bool:
        return not self.created

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.gain_units + self.heuristic_units, self.scale)


@dataclass(frozen=True)
class SearchResult:
    """Exact blocking time with a witness chain and search statistics;
    ``expansions`` is empty unless the search was traced."""

    blocking_time: Fraction
    witness: ZChain
    nodes_generated: int
    nodes_expanded: int
    expansions: tuple[ExpansionRecord, ...] = ()


def successors(
    ts: TaskSet, node: SearchNode, fringe: Fringe
) -> tuple[CriticalSection, ...]:
    """Admissible extensions of ``node``'s chain, in job then section order;
    ``node`` and ``fringe`` stay as they are.  They are the sections of
    ``node.live`` (NBJ, NBR, FHO and FLO) maximal w.r.t. ``node.induced``
    (LSM) whose chain set the duplicate guard has not seen."""
    rows, members, seen = _compiled(ts).rows, node.members, fringe._generated
    keys = _positions(node.live & node.maximal)
    return tuple(rows[k].z for k in keys if (members | 1 << k) not in seen)


def expand(ts: TaskSet, i: int, node: SearchNode, fringe: Fringe) -> list[SearchNode]:
    """New, unnumbered successor nodes of ``node``, possibly none; ``node``
    stays as it is.

    A successor is dropped when its gain plus the relaxed bound M of its
    candidate sections (:func:`~pipblock.taskset._relaxed`) is below the
    fringe's floor.  A kept successor gets the assignment heuristic,
    repaired from ``node``'s assignment, only when one of its eligible
    sections is maximal; otherwise it is a leaf.  Creation stops early
    when a successor is a leaf matching the parent's estimate: that leaf
    already proves the branch's optimum.
    """
    index = _compiled(ts)
    rows, on, job_keys, relaxed = index.rows, index.on, index.job_keys, index.relaxed
    conflict = index._conflict or index.conflict
    memo, floor, seen = fringe._maximal, fringe._floor, fringe._generated
    chain, members, gain0 = node.chain, node.members, node.gain
    live0, induced0, eligible0 = node.live, node.induced, node.eligible
    estimate = gain0 + node.heuristic
    created: list[SearchNode] = []
    keys = live0 & node.maximal
    while keys:
        bit = keys & -keys
        keys ^= bit
        if (members | bit) in seen:
            continue
        s = rows[bit.bit_length() - 1]
        live, induced = live0 & ~conflict[s.key], induced0
        if s.nested:
            induced |= _induced(index, i, s, induced)
        lsm, outside = memo.get(induced) or _lsm(index, induced, fringe)
        gain = gain0 + s.duration
        if gain < floor:
            bound = relaxed.get(live & outside)
            if bound is None:
                bound = _relaxed(index, live & outside)
            if gain + bound < floor:
                continue
        z = s.z
        eligible = eligible0 & ~(job_keys[z.job] | on[s.bit])
        maximal = eligible & lsm
        heuristic, assignment = 0, None
        if maximal:
            assignment = node.assignment.without(z.job - 1, s.bit.bit_length() - 1)
            heuristic = assignment.value
        created.append(
            SearchNode(
                chain + (z,), members | bit, induced, eligible,
                gain, heuristic, live, maximal, -1, -1, assignment,
            )
        )
        if not heuristic and gain == estimate:
            break
    return created


def _lsm(index: _Index, induced: int, fringe: Fringe) -> tuple[int, int]:
    """Fill the fringe's memo for ``induced``: the sections maximal w.r.t.
    it (LSM), and the sections of the fringe's relevant mask not strictly
    inside a section on an induced resource."""
    hit, out = _on_inside(index, induced)
    masks = fringe._maximal[induced] = hit & ~out, fringe._relevant & ~out
    return masks


def _child(
    index: _Index, i: int, s: _Section, live: int, induced: int, fringe: Fringe
) -> tuple[int, int, int, int]:
    """The child step: the ``live`` mask, induced set, LSM mask and
    candidates of the node that adds row ``s`` to a node of job ``i``
    with ``live`` and ``induced``.  The candidates are the child's live
    sections on a relevant resource and not strictly inside a section on
    an induced one; M of them bounds every completion of the child."""
    # The slot once the list is built: the property's call per child cost
    # about 5% of an antidiagonal J1 search at widths 10 and 12.
    live &= ~(index._conflict or index.conflict)[s.key]
    if s.nested:
        induced |= _induced(index, i, s, induced)
    lsm, outside = fringe._maximal.get(induced) or _lsm(index, induced, fringe)
    return live, induced, lsm, live & outside


def _dive(index: _Index, i: int, root: SearchNode, fringe: Fringe) -> int:
    """The gain of one admissible chain for job ``i``, built greedily from
    ``root``: each step takes the extension (``live & maximal``, as in
    :func:`successors`) with the largest duration plus M of the child's
    candidates (:func:`_child`), the lowest key on ties, until none is
    left."""
    rows, relaxed = index.rows, index.relaxed
    live, induced, gain = root.live, root.induced, 0
    keys = live & root.maximal
    while keys:
        choice = None
        while keys:
            bit = keys & -keys
            keys ^= bit
            s = rows[bit.bit_length() - 1]
            child = _child(index, i, s, live, induced, fringe)
            value = relaxed.get(child[3])
            if value is None:
                value = _relaxed(index, child[3])
            value += s.duration
            if choice is None or value > choice[0]:
                choice = value, s.duration, child
        _, duration, (live, induced, lsm, _) = choice
        gain += duration
        keys = live & lsm
    return gain


def _root(index: _Index, i: int, fringe: Fringe) -> SearchNode:
    """The search's root for job ``i``, from the index's job slot
    (:func:`~pipblock.bound._job_kernel`): the empty chain, inducing the
    direct mask, with every section of the relevant jobs eligible and
    live, and the slot's kernel renumbered (row j - 1 for job j, column k
    for resource bit ``1 << k``), its value as the estimate.  It sets the
    fringe's relevant mask; the root's LSM mask is the first entry of the
    fringe's memo (:func:`_lsm`)."""
    _, scope, kernel, jobs, resources = _job_kernel(index, i)
    fringe._relevant = _on_inside(index, scope[-1])[0]
    bits, job_keys = index.bits, index.job_keys
    rows, columns = [j - 1 for j in jobs], [bits[r].bit_length() - 1 for r in resources]
    assignment = kernel.renumbered(rows, columns, len(index.longest), len(index.ids))
    eligible = sum(job_keys[j] for j in jobs)
    direct = scope[0]
    maximal = eligible & _lsm(index, direct, fringe)[0]
    return SearchNode(
        (), 0, direct, eligible, 0, assignment.value, eligible, maximal, 0, 0, assignment
    )


def blocking_time(ts: TaskSet, i: int, *, trace: bool = False) -> SearchResult:
    """Exact maximum blocking time of job ``i`` with a witness chain.

    With ``trace``, the result's ``expansions`` holds one
    :class:`ExpansionRecord` per expanded node, in expansion order;
    without it, ``expansions`` is empty and no record is built.

    Raises :class:`~pipblock.deadlock.CyclicResourceOrderError` when the
    resource order is cyclic (blocking is unbounded).
    """
    require_acyclic(ts)
    index = _compiled(ts)
    scale = index.scale
    fringe = Fringe()
    root = _root(index, i, fringe)
    if root.heuristic:
        fringe._floor = _dive(index, i, root, fringe)
    # Fringe.push and Fringe.pop, inline: the loop numbers every node.
    heap, guard = fringe._heap, fringe._generated
    heap.append((-root.heuristic, 1 if root.heuristic else 0, 0, 0, root))
    guard.add(0)
    generated, expanded = 1, 0
    records: list[ExpansionRecord] = []

    while True:
        node = heapq.heappop(heap)[-1]
        if not node.heuristic:
            return SearchResult(
                blocking_time=Fraction(node.gain, scale),
                witness=node.chain,
                nodes_generated=generated,
                nodes_expanded=expanded,
                expansions=tuple(records),
            )
        expanded += 1
        created = expand(ts, i, node, fringe)
        if trace:
            records.append(
                ExpansionRecord(
                    seq=node.seq,
                    chain=node.chain,
                    gain_units=node.gain,
                    heuristic_units=node.heuristic,
                    scale=scale,
                    created=tuple([successor.chain[-1] for successor in created]),
                )
            )
        if not created:
            node.heuristic, node.batch, node.assignment = 0, expanded, None
            heapq.heappush(heap, (-node.gain, 0, -expanded, node.seq, node))
        for successor in created:
            successor.seq, successor.batch = generated, expanded
            h = successor.heuristic
            entry = (-successor.gain - h, 1 if h else 0, -expanded, generated, successor)
            heapq.heappush(heap, entry)
            guard.add(successor.members)
            generated += 1
