"""Polynomial blocking-time bound via a maximizing assignment.

The worst blocking any set of jobs can inflict through a set of resources
is bounded by picking, for each job, at most one resource (all jobs and
all resources distinct) and summing the longest section durations: an
assignment problem solved here in its maximization form.  The cell
(J_j, R) of the blocking-time matrix is job j's leftmost longest section
on resource R: the compiled index keeps that section's row in its
``longest`` maps, and the cell's weight is the row's duration, an integer
in units of ``1/scale``, the common denominator of the set's durations.

One sparse integer kernel, :class:`_Assignment`, solves it: a
maximum-weight matching of rows (jobs) onto columns (resources) over the
positive cells only, by successive shortest paths with a heap (Fredman &
Tarjan, *JACM* 34, 1987).  Zero cells and the padding that would square
the matrix are simply "unmatched".  Its weights are the plain integer
durations and its duals ``a`` (rows) and ``b`` (columns) stay
non-negative, with ``a + b >= w`` on every cell, equality on matched
cells and 0 on free rows and columns: these complementary-slackness
conditions prove the matching optimal.  The kernel is solved from scratch
or repaired after one row and one column are deactivated, every other
row and column keeping its number.

:func:`max_assignment` reports the first maximum-duration permutation of
the zero-padded square matrix in ``itertools.permutations`` order,
without perturbing a cost.  Give the padding rows and columns dual 0:
non-negative duals cover every zero cell too, and they sum to the matched
weight, so they are optimal for the square problem, and a permutation is
optimal iff it uses only tight cells (Burkard, Dell'Amico & Martello,
*Assignment Problems*, SIAM 2009): the positive cells with ``a + b = w``,
and the complete block of the zero-dual rows against the zero-dual
columns, padding included.  Fixing the real rows in order, each to the
smallest tight column that some perfect matching of the tight cells
extending the rows fixed so far still allows, gives the lexicographically
smallest optimal permutation (:func:`_first_best`).  The pairs are that
permutation's positive cells.

:func:`_solve` poses the kernel from the index's ``longest`` maps in
the compact numbering: row r is the r-th given job and column c the
c-th given resource, both ascending, the numbering the lex-min order is
defined over, so the pairs are those of :func:`max_assignment` on the
dense :func:`blocking_time_matrix` (the reference; only ``pipblock
bound``, which prints the matrix, builds one).  The bound stage and
:func:`per_job_bounds` pose it once per job over the relevant jobs and
resources of the index's job slot and keep it there
(:func:`_job_kernel`); the exact search's root takes that solve as it
is, in the same numbering, instead of solving again, and its children
repair it (:meth:`_Assignment.without` leaves its parent as it was, so
the bound stage's pairs stay those of the solve).

Invoked with the direct blocking sets this reproduces the classic
single-resource-at-a-time bound; with the relevant (nesting-aware) sets
it bounds the general case; over leftover job/resource subsets it is the
admissible heuristic of the exact search, which solves only its root from
scratch and repairs each child from its parent (see
:mod:`~pipblock.search`).  Reported values are exact ``Fraction``; no floats are involved.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .deadlock import require_acyclic
from .relevance import _scope
from .taskset import ResourceId, TaskSet, _compiled, _Index

__all__ = [
    "AssignmentSet",
    "BlockingMatrix",
    "blocking_time_matrix",
    "hungarian_bound",
    "max_assignment",
    "per_job_bounds",
]


@dataclass(frozen=True)
class BlockingMatrix:
    """Longest-section durations, rows = jobs ascending, cols = resources
    ascending; 0 where a job does not use a resource.  ``weights`` holds
    them as integers in units of ``1/scale``."""

    jobs: tuple[int, ...]
    resources: tuple[ResourceId, ...]
    weights: list[list[int]]
    scale: int

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The cells as exact durations."""
        return tuple(tuple(Fraction(w, self.scale) for w in row) for row in self.weights)


@dataclass(frozen=True)
class AssignmentSet:
    """A maximizing assignment: (job, resource) pairs with all-distinct jobs
    and resources, sorted by job; ``value`` is the summed duration.

    Pairs that would contribute nothing (padding or zero cells) are
    omitted; they never affect the value.
    """

    pairs: tuple[tuple[int, ResourceId], ...]
    value: Fraction


def _checked_inputs(
    ts: TaskSet, jobs: Iterable[int], resources: Iterable[ResourceId]
) -> tuple[tuple[int, ...], tuple[ResourceId, ...]]:
    """Sorted job and resource ids; raises on ids the task set lacks."""
    job_ids = tuple(sorted(set(jobs)))
    resource_ids = tuple(sorted(set(resources)))
    for j in job_ids:
        ts.job(j)
    unknown = set(resource_ids) - ts.resources
    if unknown:
        raise ValueError(f"resources not in task set: {sorted(unknown)}")
    return job_ids, resource_ids


def blocking_time_matrix(
    ts: TaskSet, jobs: Iterable[int], resources: Iterable[ResourceId]
) -> BlockingMatrix:
    """Build the longest-duration matrix for the given jobs and resources
    from the durations of the compiled index's ``longest`` rows."""
    job_ids, resource_ids = _checked_inputs(ts, jobs, resources)
    index = _compiled(ts)
    cells = [index.longest[j - 1] for j in job_ids]
    weights = [[c[r].duration if r in c else 0 for r in resource_ids] for c in cells]
    return BlockingMatrix(job_ids, resource_ids, weights, index.scale)


def max_assignment(matrix: BlockingMatrix) -> AssignmentSet:
    """Maximum-duration assignment of ``matrix`` by the sparse kernel.

    Among equally-optimal assignments it returns the first maximizing
    permutation of the zero-padded square matrix in
    ``itertools.permutations`` order (see the module docstring).
    """
    cells = [{c: w for c, w in enumerate(row) if w > 0} for row in matrix.weights]
    kernel = _Assignment(cells, len(matrix.resources))
    return _best(kernel, matrix.jobs, matrix.resources, matrix.scale)


def _solve(index: _Index, jobs: Sequence[int], resources: Sequence[ResourceId]) -> _Assignment:
    """The kernel over the positive cells of ``jobs`` on ``resources`` in
    the index's ``longest`` maps, both ascending: row r is ``jobs[r]`` and
    column c is ``resources[c]``."""
    col = {r: c for c, r in enumerate(resources)}
    rows = (index.longest[j - 1].items() for j in jobs)
    cells = [{col[r]: s.duration for r, s in row if r in col and s.duration} for row in rows]
    return _Assignment(cells, len(resources))


def _job_kernel(index: _Index, i: int) -> tuple:
    """Job ``i``'s slot (:func:`~pipblock.relevance._scope`) with its
    kernel over the relevant jobs and resources, solved once."""
    slot = _scope(index, i)
    if slot[2] is None:
        _, trace, _, jobs, resources = slot
        slot = index.slot = (i, trace, _solve(index, jobs, resources), jobs, resources)
    return slot


def _best(
    kernel: _Assignment, jobs: Sequence[int], resources: Sequence[ResourceId], scale: int
) -> AssignmentSet:
    """The first maximum-duration assignment of the solved ``kernel``,
    row r for ``jobs[r]`` and column c for ``resources[c]``.  That
    permutation is optimal, so its value is the kernel's, in units of
    ``1/scale``."""
    columns = _first_best(kernel, len(jobs), len(resources))
    pairs = [(jobs[r], resources[c]) for r, c in enumerate(columns) if c in kernel.cells[r]]
    return AssignmentSet(pairs=tuple(pairs), value=Fraction(kernel.value, scale))


_FREE, _GONE = -1, -2  # mate of an unmatched, and of a deactivated, number


class _Assignment:
    """A maximum-weight matching of rows onto columns over the positive
    cells of an integer matrix, with its non-negative duals.

    ``cells[r]`` maps row r's columns to their positive weights (rows 0
    to ``len(cells) - 1``, columns 0 to ``width - 1``), and
    ``transpose``, built on first need (:meth:`columns`; the search's
    root builds it before its children's repairs), holds the same cells
    by column.
    ``mate[r]`` is row r's column and ``comate[c]`` column c's row,
    ``_FREE`` when unmatched.  ``a`` and ``b`` are the row and column
    duals: ``a[r] + b[c] >= w`` on every cell, with equality on matched
    cells, and 0 on every free row and column (complementary slackness).
    So ``value``, the matched weight, equals the sum of the active rows'
    and columns' duals and is the maximum.  The constructor takes each
    row in turn: its dual becomes its largest reduced weight, and it
    takes the first column of that weight when the column is free (the
    greedy start of Jonker & Volgenant, *Computing* 38, 1987), exactly
    the path :func:`_grow` would find; otherwise it grows.

    :meth:`without` deactivates a row and a column by marking them
    ``_GONE`` in a child's copies of ``mate`` and ``comate``, which every
    grow skips; the child shares ``cells``, ``transpose`` and, unless it
    grows, ``a`` and ``b`` with its parent.
    """

    __slots__ = ("cells", "transpose", "a", "b", "mate", "comate", "value")

    def __init__(self, cells: list[dict[int, int]], width: int) -> None:
        """Solve the matching of ``cells``, rows of positive weights."""
        self.cells = cells
        self.transpose: list[dict[int, int]] | None = None
        self.a, self.b = [0] * len(self.cells), [0] * width
        self.mate, self.comate = [_FREE] * len(self.cells), [_FREE] * width
        self.value = 0
        a, b, mate, comate = self.a, self.b, self.mate, self.comate
        for r, row in enumerate(self.cells):
            top, c = 0, _FREE
            for y, w in row.items():
                w -= b[y]
                if w > top or w == top and y < c:
                    top, c = w, y
            if top > 0:
                a[r] = top
                if comate[c] == _FREE:
                    mate[r], comate[c] = c, r
                    self.value += row[c]
                else:
                    self.value += _grow(r, a, b, mate, comate, self.cells)

    def columns(self) -> list[dict[int, int]]:
        """``transpose``, built on first need."""
        if self.transpose is None:
            self.transpose = [{} for _ in self.b]
            for r, row in enumerate(self.cells):
                for c, w in row.items():
                    self.transpose[c][r] = w
        return self.transpose

    def without(self, r: int, c: int) -> _Assignment:
        """The solved assignment once the active row ``r`` and column ``c``
        are deactivated; ``self`` stays as it is.

        Deleting them keeps the duals feasible, and breaks complementary
        slackness at most twice: the row that held ``c`` is free with
        ``a > 0``, and the column ``r`` held is free with ``b > 0``.  The
        child grows from that row, then, if still free, from that column,
        the same step with rows and columns swapped (a dynamic Hungarian
        update: Mills-Tettey, Stentz & Dias, CMU-RI-TR-07-27, 2007).  When
        ``r`` owns ``c``, or neither breaks, no grow runs and the child
        keeps its parent's duals.
        """
        mate, comate = self.mate[:], self.comate[:]
        y, x = mate[r], comate[c]
        mate[r] = comate[c] = _GONE
        a, b, value = self.a, self.b, self.value
        if y == c:
            value -= self.cells[r][c]
        else:
            if y >= 0:
                comate[y] = _FREE
                value -= self.cells[r][y]
            if x >= 0:
                mate[x] = _FREE
                value -= self.cells[x][c]
            if (x >= 0 and a[x]) or (y >= 0 and b[y]):
                a, b = a[:], b[:]
                if x >= 0 and a[x]:
                    value += _grow(x, a, b, mate, comate, self.cells)
                if y >= 0 and comate[y] == _FREE and b[y]:
                    value += _grow(y, b, a, comate, mate, self.columns())
        child = _Assignment.__new__(_Assignment)
        child.cells, child.transpose = self.cells, self.transpose
        child.a, child.b, child.mate, child.comate, child.value = a, b, mate, comate, value
        return child


def _grow(
    source: int,
    duals: list[int],
    coduals: list[int],
    mates: list[int],
    comates: list[int],
    cells: list[dict[int, int]],
) -> int:
    """Restore complementary slackness at the free ``source`` of one side
    (rows, or columns with every argument swapped) and return the change
    of the matched weight.

    One Dijkstra from ``source`` over the slacks ``duals + coduals - w``,
    which are non-negative; a settled node of the other side leads on to
    its mate at the same distance.  The search stops at the first of two
    events: a free node of the other side at distance D, or a node of the
    source's side at key ``distance + dual``, where its dual would reach 0.
    Every settled node's dual then moves by D minus its distance (down on
    the source's side, up on the other), which keeps every slack
    non-negative and makes the path tight.  The path is flipped: the
    source gains a mate, and either the free node at its end gains one
    too or the node at its end loses its own (its dual now 0).  Nodes
    mated ``_GONE`` are skipped.  The other side's tentative distances
    and tree links are lists indexed by node, made afresh by each call.
    """
    heap = [(duals[source], ~source)]
    reached = [(source, 0)]  # the source's side in the tree, with distances
    best: list[int | None] = [None] * len(comates)  # the other side; -1 once settled
    via = [_FREE] * len(comates)
    settled: list[tuple[int, int]] = []
    x, d = source, 0
    while True:
        base = d + duals[x]
        for y, w in cells[x].items():
            if comates[y] != _GONE:
                key = base + coduals[y] - w
                old = best[y]
                if old is None or key < old:
                    best[y], via[y] = key, x
                    heappush(heap, (key, y))
        while True:
            d, node = heappop(heap)
            if node < 0 or best[node] == d:
                break
        if node < 0 or comates[node] == _FREE:
            break
        best[node] = -1
        settled.append((node, d))
        x = comates[node]
        reached.append((x, d))
        heappush(heap, (d + duals[x], ~x))
    for x, dx in reached:
        duals[x] -= d - dx
    for y, dy in settled:
        coduals[y] += d - dy
    gain = 0
    if node < 0:
        x = ~node
        if x == source:
            return 0
        node, mates[x] = mates[x], _FREE
        gain -= cells[x][node]
    while True:
        x = via[node]
        prev, mates[x], comates[node] = mates[x], node, x
        gain += cells[x][node]
        if x == source:
            return gain
        gain -= cells[x][prev]
        node = prev


def _first_best(kernel: _Assignment, m: int, k: int) -> list[int]:
    """The columns of the first maximum-weight permutation, in
    ``itertools.permutations`` order, of the ``m`` × ``k`` matrix that
    ``kernel`` solved, zero-padded square; one per real row.

    A permutation is optimal iff every cell it uses is tight for the
    kernel's duals (padding rows and columns have dual 0): the positive
    cells with ``a + b = w`` and the complete block of the zero-dual rows
    against the zero-dual columns.  Starting from the kernel's matching,
    completed inside the block, each real row in turn takes the smallest
    tight column that an alternating cycle through its current column
    and the rows not yet fixed allows.  One backward breadth-first search
    from the current column finds them all; the block enters it once, as
    a whole, at the first zero-dual column reached.  A row's tight columns
    are found at its turn, and each column's tight rows (``into``) only
    when the first row needs a search: most rows keep their column.
    """
    n = max(m, k)
    a, b = kernel.a + [0] * (n - m), kernel.b + [0] * (n - k)
    column, owner = kernel.mate + [_FREE] * (n - m), kernel.comate + [_FREE] * (n - k)
    spare = (c for c in range(n) if owner[c] == _FREE)
    for r in range(n):
        if column[r] == _FREE:
            column[r] = c = next(spare)
            owner[c] = r
    into: list[list[int]] = []  # each column's tight rows, ascending, built for the first search
    zero_rows = [r for r in range(n) if a[r] == 0]
    open_zero = [c for c in range(n) if b[c] == 0]  # not held by a fixed row
    for r in range(m):
        t = column[r]
        tight = [c for c, w in kernel.cells[r].items() if a[r] + b[c] == w]
        block = a[r] == 0 and bool(open_zero) and open_zero[0] < t
        if block or (tight and min(tight) < t):
            if not into:
                into = [[] for _ in range(n)]
                for q, c in [(q, c) for q in range(m) for c, w in kernel.cells[q].items() if a[q] + b[c] == w]:
                    into[c].append(q)
            after = zero_rows[bisect_right(zero_rows, r):]
            nxt = {t: t}  # column -> the column its owner moves to
            queue = [t]
            for y in queue:
                rows = into[y][bisect_right(into[y], r):]
                if after and b[y] == 0:
                    rows += after
                    after = []
                for q in rows:
                    if column[q] not in nxt:
                        nxt[column[q]] = y
                        queue.append(column[q])
            c = min([c for c in tight if c in nxt] + [c for c in nxt if block and b[c] == 0] + [t])
            q, x = r, c
            while True:
                prev, column[q], owner[x] = owner[x], x, q
                if x == t:
                    break
                q, x = prev, nxt[x]
        if b[column[r]] == 0:
            open_zero.remove(column[r])
    return column[:m]


def hungarian_bound(
    ts: TaskSet, jobs: Iterable[int], resources: Iterable[ResourceId]
) -> tuple[Fraction, AssignmentSet]:
    """Blocking-time bound for the given job/resource sets, with the
    assignment realizing it.  Empty inputs give (0, empty).

    The same as :func:`max_assignment` of :func:`blocking_time_matrix`,
    without the dense matrix: each row holds only the job's own cells
    among ``resources``, read from the index."""
    job_ids, resource_ids = _checked_inputs(ts, jobs, resources)
    index = _compiled(ts)
    kernel = _solve(index, job_ids, resource_ids)
    assignment = _best(kernel, job_ids, resource_ids, index.scale)
    return assignment.value, assignment


def per_job_bounds(ts: TaskSet) -> dict[int, Fraction]:
    """Bound for every job, using its relevant (nesting-aware) scope.

    Refuses task sets whose resource order is cyclic: with a reachable
    deadlock there is no finite bound.
    """
    require_acyclic(ts)
    index = _compiled(ts)
    return {i: Fraction(_job_kernel(index, i)[2].value, index.scale) for i in range(1, ts.n + 1)}
