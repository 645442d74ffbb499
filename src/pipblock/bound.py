"""Polynomial blocking-time bound via a maximizing assignment.

The worst blocking any set of jobs can inflict through a set of resources
is bounded by picking, for each job, at most one resource (all jobs and
all resources distinct) and summing the longest section durations: an
assignment problem solved here in its maximization form.  Cells of the
blocking-time matrix hold the longest duration each job spends on each
resource, as the integers of the task set's compiled index: units of
``1/scale``, the common denominator of the set's durations.

One exact integer kernel solves it: the cells, padded square (size ``n``)
with zeros, get the cost
``-d·nⁿ + c·n^(n-1-r)`` (row ``r``, column ``c``), and shortest augmenting
paths with potentials (Jonker & Volgenant, *Computing* 38, 1987) find the
minimum-cost permutation in O(n³) integer steps.  A permutation's
perturbation terms spell its column sequence as a base-n number below
``nⁿ``, so they never outweigh one unit of duration: the unique optimum
is the lexicographically smallest of the maximum-duration permutations.

Its one front end, :class:`_Assignment`, is a solved assignment of some
rows of a cost matrix onto as many columns: solved from scratch, or
repaired after one row and one column are deactivated, every other row
and column keeping its number.  Invoked with the direct
blocking sets this reproduces the classic single-resource-at-a-time
bound; with the relevant (nesting-aware) sets it bounds the general case;
over leftover job/resource subsets, unperturbed, it is the admissible
heuristic of the exact search, which solves only its root from scratch
and repairs each child from its parent (see :mod:`~pipblock.search`).
Reported values are exact ``Fraction``; no floats are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .deadlock import require_acyclic
from .relevance import blocking_scope
from .taskset import ResourceId, TaskSet, _compiled

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
    from the task set's compiled index."""
    job_ids, resource_ids = _checked_inputs(ts, jobs, resources)
    index = _compiled(ts)
    weights = [[index.longest[j - 1].get(r, 0) for r in resource_ids] for j in job_ids]
    return BlockingMatrix(job_ids, resource_ids, weights, index.scale)


def max_assignment(matrix: BlockingMatrix) -> AssignmentSet:
    """Maximum-duration assignment of ``matrix`` by the integer kernel.

    Among equally-optimal assignments it returns the first maximizing
    permutation of the zero-padded square matrix in
    ``itertools.permutations`` order (see the module docstring).
    """
    jobs, resources, weights = matrix.jobs, matrix.resources, matrix.weights
    pairs = []
    total = 0
    for r, c in _max_weight_permutation(weights, len(resources)):
        if r < len(jobs) and c < len(resources) and weights[r][c] > 0:
            pairs.append((jobs[r], resources[c]))
            total += weights[r][c]
    return AssignmentSet(pairs=tuple(pairs), value=Fraction(total, matrix.scale))


def _max_weight_permutation(
    weights: list[list[int]], n_cols: int
) -> list[tuple[int, int]]:
    """(row, column) cells of the lexicographically smallest maximum-weight
    permutation of ``weights`` padded square with zeros, padding included."""
    n = max(len(weights), n_cols)
    unit = n**n  # exceeds every sum of perturbation terms
    cost = [[c * n ** (n - 1 - r) for c in range(n)] for r in range(n)]
    for r, row in enumerate(weights):
        for c, w in enumerate(row):
            cost[r][c] -= w * unit
    owner = _Assignment(cost, range(1, n + 1), range(1, n + 1)).owner
    return sorted((owner[c] - 1, c - 1) for c in range(1, n + 1))


class _Assignment:
    """A minimum-cost perfect matching of some rows of the integer matrix
    ``cost`` onto as many of its columns, with its dual potentials.

    Rows and columns are 1-based, ``cost[r - 1][c - 1]`` being cell
    (r, c); the rest of the matrix is never read.  ``u`` and ``v`` are
    the row and column potentials and ``owner[c]`` is the row matched to
    column c, 0 when c is inactive (index 0 is the virtual source column
    of :func:`_augment`).  The reduced costs ``cost - u - v`` are
    non-negative on the active cells and zero on the matched ones.  The
    constructor matches each of ``rows`` in turn over ``columns``.
    """

    __slots__ = ("cost", "u", "v", "owner")

    def __init__(
        self, cost: list[list[int]], rows: Iterable[int], columns: Sequence[int]
    ) -> None:
        self.cost = cost
        self.u = [0] * (len(cost) + 1)
        self.v = [0] * (max(columns, default=0) + 1)
        self.owner = self.v[:]
        for i in rows:
            _augment(cost, self.u, self.v, self.owner, i, list(columns))

    def without(self, r: int, c: int) -> tuple[int, _Assignment]:
        """Minimum cost and solved assignment once the active row ``r`` and
        column ``c`` are deactivated; every other number stays.

        The deletion leaves the potentials feasible and the matching
        tight; the row that lost column ``c`` (if not row ``r``) is
        re-matched by one augmenting path, ending at the column row ``r``
        held, in O(n²) (the dynamic Hungarian update of Mills-Tettey,
        Stentz & Dias, CMU-RI-TR-07-27, 2007).  The minimum cost is the
        child's :meth:`total`.
        """
        u, v, owner = self.u, self.v, self.owner[:]
        i, owner[c] = owner[c], 0
        if i != r:
            u, v = u[:], v[:]
            free = [j for j in range(1, len(owner)) if owner[j]]
            owner[owner.index(r, 1)] = 0
            _augment(self.cost, u, v, owner, i, free)
        child = _Assignment.__new__(_Assignment)
        child.cost, child.u, child.v, child.owner = self.cost, u, v, owner
        return child.total(), child

    def total(self) -> int:
        """The assignment's cost: the sum of its matched cells."""
        return sum(self.cost[o - 1][c - 1] for c, o in enumerate(self.owner) if c and o)


def _augment(
    cost: list[list[int]],
    row_pot: list[int],
    col_pot: list[int],
    owner: list[int],
    i: int,
    free: list[int],
) -> None:
    """Match the unmatched row ``i`` along a cheapest alternating path.

    The path is found Dijkstra-style over the reduced costs
    ``cost - row_pot - col_pot``, which the potentials keep non-negative,
    and it is zero on every matched cell; the potentials are updated so
    that this still holds afterwards, which makes the enlarged matching a
    minimum-cost one.  Rows and columns are 1-based, ``cost[r - 1][j - 1]``
    being cell (r, j); ``free`` lists the columns the path may use, some
    of them unmatched (``owner[j] == 0``), and is consumed.  Column 0 is
    the virtual source of the path.
    """
    owner[0] = i
    j0 = 0
    dist = [math.inf] * len(owner)
    via = [0] * len(owner)
    visited = [0]
    while owner[j0]:
        i0 = owner[j0]
        row, u = cost[i0 - 1], row_pot[i0]
        delta, j1 = math.inf, 0
        for j in free:
            reduced = row[j - 1] - u - col_pot[j]
            d = dist[j]
            if reduced < d:
                dist[j] = d = reduced
                via[j] = j0
            if d < delta:
                delta, j1 = d, j
        for j in visited:
            row_pot[owner[j]] += delta
            col_pot[j] -= delta
        for j in free:
            dist[j] -= delta
        free.remove(j1)
        visited.append(j1)
        j0 = j1
    while j0:
        j1 = via[j0]
        owner[j0] = owner[j1]
        j0 = j1


def hungarian_bound(
    ts: TaskSet, jobs: Iterable[int], resources: Iterable[ResourceId]
) -> tuple[Fraction, AssignmentSet]:
    """Blocking-time bound for the given job/resource sets, with the
    assignment realizing it.  Empty inputs give (0, empty)."""
    assignment = max_assignment(blocking_time_matrix(ts, jobs, resources))
    return assignment.value, assignment


def per_job_bounds(ts: TaskSet) -> dict[int, Fraction]:
    """Bound for every job, using its relevant (nesting-aware) scope.

    Refuses task sets whose resource order is cyclic: with a reachable
    deadlock there is no finite bound.
    """
    require_acyclic(ts)
    out: dict[int, Fraction] = {}
    for i in range(1, ts.n + 1):
        scope = blocking_scope(ts, i)
        value, _ = hungarian_bound(ts, scope.relevant_jobs, scope.relevant_resources)
        out[i] = value
    return out
