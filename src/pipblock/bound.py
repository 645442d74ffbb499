"""Polynomial blocking-time bound via a maximizing assignment.

The worst blocking any set of jobs can inflict through a set of resources
is bounded by picking, for each job, at most one resource (all jobs and
all resources distinct) and summing the longest section durations: an
assignment problem solved here in its maximization form.  Cells of the
blocking-time matrix hold the longest duration each job spends on each
resource; converting to costs ``D - d`` and running the Hungarian method
(row/column reduction, zero-matching test, minimum line cover, reweight)
yields the optimum in polynomial time.

Invoked with the direct blocking sets this reproduces the classic
single-resource-at-a-time bound; with the relevant (nesting-aware) sets it
bounds the general case; applied to leftover job/resource subsets it is
the admissible heuristic of the exact search.

All arithmetic is over ``Fraction``; no floats are involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .deadlock import require_acyclic
from .relevance import blocking_scope
from .taskset import ResourceId, TaskSet

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
    ascending; 0 where a job does not use a resource."""

    jobs: tuple[int, ...]
    resources: tuple[ResourceId, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def cell(self, job: int, resource: ResourceId) -> Fraction:
        return self.rows[self.jobs.index(job)][self.resources.index(resource)]

    @property
    def max_cell(self) -> Fraction:
        return max((c for row in self.rows for c in row), default=Fraction(0))


@dataclass(frozen=True)
class AssignmentSet:
    """A maximizing assignment: (job, resource) pairs with all-distinct jobs
    and resources, sorted by job; ``value`` is the summed duration.

    Pairs that would contribute nothing (padding or zero cells) are
    omitted; they never affect the value.
    """

    pairs: tuple[tuple[int, ResourceId], ...]
    value: Fraction


def blocking_time_matrix(
    ts: TaskSet, jobs: Iterable[int], resources: Iterable[ResourceId]
) -> BlockingMatrix:
    """Build the longest-duration matrix for the given jobs and resources."""
    job_ids = tuple(sorted(set(jobs)))
    resource_ids = tuple(sorted(set(resources)))
    for j in job_ids:
        ts.job(j)
    unknown = set(resource_ids) - ts.resources
    if unknown:
        raise ValueError(f"resources not in task set: {sorted(unknown)}")
    rows = []
    for j in job_ids:
        sections = ts.job(j).sections
        rows.append(
            tuple(
                max(
                    (z.duration for z in sections if z.resource == r),
                    default=Fraction(0),
                )
                for r in resource_ids
            )
        )
    return BlockingMatrix(jobs=job_ids, resources=resource_ids, rows=tuple(rows))


def max_assignment(matrix: BlockingMatrix) -> AssignmentSet:
    """Hungarian method on the maximization dual of ``matrix``.

    The cost matrix is ``D - d`` padded square with ``D`` (padding acts as
    a zero-duration cell).  After the row/column reductions, a complete
    matching on zero cells is sought; while none exists, the matrix is
    reweighted around a minimum line cover of the zeros.  Among
    equally-optimal assignments the lexicographically smallest
    (job, resource) selection is returned.
    """
    n_rows = len(matrix.jobs)
    n_cols = len(matrix.resources)
    if n_rows == 0 or n_cols == 0:
        return AssignmentSet(pairs=(), value=Fraction(0))

    size = max(n_rows, n_cols)
    top = matrix.max_cell

    def d_cell(r: int, c: int) -> Fraction:
        if r < n_rows and c < n_cols:
            return matrix.rows[r][c]
        return Fraction(0)

    cost = [[top - d_cell(r, c) for c in range(size)] for r in range(size)]
    _reduce_rows_and_cols(cost)

    while True:
        match_of_col = _max_zero_matching(cost)
        if len(match_of_col) == size:
            break
        _reweight_around_cover(cost, match_of_col)

    chosen = _lex_min_perfect_matching(cost)
    pairs = []
    value = Fraction(0)
    for r, c in sorted(chosen):
        if r < n_rows and c < n_cols and matrix.rows[r][c] > 0:
            pairs.append((matrix.jobs[r], matrix.resources[c]))
            value += matrix.rows[r][c]
    return AssignmentSet(pairs=tuple(pairs), value=value)


def _reduce_rows_and_cols(cost: list[list[Fraction]]) -> None:
    """Subtract each row's minimum, then each column's minimum, in place.
    Afterwards every row and column holds a zero and nothing negative."""
    size = len(cost)
    for row in cost:
        low = min(row)
        if low:
            for c in range(size):
                row[c] -= low
    for c in range(size):
        low = min(cost[r][c] for r in range(size))
        if low:
            for r in range(size):
                cost[r][c] -= low


def _max_zero_matching(cost: list[list[Fraction]]) -> dict[int, int]:
    """Maximum bipartite matching over zero cells (augmenting paths).
    Returns column -> row."""
    size = len(cost)
    match_of_col: dict[int, int] = {}

    def augment(r: int, seen: set[int]) -> bool:
        for c in range(size):
            if cost[r][c] == 0 and c not in seen:
                seen.add(c)
                if c not in match_of_col or augment(match_of_col[c], seen):
                    match_of_col[c] = r
                    return True
        return False

    for r in range(size):
        augment(r, set())
    return match_of_col


def _reweight_around_cover(
    cost: list[list[Fraction]], match_of_col: dict[int, int]
) -> None:
    """Subtract the smallest uncovered entry outside a minimum line cover of
    the zeros and add it at cover intersections (Koenig cover from the
    matching)."""
    size = len(cost)
    match_of_row = {r: c for c, r in match_of_col.items()}
    marked_rows = {r for r in range(size) if r not in match_of_row}
    marked_cols: set[int] = set()
    frontier = list(marked_rows)
    while frontier:
        r = frontier.pop()
        for c in range(size):
            if cost[r][c] == 0 and c not in marked_cols:
                marked_cols.add(c)
                owner = match_of_col.get(c)
                if owner is not None and owner not in marked_rows:
                    marked_rows.add(owner)
                    frontier.append(owner)
    # cover = unmarked rows + marked columns
    theta = min(
        cost[r][c]
        for r in marked_rows
        for c in range(size)
        if c not in marked_cols
    )
    for r in range(size):
        for c in range(size):
            if r in marked_rows and c not in marked_cols:
                cost[r][c] -= theta
            elif r not in marked_rows and c in marked_cols:
                cost[r][c] += theta


def _can_match_rows(
    zeros: list[list[int]], rows: Iterable[int], banned_cols: set[int]
) -> bool:
    """True iff every row in ``rows`` can be matched to a distinct zero
    column outside ``banned_cols``."""
    match_of_col: dict[int, int] = {}

    def augment(r: int, seen: set[int]) -> bool:
        for c in zeros[r]:
            if c in banned_cols or c in seen:
                continue
            seen.add(c)
            if c not in match_of_col or augment(match_of_col[c], seen):
                match_of_col[c] = r
                return True
        return False

    return all(augment(r, set()) for r in rows)


def _lex_min_perfect_matching(cost: list[list[Fraction]]) -> list[tuple[int, int]]:
    """Row-by-row smallest-column perfect matching on the zero cells.

    Every perfect matching on the final zero cells attains the optimum, so
    fixing the smallest column per row that keeps the remaining rows
    matchable yields the lexicographically smallest optimal assignment.
    """
    size = len(cost)
    zeros = [[c for c in range(size) if cost[r][c] == 0] for r in range(size)]
    used: set[int] = set()
    result: list[tuple[int, int]] = []
    for r in range(size):
        for c in zeros[r]:
            if c in used:
                continue
            if _can_match_rows(zeros, range(r + 1, size), used | {c}):
                used.add(c)
                result.append((r, c))
                break
        else:
            raise AssertionError("zero matrix lost its perfect matching")
    return result


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
