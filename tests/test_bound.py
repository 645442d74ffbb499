import itertools
import random
import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipblock import (
    CyclicResourceOrderError,
    ZeroDurationWarning,
    blocking_time_matrix,
    brute_force_blocking_time,
    hungarian_bound,
    max_assignment,
    parse_taskset,
    per_job_bounds,
    random_taskset,
    relevant_jobs,
    relevant_resources,
    serialize_taskset,
)
from pipblock.bound import AssignmentSet, BlockingMatrix, _Assignment


def brute_force_assignment_value(matrix: BlockingMatrix) -> Fraction:
    """Reference optimum: try every injective row->column assignment."""
    n_rows, n_cols = len(matrix.jobs), len(matrix.resources)
    if n_rows == 0 or n_cols == 0:
        return Fraction(0)
    cells = matrix.rows
    best = Fraction(0)
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            best = max(best, sum(cells[r][c] for r, c in enumerate(cols)))
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            best = max(best, sum(cells[r][c] for c, r in enumerate(rows)))
    return best


def test_matrix_goldens(six_jobs_disjoint, two_resource_cross):
    m = blocking_time_matrix(six_jobs_disjoint, {3, 4, 5}, {2, 3, 4})
    assert m.jobs == (3, 4, 5) and m.resources == (2, 3, 4)
    assert [[int(c) for c in row] for row in m.rows] == [
        [0, 2, 3],
        [1, 0, 0],
        [1, 2, 0],
    ]
    m = blocking_time_matrix(two_resource_cross, {2, 3, 4}, {1, 2})
    assert [[int(c) for c in row] for row in m.rows] == [[3, 4], [1, 3], [0, 1]]


def test_matrix_keeps_longest_duration():
    from pipblock import parse_taskset

    ts = parse_taskset("J1: [R1:1]\nJ2: [R1:2] [R1:7] [R1:3]")
    m = blocking_time_matrix(ts, {2}, {1})
    assert m.rows == ((Fraction(7),),)


def test_matrix_empty_jobs(six_jobs_disjoint):
    m = blocking_time_matrix(six_jobs_disjoint, set(), {2, 3})
    assert m.rows == () and m.jobs == ()
    value, assignment = hungarian_bound(six_jobs_disjoint, set(), {2, 3})
    assert value == 0 and assignment.pairs == ()


def test_matrix_rejects_unknown_inputs(six_jobs_disjoint):
    from pipblock import TaskSetError

    for build in (blocking_time_matrix, hungarian_bound):
        with pytest.raises(TaskSetError):
            build(six_jobs_disjoint, {99}, {1})
        with pytest.raises(ValueError, match=r"resources not in task set: \[99\]"):
            build(six_jobs_disjoint, {2}, {99})


def test_hungarian_goldens(six_jobs_disjoint, two_resource_cross, five_jobs_deep):
    value, assignment = hungarian_bound(six_jobs_disjoint, {3, 4, 5}, {2, 3, 4})
    assert value == 6
    assert assignment.pairs == ((3, 4), (4, 2), (5, 3))

    value, assignment = hungarian_bound(two_resource_cross, {2, 3, 4}, {1, 2})
    assert value == 6
    assert assignment.pairs == ((2, 1), (3, 2))

    value, assignment = hungarian_bound(
        five_jobs_deep, {2, 3, 4, 5}, {1, 2, 3, 4}
    )
    assert value == 33
    assert assignment.pairs == ((2, 3), (3, 1), (4, 4), (5, 2))


def test_hungarian_nested_scope(six_jobs_nested):
    value, _ = hungarian_bound(six_jobs_nested, {3, 4, 5, 6}, {1, 2, 3, 4})
    assert value == 12


def test_hungarian_single_cell():
    from pipblock import parse_taskset

    ts = parse_taskset("J1: [R1:2]\nJ2: [R1:2]")
    value, assignment = hungarian_bound(ts, {2}, {1})
    assert value == 2 and assignment.pairs == ((2, 1),)


def test_per_job_bounds_golden(six_jobs_disjoint):
    assert per_job_bounds(six_jobs_disjoint) == {
        1: 1,
        2: 6,
        3: 3,
        4: 4,
        5: 2,
        6: 0,
    }


def test_per_job_bounds_double_lock(double_lock):
    bounds = per_job_bounds(double_lock)
    assert bounds[1] == 4
    _, assignment = hungarian_bound(double_lock, {2, 3}, {1, 2})
    assert assignment.pairs == ((2, 2), (3, 1))


def test_per_job_bounds_refuses_cyclic(cross_nesting):
    with pytest.raises(CyclicResourceOrderError):
        per_job_bounds(cross_nesting)


_DURATIONS = st.sampled_from(["0", "0", "1", "3", "7", "1/2", "2/3", "5/6", "1.25", "9/4"])


@st.composite
def _subsets(draw):
    """A task set with fractional and zero durations, some sections nested
    and some (job, resource) pairs locked more than once, with a random
    subset of its jobs and one of its resources."""
    n, width = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    lines = []
    for j in range(1, n + 1):
        parts = []
        for _ in range(draw(st.integers(0, 4))):
            outer = draw(st.integers(1, width))
            inner = draw(st.integers(1, width))
            nested = f" [R{inner}: {draw(_DURATIONS)}]" if inner != outer else ""
            parts.append(f"[R{outer}: {draw(_DURATIONS)}{nested}]")
        lines.append(f"J{j}: " + " ".join(parts))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroDurationWarning)
        ts = parse_taskset("\n".join(lines))
    jobs = draw(st.sets(st.integers(1, n)))
    resources = draw(st.sets(st.sampled_from(sorted(ts.resources)))) if ts.resources else set()
    return ts, jobs, resources


@settings(max_examples=300, deadline=None)
@given(case=_subsets())
def test_sparse_bound_equals_dense_reference(case):
    # hungarian_bound poses the kernel from the index without a dense
    # matrix; max_assignment over blocking_time_matrix is the reference,
    # pairs (the lex-min tie-break) and value alike.
    ts, jobs, resources = case
    value, assignment = hungarian_bound(ts, jobs, resources)
    reference = max_assignment(blocking_time_matrix(ts, jobs, resources))
    assert assignment == reference
    assert value == reference.value


def _random_matrix(
    rng: random.Random, n_rows: int, n_cols: int, values: list[int]
) -> BlockingMatrix:
    """Jobs 1..n_rows, resources 1..n_cols, integer weights drawn from
    ``values`` and a random scale."""
    return BlockingMatrix(
        jobs=tuple(range(1, n_rows + 1)),
        resources=tuple(range(1, n_cols + 1)),
        weights=[[rng.choice(values) for _ in range(n_cols)] for _ in range(n_rows)],
        scale=rng.choice([1, 1, 2, 3, 4]),
    )


def test_hungarian_matches_permutation_brute_force():
    rng = random.Random(99)
    for _ in range(120):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = _random_matrix(rng, n_rows, n_cols, list(range(41)))
        assignment = max_assignment(matrix)
        assert assignment.value == brute_force_assignment_value(matrix)
        # the assignment really uses all-distinct jobs and resources
        jobs = [j for j, _ in assignment.pairs]
        resources = [r for _, r in assignment.pairs]
        assert len(set(jobs)) == len(jobs)
        assert len(set(resources)) == len(resources)
        cells = matrix.rows
        assert (
            sum((cells[j - 1][r - 1] for j, r in assignment.pairs), Fraction(0))
            == assignment.value
        )


def _check_solved(
    cells: list[list[int]], assignment: _Assignment, rows: list[int], columns: list[int]
) -> int:
    """``assignment`` matches the active ``rows`` onto the active ``columns``
    (indices into ``cells``) over positive cells only, its duals certify
    it, and its value, returned, is the brute-force maximum."""
    a, b, mate, comate = assignment.a, assignment.b, assignment.mate, assignment.comate
    matched = [(r, mate[r]) for r in rows if mate[r] >= 0]
    assert all(c in columns and comate[c] == r and cells[r][c] > 0 for r, c in matched)
    assert all(comate[c] in rows for c in columns if comate[c] >= 0)
    for r in rows:
        assert a[r] >= 0 and (a[r] == 0 or mate[r] >= 0)
        for c in columns:
            assert a[r] + b[c] >= cells[r][c]
    for c in columns:
        assert b[c] >= 0 and (b[c] == 0 or comate[c] >= 0)
    assert all(a[r] + b[c] == cells[r][c] for r, c in matched)
    value = sum(cells[r][c] for r, c in matched)
    assert assignment.value == value
    if len(rows) <= len(columns):
        picks = (zip(rows, p) for p in itertools.permutations(columns, len(rows)))
    else:
        picks = (zip(p, columns) for p in itertools.permutations(rows, len(columns)))
    best = max((sum(cells[r][c] for r, c in pick) for pick in picks), default=0)
    assert value == best
    return value


_CELLS = st.one_of(st.integers(0, 9), st.integers(0, 2**70))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), data=st.data())
def test_assignment_kernel_solves_and_repairs(n, data):
    # Solve a random matrix, then deactivate random active (row, column)
    # pairs, sometimes a row with its own column, down to an empty side.
    # After the solve and each repair the value is the brute-force
    # maximum over what is still active and the duals certify it; the
    # parent, which the search repairs once per child, is left intact;
    # and deactivated numbers never come back.
    width = data.draw(st.integers(1, 6))
    cells = data.draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), min_size=n, max_size=n))
    assignment = _Assignment(map(enumerate, cells), width)
    rows, columns = list(range(n)), list(range(width))
    _check_solved(cells, assignment, rows, columns)
    gone_rows, gone_columns = set(), set()
    while rows and columns:
        r = data.draw(st.sampled_from(rows))
        own = assignment.mate[r]
        if own >= 0 and data.draw(st.booleans()):
            c = own
        else:
            c = data.draw(st.sampled_from(columns))
        before = assignment.a[:], assignment.b[:], assignment.mate[:], assignment.comate[:]
        value = assignment.value
        child = assignment.without(r, c)
        assert (assignment.a, assignment.b, assignment.mate, assignment.comate) == before
        assert assignment.value == value
        _check_solved(cells, assignment, rows, columns)
        rows, columns = [x for x in rows if x != r], [x for x in columns if x != c]
        gone_rows.add(r)
        gone_columns.add(c)
        _check_solved(cells, child, rows, columns)
        assert gone_columns.isdisjoint(child.mate[x] for x in rows)
        assert gone_rows.isdisjoint(child.comate[x] for x in columns)
        assignment = child



@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=1, max_value=7), data=st.data())
def test_greedy_start_takes_the_grow_path(n, data):
    # The constructor lets a row take its first best column directly when
    # that column is free.  That is the path a grow from the row finds,
    # so the solved state (duals, matching, value) equals the one of
    # growing every row, written out here as the reference.
    from pipblock.bound import _FREE, _grow

    width = data.draw(st.integers(1, 7))
    row = st.lists(st.integers(0, 6), min_size=width, max_size=width)
    cells = data.draw(st.lists(row, min_size=n, max_size=n))
    solved = _Assignment(map(enumerate, cells), width)
    rows = [{c: w for c, w in enumerate(row) if w > 0} for row in cells]
    a, b, mate, comate, value = [0] * n, [0] * width, [_FREE] * n, [_FREE] * width, 0
    for r, row in enumerate(rows):
        top = max((w - b[c] for c, w in row.items()), default=0)
        if top > 0:
            a[r] = top
            value += _grow(r, a, b, mate, comate, rows)
    state = solved.a, solved.b, solved.mate, solved.comate, solved.value
    assert state == (a, b, mate, comate, value)

def first_best_permutation_pairs(matrix: BlockingMatrix):
    """Reference tie-break: the first maximum-value permutation of the
    zero-padded square matrix in ``itertools.permutations`` order, with
    padding and zero cells dropped."""
    n_rows, n_cols = len(matrix.jobs), len(matrix.resources)
    cells = matrix.rows

    def cell(r: int, c: int) -> Fraction:
        return cells[r][c] if r < n_rows and c < n_cols else Fraction(0)

    size = max(n_rows, n_cols)
    best_value, best_cols = None, None
    for cols in itertools.permutations(range(size)):
        value = sum((cell(r, c) for r, c in enumerate(cols)), Fraction(0))
        if best_value is None or value > best_value:
            best_value, best_cols = value, cols
    return tuple(
        (matrix.jobs[r], matrix.resources[c])
        for r, c in enumerate(best_cols)
        if cell(r, c) > 0
    )


def _tie_heavy_matrix(rng: random.Random, n_rows: int, n_cols: int) -> BlockingMatrix:
    """A matrix built to exercise the tie-break: all-zero rows and
    columns, many equal cells or a block of zeros."""
    kind = rng.randrange(4)
    if kind == 0:  # whole rows and columns of zeros
        matrix = _random_matrix(rng, n_rows, n_cols, [0, 1, 2, 3])
        for r in rng.sample(range(n_rows), rng.randint(0, n_rows)):
            matrix.weights[r] = [0] * n_cols
        for c in rng.sample(range(n_cols), rng.randint(0, n_cols)):
            for row in matrix.weights:
                row[c] = 0
        return matrix
    if kind == 1:  # nearly all cells equal
        return _random_matrix(rng, n_rows, n_cols, [2] * 6 + [0, 1])
    if kind == 2:  # mostly zero-duration cells
        return _random_matrix(rng, n_rows, n_cols, [0] * 8 + [1, 5])
    return _random_matrix(rng, n_rows, n_cols, [0, 1, 1, 2])


def test_tie_break_is_first_best_permutation():
    rng = random.Random(2024)
    shapes = [(1, 1), (1, 4), (4, 1), (2, 5), (5, 2), (3, 3), (5, 5)]
    for k in range(200):
        n_rows, n_cols = shapes[k % len(shapes)] if k < 21 else (
            rng.randint(1, 5),
            rng.randint(1, 5),
        )
        matrix = _random_matrix(rng, n_rows, n_cols, [0, 1, 2, 3])
        assignment = max_assignment(matrix)
        assert assignment.pairs == first_best_permutation_pairs(matrix)
        assert assignment.value == brute_force_assignment_value(matrix)
    # Inputs where the zero-dual block and the alternating-path search
    # decide: every shape up to 7 x 7, both orientations.
    for n_rows, n_cols in itertools.product(range(1, 8), repeat=2):
        for _ in range(4 if n_rows * n_cols <= 36 else 1):
            matrix = _tie_heavy_matrix(rng, n_rows, n_cols)
            assignment = max_assignment(matrix)
            assert assignment.pairs == first_best_permutation_pairs(matrix)
            assert assignment.value == brute_force_assignment_value(matrix)
    for n_rows, n_cols in [(7, 7), (7, 3), (3, 7), (6, 7), (7, 6)]:
        zeros = BlockingMatrix(
            tuple(range(1, n_rows + 1)),
            tuple(range(1, n_cols + 1)),
            [[0] * n_cols for _ in range(n_rows)],
            1,
        )
        assert max_assignment(zeros) == AssignmentSet((), Fraction(0))
        equal = BlockingMatrix(zeros.jobs, zeros.resources, [[4] * n_cols for _ in range(n_rows)], 1)
        assert max_assignment(equal).pairs == first_best_permutation_pairs(equal)


def with_fractional_durations(ts, rng: random.Random):
    """``ts`` with every duration divided by a random small integer."""
    return parse_taskset(
        re.sub(
            r"(R\d+: )(\d+)",
            lambda m: f"{m.group(1)}{m.group(2)}/{rng.choice([1, 2, 3, 6, 7])}",
            serialize_taskset(ts),
        )
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_matrix_cells_are_longest_sections(seed):
    # reference from the definition: a cell is the longest duration the
    # job spends on the resource, 0 where it never locks it
    rng = random.Random(seed)
    ts = random_taskset(seed, jobs=7, resources=7, sections_per_job=4, nesting_depth=3)
    if rng.random() < 0.5:
        ts = with_fractional_durations(ts, rng)
    jobs = {j for j in range(1, ts.n + 1) if rng.random() < 0.7}
    resources = {r for r in ts.resources if rng.random() < 0.7}
    matrix = blocking_time_matrix(ts, jobs, resources)
    assert matrix.jobs == tuple(sorted(jobs))
    assert matrix.resources == tuple(sorted(resources))
    for j, row in zip(matrix.jobs, matrix.rows):
        for r, cell in zip(matrix.resources, row):
            durations = [z.duration for z in ts.job(j).sections if z.resource == r]
            assert cell == max(durations, default=0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_shrinking_inputs_never_increases_bound(seed):
    ts = random_taskset(seed)
    rng = random.Random(seed ^ 0xA5A5)
    for i in range(1, ts.n + 1):
        jobs = relevant_jobs(ts, i)
        resources = relevant_resources(ts, i)
        full, _ = hungarian_bound(ts, jobs, resources)
        sub_jobs = {j for j in jobs if rng.random() < 0.6}
        sub_resources = {r for r in resources if rng.random() < 0.6}
        smaller, _ = hungarian_bound(ts, sub_jobs, sub_resources)
        assert smaller <= full


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_bound_dominates_exact(seed):
    ts = random_taskset(seed, jobs=4, resources=4)
    for i in range(1, ts.n + 1):
        bound, _ = hungarian_bound(ts, relevant_jobs(ts, i), relevant_resources(ts, i))
        assert bound >= brute_force_blocking_time(ts, i).best_duration
