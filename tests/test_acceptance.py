"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all) and then asserts.  All comparisons are exact rational equality;
the stated wall-clock budgets are asserted too.

Criterion 7 checks the antidiagonal family against its closed forms: bound
``w·δ`` and exact value ``max(δ + 2⌊(w−1)/2⌋·ε, w·ε)``, which is
``δ + 2⌊(w−1)/2⌋·ε`` whenever ``δ ≥ 2ε``.  The textbook forms it used to
encode (``δ + w·ε`` for odd ``w``, ``δ + (w−1)·ε`` for even) are one ``ε``
too high: an admissible chain is strictly increasing in (job, resource), so
it holds at most one antidiagonal long cell and at most
``1 + 2⌊(w−1)/2⌋`` sections through it.  At ``w = 1`` the only
lower-priority job has a single ``δ`` section, so ``δ + ε`` cannot occur.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from pipblock import (
    blocking_scope,
    blocking_time,
    blocking_time_matrix,
    brute_force_blocking_time,
    check_deadlock_free,
    chain_duration,
    fixpoint_trace,
    generate_antidiagonal_family,
    hungarian_bound,
    is_admissible_chain,
    max_assignment,
    parse_taskset,
    per_job_bounds,
    quick_admissibility_verdict,
    random_taskset,
    relevant_jobs,
    relevant_resources,
)
from pipblock.analysis import analyze

from conftest import (
    CROSS_NESTING,
    DOUBLE_LOCK,
    FIVE_JOBS_DEEP,
    NESTED_FOUR_JOBS,
    SIX_JOBS_DISJOINT,
    SIX_JOBS_NESTED,
    TWO_RESOURCE_CROSS,
    random_order_fixpoint,
)


def _verdict(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {label}{suffix}")
    assert passed, f"criterion {number} failed: {label}{suffix}"


def test_criterion_1_golden_bounds_six_jobs():
    started = time.perf_counter()
    ts = parse_taskset(SIX_JOBS_DISJOINT)
    bounds = per_job_bounds(ts)
    elapsed = time.perf_counter() - started
    expected = {1: 1, 2: 6, 3: 3, 4: 4, 5: 2, 6: 0}
    _verdict(
        1,
        "per-job bounds on the six-job benchmark",
        bounds == expected and elapsed < 1.0,
        f"bounds={ {i: int(v) for i, v in bounds.items()} }, {elapsed:.3f}s",
    )


def test_criterion_2_golden_exact_deep_fixture():
    ts = parse_taskset(FIVE_JOBS_DEEP)
    h0, _ = hungarian_bound(ts, relevant_jobs(ts, 1), relevant_resources(ts, 1))
    result = blocking_time(ts, 1)
    oracle = brute_force_blocking_time(ts, 1)
    ok = (
        result.blocking_time == 26
        and {z.label for z in result.witness}
        == {"z2,1", "z4,1", "z3,1", "z5,3"}
        and h0 == 33
        and result.nodes_generated <= 12
        and oracle.uninformed_space == 480
    )
    _verdict(
        2,
        "exact blocking time of the five-job deep fixture",
        ok,
        f"B={result.blocking_time}, h0={h0}, "
        f"generated={result.nodes_generated}, space={oracle.uninformed_space}",
    )


def test_criterion_3_golden_exact_nested_fixture():
    ts = parse_taskset(NESTED_FOUR_JOBS)
    result = blocking_time(ts, 1)
    trace = fixpoint_trace(ts, 1)
    ok = (
        result.blocking_time == 11
        and relevant_resources(ts, 1) == {1, 2, 3, 4}
        and trace
        == [frozenset({4}), frozenset({2, 3, 4}), frozenset({1, 2, 3, 4})]
    )
    _verdict(
        3,
        "nested four-job fixture: exact value and fixpoint trace",
        ok,
        f"B={result.blocking_time}, trace={[sorted(s) for s in trace]}",
    )


def test_criterion_4_bound_gap_fixture():
    ts = parse_taskset(TWO_RESOURCE_CROSS)
    scope = blocking_scope(ts, 1)
    matrix = blocking_time_matrix(ts, scope.relevant_jobs, scope.relevant_resources)
    assignment = max_assignment(matrix)
    quick = quick_admissibility_verdict(ts, 1, assignment)
    result = blocking_time(ts, 1)
    oracle = brute_force_blocking_time(ts, 1)
    ok = (
        assignment.value == 6
        and not quick.passed
        and result.blocking_time == oracle.best_duration
    )
    _verdict(
        4,
        "two-resource cross fixture: bound 6 unattainable, search = enumeration",
        ok,
        f"h={assignment.value}, quick={quick.passed}, "
        f"B={result.blocking_time}, oracle={oracle.best_duration}",
    )


def test_criterion_5_quick_check_incompleteness():
    ts = parse_taskset(DOUBLE_LOCK)
    scope = blocking_scope(ts, 1)
    matrix = blocking_time_matrix(ts, scope.relevant_jobs, scope.relevant_resources)
    assignment = max_assignment(matrix)
    quick = quick_admissibility_verdict(ts, 1, assignment)
    result = blocking_time(ts, 1)
    ok = (
        assignment.value == 4
        and not quick.passed
        and result.blocking_time == 4
    )
    _verdict(
        5,
        "double-lock fixture: screen misses the attainable bound, search finds it",
        ok,
        f"h={assignment.value}, quick={quick.passed}, B={result.blocking_time}",
    )


def test_criterion_6_quick_check_success_skips_search():
    ts = parse_taskset(SIX_JOBS_NESTED)
    report = analyze(ts, job=2)
    entry = report.jobs[0]
    ok = (
        entry.bound == 12
        and entry.quick.passed
        and not entry.searched
        and entry.exact == 12
    )
    _verdict(
        6,
        "six-job nested fixture: screen certifies the bound, search skipped",
        ok,
        f"h={entry.bound}, quick={entry.quick.passed}, searched={entry.searched}",
    )


def test_criterion_7_antidiagonal_closed_forms():
    started = time.perf_counter()
    delta, epsilon = Fraction(10), Fraction(1)
    failures = []
    for width in range(1, 7):
        ts = generate_antidiagonal_family(width + 1, 1, delta, epsilon)
        bound = per_job_bounds(ts)[1]
        exact = blocking_time(ts, 1).blocking_time
        expected_bound = width * delta
        # A job holding R_p has already passed R_1..R_{p-1}, so an
        # admissible chain is strictly increasing in (job, resource).  The
        # long cells lie on the antidiagonal, so a chain holds at most one;
        # the longest increasing chain through one has 1 + 2*floor((w-1)/2)
        # sections.  Without a long cell the best chain is w short ones.
        expected_exact = max(
            delta + 2 * ((width - 1) // 2) * epsilon, width * epsilon
        )
        if bound != expected_bound:
            failures.append(f"width {width}: bound {bound} != {expected_bound}")
        if exact != expected_exact:
            failures.append(f"width {width}: exact {exact} != {expected_exact}")
    elapsed = time.perf_counter() - started
    _verdict(
        7,
        "antidiagonal family: closed-form bound and exact values",
        not failures and elapsed < 5.0,
        "; ".join(failures) or f"{elapsed:.3f}s",
    )


def _assignment_brute_force(matrix) -> Fraction:
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


def test_criterion_8_property_suite():
    started = time.perf_counter()
    checked_matrices = 0
    rng = random.Random(2024)
    for seed in range(200):
        ts = random_taskset(seed)
        for i in range(1, ts.n + 1):
            result = blocking_time(ts, i)
            oracle = brute_force_blocking_time(ts, i)
            bound, _ = hungarian_bound(
                ts, relevant_jobs(ts, i), relevant_resources(ts, i)
            )
            # (a) exact search equals exhaustive enumeration
            assert result.blocking_time == oracle.best_duration, (seed, i)
            # (b) the bound dominates the exact value
            assert bound >= result.blocking_time, (seed, i)
            # (c) the witness is admissible and has the reported duration
            assert is_admissible_chain(ts, i, result.witness).admissible, (seed, i)
            assert chain_duration(result.witness) == result.blocking_time
            # (d) assignment optimum equals permutation brute force
            matrix = blocking_time_matrix(
                ts, relevant_jobs(ts, i), relevant_resources(ts, i)
            )
            if len(matrix.jobs) <= 6 and len(matrix.resources) <= 6:
                assert max_assignment(matrix).value == _assignment_brute_force(
                    matrix
                ), (seed, i)
                checked_matrices += 1
            # (e) fixpoint invariant under randomized iteration order
            assert relevant_resources(ts, i) == random_order_fixpoint(
                ts, i, random.Random(rng.randrange(2**30))
            ), (seed, i)
    elapsed = time.perf_counter() - started
    _verdict(
        8,
        "200 seeded random task sets: search/oracle/bound/assignment/fixpoint",
        elapsed < 60.0,
        f"{elapsed:.1f}s, {checked_matrices} matrices cross-checked",
    )


def test_criterion_9_deadlock_detection():
    acyclic_a = check_deadlock_free(parse_taskset(NESTED_FOUR_JOBS))
    acyclic_f = check_deadlock_free(parse_taskset(FIVE_JOBS_DEEP))
    cyclic = check_deadlock_free(parse_taskset(CROSS_NESTING))
    ok = (
        acyclic_a.acyclic
        and acyclic_f.acyclic
        and not cyclic.acyclic
        and cyclic.cycle is not None
        and len(set(cyclic.cycle)) == 2
        and cyclic.cycle[0] == cyclic.cycle[-1]
    )
    _verdict(
        9,
        "deadlock verdicts: two acyclic fixtures, cross-nesting cycle witness",
        ok,
        f"cycle={cyclic.cycle}",
    )
