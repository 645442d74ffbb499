import pytest

from pipblock import (
    analyze,
    CyclicResourceOrderError,
    build_order_graph,
    check_deadlock_free,
    parse_taskset,
    require_acyclic,
)


def test_nested_four_jobs_graph_and_verdict(nested_four_jobs):
    graph = build_order_graph(nested_four_jobs)
    # transitive containment pairs become edges too
    assert {(4, 3), (4, 2), (3, 2), (2, 1)} <= graph.edges
    assert all(a > b for a, b in graph.edges)  # consistent with R1<R2<R3<R4
    assert check_deadlock_free(nested_four_jobs).acyclic


def test_five_jobs_deep_acyclic(five_jobs_deep):
    assert check_deadlock_free(five_jobs_deep).acyclic
    assert all(a > b for a, b in build_order_graph(five_jobs_deep).edges)


def test_disjoint_sections_no_edges(six_jobs_disjoint):
    assert build_order_graph(six_jobs_disjoint).edges == frozenset()
    assert check_deadlock_free(six_jobs_disjoint).acyclic


def test_cross_nesting_cycle(cross_nesting):
    graph = build_order_graph(cross_nesting)
    assert graph.edges == {(1, 2), (2, 1)}
    verdict = check_deadlock_free(cross_nesting)
    assert not verdict.acyclic
    assert verdict.cycle == (1, 2, 1)


def test_three_resource_cycle_witness():
    ts = parse_taskset("J1: [R1:1 [R2:1]] [R2:1 [R3:1]]\nJ2: [R3:1 [R1:1]]")
    verdict = check_deadlock_free(ts)
    assert not verdict.acyclic
    assert verdict.cycle == (1, 2, 3, 1)


def test_long_cycle_witness_without_recursion():
    # J_k: [R_k: 1 [R_{k mod L + 1}: 1]] closes one cycle through all L
    # resources, longer than the interpreter's recursion limit.
    length = 1200
    text = "\n".join(
        f"J{k}: [R{k}: 1 [R{k % length + 1}: 1]]" for k in range(1, length + 1)
    )
    report = analyze(parse_taskset(text))
    assert not report.deadlock.acyclic
    assert report.deadlock.cycle == (*range(1, length + 1), 1)


def test_require_acyclic_raises(cross_nesting, nested_four_jobs):
    require_acyclic(nested_four_jobs)
    with pytest.raises(CyclicResourceOrderError) as err:
        require_acyclic(cross_nesting)
    assert err.value.cycle == (1, 2, 1)


def test_verdict_ignores_durations_and_job_order(cross_nesting):
    # same nesting structure, different durations and job order
    variant = parse_taskset("J1: [R2:9 [R1:7]]\nJ2: [R1:5 [R2:1]]")
    assert not check_deadlock_free(variant).acyclic
    assert not check_deadlock_free(cross_nesting).acyclic
    scaled = parse_taskset("J1: [R1:100 [R2:3]]\nJ2: [R2:50 [R1:2]]")
    assert not check_deadlock_free(scaled).acyclic
