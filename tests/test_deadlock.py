import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@st.composite
def _nested_text(draw):
    """A task set over R1..R5 whose nesting may order resources cyclically."""
    resources = range(1, draw(st.integers(2, 5)) + 1)

    def section(held, depth):
        resource = draw(st.sampled_from([r for r in resources if r not in held]))
        inner = draw(st.integers(0, 2 if depth < 3 and len(held) + 1 < len(resources) else 0))
        body = " ".join(section(held | {resource}, depth + 1) for _ in range(inner))
        return f"[R{resource}: 1 {body}]"

    jobs = draw(st.integers(1, 4))
    return "\n".join(
        f"J{j}: " + " ".join(section(frozenset(), 0) for _ in range(draw(st.integers(1, 3))))
        for j in range(1, jobs + 1)
    )


@settings(max_examples=200, deadline=None)
@given(text=_nested_text())
def test_order_graph_verdict_and_cycle_match_the_definitions(text):
    ts = parse_taskset(text)
    edges = {(a.resource, z.resource) for z in ts.iter_sections() for a in z.ancestors()}
    graph = build_order_graph(ts)
    assert graph.vertices == ts.resources
    assert graph.edges == edges

    def walks(start, length):
        """Every walk of ``length`` edges from ``start``."""
        out = [(start,)]
        for _ in range(length):
            out = [w + (b,) for w in out for a, b in sorted(edges) if a == w[-1]]
        return out

    reach = {r: {b for a, b in edges if a == r} for r in ts.resources}
    for _ in ts.resources:
        reach = {r: seen.union(*(reach[s] for s in seen)) for r, seen in reach.items()}
    cyclic = sorted(r for r in ts.resources if r in reach[r])
    verdict = check_deadlock_free(ts)
    assert verdict.acyclic == (not cyclic)
    if cyclic:
        start = cyclic[0]
        for k in range(1, len(ts.resources) + 1):
            closed = [w for w in walks(start, k) if w[-1] == start]
            if closed:
                break
        assert verdict.cycle == min(closed)
    else:
        assert verdict.cycle is None


def test_deep_nesting_check_stays_small():
    # One job nested 1,000 deep has about 500,000 (ancestor, section)
    # pairs; the check must not hold one object per pair.
    depth = 1000
    text = "J1: [R1: 1]\nJ2: " + "".join(f"[R{k}: 1 " for k in range(2, depth + 2)) + "]" * depth
    ts = parse_taskset(text)
    tracemalloc.start()
    try:
        verdict = check_deadlock_free(ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.acyclic
    assert peak < 5_000_000
