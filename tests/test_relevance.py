import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipblock import (
    blocking_scope,
    direct_blocking_jobs,
    direct_blocking_resources,
    fixpoint_trace,
    induced_set,
    is_maximal,
    maximal_sequence,
    parse_taskset,
    random_taskset,
    relevant_jobs,
    relevant_resources,
)

from conftest import random_order_fixpoint


def test_direct_sets(nested_four_jobs, six_jobs_disjoint):
    assert direct_blocking_resources(nested_four_jobs, 1) == {4}
    assert direct_blocking_jobs(nested_four_jobs, 1) == {2, 3}
    assert direct_blocking_resources(six_jobs_disjoint, 2) == {2, 3, 4}
    assert direct_blocking_jobs(six_jobs_disjoint, 4) == {5, 6}
    assert direct_blocking_resources(nested_four_jobs, 4) == frozenset()
    assert direct_blocking_jobs(six_jobs_disjoint, 6) == frozenset()


def test_is_maximal(nested_four_jobs):
    ts = nested_four_jobs
    assert is_maximal(ts.section(2, 1), {4})
    # contained in z2,1 whose resource R4 is in scope
    assert not is_maximal(ts.section(2, 2), {3, 4})
    assert not is_maximal(ts.section(2, 2), frozenset())
    # resource outside scope
    assert not is_maximal(ts.section(3, 3), {2, 3, 4})


def test_maximal_sequence(nested_four_jobs):
    ts = nested_four_jobs
    assert [z.label for z in maximal_sequence(ts, 3, {2, 3, 4})] == [
        "z3,1",
        "z3,2",
        "z3,4",
    ]
    assert [z.label for z in maximal_sequence(ts, 2, {2, 3, 4})] == ["z2,1"]
    assert maximal_sequence(ts, 3, frozenset()) == ()


def test_induced_set(nested_four_jobs):
    ts = nested_four_jobs
    assert induced_set(ts, 1, ts.section(2, 1), {4}) == {2, 3}
    assert induced_set(ts, 1, ts.section(3, 2), {2, 3, 4}) == {1}
    # no nested children
    assert induced_set(ts, 1, ts.section(3, 1), {4}) == frozenset()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_induced_set_matches_definition(seed):
    # reference: the resources of the sections strictly inside z (found by
    # following parent links), outside the scope and locked by some job
    # below i other than z's own
    rng = random.Random(seed)
    ts = random_taskset(seed, jobs=6, resources=7, sections_per_job=5, nesting_depth=3)
    for _ in range(4):
        i = rng.randint(1, ts.n)
        scope = {r for r in ts.resources if rng.random() < 0.5}
        for job in ts.jobs[i:]:
            for z in job.sections:
                if not is_maximal(z, scope):
                    continue
                inside = []
                for w in job.sections:
                    outer = w.parent
                    while outer is not None and outer is not z:
                        outer = outer.parent
                    if outer is z:
                        inside.append(w)
                expected = {
                    w.resource
                    for w in inside
                    if w.resource not in scope
                    and any(
                        v.resource == w.resource
                        for other in ts.jobs[i:]
                        if other.index != z.job
                        for v in other.sections
                    )
                }
                assert induced_set(ts, i, z, scope) == expected


def test_induced_set_preconditions(nested_four_jobs):
    ts = nested_four_jobs
    with pytest.raises(ValueError):
        induced_set(ts, 1, ts.section(3, 3), {2, 3, 4})  # not maximal
    with pytest.raises(ValueError):
        induced_set(ts, 2, ts.section(2, 1), {4})  # not a lower-priority job


def test_relevant_resources(nested_four_jobs):
    assert relevant_resources(nested_four_jobs, 1) == {1, 2, 3, 4}
    assert relevant_resources(nested_four_jobs, 3) == {1, 2}
    assert relevant_resources(nested_four_jobs, 3) == direct_blocking_resources(
        nested_four_jobs, 3
    )
    assert relevant_resources(nested_four_jobs, 4) == frozenset()


def test_relevant_jobs(nested_four_jobs):
    assert relevant_jobs(nested_four_jobs, 1) == {2, 3, 4}
    assert relevant_jobs(nested_four_jobs, 2) == {3, 4}
    assert relevant_jobs(nested_four_jobs, 4) == frozenset()


def test_fixpoint_trace_golden(nested_four_jobs):
    assert fixpoint_trace(nested_four_jobs, 1) == [
        frozenset({4}),
        frozenset({2, 3, 4}),
        frozenset({1, 2, 3, 4}),
    ]


def test_scope_bundle(six_jobs_nested):
    scope = blocking_scope(six_jobs_nested, 2)
    assert scope.direct_resources == {2, 3, 4}
    assert scope.direct_jobs == {3, 4, 5}
    assert scope.relevant_resources == {1, 2, 3, 4}
    assert scope.relevant_jobs == {3, 4, 5, 6}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_fixpoint_properties_random(seed):
    ts = random_taskset(seed)
    for i in range(1, ts.n + 1):
        trace = fixpoint_trace(ts, i)
        assert trace[0] == direct_blocking_resources(ts, i)
        assert all(a < b for a, b in zip(trace, trace[1:]))  # strictly growing
        assert len(trace) <= len(ts.resources) + 1
        assert direct_blocking_resources(ts, i) <= relevant_resources(ts, i)
        assert direct_blocking_jobs(ts, i) <= relevant_jobs(ts, i)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    order_seed=st.integers(min_value=0, max_value=10**9),
)
def test_fixpoint_invariant_under_pick_order(seed, order_seed):
    ts = random_taskset(seed)
    for i in range(1, ts.n + 1):
        deterministic = relevant_resources(ts, i)
        randomized = random_order_fixpoint(ts, i, random.Random(order_seed))
        assert deterministic == randomized


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_flat_sets_have_no_transitive_growth(seed):
    ts = random_taskset(seed, nesting_depth=1)
    for i in range(1, ts.n + 1):
        assert relevant_resources(ts, i) == direct_blocking_resources(ts, i)
        assert relevant_jobs(ts, i) == direct_blocking_jobs(ts, i)


def test_fixpoint_tries_each_section_once(monkeypatch):
    # A transitive chain: J{j}'s section on R{j-1} nests R{j}, so J1's
    # fixpoint adds one resource per step.  The scope only grows, so no
    # section of a lower job needs its induced set computed twice, and
    # only the outer sections are ever maximal: J{j}'s inner section on
    # R{j} sits inside a section on R{j-1}, in scope first.
    from pipblock import relevance

    n = 300
    ts = parse_taskset(
        "J1: [R1: 1]\n"
        + "".join(f"J{j}: [R{j - 1}: 2 [R{j}: 1]]\n" for j in range(2, n + 1))
    )
    calls = 0
    induced = relevance._induced

    def counting(*args):
        nonlocal calls
        calls += 1
        return induced(*args)

    monkeypatch.setattr(relevance, "_induced", counting)
    trace = fixpoint_trace(ts, 1)
    assert len(trace) == n - 1
    assert trace[-1] == frozenset(range(1, n))
    assert calls == n - 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_fixpoint_trace_matches_whole_conversion(seed):
    # The reference converts each mask iterate whole; the trace builds
    # each iterate from the previous one and the resources its step added.
    from pipblock.relevance import _fixpoint
    from pipblock.taskset import _compiled

    ts = random_taskset(seed, jobs=10, resources=8, sections_per_job=5, nesting_depth=4)
    index = _compiled(ts)
    for i in range(1, ts.n + 1):
        expected = [index.resources_of(mask) for mask in _fixpoint(index, i)]
        assert fixpoint_trace(ts, i) == expected


def test_fixpoint_trace_converts_no_iterate_whole(monkeypatch):
    # On the transitive chain of 299 iterates, converting each iterate with
    # resources_of would test every resource bit once per iterate.
    from pipblock.taskset import _compiled, _Index

    n = 300
    ts = parse_taskset(
        "J1: [R1: 1]\n"
        + "".join(f"J{j}: [R{j - 1}: 2 [R{j}: 1]]\n" for j in range(2, n + 1))
    )
    _compiled(ts)
    calls = 0
    resources_of = _Index.resources_of

    def counting(self, mask):
        nonlocal calls
        calls += 1
        return resources_of(self, mask)

    monkeypatch.setattr(_Index, "resources_of", counting)
    trace = fixpoint_trace(ts, 1)
    assert trace == [frozenset(range(1, k + 1)) for k in range(1, n)]
    assert calls <= 1
