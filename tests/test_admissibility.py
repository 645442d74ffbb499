import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipblock import (
    TaskSet,
    blocking_scope,
    blocking_time_matrix,
    chain_duration,
    is_admissible_chain,
    iter_admissible_chains,
    max_assignment,
    parse_taskset,
    quick_admissibility_verdict,
    random_taskset,
)
from pipblock.bound import AssignmentSet
from pipblock.definitions import chain_verdict


# --- chain and extension admissibility ---------------------------------------


def test_single_element_chains_need_direct_maximality(nested_four_jobs):
    ts = nested_four_jobs
    assert is_admissible_chain(ts, 1, (ts.section(2, 1),)).admissible
    assert is_admissible_chain(ts, 1, (ts.section(3, 1),)).admissible
    verdict = is_admissible_chain(ts, 1, (ts.section(4, 1),))
    assert not verdict.admissible and verdict.failed_condition == "LSM"


def test_admissible_chain_goldens(nested_four_jobs, double_lock):
    ts = nested_four_jobs
    good = (ts.section(2, 1), ts.section(3, 2), ts.section(4, 1))
    assert is_admissible_chain(ts, 1, good).admissible
    assert chain_duration(good) == 11

    assert is_admissible_chain(ts, 1, ()).admissible

    bad = (ts.section(4, 2), ts.section(3, 4), ts.section(2, 1))
    verdict = is_admissible_chain(ts, 1, bad)
    assert not verdict.admissible
    assert verdict.failed_condition == "LSM"
    assert verdict.section == ts.section(4, 2)

    dl = double_lock
    assert is_admissible_chain(dl, 1, (dl.section(2, 2), dl.section(3, 1))).admissible


def test_extension_goldens(five_jobs_deep, two_resource_cross):
    # each chain's last element extends an admissible one-section chain
    ts = five_jobs_deep
    verdict = is_admissible_chain(ts, 1, (ts.section(4, 4), ts.section(5, 3)))
    assert not verdict.admissible and verdict.failed_condition == "FHO"
    # the obstruction: z4,3 uses R5, which J5 holds around z5,3
    assert verdict.witness is not None
    obstructing, member = verdict.witness
    assert obstructing == ts.section(4, 3) and member == ts.section(4, 4)

    assert is_admissible_chain(ts, 1, (ts.section(2, 1), ts.section(4, 1))).admissible
    assert is_admissible_chain(ts, 1, (ts.section(2, 1), ts.section(5, 3))).admissible

    tc = two_resource_cross
    verdict = is_admissible_chain(tc, 1, (tc.section(3, 2), tc.section(2, 2)))
    assert not verdict.admissible and verdict.failed_condition == "FLO"
    assert verdict.witness == (tc.section(2, 1), tc.section(3, 2))


def test_fho_is_reported_before_flo():
    # z3,2 on R1 has both kinds of obstruction: the lower-priority member
    # z4,1 holds R3, which z3,1 uses (FLO), and the higher-priority member
    # z2,2 comes after z2,1 on R1 (FHO).  FHO is checked first whatever
    # the members' chain order, so the FLO member coming first must not
    # name the failure.
    ts = parse_taskset(
        "J1: [R1: 1] [R2: 1] [R3: 1]\n"
        "J2: [R1: 1] [R2: 1]\n"
        "J3: [R3: 1] [R1: 1]\n"
        "J4: [R3: 1]\n"
    )
    verdict = is_admissible_chain(ts, 1, (ts.section(4, 1), ts.section(2, 2), ts.section(3, 2)))
    assert (verdict.failed_condition, verdict.section) == ("FHO", ts.section(3, 2))
    assert verdict.witness == (ts.section(2, 1), ts.section(2, 2))

    verdict = is_admissible_chain(ts, 1, (ts.section(4, 1), ts.section(3, 2)))
    assert (verdict.failed_condition, verdict.section) == ("FLO", ts.section(3, 2))
    assert verdict.witness == (ts.section(3, 1), ts.section(4, 1))


def test_chain_rejects_foreign_sections(nested_four_jobs):
    with pytest.raises(ValueError):
        is_admissible_chain(nested_four_jobs, 2, (nested_four_jobs.section(2, 1),))


def test_chain_checks_the_target_before_its_members(nested_four_jobs):
    # z2,1 is not below J9, but J9 does not exist: the index is the error
    with pytest.raises(ValueError, match=r"^target job index 9 out of range 1\.\.4$"):
        is_admissible_chain(nested_four_jobs, 9, (nested_four_jobs.section(2, 1),))


def test_chain_rejects_sections_of_an_equal_looking_set():
    # sections compare equal by (job, position), so membership must be
    # identity: b's z2,1 lasts 50 where a's lasts 5
    a = parse_taskset("J1: [R1: 1]\nJ2: [R1: 5]")
    b = parse_taskset("J1: [R1: 1]\nJ2: [R1: 50]")
    assert b.section(2, 1) == a.section(2, 1)
    with pytest.raises(ValueError):
        is_admissible_chain(a, 1, (b.section(2, 1),))
    assert is_admissible_chain(a, 1, (a.section(2, 1),)).admissible


def test_prefix_closure_on_fixtures(nested_four_jobs, five_jobs_deep):
    for ts in (nested_four_jobs, five_jobs_deep):
        for chain in iter_admissible_chains(ts, 1):
            for k in range(len(chain) + 1):
                assert is_admissible_chain(ts, 1, chain[:k]).admissible


def test_agreement_with_reference_implementation(
    nested_four_jobs, six_jobs_disjoint, two_resource_cross, six_jobs_nested,
    double_lock, five_jobs_deep,
):
    fixtures = (
        nested_four_jobs,
        six_jobs_disjoint,
        two_resource_cross,
        six_jobs_nested,
        double_lock,
        five_jobs_deep,
    )
    for ts in fixtures:
        for i in (1, 2):
            if i >= ts.n:
                continue
            lower = [z for job in ts.jobs[i:] for z in job.sections]
            # all ordered selections of up to 3 sections, job/resource-distinct
            for size in (1, 2, 3):
                for combo in itertools.permutations(lower, size):
                    jobs = [z.job for z in combo]
                    resources = [z.resource for z in combo]
                    if len(set(jobs)) < size or len(set(resources)) < size:
                        continue
                    expected = chain_verdict(ts, i, combo) is None
                    got = is_admissible_chain(ts, i, combo).admissible
                    assert got == expected, (i, [z.label for z in combo])


def test_agreement_with_reference_long_chains(five_jobs_deep):
    import random

    ts = five_jobs_deep
    lower = [z for job in ts.jobs[1:] for z in job.sections]
    rng = random.Random(7)
    checked = 0
    while checked < 2000:
        combo = tuple(rng.sample(lower, 4))
        if len({z.job for z in combo}) < 4 or len({z.resource for z in combo}) < 4:
            continue
        checked += 1
        assert (
            is_admissible_chain(ts, 1, combo).admissible
            == (chain_verdict(ts, 1, combo) is None)
        ), [z.label for z in combo]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_agreement_with_reference_random(seed):
    ts = random_taskset(seed, jobs=4, resources=4)
    lower = [z for job in ts.jobs[1:] for z in job.sections]
    for combo in itertools.permutations(lower, 2):
        if combo[0].job == combo[1].job or combo[0].resource == combo[1].resource:
            continue
        assert (
            is_admissible_chain(ts, 1, combo).admissible
            == (chain_verdict(ts, 1, combo) is None)
        )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_verdicts_and_witnesses_match_definitions(seed):
    import random

    rng = random.Random(seed)
    ts = random_taskset(seed, jobs=7, resources=6, sections_per_job=6, nesting_depth=4)
    i = rng.randint(1, 3)
    lower = [z for job in ts.jobs[i:] for z in job.sections]
    # all pairs, and every section after admissible prefixes (where
    # FHO/FLO can decide)
    combos = list(itertools.permutations(lower, 2))
    prefixes = itertools.islice(iter_admissible_chains(ts, i), 150)
    combos += [prefix + (z,) for prefix in prefixes for z in lower]
    for combo in combos:
        verdict = is_admissible_chain(ts, i, combo)
        got = (
            None
            if verdict.admissible
            else (verdict.failed_condition, verdict.section, verdict.witness)
        )
        expected = chain_verdict(ts, i, combo)
        assert got == expected, [z.label for z in combo]
        if expected is not None:
            # equality of sections is by (job, position); identity pins
            # them to this task set
            assert all(a is b for a, b in zip(got[2] or (), expected[2] or ()))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_first_only_chains_never_fail_reachability(seed):
    ts = random_taskset(seed)
    firsts = [job.sections[0] for job in ts.jobs[1:] if job.sections]
    for combo in itertools.permutations(firsts, min(2, len(firsts))):
        resources = [z.resource for z in combo]
        if len(set(resources)) < len(combo):
            continue
        verdict = is_admissible_chain(ts, 1, combo)
        if not verdict.admissible:
            assert verdict.failed_condition not in ("FHO", "FLO")


# --- the quick bound-realization screen --------------------------------------


def _quick(ts: TaskSet, i: int):
    scope = blocking_scope(ts, i)
    matrix = blocking_time_matrix(ts, scope.relevant_jobs, scope.relevant_resources)
    assignment = max_assignment(matrix)
    return assignment, quick_admissibility_verdict(ts, i, assignment)


def test_quick_check_passes_and_yields_witness(six_jobs_nested):
    assignment, result = _quick(six_jobs_nested, 2)
    assert assignment.value == 12
    assert result.passed
    assert [z.label for z in result.chain] == ["z3,1", "z4,1", "z5,1", "z6,1"]
    assert chain_duration(result.chain) == 12
    assert is_admissible_chain(six_jobs_nested, 2, result.chain).admissible
    assert bool(result)


def test_quick_check_incomplete_on_equal_length_twin(double_lock):
    # the bound 4 is attainable, but the leftmost-section rule picks z2,1
    # and the remaining pair never becomes reachable
    assignment, result = _quick(double_lock, 1)
    assert assignment.value == 4
    assert not result.passed
    assert result.failed_condition == "induction-compatibility"
    assert [z.label for z in result.chain] == ["z2,1"]
    assert result.achieved == 2


def test_quick_check_fails_on_unreachable_allocation(two_resource_cross):
    assignment, result = _quick(two_resource_cross, 1)
    assert assignment.value == 6
    assert not result.passed
    # z3,2 holds R2, which J2 takes in z2,1 before reaching chain member z2,2
    ts = two_resource_cross
    assert result.chain == (ts.section(2, 2), ts.section(3, 2))
    assert result.failed_condition == "FHO"
    assert result.witness == (ts.section(2, 1), ts.section(2, 2))
    assert is_admissible_chain(ts, 1, result.chain).section == ts.section(3, 2)


def test_quick_check_fails_on_deep_fixture(five_jobs_deep):
    assignment, result = _quick(five_jobs_deep, 1)
    assert assignment.value == 33
    assert not result.passed


def test_quick_check_trivial_for_lowest_job(six_jobs_disjoint):
    assignment, result = _quick(six_jobs_disjoint, 6)
    assert assignment.value == 0
    assert result.passed and result.chain == ()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_quick_check_soundness_random(seed):
    ts = random_taskset(seed)
    for i in range(1, ts.n + 1):
        assignment, result = _quick(ts, i)
        if result.passed:
            assert chain_duration(result.chain) == assignment.value
            assert is_admissible_chain(ts, i, result.chain).admissible


def test_quick_check_skips_pairs_without_a_positive_cell(tie_and_zero):
    # J3 never locks R3, and its one section on R2 lasts 0: either pair is
    # skipped, and J2's cell alone realizes the bound.
    ts = tie_and_zero
    for stray in [(3, 2), (3, 3)]:
        result = quick_admissibility_verdict(ts, 1, AssignmentSet(((2, 1), stray), Fraction(5)))
        assert result.passed
        assert result.chain == (ts.section(2, 2),)
        assert result.achieved == 5
