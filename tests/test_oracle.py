import itertools

import pytest

from pipblock import (
    OracleLimitError,
    blocking_time,
    brute_force_blocking_time,
    chain_duration,
    check_deadlock_free,
    generate_antidiagonal_family,
    hungarian_bound,
    is_admissible_chain,
    iter_admissible_chains,
    parse_taskset,
    per_job_bounds,
    random_taskset,
    relevant_jobs,
    relevant_resources,
    uninformed_space_size,
)


def test_deep_fixture_oracle(five_jobs_deep):
    result = brute_force_blocking_time(five_jobs_deep, 1)
    assert result.best_duration == 26
    assert result.uninformed_space == 480
    for chain in result.best_chains:
        assert chain_duration(chain) == 26
        assert is_admissible_chain(five_jobs_deep, 1, chain).admissible


def test_nested_fixture_oracle(nested_four_jobs):
    result = brute_force_blocking_time(nested_four_jobs, 1)
    assert result.best_duration == 11
    sets = {frozenset(z.label for z in c) for c in result.best_chains}
    assert {"z2,1", "z3,2", "z4,1"} in sets
    assert {"z2,1", "z3,4"} in sets


def test_lowest_job_oracle(six_jobs_disjoint):
    result = brute_force_blocking_time(six_jobs_disjoint, 6)
    assert result.best_duration == 0
    assert result.best_chains == ((),)
    assert result.chains_enumerated == 1
    assert result.uninformed_space == 1


def test_every_enumerated_chain_is_admissible(nested_four_jobs):
    for chain in iter_admissible_chains(nested_four_jobs, 1):
        assert is_admissible_chain(nested_four_jobs, 1, chain).admissible


def test_chains_longer_than_the_recursion_limit():
    # J1 locks R1..R1199 and J_k holds R_{k-1}: depth-first, the first
    # chains grow by one section each, to 1199 sections.
    length = 1200
    lines = ["J1: " + " ".join(f"[R{k}: 1]" for k in range(1, length))]
    lines += [f"J{k}: [R{k - 1}: 1]" for k in range(2, length + 1)]
    ts = parse_taskset("\n".join(lines))
    chains = list(itertools.islice(iter_admissible_chains(ts, 1), length))
    assert [len(chain) for chain in chains] == list(range(length))
    assert [z.job for z in chains[-1]] == list(range(2, length + 1))


def test_limit_enforced(six_jobs_disjoint):
    assert uninformed_space_size(six_jobs_disjoint, 1) == 4 * 3 * 4 * 4 * 2
    with pytest.raises(OracleLimitError):
        brute_force_blocking_time(six_jobs_disjoint, 1, limit=10)


def test_oracle_refuses_cyclic(cross_nesting):
    from pipblock import CyclicResourceOrderError

    with pytest.raises(CyclicResourceOrderError):
        brute_force_blocking_time(cross_nesting, 1)


# --- antidiagonal family ------------------------------------------------------


def test_antidiagonal_structure():
    ts = generate_antidiagonal_family(4, 2, 10, 1)
    assert ts.n == 4
    assert ts.job(1).sections == ()
    assert [z.resource for z in ts.job(2).sections] == [1, 2]
    assert [int(z.duration) for z in ts.job(2).sections] == [1, 1]
    # antidiagonal: job 3 is long on R2, job 4 on R1
    assert [int(z.duration) for z in ts.job(3).sections] == [1, 10]
    assert [int(z.duration) for z in ts.job(4).sections] == [10, 1]
    assert check_deadlock_free(ts).acyclic


def test_antidiagonal_parameter_validation():
    with pytest.raises(ValueError):
        generate_antidiagonal_family(3, 3, 10, 1)
    with pytest.raises(ValueError):
        generate_antidiagonal_family(3, 1, 1, 10)


def test_antidiagonal_bounds_scale_with_width():
    for width in range(1, 7):
        ts = generate_antidiagonal_family(width + 1, 1, 10, 1)
        assert per_job_bounds(ts)[1] == 10 * width


def test_antidiagonal_exact_values_cross_checked():
    # Exact worst cases computed independently by the enumerator and the
    # search; frozen here.  Orderings force chains strictly increasing in
    # (job, resource), so the antidiagonal long section is reached at most
    # once and the exact value is delta + 2*floor((w-1)/2)*epsilon:
    # width:        1   2   3   4   5   6
    expected = [10, 10, 12, 12, 14, 14]
    for width, value in zip(range(1, 7), expected):
        ts = generate_antidiagonal_family(width + 1, 1, 10, 1)
        oracle = brute_force_blocking_time(ts, 1)
        search = blocking_time(ts, 1)
        assert oracle.best_duration == value
        assert search.blocking_time == value


def test_antidiagonal_higher_target():
    ts = generate_antidiagonal_family(6, 3, 10, 1)
    assert per_job_bounds(ts)[3] == 30
    assert blocking_time(ts, 3).blocking_time == 12


# --- random generator ---------------------------------------------------------


def test_random_taskset_deterministic():
    assert random_taskset(42) == random_taskset(42)
    assert random_taskset(42) != random_taskset(43)


def test_random_taskset_acyclic_and_physical():
    for seed in range(60):
        ts = random_taskset(seed)
        assert check_deadlock_free(ts).acyclic
        for z in ts.iter_sections():
            if z.parent is not None:
                assert z.parent.resource > z.resource
                assert z.parent.duration >= z.duration


def test_random_taskset_validates_limits():
    with pytest.raises(ValueError):
        random_taskset(1, jobs=0)


def test_bound_dominates_oracle_random():
    for seed in range(30):
        ts = random_taskset(seed, jobs=4, resources=4)
        for i in range(1, ts.n + 1):
            bound, _ = hungarian_bound(
                ts, relevant_jobs(ts, i), relevant_resources(ts, i)
            )
            assert bound >= brute_force_blocking_time(ts, i).best_duration
