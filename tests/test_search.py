import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipblock import (
    CyclicResourceOrderError,
    blocking_time,
    brute_force_blocking_time,
    chain_duration,
    hungarian_bound,
    is_admissible_chain,
    per_job_bounds,
    random_taskset,
)
from test_admissibility import _ref_verdict


def test_deep_fixture_exact_value_and_witness(five_jobs_deep):
    result = blocking_time(five_jobs_deep, 1)
    assert result.blocking_time == 26
    assert {z.label for z in result.witness} == {"z2,1", "z4,1", "z3,1", "z5,3"}
    assert result.nodes_generated == 11
    assert result.nodes_expanded == 5


def test_deep_fixture_expansion_trace(five_jobs_deep):
    result = blocking_time(five_jobs_deep, 1)
    records = result.expansions
    # root offers exactly the sections maximal w.r.t. the direct set
    assert records[0].chain == ()
    assert records[0].estimate == 33
    assert records[0].extensions == ("z2,1", "z3,3", "z4,4")
    # the f=33 child has no admissible extension and is re-marked as a leaf
    assert [z.label for z in records[1].chain] == ["z4,4"]
    assert records[1].releafed
    # the single-section chain on the outermost long section
    assert [z.label for z in records[2].chain] == ["z2,1"]
    assert records[2].extensions == ("z4,1", "z5,3")
    assert [z.label for z in records[3].chain] == ["z2,1", "z4,1"]
    assert records[3].extensions == ("z3,1", "z5,1", "z5,3", "z5,4")
    assert [z.label for z in records[4].chain] == ["z2,1", "z4,1", "z3,1"]
    assert records[4].extensions == ("z5,3",)


def test_popped_estimates_never_increase(five_jobs_deep, nested_four_jobs):
    for ts in (five_jobs_deep, nested_four_jobs):
        result = blocking_time(ts, 1)
        estimates = [r.estimate for r in result.expansions]
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))


def test_heuristic_never_underestimates(five_jobs_deep, nested_four_jobs):
    for ts in (five_jobs_deep, nested_four_jobs):
        result = blocking_time(ts, 1)
        assert all(r.estimate >= result.blocking_time for r in result.expansions)


def test_nested_fixture_exact(nested_four_jobs):
    result = blocking_time(nested_four_jobs, 1)
    assert result.blocking_time == 11
    assert is_admissible_chain(nested_four_jobs, 1, result.witness).admissible
    assert chain_duration(result.witness) == 11


def test_all_bounds_tight_without_nesting(six_jobs_disjoint):
    bounds = per_job_bounds(six_jobs_disjoint)
    for i in range(1, 7):
        assert blocking_time(six_jobs_disjoint, i).blocking_time == bounds[i]


def test_lowest_priority_job_never_blocks(six_jobs_disjoint):
    result = blocking_time(six_jobs_disjoint, 6)
    assert result.blocking_time == 0
    assert result.witness == ()
    assert result.nodes_generated == 1
    assert result.nodes_expanded == 0


def test_cross_fixture_matches_oracle(two_resource_cross):
    result = blocking_time(two_resource_cross, 1)
    oracle = brute_force_blocking_time(two_resource_cross, 1)
    assert result.blocking_time == oracle.best_duration
    # the bound 6 is not attainable; the true worst case is one unit less
    # than the bound would suggest (frozen from the enumeration)
    assert result.blocking_time == 5


def test_equal_length_twin_found_by_search(double_lock):
    result = blocking_time(double_lock, 1)
    assert result.blocking_time == 4
    assert {z.label for z in result.witness} == {"z2,2", "z3,1"}


def test_cyclic_task_set_refused(cross_nesting):
    with pytest.raises(CyclicResourceOrderError):
        blocking_time(cross_nesting, 1)


def test_no_chain_expanded_twice(five_jobs_deep, nested_four_jobs):
    for ts in (five_jobs_deep, nested_four_jobs):
        for i in range(1, ts.n + 1):
            result = blocking_time(ts, i)
            seen = [frozenset(r.chain) for r in result.expansions]
            assert len(seen) == len(set(seen))


def test_seen_set_guard_keeps_covered_chains():
    # A covering chain reached through other sections is not a substitute
    # for the covered one: {z5,4, z3,2} is covered by {z2,1, z5,4, z3,2},
    # yet only the former can still take z4,1 (R4 is free).  A guard that
    # discarded covered chains would stop at 19; the exact seen-set guard
    # keeps the branch and finds the true optimum.
    from pipblock import parse_taskset

    ts = parse_taskset(
        """
J1: [R2:4] [R4:8 [R2:2]]
J2: [R4:3]
J3: [R3:1 [R1:8]] [R4:6]
J4: [R4:8 [R3:7]] [R5:7]
J5: [R5:2 [R4:2]] [R3:1] [R2:8 [R1:4]]
"""
    )
    oracle = brute_force_blocking_time(ts, 1)
    assert oracle.best_duration == 24
    assert blocking_time(ts, 1).blocking_time == 24


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_search_matches_oracle_random(seed):
    ts = random_taskset(seed)
    for i in range(1, ts.n + 1):
        result = blocking_time(ts, i)
        oracle = brute_force_blocking_time(ts, i)
        assert result.blocking_time == oracle.best_duration
        verdict = is_admissible_chain(ts, i, result.witness)
        assert verdict.admissible
        assert chain_duration(result.witness) == result.blocking_time


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), k=st.integers(min_value=2, max_value=9))
def test_fractional_durations_scale_the_result(seed, k):
    # the engine counts in units of 1/scale; dividing every duration by k
    # must divide each exact value by k and change nothing else
    import re

    from pipblock import parse_taskset, serialize_taskset

    ts = random_taskset(seed)
    text = re.sub(r"(R\d+: )(\d+)", rf"\g<1>\g<2>/{k}", serialize_taskset(ts))
    scaled = parse_taskset(text)
    for i in range(1, ts.n + 1):
        whole = blocking_time(ts, i)
        part = blocking_time(scaled, i)
        assert part.blocking_time == brute_force_blocking_time(scaled, i).best_duration
        assert part.blocking_time == whole.blocking_time / k
        assert [z.label for z in part.witness] == [z.label for z in whole.witness]
        assert part.nodes_generated == whole.nodes_generated
        assert part.nodes_expanded == whole.nodes_expanded


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    shape=st.sampled_from([(7, 4), (4, 7), (6, 6)]),
    fractional=st.booleans(),
)
def test_repaired_assignment_matches_fresh_bound(seed, shape, fractional):
    # A child's heuristic repairs its parent's optimal assignment after
    # deactivating one job row and one resource column of the search's
    # matrix (row j is job j, column k + 1 is resource bit 1 << k, zero
    # padding after).  Delete random pairs, and sometimes a row with its
    # own matched column (no augmenting path), down to an empty side:
    # every repaired value must equal a fresh hungarian_bound over the
    # remaining sets.
    import random
    import re

    from pipblock import parse_taskset, serialize_taskset
    from pipblock.bound import _Assignment
    from pipblock.taskset import _compiled

    rng = random.Random(seed)
    ts = random_taskset(seed, jobs=8, resources=8, sections_per_job=4, nesting_depth=3)
    if fractional:
        k = rng.randint(2, 9)
        ts = parse_taskset(re.sub(r"(R\d+: )(\d+)", rf"\g<1>\g<2>/{k}", serialize_taskset(ts)))
    index = _compiled(ts)
    jobs = sorted(rng.sample(range(1, ts.n + 1), shape[0]))
    resources = rng.sample(sorted(ts.resources), min(shape[1], len(ts.resources)))
    columns = sorted(index.bits[r].bit_length() for r in resources)
    pad = [0] * max(len(jobs) - len(columns), 0)
    cost = [[-longest.get(r, 0) for r in index.ids] + pad for longest in index.longest]
    cost += [[0] * len(cost[0]) for _ in range(len(columns) - len(jobs))]
    rows = jobs + list(range(ts.n + 1, len(cost) + 1))
    columns += range(len(index.ids) + 1, len(cost[0]) + 1)
    assignment = _Assignment(cost, rows, columns)
    jobs, resources = set(jobs), set(resources)
    while jobs and resources:
        job = rng.choice(sorted(jobs))
        column = assignment.owner.index(job, 1)
        if column <= len(index.ids) and rng.random() < 0.4:
            resource = index.ids[column - 1]
        else:
            resource = rng.choice(sorted(resources))
        cost, assignment = assignment.without(job, index.bits[resource].bit_length())
        jobs.discard(job)
        resources.discard(resource)
        fresh, _ = hungarian_bound(ts, jobs, resources)
        assert -cost == index.scaled(fresh)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    shape=st.sampled_from([(8, 4), (4, 8), (6, 6)]),
)
def test_root_assignment_value_is_the_root_estimate(seed, shape):
    # The root solves its assignment over the relevant jobs, the relevant
    # resources and the padding that squares them; whichever side is
    # larger, its estimate equals the perturbed hungarian_bound over the
    # relevant sets, an independent solve.
    from pipblock import blocking_scope
    from pipblock.search import _root
    from pipblock.taskset import _compiled, _positions

    ts = random_taskset(seed, jobs=shape[0], resources=shape[1], sections_per_job=4)
    index = _compiled(ts)
    for i in range(1, ts.n + 1):
        root = _root(ts, i)
        scope = blocking_scope(ts, i)
        owner = root.assignment.owner
        matched = [(o, c) for c, o in enumerate(owner) if c and o]
        jobs = _positions(root.remaining_jobs)
        columns = [k + 1 for k in _positions(root.remaining_resources)]
        assert len(matched) == max(len(jobs), len(columns))
        assert {o for o, _ in matched} >= set(jobs)
        assert {c for _, c in matched} >= set(columns)
        bound, _ = hungarian_bound(ts, scope.relevant_jobs, scope.relevant_resources)
        assert root.heuristic == index.scaled(bound)


def test_standalone_expand_and_successors(five_jobs_deep):
    from pipblock import Fringe, expand, successors
    from pipblock.search import _candidates, _root
    from pipblock.taskset import _compiled

    ts = five_jobs_deep
    index = _compiled(ts)
    assert index.scale == 1  # node gains and heuristics read as durations
    root = _root(ts, 1)
    assert root.estimate == 33
    fringe = Fringe()
    assert [z.label for z in successors(ts, 1, root, fringe)] == [
        "z2,1",
        "z3,3",
        "z4,4",
    ]
    children = expand(ts, 1, root, fringe)
    assert [c.chain[-1].label for c in children] == ["z2,1", "z3,3", "z4,4"]
    by_label = {c.chain[-1].label: c for c in children}
    assert by_label["z2,1"].estimate == 26
    assert by_label["z3,3"].estimate == 10 and by_label["z3,3"].is_leaf
    assert by_label["z4,4"].estimate == 33
    # only J5 still owns a section eligible after z4,4
    z44 = by_label["z4,4"]
    assert {
        s.z.job
        for s in _candidates(index, z44.remaining_jobs, z44.induced, z44.remaining_resources)
    } == {5}
    assert by_label["z2,1"].induced == index.mask({2, 3, 4})

    # a node without eligible sections has no extensions and is
    # re-marked as a leaf by expand
    leafish = by_label["z3,3"]
    leafish.seq, leafish.batch = 1, 1
    assert successors(ts, 1, leafish, fringe) == ()
    assert expand(ts, 1, leafish, fringe) == [leafish]
    assert leafish.is_leaf


def test_fringe_ordering_and_duplicate_guard(five_jobs_deep):
    from pipblock import Fringe, SearchNode
    from pipblock.taskset import _compiled

    ts = five_jobs_deep
    index = _compiled(ts)

    def node(label_chain, gain, heuristic, seq, batch):
        chain = tuple(
            ts.section(int(l[1]), int(l[3])) for l in label_chain
        )
        return SearchNode(
            chain=chain,
            members=sum(1 << index.entry(z).key for z in chain),
            induced=0,
            remaining_resources=0,
            remaining_jobs=0,
            gain=gain,
            heuristic=heuristic,
            seq=seq,
            batch=batch,
        )

    fringe = Fringe()
    older = node(["z2,1"], 6, 20, 1, 1)
    newer = node(["z3,3"], 10, 16, 2, 2)
    leaf = node(["z4,4"], 26, 0, 3, 2)
    fringe.push(older)
    fringe.push(newer)
    fringe.push(leaf)
    # equal estimates: the leaf pops first, then the newer batch
    assert fringe.pop() is leaf
    assert fringe.pop() is newer
    assert fringe.pop() is older

    # generation memory persists across pops
    assert fringe.already_generated(newer.members)
    assert not fringe.already_generated(1 << index.entry(ts.section(5, 3)).key)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_index_maximality_matches_is_maximal(seed):
    # _candidates (LSM and NBR on masks) against the definitions, job by
    # job and over every job at once (job then position order)
    import random

    from pipblock import is_maximal
    from pipblock.search import _candidates
    from pipblock.taskset import _compiled

    rng = random.Random(seed)
    ts = random_taskset(seed, jobs=6, resources=7, sections_per_job=5, nesting_depth=3)
    index = _compiled(ts)
    for _ in range(6):
        induced = {r for r in ts.resources if rng.random() < 0.5}
        taken = {r for r in ts.resources if rng.random() < 0.3}
        masks = index.mask(induced), index.mask(ts.resources - taken)
        everyone = []
        for j in range(1, ts.n + 1):
            expected = [
                z
                for z in ts.job(j).sections
                if is_maximal(z, induced) and z.resource not in taken
            ]
            assert [s.z for s in _candidates(index, 1 << j, *masks)] == expected
            everyone += expected
        jobs = sum(1 << j for j in range(1, ts.n + 1))
        assert [s.z for s in _candidates(index, jobs, *masks)] == everyone


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), fractional=st.booleans())
def test_successors_match_the_definitions(seed, fractional):
    # Walk random root-to-leaf paths of the search tree, expanding each node
    # once and pushing its children as the search would.  At each new node
    # the induced set must lie within the relevant resources and the
    # chain's resources must be exactly the relevant ones no longer
    # remaining (the search reads NBR on remaining_resources on that
    # ground).  The extensions must be exactly the sections, in job then
    # position order, that satisfy LSM (is_maximal) and NBR, whose chain
    # set was never generated, and that extend the chain admissibly, both by
    # is_admissible_chain and by the definitions written out in
    # test_admissibility.  On every section of a remaining job, the FHO/FLO
    # mask predicate must agree with the witness walk and with FHO/FLO as
    # defined on sections.
    import random
    import re

    from pipblock import (
        Fringe,
        blocking_scope,
        expand,
        is_maximal,
        parse_taskset,
        serialize_taskset,
        successors,
    )
    from pipblock.admissibility import _obstructed, _obstruction, _priority_masks
    from pipblock.search import _root
    from pipblock.taskset import _compiled

    def held(z):
        return {z.resource} | {a.resource for a in z.ancestors()}

    def obstructed(chain, z):
        fho = any(
            q.resource in held(z)
            for m in chain
            if m.job < z.job
            for q in ts.job(m.job).sections[: m.position - 1]
        )
        flo = any(
            o.resource in held(m)
            for m in chain
            if m.job > z.job
            for o in ts.job(z.job).sections[: z.position - 1]
        )
        return fho or flo

    rng = random.Random(seed)
    ts = random_taskset(seed, jobs=8, resources=6, sections_per_job=4, nesting_depth=3)
    if fractional:
        k = rng.randint(2, 9)
        ts = parse_taskset(re.sub(r"(R\d+: )(\d+)", rf"\g<1>\g<2>/{k}", serialize_taskset(ts)))
    index = _compiled(ts)
    i = rng.randint(1, 3)
    scope = blocking_scope(ts, i)
    relevant = index.mask(scope.relevant_resources)
    root = _root(ts, i)
    fringe = Fringe()
    fringe.push(root)
    generated = {frozenset()}
    children = {}
    next_seq = 1
    for _ in range(12):
        node = root
        while True:
            if node.seq not in children:
                chain = node.chain
                induced = index.resources_of(node.induced)
                taken = {z.resource for z in chain}
                assert node.induced & ~relevant == 0
                assert index.mask(taken) == relevant & ~node.remaining_resources
                expected = []
                for j in sorted(scope.relevant_jobs - {m.job for m in chain}):
                    above, below = _priority_masks(index, chain, j)
                    for z in ts.job(j).sections:
                        s = index.entry(z)
                        verdict = _obstructed(s, above, below)
                        witness = _obstruction(index, chain, s, above, below)
                        assert verdict == (witness is not None)
                        assert verdict == obstructed(chain, z)
                        if not is_maximal(z, induced) or z.resource in taken:
                            continue
                        extended = chain + (z,)
                        admissible = is_admissible_chain(ts, i, extended).admissible
                        assert admissible == (_ref_verdict(ts, i, extended) is None)
                        if admissible and frozenset(extended) not in generated:
                            expected.append(z)
                assert list(successors(ts, i, node, fringe)) == expected
                created = [c for c in expand(ts, i, node, fringe) if c is not node]
                for child in created:
                    child.seq = child.batch = next_seq
                    next_seq += 1
                    fringe.push(child)
                    generated.add(frozenset(child.chain))
                children[node.seq] = created
            if not children[node.seq]:
                break
            node = rng.choice(children[node.seq])
