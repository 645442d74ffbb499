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
    assert result.nodes_generated == 7
    assert result.nodes_expanded == 4


def test_deep_fixture_expansion_trace(five_jobs_deep):
    result = blocking_time(five_jobs_deep, 1, trace=True)
    records = result.expansions
    # the root's extensions are the sections maximal w.r.t. the direct set,
    # z2,1, z3,3 and z4,4; the dive's floor is 26, and z3,3 and z4,4 fall
    # below it (gain plus relaxed bound), so only z2,1 is created
    assert records[0].chain == ()
    assert records[0].estimate == 33
    assert records[0].extensions == ("z2,1",)
    # the single-section chain on the outermost long section
    assert [z.label for z in records[1].chain] == ["z2,1"]
    assert records[1].extensions == ("z4,1", "z5,3")
    assert [z.label for z in records[2].chain] == ["z2,1", "z4,1"]
    assert records[2].extensions == ("z3,1", "z5,3")
    assert [z.label for z in records[3].chain] == ["z2,1", "z4,1", "z3,1"]
    assert records[3].extensions == ("z5,3",)


def test_popped_estimates_never_increase(five_jobs_deep, nested_four_jobs):
    for ts in (five_jobs_deep, nested_four_jobs):
        result = blocking_time(ts, 1, trace=True)
        estimates = [r.estimate for r in result.expansions]
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))


def test_heuristic_never_underestimates(five_jobs_deep, nested_four_jobs):
    for ts in (five_jobs_deep, nested_four_jobs):
        result = blocking_time(ts, 1, trace=True)
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
            result = blocking_time(ts, i, trace=True)
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
    # deactivating one job row and one resource column (row j - 1 is job
    # j, column k is resource bit 1 << k, cells from the index's longest
    # durations).  Delete random pairs, and sometimes a row with its own
    # matched column (no grow), down to an empty side: every
    # repaired value must equal a fresh hungarian_bound over the remaining
    # sets.
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
    jobs = set(rng.sample(range(1, ts.n + 1), shape[0]))
    resources = set(rng.sample(sorted(ts.resources), min(shape[1], len(ts.resources))))
    column = {r: index.bits[r].bit_length() - 1 for r in index.ids}
    cells = [
        {column[r]: w for r, w in longest.items() if r in resources and w > 0} if j in jobs else {}
        for j, longest in enumerate(index.longest, 1)
    ]
    assignment = _Assignment(cells, len(index.ids))
    while jobs and resources:
        job = rng.choice(sorted(jobs))
        own = assignment.mate[job - 1]
        if own >= 0 and rng.random() < 0.4:
            resource = index.ids[own]
        else:
            resource = rng.choice(sorted(resources))
        assignment = assignment.without(job - 1, column[resource])
        jobs.discard(job)
        resources.discard(resource)
        fresh, _ = hungarian_bound(ts, jobs, resources)
        assert assignment.value == index.scaled(fresh)


def _search_root(ts, i):
    """Job ``i``'s search root and its fringe, built as
    :func:`blocking_time` builds them before the dive: the root reads its
    scope and kernel from the index's job slot and sets the fringe's
    relevant mask, and its LSM mask goes through the fringe's memo."""
    from pipblock import Fringe
    from pipblock.search import _root
    from pipblock.taskset import _compiled

    fringe = Fringe()
    return _root(_compiled(ts), i, fringe), fringe


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    shape=st.sampled_from([(8, 4), (4, 8), (6, 6)]),
)
def test_root_assignment_value_is_the_root_estimate(seed, shape):
    # The root solves its assignment over the relevant jobs and the
    # relevant resources, whichever side is larger; it matches only
    # relevant rows to relevant columns, and its estimate equals
    # hungarian_bound over the relevant sets, a solve of the blocking
    # matrix built on its own.
    from pipblock import blocking_scope
    from pipblock.taskset import _compiled, _positions

    ts = random_taskset(seed, jobs=shape[0], resources=shape[1], sections_per_job=4)
    index = _compiled(ts)
    for i in range(1, ts.n + 1):
        root, _ = _search_root(ts, i)
        scope = blocking_scope(ts, i)
        mate = root.assignment.mate
        matched = [(r + 1, c) for r, c in enumerate(mate) if c >= 0]
        columns = _positions(index.mask(scope.relevant_resources))
        assert {j for j, _ in matched} <= set(scope.relevant_jobs)
        assert {c for _, c in matched} <= set(columns)
        bound, _ = hungarian_bound(ts, scope.relevant_jobs, scope.relevant_resources)
        assert root.heuristic == index.scaled(bound)


def test_standalone_expand_and_successors(five_jobs_deep):
    from pipblock import expand, successors
    from pipblock.taskset import _compiled, _on_inside, _positions

    ts = five_jobs_deep
    index = _compiled(ts)
    assert index.scale == 1  # node gains and heuristics read as durations
    root, fringe = _search_root(ts, 1)
    assert root.estimate == 33
    assert [z.label for z in successors(ts, root, fringe)] == [
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
    hit, out = _on_inside(index, z44.induced)
    candidates = _positions(z44.eligible & hit & ~out)
    assert {index.rows[k].z.job for k in candidates} == {5}
    assert by_label["z2,1"].induced == index.mask({2, 3, 4})

    # a node without eligible sections has no extensions: expand creates
    # nothing and leaves the node as it was
    leafish = by_label["z3,3"]
    leafish.seq, leafish.batch = 1, 1
    assert successors(ts, leafish, fringe) == ()
    assert expand(ts, 1, leafish, fringe) == []
    assert leafish.is_leaf


def test_releafed_node_joins_the_newest_batch():
    # J4's z4,3 and z4,1 both come to 6.  z4,1 is a leaf on creation (seq
    # 1, batch 1); z4,3 is expanded, finds no extension and goes back as a
    # leaf.  It is re-marked with the current batch, 2, so it pops before
    # z4,1 and is the witness; left in batch 1 it would lose on seq.
    ts = random_taskset(35, jobs=5, resources=5, sections_per_job=3, nesting_depth=2)
    result = blocking_time(ts, 3, trace=True)
    assert result.blocking_time == 6
    assert [z.label for z in result.witness] == ["z4,3"]
    assert (result.nodes_generated, result.nodes_expanded) == (3, 2)
    assert [(r.seq, r.releafed) for r in result.expansions] == [
        (0, False),
        (2, True),
    ]


def test_twelve_job_nested_search_is_pinned():
    # random_taskset seed 13 at (12, 12, 6, 3), J1: a nested set whose
    # search expands 32 of its 43 generated nodes.  The value and witness
    # are pinned, the node counts too, so a change to the search that
    # moves either shows here.  Every expanded node has an expansion
    # record.
    ts = random_taskset(13, jobs=12, resources=12, sections_per_job=6, nesting_depth=3)
    result = blocking_time(ts, 1, trace=True)
    assert result.blocking_time == 34
    assert [z.label for z in result.witness] == ["z5,1", "z2,2", "z10,5", "z11,1"]
    assert (result.nodes_generated, result.nodes_expanded) == (43, 32)
    assert len(result.expansions) == result.nodes_expanded


def test_fringe_refuses_an_unnumbered_or_live_seq(five_jobs_deep):
    from pipblock import Fringe

    fringe = Fringe()
    root, _ = _search_root(five_jobs_deep, 1)
    root.seq = -1
    with pytest.raises(ValueError):
        fringe.push(root)
    root.seq = 0
    fringe.push(root)
    with pytest.raises(ValueError):
        fringe.push(_search_root(five_jobs_deep, 1)[0])


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
            eligible=0,
            gain=gain,
            heuristic=heuristic,
            live=0,
            maximal=0,
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
    # The maximal-keys mask (LSM on masks) against the definitions, and
    # the candidates it leaves in an eligible mask that drops the sections
    # on taken resources (NBR), job by job and over every job at once
    # (ascending keys: job then position order)
    import random

    from pipblock import is_maximal
    from pipblock.taskset import _compiled, _on_inside, _positions

    rng = random.Random(seed)
    ts = random_taskset(seed, jobs=6, resources=7, sections_per_job=5, nesting_depth=3)
    index = _compiled(ts)
    for _ in range(6):
        induced = {r for r in ts.resources if rng.random() < 0.5}
        taken = {r for r in ts.resources if rng.random() < 0.3}
        hit, out = _on_inside(index, index.mask(induced))
        maximal = hit & ~out
        assert [index.rows[k].z for k in _positions(maximal)] == [
            z for z in ts.iter_sections() if is_maximal(z, induced)
        ]
        on_taken = sum(
            1 << index.entry(z).key for z in ts.iter_sections() if z.resource in taken
        )
        everyone = []
        for j in range(1, ts.n + 1):
            expected = [
                z
                for z in ts.job(j).sections
                if is_maximal(z, induced) and z.resource not in taken
            ]
            eligible = index.keys(1 << j) & ~on_taken
            assert [index.rows[k].z for k in _positions(eligible & maximal)] == expected
            everyone += expected
        eligible = index.keys(sum(1 << j for j in range(1, ts.n + 1))) & ~on_taken
        assert [index.rows[k].z for k in _positions(eligible & maximal)] == everyone


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), fractional=st.booleans())
def test_successors_match_the_definitions(seed, fractional):
    # Walk random root-to-leaf paths of the search tree, expanding each node
    # once and pushing its children as the search would.  At each new node
    # the induced set and the chain's resources must lie within the
    # relevant resources, and the eligible mask must be NBJ and NBR
    # recomputed from the chain: the sections of the relevant jobs off the
    # chain's jobs and resources.  The extensions must be exactly the
    # sections, in job then position order, that satisfy LSM (is_maximal)
    # and NBR, whose chain set was never generated, and that extend the
    # chain admissibly, both by is_admissible_chain and by the definitions
    # written out in test_admissibility.  On every section of a remaining
    # job, the FHO/FLO mask predicate must agree with the witness walk and
    # with FHO/FLO as defined on sections.
    import random
    import re

    from pipblock import (
        blocking_scope,
        expand,
        is_maximal,
        parse_taskset,
        serialize_taskset,
        successors,
    )
    from pipblock.admissibility import _obstructed, _obstruction, _priority_masks
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
    root, fringe = _search_root(ts, i)
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
                assert index.mask(taken) & ~relevant == 0
                assert node.eligible == sum(
                    1 << index.entry(z).key
                    for j in scope.relevant_jobs - {m.job for m in chain}
                    for z in ts.job(j).sections
                    if z.resource not in taken
                )
                expected = []
                for j in sorted(scope.relevant_jobs - {m.job for m in chain}):
                    rows = [index.entry(m) for m in chain]
                    above, below = _priority_masks(rows, j)
                    for z in ts.job(j).sections:
                        s = index.entry(z)
                        verdict = _obstructed(s, above, below)
                        witness = _obstruction(index, rows, s, above, below)
                        assert verdict == (witness is not None)
                        assert verdict == obstructed(chain, z)
                        if not is_maximal(z, induced) or z.resource in taken:
                            continue
                        extended = chain + (z,)
                        admissible = is_admissible_chain(ts, i, extended).admissible
                        assert admissible == (_ref_verdict(ts, i, extended) is None)
                        if admissible and frozenset(extended) not in generated:
                            expected.append(z)
                assert list(successors(ts, node, fringe)) == expected
                created = expand(ts, i, node, fringe)
                for child in created:
                    child.seq = child.batch = next_seq
                    next_seq += 1
                    fringe.push(child)
                    generated.add(frozenset(child.chain))
                children[node.seq] = created
            if not children[node.seq]:
                break
            node = rng.choice(children[node.seq])


def _shaped(shape, seed):
    """A small task set of one of the shapes the pruning argument has to
    survive: plain random nesting; deep transitive nesting (job j nests
    R(j+1) inside R(j) and further, so each job's section induces the
    next resource); twin sections tied in length; zero durations."""
    import random
    import re
    import warnings

    from pipblock import ZeroDurationWarning, parse_taskset, serialize_taskset

    rng = random.Random(seed)
    if shape == "random":
        return random_taskset(seed, jobs=7, resources=6, sections_per_job=4, nesting_depth=3)
    if shape == "zero":
        text = serialize_taskset(
            random_taskset(seed, jobs=7, resources=6, sections_per_job=4, nesting_depth=3)
        )
        text = re.sub(
            r"(R\d+: )(\d+)",
            lambda m: m[1] + ("0" if rng.random() < 0.4 else m[2]),
            text,
        )
    else:
        lines = []
        for j in range(1, 8):
            parts = []
            if shape == "transitive":
                depth = rng.randint(1, 3)
                parts.append(
                    "".join(f"[R{j + d}: {rng.randint(1, 9)} " for d in range(depth))
                    + "]" * depth
                )
                for _ in range(rng.randint(0, 2)):
                    parts.append(f"[R{rng.randint(1, 9)}: {rng.randint(1, 9)}]")
            else:  # twins: each section twice, durations from {1, 2}
                for _ in range(rng.randint(1, 2)):
                    outer = rng.randint(1, 5)
                    section = f"[R{outer}: {rng.randint(1, 2)}"
                    if rng.random() < 0.5:
                        section += f" [R{rng.randint(outer + 1, 6)}: {rng.randint(1, 2)}]"
                    parts += [section + "]"] * 2
            rng.shuffle(parts)
            lines.append(f"J{j}: " + " ".join(parts))
        text = "\n".join(lines)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroDurationWarning)
        return parse_taskset(text)


SHAPES = st.sampled_from(["random", "transitive", "twins", "zero"])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), shape=SHAPES)
def test_live_matches_the_definitions(seed, shape):
    # At every node the search expands, the incremental eligible mask must
    # be the set of the relevant jobs' sections that pass NBJ and NBR, and
    # the live mask the part of it that FHO/FLO do not reject against the
    # node's chain, both computed from scratch with the chain check's
    # priority masks.  The stored maximal mask must be the eligible
    # sections maximal w.r.t. the node's induced set, recomputed from
    # scratch.
    from unittest import mock

    import pipblock.search
    from pipblock import blocking_scope
    from pipblock.admissibility import _obstructed, _priority_masks
    from pipblock.taskset import _compiled, _on_inside

    ts = _shaped(shape, seed)
    index = _compiled(ts)
    for i in range(1, ts.n + 1):
        expanded = []

        def recording(ts, i, node, fringe, expand=pipblock.search.expand):
            expanded.append(node)
            return expand(ts, i, node, fringe)

        with mock.patch.object(pipblock.search, "expand", recording):
            result = blocking_time(ts, i)
        assert len(expanded) == result.nodes_expanded
        jobs = blocking_scope(ts, i).relevant_jobs
        for node in expanded:
            chain = node.chain
            eligible = live = 0
            for j in sorted(jobs - {m.job for m in chain}):
                above, below = _priority_masks([index.entry(m) for m in chain], j)
                for z in ts.job(j).sections:
                    s = index.entry(z)
                    if any(m.resource == z.resource for m in chain):
                        continue
                    eligible |= 1 << s.key
                    if not _obstructed(s, above, below):
                        live |= 1 << s.key
            assert node.eligible == eligible
            assert node.live == live
            hit, out = _on_inside(index, node.induced)
            assert node.maximal == node.eligible & hit & ~out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), shape=SHAPES)
def test_search_matches_oracle_on_shapes(seed, shape):
    ts = _shaped(shape, seed)
    for i in range(1, ts.n + 1):
        result = blocking_time(ts, i)
        assert result.blocking_time == brute_force_blocking_time(ts, i).best_duration


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), shape=SHAPES)
def test_witnesses_are_admissible_on_shapes(seed, shape):
    ts = _shaped(shape, seed)
    for i in range(1, ts.n + 1):
        result = blocking_time(ts, i)
        assert is_admissible_chain(ts, i, result.witness).admissible
        assert chain_duration(result.witness) == result.blocking_time


def test_search_outputs_and_records_are_pinned():
    # Every job of antidiagonal widths 1-7 and of five random 12-job sets:
    # the value, witness labels, node counts and every expansion record
    # (seq, chain labels, gain and heuristic units, extensions, releafed)
    # hash to this digest.  A change meant to leave the search's outputs
    # byte-identical must leave it unchanged; one that moves a witness,
    # a count or a record has to update it on purpose.
    import hashlib

    from pipblock import generate_antidiagonal_family

    sets = [generate_antidiagonal_family(w + 1, 1, 10, 1) for w in range(1, 8)]
    sets += [
        random_taskset(s, jobs=12, resources=12, sections_per_job=6, nesting_depth=3)
        for s in range(5)
    ]
    digest = hashlib.sha256()
    for ts in sets:
        for i in range(1, ts.n + 1):
            r = blocking_time(ts, i, trace=True)
            labels = [z.label for z in r.witness]
            fields = (str(r.blocking_time), labels, r.nodes_generated, r.nodes_expanded)
            digest.update(repr(fields).encode())
            for e in r.expansions:
                chain = [z.label for z in e.chain]
                fields = (e.seq, chain, e.gain_units, e.heuristic_units, e.extensions, e.releafed)
                digest.update(repr(fields).encode())
    assert digest.hexdigest() == (
        "67bcbd6afa6da71498718c0c4a4a8cd3c093686f7ee9189912697b16bd696204"
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), shape=SHAPES)
def test_traced_and_untraced_searches_agree(seed, shape):
    # Tracing only keeps records: the value, witness and both counts are
    # the same either way, the traced search keeps one record per
    # expanded node and the untraced one keeps none.
    ts = _shaped(shape, seed)
    for i in range(1, ts.n + 1):
        plain = blocking_time(ts, i)
        traced = blocking_time(ts, i, trace=True)
        assert plain.blocking_time == traced.blocking_time
        assert plain.witness == traced.witness
        assert plain.nodes_generated == traced.nodes_generated
        assert plain.nodes_expanded == traced.nodes_expanded
        assert len(traced.expansions) == traced.nodes_expanded
        assert plain.expansions == ()


def test_untraced_search_builds_no_record(monkeypatch):
    # Antidiagonal width 6, J1, with a counter on record construction:
    # the traced search builds one record per expansion (so the counter
    # sees the construction the search makes), the untraced one none.
    import pipblock.search
    from pipblock import generate_antidiagonal_family

    built = []

    def counting(*args, record=pipblock.search.ExpansionRecord, **kwargs):
        built.append(1)
        return record(*args, **kwargs)

    monkeypatch.setattr(pipblock.search, "ExpansionRecord", counting)
    ts = generate_antidiagonal_family(7, 1, 10, 1)
    traced = blocking_time(ts, 1, trace=True)
    assert len(built) == traced.nodes_expanded > 0
    built.clear()
    plain = blocking_time(ts, 1)
    assert plain.nodes_expanded == traced.nodes_expanded
    assert built == []


def _relevant_keys(ts, i):
    """The index's ``on`` mask over job ``i``'s relevant resources, from
    the scope's resource set."""
    from pipblock import blocking_scope
    from pipblock.taskset import _compiled

    index = _compiled(ts)
    resources = index.mask(blocking_scope(ts, i).relevant_resources)
    return sum(keys for bit, keys in index.on.items() if bit & resources)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), shape=SHAPES)
def test_relaxed_bound_covers_every_completion(seed, shape):
    # At every admissible chain the oracle enumerates, M of the chain's
    # candidates (live sections on a relevant resource, not inside a
    # section on an induced one), walked from the root by the search's
    # child step, is at least the best completion: the longest enumerated
    # chain extending it, less its own duration.  The fringe's relevant
    # mask is checked against the scope's resources on its own.
    from pipblock import iter_admissible_chains
    from pipblock.search import _child
    from pipblock.taskset import _compiled, _relaxed

    ts = _shaped(shape, seed)
    index = _compiled(ts)
    for i in range(1, ts.n + 1):
        best: dict = {}
        for chain in iter_admissible_chains(ts, i):
            total = sum(index.entry(z).duration for z in chain)
            for k in range(len(chain) + 1):
                done = sum(index.entry(z).duration for z in chain[:k])
                best[chain[:k]] = max(best.get(chain[:k], 0), total - done)
        root, fringe = _search_root(ts, i)
        assert fringe._relevant == _relevant_keys(ts, i)
        root_candidates = root.live & fringe._maximal[root.induced][1]
        for chain, completion in best.items():
            live, induced, candidates = root.live, root.induced, root_candidates
            for z in chain:
                live, induced, _, candidates = _child(
                    index, i, index.entry(z), live, induced, fringe
                )
            assert _relaxed(index, candidates) >= completion


def _created_with_candidates(ts, i):
    """Job ``i``'s search root with its candidates, in a list that is empty
    when the root is a leaf, and every (parent, child, candidates) of the
    children :func:`expand` created.  A child's candidates come from its
    parent through the child step, which must give the child's stored
    ``live`` and ``induced``."""
    from unittest import mock

    import pipblock.search
    from pipblock.search import _child
    from pipblock.taskset import _compiled

    index = _compiled(ts)
    created, roots = [], []

    def recording(ts, i, node, fringe, expand=pipblock.search.expand):
        children = expand(ts, i, node, fringe)
        if not node.chain:
            roots.append((node, node.live & fringe._maximal[node.induced][1]))
        for child in children:
            s = index.entry(child.chain[-1])
            live, induced, _, candidates = _child(
                index, i, s, node.live, node.induced, fringe
            )
            assert (live, induced) == (child.live, child.induced)
            created.append((node, child, candidates))
        return children

    with mock.patch.object(pipblock.search, "expand", recording):
        blocking_time(ts, i)
    return roots, created


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), shape=SHAPES)
def test_relaxed_bound_is_at_most_the_assignment(seed, shape):
    # Every node created with an assignment, the root too: M of its
    # candidates is at most its heuristic, since NBJ and NBR leave a
    # conflict-free set at most one section per remaining job and per
    # remaining resource, each on a relevant one.
    from pipblock.taskset import _compiled, _relaxed

    ts = _shaped(shape, seed)
    index = _compiled(ts)
    for i in range(1, ts.n + 1):
        roots, created = _created_with_candidates(ts, i)
        nodes = roots + [(child, candidates) for _, child, candidates in created]
        for node, candidates in nodes:
            if node.assignment is not None:
                assert _relaxed(index, candidates) <= node.heuristic


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), shape=SHAPES)
def test_relaxed_bound_is_consistent(seed, shape):
    # Every created child: M of its parent's candidates is at least the
    # added section's duration plus M of the child's candidates.
    from pipblock.taskset import _compiled, _relaxed

    ts = _shaped(shape, seed)
    index = _compiled(ts)
    for i in range(1, ts.n + 1):
        roots, created = _created_with_candidates(ts, i)
        candidates_of = {id(node): candidates for node, candidates in roots}
        for _, child, candidates in created:
            candidates_of[id(child)] = candidates
        for parent, child, candidates in created:
            duration = index.entry(child.chain[-1]).duration
            M = _relaxed(index, candidates_of[id(parent)])
            assert M >= duration + _relaxed(index, candidates)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), shape=SHAPES)
def test_dive_floor_and_the_unpruned_search(seed, shape):
    # The dive's floor is the gain of an admissible chain, so at most the
    # exact value.  With the dive returning 0 nothing is pruned: value and
    # witness stay, and neither count is smaller than the pruned search's.
    from unittest import mock

    import pipblock.search

    ts = _shaped(shape, seed)
    scale = pipblock.search._compiled(ts).scale
    for i in range(1, ts.n + 1):
        floors = []

        def recording(*args, dive=pipblock.search._dive):
            floors.append(dive(*args))
            return floors[-1]

        with mock.patch.object(pipblock.search, "_dive", recording):
            pruned = blocking_time(ts, i)
        assert all(floor <= pruned.blocking_time * scale for floor in floors)
        with mock.patch.object(pipblock.search, "_dive", lambda *args: 0):
            unpruned = blocking_time(ts, i)
        assert unpruned.blocking_time == pruned.blocking_time
        assert unpruned.witness == pruned.witness
        assert unpruned.nodes_generated >= pruned.nodes_generated
        assert unpruned.nodes_expanded >= pruned.nodes_expanded


class _CountingMemo(dict):
    """A memo that counts its clears."""

    clears = 0

    def clear(self):
        self.clears += 1
        super().clear()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), shape=SHAPES)
def test_relaxed_memo_cap_leaves_results_alone(seed, shape):
    # A memo cleared on almost every call gives the same values, witnesses
    # and counts as one that is never cleared.
    from unittest import mock

    import pipblock.taskset

    ts = _shaped(shape, seed)
    kept = [blocking_time(ts, i) for i in range(1, ts.n + 1)]
    again = _shaped(shape, seed)
    with mock.patch.object(pipblock.taskset, "_RELAXED_CAP", 3):
        assert [blocking_time(again, i) for i in range(1, again.n + 1)] == kept


def test_relaxed_memo_is_cleared_past_its_cap():
    # Antidiagonal width 5, J1, with the cap at 3 entries: the memo is
    # cleared along the way, and the result is the uncapped one.
    from unittest import mock

    import pipblock.taskset
    from pipblock import generate_antidiagonal_family
    from pipblock.taskset import _compiled

    kept = blocking_time(generate_antidiagonal_family(6, 1, 10, 1), 1)
    ts = generate_antidiagonal_family(6, 1, 10, 1)
    memo = _compiled(ts).relaxed = _CountingMemo({0: 0})
    with mock.patch.object(pipblock.taskset, "_RELAXED_CAP", 3):
        assert blocking_time(ts, 1) == kept
    assert memo.clears > 0


def test_relaxed_survives_a_clear_after_its_last_store():
    # Another thread's call may clear the shared memo between this call's
    # store of the asked mask and its return.  A memo that clears itself
    # right after that store must still give M, not a KeyError.
    from pipblock import generate_antidiagonal_family
    from pipblock.taskset import _compiled, _relaxed

    index = _compiled(generate_antidiagonal_family(6, 1, 10, 1))
    cand = (1 << len(index.rows)) - 1
    expected = _relaxed(index, cand)
    assert expected > 0

    class ClearedAfterStore(dict):
        def __setitem__(self, mask, value):
            super().__setitem__(mask, value)
            if mask == cand:
                self.clear()

    index.relaxed = ClearedAfterStore({0: 0})
    assert _relaxed(index, cand) == expected
    assert cand not in index.relaxed


def test_relaxed_bound_on_two_thousand_keys():
    # M over masks of 2,000 keys returns without exhausting the recursion
    # limit: 2,000 conflict-free sections add up, and the 2,000 nested
    # sections of one job conflict pairwise, so only the longest counts.
    from pipblock import parse_taskset
    from pipblock.taskset import _compiled, _relaxed

    n = 2000
    wide = parse_taskset("\n".join(f"J{j}: [R{j}: {1 + j % 3}]" for j in range(1, n + 2)))
    index = _compiled(wide)
    everyone = index.keys(((1 << n + 2) - 1) & ~3)
    assert everyone.bit_count() == n
    assert _relaxed(index, everyone) == sum(1 + j % 3 for j in range(2, n + 2))
    deep = parse_taskset(
        "J1: [R1: 1]\nJ2: "
        + "".join(f"[R{k}: {k % 7 + 1} " for k in range(2, n + 2))
        + "]" * n
    )
    index = _compiled(deep)
    assert _relaxed(index, index.job_keys[2]) == 7
