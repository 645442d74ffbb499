import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pipblock import (
    CriticalSection,
    TaskSet,
    analyze,
    chain_duration,
    is_admissible_chain,
    parse_taskset,
    per_job_bounds,
    quick_admissibility_verdict,
    random_taskset,
    render_report,
)

from conftest import CROSS_NESTING, FIVE_JOBS_DEEP, SIX_JOBS_NESTED
from test_search import SHAPES, _shaped


def test_report_runs_search_only_when_needed():
    report = analyze(parse_taskset(FIVE_JOBS_DEEP))
    assert report.deadlock.acyclic
    entry = report.jobs[0]
    assert entry.bound == 33
    assert not entry.quick.passed
    assert entry.searched
    assert entry.exact == 26

    report = analyze(parse_taskset(SIX_JOBS_NESTED), job=2)
    entry = report.jobs[0]
    assert entry.quick.passed and not entry.searched
    assert entry.exact == entry.bound == 12
    assert entry.witness is not None
    assert chain_duration(entry.witness) == 12


def test_bound_only_leaves_exact_open():
    report = analyze(parse_taskset(FIVE_JOBS_DEEP), job=1, exact=False)
    entry = report.jobs[0]
    assert entry.exact is None and entry.witness is None and not entry.searched
    # a passing screen still certifies the bound without any search
    report = analyze(parse_taskset(SIX_JOBS_NESTED), job=2, exact=False)
    assert report.jobs[0].exact == 12


def test_bound_only_builds_no_search_masks():
    # The index's one lazy table, the search's conflict masks, is built on
    # first read; the bound-only path and per_job_bounds never read it.
    # J1 of the deep fixture goes to search, so the exact pipeline does.
    from pipblock.taskset import _compiled

    ts = parse_taskset(FIVE_JOBS_DEEP)
    analyze(ts, exact=False)
    per_job_bounds(ts)
    assert _compiled(ts)._conflict is None
    analyze(ts)
    assert _compiled(ts)._conflict is not None


def test_cyclic_report_shape():
    report = analyze(parse_taskset(CROSS_NESTING))
    assert not report.deadlock.acyclic
    assert report.jobs == ()
    doc = report.to_dict()
    assert doc["blocking_time"] == "infinite"
    assert doc["cycle"] == ["R1", "R2", "R1"]
    assert "infinite" in render_report(report)


def test_json_mirrors_report_values():
    report = analyze(parse_taskset(FIVE_JOBS_DEEP))
    doc = report.to_dict()
    assert [e["job"] for e in doc["jobs"]] == [a.job for a in report.jobs]
    for entry, analysis in zip(doc["jobs"], report.jobs):
        assert entry["bound"] == str(analysis.bound)
        assert entry["quick_check"] == analysis.quick.passed
        if analysis.exact is None:
            assert entry["exact"] is None
        else:
            assert entry["exact"] == str(analysis.exact)
        assert json.dumps(entry)  # JSON-serializable throughout


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_report_invariants_random(seed):
    ts = random_taskset(seed, jobs=4, resources=4)
    report = analyze(ts)
    assert [a.job for a in report.jobs] == list(range(1, ts.n + 1))
    for a in report.jobs:
        assert a.exact is not None
        assert a.exact <= a.bound
        assert a.witness is not None
        assert chain_duration(a.witness) == a.exact
        assert is_admissible_chain(ts, a.job, a.witness).admissible
        if a.quick.passed:
            assert a.exact == a.bound and not a.searched
        else:
            assert a.searched


def test_traced_analysis_gives_the_same_document():
    # analyze(trace=True) keeps each search's records and changes nothing
    # in the report: its document equals the untraced one, less the
    # measured wall times, and every searched job has one record per
    # expanded node.
    from pipblock import generate_antidiagonal_family

    sets = [parse_taskset(FIVE_JOBS_DEEP), generate_antidiagonal_family(6, 1, 10, 1)]
    sets += [random_taskset(s, jobs=8, resources=8, sections_per_job=4) for s in range(4)]
    for ts in sets:
        plain, traced = analyze(ts), analyze(ts, trace=True)
        docs = [plain.to_dict(), traced.to_dict()]
        for doc in docs:
            for entry in doc["jobs"]:
                del entry["wall_time_s"]
        assert docs[0] == docs[1]
        for a, b in zip(plain.jobs, traced.jobs):
            assert a.searched == b.searched
            if a.searched:
                assert a.search.expansions == ()
                assert len(b.search.expansions) == b.search.nodes_expanded


def _documents(report) -> list[dict]:
    """The report's job documents, less ``wall_time_s``."""
    jobs = report.to_dict()["jobs"]
    for entry in jobs:
        del entry["wall_time_s"]
    return jobs


def _search_fields(result) -> tuple:
    records = [
        (e.seq, e.chain, e.gain_units, e.heuristic_units, e.scale, e.created)
        for e in result.expansions
    ]
    return (result.blocking_time, result.witness, result.nodes_generated,
            result.nodes_expanded, records)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), shape=SHAPES, data=st.data())
def test_work_kept_on_the_index_never_leaks_across_jobs_or_sets(seed, shape, data):
    # analyze keeps per-set work on the compiled index: the deadlock
    # verdict, and one job slot (fixpoint iterates, then the solved
    # kernel) that each job replaces.  Each job's document must equal
    # the one analyze(fresh, job=i) gives on a fresh parse, and a search
    # run after analyze, which finds the last job in the slot and the
    # others not, must equal one on a fresh parse, records included.
    import warnings

    from pipblock import ZeroDurationWarning, blocking_time, serialize_taskset

    ts = _shaped(shape, seed)
    text = serialize_taskset(ts)

    def fresh():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroDurationWarning)
            return parse_taskset(text)

    report = analyze(ts)
    if not report.deadlock.acyclic:
        assert report.to_dict() == analyze(fresh()).to_dict()
        return
    documents = _documents(report)
    for i in range(1, ts.n + 1):
        assert _documents(analyze(fresh(), job=i)) == [documents[i - 1]]
    for i in range(ts.n, 0, -1):
        trace = data.draw(st.booleans())
        shared = blocking_time(ts, i, trace=trace)
        assert _search_fields(shared) == _search_fields(blocking_time(fresh(), i, trace=trace))


def test_analyze_does_each_jobs_work_once():
    # One random-exact set (seed 0 of the benchmark's 20): analyze makes
    # one SCC pass for the set, and one relevance fixpoint and one
    # assignment solve per job, the searched jobs included.
    from collections import Counter
    from unittest import mock

    import pipblock.bound
    import pipblock.deadlock
    import pipblock.relevance

    counts: Counter = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    ts = random_taskset(0, jobs=12, resources=12, sections_per_job=6, nesting_depth=3)
    kernel = pipblock.bound._Assignment
    with mock.patch.object(
        pipblock.deadlock, "_cyclic_vertices",
        counting("scc", pipblock.deadlock._cyclic_vertices),
    ), mock.patch.object(
        pipblock.relevance, "_fixpoint", counting("fixpoint", pipblock.relevance._fixpoint)
    ), mock.patch.object(kernel, "__init__", counting("solve", kernel.__init__)):
        report = analyze(ts)
    assert sum(a.searched for a in report.jobs) > 0
    assert counts == {"scc": 1, "fixpoint": ts.n, "solve": ts.n}


# --- one home per matrix cell: the index's longest map ------------------------


def _leftmost_longest(ts: TaskSet, j: int, r) -> CriticalSection:
    """From the definition: the first of job ``j``'s sections on ``r``
    with the largest duration."""
    on_r = [z for z in ts.job(j).sections if z.resource == r]
    return next(z for z in on_r if z.duration == max(w.duration for w in on_r))


def _check_cells_and_screen(ts: TaskSet) -> None:
    # Every cell (J_j, R) of a resource job j uses is the row of its
    # leftmost longest section on R, and the screen run on each job's
    # bound-stage assignment builds its chain from exactly those pairs'
    # cells: all of them unless the pairs could not be woven into one
    # chain.
    from pipblock.analysis import _bound_stage
    from pipblock.taskset import _compiled

    index = _compiled(ts)
    for job in ts.jobs:
        cells = index.longest[job.index - 1]
        assert set(cells) == {z.resource for z in job.sections}
        for r, s in cells.items():
            assert s.z is _leftmost_longest(ts, job.index, r)
    for i in range(1, ts.n + 1):
        _, assignment = _bound_stage(ts, i)
        quick = quick_admissibility_verdict(ts, i, assignment)
        expected = {_leftmost_longest(ts, j, r) for j, r in assignment.pairs}
        assert len(set(quick.chain)) == len(quick.chain)
        assert set(quick.chain) <= expected
        if quick.failed_condition != "induction-compatibility":
            assert set(quick.chain) == expected


def test_cells_keep_the_leftmost_longest_section(tie_and_zero):
    from pipblock.taskset import _compiled

    ts = tie_and_zero
    longest = _compiled(ts).longest
    assert longest[1][1].z is ts.section(2, 2)
    assert longest[2][2].z is ts.section(3, 1) and longest[2][2].duration == 0
    _check_cells_and_screen(ts)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), shape=SHAPES)
def test_cells_and_screen_match_the_definition_on_shapes(seed, shape):
    _check_cells_and_screen(_shaped(shape, seed))

