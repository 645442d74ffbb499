from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipblock import (
    CriticalSection,
    Job,
    NestingError,
    ParseError,
    TaskSet,
    TaskSetError,
    ZeroDurationWarning,
    blocking_time,
    brute_force_blocking_time,
    chain_duration,
    check_deadlock_free,
    contains,
    format_chain,
    parse_chain,
    parse_taskset,
    random_taskset,
    serialize_taskset,
)


def test_parse_bracket_notation():
    ts = parse_taskset("J1: [R2: 3 [R1: 1]]\nJ2: [R1: 3] [R1: 4]")
    z11, z12 = ts.job(1).sections
    z21, z22 = ts.job(2).sections
    assert (z11.resource, z11.duration) == (2, Fraction(3))
    assert (z12.resource, z12.duration) == (1, Fraction(1))
    assert z12.parent is z11
    assert contains(z11, z12)
    assert not contains(z21, z22) and z22.parent is None
    assert (z21.duration, z22.duration) == (Fraction(3), Fraction(4))
    assert ts.resources == {1, 2}


def test_parse_job_without_sections():
    ts = parse_taskset("J1:")
    assert ts.job(1).sections == ()
    assert ts.resources == frozenset()


def test_parse_positions_follow_wait_order(five_jobs_deep):
    for job in five_jobs_deep.jobs:
        assert [z.position for z in job.sections] == list(
            range(1, len(job.sections) + 1)
        )
    # outer before inner, left to right
    j4 = five_jobs_deep.job(4).sections
    assert [z.resource for z in j4] == [3, 1, 5, 4, 2]
    assert j4[1].parent is j4[0] and j4[4].parent is j4[3]


def test_same_resource_inside_own_section_rejected():
    with pytest.raises(NestingError):
        parse_taskset("J1: [R1: 2 [R1: 1]]")
    with pytest.raises(NestingError, match=r"\(z1,1 contains z1,3\)"):
        parse_taskset("J1: [R3: 2 [R2: 1 [R3: 1]]]")


def test_building_a_deep_job_walks_no_ancestors(monkeypatch):
    # The re-lock check reads the open path, so building a job nested
    # 3,000 deep takes at most one ancestor step per section (walking each
    # section's ancestors would take about 4.5 million).
    steps = 0
    ancestors = CriticalSection.ancestors

    def counting(self):
        nonlocal steps
        for a in ancestors(self):
            steps += 1
            yield a

    monkeypatch.setattr(CriticalSection, "ancestors", counting)
    depth = 3000
    ts = parse_taskset(
        "J1: " + "".join(f"[R{k}: 1 " for k in range(1, depth + 1)) + "]" * depth
    )
    assert len(ts.job(1).sections) == depth
    assert steps <= depth


def test_same_resource_in_disjoint_sections_allowed():
    ts = parse_taskset("J1: [R1: 3] [R1: 4]")
    assert len(ts.job(1).sections) == 2


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only a comment\n",
        "J2: [R1: 1]",
        "J1: [R1: 1]\nJ3: [R1: 1]",
        "J1: [R1: 1",
        "J1: R1: 1]",
        "J1: [R1: ]",
        "J1: [R1: -3]",
        "J1: [R1: 1]]",
        "J1: [R1: 1] junk",
        "nonsense",
    ],
)
def test_parse_errors(text):
    with pytest.raises(TaskSetError):
        parse_taskset(text)


def test_comments_and_blank_lines_skipped():
    ts = parse_taskset("# header\n\nJ1: [R1: 1]\n# tail\n")
    assert ts.n == 1


def test_fractional_durations():
    ts = parse_taskset("J1: [R1: 0.5] [R2: 1/3]")
    assert [z.duration for z in ts.job(1).sections] == [
        Fraction(1, 2),
        Fraction(1, 3),
    ]


def test_zero_duration_warns():
    with pytest.warns(ZeroDurationWarning):
        parse_taskset("J1: [R1: 0]")


def test_contains_is_strict(nested_four_jobs):
    z21 = nested_four_jobs.section(2, 1)
    z23 = nested_four_jobs.section(2, 3)
    assert contains(z21, z23)
    assert not contains(z23, z21)
    assert not contains(z21, z21)
    # different jobs never contain each other
    assert not contains(z21, nested_four_jobs.section(3, 2))


def test_proper_nesting_trichotomy(five_jobs_deep):
    for job in five_jobs_deep.jobs:
        for a in job.sections:
            for b in job.sections:
                if a is b:
                    continue
                assert not (contains(a, b) and contains(b, a))


def test_chain_duration(nested_four_jobs):
    ts = nested_four_jobs
    eleven = (ts.section(4, 1), ts.section(3, 2), ts.section(2, 1))
    fifteen = (ts.section(4, 2), ts.section(3, 4), ts.section(2, 1))
    assert chain_duration(eleven) == 11
    assert chain_duration(fifteen) == 15
    assert chain_duration(()) == 0


def test_serialize_round_trip_fixture(five_jobs_deep):
    text = serialize_taskset(five_jobs_deep)
    assert parse_taskset(text) == five_jobs_deep


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_serialize_round_trip_random(seed):
    ts = random_taskset(seed)
    assert parse_taskset(serialize_taskset(ts)) == ts


def test_serialize_round_trip_deep_nesting():
    depth = 1000
    text = (
        "J1: " + "".join(f"[R{k}: 1 " for k in range(1, depth + 1)) + "]" * depth
        + "\nJ2: [R1: 2]\n"
    )
    ts = parse_taskset(text)
    assert parse_taskset(serialize_taskset(ts)) == ts


def test_serialize_round_trip_deep_and_wide():
    # A 600-deep spine with a leaf sibling before and after every nested
    # level, plus wide top-level runs in two more jobs.
    depth = 600
    spine = "".join(
        f"[R{k}: 3 [R{depth + 2 * k - 1}: 1/2] " for k in range(1, depth + 1)
    )
    closing = "".join(f" [R{depth + 2 * k}: 1]]" for k in range(depth, 0, -1))
    wide = " ".join(f"[R{k}: {k} [R{k + depth}: 1]]" for k in range(1, 300))
    text = f"J1: {wide}\nJ2: {spine}{closing}\nJ3: {wide} [R1: 7]\nJ4:\n"
    ts = parse_taskset(text)
    assert max(len(list(z.ancestors())) for z in ts.iter_sections()) == depth
    assert parse_taskset(serialize_taskset(ts)) == ts


def test_parse_chain_and_format(nested_four_jobs):
    chain = parse_chain(nested_four_jobs, "z4,1 z3,2 z2,1")
    assert [z.label for z in chain] == ["z4,1", "z3,2", "z2,1"]
    assert format_chain(chain) == "<z4,1, z3,2, z2,1>"
    assert parse_chain(nested_four_jobs, "4,1 3,2") == chain[:2]
    with pytest.raises(ParseError):
        parse_chain(nested_four_jobs, "z4;1")
    with pytest.raises(TaskSetError):
        parse_chain(nested_four_jobs, "z9,1")


def test_section_lookup_errors(nested_four_jobs):
    with pytest.raises(TaskSetError):
        nested_four_jobs.job(9)
    with pytest.raises(TaskSetError):
        nested_four_jobs.section(1, 5)


def test_taskset_checks_the_jobs_it_is_given():
    # Jobs built in code rather than parsed go through the same checks:
    # numbering, section placement, parent links and wait order.
    def z(job, position, resource, parent=None, duration=1):
        return CriticalSection(job, position, resource, duration, parent)

    with pytest.raises(TaskSetError, match="at least one job"):
        TaskSet([])
    with pytest.raises(TaskSetError, match="expected J1, found J2"):
        TaskSet([Job(2, ())])
    with pytest.raises(TaskSetError, match="out of place"):
        TaskSet([Job(1, (z(1, 2, 1),))])
    later = z(1, 2, 1)
    with pytest.raises(TaskSetError, match="earlier section of the same job"):
        TaskSet([Job(1, (z(1, 1, 2, parent=later), later))])
    other = z(2, 1, 1)
    with pytest.raises(TaskSetError, match="earlier section of the same job"):
        TaskSet([Job(1, (z(1, 1, 1), z(1, 2, 2, parent=other))), Job(2, (other,))])
    with pytest.raises(TaskSetError, match="stale"):
        TaskSet([Job(1, (z(1, 1, 1), z(1, 2, 2, parent=z(1, 1, 1))))])
    # z3,3 names z3,1 as its parent, which closed when z3,2 started; the
    # search would give J1 4 with <z3,1>, where the oracle gives 5
    z11, z31 = z(1, 1, 3), z(3, 1, 1, duration=4)
    with pytest.raises(TaskSetError, match=r"z3,3: .*wait order.*z3,1"):
        TaskSet([
            Job(1, (z11, z(1, 2, 1, parent=z11))),
            Job(2, ()),
            Job(3, (z31, z(3, 2, 3, duration=5), z(3, 3, 2, parent=z31, duration=3))),
        ])


def test_duration_literals_and_resource_numbers_are_checked():
    from pipblock.taskset import as_duration

    with pytest.raises(ParseError):
        as_duration("1/0x")
    with pytest.raises(TaskSetError) as negative:
        as_duration("-1/2")
    assert type(negative.value) is TaskSetError
    with pytest.raises(TaskSetError, match="1-based"):
        parse_taskset("J1: [R0: 1]")


@st.composite
def coded_jobs(draw):
    """Jobs built in code: each section's parent is drawn from no parent
    and every earlier section of its job, so some are out of wait order."""
    jobs = []
    for j in range(1, draw(st.integers(1, 4)) + 1):
        sections: list[CriticalSection] = []
        for p in range(1, draw(st.integers(0, 4)) + 1):
            parent = draw(st.sampled_from([None, *sections]))
            resource, duration = draw(st.integers(1, 4)), draw(st.integers(1, 9))
            sections.append(CriticalSection(j, p, resource, duration, parent))
        jobs.append(Job(j, tuple(sections)))
    return jobs


def _in_wait_order(job: Job) -> bool:
    """Whether a depth-first walk of the job's nesting forest, children in
    position order, visits the sections in position order."""
    children: dict[int, list[int]] = {z.position: [] for z in job.sections}
    roots: list[int] = []
    for z in job.sections:
        (children[z.parent.position] if z.parent else roots).append(z.position)
    order: list[int] = []
    stack = roots[::-1]
    while stack:
        order.append(stack.pop())
        stack.extend(children[order[-1]][::-1])
    return order == sorted(order)


@settings(max_examples=150, deadline=None)
@given(jobs=coded_jobs())
def test_coded_sets_are_refused_or_in_wait_order(jobs):
    # A set built in code is refused unless it is in wait order without a
    # re-lock; an accepted set round-trips through the text format, and,
    # unless its resource order is cyclic, its search agrees with the
    # oracle.
    relocked = any(
        a.resource == z.resource
        for job in jobs
        for z in job.sections
        for a in z.ancestors()
    )
    if relocked or not all(_in_wait_order(job) for job in jobs):
        with pytest.raises(TaskSetError):
            TaskSet(jobs)
        return
    ts = TaskSet(jobs)
    assert parse_taskset(serialize_taskset(ts)) == ts
    if not check_deadlock_free(ts).acyclic:
        return
    for i in range(1, ts.n + 1):
        assert (
            blocking_time(ts, i).blocking_time
            == brute_force_blocking_time(ts, i).best_duration
        ), i


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_conflict_masks_match_pair_tests(seed):
    # The index builds conflict[m] from per-resource masks without testing
    # pairs; every pair (m, s) must agree with NBJ, NBR, FHO and FLO as
    # written on the rows.
    from pipblock.taskset import _compiled

    ts = random_taskset(seed, jobs=7, resources=6, sections_per_job=6, nesting_depth=4)
    index = _compiled(ts)
    rows = [s for job in index.sections for s in job]
    for m in rows:
        expected = 0
        for s in rows:
            if (
                s.z.job == m.z.job
                or s.bit == m.bit
                or (m.z.job < s.z.job and m.earlier & s.held)
                or (m.z.job > s.z.job and s.earlier & m.held)
            ):
                expected |= 1 << s.key
        assert index.conflict[m.key] == expected
