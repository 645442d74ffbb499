"""Shared fixtures: the small task sets used across the suite, and a
reference fixpoint written from the public definitions."""

from __future__ import annotations

import warnings

import pytest

from pipblock import (
    TaskSet,
    ZeroDurationWarning,
    direct_blocking_resources,
    induced_set,
    is_maximal,
    parse_taskset,
)


def random_order_fixpoint(ts: TaskSet, i: int, rng) -> frozenset[int]:
    """Job ``i``'s relevant resources from the definitions: grow the direct
    set by the set one maximal lower-job section induces, picked uniformly
    among all non-empty ones, until none is left (the least fixpoint does
    not depend on the pick order)."""
    scope = direct_blocking_resources(ts, i)
    while True:
        found = [
            induced
            for job in ts.jobs[i:]
            for z in job.sections
            if is_maximal(z, scope) and (induced := induced_set(ts, i, z, scope))
        ]
        if not found:
            return scope
        scope |= rng.choice(found)


# Four jobs, four resources, nesting three levels deep in J2.  The worst
# blocking of J1 (11) needs a job and two resources outside its direct sets.
NESTED_FOUR_JOBS = """\
J1: [R4:1]
J2: [R4:6 [R3:4 [R2:2]]]
J3: [R4:10] [R2:3 [R1:1]] [R3:5]
J4: [R1:2] [R2:4]
"""

# Six jobs, all sections disjoint; every bound is attainable.
SIX_JOBS_DISJOINT = """\
J1: [R2:1]
J2: [R4:1] [R3:1] [R4:1]
J3: [R4:3] [R3:2]
J4: [R2:1] [R1:1] [R2:1]
J5: [R3:1] [R2:1] [R3:2]
J6: [R1:2]
"""

# Two resources accessed in opposite order by J1's blockers; the bound 6
# corresponds to an unreachable allocation.
TWO_RESOURCE_CROSS = """\
J1: [R1:4] [R2:5]
J2: [R2:4] [R1:3]
J3: [R1:1] [R2:3]
J4: [R2:1]
"""

# Six jobs with one nested section per blocker; bound and exact agree and
# the quick screen certifies it.
SIX_JOBS_NESTED = """\
J1: [R2:1]
J2: [R4:3 [R3:1]]
J3: [R4:3] [R3:2]
J4: [R2:3 [R1:1]]
J5: [R3:4 [R2:1]]
J6: [R1:2]
"""

# J2 locks R2 twice at equal length; the leftmost-section screen picks the
# wrong one, so the (attainable) bound is certified only by the search.
DOUBLE_LOCK = """\
J1: [R2:1]
J2: [R2:2] [R2:2 [R1:1]]
J3: [R1:2]
"""

# Five jobs, five resources, deep nesting; the worked search example.
FIVE_JOBS_DEEP = """\
J1: [R4:1]
J2: [R4:6 [R3:4 [R2:2]]]
J3: [R1:5] [R5:13 [R4:10]]
J4: [R3:3 [R1:1]] [R5:1] [R4:12 [R2:9]]
J5: [R1:4] [R5:13 [R2:12]] [R1:7]
"""

# J2 locks R1 for 0, twice for 5 and once for 2 between them; J3 locks R2
# only for 0 and never locks R3.  The cell (J2, R1) is the leftmost of the
# tied sections, z2,2, and the cell (J3, R2) is z3,1, lasting 0.
TIE_AND_ZERO = """\
J1: [R1:1] [R2:1] [R3:1]
J2: [R1:0] [R1:5] [R1:2] [R1:5]
J3: [R2:0]
"""

# Two jobs nesting the same two resources in opposite orders: cyclic.
CROSS_NESTING = """\
J1: [R1:1 [R2:1]]
J2: [R2:1 [R1:1]]
"""


@pytest.fixture(scope="session")
def nested_four_jobs() -> TaskSet:
    return parse_taskset(NESTED_FOUR_JOBS)


@pytest.fixture(scope="session")
def six_jobs_disjoint() -> TaskSet:
    return parse_taskset(SIX_JOBS_DISJOINT)


@pytest.fixture(scope="session")
def two_resource_cross() -> TaskSet:
    return parse_taskset(TWO_RESOURCE_CROSS)


@pytest.fixture(scope="session")
def six_jobs_nested() -> TaskSet:
    return parse_taskset(SIX_JOBS_NESTED)


@pytest.fixture(scope="session")
def double_lock() -> TaskSet:
    return parse_taskset(DOUBLE_LOCK)


@pytest.fixture(scope="session")
def five_jobs_deep() -> TaskSet:
    return parse_taskset(FIVE_JOBS_DEEP)


@pytest.fixture(scope="session")
def cross_nesting() -> TaskSet:
    return parse_taskset(CROSS_NESTING)


@pytest.fixture(scope="session")
def tie_and_zero() -> TaskSet:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroDurationWarning)
        return parse_taskset(TIE_AND_ZERO)
