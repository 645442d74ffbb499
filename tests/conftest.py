"""Shared fixtures and helpers: the small task sets used across the
suite, the generated shapes the search properties run over, and a
reference fixpoint written from the index-free definitions.  Test
modules import helpers from here only, never from one another."""

from __future__ import annotations

import random
import re
import warnings

import pytest
from hypothesis import strategies as st

from pipblock import (
    TaskSet,
    ZeroDurationWarning,
    is_maximal,
    parse_taskset,
    random_taskset,
    serialize_taskset,
)
from pipblock.definitions import direct, induced


def random_order_fixpoint(ts: TaskSet, i: int, rng) -> frozenset[int]:
    """Job ``i``'s relevant resources from the definitions: grow the direct
    set by the set one maximal lower-job section induces, picked uniformly
    among all non-empty ones, until none is left (the least fixpoint does
    not depend on the pick order)."""
    scope = direct(ts, i)
    while True:
        found = [
            fresh
            for job in ts.jobs[i:]
            for z in job.sections
            if is_maximal(z, scope) and (fresh := induced(ts, i, z, scope))
        ]
        if not found:
            return scope
        scope |= rng.choice(found)


def shaped(shape: str, seed: int) -> TaskSet:
    """A small task set of one of the shapes the pruning argument has to
    survive: plain random nesting; deep transitive nesting (job j nests
    R(j+1) inside R(j) and further, so each job's section induces the
    next resource); twin sections tied in length; zero durations."""
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
