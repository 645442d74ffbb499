"""Benchmark inputs: task-set texts made from a workload name and a seed.

Seed 0 reproduces the task sets behind the ROADMAP baselines exactly
(``random_taskset`` seeds 0..19 at 12 jobs, 12 resources, 6 sections and
depth 3; antidiagonal widths with delta 10 and epsilon 1).  Any other seed
relabels the resources of every task set by a seeded permutation and scales
every duration by a seeded integer factor.  That gives new texts, new
matrices and new tie-breaks, but each variant is isomorphic to its seed-0
task set, so the work per pass stays comparable between seeds.  Fresh
random draws would not: the time of a 20-set pass of ``random-exact`` spreads
by 63% (quartile distance over median) across blocks of generator seeds,
far beyond any regression bound the benchmark could enforce.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from pipblock import generate_antidiagonal_family, random_taskset, serialize_taskset
from pipblock.taskset import TaskSet


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its seed-0 task sets and how they run.

    ``exact`` selects ``analyze(ts, exact=...)``.  A run of 25 s makes
    ``passes`` whole passes over the inputs, and proportionally more or
    fewer for other lengths: a count of work, not of time, so that the
    number of samples, and with it the tail percentile, is the same on
    every commit.  Each task set contributes one latency per pass, so the
    tail sample (the 11th largest) falls among one task set's repeats;
    ``passes`` is chosen to put it at their median rather than at their
    noisiest extreme.
    """

    make: Callable[[], list[TaskSet]]
    exact: bool
    passes: int

    def passes_for(self, seconds: float) -> int:
        return max(2, round(self.passes * seconds / 25))


def _random_exact() -> list[TaskSet]:
    return [
        random_taskset(s, jobs=12, resources=12, sections_per_job=6, nesting_depth=3)
        for s in range(20)
    ]


def _antidiagonal() -> list[TaskSet]:
    return [generate_antidiagonal_family(w + 1, 1, 10, 1) for w in range(1, 8)]


def _bound_large() -> list[TaskSet]:
    return [
        random_taskset(s, jobs=40, resources=40, sections_per_job=6, nesting_depth=3)
        for s in range(10)
    ]


WORKLOADS: dict[str, Workload] = {
    # Realistic nesting; ~60% of jobs certified by the screen, the rest
    # searched, with most search time in the per-node assignment heuristic.
    "random-exact": Workload(_random_exact, exact=True, passes=3),
    # Loose bound, no nesting: search grows exponentially with the width,
    # so node counts and successor bookkeeping dominate.
    "antidiagonal": Workload(_antidiagonal, exact=True, passes=7),
    # The --bound-only path on large sets: a few wide top-level assignments
    # with the lex-min tie-break; search never runs.
    "bound-large": Workload(_bound_large, exact=False, passes=7),
}

_SECTION_HEAD = re.compile(r"\[R(\d+):\s*([^\s\[\]]+)")


def variant(text: str, rng: random.Random) -> str:
    """Relabel the resources of ``text`` by a random permutation and scale
    every duration by a random integer factor from 2 to 9."""
    ids = sorted({int(m[1]) for m in _SECTION_HEAD.finditer(text)})
    shuffled = ids[:]
    rng.shuffle(shuffled)
    relabel = dict(zip(ids, shuffled))
    factor = rng.randint(2, 9)
    return _SECTION_HEAD.sub(
        lambda m: f"[R{relabel[int(m[1])]}: {Fraction(m[2]) * factor}", text
    )


def generate(name: str, seed: int) -> list[str]:
    """The request texts of workload ``name`` for ``seed``."""
    texts = [serialize_taskset(ts) for ts in WORKLOADS[name].make()]
    if seed == 0:
        return texts
    rng = random.Random(seed)
    return [variant(text, rng) for text in texts]
