"""Golden full reports: the analysis document, the exact search result and
the blocking matrix of every job, pinned on fixed inputs.

The inputs are the conftest fixtures, ``random_taskset`` seeds 0-9 at
(8, 8, 4, 3), and two of those with every duration divided by 7.  Run
``PYTHONPATH=src python tests/test_reports.py`` to rewrite
``golden_reports.json`` from the current code.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import conftest
from pipblock import (
    analyze,
    blocking_scope,
    blocking_time,
    blocking_time_matrix,
    parse_taskset,
    per_job_bounds,
    random_taskset,
    serialize_taskset,
)

GOLDEN = Path(__file__).with_name("golden_reports.json")

FIXTURES = (
    "NESTED_FOUR_JOBS",
    "SIX_JOBS_DISJOINT",
    "TWO_RESOURCE_CROSS",
    "SIX_JOBS_NESTED",
    "DOUBLE_LOCK",
    "FIVE_JOBS_DEEP",
    "CROSS_NESTING",
)
SEEDS = range(10)
FRACTIONAL_SEEDS = (0, 7)


def _random(seed: int):
    return random_taskset(seed, jobs=8, resources=8, sections_per_job=4, nesting_depth=3)


def _inputs() -> dict:
    cases = {name: parse_taskset(getattr(conftest, name)) for name in FIXTURES}
    for seed in SEEDS:
        cases[f"random-{seed}"] = _random(seed)
    for seed in FRACTIONAL_SEEDS:
        text = re.sub(r"(R\d+: )(\d+)", r"\1\2/7", serialize_taskset(_random(seed)))
        cases[f"random-{seed}-sevenths"] = parse_taskset(text)
    return cases


def _report(ts) -> dict:
    doc = analyze(ts).to_dict()
    analyzed = doc.pop("jobs")
    acyclic = doc["deadlock_free"]
    jobs = []
    for i in range(1, ts.n + 1):
        scope = blocking_scope(ts, i)
        matrix = blocking_time_matrix(ts, scope.relevant_jobs, scope.relevant_resources)
        entry = analyzed[i - 1] if acyclic else {"job": i}
        entry.pop("wall_time_s", None)
        entry["matrix"] = [[str(c) for c in row] for row in matrix.rows]
        if acyclic:
            result = blocking_time(ts, i)
            entry["blocking_time"] = str(result.blocking_time)
            entry["search_witness"] = [z.label for z in result.witness]
            entry["search_nodes"] = [result.nodes_generated, result.nodes_expanded]
        jobs.append(entry)
    return {"deadlock": doc, "jobs": jobs}


def _write(reports: dict) -> None:
    """One line per job, so a changed value shows as a one-line diff."""
    cases = []
    for name, report in reports.items():
        jobs = ",\n  ".join(json.dumps(job) for job in report["jobs"])
        deadlock = json.dumps(report["deadlock"])
        cases.append(f'{json.dumps(name)}: {{"deadlock": {deadlock}, "jobs": [\n  {jobs}]}}')
    GOLDEN.write_text("{\n" + ",\n".join(cases) + "\n}\n")


CASES = _inputs()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_full_report_matches_golden(name, golden):
    assert _report(CASES[name]) == golden[name]


def test_analysis_builds_no_dense_matrix(golden, monkeypatch):
    # analyze and per_job_bounds pose the bound's kernel from the index
    # (hungarian_bound): with the dense matrix builder and its solver made
    # to raise, they still give the pinned documents and bounds.
    import pipblock.analysis
    import pipblock.bound

    def dense(*args, **kwargs):
        raise AssertionError("a dense blocking matrix was built")

    for module in (pipblock.analysis, pipblock.bound):
        monkeypatch.setattr(module, "blocking_time_matrix", dense)
        monkeypatch.setattr(module, "max_assignment", dense)
    search_only = ("matrix", "blocking_time", "search_witness", "search_nodes")
    for name, ts in CASES.items():
        doc = analyze(ts).to_dict()
        jobs = doc.pop("jobs")
        assert doc == golden[name]["deadlock"]
        if not doc["deadlock_free"]:
            continue
        for job in jobs:
            del job["wall_time_s"]
        pinned = [
            {k: v for k, v in job.items() if k not in search_only}
            for job in golden[name]["jobs"]
        ]
        assert jobs == pinned
        bounds = per_job_bounds(ts)
        assert {i: str(b) for i, b in bounds.items()} == {j["job"]: j["bound"] for j in pinned}


if __name__ == "__main__":
    _write({name: _report(ts) for name, ts in CASES.items()})
