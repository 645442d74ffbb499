"""Golden text reports: stdout, stderr and exit code of the CLI's text
commands, pinned on fixed inputs.

The inputs are the conftest fixtures, ``random_taskset`` seeds 0-4 at
(8, 8, 4, 3), and seed 0 with every duration divided by 7.  Each input
runs every form in :data:`FORMS`.  Run
``PYTHONPATH=src python tests/test_text_reports.py`` to rewrite
``golden_text_reports.json`` from the current code.
"""

from __future__ import annotations

import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import conftest
from pipblock import random_taskset, serialize_taskset
from pipblock.cli import main

GOLDEN = Path(__file__).with_name("golden_text_reports.json")

FIXTURES = (
    "NESTED_FOUR_JOBS",
    "SIX_JOBS_DISJOINT",
    "TWO_RESOURCE_CROSS",
    "SIX_JOBS_NESTED",
    "DOUBLE_LOCK",
    "FIVE_JOBS_DEEP",
    "CROSS_NESTING",
)
SEEDS = range(5)

# Command forms, each run as ``pipblock <command> FILE <options>``.
FORMS = (
    ("analyze",),
    ("analyze", "--bound-only"),
    ("analyze", "--trace"),
    ("bound",),
    ("bound", "--job", "2"),
    ("blocking-time",),
    ("blocking-time", "--job", "1", "--trace"),
    ("check-deadlock",),
)


def _random(seed: int) -> str:
    ts = random_taskset(seed, jobs=8, resources=8, sections_per_job=4, nesting_depth=3)
    return serialize_taskset(ts)


def _inputs() -> dict[str, str]:
    cases = {name: getattr(conftest, name) for name in FIXTURES}
    for seed in SEEDS:
        cases[f"random-{seed}"] = _random(seed)
    cases["random-0-sevenths"] = re.sub(r"(R\d+: )(\d+)", r"\1\2/7", _random(0))
    return cases


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
    }


def _reports(text: str) -> dict:
    """Every form's output on the task set ``text``, keyed by the form."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "taskset.txt"
        path.write_text(text, encoding="utf-8")
        return {
            " ".join(form): _run([form[0], str(path), *form[1:]]) for form in FORMS
        }


def _write(reports: dict) -> None:
    """One line per command form, so a changed report shows as a one-line
    diff."""
    cases = []
    for name, forms in reports.items():
        runs = ",\n  ".join(f"{json.dumps(form)}: {json.dumps(run)}" for form, run in forms.items())
        cases.append(f"{json.dumps(name)}: {{\n  {runs}}}")
    GOLDEN.write_text("{\n" + ",\n".join(cases) + "\n}\n")


CASES = _inputs()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_text_reports_match_golden(name, golden):
    assert _reports(CASES[name]) == golden[name]


if __name__ == "__main__":
    _write({name: _reports(text) for name, text in CASES.items()})
