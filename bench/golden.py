"""Golden results and the per-job correctness check of the benchmark.

The golden file of a workload holds, for each task set of seed 0, every
job's bound, exact value and witness labels.  Exact values come from the
brute-force oracle, which enumerates chains on its own and shares no code
with the search; bounds and witness labels come from the analysis at the
first baseline.  Where the oracle cannot run (``bound-large``: 40 jobs,
bound-only mode), the only exact values are those the quick screen
certifies, and the check proves each one through its witness: an
admissible chain whose duration equals the bound.

Regenerate with ``python3 bench/golden.py`` from the repository root.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pipblock import (
    analyze,
    brute_force_blocking_time,
    chain_duration,
    is_admissible_chain,
    parse_chain,
    parse_taskset,
)
from pipblock.taskset import TaskSet

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Far above the uninformed space of any job in the exact workloads (about
# 7^11 for random-exact); the oracle enumerates only admissible chains.
ORACLE_LIMIT = 10**12


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load(workload: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{workload}.json").read_text())


def job_failures(ts: TaskSet, job: dict, golden: dict | None) -> list[str]:
    """Reasons the JSON report entry ``job`` is wrong; empty when it is right.

    ``golden`` is the job's golden entry, or ``None`` on seeds without
    golden results, where only the invariants are checked.
    """
    failures = []
    bound = Fraction(job["bound"])
    exact = None if job["exact"] is None else Fraction(job["exact"])
    if golden is not None:
        if job["exact"] != golden["exact"]:
            failures.append(f"exact {job['exact']} != golden {golden['exact']}")
        if job["bound"] != golden["bound"]:
            failures.append(f"bound {job['bound']} != golden {golden['bound']}")
        if job["witness"] != golden["witness"]:
            failures.append(f"witness {job['witness']} != golden {golden['witness']}")
    if exact is not None:
        if exact > bound:
            failures.append(f"exact {exact} > bound {bound}")
        if job["witness"] is None:
            failures.append("exact value without a witness")
        else:
            witness = parse_chain(ts, " ".join(job["witness"]))
            verdict = is_admissible_chain(ts, job["job"], witness)
            if not verdict.admissible:
                failures.append(f"witness fails {verdict.failed_condition}")
            if chain_duration(witness) != exact:
                failures.append(f"witness lasts {chain_duration(witness)}, not {exact}")
    return failures


def report_failures(
    text: str, ts: TaskSet, doc: dict, golden: dict | None
) -> dict[int, list[str]]:
    """Failures per job of the JSON report ``doc`` for the request ``text``.

    ``golden`` is the task set's golden entry or ``None``.  A report that
    lacks a job, or has one too many, fails for that job; every job fails
    when ``text`` is not the input the golden entry was made from.
    """
    jobs = {j["job"]: j for j in doc["jobs"]}
    expected = range(1, ts.n + 1)
    if golden is not None and golden["sha256"] != text_digest(text):
        return {i: ["input differs from the golden input"] for i in expected}
    out = {}
    for i in expected:
        if i not in jobs:
            out[i] = ["missing from the report"]
            continue
        reasons = job_failures(ts, jobs[i], None if golden is None else golden["jobs"][i - 1])
        if reasons:
            out[i] = reasons
    for i in jobs.keys() - set(expected):
        out[i] = ["not a job of the task set"]
    return out


def make(workload: str, texts: list[str], exact: bool) -> dict:
    """Golden entries for ``texts``: oracle exact values where the workload
    searches, the analysis' bounds, exact values and witness labels."""
    sets = []
    for text in texts:
        ts = parse_taskset(text)
        doc = analyze(ts, exact=exact).to_dict()
        jobs = []
        for j in doc["jobs"]:
            entry = {"job": j["job"], "bound": j["bound"], "exact": j["exact"], "witness": j["witness"]}
            if exact:
                oracle = brute_force_blocking_time(ts, j["job"], limit=ORACLE_LIMIT)
                if str(oracle.best_duration) != j["exact"]:
                    raise SystemExit(
                        f"{workload}: J{j['job']}: search gives {j['exact']}, "
                        f"oracle gives {oracle.best_duration}"
                    )
                entry["exact"] = str(oracle.best_duration)
            jobs.append(entry)
        sets.append({"sha256": text_digest(text), "jobs": jobs})
    return {
        "workload": workload,
        "seed": 0,
        "exact_source": "oracle" if exact else "screen witness",
        "tasksets": sets,
    }


def dump(golden: dict) -> str:
    """JSON text of a golden file, one job per line."""
    head = json.dumps({k: v for k, v in golden.items() if k != "tasksets"})
    sets = ",\n".join(
        f' {{"sha256": "{s["sha256"]}", "jobs": [\n'
        + ",\n".join("  " + json.dumps(job) for job in s["jobs"])
        + "\n ]}"
        for s in golden["tasksets"]
    )
    return head[:-1] + ', "tasksets": [\n' + sets + "\n]}\n"


def main() -> None:
    import workloads

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, spec in workloads.WORKLOADS.items():
        golden = make(name, workloads.generate(name, 0), spec.exact)
        (GOLDEN_DIR / f"{name}.json").write_text(dump(golden))
        print(f"{name}: {sum(len(s['jobs']) for s in golden['tasksets'])} jobs", file=sys.stderr)


if __name__ == "__main__":
    main()
