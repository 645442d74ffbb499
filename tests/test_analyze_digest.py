"""The whole ``analyze`` document at benchmark sizes, pinned by one digest.

``golden_reports.json`` stops at 8-job sets and ``bench/golden/`` checks
only bounds, exact values and witnesses.  This digest covers every field
of ``analyze(ts, exact=...).to_dict()`` except ``wall_time_s`` (scopes,
matrices, assignment pairs, screen verdicts, search counts) on the inputs
of the three benchmark workloads: ``random_taskset`` seeds 0-4 at
(12, 12, 6, 3) and antidiagonal widths 1-7, exact, and seeds 0-1 at
(40, 40, 6, 3), bound only.  A change meant to leave every report
byte-identical must leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json

from pipblock import analyze, generate_antidiagonal_family, random_taskset


def _inputs():
    for s in range(5):
        yield random_taskset(s, jobs=12, resources=12, sections_per_job=6, nesting_depth=3), True
    for w in range(1, 8):
        yield generate_antidiagonal_family(w + 1, 1, 10, 1), True
    for s in range(2):
        yield random_taskset(s, jobs=40, resources=40, sections_per_job=6, nesting_depth=3), False


def test_analyze_documents_are_pinned():
    digest = hashlib.sha256()
    for ts, exact in _inputs():
        doc = analyze(ts, exact=exact).to_dict()
        for job in doc["jobs"]:
            del job["wall_time_s"]
        digest.update(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "ba8effa8347d05602987454a75ae3d62d305d06e057b9515dd662b0fd2f827ea"
    )
