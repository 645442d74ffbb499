"""Tests of the benchmark's own logic: the golden check, the span
arithmetic, the tail percentile and the seed variants.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import golden
import spans
import workloads
from pipblock import analyze, parse_taskset, random_taskset, serialize_taskset
from run import tail

# J1's worst blocking (11, witness z2,1 then z3,4) needs a job and two
# resources outside its direct sets.
NESTED = """\
J1: [R4:1]
J2: [R4:6 [R3:4 [R2:2]]]
J3: [R4:10] [R2:3 [R1:1]] [R3:5]
J4: [R1:2] [R2:4]
"""


def _report_and_golden():
    ts = parse_taskset(NESTED)
    doc = analyze(ts).to_dict()
    gold = {
        "sha256": golden.text_digest(NESTED),
        "jobs": [
            {key: j[key] for key in ("job", "bound", "exact", "witness")}
            for j in doc["jobs"]
        ],
    }
    return ts, doc, gold


def test_golden_check_accepts_the_reference_report():
    ts, doc, gold = _report_and_golden()
    assert doc["jobs"][0]["exact"] == "11"
    assert golden.report_failures(NESTED, ts, doc, gold) == {}
    assert golden.report_failures(NESTED, ts, doc, None) == {}


def test_golden_check_flags_perturbed_exact_value():
    ts, doc, gold = _report_and_golden()
    bad = copy.deepcopy(doc)
    bad["jobs"][0]["exact"] = "12"
    with_golden = golden.report_failures(NESTED, ts, bad, gold)
    assert list(with_golden) == [1]
    assert any("golden" in reason for reason in with_golden[1])
    # Without golden values the witness no longer lasts the reported value.
    assert list(golden.report_failures(NESTED, ts, bad, None)) == [1]


def test_golden_check_flags_perturbed_witness():
    ts, doc, gold = _report_and_golden()
    bad = copy.deepcopy(doc)
    # Same sections and duration, but z3,4 (on R3) cannot start the chain:
    # only R4 blocks J1 directly.
    bad["jobs"][0]["witness"] = ["z3,4", "z2,1"]
    with_golden = golden.report_failures(NESTED, ts, bad, gold)
    assert list(with_golden) == [1]
    assert any("golden" in reason for reason in with_golden[1])
    invariants = golden.report_failures(NESTED, ts, bad, None)
    assert list(invariants) == [1]
    assert any("witness fails" in reason for reason in invariants[1])


def test_golden_check_flags_a_changed_input():
    ts, doc, gold = _report_and_golden()
    other = NESTED.replace("[R4:1]", "[R4:2]")
    assert sorted(golden.report_failures(other, ts, doc, gold)) == [1, 2, 3, 4]


def _span(id, name, start, end, cpu, parent, info=None):
    return spans.Span(id, name, start, end, parent, thread=id, cpu=cpu, request=1, info=info)


def test_self_and_wait_on_overlapping_spans():
    request = _span(1, "request", 0.0, 10.0, 9.0, None)
    a = _span(2, "relevance.scope", 1.0, 4.0, 2.0, 1, info=(3, 4))
    b = _span(3, "bound.assign", 3.0, 6.0, 3.0, 1)  # overlaps a, other thread
    c = _span(4, "admissibility.screen", 8.0, 12.0, 1.0, 1, info=True)  # runs past the request
    nested = _span(5, "search.heuristic", 2.0, 3.5, 1.5, 2)  # inside a
    children = [a, b, c]
    # Covered: [1, 6] and [8, 10] -> 7 of the request's 10 s.
    assert spans.covered(0.0, 10.0, [(s.start, s.end) for s in children]) == 7.0
    assert spans.self_time(request, children) == 3.0
    assert spans.wait_time(children) == (3 - 2) + (3 - 3) + (4 - 1)
    metrics = spans.layer_metrics([request, a, b, c, nested])
    assert metrics["analysis.self_s"] == (3.0, "s")
    assert metrics["analysis.wait_s"] == (4.0, "s")
    assert metrics["search.heuristic_calls"] == (1, "count")


def test_tail_has_ten_samples_beyond_it():
    samples = [float(k) for k in range(1, 22)]
    random.Random(3).shuffle(samples)
    value, level = tail(samples)
    assert value == 11.0 and sum(s > value for s in samples) == 10
    assert level == 100.0 * 11 / 21


def test_seed_variant_scales_every_value_by_one_factor():
    text = serialize_taskset(random_taskset(4, jobs=6, resources=6))
    other = workloads.variant(text, random.Random(1))
    assert other != text
    base = analyze(parse_taskset(text)).to_dict()["jobs"]
    scaled = analyze(parse_taskset(other)).to_dict()["jobs"]
    ratios = {
        Fraction(s[key]) / Fraction(b[key])
        for b, s in zip(base, scaled)
        for key in ("bound", "exact")
        if Fraction(b[key])
    }
    assert len(ratios) == 1 and ratios.pop() in range(2, 10)


def test_seed_zero_is_the_baseline_suite():
    texts = workloads.generate("random-exact", 0)
    assert texts[7] == serialize_taskset(
        random_taskset(7, jobs=12, resources=12, sections_per_job=6, nesting_depth=3)
    )
