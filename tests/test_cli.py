import json

import pytest

from pipblock import parse_taskset
from pipblock.cli import main

from conftest import (
    CROSS_NESTING,
    FIVE_JOBS_DEEP,
    NESTED_FOUR_JOBS,
    SIX_JOBS_DISJOINT,
    SIX_JOBS_NESTED,
)


@pytest.fixture()
def nested_file(tmp_path):
    path = tmp_path / "nested.txt"
    path.write_text(NESTED_FOUR_JOBS)
    return str(path)


@pytest.fixture()
def cyclic_file(tmp_path):
    path = tmp_path / "cyclic.txt"
    path.write_text(CROSS_NESTING)
    return str(path)


def test_check_deadlock_acyclic(nested_file, capsys):
    assert main(["check-deadlock", nested_file]) == 0
    assert "acyclic" in capsys.readouterr().out


def test_check_deadlock_cyclic(cyclic_file, capsys):
    assert main(["check-deadlock", cyclic_file]) == 2
    assert "R1 -> R2 -> R1" in capsys.readouterr().out


def test_scope_prints_sets_and_trace(nested_file, capsys):
    assert main(["scope", nested_file, "--job", "1"]) == 0
    out = capsys.readouterr().out
    assert "direct resources:   {R4}" in out
    assert "relevant resources: {R1, R2, R3, R4}" in out
    assert "step 0: {R4}" in out
    assert "step 1: {R2, R3, R4}" in out
    assert "step 2: {R1, R2, R3, R4}" in out


def test_bound_text_and_json(tmp_path, capsys):
    path = tmp_path / "six.txt"
    path.write_text(SIX_JOBS_DISJOINT)
    assert main(["bound", str(path), "--job", "2"]) == 0
    out = capsys.readouterr().out
    assert "J2: bound 6" in out
    assert "(J3, R4), (J4, R2), (J5, R3)" in out

    assert main(["bound", str(path), "--job", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["bound"] == "6"
    assert doc[0]["assignment"] == [[3, 4], [4, 2], [5, 3]]


def test_bound_matrix_cells_are_exact_durations(tmp_path, capsys):
    # Both renderings print each matrix cell as its exact duration, the
    # same text as str() of the matrix's Fraction cells, repeated weights
    # and zero cells included.
    from pipblock import blocking_scope, blocking_time_matrix, parse_taskset

    text = "J1: [R1: 1/2] [R2: 1]\nJ2: [R1: 3/4] [R2: 1/6]\nJ3: [R2: 1/3 [R1: 3/4]]\nJ4: [R3: 2.5]\n"
    path = tmp_path / "fractional.txt"
    path.write_text(text)
    ts = parse_taskset(text)
    assert main(["bound", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["bound", str(path)]) == 0
    out = capsys.readouterr().out
    for entry in doc:
        scope = blocking_scope(ts, entry["job"])
        matrix = blocking_time_matrix(ts, scope.relevant_jobs, scope.relevant_resources)
        cells = [[str(c) for c in row] for row in matrix.rows]
        assert entry["matrix"] == cells
        for j, row in zip(matrix.jobs, cells):
            assert f"  J{j:<3} " + " ".join(f"{c:<5}" for c in row) + "\n" in out
    assert any("3/4" in row for entry in doc for row in entry["matrix"])


def test_bound_refuses_cyclic(cyclic_file, capsys):
    assert main(["bound", cyclic_file]) == 2
    assert "cyclic" in capsys.readouterr().err


def test_blocking_time_with_trace(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(FIVE_JOBS_DEEP)
    assert main(["blocking-time", str(path), "--job", "1", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "blocking time 26" in out
    assert "7 nodes generated" in out
    assert "f=33" in out
    assert out.splitlines() == [
        "J1: blocking time 26  witness <z2,1, z4,1, z3,1, z5,3>"
        "  (7 nodes generated, 4 expanded)",
        "  n0: chain=<> f=33 extensions: z2,1",
        "  n1: chain=<z2,1> f=26 extensions: z4,1, z5,3",
        "  n2: chain=<z2,1, z4,1> f=26 extensions: z3,1, z5,3",
        "  n4: chain=<z2,1, z4,1, z3,1> f=26 extensions: z5,3",
    ]

    assert main(["blocking-time", str(path), "--job", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["blocking_time"] == "26"
    assert set(doc[0]["witness"]) == {"z2,1", "z4,1", "z3,1", "z5,3"}


@pytest.mark.parametrize("command", ["analyze", "blocking-time"])
def test_json_with_trace_is_a_usage_error(command, nested_file, capsys):
    assert main([command, nested_file, "--json", "--trace"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--json" in captured.err and "--trace" in captured.err


def test_check_chain(nested_file, capsys):
    assert main(
        ["check-chain", nested_file, "--job", "1", "--chain", "z2,1 z3,2 z4,1"]
    ) == 0
    assert "admissible, duration 11" in capsys.readouterr().out
    assert main(
        ["check-chain", nested_file, "--job", "1", "--chain", "z4,2 z3,4 z2,1"]
    ) == 0
    assert "z4,2 fails LSM" in capsys.readouterr().out


def test_oracle_command(nested_file, capsys):
    assert main(["oracle", nested_file, "--job", "1"]) == 0
    out = capsys.readouterr().out
    assert "best duration: 11" in out
    assert "uninformed space 60" in out


def test_oracle_limit_exit_code(nested_file, capsys):
    assert main(["oracle", nested_file, "--job", "1", "--limit", "2"]) == 3
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_oracle_limit_below_one_is_a_usage_error(nested_file, limit, capsys):
    # exit 3 is for a space over a valid limit; a limit below 1 is a usage
    # error, refused before the file is enumerated
    assert main(["oracle", nested_file, "--job", "1", "--limit", limit]) == 1
    err = capsys.readouterr().err
    assert f"Invalid value for '--limit': {limit} is not in the range x>=1." in err
    assert "exceeds the limit" not in err


def test_gen_antidiagonal_round_trips(capsys):
    assert main(
        ["gen", "antidiagonal", "--n", "3", "--i", "1", "--delta", "10",
         "--epsilon", "1"]
    ) == 0
    ts = parse_taskset(capsys.readouterr().out)
    assert ts.n == 3
    assert main(
        ["gen", "antidiagonal", "--n", "3", "--i", "1", "--delta", "1",
         "--epsilon", "10"]
    ) == 1


def test_gen_random_round_trips(capsys):
    assert main(["gen", "random", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    parse_taskset(first)


def test_analyze_text_report(tmp_path, capsys):
    path = tmp_path / "six_nested.txt"
    path.write_text(SIX_JOBS_NESTED)
    assert main(["analyze", str(path), "--job", "2"]) == 0
    out = capsys.readouterr().out
    assert "bound:    12" in out
    assert "quick check: pass" in out
    assert "exact:    12  [quick check]" in out


def test_analyze_json_matches_text_values(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(FIVE_JOBS_DEEP)
    assert main(["analyze", str(path), "--job", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    entry = doc["jobs"][0]
    assert doc["deadlock_free"] is True
    assert entry["bound"] == "33"
    assert entry["quick_check"] is False
    assert entry["exact"] == "26"
    assert entry["searched"] is True

    assert main(["analyze", str(path), "--job", "1"]) == 0
    out = capsys.readouterr().out
    assert "bound:    33" in out
    assert "exact:    26" in out


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    plain = tmp_path / "deep.txt"
    plain.write_text(FIVE_JOBS_DEEP, encoding="utf-8")
    marked = tmp_path / "deep_bom.txt"
    marked.write_text(FIVE_JOBS_DEEP, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["bound", str(plain), "--json"]) == 0
    expected = capsys.readouterr().out
    assert main(["bound", str(marked), "--json"]) == 0
    assert capsys.readouterr().out == expected
    assert main(["analyze", str(marked), "--job", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["jobs"][0]["exact"] == "26"


def test_analyze_bound_only(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(FIVE_JOBS_DEEP)
    assert main(["analyze", str(path), "--job", "1", "--bound-only"]) == 0
    out = capsys.readouterr().out
    assert "exact:    not computed (bound only)" in out


def test_analyze_cyclic_reports_infinite(cyclic_file, capsys):
    assert main(["analyze", cyclic_file]) == 2
    out = capsys.readouterr().out
    assert "blocking time: infinite" in out
    assert "R1 -> R2 -> R1" in out


def test_usage_and_parse_errors(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    assert main(["analyze", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["bound", str(tmp_path / "missing.txt")]) == 1


def test_nesting_error_names_both_sections(tmp_path, capsys):
    # A resource locked again inside its own section is rejected when the
    # task set is built, with the enclosing and the nested section named.
    bad = tmp_path / "renested.txt"
    bad.write_text("J1: [R1: 1]\nJ2: [R2: 3 [R3: 2 [R2: 1]]]\n")
    assert main(["analyze", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "error: R2 locked again inside its own section (z2,1 contains z2,3)\n"
    )


def test_job_index_out_of_range(nested_file, capsys):
    assert main(["scope", nested_file, "--job", "99"]) == 1
    assert "out of range" in capsys.readouterr().err
    assert main(["blocking-time", nested_file, "--job", "0"]) == 1
    assert main(["analyze", nested_file, "--job", "99"]) == 1


def test_analyze_trace_dumps_expansions(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(FIVE_JOBS_DEEP)
    assert main(["analyze", str(path), "--job", "1", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "search trace for J1" in out
    assert "f=33" in out


def test_analyze_trace_reuses_the_report_search(tmp_path, capsys, monkeypatch):
    import pipblock.cli

    def no_second_search(*args, **kwargs):
        raise AssertionError("analyze --trace reran the search")

    monkeypatch.setattr(pipblock.cli, "blocking_time", no_second_search)
    path = tmp_path / "deep.txt"
    path.write_text(FIVE_JOBS_DEEP)
    assert main(["analyze", str(path), "--job", "1", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "search trace for J1" in out
    assert "n0: chain=<> f=33 extensions: z2,1" in out


def test_resource_zero_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "r0.txt"
    bad.write_text("J1: [R0: 1]\n")
    assert main(["analyze", str(bad)]) == 1
    assert "1-based" in capsys.readouterr().err


def test_check_chain_names_the_conflicting_pair(nested_file, capsys):
    # z2,1 and z3,1 both lock R4: an inadmissible chain is a verdict, not
    # an error, so the exit status is 0
    assert main(["check-chain", nested_file, "--job", "1", "--chain", "z2,1 z3,1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "inadmissible: z3,1 fails NBR",
        "  conflicting sections: z2,1, z3,1",
    ]


def test_check_chain_target_out_of_range(nested_file, capsys):
    assert main(["check-chain", nested_file, "--job", "9", "--chain", "z2,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: target job index 9 out of range 1..4\n"


@pytest.mark.parametrize("command", ["analyze", "blocking-time", "bound"])
def test_json_output_is_the_indent_2_layout(command, tmp_path, capsys):
    # The JSON documents are laid out without json.dumps(indent=2), whose
    # pure-Python encoder dominated `bound --json` on large sets; the text
    # must still be exactly what json.dumps(doc, indent=2) prints, empty
    # lists, nested matrices and escaped strings included.
    from pipblock import random_taskset, serialize_taskset

    texts = [FIVE_JOBS_DEEP, SIX_JOBS_NESTED, "J1: [R1: 1]\nJ2: [R2: 3]\n"]
    texts += [serialize_taskset(random_taskset(s, jobs=7, resources=6)) for s in range(3)]
    for k, text in enumerate(texts):
        path = tmp_path / f"set{k}.txt"
        path.write_text(text)
        assert main([command, str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_indented_json_matches_the_standard_layout():
    from pipblock.cli import _indented_json

    docs = [
        [], {}, [[]], [{}], {"a": []}, "é\n\"", 3, None,
        [1, "x", None, True, 2.5],
        {"k": [[1, 2], [3]], "s": "é\n\"", "n": None, "e": {}},
        [{"job": 1, "rows": [], "matrix": [[]], "assignment": [[1, 2]]}],
        [[[1]], [[3, 4], []]],
    ]
    for doc in docs:
        assert _indented_json(doc) == json.dumps(doc, indent=2)


_CYCLIC = "error: resource acquisition order is cyclic: R1 -> R2 -> R1"
_ROWS = {  # case: (file text, --job)
    "job out of range": (NESTED_FOUR_JOBS, "99"),
    "job out of range, cyclic set": (CROSS_NESTING, "99"),
    "cyclic set": (CROSS_NESTING, "1"),
    "malformed file": ("J1: [R1: 3", "1"),
    "no jobs": ("# nothing here\n", "1"),
    "bad duration": ("J1: [R1: 1/0]", "1"),
    "resource zero": ("J1: [R0: 1]", "1"),
}
_PARSE_ERRORS = {  # case: first line of stderr, for every subcommand
    "malformed file": "error: line 1: unbalanced brackets",
    "no jobs": "error: no jobs found",
    "bad duration": "error: line 1: bad duration '1/0'",
    "resource zero": "error: line 1: job, position and resource indices are 1-based (got z1,1 on R0)",
}
# (command, case) -> (exit code, first line of stderr, first line of stdout).
# check-deadlock takes no --job, so it has no job rows.
_INPUT_RULES = {
    **{
        (command, case): expected
        for command in ("analyze", "bound", "blocking-time", "scope", "check-chain", "oracle")
        for case, expected in {
            "job out of range": (1, "error: target job index 99 out of range 1..4", ""),
            "job out of range, cyclic set": (1, "error: target job index 99 out of range 1..2", ""),
            "cyclic set": (2, _CYCLIC, ""),
        }.items()
    },
    **{
        (command, case): (1, err, "")
        for command in (
            "analyze", "bound", "blocking-time", "scope", "check-chain", "oracle", "check-deadlock"
        )
        for case, err in _PARSE_ERRORS.items()
    },
    ("analyze", "cyclic set"): (2, "", "deadlock risk: resource order is cyclic"),
    ("check-deadlock", "cyclic set"): (2, "", "cyclic: R1 -> R2 -> R1"),
}


@pytest.mark.parametrize(("command", "case"), list(_INPUT_RULES))
def test_input_rules(command, case, tmp_path, capsys):
    # One rule per input problem for every subcommand that reads a file
    # (the cli module docstring): the job index is checked before anything
    # else, then a cyclic set is refused with exit 2, except by analyze and
    # check-deadlock, whose reports name the cycle.
    text, job = _ROWS[case]
    path = tmp_path / "input.txt"
    path.write_text(text)
    argv = [command, str(path)]
    if command != "check-deadlock":
        argv += ["--job", job]
    if command == "check-chain":
        argv += ["--chain", "z2,1"]
    code = main(argv)
    captured = capsys.readouterr()
    err, out = (s.splitlines()[0] if s else "" for s in (captured.err, captured.out))
    assert (code, err, out) == _INPUT_RULES[command, case]
