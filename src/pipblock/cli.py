"""Command-line front end.

Subcommands follow the analysis pipeline: ``check-deadlock``, ``scope``,
``bound``, ``blocking-time``, ``check-chain``, ``oracle``, the fixture
generators under ``gen``, and the all-in-one ``analyze``.

``analyze``, ``bound`` and ``blocking-time`` build the document that
``--json`` prints first, and render their text from it, so the two forms
carry the same values.  ``--trace`` runs the searches traced and appends
their expansion log, read from the search results, to the text of
``analyze`` and ``blocking-time``; the JSON documents have no place for
it, so ``--json --trace`` is a usage error rather than a silent drop.
``bound`` builds the dense blocking-time matrix only to print it; its
bounds and assignments, like those of ``analyze``, come from the sparse
kernel (:mod:`~pipblock.bound`).

Every subcommand that reads a file keeps the same input rules, in this
order (:func:`_load_checked`; ``analyze`` through
:func:`~pipblock.analysis.analyze`, which checks the job index with the
same :func:`~pipblock.analysis._targets`):

- a malformed file, or one without jobs, is an input error;
- ``--job`` outside ``1..n`` is an input error, ``error: target job
  index N out of range 1..n``, whatever else the set holds;
- a cyclic resource order refuses the set with ``error: resource
  acquisition order is cyclic: ...``, except in ``check-deadlock`` and
  ``analyze``, whose reports print the witness cycle on stdout.

Exit codes: 0 ok, 1 usage or input problem, 2 cyclic resource order,
3 oracle limit exceeded.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import click

from .admissibility import is_admissible_chain
from .analysis import _bound_stage, _fmt_jobs, _fmt_pairs, _fmt_resources, _targets
from .analysis import analyze, render_report
from .bound import BlockingMatrix, blocking_time_matrix
from .deadlock import CyclicResourceOrderError, check_deadlock_free, require_acyclic
from .oracle import (
    OracleLimitError,
    brute_force_blocking_time,
    generate_antidiagonal_family,
    random_taskset,
)
from .relevance import blocking_scope, fixpoint_trace
from .search import ExpansionRecord, blocking_time
from .taskset import (
    TaskSet,
    TaskSetError,
    chain_duration,
    format_chain,
    parse_chain,
    parse_taskset,
    serialize_taskset,
)

__all__ = ["cli", "main"]


def _load(path: str) -> TaskSet:
    return parse_taskset(Path(path).read_text(encoding="utf-8-sig"))


def _load_checked(path: str, job: int | None) -> tuple[TaskSet, list[int]]:
    """The task set in ``path`` and its target jobs (:func:`_targets`),
    after the module docstring's input rules: the job index is checked
    first, then a cyclic set is refused."""
    ts = _load(path)
    targets = _targets(ts, job)
    require_acyclic(ts)
    return ts, targets


@click.group()
def cli() -> None:
    """Blocking-time analysis under basic priority inheritance."""


@cli.command("analyze")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--job", type=int, default=None, help="Analyze a single job.")
@click.option("--bound-only", is_flag=True, help="Skip the exact search.")
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON report.")
@click.option("--trace", is_flag=True, help="Dump search expansions.")
@click.pass_context
def cmd_analyze(ctx, file, job, bound_only, as_json, trace) -> None:
    """Deadlock check, bound, quick screen and (by default) exact search."""
    _refuse_json_trace(as_json, trace)
    ts = _load(file)
    report = analyze(ts, job=job, exact=not bound_only, trace=trace)
    if as_json:
        click.echo(_indented_json(report.to_dict()))
    else:
        click.echo(render_report(report))
        if trace:
            for a in report.jobs:
                if a.search is not None:
                    click.echo(f"  search trace for J{a.job}:")
                    _echo_expansions(a.search.expansions, "    ")
    if not report.deadlock.acyclic:
        ctx.exit(2)


def _indented_json(value: object, pad: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for documents
    whose lists hold only scalars or only containers (the first item
    decides).  With ``indent`` set, ``json.dumps`` takes the pure-Python
    encoder for the whole document; here each list of scalars goes
    through the C encoder in one call, its items separated by a comma, a
    newline and the padding, and only the containers around such lists
    are laid out in Python."""
    inner = pad + "  "
    gap = ",\n" + inner
    if isinstance(value, dict) and value:
        body = gap.join(f"{json.dumps(k)}: {_indented_json(v, inner)}" for k, v in value.items())
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        if isinstance(value[0], (dict, list, tuple)):
            body = gap.join(_indented_json(v, inner) for v in value)
        else:
            body = json.dumps(value, separators=(gap, ": "))[1:-1]
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(value)


def _refuse_json_trace(as_json: bool, trace: bool) -> None:
    if as_json and trace:
        raise click.UsageError("--json and --trace cannot be combined")


def _echo_expansions(records: Iterable[ExpansionRecord], indent: str) -> None:
    for record in records:
        chain = format_chain(record.chain)
        ext = ", ".join(record.extensions) if record.extensions else "none"
        note = " (re-marked as leaf)" if record.releafed else ""
        click.echo(
            f"{indent}n{record.seq}: chain={chain} f={record.estimate} "
            f"extensions: {ext}{note}"
        )


@cli.command("check-deadlock")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def cmd_check_deadlock(ctx, file) -> None:
    """Verify that nesting orders resources acyclically (exit 2 if not)."""
    verdict = check_deadlock_free(_load(file))
    if verdict.acyclic:
        click.echo("acyclic: no deadlock risk")
    else:
        assert verdict.cycle is not None
        pretty = " -> ".join(f"R{r}" for r in verdict.cycle)
        click.echo(f"cyclic: {pretty}")
        ctx.exit(2)


@cli.command("scope")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--job", type=int, required=True)
def cmd_scope(file, job) -> None:
    """Print the direct and relevant blocking sets with the fixpoint trace."""
    ts, _ = _load_checked(file, job)
    scope = blocking_scope(ts, job)
    click.echo(f"direct resources:   {_fmt_resources(scope.direct_resources)}")
    click.echo(f"direct jobs:        {_fmt_jobs(scope.direct_jobs)}")
    click.echo(f"relevant resources: {_fmt_resources(scope.relevant_resources)}")
    click.echo(f"relevant jobs:      {_fmt_jobs(scope.relevant_jobs)}")
    click.echo("fixpoint trace:")
    for step, iterate in enumerate(fixpoint_trace(ts, job)):
        click.echo(f"  step {step}: {_fmt_resources(iterate)}")


@cli.command("bound")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--job", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
def cmd_bound(file, job, as_json) -> None:
    """Blocking-time matrix, bound and realizing assignment per job."""
    ts, targets = _load_checked(file, job)
    doc = []
    for i in targets:
        scope, assignment = _bound_stage(ts, i)
        matrix = blocking_time_matrix(ts, scope.relevant_jobs, scope.relevant_resources)
        doc.append({
            "job": i,
            "rows": [str(j) for j in matrix.jobs],
            "cols": [f"R{r}" for r in matrix.resources],
            "matrix": _cells(matrix),
            "bound": str(assignment.value),
            "assignment": [[j, r] for j, r in assignment.pairs],
        })
    if as_json:
        click.echo(_indented_json(doc))
        return
    for entry in doc:
        click.echo(f"J{entry['job']}: bound {entry['bound']}")
        if entry["rows"]:
            click.echo("      " + " ".join(f"{r:<5}" for r in entry["cols"]))
            for j, row in zip(entry["rows"], entry["matrix"]):
                click.echo(f"  J{j:<3} " + " ".join(f"{c:<5}" for c in row))
        click.echo(f"  assignment: {_fmt_pairs(entry['assignment'])}")


def _cells(matrix: BlockingMatrix) -> list[list[str]]:
    """The matrix's cells as exact durations in text; each distinct
    weight is formatted once."""
    text = {w: str(Fraction(w, matrix.scale)) for w in set().union(*matrix.weights)}
    return [list(map(text.__getitem__, row)) for row in matrix.weights]


@cli.command("blocking-time")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--job", type=int, default=None)
@click.option("--trace", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_blocking_time(file, job, trace, as_json) -> None:
    """Exact worst-case blocking time with witness chain."""
    _refuse_json_trace(as_json, trace)
    ts, targets = _load_checked(file, job)
    results = [blocking_time(ts, i, trace=trace) for i in targets]
    doc = [
        {
            "job": i,
            "blocking_time": str(res.blocking_time),
            "witness": [z.label for z in res.witness],
            "nodes_generated": res.nodes_generated,
            "nodes_expanded": res.nodes_expanded,
        }
        for i, res in zip(targets, results)
    ]
    if as_json:
        click.echo(_indented_json(doc))
        return
    for entry, res in zip(doc, results):
        click.echo(
            f"J{entry['job']}: blocking time {entry['blocking_time']}  "
            f"witness <{', '.join(entry['witness'])}>  "
            f"({entry['nodes_generated']} nodes generated, "
            f"{entry['nodes_expanded']} expanded)"
        )
        if trace:
            _echo_expansions(res.expansions, "  ")


@cli.command("check-chain")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--job", type=int, required=True)
@click.option("--chain", "chain_text", required=True, help='e.g. "z4,1 z3,2 z2,1"')
def cmd_check_chain(file, job, chain_text) -> None:
    """Check a chain's admissibility and report the failing condition."""
    ts, _ = _load_checked(file, job)
    chain = parse_chain(ts, chain_text)
    verdict = is_admissible_chain(ts, job, chain)
    if verdict.admissible:
        click.echo(
            f"admissible, duration {chain_duration(chain)}"
        )
    else:
        where = verdict.section.label if verdict.section else "?"
        click.echo(f"inadmissible: {where} fails {verdict.failed_condition}")
        if verdict.witness:
            a, b = verdict.witness
            click.echo(f"  conflicting sections: {a.label}, {b.label}")


@cli.command("oracle")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--job", type=int, required=True)
@click.option("--limit", type=click.IntRange(min=1), default=10**6, show_default=True)
def cmd_oracle(file, job, limit) -> None:
    """Exhaustive enumeration of admissible chains (small task sets only)."""
    ts, _ = _load_checked(file, job)
    result = brute_force_blocking_time(ts, job, limit=limit)
    click.echo(f"best duration: {result.best_duration}")
    for chain in result.best_chains:
        click.echo(f"  {format_chain(chain)}")
    click.echo(
        f"chains enumerated: {result.chains_enumerated} "
        f"(uninformed space {result.uninformed_space})"
    )


@cli.group("gen")
def cmd_gen() -> None:
    """Emit generated task sets in the canonical text format."""


@cmd_gen.command("antidiagonal")
@click.option("--n", "n", type=int, required=True, help="Total number of jobs.")
@click.option("--i", "i", type=int, required=True, help="Target job index.")
@click.option("--delta", required=True, help="Long section duration.")
@click.option("--epsilon", required=True, help="Short section duration.")
def cmd_gen_antidiagonal(n, i, delta, epsilon) -> None:
    """Antidiagonal family with a provably loose bound."""
    try:
        ts = generate_antidiagonal_family(n, i, delta, epsilon)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(serialize_taskset(ts), nl=False)


@cmd_gen.command("random")
@click.option("--seed", type=int, required=True)
@click.option("--jobs", type=int, default=5, show_default=True)
@click.option("--resources", type=int, default=5, show_default=True)
@click.option("--sections-per-job", type=int, default=3, show_default=True)
@click.option("--nesting-depth", type=int, default=2, show_default=True)
def cmd_gen_random(seed, jobs, resources, sections_per_job, nesting_depth) -> None:
    """Seeded random task set, deadlock-free by construction."""
    try:
        ts = random_taskset(
            seed,
            jobs=jobs,
            resources=resources,
            sections_per_job=sections_per_job,
            nesting_depth=nesting_depth,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(serialize_taskset(ts), nl=False)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        if isinstance(rv, int):
            return rv
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except (TaskSetError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except CyclicResourceOrderError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except OracleLimitError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
