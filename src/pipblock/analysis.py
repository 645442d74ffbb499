"""Whole-pipeline analysis: deadlock check, bound, quick screen, search.

For each requested job the report records the blocking scopes, the
assignment bound with its realizing pairs, the quick-screen verdict and,
when the screen fails and an exact value was requested, the search result.
A passing screen already proves the bound exact, so the search is skipped
and the screen's chain serves as witness.  Jobs are analyzed one after
another in ascending index order.

The report is a document first: :meth:`AnalysisReport.to_dict` is what
``--json`` prints, and :func:`render_report` renders the text from that
same dict, so both carry identical values; durations are exact rational
strings.  The bound stage of a job, its scope and the assignment over its
relevant jobs and resources (solved from the index, with no dense
matrix), is :func:`_bound_stage`, shared with ``pipblock bound``.  A
requested job is checked against the set's size (:func:`_targets`)
before anything else, the deadlock check included.  Each stage is
called through this module's globals, so a tracer can replace its name;
the stages pass their work on through the compiled index (its deadlock
verdict and job slot).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .admissibility import QuickCheckResult, quick_admissibility_verdict
from .bound import AssignmentSet, _best, _job_kernel
from .bound import blocking_time_matrix, max_assignment  # noqa: F401 (bench/spans.py looks both up)
from .deadlock import DeadlockVerdict, check_deadlock_free
from .relevance import BlockingScope, _check_target, blocking_scope
from .search import SearchResult, blocking_time
from .taskset import TaskSet, ZChain, _compiled

__all__ = ["AnalysisReport", "JobAnalysis", "analyze", "render_report"]


@dataclass(frozen=True)
class JobAnalysis:
    """Per-job outcome of the pipeline; ``search`` is the search result
    when the job was searched, else None."""

    job: int
    scope: BlockingScope
    bound: Fraction
    assignment: AssignmentSet
    quick: QuickCheckResult
    exact: Fraction | None
    witness: ZChain | None
    search: SearchResult | None
    wall_time: float

    @property
    def searched(self) -> bool:
        return self.search is not None


@dataclass(frozen=True)
class AnalysisReport:
    """Deadlock verdict plus per-job analyses ordered by job index."""

    deadlock: DeadlockVerdict
    jobs: tuple[JobAnalysis, ...]

    def to_dict(self) -> dict:
        doc: dict = {
            "deadlock_free": self.deadlock.acyclic,
        }
        if not self.deadlock.acyclic:
            assert self.deadlock.cycle is not None
            doc["cycle"] = [f"R{r}" for r in self.deadlock.cycle]
            doc["blocking_time"] = "infinite"
            doc["jobs"] = []
            return doc
        doc["jobs"] = [
            {
                "job": a.job,
                "direct_resources": sorted(a.scope.direct_resources),
                "direct_jobs": sorted(a.scope.direct_jobs),
                "relevant_resources": sorted(a.scope.relevant_resources),
                "relevant_jobs": sorted(a.scope.relevant_jobs),
                "bound": str(a.bound),
                "assignment": [[j, r] for j, r in a.assignment.pairs],
                "quick_check": a.quick.passed,
                "exact": None if a.exact is None else str(a.exact),
                "witness": None
                if a.witness is None
                else [z.label for z in a.witness],
                "searched": a.searched,
                "nodes_generated": None
                if a.search is None
                else a.search.nodes_generated,
                "nodes_expanded": None
                if a.search is None
                else a.search.nodes_expanded,
                "wall_time_s": round(a.wall_time, 6),
            }
            for a in self.jobs
        ]
        return doc


def _targets(ts: TaskSet, job: int | None) -> list[int]:
    """The requested job, or every job in ascending index order; raises
    ``ValueError`` on a job index outside ``1..n``."""
    if job is None:
        return list(range(1, ts.n + 1))
    _check_target(ts.n, job)
    return [job]


def _bound_stage(ts: TaskSet, i: int) -> tuple[BlockingScope, AssignmentSet]:
    """Job ``i``'s scope and the maximum assignment over its relevant jobs
    and resources, the kernel posed from the scope's masks in the job
    slot (:func:`~pipblock.bound._job_kernel`)."""
    scope = blocking_scope(ts, i)
    index = _compiled(ts)
    _, _, kernel, jobs, resources = _job_kernel(index, i)
    return scope, _best(kernel, jobs, resources, index.scale)


def _analyze_job(ts: TaskSet, i: int, exact: bool, trace: bool) -> JobAnalysis:
    started = time.perf_counter()
    scope, assignment = _bound_stage(ts, i)
    quick = quick_admissibility_verdict(ts, i, assignment)
    search: SearchResult | None = None
    exact_value: Fraction | None = None
    witness: ZChain | None = None
    if quick.passed:
        exact_value, witness = assignment.value, quick.chain
    elif exact:
        search = blocking_time(ts, i, trace=trace)
        exact_value, witness = search.blocking_time, search.witness
    return JobAnalysis(
        job=i,
        scope=scope,
        bound=assignment.value,
        assignment=assignment,
        quick=quick,
        exact=exact_value,
        witness=witness,
        search=search,
        wall_time=time.perf_counter() - started,
    )


def analyze(
    ts: TaskSet, *, job: int | None = None, exact: bool = True, trace: bool = False
) -> AnalysisReport:
    """Run the pipeline for one job or all jobs; ``trace`` keeps each
    search's expansion records (see :func:`~pipblock.search.blocking_time`).

    A job index outside ``1..n`` raises ``ValueError`` first.  A cyclic
    resource order short-circuits: the report carries the witness cycle
    and no per-job entries (blocking is unbounded).
    """
    targets = _targets(ts, job)
    verdict = check_deadlock_free(ts)
    if not verdict.acyclic:
        return AnalysisReport(deadlock=verdict, jobs=())
    analyses = tuple(_analyze_job(ts, i, exact, trace) for i in targets)
    return AnalysisReport(deadlock=verdict, jobs=analyses)


def render_report(report: AnalysisReport) -> str:
    """Plain-text rendering of :meth:`AnalysisReport.to_dict`."""
    doc = report.to_dict()
    if not doc["deadlock_free"]:
        return "\n".join([
            "deadlock risk: resource order is cyclic",
            f"  witness cycle: {' -> '.join(doc['cycle'])}",
            f"  blocking time: {doc['blocking_time']}",
        ])
    lines = ["deadlock-free: resource order is acyclic"]
    for a in doc["jobs"]:
        lines += [
            f"J{a['job']}:",
            f"  direct:   resources {_fmt_resources(a['direct_resources'])}, "
            f"jobs {_fmt_jobs(a['direct_jobs'])}",
            f"  relevant: resources {_fmt_resources(a['relevant_resources'])}, "
            f"jobs {_fmt_jobs(a['relevant_jobs'])}",
            f"  bound:    {a['bound']}  via {_fmt_pairs(a['assignment'])}",
            f"  quick check: {'pass' if a['quick_check'] else 'fail'}",
        ]
        if a["exact"] is None:
            lines.append("  exact:    not computed (bound only)")
            continue
        how = (
            f"search ({a['nodes_generated']} nodes generated, "
            f"{a['nodes_expanded']} expanded)"
            if a["searched"]
            else "quick check"
        )
        lines.append(f"  exact:    {a['exact']}  [{how}]")
        lines.append(f"  witness:  <{', '.join(a['witness'])}>")
    return "\n".join(lines)


def _fmt_pairs(pairs: Iterable[Iterable[int]]) -> str:
    return ", ".join(f"(J{j}, R{r})" for j, r in pairs) or "-"


def _fmt_resources(resources: Iterable[int]) -> str:
    return "{" + ", ".join(f"R{r}" for r in sorted(resources)) + "}"


def _fmt_jobs(jobs: Iterable[int]) -> str:
    return "{" + ", ".join(f"J{j}" for j in sorted(jobs)) + "}"
