"""Whole-pipeline analysis: deadlock check, bound, quick screen, search.

For each requested job the report records the blocking scopes, the
assignment bound with its realizing pairs, the quick-screen verdict and,
when the screen fails and an exact value was requested, the search result.
A passing screen already proves the bound exact, so the search is skipped
and the screen's chain serves as witness.  Jobs are analyzed one after
another in ascending index order.

The text rendering and the JSON document are produced from the same
report object and contain identical values; durations are serialized as
exact rational strings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .admissibility import QuickCheckResult, quick_admissibility_verdict
from .bound import AssignmentSet, blocking_time_matrix, max_assignment
from .deadlock import DeadlockVerdict, check_deadlock_free
from .relevance import BlockingScope, blocking_scope
from .search import SearchResult, blocking_time
from .taskset import TaskSet, ZChain, format_chain

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


def _analyze_job(ts: TaskSet, i: int, exact: bool, trace: bool) -> JobAnalysis:
    started = time.perf_counter()
    scope = blocking_scope(ts, i)
    matrix = blocking_time_matrix(ts, scope.relevant_jobs, scope.relevant_resources)
    assignment = max_assignment(matrix)
    bound = assignment.value
    quick = quick_admissibility_verdict(ts, i, assignment)

    exact_value: Fraction | None = None
    witness: ZChain | None = None
    search: SearchResult | None = None
    if quick.passed:
        exact_value = bound
        witness = quick.chain
    elif exact:
        search = blocking_time(ts, i, trace=trace)
        exact_value = search.blocking_time
        witness = search.witness
    return JobAnalysis(
        job=i,
        scope=scope,
        bound=bound,
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

    A cyclic resource order short-circuits: the report carries the witness
    cycle and no per-job entries (blocking is unbounded).
    """
    verdict = check_deadlock_free(ts)
    if not verdict.acyclic:
        return AnalysisReport(deadlock=verdict, jobs=())
    targets = [job] if job is not None else list(range(1, ts.n + 1))
    for i in targets:
        ts.job(i)
    analyses = tuple(_analyze_job(ts, i, exact, trace) for i in targets)
    return AnalysisReport(deadlock=verdict, jobs=analyses)


def render_report(report: AnalysisReport) -> str:
    """Plain-text rendering of exactly the values in :meth:`to_dict`."""
    lines: list[str] = []
    if not report.deadlock.acyclic:
        assert report.deadlock.cycle is not None
        pretty = " -> ".join(f"R{r}" for r in report.deadlock.cycle)
        lines.append("deadlock risk: resource order is cyclic")
        lines.append(f"  witness cycle: {pretty}")
        lines.append("  blocking time: infinite")
        return "\n".join(lines)
    lines.append("deadlock-free: resource order is acyclic")
    for a in report.jobs:
        lines.append(f"J{a.job}:")
        lines.append(
            "  direct:   resources "
            f"{_fmt_resources(a.scope.direct_resources)}, "
            f"jobs {_fmt_jobs(a.scope.direct_jobs)}"
        )
        lines.append(
            "  relevant: resources "
            f"{_fmt_resources(a.scope.relevant_resources)}, "
            f"jobs {_fmt_jobs(a.scope.relevant_jobs)}"
        )
        pairs = ", ".join(f"(J{j}, R{r})" for j, r in a.assignment.pairs) or "-"
        lines.append(f"  bound:    {a.bound}  via {pairs}")
        lines.append(f"  quick check: {'pass' if a.quick.passed else 'fail'}")
        if a.exact is None:
            lines.append("  exact:    not computed (bound only)")
        else:
            how = "quick check" if a.search is None else (
                f"search ({a.search.nodes_generated} nodes generated, "
                f"{a.search.nodes_expanded} expanded)"
            )
            lines.append(f"  exact:    {a.exact}  [{how}]")
            if a.witness is not None:
                lines.append(f"  witness:  {format_chain(a.witness)}")
    return "\n".join(lines)


def _fmt_resources(resources: frozenset[int]) -> str:
    return "{" + ", ".join(f"R{r}" for r in sorted(resources)) + "}"


def _fmt_jobs(jobs: frozenset[int]) -> str:
    return "{" + ", ".join(f"J{j}" for j in sorted(jobs)) + "}"
