"""In-memory spans for the traced benchmark run.

The tracer replaces the names that ``pipblock.analysis`` and
``pipblock.search`` look up at call time with timing wrappers, so the
program under test is traced without a change to its source.  Each span
records its name, start and end (``perf_counter``), parent span, thread id,
wall time, thread-CPU time, the request it belongs to, and a few counts
taken from the wrapped call's result.  Spans stay in memory until the run
ends.

Under ``analyze``'s thread pool, stage spans of one request run on several
threads at once and wait for the interpreter lock.  A span's thread-CPU
time excludes that waiting; wall minus CPU is the waiting itself.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import pipblock.analysis
import pipblock.search


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    cpu: float
    request: int | None
    info: Any = None

    @property
    def wall(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {**self._asdict(), "wall": self.wall}


def _search_counts(result) -> tuple[int, int, int]:
    return result.nodes_generated, result.nodes_expanded, len(result.expansions)


# (module, attribute, span name, counts taken from the call's result)
TRACED_CALLS: tuple[tuple[Any, str, str, Callable[[Any], Any] | None], ...] = (
    (pipblock.analysis, "check_deadlock_free", "deadlock.check", None),
    (
        pipblock.analysis,
        "blocking_scope",
        "relevance.scope",
        lambda s: (len(s.relevant_jobs), len(s.relevant_resources)),
    ),
    (
        pipblock.analysis,
        "blocking_time_matrix",
        "bound.matrix",
        lambda m: len(m.jobs) * len(m.resources),
    ),
    (pipblock.analysis, "max_assignment", "bound.assign", None),
    (
        pipblock.analysis,
        "quick_admissibility_verdict",
        "admissibility.screen",
        lambda q: q.passed,
    ),
    (pipblock.analysis, "blocking_time", "search.blocking_time", _search_counts),
    (pipblock.search, "hungarian_bound", "search.heuristic", None),
    (pipblock.search, "successors", "search.successors", None),
)


class Tracer:
    """Collects spans from the benchmark loop and from wrapped program calls.

    A span opened on a thread with no open span is parented to the current
    request, which is how stage spans on ``analyze``'s worker threads find
    the request that caused them.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, request: bool = False) -> Iterator[list]:
        """Record the enclosed block as one span.

        ``request=True`` opens the root span of a new request.  The block
        may append one value to the yielded list; it becomes the span's
        ``info``.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = None if request else (stack[-1] if stack else self._request)
        if request:
            self._request = span_id
        info: list = []
        stack.append(span_id)
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            yield info
        finally:
            cpu = time.thread_time() - cpu
            end = time.perf_counter()
            stack.pop()
        self.spans.append(
            Span(
                span_id, name, start, end, parent, threading.get_ident(), cpu,
                self._request, info[0] if info else None,
            )
        )

    def _wrap(self, fn: Callable, name: str, note: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as info:
                result = fn(*args, **kwargs)
                if note is not None:
                    info.append(note(result))
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Route the calls in :data:`TRACED_CALLS` through this tracer."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TRACED_CALLS]
        try:
            for (module, attr, name, note), (_, _, fn) in zip(TRACED_CALLS, originals):
                setattr(module, attr, self._wrap(fn, name, note))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """The span's wall time not covered by any of its children's spans."""
    return span.wall - covered(span.start, span.end, ((c.start, c.end) for c in children))


def wait_time(spans: Iterable[Span]) -> float:
    """Wall time minus thread-CPU time, summed over ``spans``."""
    return sum(s.wall - s.cpu for s in spans)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _mean(values: list[float]) -> float:
    return _ratio(sum(values), len(values))


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer totals, with their units, over the requests that ``spans``
    cover.

    Stage times are thread-CPU seconds, inclusive of nested stages; the
    waiting inside stage spans is ``analysis.wait_s``.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name: str) -> list[Span]:
        return by_name.get(name, [])

    def cpu(name: str) -> float:
        return sum(s.cpu for s in group(name))

    requests = group("request")
    request_ids = {r.id for r in requests}
    children: dict[int, list[Span]] = {r: [] for r in request_ids}
    for s in spans:
        if s.parent in request_ids:
            children[s.parent].append(s)
    stages = [c for cs in children.values() for c in cs]
    scopes = [s.info for s in group("relevance.scope")]
    searches = [s.info for s in group("search.blocking_time")]
    generated = sum(g for g, _, _ in searches)
    expanded = sum(e for _, e, _ in searches)
    search_s = cpu("search.blocking_time")
    heuristic_s = cpu("search.heuristic")
    screens = [s.info for s in group("admissibility.screen")]
    return {
        "taskset.parse_s": (cpu("taskset.parse"), "s"),
        "taskset.sections": (sum(s.info for s in group("taskset.parse")), "count"),
        "deadlock.check_s": (cpu("deadlock.check"), "s"),
        "relevance.scope_s": (cpu("relevance.scope"), "s"),
        "relevance.relevant_jobs_mean": (_mean([j for j, _ in scopes]), "count"),
        "relevance.relevant_resources_mean": (_mean([r for _, r in scopes]), "count"),
        "bound.matrix_s": (cpu("bound.matrix"), "s"),
        "bound.matrix_cells_mean": (_mean([s.info for s in group("bound.matrix")]), "count"),
        "bound.assign_s": (cpu("bound.assign"), "s"),
        "bound.assign_calls": (len(group("bound.assign")), "count"),
        "admissibility.screen_s": (cpu("admissibility.screen"), "s"),
        "admissibility.screen_pass_ratio": (_ratio(sum(screens), len(screens)), "ratio"),
        "search.blocking_time_s": (search_s, "s"),
        "search.jobs_searched": (len(searches), "count"),
        "search.nodes_generated": (generated, "count"),
        "search.nodes_expanded": (expanded, "count"),
        "search.expanded_ratio": (_ratio(expanded, generated), "ratio"),
        "search.nodes_per_s": (_ratio(generated, search_s), "1/s"),
        "search.heuristic_calls": (len(group("search.heuristic")), "count"),
        "search.heuristic_s": (heuristic_s, "s"),
        "search.heuristic_share": (_ratio(heuristic_s, search_s), "ratio"),
        "search.successors_calls": (len(group("search.successors")), "count"),
        "search.successors_s": (cpu("search.successors"), "s"),
        "search.expansion_records": (sum(r for _, _, r in searches), "count"),
        "analysis.wait_s": (wait_time(stages), "s"),
        "analysis.self_s": (sum(self_time(r, children[r.id]) for r in requests), "s"),
        "analysis.report_s": (cpu("analysis.report"), "s"),
    }
