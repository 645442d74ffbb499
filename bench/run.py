"""pipblock benchmark: closed-loop task-set analysis, as ``pipblock analyze FILE --json``.

One client in this process sends each request only after the previous one
returned.  A request is one task-set text, handled as the CLI handles a
file: ``parse_taskset`` -> ``analyze(ts, exact=...)`` ->
``json.dumps(report.to_dict())``.  ``analyze``'s own thread pool is part of
the program under test.  A run repeats the workload's input list in whole
passes; each pass's outputs are checked job by job after the pass, outside
the timed region.

    python3 bench/run.py --workload random-exact --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``bench/README.md``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` of the
checkout this file sits in; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

# Fresh interpreters that each import the program and generate the inputs;
# set-up time is their median.  They run before the first pass and after
# every pass, so that they sample the machine over the whole run.
MIN_SETUP_PROBES = 7
GENERATE_REPEATS = 3

# Stop starting passes once a run has taken this many times --seconds, so
# that a much slower commit still finishes in time.
OVERRUN = 2

_PROBE = """\
import sys, time
started = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import pipblock, pipblock.cli
import workloads
workloads.generate(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - started)
"""


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import pipblock from it."""
    package = SRC / "pipblock"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: no pipblock sources at {package}")
    sys.path.insert(0, str(SRC))
    import pipblock

    if Path(pipblock.__file__).resolve().parent != package:
        sys.exit(f"run.py: imported pipblock from {pipblock.__file__}, not {package}")


def setup_probe(workload: str, seed: int) -> float:
    """Time for a fresh interpreter to import pipblock and pipblock.cli and
    to generate the workload's inputs."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), str(BENCH), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its level.

    With 10 samples or fewer there is none; the maximum is returned at
    level 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Client:
    """The closed-loop client: serves one workload's requests, pass by pass,
    and checks every output."""

    def __init__(self, texts: list[str], exact: bool, goldens: list[dict | None]) -> None:
        import golden
        from pipblock import analyze, parse_taskset

        self._analyze = analyze
        self._parse = parse_taskset
        self._report_failures = golden.report_failures
        self.texts = texts
        self.exact = exact
        self.goldens = goldens
        self.tasksets = [parse_taskset(text) for text in texts]
        self.attempted = 0
        self.failed = 0

    def serve(self, text: str, tracer=None) -> str:
        if tracer is None:
            return json.dumps(self._analyze(self._parse(text), exact=self.exact).to_dict())
        with tracer.span("request", request=True):
            with tracer.span("taskset.parse") as info:
                ts = self._parse(text)
                info.append(sum(len(job.sections) for job in ts.jobs))
            report = self._analyze(ts, exact=self.exact)
            with tracer.span("analysis.report"):
                return json.dumps(report.to_dict())

    def run_pass(self, tracer=None) -> list[float]:
        """One pass over the inputs; returns each request's latency."""
        latencies = []
        outputs: list[str | None] = []
        for text in self.texts:
            started = time.perf_counter()
            try:
                outputs.append(self.serve(text, tracer))
            except Exception:
                traceback.print_exc()
                outputs.append(None)
            latencies.append(time.perf_counter() - started)
        self.check(outputs)
        return latencies

    def check(self, outputs: list[str | None]) -> None:
        for text, ts, out, gold in zip(self.texts, self.tasksets, outputs, self.goldens):
            self.attempted += ts.n
            if out is None:
                self.failed += ts.n
                continue
            failures = self._report_failures(text, ts, json.loads(out), gold)
            for job, reasons in sorted(failures.items()):
                print(f"  wrong J{job}: {'; '.join(reasons)}", file=sys.stderr)
            self.failed += len(failures)


def throughput(passes: list[list[float]]) -> float:
    """Task sets per second of request time, from each task set's median
    latency over the passes, so that a stall in one pass counts once."""
    per_set = [statistics.median(latencies) for latencies in zip(*passes)]
    return len(per_set) / sum(per_set)


def measure(args, client: Client, passes: int) -> dict[str, tuple[float, str]]:
    """Untraced passes: the end-to-end metrics."""
    per_gap = -(-MIN_SETUP_PROBES // (passes + 1))
    setup = [setup_probe(args.workload, args.seed) for _ in range(per_gap)]
    client.serve(client.texts[0])
    started = time.perf_counter()
    done: list[list[float]] = []
    while len(done) < passes and time.perf_counter() - started < OVERRUN * args.seconds:
        done.append(client.run_pass())
        setup += [setup_probe(args.workload, args.seed) for _ in range(per_gap)]
    samples = [s for p in done for s in p]
    tail_s, level = tail(samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"workload {args.workload} seed {args.seed}: {len(done)} passes x "
        f"{len(client.texts)} task sets, closed loop, 1 client"
    )
    beyond = sum(s > tail_s for s in samples)
    print(f"  taskset_tail_s is p{level:.1f} of {len(samples)} samples, {beyond} beyond it")
    print(f"  error_rate {client.failed / client.attempted:.6f} ratio "
          f"({client.failed} of {client.attempted} jobs failed the check)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "tasksets_per_s": (throughput(done), "1/s"),
        "taskset_p50_s": (statistics.median(samples), "s"),
        "taskset_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def measure_traced(args, client: Client, passes: int) -> dict[str, tuple[float, str]]:
    """Alternating untraced and traced passes: the per-layer metrics and the
    tracing overhead."""
    import spans
    import workloads

    generate = []
    for _ in range(GENERATE_REPEATS):
        started = time.perf_counter()
        workloads.generate(args.workload, args.seed)
        generate.append(time.perf_counter() - started)

    tracer = spans.Tracer()
    client.serve(client.texts[0])
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    per_pass: list[dict[str, tuple[float, str]]] = []
    started = time.perf_counter()
    for k in range(max(2, passes)):
        if k >= 2 and time.perf_counter() - started > OVERRUN * args.seconds:
            break
        if k % 2 == 0:
            plain.append(client.run_pass())
            continue
        first = len(tracer.spans)
        with tracer.installed():
            traced.append(client.run_pass(tracer))
        per_pass.append(spans.layer_metrics(tracer.spans[first:]))

    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as f:
        for s in tracer.spans:
            f.write(json.dumps(s.as_dict()) + "\n")

    traced_tps = throughput(traced)
    plain_tps = throughput(plain)
    print(
        f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
        f"{len(traced)} traced passes x {len(client.texts)} task sets; "
        f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}"
    )
    print(f"  tracing overhead: {plain_tps:.4f} task sets/s untraced, {traced_tps:.4f} traced")
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["oracle.generate_s"] = (statistics.median(generate), "s")
    metrics["trace.tasksets_per_s"] = (traced_tps, "1/s")
    metrics["trace.untraced_tasksets_per_s"] = (plain_tps, "1/s")
    metrics["trace.overhead_ratio"] = (plain_tps / traced_tps, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_program()
    import golden
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    texts = workloads.generate(args.workload, args.seed)
    goldens: list[dict | None] = [None] * len(texts)
    if args.seed == 0:
        goldens = golden.load(args.workload)["tasksets"]
        if len(goldens) != len(texts):
            sys.exit(f"run.py: golden file has {len(goldens)} task sets, workload {len(texts)}")
    client = Client(texts, spec.exact, goldens)
    passes = spec.passes_for(args.seconds)
    if args.trace:
        metrics = measure_traced(args, client, passes)
    else:
        metrics = measure(args, client, passes)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36} {value:.6g} {unit}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
