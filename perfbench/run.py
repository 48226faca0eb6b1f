"""Benchmark of the `spikedtensor` CLI on four workloads.

    python3 perfbench/run.py --workload {cloud,moment,observe,tails,all}
                             --seed N --seconds S --trace {0,1}

Every op is a `spikedtensor.cli.main(argv)` call in this process, at
`--threads 1` and at `--threads N`, N the core count.  The first round at
one thread is checked against independent computations; every later round,
at either thread count, must write the same bytes.  Whole rounds repeat for
S seconds and the metrics are medians over them.

--trace 0 prints the end-to-end metrics: set-up time, draws/s at 1 and N
threads, peak RSS at 1 and N threads.  Times are reported at the reference
machine speed of `reference.py`; the table and a JSON line
{"workload", "reference_scale", "raw_wall_time"} before the result also give
the raw figures.  --trace 1 alternates untraced and traced rounds at one
thread and prints the per-layer metrics from the traced ones.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import harness
from reference import Reference
from tracing import MODULES, Tracer
from workloads import WORKLOADS, build_ops

SETUP_REPS = 5
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "draws_per_s_t1": "1/s",
    "draws_per_s_tN": "1/s",
    "peak_rss_mb_t1": "MB",
    "peak_rss_mb_tN": "MB",
}


def _layer_units() -> dict[str, str]:
    units = {}
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
        units[f"{module}.calls"] = "count"
    units.update({
        "rng.haar_s": "s", "rng.haar_matrices": "count", "rng.gaussian_mb": "MB", "rng.chunk_stretch": "ratio",
        "rate.psi_sample_s": "s", "rate.hadamard_s": "s", "rate.block_rate_s": "s", "rate.envelope_s": "s",
        "rate.bound_check_s": "s", "moment.overlap_s": "s", "moment.lse_s": "s", "moment.observe_s": "s",
        "moment.xi_s": "s", "cli.write_s": "s", "cli.bytes_written": "bytes", "trace.overhead_s": "s",
    })
    return units


class Runner:
    """Runs whole rounds of one workload and keeps the op tallies and the
    problems the checks find."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.ops = build_ops(workload, seed)
        self.draws = sum(op.draws for op in self.ops)
        self.work = work
        self.threads_n = os.cpu_count() or 1
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected: dict[str, str] | None = None  # output digests of the checked round

    def round(self, threads: int) -> float:
        """One pass over the ops at `threads`; returns the wall time of the
        CLI calls.  The first round is checked; the outputs of every later
        round must equal its outputs byte for byte, whatever the thread
        count, and in no round may an op but the known fault fail."""
        outdir = self.work / f"t{threads}"
        results = harness.run_ops(self.cli, self.ops, threads, outdir)
        failed = {op.name for op, (_, code) in zip(self.ops, results) if checks.op_failed(op, outdir, code)}
        self.attempted += len(self.ops)
        self.failed += len(failed)
        if self.expected is None:
            self.problems += checks.check_outputs(self.workload, self.ops, outdir, failed)
            self.expected = checks.digests(self.ops, outdir)
        else:
            self.problems += checks.unexpected_failures(self.ops, failed)
            differ = [k for k, v in checks.digests(self.ops, outdir).items() if self.expected[k] != v]
            if differ:
                self.problems.append(f"outputs at --threads {threads} differ from the checked round: {differ}")
        return sum(seconds for seconds, _ in results)

    def child(self, mode: str, *extra: str) -> str:
        """Run `child.py` in a fresh interpreter; returns its stdout."""
        proc = subprocess.run(
            [sys.executable, str(harness.BENCH / "child.py"), mode, self.workload, str(self.seed), *extra],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        return proc.stdout


def _peak_rss_mb(runner: Runner, threads: int) -> float:
    return float(runner.child("rss", str(threads), str(runner.work / f"rss-t{threads}")).split()[-1])


def end_to_end(runner: Runner, seconds: float) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics with times at reference speed, and the raw
    wall-time metrics with the reference factor."""
    n = runner.threads_n
    times = {"setup": [], 1: [], n: []}
    ref = Reference()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        runner.child("setup")
        times["setup"].append(time.perf_counter() - start)
        ref.sample()
    rss_1 = _peak_rss_mb(runner, 1)
    rss_n = _peak_rss_mb(runner, n)
    start = time.perf_counter()
    while len(times[1]) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        # alternate the order so that neither thread count always runs second
        for threads in ((n, 1) if len(times[1]) % 2 else (1, n)):
            times[threads].append(runner.round(threads))
            ref.sample()
    medians = {key: statistics.median(values) for key, values in times.items()}

    def metrics(scale: float) -> dict[str, float]:
        return {
            "setup_s": medians["setup"] * scale,
            "draws_per_s_t1": runner.draws / (medians[1] * scale),
            "draws_per_s_tN": runner.draws / (medians[n] * scale),
            "peak_rss_mb_t1": rss_1,
            "peak_rss_mb_tN": rss_n,
        }

    return metrics(ref.scale()), {"reference_scale": ref.scale(), "raw_wall_time": metrics(1.0)}


def per_layer(runner: Runner, seconds: float) -> dict[str, float]:
    tracer = Tracer()
    plain, traced, marks = [], [], []
    start = time.perf_counter()
    while len(plain) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        plain.append(runner.round(1))
        marks.append(len(tracer.spans))
        with tracer:
            traced.append(runner.round(1))
    metrics = tracer.layer_metrics(len(traced))
    chunks = {}
    for threads in (1, runner.threads_n):
        with Tracer(full=False) as timer:
            runner.round(threads)
        chunks[threads] = statistics.fmean(timer.chunk_times)
    metrics["rng.chunk_stretch"] = chunks[runner.threads_n] / chunks[1]
    # each traced round against the untraced round just before it, so that
    # a slow spell of the machine falls on both rounds of a pair
    overheads = [t - p for p, t in zip(plain, traced)]
    metrics["trace.overhead_s"] = statistics.median(overheads)
    q1, _, q3 = statistics.quantiles(overheads, n=4)
    print(f"trace overhead per round at 1 thread: median {metrics['trace.overhead_s']:.4g} s, "
          f"quartiles [{q1:.4g}, {q3:.4g}] s over {len(overheads)} pairs; "
          f"untraced round median {statistics.median(plain):.4g} s")
    _write_spans(runner.workload, tracer.spans, marks)
    return metrics


def _write_spans(workload: str, spans: list, marks: list[int]) -> None:
    """Spans of the traced rounds, one JSON object a line."""
    path = harness.BENCH / "_trace" / f"{workload}.jsonl"
    path.parent.mkdir(exist_ok=True)
    bounds = marks[1:] + [len(spans)]
    with path.open("w", encoding="utf-8") as fh:
        for round_no, (lo, hi) in enumerate(zip(marks, bounds)):
            for name, module, start, end, parent in spans[lo:hi]:
                fh.write(json.dumps({"round": round_no, "name": name, "module": module,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict | None]:
    """The result object of one workload and, for --trace 0, the raw
    wall-time metrics with the reference factor."""
    work = harness.BENCH / "_out" / f"{workload}-{os.getpid()}"
    runner = Runner(cli, workload, seed, work)
    raw = None
    try:
        if trace:
            values = per_layer(runner, seconds)
        else:
            values, raw = end_to_end(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = _layer_units() if trace else END_TO_END
    for problem in runner.problems:
        print(f"CHECK FAILED [{workload}] {problem}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, raw


def _print_table(workload: str, result: dict, raw: dict | None) -> None:
    print(f"[{workload}] correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    if raw:
        print(f"  {'metric':24s} {'reference speed':>16s} {'raw wall time':>16s}")
    for name, metric in result["metrics"].items():
        raw_value = f" {raw['raw_wall_time'][name]:>16.6g}" if raw else ""
        print(f"  {name:24s} {metric['value']:>16.6g}{raw_value} {metric['unit']}")
    if raw:
        print(json.dumps({"workload": workload, **raw}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = harness.import_cli()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        results[workload], raw = run_workload(cli, workload, args.seed, args.seconds, bool(args.trace))
        _print_table(workload, results[workload], raw)
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
