"""Shows that the benchmark's checks catch faults.

    python3 perfbench/selftest.py

1. Runs every workload once at one thread and requires its outputs to pass
   the checks, with only the known fault counted as failed.
2. Doctors copies of those outputs and requires each to fail its check:
   a cloud point raised above the bound, a rank-one moment mean shifted by
   10 stderr, a `split` total off by one ulp, two ROC rows swapped.
3. Injects faults into the loaded program and requires a benchmark round
   (`run.Runner.round`, the path every timed round takes) to report the run
   incorrect: every cloud rate raised by 1, so points lie above the bound
   and the CLI exits 2; every Monte-Carlo mean made infinite, so the
   rank-one `moment` op fails besides the known fault.
4. Runs `run.py` on `tails` in both modes and requires the printed metric
   names and units to equal those in BENCHMARK.json, and the module self
   times of the traced run to add up to the time inside the `cli.main`
   spans of the spans file it wrote.

Exits 0 when every step holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import checks
import harness
from run import Runner
from tracing import MODULES
from workloads import WORKLOADS, build_ops

SEED = 11


def _doctor_cloud(outdir: Path) -> None:
    path = outdir / "cloud_orth.points.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    emax, d = 2.0, 3
    for i, line in enumerate(lines):
        if line[0] not in "#x":
            x = float(line.split(",")[0])
            if abs(x) < 0.5 * emax:
                ceiling = d * math.log1p(-((abs(x) / emax) ** (2.0 / d)))
                lines[i] = f"{x!r},{ceiling + 1e-3!r}"
                break
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _doctor_moment(outdir: Path) -> None:
    def shift(doc):
        est = doc["estimates"][2]
        est["mean"] += 10.0 * est["stderr"]

    _edit_json(outdir / "mom_rank1.json", shift)


def _doctor_split(outdir: Path) -> None:
    def ulp(doc):
        doc["total_mean"] = math.nextafter(doc["total_mean"], math.inf)

    _edit_json(outdir / "split_rank2.json", ulp)


def _doctor_roc(outdir: Path) -> None:
    path = outdir / "roc.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("threshold")) + 1
    lines[first + 1], lines[first + 2] = lines[first + 2], lines[first + 1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


DOCTORS = {"cloud": _doctor_cloud, "moment": _doctor_moment, "moment/split": _doctor_split, "observe": _doctor_roc}


def _raise_rates(original):
    return lambda stack: original(stack) + 1.0


def _infinite_mean(original):
    return lambda *args, **kwargs: dataclasses.replace(original(*args, **kwargs), mean=math.inf)


# workload -> (module, function, fault, a problem the round must report)
INJECTED = {
    "cloud": ("rate", "_rate_stack", _raise_rates, "points above d log"),
    "moment": ("moment", "_mean_from_exponents", _infinite_mean, "mom_rank1: op failed"),
}


def _injected_faults(cli, work: Path) -> list[str]:
    failures = []
    for workload, (module, name, fault, expected) in INJECTED.items():
        owner = sys.modules[f"spikedtensor.{module}"]
        runner = Runner(cli, workload, SEED, work / f"{workload}-injected")
        with mock.patch.object(owner, name, fault(getattr(owner, name))):
            runner.round(1)
        found = [p for p in runner.problems if expected in p]
        print(f"{workload:14s} injected {module}.{name} -> {runner.problems if runner.problems else 'NOT CAUGHT'}")
        if not found:
            failures.append(f"{workload}: injected fault in {module}.{name} not reported as {expected!r}")
    return failures


def _cli_span_time(workload: str) -> float:
    """Time inside the `cli.main` spans per traced round, from the spans file."""
    spans = [json.loads(line) for line in
             (harness.BENCH / "_trace" / f"{workload}.jsonl").read_text(encoding="utf-8").splitlines()]
    rounds = max(span["round"] for span in spans) + 1
    return sum(span["end"] - span["start"] for span in spans if span["name"] == "cli.main") / rounds


def _metric_names(trace: int) -> dict[str, str]:
    proc = subprocess.run(
        [sys.executable, str(harness.BENCH / "run.py"), "--workload", "tails", "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"run.py --trace {trace} reports incorrect outputs:\n{proc.stderr}")
    return result["metrics"]


def main() -> int:
    cli = harness.import_cli()
    work = harness.BENCH / "_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    failures = []
    try:
        for workload in WORKLOADS:
            ops = build_ops(workload, SEED)
            clean = work / workload
            results = harness.run_ops(cli, ops, 1, clean)
            failed = {op.name for op, (_, code) in zip(ops, results) if checks.op_failed(op, clean, code)}
            if failed != {op.name for op in ops if op.known_fault}:
                failures.append(f"{workload}: failed ops {sorted(failed)}")
            problems = checks.check_outputs(workload, ops, clean, failed)
            if problems:
                failures.append(f"{workload}: clean outputs fail: {problems}")
            for label, doctor in DOCTORS.items():
                if label.split("/")[0] != workload:
                    continue
                doctored = work / f"{workload}-doctored-{label.replace('/', '-')}"
                shutil.copytree(clean, doctored)
                doctor(doctored)
                caught = checks.check_outputs(workload, ops, doctored, failed)
                print(f"{label:14s} doctored -> {caught if caught else 'NOT CAUGHT'}")
                if not caught:
                    failures.append(f"{label}: doctored output passed the checks")
        failures += _injected_faults(cli, work)

        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            printed = _metric_names(trace)
            declared = {m["name"]: m["unit"] for m in spec[key]}
            if {k: v["unit"] for k, v in printed.items()} != declared:
                failures.append(f"--trace {trace} prints {sorted(printed)}, BENCHMARK.json declares {sorted(declared)}")
            if trace:
                total = sum(printed[f"{m}.self_s"]["value"] for m in MODULES)
                inside = _cli_span_time("tails")
                print(f"module self times {total!r} s, inside the CLI calls {inside!r} s")
                if not math.isclose(total, inside, rel_tol=1e-9):
                    failures.append("module self times do not add up to the time inside the CLI calls")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"SELFTEST FAILED: {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
