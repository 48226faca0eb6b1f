"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steadiness.py [--seeds 1-10] [--workloads cloud,moment,observe,tails]

Runs `run.py --trace 0` once per seed and workload, with the run length from
BENCHMARK.json, and prints per metric the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median next to
its bound, the median and spread of the raw wall-time figure, and the share
of failed operations.  The README figures come from two invocations of this
script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import harness
from workloads import WORKLOADS


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(v) for v in lo.split(",")]


def _summary(values: list[float]) -> tuple[float, float, float, float]:
    """median, (q3 - q1) / median, q1, q3"""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median, q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        shares = set()
        correct = True
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(harness.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for name, value in json.loads(lines[-2])["raw_wall_time"].items():
                raw.setdefault(name, []).append(value)
            correct &= result["correct"]
            shares.add(f"{result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: correct={correct} failed/attempted per run: {sorted(shares)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}"
              f" {'raw median':>12s} {'raw spread':>10s}")
        for name, vals in values.items():
            median, spread, q1, q3 = _summary(vals)
            raw_median, raw_spread, _, _ = _summary(raw[name])
            print(f"  {name:16s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.4f} {bounds[name]:6.2f}"
                  f" {raw_median:12.6g} {raw_spread:10.4f}")
        status |= not correct
    return status


if __name__ == "__main__":
    sys.exit(main())
