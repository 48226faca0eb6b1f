"""Command-line front end: resolves an experiment configuration, runs the
matching driver, and writes plot-ready CSV or JSON files.

Output files embed the tool version, the fully resolved configuration and
the seed, so a run is reproducible byte for byte from any one of its
outputs.  Wall-clock duration is printed to stdout only; putting it inside
the files would break byte-identical reruns.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import FIELDS, KINDS, ExperimentConfig, gram_matrices, parse_config_text, resolve_config
from .errors import ParameterError
from .moment import (
    _draw_cells,
    default_epsilon,
    e1_e2_split,
    roc_experiment,
    second_moment_direct_mc,
    second_moment_haar_mc,
    xi_empirical_tail,
    xi_tail_probability,
)
from .rate import cloud_bound_violations, grf_lower_bound, sample_grf_cloud
from .rng import SeedSpec
from .spike import SpikeSpec
from .thresholds import threshold_report

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_INVARIANT = 2

# Desk-scale ceilings; beyond them a run is refused instead of silently
# taking hours.  The Haar corner draw of `moment`, `split` and `cloud` takes
# O(r^2) variates a block at every n (`rate._haar_corner_sets`): at r=2,
# d=3 on one core of a 2-vCPU VM, 20k moment draws take about 0.12 s at
# n=512, and 60k cloud draws about 0.23 s at n=1024 with the CSV output.
# The n caps were set for an (n, r) frame a block, 4.5 s and 8.9 s at those
# sizes; raising them is a change of its own.  The list caps bound what one
# run multiplies: `bound.csv` has a row per bin (10^5 bins: 4 MB and 0.6 s;
# at the sample cap still 20 points a bin), `xi-tail` compares every
# sample with every t (1000 t at 1M samples, n=8: 0.50-0.51 s, medians of
# five) and `moment` runs once per n (32 n from 4 to 128 at 20k samples,
# r=2: 4.4 s).  One `xi-tail` sample holds n exponentials: at `--samples
# 1`, one-thread peak RSS was 36 MB at n=8, 52 MB at the cap n=2^20 (0.03
# s; 44 MB before its row sum was a gemv, which OpenBLAS runs on two
# threads at that length), 68 MB at 2^22 and 164 MB at 2^24.  `xi_work`
# bounds its n x samples exponentials: 2^27 of them took 1.16-1.33 s at
# n=2^20 (128 samples, 60 MB; 2.3-2.6 s of CPU, the gemv's second BLAS
# thread), and 1.2 * 10^8 took 1.07 s at n=6, the largest n the sample cap
# reaches (medians of five, `--threads 1`).
# `draw_cells` bounds the largest array of one `roc` or `direct` draw
# (`moment._draw_cells`), `roc`'s one prior set included.  At the cap,
# one-thread peak RSS (ru_maxrss) was 269 MiB for `roc` at d=3, n=4, inner
# 2^18 (0.23-0.25 s for the prior set, medians of seven, and about 0.1 s
# a trial) and 220 MiB at
# d=2, n=6, r=2, inner 174762.  `d` bounds the Grams every run builds
# first; at d=1024, `threshold` took 0.09 s (33 MB, medians of five).
# `r` bounds the spike every run builds at n = r before its own checks, whose
# cost grows as about r^3 (`threshold` took 3.5 ms at r=32, 0.17 s at 64 and
# 1.1 s at 512, 77 MB), and the d (r^2, r^2) complex mode maps of `moment`,
# `split` and `cloud` (`spike.SpikeSvd`), which grow as r^4: 16 MB a mode at
# r=32, where `moment --n 32 --samples 10` peaked at 102 MB, and 268 MB at 64.
# `mode_map_cells` caps their d r^4 cells: at the cap (d=16, r=32), one-thread
# peak RSS was 310-313 MB for `moment`, `split` and `cloud`, at 10 or 2000
# draws; d=1024 at r=32 would hold 16 GiB of maps.
_LIMITS = {
    "d": 1024,
    "r": 32,
    "bins": 100_000,
    "t_count": 1000,
    "n_count": 64,
    "cloud_samples": 2_000_000,
    "cloud_n": 1024,
    "moment_samples": 2_000_000,
    "moment_n": 512,
    "direct_n": 4,
    "direct_d": 3,
    "direct_work": 20_000_000,
    "roc_n": 6,
    "roc_work": 20_000_000,
    "draw_cells": 2**22,
    "mode_map_cells": 2**24,
    "xi_samples": 20_000_000,
    "xi_n": 2**20,
    "xi_work": 2**27,
}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write_csv(path: Path, config: ExperimentConfig, header: list[str], rows, extra_comments: list[str]) -> None:
    lines = [f"# spikedtensor {__version__}", f"# config {config.one_line()}", *extra_comments, ",".join(header)]
    text = "\n".join(lines) + "\n"
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
        has_nan = bool(np.isnan(rows).any())
        # one %-call for the whole array; "%.17g" writes what _fmt writes
        text += (",".join(["%.17g"] * rows.shape[1]) + "\n") * len(rows) % tuple(rows.ravel().tolist())
    else:
        cells = [[_fmt(v) for v in row] for row in rows]
        has_nan = any("nan" in row for row in cells)
        text += "".join(",".join(row) + "\n" for row in cells)
    if has_nan:  # infinities stay: a block rate of exactly -inf is a value
        raise ArithmeticError(f"{path.name} not written: NaN in a row")
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, config: ExperimentConfig, payload: dict) -> None:
    document = {
        "version": __version__,
        "config": dict(config.canonical_items()),
        "seed": {"master_seed": config.seed, "stream_id": config.stream},
    }
    document.update(payload)
    try:
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a NaN or an infinity, which JSON cannot hold
        raise ArithmeticError(f"{path.name} not written: {exc}") from None
    path.write_text(text + "\n", encoding="utf-8")


def _emit(config: ExperimentConfig, document, tables) -> None:
    """Write a run's output in its configured format and print each path:
    `<out>.json` from `document()` (built only then), or one CSV file per
    (suffix, header, rows, extra comments) table."""
    base = Path(config.out)
    if config.format == "json":
        path = base.with_suffix(".json")
        _write_json(path, config, document())
        print(f"wrote {path}")
        return
    for suffix, header, rows, comments in tables:
        path = base.with_suffix(suffix)
        _write_csv(path, config, header, rows, comments)
        print(f"wrote {path}")


def _refuse(condition: bool, message: str) -> None:
    if condition:
        raise ParameterError(f"desk-scale limit exceeded: {message}")


def _refuse_draw(spec, inner: int) -> None:
    cells = _draw_cells(spec, inner)
    _refuse(cells > _LIMITS["draw_cells"], f"one draw holds {cells} cells > {_LIMITS['draw_cells']}")


def _spec_for(config: ExperimentConfig, n: int):
    grams = gram_matrices(config.gram, config.r, config.d)
    return SpikeSpec(np.array(config.lambdas), grams, n=n)


def run_threshold(config: ExperimentConfig) -> None:
    record = threshold_report(_spec_for(config, n=config.r)).to_dict()
    row = ["" if v is None else v for v in record.values()]
    _emit(config, lambda: {"report": record}, [(".csv", list(record), [row], [])])


def run_cloud(config: ExperimentConfig) -> None:
    _refuse(config.samples > _LIMITS["cloud_samples"], f"cloud samples {config.samples} > {_LIMITS['cloud_samples']}")
    _refuse(config.n[0] > _LIMITS["cloud_n"], f"cloud n {config.n[0]} > {_LIMITS['cloud_n']}")
    spec = _spec_for(config, n=config.n[0])
    seed = SeedSpec(config.seed, config.stream)
    cloud = sample_grf_cloud(spec, config.samples, seed, config.bins, threads=config.threads)
    width = 2.0 * cloud.eta_max / config.bins
    centers = -cloud.eta_max + (np.arange(config.bins) + 0.5) * width
    envelope = np.column_stack([cloud.envelope, -grf_lower_bound(cloud.envelope[:, 0], cloud.eta_max, cloud.d)])
    _emit(config, None, [  # resolve_config refuses json for cloud
        (".points.csv", ["x", "y"], cloud.points, []),
        (".envelope.csv", ["bin_center", "max_y", "bound_value"], envelope, [f"# eta_max {_fmt(cloud.eta_max)}"]),
        (".bound.csv", ["bin_center", "bound_value"],
         np.column_stack([centers, -grf_lower_bound(centers, cloud.eta_max, cloud.d)]), []),
    ])
    violations = cloud_bound_violations(cloud)
    if violations:
        raise ArithmeticError(f"{violations} cloud points above the closed-form bound")


def run_moment(config: ExperimentConfig) -> None:
    # every n meets every cap before the first estimate
    haar = config.method == "haar"
    if haar:
        _refuse(config.samples > _LIMITS["moment_samples"], f"samples {config.samples} > {_LIMITS['moment_samples']}")
    else:
        _refuse(config.d > _LIMITS["direct_d"], f"direct method d {config.d} > {_LIMITS['direct_d']}")
        _refuse(config.outer * config.inner > _LIMITS["direct_work"],
                f"outer*inner = {config.outer * config.inner} > {_LIMITS['direct_work']}")
    specs = []
    for n in config.n:
        _refuse(n > _LIMITS["moment_n"], f"moment n {n} > {_LIMITS['moment_n']}")
        _refuse(not haar and n > _LIMITS["direct_n"], f"direct method n {n} > {_LIMITS['direct_n']}")
        specs.append(_spec_for(config, n=n))
        if not haar:
            _refuse_draw(specs[-1], config.inner)
    seed = SeedSpec(config.seed, config.stream)

    def estimate(spec):
        if haar:
            return second_moment_haar_mc(spec, config.samples, seed, threads=config.threads)
        return second_moment_direct_mc(spec, config.outer, config.inner, seed, threads=config.threads)

    records = [(spec.n, estimate(spec)) for spec in specs]

    _emit(
        config,
        lambda: {"method": config.method, "estimates": [{"n": n, **est.to_dict()} for n, est in records]},
        [(".csv", ["n", "count", "mean", "stderr", "log_domain_max", "master_seed", "stream_id"],
          [(n, est.count, est.mean, est.stderr, est.log_domain_max, config.seed, config.stream) for n, est in records],
          [])],
    )


def run_split(config: ExperimentConfig) -> None:
    n = config.n[0]
    _refuse(n > _LIMITS["moment_n"], f"split n {n} > {_LIMITS['moment_n']}")
    _refuse(config.samples > _LIMITS["moment_samples"], f"samples {config.samples} > {_LIMITS['moment_samples']}")
    spec = _spec_for(config, n=n)
    epsilon = config.epsilon if config.epsilon is not None else default_epsilon(spec)
    if epsilon <= 0:
        raise ParameterError("the default epsilon rule gives 0 for a zero spike: set --epsilon > 0")
    seed = SeedSpec(config.seed, config.stream)
    e1, e2 = e1_e2_split(spec, epsilon, config.samples, seed, threads=config.threads)

    _emit(
        config,
        lambda: {"n": n, "epsilon": epsilon, "e1": e1.to_dict(), "e2": e2.to_dict(), "total_mean": e1.mean + e2.mean},
        [(".csv", ["bucket", "count", "mean", "stderr", "log_domain_max"],
          [("e1", e1.count, e1.mean, e1.stderr, e1.log_domain_max),
           ("e2", e2.count, e2.mean, e2.stderr, e2.log_domain_max),
           ("total", e1.count, e1.mean + e2.mean, "", "")],
          [f"# epsilon {_fmt(epsilon)}", f"# n {n}"])],
    )


def run_xi_tail(config: ExperimentConfig) -> None:
    n = config.n[0]
    _refuse(n > _LIMITS["xi_n"], f"xi-tail n {n} > {_LIMITS['xi_n']}")
    _refuse(config.samples > _LIMITS["xi_samples"], f"samples {config.samples} > {_LIMITS['xi_samples']}")
    _refuse(n * config.samples > _LIMITS["xi_work"], f"n*samples = {n * config.samples} > {_LIMITS['xi_work']}")
    seed = SeedSpec(config.seed, config.stream)
    estimates = xi_empirical_tail(n, config.t, config.samples, seed, threads=config.threads)
    header = ["n", "t", "count", "analytic", "empirical", "stderr"]
    rows = [
        (n, t, est.count, xi_tail_probability(t, n), est.mean, est.stderr)
        for t, est in zip(config.t, estimates)
    ]
    _emit(config, lambda: {"rows": [dict(zip(header, row)) for row in rows]}, [(".csv", header, rows, [])])


def run_roc(config: ExperimentConfig) -> None:
    n = config.n[0]
    _refuse(n > _LIMITS["roc_n"], f"roc n {n} > {_LIMITS['roc_n']}")
    _refuse(2 * config.trials * config.inner > _LIMITS["roc_work"],
            f"2*trials*inner = {2 * config.trials * config.inner} > {_LIMITS['roc_work']}")
    spec = _spec_for(config, n=n)
    _refuse_draw(spec, config.inner)
    seed = SeedSpec(config.seed, config.stream)
    roc = roc_experiment(spec, config.trials, config.inner, seed, threads=config.threads)

    _emit(
        config,
        lambda: {
            "n": n,
            "tv_proxy": roc.tv_proxy,
            "points": [{"threshold": p[0], "fpr": p[1], "tpr": p[2]} for p in roc.points],
        },
        [(".csv", ["threshold", "fpr", "tpr"], roc.points, [f"# tv_proxy {_fmt(roc.tv_proxy)}"])],
    )


def _build_parser() -> argparse.ArgumentParser:
    """One flat parser: the experiment kind, `--config` and a flag per field
    of `config.FIELDS`, which every kind takes alike.  A kind leaves unread
    the fields it has no use for, but `main` resolves and checks every field
    and builds the spike in every kind, so a bad value of any field is
    refused in every kind."""
    parser = argparse.ArgumentParser(
        prog="spikedtensor",
        description="Detectability thresholds and seeded experiments for spiked complex Gaussian tensor models.",
    )
    parser.add_argument("kind", choices=KINDS, help="experiment to run")
    parser.add_argument("--config", help="path to a key=value config file")
    for name, field in FIELDS.items():
        parser.add_argument(f"--{name}", help=field.help)
    return parser


_RUNNERS = {
    "threshold": run_threshold,
    "cloud": run_cloud,
    "moment": run_moment,
    "split": run_split,
    "xi-tail": run_xi_tail,
    "roc": run_roc,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("kind", "config") and value is not None
    }
    started = time.monotonic()
    try:
        file_values = {}
        if args.config:
            file_values = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
        config = resolve_config(args.kind, file_values, overrides)
        _refuse(config.d > _LIMITS["d"], f"d {config.d} > {_LIMITS['d']}")
        _refuse(config.r > _LIMITS["r"], f"r {config.r} > {_LIMITS['r']}")
        if args.kind in ("split", "cloud") or (args.kind == "moment" and config.method == "haar"):
            maps = config.d * config.r**4
            _refuse(maps > _LIMITS["mode_map_cells"], f"d*r^4 = {maps} mode-map cells > {_LIMITS['mode_map_cells']}")
        _refuse(config.bins > _LIMITS["bins"], f"bins {config.bins} > {_LIMITS['bins']}")
        _refuse(len(config.t) > _LIMITS["t_count"], f"{len(config.t)} t values > {_LIMITS['t_count']}")
        _refuse(len(config.n) > _LIMITS["n_count"], f"{len(config.n)} n values > {_LIMITS['n_count']}")
        _spec_for(config, n=config.r)  # refuses a bad spike before any work, in every subcommand
        _RUNNERS[args.kind](config)
    # OSError, UnicodeDecodeError: a --config not readable as text, an --out not writable
    except (ParameterError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except ArithmeticError as exc:  # a cloud bound breach, moment._complement, a refused file, or a float fault
        print(f"invariant violation: {exc}", file=sys.stderr)
        return _EXIT_INVARIANT
    print(f"duration {time.monotonic() - started:.3f}s")
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
