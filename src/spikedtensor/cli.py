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
from .config import KINDS, ExperimentConfig, gram_matrices, parse_config_text, resolve_config
from .errors import ConfigError, DimensionError, DomainError, ParameterError
from .moment import (
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
from .spike import spec_from_grams
from .thresholds import threshold_report

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_INVARIANT = 2

# Desk-scale ceilings; beyond them a run is refused instead of silently
# taking hours.  The Haar work grows like n r^2, so the n caps are set where
# a run at the sample cap still takes minutes, not hours: at r=2, d=3 on one
# core, 20k moment draws take about 6 s at n=512 and 60k cloud draws about
# 9 s at n=1024 (the Haar corner draw dominates there).  The list caps bound what one run multiplies: `bound.csv`
# has a row per bin (10^5 bins: 4 MB and 0.6 s; at the sample cap still 20
# points a bin), `xi-tail` compares every sample with every t (1000 t at
# 1M samples: 2.7 s) and `moment` runs once per n (32 n from 4 to 128 at
# 20k samples: 8.7 s).
_LIMITS = {
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
    "xi_samples": 20_000_000,
}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write_csv(path: Path, config: ExperimentConfig, header: list[str], rows, extra_comments: list[str] | None = None) -> None:
    lines = [f"# spikedtensor {__version__}", f"# config {config.one_line()}"]
    lines += extra_comments or []
    lines.append(",".join(header))
    text = "\n".join(lines) + "\n"
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
        # one %-call for the whole array; "%.17g" writes what _fmt writes
        text += (",".join(["%.17g"] * rows.shape[1]) + "\n") * len(rows) % tuple(rows.ravel().tolist())
    else:
        text += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
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


def _refuse(condition: bool, message: str) -> None:
    if condition:
        raise ConfigError(f"desk-scale limit exceeded: {message}")


def _spec_for(config: ExperimentConfig, n: int):
    grams = gram_matrices(config.gram, config.r, config.d)
    allow_zero = any(v == 0 for v in config.lambdas)
    return spec_from_grams(np.array(config.lambdas), grams, n=n, allow_zero=allow_zero)


def run_threshold(config: ExperimentConfig) -> list[Path]:
    spec = _spec_for(config, n=config.r)
    report = threshold_report(spec)
    if config.format == "json":
        path = Path(config.out).with_suffix(".json")
        _write_json(path, config, {"report": report.to_dict()})
    else:
        path = Path(config.out).with_suffix(".csv")
        record = report.to_dict()
        _write_csv(path, config, list(record.keys()), [["" if v is None else v for v in record.values()]])
    return [path]


def run_cloud(config: ExperimentConfig) -> tuple[list[Path], int]:
    _refuse(config.samples > _LIMITS["cloud_samples"], f"cloud samples {config.samples} > {_LIMITS['cloud_samples']}")
    _refuse(config.n[0] > _LIMITS["cloud_n"], f"cloud n {config.n[0]} > {_LIMITS['cloud_n']}")
    spec = _spec_for(config, n=config.n[0])
    seed = SeedSpec(config.seed, config.stream)
    cloud = sample_grf_cloud(spec, config.samples, seed, config.bins, threads=config.threads)

    base = Path(config.out)
    points_path = base.with_suffix(".points.csv")
    envelope_path = base.with_suffix(".envelope.csv")
    bound_path = base.with_suffix(".bound.csv")

    _write_csv(points_path, config, ["x", "y"], cloud.points)
    env_rows = [
        (center, max_y, -grf_lower_bound(center, cloud.eta_max, cloud.d))
        for center, max_y in cloud.envelope
    ]
    _write_csv(envelope_path, config, ["bin_center", "max_y", "bound_value"], env_rows,
               extra_comments=[f"# eta_max {_fmt(cloud.eta_max)}"])
    width = 2.0 * cloud.eta_max / config.bins
    centers = [-cloud.eta_max + (b + 0.5) * width for b in range(config.bins)]
    bound_rows = [(c, -grf_lower_bound(c, cloud.eta_max, cloud.d)) for c in centers]
    _write_csv(bound_path, config, ["bin_center", "bound_value"], bound_rows)

    return [points_path, envelope_path, bound_path], cloud_bound_violations(cloud)


def run_moment(config: ExperimentConfig) -> list[Path]:
    seed = SeedSpec(config.seed, config.stream)
    records = []
    for n in config.n:
        _refuse(n > _LIMITS["moment_n"], f"moment n {n} > {_LIMITS['moment_n']}")
        spec = _spec_for(config, n=n)
        if config.method == "haar":
            _refuse(config.samples > _LIMITS["moment_samples"], f"samples {config.samples} > {_LIMITS['moment_samples']}")
            est = second_moment_haar_mc(spec, config.samples, seed, threads=config.threads)
        else:
            _refuse(n > _LIMITS["direct_n"], f"direct method n {n} > {_LIMITS['direct_n']}")
            _refuse(config.d > _LIMITS["direct_d"], f"direct method d {config.d} > {_LIMITS['direct_d']}")
            _refuse(config.outer * config.inner > _LIMITS["direct_work"],
                    f"outer*inner = {config.outer * config.inner} > {_LIMITS['direct_work']}")
            est = second_moment_direct_mc(spec, config.outer, config.inner, seed, threads=config.threads)
        records.append((n, est))

    if config.format == "json":
        path = Path(config.out).with_suffix(".json")
        _write_json(path, config, {
            "method": config.method,
            "estimates": [{"n": n, **est.to_dict()} for n, est in records],
        })
    else:
        path = Path(config.out).with_suffix(".csv")
        rows = [
            (n, est.count, est.mean, est.stderr, est.log_domain_max, config.seed, config.stream)
            for n, est in records
        ]
        _write_csv(path, config, ["n", "count", "mean", "stderr", "log_domain_max", "master_seed", "stream_id"], rows)
    return [path]


def run_split(config: ExperimentConfig) -> list[Path]:
    n = config.n[0]
    _refuse(n > _LIMITS["moment_n"], f"split n {n} > {_LIMITS['moment_n']}")
    _refuse(config.samples > _LIMITS["moment_samples"], f"samples {config.samples} > {_LIMITS['moment_samples']}")
    spec = _spec_for(config, n=n)
    epsilon = config.epsilon if config.epsilon is not None else default_epsilon(spec)
    seed = SeedSpec(config.seed, config.stream)
    e1, e2 = e1_e2_split(spec, epsilon, config.samples, seed, threads=config.threads)

    if config.format == "json":
        path = Path(config.out).with_suffix(".json")
        _write_json(path, config, {
            "n": n,
            "epsilon": epsilon,
            "e1": e1.to_dict(),
            "e2": e2.to_dict(),
            "total_mean": e1.mean + e2.mean,
        })
    else:
        path = Path(config.out).with_suffix(".csv")
        rows = [
            ("e1", e1.count, e1.mean, e1.stderr, e1.log_domain_max),
            ("e2", e2.count, e2.mean, e2.stderr, e2.log_domain_max),
            ("total", e1.count, e1.mean + e2.mean, "", ""),
        ]
        _write_csv(path, config, ["bucket", "count", "mean", "stderr", "log_domain_max"], rows,
                   extra_comments=[f"# epsilon {_fmt(epsilon)}", f"# n {n}"])
    return [path]


def run_xi_tail(config: ExperimentConfig) -> list[Path]:
    n = config.n[0]
    _refuse(config.samples > _LIMITS["xi_samples"], f"samples {config.samples} > {_LIMITS['xi_samples']}")
    seed = SeedSpec(config.seed, config.stream)
    estimates = xi_empirical_tail(n, config.t, config.samples, seed, threads=config.threads)
    rows = [
        (n, t, est.count, xi_tail_probability(t, n), est.mean, est.stderr)
        for t, est in zip(config.t, estimates)
    ]

    if config.format == "json":
        path = Path(config.out).with_suffix(".json")
        _write_json(path, config, {
            "rows": [
                {"n": r[0], "t": r[1], "count": r[2], "analytic": r[3], "empirical": r[4], "stderr": r[5]}
                for r in rows
            ],
        })
    else:
        path = Path(config.out).with_suffix(".csv")
        _write_csv(path, config, ["n", "t", "count", "analytic", "empirical", "stderr"], rows)
    return [path]


def run_roc(config: ExperimentConfig) -> list[Path]:
    n = config.n[0]
    _refuse(n > _LIMITS["roc_n"], f"roc n {n} > {_LIMITS['roc_n']}")
    _refuse(2 * config.trials * config.inner > _LIMITS["roc_work"],
            f"2*trials*inner = {2 * config.trials * config.inner} > {_LIMITS['roc_work']}")
    spec = _spec_for(config, n=n)
    seed = SeedSpec(config.seed, config.stream)
    roc = roc_experiment(spec, config.trials, config.inner, seed, threads=config.threads)

    if config.format == "json":
        path = Path(config.out).with_suffix(".json")
        _write_json(path, config, {
            "n": n,
            "tv_proxy": roc.tv_proxy,
            "points": [{"threshold": p[0], "fpr": p[1], "tpr": p[2]} for p in roc.points],
        })
    else:
        path = Path(config.out).with_suffix(".csv")
        _write_csv(path, config, ["threshold", "fpr", "tpr"], roc.points,
                   extra_comments=[f"# tv_proxy {_fmt(roc.tv_proxy)}"])
    return [path]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikedtensor",
        description="Detectability thresholds and seeded experiments for spiked complex Gaussian tensor models.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    flag_specs = [
        ("--config", "path to a key=value config file"),
        ("--d", "tensor order"),
        ("--r", "spike rank (defaults to the number of amplitudes)"),
        ("--lambdas", "comma-separated spike amplitudes"),
        ("--gram", "gram preset (identity | all-ones | two-eigenvalue:a,b) or JSON matrix"),
        ("--n", "mode dimension(s), comma-separated"),
        ("--samples", "Monte-Carlo sample count"),
        ("--outer", "outer sample count (direct moment method)"),
        ("--inner", "inner sample count (direct moment / likelihood ratio)"),
        ("--method", "moment estimator: haar | direct"),
        ("--epsilon", "split level (default: estimator rule)"),
        ("--bins", "envelope bin count"),
        ("--trials", "ROC trials per hypothesis"),
        ("--t", "tail threshold(s), comma-separated"),
        ("--seed", "master seed (u64)"),
        ("--stream", "stream id (u64)"),
        ("--out", "output path stem"),
        ("--format", "output format: csv | json"),
        ("--threads", "worker threads (results do not depend on this)"),
    ]
    for kind in KINDS:
        p = sub.add_parser(kind)
        for flag, help_text in flag_specs:
            p.add_argument(flag, type=str, default=None, help=help_text)
    return parser


_RUNNERS = {
    "threshold": run_threshold,
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
        _refuse(config.bins > _LIMITS["bins"], f"bins {config.bins} > {_LIMITS['bins']}")
        _refuse(len(config.t) > _LIMITS["t_count"], f"{len(config.t)} t values > {_LIMITS['t_count']}")
        _refuse(len(config.n) > _LIMITS["n_count"], f"{len(config.n)} n values > {_LIMITS['n_count']}")
        if args.kind == "cloud":
            paths, violations = run_cloud(config)
        else:
            paths = _RUNNERS[args.kind](config)
            violations = 0
    except (ConfigError, ParameterError, DomainError, DimensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except ArithmeticError as exc:  # moment._complement, a non-finite JSON value, or a float fault in a driver
        print(f"invariant violation: {exc}", file=sys.stderr)
        return _EXIT_INVARIANT
    duration = time.monotonic() - started
    for path in paths:
        print(f"wrote {path}")
    print(f"duration {duration:.3f}s")
    if violations:
        print(f"invariant violation: {violations} cloud points above the closed-form bound", file=sys.stderr)
        return _EXIT_INVARIANT
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
