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
import os
import sys
import time
from dataclasses import replace
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__, moment, rate
from .config import FIELDS, KINDS, ExperimentConfig, gram_matrices, parse_config_text, resolve_config
from .errors import ParameterError
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
from .rng import _HELD_CELLS, SeedSpec
from .spike import SpikeSpec
from .thresholds import threshold_report

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_INVARIANT = 2

# Desk-scale caps: a run past one is refused with exit 1 before it draws,
# not left to take minutes or gigabytes.  Each bounds a cost of today's
# drivers, or for `direct` a scope; the wall time and peak RSS (ru_maxrss)
# at each edge are from in-process `cli.main` at `--threads 1` on a
# 2-vCPU VM, every other field at its default unless named.  No cap is on
# n: the Haar corner draw of `moment`, `split` and `cloud` takes O(r^2)
# variates a block at every n (`rate._haar_corner_sets`; 2000 `moment` or
# `split` draws at n=2^20 took 0.013-0.017 s), and `config._N_MAX` bounds
# n in every kind.
# - `d`: every run first factors the Grams by one stacked `eigh`; `threshold
#   --d 1024` took 0.02 s (31 MB) at r=1 and 0.08 s (88 MB) at r=32.  The
#   Haar drivers' draws grow with d and r, and `work` caps them.
# - `r`: every run builds its spike at n = r before its own checks, whose
#   cost grows as about r^3, and `moment`, `split` and `cloud` build d
#   (r^2, r^2) complex mode maps (`spike.SpikeSvd`): `moment --n 32
#   --samples 10` at r=32 took 0.08 s (86 MB).
# - `mode_map_cells` caps those maps' d r^4 cells: at d=16, r=32 the same
#   `moment` took 0.47 s (295 MB); d=1024 at r=32 would hold 16 GiB.
# - `bins`: `bound.csv` has a row per bin; `cloud --bins 100000` took
#   0.16 s (56 MB).
# - `t_count`: `xi-tail` compares every sample with every t, which its
#   work prices; 1000 t took 0.05 s (37 MB) at 100 samples.
# - `n_count`: `moment` runs once per n; 64 n took 0.41 s (37 MB).
# - `samples` caps the draws whose per-draw arrays a run holds: `cloud`'s
#   points, the Haar `moment` and `split` draws and `direct`'s outer draws.
#   2M took 3.7 s (114 MB) in `cloud`, 0.53 s (113 MB) in `moment`, 0.56 s
#   (143 MB) in `split` and 0.39 s (116 MB) in `direct` at d=2, n=2, inner 1.
# - `direct_n` and `direct_d` set a scope, not a cost: `direct` estimates
#   m2 with a bias of about e^{2 n |X|_F^2} / inner, which grows with n, so
#   it is a cross-check of the Haar estimate at very small (n, d) only.  At
#   the edge, n=4, d=3, it took 0.03 s (38 MB).
# - `draw_cells` caps the largest array one draw holds: what a `direct`
#   lane holds (`moment._direct_cost`: n=4, outer 2, inner 54470 took
#   0.19 s, 176 MB, at every `--threads`, as `rng.map_streams` holds no
#   more lanes at once than fit in the cap),
#   one `xi-tail` sample's n exponentials (n=2^22: 0.06 s, 100 MB) and
#   what a `roc` run holds (`moment._roc_cost`: d=3, n=4, inner 53771 took
#   0.2 s, 155 MB; d=2, n=1181, inner 1, 0.4 s, 186 MB).
# - `work` caps a run's time.  Its unit is a multiply-add of the scoring
#   GEMM of `roc` and `direct`, about 0.1 ns (0.05-0.11 ns measured in every
#   driver), and each driver states its work in it beside its own code:
#   `rate._haar_work` for `moment`, `split` and `cloud`, `moment._direct_cost`,
#   `moment._roc_cost` and `moment._xi_work`.  `moment` counts every n of
#   its list.  At the edge:
#   - the Haar drivers took 1.0-1.8 s (41-154 MB), from d=1024 at r=1 (8160
#     draws) to d=3 at r=2, 8 and 32 (688296, 34952 and 546 draws); at d=3,
#     r=1 the `samples` cap binds first, and without the work cap `moment
#     --d 3 --n 64` at r=32 would take about 1.3 h for 2M draws;
#   - `direct` at d=3, outer 2000 took 1.0-1.2 s (71-73 MB) at n=3, r=1
#     (inner 27509) and n=4, r=2 (inner 12215), inner 1 2.0 s (108 MB, n=3,
#     outer 1828792), outer 16 1.1 s (142 MB, n=4, inner 41094) and d=2,
#     n=4, r=4, outer 16 1.7 s (77 MB, inner 32703);
#   - `roc` took 0.7-3.0 s in CSV and 1.2-3.0 s in JSON, and 44-140 MB,
#     from d=3, n=3, inner 1 (108022 trials) and d=2, n=2, inner 2000
#     (21277) to d=3, n=16 and d=2, n=64 at inner 500 (1301 and 1300), d=7,
#     n=6, inner 1 (59) and d=2, n=256, inner 50 (200), the slowest and
#     the largest; at d=2, n=32, r=32, inner 1363, its prior set is 94 % of
#     the cap, and 2 trials took 0.8-1.1 s (146 MB);
#   - `xi-tail` at n=2^20 took 0.72-1.0 s (52 MB, 127 samples), and at
#     1000 t 0.84-1.1 s at n=2 (4036623 samples) and 1.2-1.4 s at n=6
#     (3603160), 39-40 MB.
# - `xi_samples` caps `xi-tail`'s samples: 20M at n=6 took 0.80 s (37 MB).
_LIMITS = {
    "d": 1024,
    "r": 32,
    "bins": 100_000,
    "t_count": 1000,
    "n_count": 64,
    "samples": 2_000_000,
    "direct_n": 4,
    "direct_d": 3,
    "work": 2**34,
    "draw_cells": _HELD_CELLS,
    "mode_map_cells": 2**24,
    "xi_samples": 20_000_000,
}


def _fmt(x) -> str:
    if x is None:  # no value: an empty cell
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


# Rows a CSV slab formats in one %-call, and encoder pieces a JSON write
# joins: the writers hold one slab or batch, not the whole file.
_SLAB_ROWS = 2048
_JSON_BATCH = 1024


def _write_text(path: Path, pieces) -> None:
    """Write the strings of `pieces` to `path` whole or not at all: they
    stream into a new hidden sibling, which then replaces `path`.  On any
    failure the sibling is deleted, so an earlier `path` stays as it was.
    Exclusive create gives the sibling the mode `open(path, "w")` gives a
    new file."""
    temporary = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    file = open(temporary, "x", encoding="utf-8")
    try:
        with file:
            file.writelines(pieces)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, config: ExperimentConfig, header: list[str], rows, extra_comments: list[str]) -> None:
    lines = [f"# spikedtensor {__version__}", f"# config {config.one_line()}", *extra_comments, ",".join(header)]
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
        has_nan = bool(np.isnan(rows).any())
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        # one %-call a slab; "%.17g" writes what _fmt writes
        slabs = (rows[i:i + _SLAB_ROWS] for i in range(0, len(rows), _SLAB_ROWS))
        body = (line * len(slab) % tuple(slab.ravel().tolist()) for slab in slabs)
    else:
        cells = [[_fmt(v) for v in row] for row in rows]
        has_nan = any("nan" in row for row in cells)
        body = ["".join(",".join(row) + "\n" for row in cells)]
    if has_nan:  # infinities stay: a block rate of exactly -inf is a value
        raise ArithmeticError(f"{path.name} not written: NaN in a row")
    _write_text(path, chain(["\n".join(lines) + "\n"], body))


def _write_json(path: Path, config: ExperimentConfig, payload: dict) -> None:
    document = {
        "version": __version__,
        "config": dict(config.canonical_items()),
        "seed": {"master_seed": config.seed, "stream_id": config.stream},
    }
    document.update(payload)
    # the pieces join to json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    pieces = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).iterencode(document)

    def batches():
        try:
            while batch := "".join(islice(pieces, _JSON_BATCH)):
                yield batch
        except ValueError as exc:  # a NaN or an infinity, which JSON cannot hold
            raise ArithmeticError(f"{path.name} not written: {exc}") from None
        yield "\n"

    _write_text(path, batches())


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


def _refuse_work(what: str, work: int) -> None:
    """The one work cap, in the unit of every driver's cost statement."""
    _refuse(work > _LIMITS["work"], f"{what} work {work} > {_LIMITS['work']}")


def _spec_for(config: ExperimentConfig, n: int):
    grams = gram_matrices(config.gram, config.r, config.d)
    return SpikeSpec(np.array(config.lambdas), grams, n=n)


def run_threshold(config: ExperimentConfig, spike: SpikeSpec) -> None:
    record = threshold_report(spike).to_dict()
    _emit(config, lambda: {"report": record}, [(".csv", list(record), [list(record.values())], [])])


def run_cloud(config: ExperimentConfig, spike: SpikeSpec) -> None:
    _refuse(config.samples > _LIMITS["samples"], f"cloud samples {config.samples} > {_LIMITS['samples']}")
    _refuse_work("cloud", rate._haar_work(config.r, config.d, config.samples))
    spec = replace(spike, n=config.n[0])
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


def run_moment(config: ExperimentConfig, spike: SpikeSpec) -> None:
    # every n meets every cap before the first estimate
    haar = config.method == "haar"
    name, draws = ("samples", config.samples) if haar else ("outer", config.outer)
    _refuse(draws > _LIMITS["samples"], f"{name} {draws} > {_LIMITS['samples']}")
    _refuse(not haar and config.d > _LIMITS["direct_d"], f"direct method d {config.d} > {_LIMITS['direct_d']}")
    specs = [replace(spike, n=n) for n in config.n]
    work = 0
    for spec in specs:
        if haar:
            work += rate._haar_work(spec.r, spec.d, config.samples)
            continue
        _refuse(spec.n > _LIMITS["direct_n"], f"direct method n {spec.n} > {_LIMITS['direct_n']}")
        cost = moment._direct_cost(spec, config.outer, config.inner)
        _refuse(cost.held_cells > _LIMITS["draw_cells"],
                f"one direct lane holds {cost.held_cells} cells > {_LIMITS['draw_cells']}")
        work += cost.work
    _refuse_work("moment" if haar else "direct", work)
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


def run_split(config: ExperimentConfig, spike: SpikeSpec) -> None:
    n = config.n[0]
    _refuse(config.samples > _LIMITS["samples"], f"samples {config.samples} > {_LIMITS['samples']}")
    _refuse_work("split", rate._haar_work(config.r, config.d, config.samples))
    spec = replace(spike, n=n)
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


def run_xi_tail(config: ExperimentConfig, spike: SpikeSpec) -> None:
    n = config.n[0]
    _refuse(n > _LIMITS["draw_cells"], f"one xi-tail sample holds {n} cells > {_LIMITS['draw_cells']}")
    _refuse(config.samples > _LIMITS["xi_samples"], f"samples {config.samples} > {_LIMITS['xi_samples']}")
    _refuse_work("xi-tail", moment._xi_work(n, len(config.t), config.samples))
    seed = SeedSpec(config.seed, config.stream)
    estimates = xi_empirical_tail(n, config.t, config.samples, seed, threads=config.threads)
    header = ["n", "t", "count", "analytic", "empirical", "stderr"]
    rows = [
        (n, t, est.count, xi_tail_probability(t, n), est.mean, est.stderr)
        for t, est in zip(config.t, estimates)
    ]
    _emit(config, lambda: {"rows": [dict(zip(header, row)) for row in rows]}, [(".csv", header, rows, [])])


def run_roc(config: ExperimentConfig, spike: SpikeSpec) -> None:
    n = config.n[0]
    spec = replace(spike, n=n)
    cost = moment._roc_cost(spec, config.trials, config.inner)
    _refuse(cost.held_cells > _LIMITS["draw_cells"],
            f"one roc run holds {cost.held_cells} cells > {_LIMITS['draw_cells']}")
    _refuse_work("roc", cost.work)
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
        spike = _spec_for(config, n=config.r)  # refuses a bad spike before any work
        _RUNNERS[args.kind](config, spike)
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
