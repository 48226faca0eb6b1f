import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

import spikedtensor as st
import spikedtensor.cli as cli
from spikedtensor.cli import _fmt, main
from spikedtensor.config import KINDS
from spikedtensor.errors import ConfigError


def run(args):
    return main([str(a) for a in args])


def test_cli_import_loads_no_scipy():
    # scipy.special alone costs about 0.3 s of start-up per CLI call
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, spikedtensor.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_threshold_small_amplitude(tmp_path):
    out = tmp_path / "thr"
    assert run(["threshold", "--d", 3, "--lambdas", "0.1", "--out", out]) == 0
    report = json.loads((out.with_suffix(".json")).read_text())["report"]
    assert report["hoelder_ok"] is True and report["main_ok"] is True
    assert report["beta_d"] == pytest.approx(st.beta_d_second(3))


def test_threshold_all_ones_margins_coincide(tmp_path):
    out = tmp_path / "thr"
    assert run(["threshold", "--d", 3, "--lambdas", "0.4,0.3", "--gram", "all-ones", "--out", out]) == 0
    report = json.loads(out.with_suffix(".json").read_text())["report"]
    assert report["hoelder_margin"] == pytest.approx(report["main_margin"], abs=1e-12)


def test_threshold_matrix_case(tmp_path):
    out = tmp_path / "thr"
    assert run(["threshold", "--d", 2, "--lambdas", "0.5", "--out", out]) == 0
    report = json.loads(out.with_suffix(".json").read_text())["report"]
    assert report["d2_mu_max"] == pytest.approx(0.25, abs=1e-12)
    assert report["d2_ok"] is True


def test_cloud_writes_three_files_and_passes_bound(tmp_path):
    out = tmp_path / "cloud"
    code = run([
        "cloud", "--d", 3, "--lambdas", "1.0,1.0", "--gram", "identity",
        "--n", 8, "--samples", 4000, "--bins", 30, "--seed", 5, "--out", out,
    ])
    assert code == 0
    points = out.with_suffix(".points.csv").read_text().splitlines()
    assert points[0].startswith("# spikedtensor")
    assert points[2] == "x,y"
    envelope = out.with_suffix(".envelope.csv").read_text().splitlines()
    header_rows = [l for l in envelope if not l.startswith("#")]
    assert header_rows[0] == "bin_center,max_y,bound_value"
    bound = out.with_suffix(".bound.csv").read_text().splitlines()
    assert len([l for l in bound if not l.startswith("#")]) == 31  # header + all bins


def test_moment_json_sweeps_n(tmp_path):
    out = tmp_path / "mom"
    assert run(["moment", "--d", 3, "--lambdas", "0.3", "--n", "3,4", "--samples", 500, "--seed", 1, "--out", out]) == 0
    payload = json.loads(out.with_suffix(".json").read_text())
    assert [rec["n"] for rec in payload["estimates"]] == [3, 4]
    assert all(rec["mean"] > 0 for rec in payload["estimates"])


def test_moment_direct_method(tmp_path):
    out = tmp_path / "mom"
    assert run([
        "moment", "--method", "direct", "--d", 3, "--lambdas", "0.3", "--n", 3,
        "--outer", 100, "--inner", 50, "--seed", 1, "--out", out,
    ]) == 0
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["method"] == "direct"


def test_split_epsilon_above_eta_max_records_zero(tmp_path):
    out = tmp_path / "split"
    # eta_max = 0.25 for a single amplitude 0.5, so epsilon 1.0 empties E1
    assert run([
        "split", "--d", 3, "--lambdas", "0.5", "--n", 4, "--samples", 400,
        "--epsilon", 1.0, "--seed", 2, "--out", out,
    ]) == 0
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["e1"]["mean"] == 0.0
    assert payload["total_mean"] == payload["e2"]["mean"]


def test_split_empty_bucket_writes_null_log_domain_max(tmp_path):
    # at the default epsilon no draw of this spike lands in E1
    out = tmp_path / "split"
    assert run(["split", "--lambdas", "0.4,0.2", "--n", 8, "--out", out]) == 0
    text = out.with_suffix(".json").read_text()
    payload = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-finite JSON value {c}"))
    assert payload["e1"]["count"] > 0 and payload["e1"]["mean"] == 0.0
    assert payload["e1"]["log_domain_max"] is None
    assert math.isfinite(payload["e2"]["log_domain_max"])


@pytest.mark.parametrize("flags, epsilon", [
    ("--d 3 --lambdas 0.1 --n 8 --samples 2000 --seed 88", "0.001"),
    ("--lambdas 0.3 --n 2 --samples 3", "1e-300"),
])
def test_split_without_a_complement_of_e1_scores_e2(tmp_path, flags, epsilon):
    # here no double v has e1 + v == total: e2 is scored as is and e1 is its
    # exact complement, so the partition still holds bit for bit
    split, mom = tmp_path / "split", tmp_path / "mom"
    assert run(["split", *flags.split(), "--epsilon", epsilon, "--out", split]) == 0
    assert run(["moment", *flags.split(), "--out", mom]) == 0
    payload = json.loads(split.with_suffix(".json").read_text())
    total = json.loads(mom.with_suffix(".json").read_text())["estimates"][0]["mean"]
    assert payload["e1"]["mean"] + payload["e2"]["mean"] == payload["total_mean"] == total


def _overflow_exits_two(tmp_path, capsys, fmt):
    # log m2 is about 2600 here, so the mean overflows to inf and the
    # batch-means stderr is NaN: JSON holds neither, CSV no NaN
    out = tmp_path / "overflow"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["moment", "--lambdas", 30, "--n", 8, "--samples", 2000, "--format", fmt, "--out", out]) == 2
    assert [str(w.message) for w in caught] == []  # no NumPy RuntimeWarning on stderr
    err = capsys.readouterr().err
    assert err.startswith(f"invariant violation: overflow.{fmt} not written")
    assert err.count("\n") == 1  # the one line, no traceback
    assert not list(tmp_path.iterdir())


def test_non_finite_json_value_exits_two(tmp_path, capsys):
    _overflow_exits_two(tmp_path, capsys, "json")


def test_nan_csv_value_exits_two(tmp_path, capsys):
    _overflow_exits_two(tmp_path, capsys, "csv")


def test_cloud_json_exits_one(tmp_path, capsys):
    out = tmp_path / "cl"
    assert run(["cloud", "--d", 3, "--lambdas", "1.0", "--n", 4, "--samples", 200, "--format", "json", "--out", out]) == 1
    assert "config error: field 'format': cloud writes csv only" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_xi_tail_analytic_column(tmp_path):
    out = tmp_path / "xi"
    assert run(["xi-tail", "--n", 8, "--t", "0.5", "--samples", 2000, "--seed", 3, "--out", out]) == 0
    rows = [l for l in out.with_suffix(".csv").read_text().splitlines() if not l.startswith("#")]
    header, row = rows[0].split(","), rows[1].split(",")
    analytic = float(row[header.index("analytic")])
    assert analytic == pytest.approx(0.75**7, rel=1e-15)


def test_roc_outputs_tv_proxy(tmp_path):
    out = tmp_path / "roc"
    assert run(["roc", "--d", 3, "--lambdas", "0.4", "--n", 3, "--trials", 60, "--inner", 40, "--seed", 4, "--out", out, "--format", "json"]) == 0
    payload = json.loads(out.with_suffix(".json").read_text())
    assert 0.0 <= payload["tv_proxy"] <= 1.0
    assert len(payload["points"]) > 0


def test_csv_floats_round_trip(tmp_path):
    out = tmp_path / "xi"
    run(["xi-tail", "--n", 5, "--t", "0.3", "--samples", 1000, "--seed", 9, "--out", out])
    rows = [l for l in out.with_suffix(".csv").read_text().splitlines() if not l.startswith("#")]
    header, row = rows[0].split(","), rows[1].split(",")
    analytic = float(row[header.index("analytic")])
    assert analytic == st.xi_tail_probability(0.3, 5)  # 17 significant digits survive the round trip


@given(hst.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
@example(-2.2250738585072e-308)
@example(1.7976931348623157e308)
def test_percent_format_matches_fmt(x):
    # the array path of the CSV writer formats with one %-call; it must
    # write the same text as the per-value path
    assert "%.17g" % x == _fmt(x) == _fmt(np.float64(x))


def test_config_file_and_flag_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("d=3\nlambdas=0.2\nsamples=300\nseed=5\n")
    out = tmp_path / "mom"
    assert run(["moment", "--config", cfg, "--seed", 6, "--n", 3, "--out", out]) == 0
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["config"]["seed"] == "6"  # flag wins
    assert payload["config"]["samples"] == "300"  # file wins over default


def test_bad_config_exits_one(tmp_path, capsys):
    out = tmp_path / "x"
    assert run(["threshold", "--gram", "mystery", "--out", out]) == 1
    assert "config error" in capsys.readouterr().err
    assert run(["moment", "--n", 513, "--samples", 100, "--out", out]) == 1
    assert "desk-scale" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_amplitude_exits_one(tmp_path, capsys, value):
    out = tmp_path / "thr"
    assert run(["threshold", f"--lambdas={value},0.3", "--out", out]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.with_suffix(".json").exists()


@pytest.mark.parametrize("kind", ["threshold", "cloud", "moment", "split", "xi-tail", "roc"])
def test_overflowing_spike_exits_one_before_any_file(tmp_path, capsys, kind):
    # 2 n sum(lambdas)^2 is inf: eta_max and every exponent would overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([kind, "--lambdas", "1e200", "--n", 4, "--samples", 10, "--out", tmp_path / "o"]) == 1
    assert [str(w.message) for w in caught] == []
    assert "config error: 2 n sum(lambdas)^2 must be a finite float" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["roc", "--n", 3, "--trials", 4, "--inner", 0],
    ["moment", "--method", "direct", "--n", 3, "--outer", 4, "--inner", 0],
])
def test_observation_drivers_refuse_zero_inner(tmp_path, capsys, args):
    assert run(args + ["--out", tmp_path / "o"]) == 1
    assert "inner >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    # within the work caps, but one draw's contraction holds 180M and 80M cells
    ["roc", "--d", 3, "--n", 6, "--trials", 2, "--inner", 5_000_000],
    ["moment", "--method", "direct", "--d", 3, "--n", 4, "--outer", 2, "--inner", 5_000_000],
    # one draw's noise tensor holds 5^12 cells
    ["roc", "--d", 12, "--n", 5, "--trials", 2, "--inner", 1],
    # a contraction of 4,194,300 cells, under the cap, but rotation draws of d n r inner = 8,388,600
    ["roc", "--d", 2, "--n", 6, "--lambdas", "0.3,0.2", "--trials", 4, "--inner", 349525],
])
def test_observation_drivers_cap_one_draw(tmp_path, capsys, args):
    assert run(args + ["--out", tmp_path / "o"]) == 1
    assert "desk-scale limit exceeded: one draw holds" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_reproducibility_and_thread_independence(tmp_path):
    out = tmp_path / "mom"
    base = ["moment", "--d", 3, "--lambdas", "0.3", "--n", 4, "--samples", 600, "--seed", 11, "--out", out]
    assert run(base + ["--threads", 1]) == 0
    first = out.with_suffix(".json").read_bytes()
    assert run(base + ["--threads", 1]) == 0
    assert out.with_suffix(".json").read_bytes() == first
    # the thread count only schedules work: files stay byte-identical
    assert run(base + ["--threads", 4]) == 0
    assert out.with_suffix(".json").read_bytes() == first


def test_cloud_reproducibility(tmp_path):
    out = tmp_path / "cl"
    base = ["cloud", "--d", 3, "--lambdas", "1.0", "--n", 6, "--samples", 2000, "--bins", 20, "--seed", 12, "--out", out]
    assert run(base + ["--threads", 1]) == 0
    first = out.with_suffix(".points.csv").read_bytes()
    assert run(base + ["--threads", 1]) == 0
    assert out.with_suffix(".points.csv").read_bytes() == first
    assert run(base + ["--threads", 3]) == 0
    assert out.with_suffix(".points.csv").read_bytes() == first


def test_moment_zero_amplitude_test_mode(tmp_path):
    out = tmp_path / "mom0"
    assert run(["moment", "--d", 3, "--lambdas", "0.0", "--n", 4, "--samples", 200, "--seed", 1, "--out", out]) == 0
    record = json.loads(out.with_suffix(".json").read_text())["estimates"][0]
    assert record["mean"] == 1.0
    assert record["stderr"] == 0.0


def test_threshold_rejects_zero_amplitude(tmp_path, capsys):
    # the degenerate test mode only makes sense for the sampling drivers
    assert run(["threshold", "--d", 3, "--lambdas", "0.0", "--out", tmp_path / "t"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cloud_bound_breach_exits_two(tmp_path, monkeypatch, capsys):
    def doctored(spec, count, rng, bins, threads=1):
        cloud = st.sample_grf_cloud(spec, count, rng, bins, threads=threads)
        points = cloud.points.copy()
        points[0, 1] = 1.0  # impossible rate value, above every bound
        return st.GrfCloud(points=points, eta_max=cloud.eta_max, d=cloud.d, envelope=cloud.envelope)

    monkeypatch.setattr(cli, "sample_grf_cloud", doctored)
    code = run(["cloud", "--d", 3, "--lambdas", "1.0", "--n", 6, "--samples", 200, "--bins", 10,
                "--seed", 1, "--out", tmp_path / "cl"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "invariant violation: 1 cloud points above the closed-form bound\n"
    # the files are written before the check, for inspection
    assert captured.out.count("wrote ") == 3
    assert len(list(tmp_path.glob("cl.*.csv"))) == 3


def test_complement_failure_exits_two(tmp_path, monkeypatch, capsys):
    import spikedtensor.moment as moment

    def no_complement(total, part):
        raise ArithmeticError("could not form an exact complement")

    monkeypatch.setattr(moment, "_complement", no_complement)
    out = tmp_path / "split"
    assert run(["split", "--d", 3, "--lambdas", "0.4,0.2", "--n", 4, "--samples", 200, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "invariant violation: could not form an exact complement" in err
    assert "Traceback" not in err
    assert not out.with_suffix(".json").exists()


def _list_cap_args(key, count):
    if key == "bins":
        return ["cloud", "--d", 3, "--lambdas", "1.0", "--n", 4, "--samples", 200, "--bins", count]
    if key == "t_count":
        return ["xi-tail", "--n", 4, "--samples", 100, "--t", ",".join(str(i / count) for i in range(count))]
    return ["moment", "--d", 3, "--lambdas", "0.3", "--samples", 4, "--n", ",".join(str(2 + i) for i in range(count))]


@pytest.mark.parametrize("key", ["bins", "t_count", "n_count"])
def test_list_caps(tmp_path, capsys, key):
    from spikedtensor.cli import _LIMITS

    cap = _LIMITS[key]
    out = tmp_path / key
    assert run(_list_cap_args(key, cap) + ["--out", out, "--threads", 1]) == 0
    capsys.readouterr()
    assert run(_list_cap_args(key, cap + 1) + ["--out", tmp_path / "over", "--threads", 1]) == 1
    assert "desk-scale" in capsys.readouterr().err
    assert not list(tmp_path.glob("over*"))


_FLAGS = ("--config", "--d", "--r", "--lambdas", "--gram", "--n", "--samples", "--outer", "--inner", "--method",
          "--epsilon", "--bins", "--trials", "--t", "--seed", "--stream", "--out", "--format", "--threads")

# each kind with every flag it reads, and the overrides `main` hands to
# `resolve_config` for it: every flag but --config, keyed without dashes,
# its value as the string typed
_SURFACE = {
    "threshold": (
        "--d 3 --r 2 --lambdas 0.5,0.3 --gram two-eigenvalue:1.8,0.2 --out thr --format csv",
        {"d": "3", "r": "2", "lambdas": "0.5,0.3", "gram": "two-eigenvalue:1.8,0.2", "out": "thr", "format": "csv"},
    ),
    "cloud": (
        "--d 3 --r 2 --lambdas 1.0,1.0 --gram identity --n 16 --samples 1000 --bins 30 --seed 11 --stream 2 "
        "--out cl --format csv --threads 2",
        {"d": "3", "r": "2", "lambdas": "1.0,1.0", "gram": "identity", "n": "16", "samples": "1000", "bins": "30",
         "seed": "11", "stream": "2", "out": "cl", "format": "csv", "threads": "2"},
    ),
    "moment": (
        "--d 3 --r 1 --lambdas 0.3 --gram all-ones --n 4,8 --samples 2000 --outer 40 --inner 30 --method direct "
        "--seed 3 --stream 1 --out mom --format json --threads 1",
        {"d": "3", "r": "1", "lambdas": "0.3", "gram": "all-ones", "n": "4,8", "samples": "2000", "outer": "40",
         "inner": "30", "method": "direct", "seed": "3", "stream": "1", "out": "mom", "format": "json", "threads": "1"},
    ),
    "split": (
        "--d 3 --r 2 --lambdas 0.4,0.2 --gram [[1,0],[0,1]] --n 8 --samples 2001 --epsilon 0.005 --seed 4 "
        "--stream 0 --out sp --format csv --threads 2",
        {"d": "3", "r": "2", "lambdas": "0.4,0.2", "gram": "[[1,0],[0,1]]", "n": "8", "samples": "2001",
         "epsilon": "0.005", "seed": "4", "stream": "0", "out": "sp", "format": "csv", "threads": "2"},
    ),
    "xi-tail": (
        "--n 8 --t 0.3,0.5 --samples 1000 --seed 5 --stream 7 --out xi --format json --threads 1",
        {"n": "8", "t": "0.3,0.5", "samples": "1000", "seed": "5", "stream": "7", "out": "xi", "format": "json",
         "threads": "1"},
    ),
    "roc": (
        "--d 3 --r 1 --lambdas 0.4 --gram identity --n 3 --trials 50 --inner 20 --seed 1 --stream 3 --out roc "
        "--format json --threads 2",
        {"d": "3", "r": "1", "lambdas": "0.4", "gram": "identity", "n": "3", "trials": "50", "inner": "20",
         "seed": "1", "stream": "3", "out": "roc", "format": "json", "threads": "2"},
    ),
}


@pytest.mark.parametrize("kind", sorted(_SURFACE))
def test_every_kind_parses_its_flags_to_the_same_overrides(tmp_path, monkeypatch, kind):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed=9\n")
    calls = []

    def recording(kind, file_values, overrides):
        calls.append((kind, file_values, overrides))
        raise ConfigError("recorded")

    monkeypatch.setattr(cli, "resolve_config", recording)
    flags, overrides = _SURFACE[kind]
    assert main([kind, *flags.split(), "--config", str(cfg)]) == 1
    assert calls == [(kind, {"seed": "9"}, overrides)]
    # without --config, no file values
    assert main([kind, *flags.split()]) == 1
    assert calls[1] == (kind, {}, overrides)


@pytest.mark.parametrize("argv", [["--help"], ["moment", "--help"]])
def test_help_lists_every_flag_and_kind(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: spikedtensor")
    assert [word for word in (*_FLAGS, *KINDS) if word not in out] == []


@pytest.mark.parametrize("argv", [["bogus", "--n", "4"], [], ["--seed", "1"]])
def test_unknown_or_missing_kind_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "kind" in capsys.readouterr().err
