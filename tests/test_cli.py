import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

import spikedtensor as st
import spikedtensor.cli as cli
from spikedtensor.cli import _fmt, main
from spikedtensor.config import KINDS, resolve_config
from spikedtensor.errors import ParameterError


def run(args):
    return main([str(a) for a in args])


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy.special alone costs about 0.3 s of start-up per CLI call; the
    # estimates, their reduction and the likelihood ratios run without it too
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, spikedtensor.cli as cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "for kind in ('moment', 'split', 'roc'):\n"
        "    args = ['--n', '4', '--samples', '100', '--trials', '10', '--inner', '5', '--format', 'csv']\n"
        "    assert cli.main([kind, *args, '--out', kind]) == 0\n"
        "print(loaded())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["moment.csv", "roc.csv", "split.csv"]


def test_every_exported_name_resolves():
    assert [name for name in st.__all__ if not hasattr(st, name)] == []
    assert len(set(st.__all__)) == len(st.__all__)


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


def test_split_zero_spike_needs_an_epsilon(tmp_path, capsys):
    out = tmp_path / "split0"
    assert run(["split", "--lambdas", 0, "--n", 4, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "config error: the default epsilon rule gives 0 for a zero spike: set --epsilon > 0" in err
    assert not list(tmp_path.iterdir())
    # with an epsilon every draw has eta = 0 <= epsilon: all of the mean, 1, is E2
    assert run(["split", "--lambdas", 0, "--n", 4, "--samples", 200, "--epsilon", 0.1, "--out", out]) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    assert (doc["e1"]["mean"], doc["e2"]["mean"], doc["total_mean"]) == (0.0, 1.0, 1.0)


def test_split_empty_bucket_writes_null_log_domain_max(tmp_path):
    # at the default epsilon no draw of this spike lands in E1: it has no
    # stderr and no largest exponent, null in JSON and an empty or -inf
    # cell in CSV
    out = tmp_path / "split"
    assert run(["split", "--lambdas", "0.4,0.2", "--n", 8, "--out", out]) == 0
    text = out.with_suffix(".json").read_text()
    payload = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-finite JSON value {c}"))
    assert payload["e1"]["count"] > 0 and payload["e1"]["mean"] == 0.0
    assert payload["e1"]["log_domain_max"] is None and payload["e1"]["stderr"] is None
    assert math.isfinite(payload["e2"]["log_domain_max"]) and payload["e2"]["stderr"] > 0
    assert run(["split", "--lambdas", "0.4,0.2", "--n", 8, "--format", "csv", "--out", out]) == 0
    rows = out.with_suffix(".csv").read_text().splitlines()
    assert rows[-3].startswith("e1,") and rows[-3].endswith(",0,,-inf")


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
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["moment", "--lambdas", 30, "--n", 8, "--samples", 2000, "--format", fmt, "--out", out]) == 2
    assert [str(w.message) for w in caught] == []  # no NumPy RuntimeWarning on stderr
    err = capsys.readouterr().err
    assert err.startswith(f"invariant violation: overflow.{fmt} not written")
    assert err.count("\n") == 1  # the one line, no traceback
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # no temporary file either


def test_non_finite_json_value_exits_two(tmp_path, capsys):
    _overflow_exits_two(tmp_path, capsys, "json")


def test_nan_csv_value_exits_two(tmp_path, capsys):
    _overflow_exits_two(tmp_path, capsys, "csv")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_refused_file_leaves_an_earlier_output_as_it_was(tmp_path, capsys, fmt):
    # JSON refuses the inf part-way through the document, CSV the NaN
    # before it opens a file; neither may touch the earlier output
    (tmp_path / f"overflow.{fmt}").write_text("an earlier output\n")
    _overflow_exits_two(tmp_path, capsys, fmt)


def test_written_files_take_the_mode_of_open_and_replace_what_was_there(tmp_path):
    out = tmp_path / "thr"
    target = tmp_path / "elsewhere.csv"
    target.write_text("not an output\n")
    out.with_suffix(".csv").symlink_to(target)
    previous = os.umask(0o027)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        for _ in range(2):  # over a symlink, then over a read-only file
            assert run(["threshold", "--lambdas", "0.1", "--format", "csv", "--out", out]) == 0
            path = out.with_suffix(".csv")
            assert not path.is_symlink() and path.read_text().startswith("# spikedtensor ")
            assert path.stat().st_mode == (tmp_path / "reference").stat().st_mode
            path.chmod(0o444)
    finally:
        os.umask(previous)
    assert target.read_text() == "not an output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["elsewhere.csv", "reference", "thr.csv"]


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


_SLAB = cli._SLAB_ROWS


@pytest.mark.parametrize("m", [1, _SLAB - 1, _SLAB, _SLAB + 1, 3 * _SLAB + 7])
@pytest.mark.parametrize("k", [1, 3])
def test_csv_slabs_write_the_text_of_one_percent_call(tmp_path, m, k):
    values = np.array([-np.inf, np.inf, -0.0, 0.0, 5e-324, 1e308, 3.0, -12.0, 2.0**53, 0.1])
    rng = np.random.default_rng(m * k)
    rows = np.where(rng.random((m, k)) < 0.5, rng.choice(values, (m, k)), rng.standard_normal((m, k)))
    config = resolve_config("cloud", {}, {"out": str(tmp_path / "o")})
    path = tmp_path / "o.points.csv"
    cli._write_csv(path, config, ["x"] * k, rows, ["# a comment"])
    head = f"# spikedtensor {st.__version__}\n# config {config.one_line()}\n# a comment\n{','.join(['x'] * k)}\n"
    body = (",".join(["%.17g"] * k) + "\n") * m % tuple(rows.ravel().tolist())
    assert path.read_bytes() == (head + body).encode("utf-8")


def test_csv_writer_holds_a_slab_not_the_file(tmp_path):
    rows = np.random.default_rng(0).standard_normal((200_000, 2))
    config = resolve_config("cloud", {}, {"out": str(tmp_path / "o")})
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "o.points.csv", config, ["x", "y"], rows, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a whole-file string and tuple of floats take 24 MB here


_JSON_RUNS = {
    "threshold": "--d 3 --lambdas 0.3,0.2",
    "moment": "--lambdas 0.3 --n 4,8 --samples 500",
    "split": "--lambdas 0.3 --n 8 --samples 500",
    "xi-tail": "--n 8 --t 0.1,0.5,0.9 --samples 500",
    "roc": "--lambdas 0.4 --n 3 --trials 400 --inner 20",  # about 800 curve rows: several batches
}


@pytest.mark.parametrize("kind", sorted(_JSON_RUNS))
def test_json_streams_the_bytes_of_dumps(tmp_path, monkeypatch, kind):
    documents = []
    write = cli._write_json

    def spy(path, config, payload):
        documents.append({"version": st.__version__, "config": dict(config.canonical_items()),
                          "seed": {"master_seed": config.seed, "stream_id": config.stream}, **payload})
        write(path, config, payload)

    monkeypatch.setattr(cli, "_write_json", spy)
    out = tmp_path / "o"
    assert run([kind, *_JSON_RUNS[kind].split(), "--format", "json", "--threads", 1, "--out", out]) == 0
    [document] = documents
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert out.with_suffix(".json").read_bytes() == text.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["o.json"]


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


@pytest.mark.parametrize("literal", ["[[1,NaN],[NaN,1]]", "[[1,Infinity],[Infinity,1]]", "[[NaN,0],[0,1]]"])
@pytest.mark.parametrize("kind", KINDS)
def test_non_finite_gram_literal_exits_one_before_any_draw(tmp_path, monkeypatch, capsys, kind, literal):
    # every comparison of the Gram checks is False on NaN, and an infinity
    # warns in the Hermitian check: a non-finite entry is refused first
    monkeypatch.setitem(cli._RUNNERS, kind, lambda config, spike: pytest.fail(f"{kind} ran with a non-finite Gram"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([kind, "--lambdas", "0.5,0.3", "--gram", literal, "--n", 4, "--samples", 100,
                    "--out", tmp_path / "o"]) == 1
    assert [str(w.message) for w in caught] == []
    assert "config error: field 'gram': gram 0 has a non-finite entry" in capsys.readouterr().err
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
    # roc's prior dictionary holds 5M n^d = 1.08G cells, a direct lane's set 5M (d n r + n^d) = 380M
    ["roc", "--d", 3, "--n", 6, "--trials", 2, "--inner", 5_000_000],
    ["moment", "--method", "direct", "--d", 3, "--n", 4, "--outer", 2, "--inner", 5_000_000],
    # a dictionary of one prior spike holds 5^12 = 244M cells
    ["roc", "--d", 12, "--n", 5, "--trials", 2, "--inner", 1],
    # a prior set of d n r inner = 8,388,600 cells
    ["roc", "--d", 2, "--n", 6, "--lambdas", "0.3,0.2", "--trials", 4, "--inner", 349525],
    # prior dictionaries of inner n^d = 16,777,216 and 6,291,432 cells
    ["roc", "--d", 3, "--n", 4, "--trials", 2, "--inner", 262144],
    ["roc", "--d", 2, "--n", 6, "--lambdas", "0.3,0.2", "--trials", 2, "--inner", 174762],
    # at inner 1 a trial outgrows the dictionary: 3 x 1182^2 cells and more
    # (2047, the edge of the prior set and dictionary alone, peaked at 420 MB)
    ["roc", "--d", 2, "--n", 1182, "--trials", 2, "--inner", 1],
])
def test_observation_drivers_cap_one_draw(tmp_path, capsys, args):
    assert run(args + ["--out", tmp_path / "o"]) == 1
    holds = "one direct lane holds" if args[0] == "moment" else "one roc run holds"
    assert f"desk-scale limit exceeded: {holds}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


class _Reached(Exception):
    """Raised by a stubbed driver: the run was admitted."""


def _stub_drivers(monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached

    for name in ("threshold_report", "sample_grf_cloud", "second_moment_haar_mc", "second_moment_direct_mc",
                 "e1_e2_split", "xi_empirical_tail", "roc_experiment"):
        monkeypatch.setattr(cli, name, reached)


# Every cap of `cli._LIMITS` at its edges, in groups: each group names its
# cap and, for each case, the command at the largest admitted value v and
# the value itself.  v reaches the driver and v + 1 is refused by that cap.
# The `work` cap's edges are grouped by the cost statement they cross, and
# the `samples` cap's by the drivers it bounds.  The `roc` values are where
# `_roc_cost` crosses its caps: at d=3, n=4, 76 cells an inner draw (12
# prior set, 64 dictionary) and a trial of 128 + 12 + 2 inner give
# 4,194,278 cells at inner 53771 and 4,194,356 at 53772; at d=3, n=16,
# inner 500 a trial's work of 2 x 500 x 2 x 4096 GEMM multiply-adds and
# 4,468,992 in their equivalents, and the prior set's 704,480,000, give
# 17,176,430,592 at 1301 trials and 17,189,091,584 at 1302 (1356 before
# the set was priced).  The `direct` values are where
# `moment._direct_cost` crosses its caps, which count as `roc`'s do: at
# d=3, n=3, r=1, outer 2000, the work is 17,179,574,560 at inner 27509 and
# 17,180,198,400 at 27510, over 2^34; at d=3, n=4, r=1 a lane holds 12 + 64
# cells an inner draw and an observation of 64 + inner, 4,194,254 cells at
# inner 54470 and 4,194,331 at 54471, over 2^22.  The Haar values are where
# `rate._haar_work` crosses 2^34: 8 r^4 + 2048 r^2 = 2056 a mode at r=1, so
# 8160 x 1024 x 2056 = 17,179,607,040, half as many draws for two n, and
# 546 x 3 x 10,485,760 at r=32.  `xi-tail`'s 128 an exponential and 4 a
# comparison with a t give 17,045,652,980 at n=2^20, 3 t and 127 samples
# and 2^34 + 1536 at 128, the edge before the comparisons were priced, and
# 2^34 - 1696 at n=2, 1000 t and 4,036,623 samples.
_CAP_EDGES = {
    "d": ("d", [(lambda v: f"threshold --d {v} --lambdas 0.3", 1024)]),
    "r": ("r", [(lambda v: "threshold --lambdas " + ",".join(["0.01"] * v), 32)]),
    "bins": ("bins", [(lambda v: f"cloud --d 3 --n 4 --samples 200 --bins {v}", 100_000)]),
    "t_count": ("t_count", [(lambda v: "xi-tail --n 4 --samples 100 --t " + ",".join(str(i / v) for i in range(v)),
                             1000)]),
    "n_count": ("n_count", [(lambda v: "moment --samples 4 --n " + ",".join(str(2 + i) for i in range(v)), 64)]),
    "cloud_samples": ("samples", [(lambda v: f"cloud --samples {v}", 2_000_000)]),
    "moment_samples": ("samples", [(lambda v: f"moment --samples {v}", 2_000_000),
                                   (lambda v: f"split --samples {v}", 2_000_000),
                                   (lambda v: f"moment --method direct --d 2 --n 2 --inner 1 --outer {v}", 2_000_000)]),
    "direct_n": ("direct_n", [(lambda v: f"moment --method direct --n {v}", 4)]),
    "direct_d": ("direct_d", [(lambda v: f"moment --method direct --d {v} --n 3", 3)]),
    "direct_work": ("work", [(lambda v: f"moment --method direct --n 3 --outer 2000 --inner {v}", 27509),
                             (lambda v: f"moment --method direct --lambdas 0.4,0.2 --n 4 --outer 2000 --inner {v}",
                              12215),
                             (lambda v: f"moment --method direct --n 3 --inner 1 --outer {v}", 1_828_792)]),
    "haar_work": ("work", [(lambda v: f"moment --d 1024 --lambdas 0.3 --samples {v}", 8160),
                           (lambda v: f"moment --d 1024 --lambdas 0.3 --n 4,8 --samples {v}", 4080),
                           (lambda v: f"split --d 1024 --lambdas 0.3 --samples {v}", 8160),
                           (lambda v: f"cloud --d 1024 --lambdas 0.3 --samples {v}", 8160),
                           (lambda v: "moment --n 64 --lambdas " + ",".join(["0.01"] * 32) + f" --samples {v}", 546)]),
    "roc_work": ("work", [(lambda v: f"roc --d 3 --n 16 --inner 500 --trials {v}", 1301),
                          (lambda v: f"roc --d 3 --n 3 --inner 1 --trials {v}", 108_022)]),
    "draw_cells": ("draw_cells", [(lambda v: f"moment --method direct --n 4 --outer 2 --inner {v}", 54_470),
                                  (lambda v: f"xi-tail --n {v} --samples 1", 2**22),
                                  (lambda v: f"roc --d 3 --n 4 --trials 2 --inner {v}", 53_771),
                                  (lambda v: f"roc --d 2 --n 6 --lambdas 0.3,0.2 --trials 2 --inner {v}", 67_648)]),
    "mode_map_cells": ("mode_map_cells", [(lambda v: f"moment --d {v} --n 64 --samples 10 --lambdas "
                                           + ",".join(["0.01"] * 32), 16)]),
    "xi_samples": ("xi_samples", [(lambda v: f"xi-tail --n 2 --samples {v}", 20_000_000)]),
    "xi_work": ("work", [(lambda v: f"xi-tail --n 1048576 --samples {v}", 127),
                         (lambda v: "xi-tail --n 2 --t " + ",".join(str(i / 1000) for i in range(1000))
                          + f" --samples {v}", 4_036_623)]),
}


def test_every_cap_has_an_edge_case():
    assert sorted({cap for cap, _ in _CAP_EDGES.values()}) == sorted(cli._LIMITS)


@pytest.mark.parametrize("group", sorted(_CAP_EDGES))
def test_cap_edges(tmp_path, monkeypatch, capsys, group):
    _stub_drivers(monkeypatch)
    cap, cases = _CAP_EDGES[group]
    for command, largest in cases:
        with pytest.raises(_Reached):
            run(command(largest).split() + ["--out", tmp_path / "o"])
        assert run(command(largest + 1).split() + ["--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: desk-scale limit exceeded: ") and err.endswith(f" > {cli._LIMITS[cap]}\n")
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("d, n, lambdas, near", [(3, 4, "0.3", 52428), (2, 6, "0.3,0.2", 69905)])
def test_roc_cap_edge(tmp_path, monkeypatch, capsys, d, n, lambdas, near):
    # `near` is the edge of a count of an inner draw's cells alone, (n^(d-1) r
    # or d n r) + n^d, the larger of the two; the run holds d n r + n^d cells
    # an inner draw (its prior set and dictionary) and a trial of 2 n^d +
    # d n r + 2 inner (`moment._roc_cost`), which moves the edge off it.  The
    # CLI refuses roc exactly when the run's cells pass `draw_cells`: at
    # `near`, and at the edge, whose largest admitted inner reaches the
    # driver while one more is refused.
    import spikedtensor.moment as moment

    _stub_drivers(monkeypatch)
    r = lambdas.count(",") + 1
    spec = st.SpikeSpec([0.3] * r, st.GramSet((np.eye(r),) * d), n=n)
    cap = cli._LIMITS["draw_cells"]

    def cells(inner):
        return moment._roc_cost(spec, 2, inner).held_cells

    lo, hi = 1, 2 * near
    assert cells(lo) <= cap < cells(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if cells(mid) <= cap else (lo, mid)
    assert abs(lo - near) < near // 10 and lo == (cap - 2 * n**d - d * n * r) // (d * n * r + n**d + 2)
    for inner in (near, lo, lo + 1):
        args = ["roc", "--d", d, "--n", n, "--lambdas", lambdas, "--trials", 2, "--inner", inner]
        if cells(inner) <= cap:
            with pytest.raises(_Reached):
                run(args + ["--out", tmp_path / "o"])
        else:
            assert run(args + ["--out", tmp_path / "o"]) == 1
            assert f"one roc run holds {cells(inner)} cells > {cap}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, admitted", [
    # 2000 x 10000 terms took 8.6 s at n=3 and 13.8 s at n=4 on 0.22.0's set
    # an observation, which a cap priced at 1 a term refused; one set a lane
    # takes 0.4 s and 0.7 s, under the edge's work
    ("moment --method direct --n 3 --outer 2000 --inner 10000", True),
    ("moment --method direct --n 4 --outer 2000 --inner 10000", True),
    ("moment --method direct --n 3 --outer 2000 --inner 30000", False),
    ("moment --method direct --n 4 --outer 2000 --inner 1000", True),
    # an outer draw pays for its noise tensor: 2M draws at d=3, n=3 cost 21634 multiply-adds each
    ("moment --method direct --d 2 --n 2 --outer 2000000 --inner 1", True),
    ("moment --method direct --n 3 --outer 2000000 --inner 1", False),
    # the Haar drivers pay for d and r: 20000 draws took 2.5 s (`moment`) and 3.7 s (`cloud`) at d=1024
    ("moment --d 1024 --lambdas 0.3", False),
    ("cloud --d 1024 --lambdas 1.0", False),
    ("split --d 1024 --lambdas 0.3 --samples 8000", True),
    ("moment --d 3 --n 64 --samples 2000 --lambdas " + ",".join(["0.1"] * 32), False),
    ("moment --d 3 --n 64 --samples 500 --lambdas " + ",".join(["0.1"] * 32), True),
])
def test_direct_and_haar_drivers_are_admitted_by_their_work(tmp_path, monkeypatch, capsys, command, admitted):
    _stub_drivers(monkeypatch)
    if admitted:
        with pytest.raises(_Reached):
            run(command.split() + ["--out", tmp_path / "o"])
    else:
        assert run(command.split() + ["--out", tmp_path / "o"]) == 1
        assert "work" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, admitted", [
    ("roc --d 3 --n 16 --trials 1000 --inner 500", True),
    ("roc --d 2 --n 64 --trials 1000 --inner 500", True),
    # 20 trials of two 6^8-cell observations took 3.4-3.8 s and 241 MB in the library (293 MB at 0.21.0)
    ("roc --d 8 --n 6 --trials 10000000 --inner 1", False),
    # the prior dictionary alone holds 500 * 128^2 = 8.2M cells
    ("roc --d 2 --n 128 --trials 500 --inner 500", False),
])
def test_roc_is_admitted_by_its_cost_not_its_n(tmp_path, monkeypatch, capsys, command, admitted):
    _stub_drivers(monkeypatch)
    if admitted:
        with pytest.raises(_Reached):
            run(command.split() + ["--out", tmp_path / "o"])
    else:
        assert run(command.split() + ["--out", tmp_path / "o"]) == 1
        assert "config error: desk-scale limit exceeded: " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_roc_cost_statement_has_one_owner(tmp_path, monkeypatch, capsys):
    # roc_experiment's block cells and the CLI's refusals both move with `moment._roc_cost`
    import spikedtensor.moment as moment
    from spikedtensor.rng import map_streams

    cells = []

    def recording(*args, **kwargs):
        cells.append(kwargs["cells"])
        return map_streams(*args, **kwargs)

    monkeypatch.setattr(moment, "map_streams", recording)
    args = ["roc", "--d", 3, "--n", 3, "--trials", 8, "--inner", 10, "--out", tmp_path / "o"]
    assert run(args) == 0
    monkeypatch.setattr(moment, "_roc_cost", lambda spec, trials, inner: moment.ScoreCost(5, 1, 1))
    assert run(args) == 0
    assert cells == [2 * 3**3 + 3 * 3 + 2 * 10, 5]
    capsys.readouterr()
    for cost, message in ((moment.ScoreCost(5, cli._LIMITS["draw_cells"] + 1, 1), "one roc run holds"),
                          (moment.ScoreCost(5, 1, cli._LIMITS["work"] + 1), "roc work")):
        monkeypatch.setattr(moment, "_roc_cost", lambda spec, trials, inner, cost=cost: cost)
        assert run(args) == 1
        assert f"desk-scale limit exceeded: {message} " in capsys.readouterr().err
    assert len(cells) == 2


def test_direct_cost_statement_has_one_owner(tmp_path, monkeypatch, capsys):
    # second_moment_direct_mc's block and lane cells and the CLI's refusals
    # all move with `moment._direct_cost`
    import spikedtensor.moment as moment
    from spikedtensor.rng import map_streams

    cells = []

    def recording(*args, **kwargs):
        cells.append((kwargs["cells"], kwargs["lane_cells"]))
        return map_streams(*args, **kwargs)

    monkeypatch.setattr(moment, "map_streams", recording)
    args = ["moment", "--method", "direct", "--d", 3, "--n", 3, "--outer", 8, "--inner", 10, "--out", tmp_path / "o"]
    assert run(args) == 0
    monkeypatch.setattr(moment, "_direct_cost", lambda spec, outer, inner: moment.ScoreCost(5, 7, 1))
    assert run(args) == 0
    draw = 3**3 + 10  # an observation and its score row
    assert cells == [(draw, 10 * (3 * 3 + 3**3) + draw), (5, 7)]
    capsys.readouterr()
    for cost, message in ((moment.ScoreCost(5, cli._LIMITS["draw_cells"] + 1, 1), "one direct lane holds"),
                          (moment.ScoreCost(5, 1, cli._LIMITS["work"] + 1), "direct work")):
        monkeypatch.setattr(moment, "_direct_cost", lambda spec, outer, inner, cost=cost: cost)
        assert run(args) == 1
        assert f"desk-scale limit exceeded: {message} " in capsys.readouterr().err
    assert len(cells) == 2


@pytest.mark.parametrize("kind, past_the_edge, owner", [
    ("moment", "--d 1024 --lambdas 0.3 --samples 8161", "rate._haar_work"),
    ("split", "--d 1024 --lambdas 0.3 --samples 8161", "rate._haar_work"),
    ("cloud", "--d 1024 --lambdas 0.3 --samples 8161", "rate._haar_work"),
    ("xi-tail", "--n 1048576 --samples 128", "moment._xi_work"),
])
def test_haar_and_xi_work_statements_have_one_owner(tmp_path, monkeypatch, capsys, kind, past_the_edge, owner):
    # the CLI admits and refuses these drivers by their work statement alone
    _stub_drivers(monkeypatch)
    args = [kind, *past_the_edge.split(), "--out", tmp_path / "o"]
    assert run(args) == 1
    assert f"desk-scale limit exceeded: {kind} work " in capsys.readouterr().err
    monkeypatch.setattr(f"spikedtensor.{owner}", lambda *args: 1)
    with pytest.raises(_Reached):
        run(args)
    monkeypatch.setattr(f"spikedtensor.{owner}", lambda *args: cli._LIMITS["work"] + 1)
    assert run([kind, "--samples", 10, "--out", tmp_path / "o"]) == 1
    assert f"desk-scale limit exceeded: {kind} work {cli._LIMITS['work'] + 1} > " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_N_BOUND = 2**53


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_refuses_n_past_the_bound(tmp_path, monkeypatch, capsys, kind):
    # without the bound, n = 10^23 reached `standard_gamma` and exited 2
    _stub_drivers(monkeypatch)
    for n in (_N_BOUND + 1, 10**23):
        assert run([kind, "--n", n, "--out", tmp_path / "o"]) == 1
        assert "config error: field 'n': dimensions must be <= 2^53" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    at_bound = [kind, "--n", _N_BOUND, "--samples", 10, "--out", tmp_path / "o"]
    if kind in ("xi-tail", "roc"):  # past the bound's check, refused by what one sample or run holds
        assert run(at_bound) == 1
        assert "config error: desk-scale limit exceeded: one " in capsys.readouterr().err
    else:
        with pytest.raises(_Reached):
            run(at_bound)


@pytest.mark.parametrize("command", [
    "moment --d 3 --lambdas 0.01 --n 1048576 --samples 2000",
    "split --d 3 --lambdas 0.4,0.2 --n 1048576 --epsilon 0.005 --samples 2000",
    "cloud --d 3 --lambdas 1.0,1.0 --n 1048576 --samples 2000",
    "xi-tail --n 4194304 --samples 1 --t 0.5",
])
def test_haar_drivers_and_xi_tail_run_at_large_n(tmp_path, command):
    assert run(command.split() + ["--out", tmp_path / "o", "--threads", 1]) == 0
    assert list(tmp_path.iterdir())


@pytest.mark.parametrize("case", ["missing_config", "config_is_a_directory", "config_not_utf8", "out_dir_missing",
                                  "out_names_no_file", "out_holds_a_nul_byte"])
def test_bad_path_exits_one_without_a_traceback(tmp_path, capsys, case):
    (tmp_path / "bad.cfg").write_bytes(b"\xff")
    # a command-line argument cannot carry a NUL byte, but a config file can
    (tmp_path / "nul.cfg").write_bytes(b"out=" + bytes(tmp_path / "a") + b"\0b\n")
    args = {
        "missing_config": ["--config", tmp_path / "nonexistent.cfg", "--out", tmp_path / "o"],
        "config_is_a_directory": ["--config", tmp_path, "--out", tmp_path / "o"],
        "config_not_utf8": ["--config", tmp_path / "bad.cfg", "--out", tmp_path / "o"],
        "out_dir_missing": ["--out", tmp_path / "nonexistent_dir" / "x"],
        "out_names_no_file": ["--out", "."],
        "out_holds_a_nul_byte": ["--config", tmp_path / "nul.cfg"],
    }[case]
    assert run(["threshold", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "nul.cfg"]


@pytest.mark.parametrize("kind", KINDS)
def test_d_cap_refuses_before_any_gram_is_built(tmp_path, monkeypatch, capsys, kind):
    cap = cli._LIMITS["d"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "gram_matrices", lambda *args: pytest.fail("Gram matrices built past the d cap"))
        assert run([kind, "--d", cap + 1, "--lambdas", 0.3, "--n", 4, "--samples", 10, "--out", tmp_path / "o"]) == 1
    assert f"desk-scale limit exceeded: d {cap + 1} > {cap}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    if kind == "threshold":
        assert run([kind, "--d", cap, "--lambdas", 0.3, "--out", tmp_path / "o"]) == 0


@pytest.mark.parametrize("kind", KINDS)
def test_r_cap_refuses_before_any_gram_is_built(tmp_path, monkeypatch, capsys, kind):
    cap = cli._LIMITS["r"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "gram_matrices", lambda *args: pytest.fail("Gram matrices built past the r cap"))
        assert run([kind, "--lambdas", ",".join(["0.01"] * (cap + 1)), "--n", 64, "--samples", 10,
                    "--out", tmp_path / "o"]) == 1
    assert f"desk-scale limit exceeded: r {cap + 1} > {cap}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    if kind == "threshold":
        assert run([kind, "--lambdas", ",".join(["0.01"] * cap), "--out", tmp_path / "o"]) == 0


@pytest.mark.parametrize("kind", ["moment", "split", "cloud"])
def test_mode_map_cap_refuses_before_any_spike_is_built(tmp_path, monkeypatch, capsys, kind):
    cap, r = cli._LIMITS["mode_map_cells"], 32
    d = cap // r**4 + 1  # the least d above the cap at r = 32
    lambdas = ",".join(["0.01"] * r)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "gram_matrices", lambda *args: pytest.fail("Gram matrices built past the mode-map cap"))
        assert run([kind, "--d", d, "--lambdas", lambdas, "--n", 64, "--samples", 10, "--epsilon", 0.1,
                    "--out", tmp_path / "o"]) == 1
    assert f"desk-scale limit exceeded: d*r^4 = {d * r**4} mode-map cells > {cap}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    if kind == "moment":  # the direct method builds no mode map: its own d cap refuses it
        assert run([kind, "--method", "direct", "--d", d, "--lambdas", lambdas, "--n", 64, "--out", tmp_path / "o"]) == 1
        assert f"desk-scale limit exceeded: direct method d {d} > 3" in capsys.readouterr().err


# One stacked `eigh` of the Grams a run serves every Gram-derived quantity:
# the PSD check, the roots that embed and rotate the factors, and the
# spectra of the mode maps, which only `cloud` and the Haar moments build
# (one `np.kron` a mode).  At d = 2 `threshold` adds the `eigvalsh` of the
# matrix-case statistic.
_SOLVER_RUNS = {
    "moment_haar": (["moment", "--d", 3, "--lambdas", 0.3, "--n", "4,8,16,32", "--samples", 200],
                    {"eigh": 1}, 3),
    "cloud": (["cloud", "--d", 3, "--lambdas", "1.0,1.0", "--gram", "two-eigenvalue:1.8,0.2", "--n", 8,
               "--samples", 300, "--bins", 10], {"eigh": 1}, 3),
    "roc": (["roc", "--d", 3, "--lambdas", "0.4,0.2", "--gram", "two-eigenvalue:1.8,0.2", "--n", 3,
             "--trials", 8, "--inner", 10], {"eigh": 1}, 0),
    "moment_direct": (["moment", "--method", "direct", "--d", 3, "--lambdas", 0.4, "--n", "3,4",
                       "--outer", 8, "--inner", 10], {"eigh": 1}, 0),
    "threshold_d3": (["threshold", "--d", 3, "--lambdas", "0.5,0.3", "--gram", "two-eigenvalue:1.8,0.2"],
                     {"eigh": 1}, 0),
    "threshold_d2": (["threshold", "--d", 2, "--lambdas", "0.5,0.3", "--gram", "two-eigenvalue:1.8,0.2"],
                     {"eigh": 1, "eigvalsh": 1}, 0),
}


@pytest.mark.parametrize("name", sorted(_SOLVER_RUNS))
def test_one_stacked_eigh_a_run(tmp_path, monkeypatch, capsys, name):
    argv, expected, maps = _SOLVER_RUNS[name]
    calls, krons = [], []

    def counted(fn_name, fn):
        def wrapper(*args, **kwargs):
            calls.append((fn_name, np.ndim(args[0])))
            return fn(*args, **kwargs)
        return wrapper

    for fn_name in np.linalg.__all__:
        value = getattr(np.linalg, fn_name)
        if callable(value) and not isinstance(value, type):
            monkeypatch.setattr(np.linalg, fn_name, counted(fn_name, value))
    monkeypatch.setattr(np, "kron", counted("kron", np.kron))
    assert run([*argv, "--threads", 2, "--out", tmp_path / "o"]) == 0
    capsys.readouterr()
    solvers = [call for call in calls if call[0] != "kron"]
    assert {fn: sum(c[0] == fn for c in solvers) for fn, _ in solvers} == expected
    assert ("eigh", 3) in solvers  # stacked over the d Grams
    assert len(calls) - len(solvers) == maps


@pytest.mark.parametrize("args, message", [
    # an n = 4 lane holds 54471 (12 + 64 + 1) + 64 cells > 2^22, the n = 2 and 3 lanes fit
    (["--method", "direct", "--n", "2,3,4", "--outer", 2, "--inner", 54_471],
     "one direct lane holds 4194331 cells > 4194304"),
    (["--n", "4,8", "--samples", 2_000_001], "samples 2000001 > 2000000"),
    (["--method", "direct", "--n", "3,5", "--outer", 2000, "--inner", 500], "direct method n 5 > 4"),
    (["--method", "direct", "--d", 4, "--n", "3,4", "--outer", 20, "--inner", 5], "direct method d 4 > 3"),
    # 7.5G multiply-adds at n = 3 and 11.9G at n = 4, each under 2^34: the run's work, not one n's
    (["--method", "direct", "--n", "3,4", "--outer", 2000, "--inner", 12000], "direct work 19421240000 > 17179869184"),
    # an n = 4 lane holds 60000 (12 + 64 + 1) + 64 cells > 2^22, an n = 3 lane 60000 (9 + 27 + 1) + 27
    (["--method", "direct", "--n", "3,4", "--outer", 2, "--inner", 60_000],
     "one direct lane holds 4620064 cells > 4194304"),
])
def test_moment_checks_every_n_before_the_first_estimate(tmp_path, monkeypatch, capsys, args, message):
    for estimator in ("second_moment_haar_mc", "second_moment_direct_mc"):
        monkeypatch.setattr(cli, estimator, lambda *a, **k: pytest.fail("an estimate ran before a refused n"))
    assert run(["moment", "--d", 3, "--lambdas", 0.3] + args + ["--out", tmp_path / "o"]) == 1
    assert f"desk-scale limit exceeded: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind", KINDS)
def test_seed_and_stream_outside_u64_exit_one(tmp_path, capsys, kind):
    for flag, value in (("--seed", 2**64), ("--seed", 99999999999999999999999), ("--stream", -1)):
        assert run([kind, flag, value, "--n", 4, "--samples", 10, "--out", tmp_path / "o"]) == 1
        assert f"field '{flag[2:]}': must be an unsigned 64-bit integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    if kind == "threshold":
        assert run([kind, "--seed", 2**64 - 1, "--stream", 2**64 - 1, "--out", tmp_path / "o"]) == 0


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


# A zero amplitude lowers the rank and the all-zero spike is the null.  Only
# `threshold` (`hoelder_condition`), an all-zero `cloud` and an all-zero
# `split` without `--epsilon` refuse one.
_ZERO_AMPLITUDE_RUNS = [
    ("roc --lambdas 0 --n 3 --trials 20 --inner 10", ""),
    ("roc --lambdas 0.4,0 --n 3 --trials 20 --inner 10", ""),
    ("moment --lambdas 0.4,0 --n 4,8 --samples 200", ""),
    ("moment --method direct --lambdas 0.4,0 --n 3 --outer 20 --inner 10", ""),
    ("split --lambdas 0,0 --epsilon 0.1 --n 4 --samples 200", ""),
    ("split --lambdas 0.5,0 --n 4 --samples 200", ""),
    ("xi-tail --lambdas 0 --n 4 --samples 200", ""),
    ("cloud --lambdas 1.0,0 --n 4 --samples 100", ""),
    ("threshold --lambdas 0", "config error: amplitudes must be strictly positive\n"),
    ("threshold --lambdas 1,0", "config error: amplitudes must be strictly positive\n"),
    ("cloud --lambdas 0,0 --n 4 --samples 100", "config error: eta_max must be positive to normalize the cloud\n"),
    ("split --lambdas 0,0 --n 4 --samples 200",
     "config error: the default epsilon rule gives 0 for a zero spike: set --epsilon > 0\n"),
]


@pytest.mark.parametrize("args, err", _ZERO_AMPLITUDE_RUNS, ids=[args for args, _ in _ZERO_AMPLITUDE_RUNS])
def test_zero_amplitudes_in_every_kind(tmp_path, monkeypatch, capsys, args, err):
    monkeypatch.chdir(tmp_path)
    assert main(args.split()) == (1 if err else 0)
    assert capsys.readouterr().err == err
    assert bool(list(tmp_path.iterdir())) == (not err)


def test_cloud_runs_a_partly_zero_spike_and_refuses_an_all_zero_one(tmp_path, capsys):
    args = ["cloud", "--d", 3, "--n", 4, "--samples", 100]
    assert run(args + ["--lambdas", "1.0,0", "--out", tmp_path / "c"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bound.csv", "c.envelope.csv", "c.points.csv"]
    capsys.readouterr()
    assert run(args + ["--lambdas", "0,0", "--out", tmp_path / "z"]) == 1
    assert "config error: eta_max must be positive" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bound.csv", "c.envelope.csv", "c.points.csv"]


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
    if key == "xi_n":
        return ["xi-tail", "--n", count, "--samples", 1, "--t", 0.5]
    if key == "xi_work":
        return ["xi-tail", "--n", 2**20, "--samples", count, "--t", 0.5]
    return ["moment", "--d", 3, "--lambdas", "0.3", "--samples", 4, "--n", ",".join(str(2 + i) for i in range(count))]


@pytest.mark.parametrize("key", ["bins", "t_count", "n_count", "xi_n", "xi_work"])
def test_list_caps(tmp_path, capsys, key):
    import spikedtensor.moment as moment
    from spikedtensor.cli import _LIMITS

    if key == "xi_work":  # the samples whose work fits, at n=2^20 and one t: 127
        cap = _LIMITS["work"] // moment._xi_work(2**20, 1, 1)
    else:
        cap = _LIMITS["draw_cells" if key == "xi_n" else key]  # xi-tail's n: the n cells one sample holds
    out = tmp_path / key
    assert run(_list_cap_args(key, cap) + ["--out", out, "--threads", 1]) == 0
    capsys.readouterr()
    assert run(_list_cap_args(key, cap + 1) + ["--out", tmp_path / "over", "--threads", 1]) == 1
    assert "desk-scale" in capsys.readouterr().err
    assert not list(tmp_path.glob("over*"))


@pytest.mark.parametrize("kind, sampler", [("cloud", "sample_grf_cloud"), ("split", "e1_e2_split"),
                                          ("xi-tail", "xi_empirical_tail"), ("roc", "roc_experiment")])
def test_one_n_kinds_refuse_a_list_of_n(tmp_path, monkeypatch, capsys, kind, sampler):
    # each of these runs at config.n[0]: a second n would be dropped unseen
    monkeypatch.setattr(cli, sampler, lambda *args, **kwargs: pytest.fail(f"{kind} ran with a list of n"))
    assert run([kind, "--d", 3, "--n", "4,8", "--samples", 100, "--trials", 10, "--inner", 10,
                "--out", tmp_path / "o"]) == 1
    assert f"config error: field 'n': {kind} takes one dimension, got 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind", KINDS)
def test_unwritable_out_exits_one_before_any_draw(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.setitem(cli._RUNNERS, kind, lambda config, spike: pytest.fail(f"{kind} ran with an unwritable --out"))
    (tmp_path / "file").write_text("")
    for parent in (tmp_path / "nonexistent_dir", tmp_path / "file"):
        assert run([kind, "--n", 4, "--samples", 100, "--out", parent / "x"]) == 1
        assert f"config error: field 'out': {str(parent)!r} is not a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


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
        raise ParameterError("recorded")

    monkeypatch.setattr(cli, "resolve_config", recording)
    flags, overrides = _SURFACE[kind]
    assert main([kind, *flags.split(), "--config", str(cfg)]) == 1
    assert calls == [(kind, {"seed": "9"}, overrides)]
    # without --config, no file values
    assert main([kind, *flags.split()]) == 1
    assert calls[1] == (kind, {}, overrides)


@pytest.mark.parametrize("kind", sorted(_SURFACE))
def test_config_file_resolves_like_the_flags(tmp_path, monkeypatch, kind):
    # the same settings as flags and as a --config file, each through `main`
    monkeypatch.chdir(tmp_path)
    resolved = []

    def resolving(kind, file_values, overrides):
        resolved.append(resolve_config(kind, file_values, overrides))
        raise ParameterError("resolved")

    monkeypatch.setattr(cli, "resolve_config", resolving)
    flags, overrides = _SURFACE[kind]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in overrides.items()))
    assert main([kind, *flags.split()]) == 1
    assert main([kind, "--config", str(cfg)]) == 1
    assert resolved[0] == resolved[1] != resolve_config(kind)


@pytest.mark.parametrize("flag", [flag for flag in _FLAGS if flag != "--config"])
def test_an_empty_value_is_refused_unless_it_means_unset(tmp_path, monkeypatch, capsys, flag):
    # r is derived from the amplitudes, epsilon from the estimator rule,
    # out and format from the kind, threads from the core count
    monkeypatch.chdir(tmp_path)
    code = main(["moment", "--n", "4", "--samples", "100", f"{flag}="])
    err = capsys.readouterr().err
    if flag in ("--r", "--epsilon", "--out", "--format", "--threads"):
        assert (code, err) == (0, "")
        assert [p.name for p in tmp_path.iterdir()] == ["moment_result.json"]
    else:
        assert code == 1
        assert err.startswith(f"config error: field '{flag[2:]}'")
        assert list(tmp_path.iterdir()) == []


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
