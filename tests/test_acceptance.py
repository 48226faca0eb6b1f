"""Acceptance suite: one test per criterion, each ending with a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is asserted exactly as stated.
"""

import math
import time

import numpy as np

import spikedtensor as st
from conftest import haar_unitaries, make_random_spec, rank_one_second_moment
from spikedtensor.cli import main as cli_main
from spikedtensor.config import gram_matrices
from spikedtensor.moment import _haar_eta_chunks
from spikedtensor.rate import _cloud_cells, _sample_psi_stack
from spikedtensor.rng import map_streams


def _passed(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_01_beta_2_is_one():
    started = time.monotonic()
    value = st.beta_d_second(2)
    elapsed = time.monotonic() - started
    assert abs(value - 1.0) <= 1e-9
    assert elapsed < 1.0
    _passed(1, f"beta_2 = {value} within 1e-9 in {elapsed:.3f}s")


def test_criterion_02_beta_d_matches_dense_grid_oracle():
    started = time.monotonic()
    worst = 0.0
    for d in range(3, 11):
        u = np.linspace(0.0, 1.0, 10**6 + 1)[1:-1]
        oracle = float(np.sqrt(np.min(-np.log1p(-u * u) / u**d)))
        worst = max(worst, abs(st.beta_d_second(d) - oracle))
        assert abs(st.beta_d_second(d) - oracle) <= 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _passed(2, f"beta_d vs 1e6-point grid for d=3..10, max |diff| = {worst:.2e} in {elapsed:.2f}s")


def test_criterion_03_eta_form_equivalence():
    started = time.monotonic()
    gen = st.SeedSpec(303, 0).generator()
    worst = 0.0
    for _ in range(1000):
        spec = make_random_spec(gen)
        thetas = list(haar_unitaries(spec.n, spec.d, gen))
        full = st.eta_expanded(spec, thetas)
        svd, psis = st.psi_blocks_from_mode_operators(spec.factors, thetas)
        reduced = st.eta_hadamard(spec.lambdas, svd, psis)
        err = abs(full - reduced) / (1.0 + abs(full))
        worst = max(worst, err)
        assert abs(full - reduced) <= 1e-9 * (1.0 + abs(full))
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _passed(3, f"1000 configs, max normalized |expanded - block| = {worst:.2e} in {elapsed:.1f}s")


def test_criterion_04_eta_boundedness_and_spike_energy():
    gen = st.SeedSpec(404, 0).generator()
    draws_per_spec = 10_000
    for i in range(10):
        spec = make_random_spec(gen, n=int(gen.integers(2, 7)), d=int(gen.integers(2, 4)))
        emax = st.eta_max(spec.lambdas, spec.grams)
        energy = np.linalg.norm(st.build_spike(spec)) ** 2
        assert abs(energy - emax) <= 1e-10 * max(emax, 1.0)
        etas = np.concatenate(_haar_eta_chunks(spec, draws_per_spec, st.SeedSpec(404, i + 1), 1))
        assert np.all(np.abs(etas) <= emax + 1e-9)
    _passed(4, "10 specs x 1e4 Haar draws: |eta| <= eta_max + 1e-9, spike energy = eta_max")


def test_criterion_05_hoelder_dominance():
    gen = st.SeedSpec(505, 0).generator()
    for _ in range(1000):
        r = int(gen.integers(1, 4))
        d = int(gen.integers(2, 5))
        lam = gen.uniform(0.05, 1.5, size=r)
        grams = st.GramSet(tuple(st.random_gram(r, gen) for _ in range(d)))
        emax = st.eta_max(lam, grams)
        assert emax <= np.sum(lam) ** 2 + 1e-12
        ones = st.GramSet((np.ones((r, r)),) * d)
        assert abs(st.eta_max(lam, ones) - np.sum(lam) ** 2) <= 1e-12
        ok_h, _ = st.hoelder_condition(lam, d)
        ok_m, _ = st.main_condition(lam, grams)
        if ok_h:
            assert ok_m
    _passed(5, "1000 instances: eta_max <= (sum lambda)^2, all-ones equality, hoelder => main")


def test_criterion_06_lemma_supremum():
    gen = st.SeedSpec(606, 0).generator()
    for _ in range(10_000):
        d = int(gen.integers(2, 5))
        r = int(gen.integers(1, 4))
        lam = gen.uniform(0.05, 1.2, size=r)
        alphas = gen.uniform(0.0, 1.0, size=d)
        # unit spectral norm keeps the quadratic form O(1) so that the
        # absolute 1e-12 attainment tolerance is meaningful
        mats = []
        for _ in range(d):
            a = gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r))
            mats.append(a / np.linalg.norm(a, 2))
        bound = st.lemma_sup_bound(lam, mats, alphas)
        had = had_plug = None
        for a, alpha in zip(mats, alphas):
            psi = gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r))
            norm = np.linalg.norm(psi, 2)
            psi = psi * (alpha / norm) if norm > 0 else psi
            core = a @ psi @ a.conj().T
            had = core if had is None else had * core
            plug = a @ (alpha * np.eye(r)) @ a.conj().T
            had_plug = plug if had_plug is None else had_plug * plug
        assert abs(lam @ had @ lam) <= bound + 1e-9
        assert abs(abs(lam @ had_plug @ lam) - bound) <= 1e-12
    _passed(6, "1e4 psi-sets: |quadratic form| <= bound + 1e-9; plug-in attains within 1e-12")


def _replay_cloud_stacks(spec, count, seed):
    """Exactly the psi stacks `sample_grf_cloud` draws on this seed, in draw
    order, recorded through its `map_streams` layout."""

    def draw(m, gen):
        return _sample_psi_stack(spec.r, spec.n, spec.d, m, gen)

    return np.concatenate(map_streams(draw, count, seed, cells=_cloud_cells(spec.n, spec.r, spec.d)))


def test_criterion_07_rate_bound_cloud():
    started = time.monotonic()
    count = 100_000
    gaps = {}
    for preset in ("identity", "two-eigenvalue:1.8,0.2"):
        grams = gram_matrices(preset, 2, 3)
        spec = st.SpikeSpec([1.0, 1.0], grams, n=16)
        seed = st.SeedSpec(707, 0)
        cloud = st.sample_grf_cloud(spec, count, seed, bins=60)
        assert cloud_points_ok(cloud)
        assert st.cloud_bound_violations(cloud) == 0
        s = np.linalg.svd(_replay_cloud_stacks(spec, count, seed), compute_uv=False)
        clipped = np.minimum(s, 1.0)
        with np.errstate(divide="ignore"):
            lhs = np.sum(np.log1p(-clipped * clipped), axis=-1)
            rhs = np.log1p(-clipped[..., 0] ** 2)
        assert np.all(lhs <= rhs + 1e-12)
        gaps[preset] = st.envelope_gap_median(cloud)
    assert gaps["two-eigenvalue:1.8,0.2"] < gaps["identity"]
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _passed(7, f"2 x 1e5 points: zero bound violations, per-matrix bound holds, "
               f"gap two-eigenvalue {gaps['two-eigenvalue:1.8,0.2']:.3f} < identity {gaps['identity']:.3f}, {elapsed:.0f}s")


def cloud_points_ok(cloud):
    x, y = cloud.points[:, 0], cloud.points[:, 1]
    return bool(np.all(np.abs(x) <= cloud.eta_max + 1e-9) and np.all(y <= 0.0))


def test_criterion_08_xi_tail_law():
    ts = (0.3, 0.5, 0.7)
    for t, est in zip(ts, st.xi_empirical_tail(8, ts, 100_000, st.SeedSpec(808, 0))):
        analytic = st.xi_tail_probability(t, 8)
        assert abs(est.mean - analytic) <= 3 * est.stderr
    _passed(8, "n=8, t in {0.3,0.5,0.7}, 1e5 samples: empirical tail within 3 stderr of (1-t^2)^7")


def test_criterion_09_deterministic_second_moment():
    spec = st.SpikeSpec([0.3], st.GramSet((np.eye(1),) * 3), n=4)
    est = st.second_moment_direct_mc(spec, 100_000, 1, st.SeedSpec(909, 0), rotate=False)
    target = math.exp(0.72)
    assert abs(est.mean - target) <= 3 * est.stderr
    _passed(9, f"fixed spike: {est.mean:.4f} vs exp(0.72) = {target:.4f} within 3 stderr ({est.stderr:.4f})")


def test_criterion_10_estimator_cross_check():
    gen = st.SeedSpec(100, 0).generator()
    grams = st.GramSet(tuple(st.random_gram(2, gen) for _ in range(3)))
    spec = st.SpikeSpec([0.3, 0.2], grams, n=3)
    haar = st.second_moment_haar_mc(spec, 20_000, st.SeedSpec(101, 0))
    direct = st.second_moment_direct_mc(spec, 1000, 1000, st.SeedSpec(102, 0))
    combined = math.hypot(haar.stderr, direct.stderr)
    assert abs(haar.mean - direct.mean) <= 3 * combined
    _passed(10, f"haar {haar.mean:.5f} vs direct {direct.mean:.5f}, |diff| <= 3 x {combined:.5f}")


def test_criterion_11_partition_identity():
    spec = st.SpikeSpec([0.5, 0.3], st.GramSet((np.eye(2),) * 3), n=4)
    seed = st.SeedSpec(111, 0)
    total = st.second_moment_haar_mc(spec, 5000, seed)
    e1, e2 = st.e1_e2_split(spec, 0.05, 5000, seed)
    assert e1.mean + e2.mean == total.mean
    emax = st.eta_max(spec.lambdas, spec.grams)
    e1_empty, e2_full = st.e1_e2_split(spec, emax, 5000, seed)
    assert e1_empty.mean == 0.0
    assert e1_empty.mean + e2_full.mean == total.mean
    _passed(11, "E1 + E2 == total bit-exactly; epsilon >= eta_max gives E1 = 0 exactly")


def test_criterion_12_trend_checks():
    lam = 0.8 * math.sqrt(1.5) * st.beta_d_second(3)
    g = st.GramSet((np.eye(1),) * 3)
    ns = (4, 8, 16)
    estimates = [st.second_moment_haar_mc(st.SpikeSpec([lam], g, n=n), 20_000, st.SeedSpec(0, 0)) for n in ns]
    means = [est.mean for est in estimates]
    assert means[0] >= means[1] >= means[2]
    assert 1.0 <= means[2] <= 1.5
    # the exact rank-one series at this spike: 4.1091, 2.2165, 1.3863
    for n, est in zip(ns, estimates):
        assert abs(est.mean - rank_one_second_moment(n, 3, lam)) <= 3 * est.stderr

    zero = st.SpikeSpec([0.0], g, n=3)
    roc = st.roc_experiment(zero, 2000, 1, st.SeedSpec(120, 0))
    assert roc.tv_proxy <= 3 * math.sqrt(1.0 / 2000)
    _passed(12, f"means {[f'{m:.3f}' for m in means]} non-increasing, n=16 in [1, 1.5], "
                f"each within 3 stderr of the exact series; "
                f"zero-signal ROC tv = {roc.tv_proxy:.4f}")


def test_criterion_13_cli_reproducibility(tmp_path):
    out = tmp_path / "mom"
    base = ["moment", "--d", "3", "--lambdas", "0.3", "--n", "4", "--samples", "800",
            "--seed", "13", "--out", str(out)]
    assert cli_main(base + ["--threads", "1"]) == 0
    first = out.with_suffix(".json").read_bytes()
    assert cli_main(base + ["--threads", "1"]) == 0
    assert out.with_suffix(".json").read_bytes() == first
    assert cli_main(base + ["--threads", "4"]) == 0
    assert out.with_suffix(".json").read_bytes() == first

    cl = tmp_path / "cl"
    cloud_args = ["cloud", "--d", "3", "--lambdas", "1.0,1.0", "--gram", "two-eigenvalue:1.8,0.2",
                  "--n", "8", "--samples", "3000", "--bins", "30", "--seed", "14", "--out", str(cl)]
    assert cli_main(cloud_args + ["--threads", "1"]) == 0
    blob = cl.with_suffix(".points.csv").read_bytes()
    assert cli_main(cloud_args + ["--threads", "3"]) == 0
    assert cl.with_suffix(".points.csv").read_bytes() == blob
    _passed(13, "byte-identical reruns, outputs independent of --threads")
