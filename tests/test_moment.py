import math
import threading
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

import spikedtensor as st
import spikedtensor.moment as moment
import spikedtensor.rng as rng
from conftest import complex_gaussian, make_random_spec, rank_one_second_moment, refuse_linalg_in_draws
from spikedtensor.config import gram_matrices
from spikedtensor.errors import ParameterError
from spikedtensor.moment import (
    _dictionary_log_lr,
    _mean_from_exponents,
    _noise_part,
    _prior_dictionary,
    _prior_set,
    _rotate,
    _rotation_parts,
)
from spikedtensor.rng import (
    _N_STREAMS,
    _PRIOR_LANE,
    _orthonormalize,
    chunk_sizes,
    complex_normal_rounds,
    map_streams,
)
from spikedtensor.spike import _spike_tensors


def zero_spec(n=4, d=3, r=1):
    return st.SpikeSpec(np.zeros(r), st.GramSet((np.eye(r),) * d), n=n)


def small_spec(lambdas, n=4, d=3):
    return st.SpikeSpec(np.asarray(lambdas, float), st.GramSet((np.eye(len(lambdas)),) * d), n=n)


def test_haar_mc_zero_signal_is_exactly_one():
    est = st.second_moment_haar_mc(zero_spec(), 512, st.SeedSpec(1, 0))
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.log_domain_max == 0.0


@pytest.mark.parametrize("n", [8, 32])
def test_haar_mc_matches_exact_rank_one_series(n):
    exact = rank_one_second_moment(n, 3, 0.3)
    est = st.second_moment_haar_mc(small_spec([0.3], n=n, d=3), 20_000, st.SeedSpec(41, n))
    assert abs(est.mean - exact) <= 4 * est.stderr


def test_haar_mc_estimate_fields(gen):
    spec = make_random_spec(gen, d=3, r=1, n=6, lam_high=0.6)
    est = st.second_moment_haar_mc(spec, 4000, st.SeedSpec(2, 1))
    assert est.count == 4000
    assert est.mean > 0 and est.stderr >= 0
    assert est.seed == st.SeedSpec(2, 1)
    with pytest.raises(ParameterError):
        st.second_moment_haar_mc(spec, 1, st.SeedSpec(2, 1))


def test_direct_mc_zero_signal_is_exactly_one():
    est = st.second_moment_direct_mc(zero_spec(n=3), 64, 16, st.SeedSpec(3, 0))
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_direct_mc_fixed_spike_matches_closed_form():
    # with the spike held fixed the second moment is exp(2 n eta_max)
    spec = small_spec([0.3], n=4, d=3)
    est = st.second_moment_direct_mc(spec, 40_000, 1, st.SeedSpec(9, 0), rotate=False)
    target = math.exp(2 * 4 * 0.09)
    assert abs(est.mean - target) <= 3 * est.stderr


@pytest.mark.parametrize("inner", [1, 4])
def test_direct_mc_matches_the_rank_one_series_plus_its_inner_bias(inner):
    # the estimate averages Lhat^2, Lhat the mean of `inner` likelihoods
    # L_m: over the noise, E[L_m L_m'] = exp(2 n Re<X_m, X_m'>), whose mean
    # over two independent rotations is the series m2, and
    # E[L_m^2] = exp(2 n |X|^2) = exp(2 n lambda^2) for the 1/inner share of
    # equal pairs; that bias term is about 18 stderr here
    n, d, lam = 4, 3, 0.3
    m2 = rank_one_second_moment(n, d, lam)
    target = m2 + (math.exp(2 * n * lam * lam) - m2) / inner
    est = st.second_moment_direct_mc(small_spec([lam], n=n, d=d), 20_000, inner, st.SeedSpec(29, inner))
    assert (target - m2) >= 5 * est.stderr
    assert abs(est.mean - target) <= 3 * est.stderr


@pytest.mark.parametrize("d, n, lam, outer, inner", [(2, 6, 0.6, 2000, 1000), (3, 4, 0.6, 2000, 200)])
def test_one_prior_set_a_lane_keeps_the_exact_expectation(d, n, lam, outer, inner):
    # a lane scores its observations against one shared set, so they are
    # correlated within the lane, yet each has E[Lhat^2] = m2 +
    # (e^{2 n lambda^2} - m2) / inner and the 16 lanes are independent
    # batches: seeds 1-8 pooled, their batch-means stderrs combined
    m2 = rank_one_second_moment(n, d, lam)
    target = m2 + (math.exp(2 * n * lam * lam) - m2) / inner
    spec = small_spec([lam], n=n, d=d)
    estimates = [st.second_moment_direct_mc(spec, outer, inner, st.SeedSpec(seed, 0)) for seed in range(1, 9)]
    mean = math.fsum(e.mean for e in estimates) / len(estimates)
    stderr = math.sqrt(math.fsum(e.stderr**2 for e in estimates)) / len(estimates)
    assert abs(mean - target) <= 3 * stderr


def test_estimator_cross_check(gen):
    grams = st.GramSet(tuple(st.random_gram(2, gen) for _ in range(3)))
    spec = st.SpikeSpec([0.3, 0.2], grams, n=3)
    haar = st.second_moment_haar_mc(spec, 10_000, st.SeedSpec(101, 0))
    direct = st.second_moment_direct_mc(spec, 400, 400, st.SeedSpec(102, 0))
    combined = math.hypot(haar.stderr, direct.stderr)
    assert abs(haar.mean - direct.mean) <= 3 * combined


def test_split_partition_identity_is_bit_exact():
    spec = small_spec([0.5, 0.3], n=4, d=3)
    seed = st.SeedSpec(7, 2)
    total = st.second_moment_haar_mc(spec, 3000, seed)
    for eps in (0.01, 0.05, 0.2):
        e1, e2 = st.e1_e2_split(spec, eps, 3000, seed)
        assert e1.mean + e2.mean == total.mean


def test_split_partition_identity_with_threads():
    spec = small_spec([0.5, 0.3], n=4, d=3)
    seed = st.SeedSpec(7, 2)
    total = st.second_moment_haar_mc(spec, 3000, seed, threads=4)
    e1, e2 = st.e1_e2_split(spec, 0.05, 3000, seed, threads=2)
    assert e1.mean + e2.mean == total.mean


def test_haar_moment_on_the_pool_matches_one_thread(monkeypatch):
    # r = 3, n = 64: chunks of 1250 draws of 54 corner cells reach the pool
    spec = small_spec([0.4, 0.3, 0.2], n=64, d=3)
    seed = st.SeedSpec(7, 3)
    one = st.second_moment_haar_mc(spec, 20_000, seed)
    idents = []

    def recording(draw, *args, **kwargs):
        def traced(m, gen):
            idents.append(threading.get_ident())
            return draw(m, gen)

        return map_streams(traced, *args, **kwargs)

    monkeypatch.setattr(moment, "map_streams", recording)
    assert st.second_moment_haar_mc(spec, 20_000, seed, threads=2) == one
    assert idents and threading.get_ident() not in idents


@pytest.mark.parametrize("lam, n", [(0.3, 8), (0.5, 8), (0.6, 16)])
def test_split_total_matches_exact_rank_one_series(lam, n):
    # epsilon = eta_max / 100 leaves draws in both buckets; the stderr of
    # their total is that of the Haar estimate on the same stream layout
    spec = small_spec([lam], n=n, d=3)
    seed = st.SeedSpec(55, 0)
    e1, e2 = st.e1_e2_split(spec, lam * lam / 100, 20_000, seed)
    total = st.second_moment_haar_mc(spec, 20_000, seed)
    assert e1.mean > 0 and e2.mean > 0 and e1.mean + e2.mean == total.mean
    assert abs(e1.mean + e2.mean - rank_one_second_moment(n, 3, lam)) <= 3 * total.stderr


def test_split_epsilon_above_eta_max_empties_first_bucket():
    spec = small_spec([0.5, 0.3], n=4, d=3)
    emax = st.eta_max(spec.lambdas, spec.grams)
    e1, e2 = st.e1_e2_split(spec, emax, 2000, st.SeedSpec(8, 0))
    assert e1.mean == 0.0
    assert e1.log_domain_max == -math.inf
    total = st.second_moment_haar_mc(spec, 2000, st.SeedSpec(8, 0))
    assert e2.mean == total.mean


def test_split_validates_epsilon():
    spec = small_spec([0.5], n=4)
    with pytest.raises(ParameterError):
        st.e1_e2_split(spec, 0.0, 100, st.SeedSpec(1, 0))


def test_default_epsilon_rule():
    spec = small_spec([0.5, 0.3], n=4, d=3)
    emax = st.eta_max(spec.lambdas, spec.grams)
    assert st.default_epsilon(spec) == min(emax / 4, 4 * 0.25)


def test_e1_shrinks_with_n():
    means = []
    for n in (4, 8, 16):
        spec = small_spec([0.4, 0.3], n=n, d=3)
        e1, _ = st.e1_e2_split(spec, st.default_epsilon(spec), 20_000, st.SeedSpec(55, 0))
        means.append(e1.mean)
    assert means[0] >= means[1] >= means[2]


def test_xi_tail_probability_values():
    assert st.xi_tail_probability(0.0, 5) == 1.0
    assert st.xi_tail_probability(1.0, 5) == 0.0
    assert st.xi_tail_probability(0.5, 3) == pytest.approx(0.5625, abs=1e-15)
    with pytest.raises(ParameterError):
        st.xi_tail_probability(1.5, 3)
    with pytest.raises(ParameterError):
        st.xi_tail_probability(0.5, 1)


def test_xi_empirical_tail_matches_analytic():
    (est,) = st.xi_empirical_tail(3, [0.5], 40_000, st.SeedSpec(12, 0))
    assert abs(est.mean - 0.5625) <= 3 * est.stderr
    (exact,) = st.xi_empirical_tail(3, [0.0], 1000, st.SeedSpec(12, 0))
    assert exact.mean == 1.0


def test_xi_empirical_tail_one_pass_for_all_t():
    # n=16 and 160k samples make chunks large enough for the thread pool
    ts = [0.2, 0.35, 0.5]
    seed = st.SeedSpec(19, 0)
    together = st.xi_empirical_tail(16, ts, 160_000, seed, threads=1)
    assert together == [st.xi_empirical_tail(16, [t], 160_000, seed)[0] for t in ts]
    assert st.xi_empirical_tail(16, ts, 160_000, seed, threads=2) == together
    with pytest.raises(ParameterError):
        st.xi_empirical_tail(16, [0.2, 1.5], 100, seed)
    with pytest.raises(ParameterError):
        st.xi_empirical_tail(16, [], 100, seed)


def test_xi_empirical_stderr_scaling():
    (a,) = st.xi_empirical_tail(5, [0.4], 10_000, st.SeedSpec(13, 0))
    (b,) = st.xi_empirical_tail(5, [0.4], 40_000, st.SeedSpec(13, 1))
    ratio = a.stderr / b.stderr
    assert abs(ratio - 2.0) <= 0.4  # factor-4 samples halves the stderr within 20%


def test_xi_gemv_row_sums_match_the_pairwise_sums_to_rounding():
    # `xi_empirical_tail` takes each block's row sums as one gemv; NumPy's
    # row sum adds them pairwise.  Either sum of n positive terms is within
    # about n eps of the exact one, so the ratios agree within 4 n eps.
    eps = np.finfo(float).eps
    for n in range(2, 65):
        e = st.SeedSpec(14, n).generator().standard_exponential((2000, n))
        gemv = e[:, 0] / (e @ np.ones(n))
        rows = e[:, 0] / e.sum(axis=1)
        assert np.all(np.abs(gemv - rows) <= 4 * n * eps * rows)


def _complex_xi_counts(m, gen, n, ts):
    """A block's counts by the complex route of 0.7.0 and 0.8.0: |v_1| / |v|
    >= t on a circular complex Gaussian array, the reference in law."""
    v = complex_gaussian(gen, (m, n), np.sqrt(0.5))
    frac = np.abs(v[:, 0]) / np.linalg.norm(v, axis=1)
    return np.array([[np.count_nonzero(frac >= t) for t in ts]])


def _xi_block(monkeypatch, n, ts):
    """The block function that `xi_empirical_tail` hands to `map_streams`."""
    blocks = []

    def recording(draw, *args, **kwargs):
        blocks.append(draw)
        return map_streams(draw, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(moment, "map_streams", recording)
        st.xi_empirical_tail(n, ts, 1, st.SeedSpec(0))
    return blocks[0]


class _ExponentialsOnly:
    """A generator that offers only `standard_exponential`, and records the
    shape and a copy of every draw."""

    def __init__(self, seed):
        self._gen = np.random.default_rng(seed)
        self.shapes, self.draws = [], []

    def standard_exponential(self, shape):
        out = self._gen.standard_exponential(shape)
        self.shapes.append(shape)
        self.draws.append(out.copy())
        return out


XI_TS = [0.0, 0.3, 0.5, 0.7, 1.0]  # 0.3 and 0.7 have inexact squares


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_xi_block_counts_and_draws_equal_the_complex_route(monkeypatch, n, seed):
    # equal in law since 0.9.0, no longer in bytes: the exponential counts
    # against the complex route's, on disjoint seeds
    block, m = _xi_block(monkeypatch, n, XI_TS), 20_000
    counts = block(m, st.SeedSpec(seed, n).generator())[0]
    reference = _complex_xi_counts(m, st.SeedSpec(seed + 3, n).generator(), n, XI_TS)[0]
    assert counts[0] == reference[0] == m
    for a, b in zip(counts, reference):
        pooled = (a + b) / (2 * m)
        se = math.sqrt(pooled * (1 - pooled) * 2 / m)
        if se == 0:
            assert a == b  # t=1, or a tail far below 1/m at n=64
        else:
            assert abs(a - b) / m <= 4 * se  # two-proportion z within 4
    # and through the driver, over several blocks a chunk at n=64
    samples, spec = 40_000, st.SeedSpec(seed, 0)
    hits = np.concatenate(map_streams(block, samples, spec, cells=n))
    assert [e.mean for e in st.xi_empirical_tail(n, XI_TS, samples, spec)] == [int(h) / samples for h in hits.sum(axis=0)]


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_xi_block_ratios_follow_the_beta_law(monkeypatch, n):
    # |u_1|^2 ~ Beta(1, n - 1): KS test of one block's ratios against its CDF
    ts = np.linspace(0.0, 1.0, 41)
    block, gen = _xi_block(monkeypatch, n, ts), _ExponentialsOnly(100 + n)
    counts = block(20_000, gen)[0]
    (e,) = gen.draws
    ratios = e[:, 0] / e.sum(axis=1)
    assert np.array_equal(counts, [np.count_nonzero(ratios >= t * t) for t in ts])
    assert stats.kstest(ratios, lambda x: 1.0 - (1.0 - x) ** (n - 1)).pvalue > 1e-3


@pytest.mark.parametrize("n", [2, 16, 64])
def test_xi_block_draws_n_exponentials_a_sample(monkeypatch, n):
    # one (m, n) draw a block, from a generator that has no other sampler:
    # no normals, no Gamma(n - 1) or Beta shortcut for the other coordinates
    block = _xi_block(monkeypatch, n, XI_TS)
    for m in (1, 7):
        gen = _ExponentialsOnly(n)
        assert block(m, gen)[0, 0] == m
        assert gen.shapes == [(m, n)]


def test_xi_tail_builds_no_complex_array_or_norm(monkeypatch):
    expected = st.xi_empirical_tail(16, XI_TS, 20_000, st.SeedSpec(5, 0))

    def refuse(*args, **kwargs):
        raise AssertionError("complex array or norm on the xi-tail path")

    monkeypatch.setattr(rng, "complex_normal_rounds", refuse)
    monkeypatch.setattr(moment, "complex_normal_rounds", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    assert st.xi_empirical_tail(16, XI_TS, 20_000, st.SeedSpec(5, 0)) == expected


# Observations as `roc_experiment` draws them: its stream layout through
# `complex_normal_rounds` and its rotated spikes, scored against its one
# prior set by the same `_dictionary_log_lr`; the first test below pins this
# to the driver's worker.


def roc_layout(spec):
    noise = _noise_part(spec)
    return [noise, *_rotation_parts(spec, 1), noise]


def roc_observations(spec, m, gen):
    """`m` draws of `roc_experiment`: (Y0, Y1), the null and alternative
    observations."""
    y0, *rotations, noise1 = complex_normal_rounds(gen, m, roc_layout(spec))
    spikes = _spike_tensors(spec.lambdas, [f[:, 0] for f in _rotate(spec.grams.roots, rotations)])
    return y0, spikes + noise1


def roc_prior(spec, inner, seed):
    """The prior set that `roc_experiment` draws for `inner` and `seed`."""
    return _prior_set(spec, spec.grams.roots, inner, seed.generator(_PRIOR_LANE))


def fixed_dictionary(spec):
    """The one-row dictionary of `second_moment_direct_mc(..., rotate=False)`."""
    return _prior_dictionary(spec, [chi[None, None] for chi in spec.factors])


def test_roc_observations_score_as_the_roc_worker(monkeypatch):
    # the draw and score steps that `roc_experiment` hands to `map_streams`
    spec = small_spec([0.9, 0.4], n=3, d=3)
    steps = []

    def recording(draw, *args, score, **kwargs):
        steps.append((draw, score))
        return map_streams(draw, *args, score=score, **kwargs)

    monkeypatch.setattr(moment, "map_streams", recording)
    st.roc_experiment(spec, 2, 7, st.SeedSpec(0))
    energy = st.eta_max(spec.lambdas, spec.grams)
    dictionary = _prior_dictionary(spec, roc_prior(spec, 7, st.SeedSpec(0)))
    y0, y1 = roc_observations(spec, 5, st.SeedSpec(3).generator())
    expected = np.column_stack([_dictionary_log_lr(spec, y0, dictionary, energy),
                                _dictionary_log_lr(spec, y1, dictionary, energy)])
    (draw, score), = steps
    assert score(*draw(5, st.SeedSpec(3).generator())).tobytes() == expected.tobytes()


def test_roc_prior_set_depends_on_the_seed_alone(monkeypatch):
    # one draw of lane _PRIOR_LANE a run, whatever the trial count, the
    # threads (inner=4200: chunks of two draws or more reach the pool at 3
    # threads) or the block size, and never a chunk's lane
    spec = small_spec([0.6], n=3, d=3)
    seed, inner = st.SeedSpec(36, 2), 4200
    expected = _prior_dictionary(spec, roc_prior(spec, inner, seed)).tobytes()
    priors, lanes = [], []
    generator = st.SeedSpec.generator

    def recording_lanes(self, *lane):
        lanes.append(lane)
        return generator(self, *lane)

    def recording_priors(spec, ys, dictionary, energy):
        priors.append(dictionary.tobytes())
        return _dictionary_log_lr(spec, ys, dictionary, energy)

    monkeypatch.setattr(st.SeedSpec, "generator", recording_lanes)
    monkeypatch.setattr(moment, "_dictionary_log_lr", recording_priors)
    runs = [(2, 1), (17, 1), (40, 1), (40, 3)]
    for trials, threads in runs:
        lanes.clear()
        st.roc_experiment(spec, trials, inner, seed, threads=threads)
        chunks = [lane for lane in lanes if lane != (_PRIOR_LANE,)]
        assert lanes.count((_PRIOR_LANE,)) == 1
        assert sorted(chunks) == [(i,) for i in range(min(trials, _N_STREAMS))]
    monkeypatch.setattr(rng, "_BLOCK_CELLS", 1)
    st.roc_experiment(spec, 40, inner, seed)
    assert len(priors) >= len(runs) + 1 and set(priors) == {expected}


def test_simulate_observation_energies(gen):
    # E|Y0|^2 = n^(d-1) and E|Y1|^2 = n^(d-1) + eta_max
    spec = small_spec([0.9], n=4, d=3)
    emax = st.eta_max(spec.lambdas, spec.grams)
    reps = 3000
    y0, y1 = roc_observations(spec, reps, gen)
    e0 = np.sum(np.abs(y0) ** 2, axis=(1, 2, 3))
    e1 = np.sum(np.abs(y1) ** 2, axis=(1, 2, 3))
    n_target = 4**2
    assert abs(np.mean(e0) - n_target) <= 3 * np.std(e0) / np.sqrt(reps)
    assert abs(np.mean(e1) - (n_target + emax)) <= 3 * np.std(e1) / np.sqrt(reps)


def test_simulate_observation_zero_signal_is_pure_noise():
    # with zero amplitudes the alternative adds an exactly-zero spike
    spec, m = zero_spec(n=3), 50
    _, y1 = roc_observations(spec, m, st.SeedSpec(21).generator())
    parts = complex_normal_rounds(st.SeedSpec(21).generator(), m, roc_layout(spec))
    assert np.array_equal(y1, parts[-1])


def test_log_lr_zero_signal_is_exactly_zero(gen):
    spec = zero_spec(n=3)
    prior = roc_prior(spec, 32, st.SeedSpec(22))
    for dictionary in (_prior_dictionary(spec, prior), fixed_dictionary(spec)):
        for y in roc_observations(spec, 8, gen):
            assert np.all(_dictionary_log_lr(spec, y, dictionary, 0.0) == 0.0)


def _mode_contraction_log_lr(spec, ys, factors, energy):
    """The scores of a stack of observations `ys` against one prior set,
    `factors` one (1, inner, n, r) array a mode, by contracting conj(Y)
    with the factors, last mode first: one matmul with r folded into the
    columns, then each remaining mode's factors broadcast in and summed
    over that mode's axis (the `direct` kernel of 0.19.0 to 0.22.0)."""
    n, r, b = spec.n, spec.r, len(ys)
    inner = factors[-1].shape[1]
    cols = factors[-1][0].transpose(1, 0, 2).reshape(n, inner * r)
    t = (np.conj(ys).reshape(b, -1, n) @ cols).reshape(b, *(n,) * (spec.d - 1), inner, r)
    for f in factors[-2::-1]:
        t = (t * f[0].transpose(1, 0, 2).reshape(*(1,) * (t.ndim - 3), n, inner, r)).sum(axis=-3)
    a = 2.0 * n * np.real(t @ spec.lambdas) - n * energy
    return logsumexp(a, axis=1) - np.log(inner)


@pytest.mark.parametrize("gram", ["identity", "all-ones"])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_dictionary_scores_match_the_mode_contractions(d, r, gram):
    # on the same prior set S, the one GEMM against D gives the scores of
    # the mode-by-mode contractions of Y with the factors, which never form
    # a spike (`_mode_contraction_log_lr`); a score is the log of a mean
    # near 1 and can lie near 0, so the gap is taken relative to the
    # stack's largest score
    n = {2: 6, 3: 4, 4: 3}[d]
    spec = st.SpikeSpec(np.linspace(0.7, 0.3, r), gram_matrices(gram, r, d), n=n)
    seed = st.SeedSpec(63, 10 * d + r)
    prior = roc_prior(spec, 200, seed)
    energy = st.eta_max(spec.lambdas, spec.grams)
    ys = np.concatenate(roc_observations(spec, 20, seed.generator(0)))
    expected = _mode_contraction_log_lr(spec, ys, prior, energy)
    got = _dictionary_log_lr(spec, ys, _prior_dictionary(spec, prior), energy)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("d, n, trials, inner, layout", [
    (3, 32, 3, 2, "one trial a block"),
    (3, 8, 2000, 100, "blocks within a chunk"),
    (3, 3, 500, 20, "chunks packed into a group"),
])
def test_roc_cost_counts_the_gemm_multiply_adds(monkeypatch, d, n, trials, inner, layout):
    # with its other weights at 0, `_roc_cost`'s work is its GEMM term; a
    # score call's GEMM takes (rows, 2 n^d) @ (2 n^d, inner)
    spec = small_spec([0.5], n=n, d=d)
    heights, madds = [], []

    def counting(spec, ys, dictionary, energy):
        heights.append(len(ys))
        madds.append(len(ys) * dictionary.shape[0] * dictionary.shape[1])
        return _dictionary_log_lr(spec, ys, dictionary, energy)

    monkeypatch.setattr(moment, "_dictionary_log_lr", counting)
    st.roc_experiment(spec, trials, inner, st.SeedSpec(65))
    for weight in ("_ROC_EXP_MADDS", "_ROC_CELL_MADDS", "_ROC_TRIAL_MADDS"):
        monkeypatch.setattr(moment, weight, 0)
    assert sum(madds) == moment._roc_cost(spec, trials, inner).work == 2 * trials * inner * 2 * n**d
    chunk = 2 * max(chunk_sizes(trials, _N_STREAMS))  # the rows of the largest chunk
    assert {"one trial a block": max(heights) == 2, "blocks within a chunk": 2 < max(heights) < chunk,
            "chunks packed into a group": max(heights) > chunk}[layout]


def test_log_lr_deterministic_closed_form(gen):
    # the fixed spike of `second_moment_direct_mc(..., rotate=False)`:
    # log L(Y) = 2 n Re<X0, Y> - n |X0|_F^2 exactly
    spec = small_spec([0.4], n=3, d=3)
    ys = np.concatenate(roc_observations(spec, 4, gen))
    x0 = st.build_spike(spec)
    expected = [2 * 3 * np.real(np.vdot(x0, y)) - 3 * np.linalg.norm(x0) ** 2 for y in ys]
    got = _dictionary_log_lr(spec, ys, fixed_dictionary(spec), st.eta_max(spec.lambdas, spec.grams))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_likelihood_ratio_has_unit_null_mean(gen):
    # E0[exp(2 n Re<Y, X> - n |X|_F^2)] = 1 for every fixed X, so the
    # statistic of one fixed prior set S has E0[L_S(Y)] = 1 exactly: checked
    # for each of three sets, each over its own null observations
    spec = small_spec([0.45], n=3, d=3)
    reps, inner = 4000, 300
    energy = st.eta_max(spec.lambdas, spec.grams)
    for stream in range(3):
        dictionary = _prior_dictionary(spec, roc_prior(spec, inner, st.SeedSpec(37, stream)))
        values = np.exp(_dictionary_log_lr(spec, roc_observations(spec, reps, gen)[0], dictionary, energy))
        assert abs(np.mean(values) - 1.0) <= 3 * np.std(values) / np.sqrt(reps)


def test_roc_zero_signal_is_diagonal():
    spec = zero_spec(n=3)
    roc = st.roc_experiment(spec, 400, 1, st.SeedSpec(31, 0))
    assert roc.tv_proxy <= 3 * math.sqrt(1.0 / 400)


def test_roc_strong_spike_separates():
    spec = small_spec([3.0], n=3, d=3)
    roc = st.roc_experiment(spec, 200, 200, st.SeedSpec(32, 0))
    assert roc.tv_proxy > 0.3
    fpr, tpr = roc.points[:, 1], roc.points[:, 2]
    assert np.all((fpr >= 0) & (fpr <= 1) & (tpr >= 0) & (tpr <= 1))


@pytest.mark.parametrize("lam, n", [(0.4, 3), (0.8, 3), (0.6, 4), (1.2, 3), (0.35, 4), (1.0, 6)])
def test_roc_tv_proxy_within_the_second_moment_bound(lam, n):
    # any test has |tpr - fpr| <= TV(P0, P1) <= (1/2) sqrt(m2 - 1); with S
    # fixed the statistic is one function of Y, so this holds for the ROC's
    # population rates with no randomization argument, and each empirical
    # rate is within the DKW slack sqrt(log(2/delta) / (2 trials)) of its
    # own, uniformly over thresholds, with probability 1 - delta; at 10^4
    # trials the two slacks add 0.054
    trials, delta = 10_000, 1e-6
    roc = st.roc_experiment(small_spec([lam], n=n, d=3), trials, 200, st.SeedSpec(33, n))
    m2 = rank_one_second_moment(n, 3, lam)
    assert roc.tv_proxy <= 0.5 * math.sqrt(m2 - 1) + 2 * math.sqrt(math.log(2 / delta) / (2 * trials))


def test_roc_thread_invariance():
    spec = small_spec([0.5], n=3, d=3)
    a = st.roc_experiment(spec, 100, 50, st.SeedSpec(34, 0), threads=1)
    b = st.roc_experiment(spec, 100, 50, st.SeedSpec(34, 0), threads=3)
    assert np.array_equal(a.points, b.points)
    assert a.tv_proxy == b.tv_proxy


_ESTIMATORS = {
    "moment": lambda spec, seed: st.second_moment_haar_mc(spec, 400, seed),
    "split": lambda spec, seed: st.e1_e2_split(spec, 0.05, 400, seed),
    "roc": lambda spec, seed: st.roc_experiment(spec, 20, 5, seed),
    "direct": lambda spec, seed: st.second_moment_direct_mc(spec, 20, 5, seed),
}


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_ESTIMATORS))
def test_estimator_draws_call_no_linalg(monkeypatch, gen, kind, r):
    # at n = r every Haar draw orthonormalizes square stacks, and at n > r
    # frames or Bartlett corner stacks, by Gram-Schmidt with no solver; so
    # do the prior sets, one a run for `roc` and one a chunk lane (16 at
    # 20 observations) for `direct`, drawn outside the blocks
    specs = [make_random_spec(gen, d=3, r=r, n=n) for n in (r, r + 1)]
    drawn = refuse_linalg_in_draws(monkeypatch, moment, "_prior_set")
    for spec in specs:
        _ESTIMATORS[kind](spec, st.SeedSpec(73, r))
    assert drawn
    assert drawn.count("_prior_set") == len(specs) * {"roc": 1, "direct": _N_STREAMS}.get(kind, 0)


# The 0.3.0 per-draw loops of `roc_experiment` and `second_moment_direct_mc`,
# spelled out on the rng primitives with dense spike tensors: the oracles of
# the batched GEMM drivers, which take the same normals in the same order
# (since 0.14.0 `roc` scores every observation against one prior set, drawn
# first from the lane `_PRIOR_LANE`, and since 0.23.0 `direct` against one
# set a chunk lane, drawn from the lane's stream before its observations).
# Scoring Y by a GEMM and using |X_m|_F^2 = eta_max moves the last digits of
# each log-likelihood ratio, so the values agree to rtol 1e-12 and the ROC
# rates exactly.


def _reference_rotations(spec, m, gen):
    # chi_k = [S_k; 0], so Theta chi_k is a Haar frame times the top block S_k
    return [_orthonormalize(complex_gaussian(gen, (m, spec.n, spec.r), np.sqrt(0.5))) @ chi[: spec.r]
            for chi in spec.factors]


def _reference_stack(spec, rotated):
    m = rotated[0].shape[0]
    total = None
    for i in range(spec.r):
        term = spec.lambdas[i] * rotated[0][:, :, i]
        for k in range(1, spec.d):
            term = np.einsum("b...,bn->b...n", term, rotated[k][:, :, i])
        term = term.reshape(m, -1)
        total = term if total is None else total + term
    return total


def _reference_spike(spec, factors):
    out = np.zeros((spec.n,) * spec.d, dtype=complex)
    for i in range(spec.r):
        term = spec.lambdas[i]
        for chi in factors:
            term = np.multiply.outer(term, chi[:, i])
        out += term
    return out


def _reference_log_lr(y, xs, n):
    sq = np.real(np.einsum("bi,bi->b", xs, np.conj(xs)))
    a = 2.0 * n * np.real(np.conj(xs) @ y) - n * sq
    return logsumexp(a) - np.log(len(a))


def _reference_chunks(trials, seed):
    return [(seed.generator(i), size) for i, size in enumerate(chunk_sizes(trials, _N_STREAMS))]


def _noise(spec, gen):
    return complex_gaussian(gen, (spec.n,) * spec.d, np.sqrt(1.0 / (2.0 * spec.n))).ravel()


@pytest.mark.parametrize("lambdas, n, d", [([0.9, 0.4], 3, 3), ([0.7, 0.5], 2, 3), ([1.2], 4, 2)])
def test_roc_equals_per_draw_reference(lambdas, n, d):
    spec = small_spec(lambdas, n=n, d=d)
    trials, inner, seed = 20, 30, st.SeedSpec(41, 2)
    prior = _reference_stack(spec, _reference_rotations(spec, inner, seed.generator(_PRIOR_LANE)))
    s0, s1 = [], []
    for gen, size in _reference_chunks(trials, seed):
        for _ in range(size):
            y0 = _noise(spec, gen)
            s0.append(_reference_log_lr(y0, prior, n))
            spike = _reference_spike(spec, [f[0] for f in _reference_rotations(spec, 1, gen)])
            y1 = (spike + _noise(spec, gen).reshape(spike.shape)).ravel()
            s1.append(_reference_log_lr(y1, prior, n))
    s0, s1 = np.sort(s0), np.sort(s1)
    thresholds = np.unique(np.concatenate([s0, s1]))
    fpr = 1.0 - np.searchsorted(s0, thresholds, side="left") / trials
    tpr = 1.0 - np.searchsorted(s1, thresholds, side="left") / trials
    roc = st.roc_experiment(spec, trials, inner, seed)
    assert np.array_equal(roc.points[:, 1:], np.column_stack([fpr, tpr]))
    np.testing.assert_allclose(roc.points[:, 0], thresholds, rtol=1e-12, atol=0)


@pytest.mark.parametrize("rotate", [True, False])
@pytest.mark.parametrize("lambdas, n, d", [([0.9, 0.4], 3, 3), ([0.7, 0.5], 2, 3), ([1.2], 4, 2)])
def test_direct_mc_equals_per_draw_reference(lambdas, n, d, rotate):
    spec = small_spec(lambdas, n=n, d=d)
    outer, inner, seed = 24, 30, st.SeedSpec(42, 3)
    fixed = _reference_spike(spec, spec.factors).ravel()[None, :]
    chunks = []
    for gen, size in _reference_chunks(outer, seed):
        xs = _reference_stack(spec, _reference_rotations(spec, inner, gen)) if rotate else fixed
        chunks.append(np.array([2.0 * _reference_log_lr(_noise(spec, gen), xs, n) for _ in range(size)]))
    expected = _mean_from_exponents(chunks, seed, outer)
    got = st.second_moment_direct_mc(spec, outer, inner, seed, rotate=rotate)
    if not rotate:  # one fixed spike, a one-row dictionary: the GEMM gives the dense inner product's bits
        assert got == expected
    assert got.count == expected.count
    for field in ("mean", "stderr", "log_domain_max"):
        assert getattr(got, field) == pytest.approx(getattr(expected, field), rel=1e-12, abs=0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_rotate_is_the_per_frame_product(d, r):
    # one (count * n, r) @ (r, r) product a mode gives the bytes of one
    # (n, r) @ (r, r) product a frame; an identity root, which `_rotate`
    # skips, too
    gen = st.SeedSpec(62, 10 * d + r).generator()
    for n, identity in [*((n, False) for n in range(r, 7)), (6, True)]:
        grams = st.GramSet((np.eye(r),) * d if identity else tuple(st.random_gram(r, gen) for _ in range(d)))
        roots = st.SpikeSpec(np.linspace(0.7, 0.3, r), grams, n=n).grams.roots
        assert np.array_equal(roots, np.broadcast_to(np.eye(r), roots.shape)) == (identity or r == 1)
        ginibre = [complex_gaussian(gen, (3, 7, n, r), np.sqrt(0.5)) for _ in range(d)]
        frames = [_orthonormalize(z.reshape(-1, n, r).copy()) for z in ginibre]
        rotated = _rotate(roots, [z.copy() for z in ginibre])
        for got, w, s_k in zip(rotated, frames, roots):
            assert got.shape == (3, 7, n, r)
            assert got.tobytes() == np.stack([q @ s_k for q in w]).tobytes()


def _dense_log_lr(spec, y, factor_sets):
    """log (1/inner) sum_m exp(2 n Re<Y, X_m> - n |X_m|_F^2) with every X_m
    assembled densely by `_spike_tensors`, the kernel of `build_spike`."""
    a = []
    for factors in factor_sets:
        x = _spike_tensors(spec.lambdas, factors)
        a.append(2 * spec.n * np.real(np.vdot(x, y)) - spec.n * np.linalg.norm(x) ** 2)
    return logsumexp(a) - np.log(len(a))


@pytest.mark.parametrize("gram", ["identity", "all-ones"])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_log_lr_stack_matches_dense_spikes(d, r, gram):
    # the likelihood kernel of `roc` and `direct`, `_dictionary_log_lr`
    # (named for `_log_lr_stack`, the contraction kernel it checked until
    # 0.23.0); all-ones Grams are rank one, and so are their roots, which
    # rotate the factors
    n, b, inner = 4, 3, 5
    spec = st.SpikeSpec(np.linspace(0.7, 0.3, r), gram_matrices(gram, r, d), n=n)
    gen = st.SeedSpec(61, 10 * d + r).generator()
    ys = complex_gaussian(gen, (b,) + (n,) * d, np.sqrt(1.0 / (2.0 * n)))
    rotated = _rotate(spec.grams.roots, [complex_gaussian(gen, (1, inner, n, r), np.sqrt(0.5)) for _ in range(d)])
    energy = st.eta_max(spec.lambdas, spec.grams)
    got = _dictionary_log_lr(spec, ys, _prior_dictionary(spec, rotated), energy)
    expected = [_dense_log_lr(spec, y, [[f[0, m] for f in rotated] for m in range(inner)]) for y in ys]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    # the one-row dictionary of the fixed spike
    fixed = _dictionary_log_lr(spec, ys, fixed_dictionary(spec), energy)
    np.testing.assert_allclose(fixed, [_dense_log_lr(spec, y, [spec.factors]) for y in ys], rtol=1e-12, atol=1e-12)


def _scipy_reduction(chunks, count):
    """(mean, stderr, log_domain_max) with scipy's `logsumexp` per chunk as
    the oracle; a bucket that no draw entered has no stderr (None)."""
    exponents = np.concatenate(chunks)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.exp(logsumexp(exponents) - np.log(count)))
        batch_means = np.array([np.exp(logsumexp(c) - np.log(len(c))) for c in chunks])
        stderr = None if np.all(exponents == -np.inf) else 0.0
        if stderr is not None and len(batch_means) >= 2:
            stderr = float(np.std(batch_means, ddof=1) / np.sqrt(len(batch_means)))
    return mean, stderr, float(np.max(exponents))


def _exponent_chunks(total, seed, scale=1.0):
    gen = np.random.default_rng(seed)
    return [scale * gen.standard_normal(size) for size in chunk_sizes(total, _N_STREAMS)]


def _reduction_cases():
    cases = {"equal_16": (_exponent_chunks(2000, 1, 3.0), 2000)}
    ragged = _exponent_chunks(2001, 2, 3.0)
    assert sorted({len(c) for c in ragged}) == [125, 126]
    cases["ragged_126_125"] = (ragged, 2001)
    # split-style buckets: each chunk's draws above or below a level, the
    # others masked to -inf; a high level leaves chunks with no draw
    etas = _exponent_chunks(2001, 3)
    for name, keep in (("bucket_high", lambda e: e > 2.8), ("bucket_low", lambda e: e <= 2.8),
                       ("bucket_empty", lambda e: e > np.inf)):
        cases[name] = ([np.where(keep(e), 16.0 * e, -np.inf) for e in etas], 2001)
    emptied = [np.all(c == -np.inf) for c in cases["bucket_high"][0]]
    assert any(emptied) and not all(emptied)
    assert all(np.all(c == -np.inf) for c in cases["bucket_empty"][0])
    with_inf = _exponent_chunks(2000, 4)
    with_inf[5][17] = np.inf
    cases["plus_inf"] = (with_inf, 2000)
    ties = _exponent_chunks(2001, 5)
    top = max(float(c.max()) for c in ties) + 1.0
    ties[0][[3, 40]] = top
    ties[9][7] = top
    cases["ties_at_max"] = (ties, 2001)
    overflow = _exponent_chunks(2000, 6)
    overflow[2] += 710.0  # exp overflows in one batch mean and in the mean
    cases["overflow"] = (overflow, 2000)
    cases["single_chunk"] = ([np.random.default_rng(7).standard_normal(40)], 40)
    return cases


@pytest.mark.parametrize("name", sorted(_reduction_cases()))
def test_mean_from_exponents_matches_scipy_per_chunk(name):
    chunks, count = _reduction_cases()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _mean_from_exponents(chunks, st.SeedSpec(3, 0), count)
    mean, stderr, top = _scipy_reduction(chunks, count)
    assert got.count == count
    assert got.log_domain_max == top
    # infinities and NaN where the oracle has them, rounding-level gaps elsewhere
    np.testing.assert_allclose(got.mean, mean, rtol=1e-14, atol=0, equal_nan=True)
    if stderr is None:
        assert got.stderr is None
    else:
        np.testing.assert_allclose(got.stderr, stderr, rtol=1e-12, atol=0, equal_nan=True)
