import hashlib
import math

import mpmath
import numpy as np
import pytest
from scipy import stats

import spikedtensor as st
from conftest import complex_gaussian, haar_unitaries, make_random_spec, refuse_linalg_in_draws, unitarity_defect
from spikedtensor.errors import ParameterError
import spikedtensor.moment as moment
import spikedtensor.rate as rate
from spikedtensor.config import gram_matrices
from spikedtensor.rate import _eta_hadamard_stack, _gram_stack, _rate_stack, _sample_psi_stack
from spikedtensor.rng import complex_normal_rounds


def test_eta_expanded_identity_operators(gen):
    spec = make_random_spec(gen)
    eye = [np.eye(spec.n)] * spec.d
    emax = st.eta_max(spec.lambdas, spec.grams)
    assert st.eta_expanded(spec, eye) == pytest.approx(emax, rel=1e-12)


def test_eta_expanded_rank_one_product_form(gen):
    spec = make_random_spec(gen, r=1, n=5)
    thetas = list(haar_unitaries(5, spec.d, gen))
    xis = [np.vdot(chi[:, 0], th @ chi[:, 0]) for chi, th in zip(spec.factors, thetas)]
    expected = spec.lambdas[0] ** 2 * np.real(np.prod(xis))
    assert st.eta_expanded(spec, thetas) == pytest.approx(expected, rel=1e-12)


def test_eta_bounded_by_eta_max(gen):
    for _ in range(10):
        spec = make_random_spec(gen)
        emax = st.eta_max(spec.lambdas, spec.grams)
        for _ in range(50):
            thetas = list(haar_unitaries(spec.n, spec.d, gen))
            assert abs(st.eta_expanded(spec, thetas)) <= emax + 1e-9


def test_eta_hadamard_zero_and_identity(gen):
    spec = make_random_spec(gen)
    svd = st.spike_svd(spec)
    zeros = np.zeros((spec.d, spec.r, spec.r))
    assert st.eta_hadamard(spec.lambdas, svd, zeros) == 0.0
    eyes = np.array([np.eye(spec.r)] * spec.d)
    emax = st.eta_max(spec.lambdas, spec.grams)
    assert st.eta_hadamard(spec.lambdas, svd, eyes) == pytest.approx(emax, rel=1e-12)


def test_eta_forms_agree_via_block_extraction(gen):
    for _ in range(60):
        spec = make_random_spec(gen)
        thetas = list(haar_unitaries(spec.n, spec.d, gen))
        full = st.eta_expanded(spec, thetas)
        svd, psis = st.psi_blocks_from_mode_operators(spec.factors, thetas)
        reduced = st.eta_hadamard(spec.lambdas, svd, psis)
        assert abs(full - reduced) <= 1e-9 * (1.0 + abs(full))


def test_lemma_identity_case():
    lam = np.array([0.5, 0.25])
    bound = st.lemma_sup_bound(lam, [np.eye(2)] * 3, [1.0, 1.0, 1.0])
    assert bound == pytest.approx(np.sum(lam**2), abs=1e-14)


def test_lemma_plug_in_attains(gen):
    for _ in range(50):
        d = int(gen.integers(2, 5))
        r = int(gen.integers(1, 4))
        lam = gen.uniform(0.1, 1.0, size=r)
        mats = [gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r)) for _ in range(d)]
        alphas = gen.uniform(0.0, 1.0, size=d)
        bound = st.lemma_sup_bound(lam, mats, alphas)
        had = None
        for a, alpha in zip(mats, alphas):
            core = a @ (alpha * np.eye(r)) @ a.conj().T
            had = core if had is None else had * core
        attained = abs(lam @ had @ lam)
        assert attained <= bound + 1e-12
        assert attained == pytest.approx(bound, abs=1e-12)


def test_lemma_random_psis_never_exceed(gen):
    for _ in range(500):
        d = int(gen.integers(2, 5))
        r = int(gen.integers(1, 4))
        lam = gen.uniform(0.1, 1.0, size=r)
        mats = [gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r)) for _ in range(d)]
        alphas = gen.uniform(0.0, 1.0, size=d)
        had = None
        for a, alpha in zip(mats, alphas):
            psi = gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r))
            psi *= alpha / np.linalg.norm(psi, 2)
            core = a @ psi @ a.conj().T
            had = core if had is None else had * core
        value = abs(lam @ had @ lam)
        assert value <= st.lemma_sup_bound(lam, mats, alphas) + 1e-9


def test_grf_lower_bound_values():
    assert st.grf_lower_bound(0.0, 1.0, 3) == 0.0
    assert st.grf_lower_bound(1.0, 1.0, 3) == math.inf
    assert st.grf_lower_bound(-2.0, 1.5, 2) == math.inf
    assert st.grf_lower_bound(0.6, 1.0, 2) == pytest.approx(-2.0 * math.log(0.4), rel=1e-12)
    assert type(st.grf_lower_bound(0.6, 1.0, 2)) is float
    with pytest.raises(ParameterError):
        st.grf_lower_bound(0.1, 0.0, 3)
    with pytest.raises(ParameterError):
        st.grf_lower_bound(np.zeros(3), 1.0, 1)


def test_grf_lower_bound_is_elementwise():
    x = np.array([[-2.0, -1.5, -0.9], [0.0, 0.3, 1.5]])
    bound = st.grf_lower_bound(x, 1.5, 3)
    assert bound.shape == x.shape
    assert bound.tolist() == [[st.grf_lower_bound(v, 1.5, 3) for v in row] for row in x.tolist()]
    assert np.isinf(bound[0, :2]).all() and np.isinf(bound[1, 2])


def test_grf_psi_rate_cases(gen):
    r = 3
    zeros = np.zeros((2, r, r))
    assert st.grf_psi_rate(zeros) == 0.0

    # one unit singular value makes the rate -inf
    block = np.diag([1.0, 0.3, 0.0]).astype(complex)
    psis = np.array([block, np.zeros((r, r))])
    assert st.grf_psi_rate(psis) == -math.inf

    diag = np.diag([0.5, 0.2, 0.9]).astype(complex)
    psis = np.array([diag])
    expected = sum(math.log(1 - s * s) for s in (0.5, 0.2, 0.9))
    assert st.grf_psi_rate(psis) == pytest.approx(expected, rel=1e-12)


def test_psi_set_rejects_large_norms():
    good = np.array([np.eye(2)])
    bad = np.array([1.5 * np.eye(2)])
    with pytest.raises(ParameterError):
        st.grf_psi_rate(bad)
    assert st.grf_psi_rate(good) == -math.inf


def test_generous_determinant_bound_per_matrix(gen):
    # log det(I - psi* psi) <= log(1 - |psi|_2^2) for every sampled block
    stack = _sample_psi_stack(3, 8, 4, 2000, gen)
    for pset in stack:
        for block in pset:
            s = np.linalg.svd(block, compute_uv=False)
            top = min(s[0], 1.0)
            with np.errstate(divide="ignore"):
                lhs = float(np.sum(np.log1p(-np.minimum(s, 1.0) ** 2)))
                rhs = float(np.log1p(-top * top))
            assert lhs <= rhs + 1e-12


def test_cloud_invariants(gen):
    spec = make_random_spec(gen, d=3, r=2, n=8)
    cloud = st.sample_grf_cloud(spec, 20000, st.SeedSpec(21, 0), bins=40)
    x, y = cloud.points[:, 0], cloud.points[:, 1]
    assert np.all(np.abs(x) <= cloud.eta_max + 1e-9)
    assert np.all(y <= 0.0)
    assert st.cloud_bound_violations(cloud) == 0
    assert len(cloud.envelope) <= 40
    assert np.all(np.abs(cloud.envelope[:, 0]) <= cloud.eta_max)
    assert np.all(cloud.envelope[:, 1] <= 0.0)


def test_cloud_scaling_covariance(gen):
    spec = make_random_spec(gen, d=3, r=2, n=6)
    seed = st.SeedSpec(22, 0)
    cloud1 = st.sample_grf_cloud(spec, 4000, seed, bins=30)
    c = 1.7
    scaled = st.SpikeSpec(c * spec.lambdas, spec.grams, n=spec.n)
    cloud2 = st.sample_grf_cloud(scaled, 4000, seed, bins=30)
    assert cloud2.eta_max == pytest.approx(c**2 * cloud1.eta_max, rel=1e-12)
    assert np.allclose(cloud2.points[:, 0], c**2 * cloud1.points[:, 0], rtol=1e-10, atol=1e-12)
    assert np.array_equal(cloud2.points[:, 1], cloud1.points[:, 1])
    assert st.cloud_bound_violations(cloud2) == 0


def test_cloud_thread_invariance(gen):
    spec = make_random_spec(gen, d=3, r=2, n=6)
    seed = st.SeedSpec(23, 0)
    a = st.sample_grf_cloud(spec, 3000, seed, bins=20, threads=1)
    b = st.sample_grf_cloud(spec, 3000, seed, bins=20, threads=3)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.envelope, b.envelope)


def test_cloud_rejects_degenerate_inputs(gen):
    spec = make_random_spec(gen)
    with pytest.raises(ParameterError):
        st.sample_grf_cloud(spec, 0, st.SeedSpec(1, 0), bins=10)
    with pytest.raises(ParameterError):
        st.sample_grf_cloud(spec, 10, st.SeedSpec(1, 0), bins=0)


def test_cloud_envelope_and_bound_count_equal_per_point_loops(gen):
    # the loop forms the array forms replaced: per-bin maxima, and the
    # scalar bound at every point
    spec = make_random_spec(gen, d=3, r=2, n=6)
    bins = 30
    cloud = st.sample_grf_cloud(spec, 6000, st.SeedSpec(23, 0), bins=bins)
    x, y = cloud.points[:, 0], cloud.points[:, 1]
    emax = cloud.eta_max
    width = 2.0 * emax / bins
    idx = np.clip(((x + emax) / width).astype(int), 0, bins - 1)
    envelope = np.array([(-emax + (b + 0.5) * width, float(np.max(y[idx == b]))) for b in np.unique(idx)])
    assert cloud.envelope.tobytes() == envelope.tobytes()

    # points placed on the bound within +-tol, and one past |x| = eta_max
    points = cloud.points.copy()
    frac = np.abs(points[:60, 0]) / emax
    points[:60, 1] = spec.d * np.log1p(-frac ** (2.0 / spec.d)) + np.linspace(-2e-9, 2e-9, 60)
    points[60, 0] = -emax * (1.0 + 1e-7)
    doctored = st.GrfCloud(points=points, eta_max=emax, d=cloud.d, envelope=cloud.envelope)
    for c in (cloud, doctored):
        scalar = sum(
            yv > -st.grf_lower_bound(xv, c.eta_max, c.d) + 1e-9 for xv, yv in c.points.tolist()
        )
        assert st.cloud_bound_violations(c) == scalar
    assert st.cloud_bound_violations(doctored) > 1


def test_psi_stack_ginibre_draw_is_complex_normal():
    # the Ginibre component and the Haar corners' normals come from
    # rng.complex_normal_rounds: the same bytes as the inline
    # sqrt(1/2) * (a + 1j b) a part, round by round,
    # and a pinned digest of the whole mixture (rounded to 12 decimals so
    # that last-bit differences between LAPACK builds do not trip it),
    # re-taken at 0.6.0 for the Bartlett corner draw and the per-component
    # variates, and at 0.10.0 for the Frobenius-scaled Ginibre sets (only
    # the Ginibre sets moved, each to Frobenius norm = its 0.9.0 spectral
    # norm within 5e-16)
    def inline(gen, count, layout):
        rounds = [[std * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) for shape, std in layout]
                  for _ in range(count)]
        return [np.stack(part) for part in zip(*rounds)]

    stack = _sample_psi_stack(2, 4, 3, 750, st.SeedSpec(3).generator())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rate, "complex_normal_rounds", inline)
        assert _sample_psi_stack(2, 4, 3, 750, st.SeedSpec(3).generator()).tobytes() == stack.tobytes()
    digest = hashlib.sha256(np.round(stack, 12).tobytes()).hexdigest()
    assert digest == "ffac11848abc82eefeccc0e894d89a19d5553cea670ec43fea2e1f6203eaa167"


def _mp_log_det(block) -> float:
    """log det(I - psi* psi) at 40 digits, from the float64 entries as given."""
    with mpmath.workdps(40):
        psi = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in block])
        det = mpmath.re(mpmath.det(mpmath.eye(block.shape[0]) - psi.H * psi))
        return float(mpmath.log(det)) if det > 0 else -math.inf


@pytest.mark.parametrize("r, n, d, seed", [(2, 4, 3, 5), (4, 16, 2, 4)])
def test_rate_stack_matches_high_precision_log_det(r, n, d, seed):
    # The 20 worst-conditioned blocks of a sampled stack.  A relative
    # change eps in psi's entries moves log det(I - psi* psi) by up to
    # eps * cond, cond = sum_i s_i^2 / (1 - s_i^2); the batched
    # log-determinant stays within 0.6 eps * cond on these blocks, while the
    # former route through singular values, log1p(-s^2), reached 2-3.4.
    # 3000 sets: the 0.6.0 draw order left no block above cond 1e3 among
    # 750 sets at r = 4.
    blocks = _sample_psi_stack(r, n, d, 3000, st.SeedSpec(seed).generator()).reshape(-1, r, r)
    s = np.linalg.svd(blocks, compute_uv=False)
    cond = np.sum(s * s / (1.0 - s * s), axis=1)
    worst = np.argsort(-cond)[:20]
    assert cond[worst[0]] > 1e3
    exact = np.array([_mp_log_det(b) for b in blocks[worst]])
    got = _rate_stack(blocks[worst][:, None])
    assert np.all(np.abs(got - exact) <= np.finfo(float).eps * (1.0 + cond[worst]))


def test_rate_stack_exact_cases():
    sv = np.array([0.5, 0.2, 0.9])
    zero, diag = np.zeros((3, 3)), np.diag(sv)
    # a unit singular value, and one just above 1 (within grf_psi_rate's norm
    # tolerance), where the determinant is zero or negative: both -inf
    above = np.diag([1.0 + 1e-13, 0.3, 0.0])
    stack = np.array([[zero, zero], [diag, zero], [diag, diag], [np.eye(3), zero], [np.diag([1.0, 0.3, 0.0]), diag],
                      [above, zero]])
    got = _rate_stack(stack.astype(complex))
    one = math.fsum(math.log1p(-v * v) for v in sv)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(one, rel=1e-15)
    assert got[2] == pytest.approx(2 * one, rel=1e-15)
    assert got[3] == -math.inf and got[4] == -math.inf and got[5] == -math.inf
    assert st.grf_psi_rate(np.array([above])) == -math.inf


@pytest.mark.parametrize("r", [1, 2, 3])
def test_rate_stack_is_minus_inf_on_haar_corners_below_2r(r):
    # at n < 2r the r x r corner of an n x n unitary has a singular value
    # of exactly 1, so det(I - psi* psi) = 0 in every block; at n = 2r it
    # has none
    for n in range(r, 2 * r + 1):
        stack = rate._haar_corner_sets(n, r, 3, 4000, st.SeedSpec(8, n).generator())
        got = _rate_stack(stack)
        assert np.all(got == -math.inf) if n < 2 * r else np.all(np.isfinite(got))


def _slogdet_rate(psi_stack):
    """The block rate by one batched LAPACK log-determinant, as `_rate_stack`
    computed it before 0.7.0."""
    r = psi_stack.shape[-1]
    gram = np.vecdot(psi_stack[..., :, :, None], psi_stack[..., :, None, :], axis=-3)
    sign, logdet = np.linalg.slogdet(np.eye(r) - gram)
    floor = math.log(16 * r**3 * np.finfo(float).eps)
    return np.sum(np.where((sign.real > 0) & (logdet > floor), logdet, -np.inf), axis=1)


def _assert_rate_matches_slogdet(blocks):
    # per block: the same -inf set, and agreement within twice eps (r + cond),
    # cond = sum_i s_i^2 / (1 - s_i^2).  r + cond = tr (I - psi* psi)^-1 is
    # how far log det moves for an entry error of eps in I - psi* psi, which
    # both routes make when they form it, so each stays within about that
    # of the exact value and the two within twice it; where they differ
    # most, the new kernel is held to eps (r + cond) of a 40-digit value
    r = blocks.shape[-1]
    got, ref = _rate_stack(blocks[:, None]), _slogdet_rate(blocks[:, None])
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(got), finite) and np.all(got[~finite] == -math.inf)
    if not np.any(finite):
        return
    blocks, got, ref = blocks[finite], got[finite], ref[finite]
    s = np.linalg.svd(blocks, compute_uv=False)
    scale = np.finfo(float).eps * (r + np.sum(s * s / (1.0 - s * s), axis=1))
    assert np.all(np.abs(got - ref) <= 2 * scale)
    worst = np.argsort(-np.abs(got - ref) / scale)[:5]
    exact = np.array([_mp_log_det(b) for b in blocks[worst]])
    assert np.all(np.abs(got[worst] - exact) <= scale[worst])


@pytest.mark.parametrize("r, n", sorted({(r, n) for r in (1, 2, 3, 4) for n in (r, 2 * r - 1, 2 * r, 16)}))
def test_rate_stack_matches_the_slogdet_route_on_mixture_stacks(r, n):
    blocks = _sample_psi_stack(r, n, 3, 3000, st.SeedSpec(68, 10 * n + r).generator()).reshape(-1, r, r)
    _assert_rate_matches_slogdet(blocks)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_rate_stack_matches_the_slogdet_route_on_haar_corners(r):
    # below 2r every block is -inf on both routes, at 2r none is
    for n in sorted({r, 2 * r - 1, 2 * r}):
        blocks = rate._haar_corner_sets(n, r, 3, 2000, st.SeedSpec(69, n).generator()).reshape(-1, r, r)
        _assert_rate_matches_slogdet(blocks)
        got = _rate_stack(blocks[:, None])
        assert np.all(got == -math.inf) if n < 2 * r else np.all(np.isfinite(got))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_psi_stack_ginibre_norm_matches_the_svd_rescale(r):
    # the same variates replayed: the Ginibre sets come first in the draw
    # order.  Each block is scaled to Frobenius norm sqrt(rho), so its
    # spectral norm (by SVD) is at most sqrt(rho), and equal to it only at
    # r = 1
    d, count = 3, 2000
    stack = _sample_psi_stack(r, 8, d, count, st.SeedSpec(70, r).generator())
    gen = st.SeedSpec(70, r).generator()
    ginibre = gen.integers(0, 3, size=count) == 0
    rhos = gen.random((int(np.sum(ginibre)), d))
    raw = complex_gaussian(gen, (int(np.sum(ginibre)), d, r, r), np.sqrt(0.5))
    ref = raw * (np.sqrt(rhos) / np.linalg.norm(raw, axis=(-2, -1)))[..., None, None]
    assert np.max(np.abs(stack[ginibre] - ref)) <= 1e-13
    assert np.max(np.abs(np.linalg.norm(stack[ginibre], axis=(-2, -1)) - np.sqrt(rhos))) <= 1e-13
    spectral = np.linalg.svd(stack[ginibre], compute_uv=False)[..., 0]
    assert np.all(spectral <= np.sqrt(rhos) * (1 + 1e-13))
    if r == 1:
        assert np.max(np.abs(spectral - np.sqrt(rhos))) <= 1e-13
    else:
        assert np.all(spectral < np.sqrt(rhos))


def _oracle_psis(kind, r, count, gen):
    """(count, rows, r) psi stacks whose Grams psi* psi are Ginibre Grams,
    rank one, a multiple of I (the top eigenvalue repeated r times) or zero."""
    if kind == "ginibre":
        return complex_gaussian(gen, (count, r, r), np.sqrt(0.5))
    if kind == "rank-one":
        return complex_gaussian(gen, (count, 1, r), 1.0)
    psi = np.zeros((count, r, r), dtype=complex)
    if kind == "equal-diagonal":
        psi[:, np.arange(r), np.arange(r)] = np.sqrt(gen.random(count) + 0.5)[:, None]
    return psi


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("kind", ["ginibre", "equal-diagonal", "rank-one", "zero"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_top_eigenvalue_matches_eigvalsh(r, kind, scale):
    # `_gram_stack` (the Gram stack `_rate_stack` factors) against the SVD:
    # the top eigenvalue of each block, by `eigvalsh`, is the squared
    # spectral norm of its psi, and it is at most the trace, the squared
    # Frobenius norm the Ginibre component is scaled by, with equality
    # exactly where the Gram has rank at most one.  The Gram product,
    # `eigvalsh` and the squared SVD are each off by a few r eps
    psi = np.sqrt(scale) * _oracle_psis(kind, r, 2000, st.SeedSpec(72, r).generator())
    gram = _gram_stack(psi)
    assert gram.shape == (r, r, psi.shape[0])
    top = np.linalg.eigvalsh(np.moveaxis(gram, (0, 1), (-2, -1)))[..., -1]
    spectral = np.linalg.svd(psi, compute_uv=False)[..., 0]
    tol = 8 * r * np.finfo(float).eps
    assert np.all(np.abs(top - spectral**2) <= tol * spectral**2)
    trace = np.trace(gram).real
    frobenius = np.sum(psi.real**2 + psi.imag**2, axis=(-2, -1))
    assert np.all(np.abs(trace - frobenius) <= tol * frobenius)
    assert np.all(top <= trace * (1 + tol))
    if r == 1 or kind in ("rank-one", "zero"):
        assert np.all(np.abs(trace - top) <= tol * trace)
    else:
        assert np.all(top < trace * (1 - tol))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cloud_path_calls_no_per_block_lapack(monkeypatch, gen, r):
    # every rank, at n = r (the corner stack is a full unitary) and at
    # n = r + 2, with no known exception
    specs = [make_random_spec(gen, d=3, r=r, n=n) for n in (r, r + 2)]
    drawn = refuse_linalg_in_draws(monkeypatch, rate)
    for spec in specs:
        cloud = st.sample_grf_cloud(spec, 2000, st.SeedSpec(71, r), bins=20)
        assert cloud.points.shape == (2000, 2) and st.cloud_bound_violations(cloud) == 0
    assert sum(drawn) == 4000


def _frame_corner_sets(n, r, d, count, gen):
    """Haar corner sets by an independent route: the top-left r x r blocks
    of scipy's Haar unitaries, drawn 500 at a time to bound the memory."""
    blocks = [haar_unitaries(n, min(500, count * d - start), gen)[:, :r, :r] for start in range(0, count * d, 500)]
    return np.concatenate(blocks).reshape(count, d, r, r)


@pytest.mark.parametrize("n", [2, 4, 32, 512])
def test_rank_one_haar_corner_is_beta_distributed(n):
    # |U_11|^2 of a Haar n x n unitary is Beta(1, n - 1)
    corners = rate._haar_corner_sets(n, 1, 4, 5000, st.SeedSpec(61, n).generator())
    assert stats.kstest(np.abs(corners.ravel()) ** 2, stats.beta(1, n - 1).cdf).pvalue > 1e-3


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("offset", ["r+1", "2r", "2r+3", "64"])
def test_haar_corner_singular_values_match_the_frame_route(r, offset):
    # two-sample KS on each singular value, against corners of Haar frames;
    # rounded to 1e-10 so that the r - k values of exactly 1 at n < 2r tie
    n = {"r+1": r + 1, "2r": 2 * r, "2r+3": 2 * r + 3, "64": 64}[offset]
    corners = rate._haar_corner_sets(n, r, 2, 3000, st.SeedSpec(62, 10 * n + r).generator())
    frames = _frame_corner_sets(n, r, 2, 3000, st.SeedSpec(63, 10 * n + r).generator())
    s_new = np.round(np.linalg.svd(corners, compute_uv=False).reshape(-1, r), 10)
    s_ref = np.round(np.linalg.svd(frames, compute_uv=False).reshape(-1, r), 10)
    for i in range(r):
        assert stats.ks_2samp(s_new[:, i], s_ref[:, i]).pvalue > 1e-3


@pytest.mark.parametrize("n, r", [(1, 1), (5, 1), (2, 2), (7, 2), (3, 3), (40, 3)])
def test_haar_corner_entry_phases_are_uniform(n, r):
    corners = rate._haar_corner_sets(n, r, 3, 3000, st.SeedSpec(64, 10 * n + r).generator())
    phases = np.angle(corners).reshape(-1, r * r)
    for entry in phases.T:
        assert stats.kstest(entry, stats.uniform(-np.pi, 2 * np.pi).cdf).pvalue > 1e-3


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_haar_corners_at_n_equal_r_are_unitary(r):
    corners = rate._haar_corner_sets(r, r, 3, 500, st.SeedSpec(65, r).generator())
    assert unitarity_defect(corners) < 1e-12


def test_rank_two_haar_moment_matches_the_frame_route(monkeypatch):
    spec = st.SpikeSpec([0.4, 0.2], gram_matrices("two-eigenvalue:1.8,0.2", 2, 3), n=8)
    corner = st.second_moment_haar_mc(spec, 20_000, st.SeedSpec(66, 0))
    monkeypatch.setattr(moment, "_haar_corner_sets", _frame_corner_sets)
    frame = st.second_moment_haar_mc(spec, 20_000, st.SeedSpec(66, 1))
    assert abs(corner.mean - frame.mean) <= 4 * math.hypot(corner.stderr, frame.stderr)


class _CountingGenerator:
    """A generator that counts the variates each of its methods returns."""

    def __init__(self, gen):
        self._gen = gen
        self.variates = 0

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.variates += np.size(out)
            return out

        return counted


@pytest.mark.parametrize("r", [1, 2, 3])
def test_haar_corner_draw_count_does_not_grow_with_n(monkeypatch, r):
    requested = []

    def counting_normal(gen, count, layout):
        requested.append(count * sum(math.prod(shape) for shape, _ in layout))
        return complex_normal_rounds(gen, count, layout)

    monkeypatch.setattr(rate, "complex_normal_rounds", counting_normal)
    counts = []
    for n in (2 * r + 1, 4096):
        requested.clear()
        gen = _CountingGenerator(st.SeedSpec(67, n).generator())
        assert rate._haar_corner_sets(n, r, 3, 10, gen).shape == (10, 3, r, r)
        counts.append((sum(requested), gen.variates))
    assert counts[0] == counts[1] and counts[0][1] > 0


@pytest.mark.parametrize("n, r, d, gram", [
    (2, 2, 3, "identity"),
    (5, 2, 3, "two-eigenvalue:1.8,0.2"),
    (7, 3, 2, "random"),
    (6, 3, 4, "all-ones"),
    (9, 1, 3, "identity"),
    (4, 2, 2, "all-ones"),
])
def test_eta_hadamard_stack_matches_expanded_form(n, r, d, gram):
    gen = st.SeedSpec(31, n * 100 + r * 10 + d).generator()
    if gram == "random":
        grams = st.GramSet(tuple(st.random_gram(r, gen) for _ in range(d)))
    else:
        grams = gram_matrices(gram, r, d)
    spec = st.SpikeSpec(gen.uniform(0.3, 1.2, size=r), grams, n=n)
    expanded, stack = [], []
    for _ in range(40):
        thetas = list(haar_unitaries(n, d, gen))
        expanded.append(st.eta_expanded(spec, thetas))
        svd, psis = st.psi_blocks_from_mode_operators(spec.factors, thetas)
        stack.append(psis)
    got = _eta_hadamard_stack(spec.lambdas, svd, np.array(stack))
    assert np.max(np.abs(got - np.array(expanded))) <= 1e-12


def _kron_map(sig, v):
    a = v * sig
    return np.kron(a, a.conj()).T


def _inline_kron_eta(lambdas, svd, psi_stack):
    """The exponent kernel with each mode map built inline by `np.kron`, as
    it was before `SpikeSvd` held the maps."""
    count, _, r, _ = psi_stack.shape
    had = None
    for k, (sig, v) in enumerate(zip(svd.sigmas, svd.vs)):
        core = psi_stack[:, k].reshape(count, r * r) @ _kron_map(sig, v)
        had = core if had is None else had * core
    return np.real(had @ np.outer(lambdas, lambdas).ravel())


def _assert_maps_are_kron(svd):
    assert len(svd.mode_maps) == len(svd.sigmas)
    for m, sig, v in zip(svd.mode_maps, svd.sigmas, svd.vs):
        ref = _kron_map(sig, v)
        assert m.shape == ref.shape and m.strides == ref.strides and m.tobytes() == ref.tobytes()
        assert not m.flags.writeable


@pytest.mark.parametrize("r, d, gram", [
    (r, d, gram)
    for r in (1, 2, 3)
    for d in (2, 3, 4)
    for gram in ("identity", "two-eigenvalue:1.8,0.2", "random")
    if gram != "two-eigenvalue:1.8,0.2" or r == 2
])
def test_mode_maps_and_exponent_match_inline_kron(r, d, gram):
    n = r + 3
    gen = st.SeedSpec(47, 100 * r + 10 * d).generator()
    if gram == "random":
        grams = st.GramSet(tuple(st.random_gram(r, gen) for _ in range(d)))
    else:
        grams = gram_matrices(gram, r, d)
    spec = st.SpikeSpec(gen.uniform(0.3, 1.2, size=r), grams, n=n)
    svd = st.spike_svd(spec)
    _assert_maps_are_kron(svd)
    stack = rate._haar_corner_sets(n, r, d, 300, gen)
    assert _eta_hadamard_stack(spec.lambdas, svd, stack).tobytes() == _inline_kron_eta(spec.lambdas, svd, stack).tobytes()
    # the spectra from full mode operators, as `eta_hadamard` takes them
    block_svd, _ = st.psi_blocks_from_mode_operators(spec.factors, list(haar_unitaries(n, d, gen)))
    _assert_maps_are_kron(block_svd)
    stack = complex_gaussian(gen, (50, d, r, r), np.sqrt(0.5))
    got = _eta_hadamard_stack(spec.lambdas, block_svd, stack)
    assert got.tobytes() == _inline_kron_eta(spec.lambdas, block_svd, stack).tobytes()
