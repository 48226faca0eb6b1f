import numpy as np
import pytest

import spikedtensor as st
from conftest import make_random_spec
from spikedtensor.errors import DimensionError, ParameterError


def unit(v):
    return v / np.linalg.norm(v)


def orthonormal_factors(n, r, d):
    return tuple(np.eye(n, r, dtype=complex) for _ in range(d))


def test_spec_validation_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        st.SpikeSpec(d=3, n=4, r=1, lambdas=[0.0], factors=orthonormal_factors(4, 1, 3))
    with pytest.raises(ParameterError):
        st.SpikeSpec(d=3, n=4, r=1, lambdas=[-0.5], factors=orthonormal_factors(4, 1, 3))
    with pytest.raises(ParameterError):
        st.SpikeSpec(d=3, n=2, r=3, lambdas=[1, 1, 1], factors=orthonormal_factors(2, 3, 3))
    bad = list(orthonormal_factors(4, 1, 3))
    bad[0] = 2.0 * bad[0]
    with pytest.raises(ParameterError):
        st.SpikeSpec(d=3, n=4, r=1, lambdas=[1.0], factors=tuple(bad))
    with pytest.raises(DimensionError):
        st.SpikeSpec(d=3, n=4, r=1, lambdas=[1.0], factors=orthonormal_factors(3, 1, 3))
    # 2 n sum(lambdas)^2 bounds every exponent the drivers form: it must be finite
    for lam in ([1e200], [1e154], [1e308, 1e308]):
        with pytest.raises(ParameterError, match="finite"):
            st.SpikeSpec(d=3, n=4, r=len(lam), lambdas=lam, factors=orthonormal_factors(4, len(lam), 3))
    st.SpikeSpec(d=3, n=4, r=1, lambdas=[1e150], factors=orthonormal_factors(4, 1, 3))


def test_spec_allow_zero_mode():
    spec = st.SpikeSpec(d=3, n=4, r=1, lambdas=[0.0], factors=orthonormal_factors(4, 1, 3), allow_zero=True)
    assert spec.lambdas[0] == 0.0


def test_gram_set_presets(gen):
    spec = st.SpikeSpec(d=3, n=5, r=2, lambdas=[1.0, 0.5], factors=orthonormal_factors(5, 2, 3))
    for g in st.gram_set(spec).grams:
        assert np.allclose(g, np.eye(2))

    v = unit(gen.standard_normal(5) + 1j * gen.standard_normal(5))
    chi = np.column_stack([v, v])
    spec = st.SpikeSpec(d=2, n=5, r=2, lambdas=[1.0, 1.0], factors=(chi, chi))
    for g in st.gram_set(spec).grams:
        assert np.allclose(g, np.ones((2, 2)))

    spec = make_random_spec(gen, r=1)
    for g in st.gram_set(spec).grams:
        assert np.allclose(g, np.array([[1.0]]))


def test_gramset_validation():
    with pytest.raises(ParameterError):
        st.GramSet((np.array([[1.0, 0.5], [0.4, 1.0]]),))  # not Hermitian
    with pytest.raises(ParameterError):
        st.GramSet((np.array([[2.0, 0.0], [0.0, 1.0]]),))  # diagonal not 1
    with pytest.raises(ParameterError):
        st.GramSet((np.array([[1.0, 1.5], [1.5, 1.0]]),))  # not PSD


def test_factors_from_grams_round_trip(gen):
    for _ in range(20):
        r = int(gen.integers(1, 4))
        d = int(gen.integers(2, 5))
        n = int(gen.integers(r, 12))
        grams = st.GramSet(tuple(st.random_gram(r, gen) for _ in range(d)))
        for rng in (None, st.SeedSpec(77, 3)):
            factors = st.factors_from_grams(grams, n, rng)
            back = st.gram_set(st.SpikeSpec(d=d, n=n, r=r, lambdas=np.ones(r), factors=factors))
            for g_in, g_out in zip(grams.grams, back.grams):
                assert np.max(np.abs(g_in - g_out)) < 1e-9


def test_factors_from_grams_edge_cases():
    grams = st.GramSet((np.eye(3), np.eye(3)))
    factors = st.factors_from_grams(grams, 3)
    for chi in factors:
        assert st.unitarity_defect(chi) <= 1e-10

    j = st.GramSet((np.ones((2, 2)), np.ones((2, 2))))
    for chi in st.factors_from_grams(j, 4):
        assert np.max(np.abs(chi[:, 0] - chi[:, 1])) < 1e-9

    with pytest.raises(ParameterError):
        st.factors_from_grams(grams, 2)


def test_spike_svd_identity_and_all_ones():
    spec = st.SpikeSpec(d=2, n=4, r=2, lambdas=[1, 1], factors=orthonormal_factors(4, 2, 2))
    svd = st.spike_svd(spec)
    for sig, v in zip(svd.sigmas, svd.vs):
        assert np.allclose(sig, np.ones(2))
        assert np.allclose(v, np.eye(2))

    v1 = np.zeros(4, dtype=complex)
    v1[0] = 1.0
    chi = np.column_stack([v1, v1])
    spec = st.SpikeSpec(d=2, n=4, r=2, lambdas=[1, 1], factors=(chi, chi))
    svd = st.spike_svd(spec)
    for sig in svd.sigmas:
        # eigenvalues of the all-ones 2x2 matrix are (2, 0)
        assert np.allclose(sig**2, [2.0, 0.0], atol=1e-12)


def test_spike_svd_reconstruction(gen):
    for _ in range(20):
        spec = make_random_spec(gen)
        svd = st.spike_svd(spec)
        for g, sig, v in zip(st.gram_set(spec).grams, svd.sigmas, svd.vs):
            assert np.max(np.abs(v @ np.diag(sig**2) @ v.conj().T - g)) < 1e-10
        assert all(np.all(np.diff(sig) <= 1e-15) for sig in svd.sigmas)  # descending


def test_eta_max_closed_forms():
    lam = np.array([0.7, 0.4])
    assert st.eta_max([0.9], st.GramSet((np.eye(1),) * 3)) == pytest.approx(0.81, abs=1e-15)
    j = st.GramSet((np.ones((2, 2)),) * 3)
    assert st.eta_max(lam, j) == pytest.approx(np.sum(lam) ** 2, abs=1e-12)
    i = st.GramSet((np.eye(2),) * 3)
    assert st.eta_max(lam, i) == pytest.approx(np.sum(lam**2), abs=1e-12)


def test_eta_max_dominated_by_hoelder_value(gen):
    for _ in range(200):
        r = int(gen.integers(1, 4))
        d = int(gen.integers(2, 5))
        grams = st.GramSet(tuple(st.random_gram(r, gen) for _ in range(d)))
        lam = gen.uniform(0.05, 2.0, size=r)
        emax = st.eta_max(lam, grams)
        assert emax <= np.sum(lam) ** 2 + 1e-12
        had = grams.grams[0].copy()
        for g in grams.grams[1:]:
            had = had * g
        assert abs(np.imag(lam @ had @ lam)) <= 1e-12


def test_eta_max_equals_spike_energy(gen):
    for _ in range(30):
        spec = make_random_spec(gen)
        emax = st.eta_max(spec.lambdas, st.gram_set(spec))
        x0 = st.build_spike(spec)
        self_inner = np.vdot(x0, x0)
        assert self_inner.real >= 0 and abs(self_inner.imag) <= 1e-12 * max(emax, 1.0)
        assert abs(self_inner.real - emax) <= 1e-10 * max(emax, 1.0)


def test_build_spike_single_term():
    factors = orthonormal_factors(3, 1, 3)
    spec = st.SpikeSpec(d=3, n=3, r=1, lambdas=[2.0], factors=factors)
    x = st.build_spike(spec)
    assert x[0, 0, 0] == 2.0
    assert np.count_nonzero(x) == 1


def test_build_spike_orthogonal_energy(gen):
    lam = np.array([0.8, 0.5])
    spec = st.SpikeSpec(d=3, n=4, r=2, lambdas=lam, factors=orthonormal_factors(4, 2, 3))
    x = st.build_spike(spec)
    # entry-wise summation oracle
    total = 0.0
    for idx in np.ndindex(*x.shape):
        total += abs(x[idx]) ** 2
    assert total == pytest.approx(np.sum(lam**2), rel=1e-12)


def test_build_spike_commutes_with_mode_rotations(gen):
    # rotating every mode of the spike tensor rotates its factors
    spec = make_random_spec(gen, d=3, r=2, n=4)
    ops = [st.sample_haar_unitaries(4, 1, gen)[0] for _ in range(3)]
    rotated = st.SpikeSpec(
        d=spec.d, n=spec.n, r=spec.r, lambdas=spec.lambdas,
        factors=tuple(op @ chi for op, chi in zip(ops, spec.factors)),
    )
    lhs = np.einsum("ia,jb,kc,abc->ijk", *ops, st.build_spike(spec))
    rhs = st.build_spike(rotated)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_random_gram_is_valid(gen):
    for r in (1, 2, 3, 5):
        g = st.random_gram(r, gen)
        st.GramSet((g,))  # constructor validates
