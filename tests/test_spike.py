import numpy as np
import pytest

import spikedtensor as st
from conftest import haar_unitaries, make_random_spec, unitarity_defect
from spikedtensor.errors import ParameterError
from spikedtensor.spike import _spike_tensors


def unit(v):
    return v / np.linalg.norm(v)


def identity_grams(r, d):
    return st.GramSet((np.eye(r),) * d)


def test_spec_validation_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        st.SpikeSpec([-0.5], identity_grams(1, 3), n=4)
    with pytest.raises(ParameterError):
        st.SpikeSpec([1, 1, 1], identity_grams(3, 3), n=2)
    with pytest.raises(ParameterError, match="order d"):
        st.SpikeSpec([1.0], identity_grams(1, 1), n=4)
    with pytest.raises(ParameterError, match="length r"):
        st.SpikeSpec([1.0, 0.5], identity_grams(1, 3), n=4)
    # 2 n sum(lambdas)^2 bounds every exponent the drivers form: it must be finite
    for lam in ([1e200], [1e154], [1e308, 1e308]):
        with pytest.raises(ParameterError, match="finite"):
            st.SpikeSpec(lam, identity_grams(len(lam), 3), n=4)
    st.SpikeSpec([1e150], identity_grams(1, 3), n=4)


def test_spec_refuses_grams_that_are_not_a_gram_set():
    with pytest.raises(ParameterError, match="GramSet"):
        st.SpikeSpec([1.0], (np.eye(1),) * 3, n=4)


def test_spec_allow_zero_mode():
    spec = st.SpikeSpec([0.0], identity_grams(1, 3), n=4)
    assert spec.lambdas[0] == 0.0


def test_gram_set_presets(gen):
    spec = st.SpikeSpec([1.0, 0.5], identity_grams(2, 3), n=5)
    assert (spec.d, spec.r, spec.n) == (3, 2, 5)
    for chi in spec.factors:
        assert np.array_equal(chi, np.eye(5, 2))

    # explicit factors with equal columns: a rank-one spike whose energy is
    # eta_max of the all-ones Grams, (sum lambda)^2
    v = unit(gen.standard_normal(5) + 1j * gen.standard_normal(5))
    chi = np.column_stack([v, v])
    x = _spike_tensors(np.array([1.0, 1.0]), (chi, chi))
    assert np.allclose(x, 2.0 * np.outer(v, v))
    assert np.vdot(x, x).real == pytest.approx(st.eta_max([1.0, 1.0], st.GramSet((np.ones((2, 2)),) * 2)))

    spec = make_random_spec(gen, r=1)
    for g in spec.grams.grams:
        assert np.allclose(g, np.array([[1.0]]))


def test_gramset_validation():
    with pytest.raises(ParameterError):
        st.GramSet((np.array([[1.0, 0.5], [0.4, 1.0]]),))  # not Hermitian
    with pytest.raises(ParameterError):
        st.GramSet((np.array([[2.0, 0.0], [0.0, 1.0]]),))  # diagonal not 1
    with pytest.raises(ParameterError):
        st.GramSet((np.array([[1.0, 1.5], [1.5, 1.0]]),))  # not PSD


def test_factors_reproduce_grams(gen):
    for _ in range(20):
        r = int(gen.integers(1, 4))
        d = int(gen.integers(2, 5))
        n = int(gen.integers(r, 12))
        grams = st.GramSet(tuple(st.random_gram(r, gen) for _ in range(d)))
        spec = st.SpikeSpec(np.ones(r), grams, n=n)
        assert len(spec.factors) == d
        for g, chi in zip(grams.grams, spec.factors):
            assert chi.shape == (n, r)
            assert np.max(np.abs(chi.conj().T @ chi - g)) < 1e-12


def test_factors_edge_cases():
    spec = st.SpikeSpec(np.ones(3), identity_grams(3, 2), n=3)
    for chi in spec.factors:
        assert unitarity_defect(chi) <= 1e-10
    # built once, read-only
    assert spec.factors is spec.factors
    assert not spec.factors[0].flags.writeable

    spec = st.SpikeSpec(np.ones(2), st.GramSet((np.ones((2, 2)), np.ones((2, 2)))), n=4)
    for chi in spec.factors:
        assert np.max(np.abs(chi[:, 0] - chi[:, 1])) < 1e-9


def test_gram_svd_identity_and_all_ones():
    spec = st.SpikeSpec([1, 1], identity_grams(2, 2), n=4)
    svd = spec.grams.svd
    for sig, v in zip(svd.sigmas, svd.vs):
        assert np.allclose(sig, np.ones(2))
        assert np.allclose(v, np.eye(2))

    spec = st.SpikeSpec([1, 1], st.GramSet((np.ones((2, 2)),) * 2), n=4)
    svd = spec.grams.svd
    for sig in svd.sigmas:
        # eigenvalues of the all-ones 2x2 matrix are (2, 0)
        assert np.allclose(sig**2, [2.0, 0.0], atol=1e-12)

    # explicit all-ones factors e_1 e_1^T give the spike 2 e_1 o e_1
    v1 = np.zeros(4, dtype=complex)
    v1[0] = 1.0
    chi = np.column_stack([v1, v1])
    x = _spike_tensors(spec.lambdas, (chi, chi))
    assert x[0, 0] == 2.0 and np.count_nonzero(x) == 1


def test_gram_svd_reconstruction(gen):
    for _ in range(20):
        spec = make_random_spec(gen)
        svd = spec.grams.svd
        for g, sig, v in zip(spec.grams.grams, svd.sigmas, svd.vs):
            assert np.max(np.abs(v @ np.diag(sig**2) @ v.conj().T - g)) < 1e-10
        assert all(np.all(np.diff(sig) <= 1e-15) for sig in svd.sigmas)  # descending


def test_gram_svd_floors_rounding_eigenvalues_to_zero():
    # the all-ones Gram has eigenvalues (r, 0, ..., 0); LAPACK returns the
    # zeros as rounding (-4.5e-16 at r = 3), whose roots would be 3e-9
    grams = st.GramSet((np.ones((3, 3)),) * 3)
    for sig in grams.svd.sigmas:
        assert sig.tolist() == [np.sqrt(3.0), 0.0, 0.0]
    assert np.max(np.abs(grams.roots - 1 / np.sqrt(3.0))) < 1e-15


def test_gram_set_roots_and_factors(gen):
    for r in range(1, 5):
        for _ in range(5):
            d = int(gen.integers(2, 5))
            grams = st.GramSet(tuple(st.random_gram(r, gen) for _ in range(d)))
            roots = grams.roots
            assert roots.shape == (d, r, r) and not roots.flags.writeable
            assert np.max(np.abs(roots - roots.conj().swapaxes(-1, -2))) < 1e-15
            assert np.max(np.abs(roots @ roots - np.array(grams.grams))) < 1e-12
            spec = st.SpikeSpec(np.ones(r), grams, n=r + 2)
            for chi, s_k in zip(spec.factors, roots):
                assert np.array_equal(chi[:r], s_k) and not np.any(chi[r:])


def test_roots_rotate_the_thin_qr_factor(gen):
    # the thin QR chi = Q R of a factor has R = U* S with U unitary, S the
    # Gram's root, so a Haar frame W gives W R = (W U*) S, again a Haar
    # frame times S: rotating by the roots keeps the law of the rotated spike
    for r in range(1, 5):
        for _ in range(5):
            grams = st.GramSet(tuple(st.random_gram(r, gen) for _ in range(3)))
            spec = st.SpikeSpec(np.ones(r), grams, n=r + 2)
            r_factors = np.linalg.qr(np.asarray(spec.factors), mode="r")
            u = r_factors @ np.linalg.inv(grams.roots)
            assert unitarity_defect(u) < 1e-12


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
        emax = st.eta_max(spec.lambdas, spec.grams)
        x0 = st.build_spike(spec)
        self_inner = np.vdot(x0, x0)
        assert self_inner.real >= 0 and abs(self_inner.imag) <= 1e-12 * max(emax, 1.0)
        assert abs(self_inner.real - emax) <= 1e-10 * max(emax, 1.0)


def test_build_spike_single_term():
    spec = st.SpikeSpec([2.0], identity_grams(1, 3), n=3)
    x = st.build_spike(spec)
    assert x[0, 0, 0] == 2.0
    assert np.count_nonzero(x) == 1


def test_build_spike_orthogonal_energy(gen):
    lam = np.array([0.8, 0.5])
    spec = st.SpikeSpec(lam, identity_grams(2, 3), n=4)
    x = st.build_spike(spec)
    # entry-wise summation oracle
    total = 0.0
    for idx in np.ndindex(*x.shape):
        total += abs(x[idx]) ** 2
    assert total == pytest.approx(np.sum(lam**2), rel=1e-12)


def test_build_spike_commutes_with_mode_rotations(gen):
    # rotating every mode of the spike tensor rotates its factors
    spec = make_random_spec(gen, d=3, r=2, n=4)
    ops = list(haar_unitaries(4, 3, gen))
    lhs = np.einsum("ia,jb,kc,abc->ijk", *ops, st.build_spike(spec))
    rhs = _spike_tensors(spec.lambdas, [op @ chi for op, chi in zip(ops, spec.factors)])
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_random_gram_is_valid(gen):
    for r in (1, 2, 3, 5):
        g = st.random_gram(r, gen)
        st.GramSet((g,))  # constructor validates
