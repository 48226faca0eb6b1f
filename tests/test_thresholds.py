import math

import mpmath
import numpy as np
import pytest
from scipy.special import lambertw

import spikedtensor as st
from conftest import make_random_spec
from spikedtensor.config import gram_matrices
from spikedtensor.errors import ParameterError


def grid_oracle(d, points=10**6):
    u = np.linspace(0.0, 1.0, points + 1)[1:-1]
    return float(np.sqrt(np.min(-np.log1p(-u * u) / u**d)))


def test_beta_2_is_one():
    assert abs(st.beta_d_second(2) - 1.0) <= 1e-9


def test_beta_3_matches_grid_oracle():
    assert abs(st.beta_d_second(3) - grid_oracle(3)) < 1e-6


def objective(u, d):
    return -math.log1p(-u * u) / u**d


def test_beta_interior_minimizer_first_order_optimality():
    # the closed form's minimizer u* = sqrt(1 - 1/z): the derivative
    # vanishes there and the objective there is beta_d^2
    for d in (3, 5, 8):
        z = -(d / 2) * lambertw(-(2 / d) * math.exp(-2 / d), -1).real
        u_star = math.sqrt(1.0 - 1.0 / z)
        h = 1e-5
        deriv = (objective(u_star + h, d) - objective(u_star - h, d)) / (2 * h)
        assert abs(deriv) <= 1e-6
        assert objective(u_star, d) == pytest.approx(st.beta_d_second(d) ** 2, rel=1e-14)


def mpmath_beta(d):
    """beta_d from the W_-1 root at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(d) / 2
        z = mpmath.re(-a * mpmath.lambertw(-mpmath.exp(-1 / a) / a, -1))
        return mpmath.sqrt(mpmath.log(z) / (1 - 1 / z) ** a)


def test_beta_within_two_ulp_of_mpmath():
    for d in [*range(3, 65), *(10**k for k in range(3, 10))]:
        b = st.beta_d_second(d)
        assert abs(mpmath.mpf(b) - mpmath_beta(d)) <= 2 * math.ulp(b), d


def test_beta_3_equals_lambertw_formula_bit_for_bit():
    z = -1.5 * lambertw(-(2 / 3) * math.exp(-2 / 3), -1).real
    assert st.beta_d_second(3) == math.sqrt(math.log(z) * math.exp(-1.5 * math.log1p(-1.0 / z)))


def test_beta_positive_finite_up_to_32():
    for d in range(2, 33):
        b = st.beta_d_second(d)
        assert math.isfinite(b) and b > 0


@pytest.mark.filterwarnings("error")
def test_beta_large_d_is_quiet_and_increasing():
    # the minimizer tends to u = 1 as d grows; a grid there overflows u^-d
    values = [st.beta_d_second(d) for d in (32, 200, 10**3, 10**5, 10**17)]
    assert values == sorted(values) and all(math.isfinite(b) for b in values)


def test_beta_rejects_small_d():
    with pytest.raises(ParameterError):
        st.beta_d_second(1)


def test_hoelder_tiny_and_boundary():
    ok, margin = st.hoelder_condition([1e-6], 3)
    assert ok and margin > 0
    # exact boundary: strict inequality fails
    exact = math.sqrt(1.5) * st.beta_d_second(3)
    ok, margin = st.hoelder_condition([exact], 3)
    assert not ok and margin == 0.0


def test_hoelder_r1_matches_rank_one_rule():
    lam = 0.9
    ok, _ = st.hoelder_condition([lam], 3)
    assert ok == (lam < math.sqrt(1.5) * st.beta_d_second(3))


def test_main_condition_reduces_to_hoelder_for_all_ones():
    lam = [0.4, 0.3]
    j = st.GramSet((np.ones((2, 2)),) * 3)
    ok_h, margin_h = st.hoelder_condition(lam, 3)
    ok_m, margin_m = st.main_condition(lam, j, 3)
    assert ok_h == ok_m
    assert margin_m == pytest.approx(margin_h, abs=1e-12)


def test_main_condition_orthogonal_grams_weaker():
    a = 0.8
    i = st.GramSet((np.eye(2),) * 3)
    _, margin_m = st.main_condition([a, a], i, 3)
    _, margin_h = st.hoelder_condition([a, a], 3)
    # eta_max = 2 a^2, so the statistic is a*sqrt(2) < 2a
    threshold = math.sqrt(1.5) * st.beta_d_second(3)
    assert margin_m == pytest.approx(threshold - a * math.sqrt(2), abs=1e-12)
    assert margin_m > margin_h


def test_hoelder_implies_main(gen):
    for _ in range(300):
        r = int(gen.integers(1, 4))
        d = int(gen.integers(2, 5))
        grams = st.GramSet(tuple(st.random_gram(r, gen) for _ in range(d)))
        lam = gen.uniform(0.05, 1.2, size=r)
        ok_h, _ = st.hoelder_condition(lam, d)
        ok_m, _ = st.main_condition(lam, grams, d)
        if ok_h:
            assert ok_m


def test_mu_max_rank_one():
    spec = st.SpikeSpec([0.5], st.GramSet((np.eye(1),) * 2), n=4)
    assert st.matrix_case_mu_max(spec) == pytest.approx(0.25, abs=1e-14)


def test_mu_max_orthonormal_columns():
    spec = st.SpikeSpec([0.9, 0.4], st.GramSet((np.eye(2),) * 2), n=5)
    assert st.matrix_case_mu_max(spec) == pytest.approx(0.81, rel=1e-12)


def test_mu_max_matches_dense_eigensolver(gen):
    for _ in range(25):
        spec = make_random_spec(gen, d=2, n=int(gen.integers(3, 9)))
        x0 = st.build_spike(spec)
        brute = float(np.max(np.linalg.eigvalsh(x0 @ x0.conj().T)))
        assert abs(st.matrix_case_mu_max(spec) - brute) < 1e-9


def test_mu_max_requires_d2(gen):
    spec = make_random_spec(gen, d=3)
    with pytest.raises(ParameterError):
        st.matrix_case_mu_max(spec)


def test_threshold_report_fields(gen):
    spec = make_random_spec(gen, d=2, r=1)
    report = st.threshold_report(spec)
    assert report.d == 2
    assert report.d2_mu_max is not None and report.d2_ok is not None
    assert report.hoelder_ok <= report.main_ok  # implication as booleans
    spec3 = make_random_spec(gen, d=3)
    report3 = st.threshold_report(spec3)
    assert report3.d2_mu_max is None and report3.d2_ok is None
    assert report3.to_dict()["beta_d"] == pytest.approx(st.beta_d_second(3))


@pytest.mark.parametrize("case", ["two-eigenvalue", "random"])
def test_threshold_report_reads_the_grams_it_was_given(case):
    # the report's eta_max is the closed form of the Grams themselves, bit
    # for bit, not of Grams rebuilt from factor matrices (0.7657599999999994
    # in place of 0.7657600000000001 for the two-eigenvalue spike)
    if case == "two-eigenvalue":
        lambdas, grams = [0.6, 0.4], gram_matrices("two-eigenvalue:1.8,0.2", 2, 3)
    else:
        gen = st.SeedSpec(27, 0).generator()
        lambdas, grams = [0.5, 0.3, 0.2], st.GramSet(tuple(st.random_gram(3, gen) for _ in range(3)))
    report = st.threshold_report(st.SpikeSpec(lambdas, grams, n=5))
    assert report.eta_max == st.eta_max(lambdas, grams)
