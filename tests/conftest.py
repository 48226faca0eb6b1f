"""Shared builders for randomized checks; everything is seeded."""

import math

import numpy as np
import pytest
from scipy.stats import unitary_group

import spikedtensor as st
from spikedtensor.rng import complex_normal_rounds


def make_random_spec(gen, d=None, r=None, n=None, lam_low=0.1, lam_high=1.5):
    """Random Gram-driven spike at a random desk-scale size."""
    d = d if d is not None else int(gen.integers(2, 5))
    if r is None:
        r = int(gen.integers(1, (3 if n is None else min(3, n)) + 1))
    n = n if n is not None else int(gen.integers(r, 17))
    grams = st.GramSet(tuple(st.random_gram(r, gen) for _ in range(d)))
    lambdas = gen.uniform(lam_low, lam_high, size=r)
    return st.SpikeSpec(lambdas, grams, n=n)


def rank_one_second_moment(n, d, lam):
    """E[exp(2 n eta)] at r=1 by its exact series,
    sum_j (n lambda^2)^(2j) / (j!)^2 * C(n+j-1, j)^(-d)."""
    log_terms, j = [], 0
    while not log_terms or log_terms[-1] > max(log_terms) - 40:  # the terms are log-concave in j
        log_terms.append(2 * j * math.log(n * lam * lam) - 2 * math.lgamma(j + 1)
                         - d * (math.lgamma(n + j) - math.lgamma(j + 1) - math.lgamma(n)))
        j += 1
    return math.fsum(math.exp(t) for t in log_terms)


def complex_gaussian(gen, shape, std):
    """One circular complex Gaussian array of `shape`, component std `std`,
    from the package's sampler: a one-round layout of one part."""
    return complex_normal_rounds(gen, 1, [(shape, std)])[0][0]


def haar_unitaries(n, count, gen):
    """`count` Haar n x n unitaries, shape (count, n, n), by scipy's
    phase-corrected LAPACK QR: an oracle built independently of the
    package's Gram-Schmidt frames."""
    return unitary_group.rvs(n, size=count, random_state=gen).reshape(count, n, n)


def unitarity_defect(m):
    """max |M* M - I| over a matrix or a stack of them, zero for matrices
    with exactly orthonormal columns."""
    n = m.shape[-1]
    return float(np.max(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(n))))


def refuse_linalg_in_draws(monkeypatch, module, *run_draws) -> list:
    """Make every np.linalg function raise while a draw that `module` takes
    through `map_streams` runs: no eigen-, QR or other solver, stacked or
    per block, inside a Monte-Carlo draw.  `run_draws` names functions of
    `module` that draw outside the blocks of `map_streams` (`moment._prior_set`,
    the prior set that `roc` draws once a run and `direct` once a chunk
    lane): every call of one is guarded as a draw too.  The per-run set-up outside the draws (the
    one stacked eigendecomposition of the spike's Grams in `GramSet`)
    stays allowed.
    Returns the list that collects the size of every draw taken through
    `map_streams` and the name of every run draw."""
    inside, drawn = [], []

    def guard(name):
        original = getattr(np.linalg, name)

        def guarded(*args, **kwargs):
            if inside:
                raise AssertionError(f"np.linalg.{name} inside a draw")
            return original(*args, **kwargs)

        return guarded

    for name in np.linalg.__all__:
        value = getattr(np.linalg, name)
        if callable(value) and not isinstance(value, type):
            monkeypatch.setattr(np.linalg, name, guard(name))
    map_streams = module.map_streams

    def guarded_streams(draw, *args, **kwargs):
        def traced(m, generator, *held):
            inside.append(m)
            try:
                return draw(m, generator, *held)
            finally:
                drawn.append(inside.pop())

        return map_streams(traced, *args, **kwargs)

    monkeypatch.setattr(module, "map_streams", guarded_streams)

    def guarded_run_draw(name):
        function = getattr(module, name)

        def traced(*args, **kwargs):
            inside.append(name)
            try:
                return function(*args, **kwargs)
            finally:
                drawn.append(inside.pop())

        return traced

    for name in run_draws:
        monkeypatch.setattr(module, name, guarded_run_draw(name))
    return drawn


@pytest.fixture
def gen():
    return st.SeedSpec(20240809, 0).generator()
