"""Rank-r spike parameterization: amplitudes, per-mode factor matrices,
their Gram matrices, and the Gram spectra everything downstream runs on.

The Gram matrices are the canonical experiment parameters: they do not
depend on the ambient dimension n, so experiments are specified by Gram
targets and factor matrices are synthesized at whatever n a simulation
needs.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .rng import SeedSpec, as_generator, sample_haar_unitaries

_COLUMN_NORM_TOL = 1e-10
_HERMITIAN_TOL = 1e-12
_DIAGONAL_TOL = 1e-12
_PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpikeSpec:
    """Rank-r spike: amplitudes `lambdas` (length r, positive) and d factor
    matrices of shape (n, r) with unit-norm columns.

    `allow_zero` relaxes the strict positivity of the amplitudes; it exists
    only so tests can exercise the degenerate zero-signal limit.
    """

    d: int
    n: int
    r: int
    lambdas: np.ndarray
    factors: tuple
    allow_zero: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lambdas", np.asarray(self.lambdas, dtype=float))
        object.__setattr__(self, "factors", tuple(np.asarray(f, dtype=complex) for f in self.factors))
        if self.d < 2:
            raise ParameterError(f"order d must be >= 2, got {self.d}")
        if self.n < 1:
            raise ParameterError(f"dimension n must be >= 1, got {self.n}")
        if not (1 <= self.r <= self.n):
            raise ParameterError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        if self.lambdas.shape != (self.r,):
            raise ParameterError(f"lambdas must have length r={self.r}, got shape {self.lambdas.shape}")
        if self.allow_zero:
            if np.any(self.lambdas < 0):
                raise ParameterError("amplitudes must be non-negative")
        elif np.any(self.lambdas <= 0):
            raise ParameterError("amplitudes must be strictly positive; drop zero components instead")
        # eta_max <= sum(lambdas)^2, so 2 n sum(lambdas)^2 bounds every
        # exponent a driver forms: 2 n eta in `moment`, 2 eta_max in `cloud`
        with np.errstate(over="ignore"):
            total = np.sum(self.lambdas)
            top = 2.0 * self.n * total**2
        if not np.isfinite(top):
            raise ParameterError(f"2 n sum(lambdas)^2 must be a finite float, got sum(lambdas) = {total:.6g}")
        if len(self.factors) != self.d:
            raise ParameterError(f"need {self.d} factor matrices, got {len(self.factors)}")
        for k, chi in enumerate(self.factors):
            if chi.shape != (self.n, self.r):
                raise DimensionError(f"factor {k} has shape {chi.shape}, expected {(self.n, self.r)}")
            norms = np.linalg.norm(chi, axis=0)
            if np.max(np.abs(norms - 1.0)) > _COLUMN_NORM_TOL:
                raise ParameterError(f"factor {k} columns must be unit norm (max deviation {np.max(np.abs(norms - 1.0)):.3e})")


@dataclass(frozen=True, eq=False)
class GramSet:
    """d Hermitian PSD r x r matrices with unit diagonal."""

    grams: tuple

    def __post_init__(self):
        object.__setattr__(self, "grams", tuple(np.asarray(g, dtype=complex) for g in self.grams))
        if not self.grams:
            raise ParameterError("need at least one Gram matrix")
        r = self.grams[0].shape[0]
        for k, g in enumerate(self.grams):
            if g.shape != (r, r):
                raise DimensionError(f"gram {k} has shape {g.shape}, expected {(r, r)}")
            if np.max(np.abs(g - g.conj().T)) > _HERMITIAN_TOL:
                raise ParameterError(f"gram {k} is not Hermitian within {_HERMITIAN_TOL}")
            if np.max(np.abs(np.diagonal(g) - 1.0)) > _DIAGONAL_TOL:
                raise ParameterError(f"gram {k} diagonal must be 1 within {_DIAGONAL_TOL}")
            if np.min(np.linalg.eigvalsh(g)) < -_PSD_TOL:
                raise ParameterError(f"gram {k} is not PSD within {_PSD_TOL}")
            if np.max(np.abs(g)) > 1.0 + _PSD_TOL:
                raise ParameterError(f"gram {k} has off-diagonal modulus exceeding 1")

    @property
    def r(self) -> int:
        return self.grams[0].shape[0]

    @property
    def d(self) -> int:
        return len(self.grams)


@dataclass(frozen=True, eq=False)
class SpikeSvd:
    """Per-mode Gram spectra: `sigmas[k]` holds the diagonal of the
    descending non-negative r x r matrix Sigma_k and `vs[k]` the matching
    r x r unitary, so gram_k = V_k diag(sigma_k^2) V_k*."""

    sigmas: tuple
    vs: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigmas", tuple(np.asarray(s, dtype=float) for s in self.sigmas))
        object.__setattr__(self, "vs", tuple(np.asarray(v, dtype=complex) for v in self.vs))


def gram_set(spec: SpikeSpec) -> GramSet:
    """The d Gram matrices chi_k* chi_k of a spike."""
    return GramSet(tuple(chi.conj().T @ chi for chi in spec.factors))


def _psd_sqrt(g: np.ndarray) -> np.ndarray:
    """Hermitian square root with tiny negative eigenvalues clipped to 0."""
    evals, vecs = np.linalg.eigh(g)
    if np.min(evals) < -_PSD_TOL:
        raise ParameterError(f"matrix is not PSD within {_PSD_TOL} (min eigenvalue {np.min(evals):.3e})")
    evals = np.clip(evals, 0.0, None)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def factors_from_grams(grams: GramSet, n: int, rng: SeedSpec | None = None) -> tuple:
    """Factor matrices chi_k of shape (n, r) whose Grams reproduce `grams`.

    The Hermitian square root of each Gram fills the top r rows; rows below
    are zero.  When `rng` is given each factor is instead a Haar (n, r)
    frame times that square root, which is the square-root embedding
    left-multiplied by an independent Haar unitary: the embedding direction
    is randomized.
    """
    r = grams.r
    if n < r:
        raise ParameterError(f"need n >= r, got n={n}, r={r}")
    gen = None if rng is None else as_generator(rng)
    factors = []
    for g in grams.grams:
        root = _psd_sqrt(g)
        if gen is None:
            chi = np.zeros((n, r), dtype=complex)
            chi[:r, :] = root
        else:
            chi = sample_haar_unitaries(n, 1, gen, columns=r)[0] @ root
        factors.append(chi)
    return tuple(factors)


def spec_from_grams(lambdas, grams: GramSet, n: int, rng: SeedSpec | None = None, allow_zero: bool = False) -> SpikeSpec:
    """Convenience: synthesize a SpikeSpec at dimension n from Gram targets."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != (grams.r,):
        raise ParameterError(f"lambdas must have length {grams.r}, got shape {lambdas.shape}")
    factors = factors_from_grams(grams, n, rng)
    return SpikeSpec(d=grams.d, n=n, r=grams.r, lambdas=lambdas, factors=factors, allow_zero=allow_zero)


def spike_svd(spec: SpikeSpec) -> SpikeSvd:
    """Gram spectra (Sigma_k, V_k), computed from the r x r Grams so the
    result does not depend on n.  Singular values are sorted descending;
    Gram eigenvalues in [-1e-10, 0) are clipped to 0."""
    sigmas, vs = [], []
    for g in gram_set(spec).grams:
        evals, vecs = np.linalg.eigh(g)
        order = np.argsort(-evals, kind="stable")
        evals = np.clip(evals[order], 0.0, None)
        sigmas.append(np.sqrt(evals))
        vs.append(vecs[:, order])
    return SpikeSvd(sigmas=tuple(sigmas), vs=tuple(vs))


def eta_max(lambdas, grams: GramSet) -> float:
    """lambda^T (hadamard product of the Grams) lambda.

    This equals the squared Frobenius norm of the spike and bounds the
    modulus of the alignment exponent; it is real and non-negative because
    the Hadamard product of PSD matrices is PSD.
    """
    lam = np.asarray(lambdas, dtype=float)
    had = functools.reduce(operator.mul, grams.grams)
    return float(np.real(lam @ had @ lam))


def build_spike(spec: SpikeSpec) -> np.ndarray:
    """Assemble the dense rank-r spike tensor
    sum_i lambda_i x^(1,i) o ... o x^(d,i)."""
    return _spike_tensors(spec.lambdas, spec.factors)


def _spike_tensors(lambdas, factors) -> np.ndarray:
    """`build_spike` over a stack: factors of shape (..., n, r), one per
    mode, give spikes of shape (..., n, ..., n)."""
    lead, n = factors[0].shape[:-2], factors[0].shape[-2]
    out = np.zeros(lead + (n,) * len(factors), dtype=complex)
    for i in range(len(lambdas)):
        term = lambdas[i]
        for k, chi in enumerate(factors):
            # outer product with column i of mode k, by broadcasting
            term = np.multiply(np.expand_dims(term, -1), chi[..., i].reshape(lead + (1,) * k + (n,)))
        out += term
    return out


def random_gram(r: int, rng) -> np.ndarray:
    """Random Hermitian PSD r x r matrix with unit diagonal (a normalized
    complex Wishart draw); handy for randomized checks and experiments."""
    if r < 1:
        raise ParameterError(f"need r >= 1, got {r}")
    gen = as_generator(rng)
    a = gen.standard_normal((r, 2 * r)) + 1j * gen.standard_normal((r, 2 * r))
    g = a @ a.conj().T
    scale = 1.0 / np.sqrt(np.real(np.diagonal(g)))
    g = g * scale[:, None] * scale[None, :]
    np.fill_diagonal(g, 1.0)
    return g
