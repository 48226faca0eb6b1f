"""Rank-r spike parameterization: amplitudes, per-mode Gram matrices, the
factor matrices they embed at dimension n, and the Gram spectra everything
downstream runs on.

The Gram matrices are the canonical experiment parameters: they do not
depend on the ambient dimension n, so a spike is its amplitudes, its Grams
and n, and its factor matrices are derived at n only where a driver reads
them.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .rng import complex_normal_rounds

_HERMITIAN_TOL = 1e-12
_DIAGONAL_TOL = 1e-12
_PSD_TOL = 1e-10


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
                raise ParameterError(f"gram {k} has shape {g.shape}, expected {(r, r)}")
            if not np.all(np.isfinite(g)):  # NaN passes every comparison below
                raise ParameterError(f"gram {k} has a non-finite entry")
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
class SpikeSpec:
    """Rank-r spike at dimension n: amplitudes `lambdas` (length r,
    non-negative) and the d factor Grams `grams`, a `GramSet`.

    A zero amplitude lowers the rank; the all-zero spike is the null.  Of
    the subcommands, `threshold` refuses a zero amplitude, and `cloud` and
    `split` without `--epsilon` an all-zero spike; the others run both.
    """

    lambdas: np.ndarray
    grams: GramSet
    n: int

    def __post_init__(self):
        if not isinstance(self.grams, GramSet):
            raise ParameterError(f"grams must be a GramSet, got {type(self.grams).__name__}")
        object.__setattr__(self, "lambdas", np.asarray(self.lambdas, dtype=float))
        if self.d < 2:
            raise ParameterError(f"order d must be >= 2, got {self.d}")
        if not (1 <= self.r <= self.n):
            raise ParameterError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        if self.lambdas.shape != (self.r,):
            raise ParameterError(f"lambdas must have length r={self.r}, got shape {self.lambdas.shape}")
        if np.any(self.lambdas < 0):
            raise ParameterError("amplitudes must be non-negative")
        # eta_max <= sum(lambdas)^2, so 2 n sum(lambdas)^2 bounds every
        # exponent a driver forms: 2 n eta in `moment`, 2 eta_max in `cloud`
        with np.errstate(over="ignore"):
            total = np.sum(self.lambdas)
            top = 2.0 * self.n * total**2
        if not np.isfinite(top):
            raise ParameterError(f"2 n sum(lambdas)^2 must be a finite float, got sum(lambdas) = {total:.6g}")

    @property
    def d(self) -> int:
        return self.grams.d

    @property
    def r(self) -> int:
        return self.grams.r

    @functools.cached_property
    def factors(self) -> tuple:
        """The d factor matrices chi_k of shape (n, r) with chi_k* chi_k =
        gram_k: the Hermitian square root of each Gram fills the top r rows,
        and the rows below are zero.  Built once, on first read, and
        read-only."""
        chi = np.zeros((self.d, self.n, self.r), dtype=complex)
        chi[:, : self.r] = [_psd_sqrt(g) for g in self.grams.grams]
        chi.flags.writeable = False
        return tuple(chi)


@dataclass(frozen=True, eq=False)
class SpikeSvd:
    """Per-mode Gram spectra: `sigmas[k]` holds the diagonal of the
    descending non-negative r x r matrix Sigma_k and `vs[k]` the matching
    r x r unitary, so gram_k = V_k diag(sigma_k^2) V_k*.

    `mode_maps[k]` is (A_k kron conj(A_k))^T with A_k = V_k Sigma_k, the
    (r^2, r^2) map of the block-form exponent (`rate._eta_hadamard_stack`).
    It is built here, once per spike, and read-only, so the pool threads of
    a run share it without building it themselves.
    """

    sigmas: tuple
    vs: tuple
    mode_maps: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sigmas", tuple(np.asarray(s, dtype=float) for s in self.sigmas))
        object.__setattr__(self, "vs", tuple(np.asarray(v, dtype=complex) for v in self.vs))
        maps = []
        for sig, v in zip(self.sigmas, self.vs):
            a = v * sig
            m = np.kron(a, a.conj()).T
            m.flags.writeable = False
            maps.append(m)
        object.__setattr__(self, "mode_maps", tuple(maps))


def _psd_sqrt(g: np.ndarray) -> np.ndarray:
    """Hermitian square root of a Gram that `GramSet` found PSD within
    _PSD_TOL, its tiny negative eigenvalues clipped to 0."""
    evals, vecs = np.linalg.eigh(g)
    evals = np.clip(evals, 0.0, None)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def spike_svd(spec: SpikeSpec) -> SpikeSvd:
    """Gram spectra (Sigma_k, V_k), computed from the r x r Grams so the
    result does not depend on n.  Singular values are sorted descending;
    Gram eigenvalues in [-1e-10, 0) are clipped to 0."""
    sigmas, vs = [], []
    for g in spec.grams.grams:
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
    return _hadamard_form(lambdas, grams.grams)


def _hadamard_form(lambdas, mats) -> float:
    """Re lambda^T (hadamard product of the r x r `mats`, in order) lambda:
    the quadratic form of `eta_max` and `rate.lemma_sup_bound`."""
    lam = np.asarray(lambdas, dtype=float)
    had = functools.reduce(operator.mul, mats)
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


def random_gram(r: int, gen: np.random.Generator) -> np.ndarray:
    """Random Hermitian PSD r x r matrix with unit diagonal (a normalized
    complex Wishart draw); handy for randomized checks and experiments."""
    if r < 1:
        raise ParameterError(f"need r >= 1, got {r}")
    a = complex_normal_rounds(gen, 1, [((r, 2 * r), 1.0)])[0][0]
    g = a @ a.conj().T
    scale = 1.0 / np.sqrt(np.real(np.diagonal(g)))
    g = g * scale[:, None] * scale[None, :]
    np.fill_diagonal(g, 1.0)
    return g
