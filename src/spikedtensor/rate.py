"""The alignment exponent of a Haar-rotated spike in its expanded and
block-reduced forms, the closed-form lower bound on its large-deviation
rate, and the sampled cloud experiment probing how tight that bound is.

The exponent written in terms of the r x r corner blocks of Haar unitaries
admits a per-block rate of log det(I - psi* psi).  Plotting sampled pairs
(exponent value, summed block rate) gives a cloud whose upper envelope
approximates the negated true rate function; the envelope is the numerical
stand-in for the constrained optimization that has no closed form.

Both quantities have one kernel each, over (count, d, r, r) stacks of
psi-sets; the scalar forms call it on a one-set stack, and the Haar
second-moment estimators score Haar corner sets with the exponent's.  The
block rate is the sum of the log pivots of an r-step elimination of
I - psi* psi, vectorized over the stack, and the exponent one
(count, r^2) @ (r^2, r^2) product per mode, followed by one product with
vec(lambda lambda^T).  Neither calls LAPACK once per block, and no draw of
the cloud calls an eigen- or QR solver: its Ginibre component is scaled by
its Frobenius norm, and its Haar corner stacks are orthonormalized by
Gram-Schmidt at every n, n = r included.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .rng import SeedSpec, _orthonormalize, complex_normal_rounds, map_streams
from .spike import SpikeSpec, SpikeSvd, _hadamard_form, eta_max

_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GrfCloud:
    """Sampled (x, y) pairs, x = alignment exponent, y = summed block rate,
    plus the per-bin upper envelope over x in [-eta_max, eta_max]."""

    points: np.ndarray  # shape (count, 2)
    eta_max: float
    d: int
    envelope: np.ndarray  # shape (populated_bins, 2): bin_center, max_y


def eta_expanded(spec: SpikeSpec, thetas) -> float:
    """Alignment exponent of the rotated spike against the unrotated one:
    Re sum_{i,j} lambda_i lambda_j prod_k <Theta_k x^(k,i), x^(k,j)>."""
    thetas = [np.asarray(t) for t in thetas]
    if len(thetas) != spec.d:
        raise ParameterError(f"need {spec.d} mode operators, got {len(thetas)}")
    had = None
    for chi, theta in zip(spec.factors, thetas):
        if theta.shape != (spec.n, spec.n):
            raise ParameterError(f"operator has shape {theta.shape}, expected {(spec.n, spec.n)}")
        m = chi.conj().T @ theta @ chi
        had = m if had is None else had * m
    return float(np.real(spec.lambdas @ had @ spec.lambdas))


def _pair_weights(lambdas) -> np.ndarray:
    """vec(lambda lambda^T), the weights of `_eta_hadamard_stack`'s
    quadratic form, as a read-only complex vector: the cast that the
    complex product would make of a float one on every call, made once.
    The drivers build it once a run, beside the spike's mode maps."""
    lam = np.asarray(lambdas, dtype=float)
    weights = np.outer(lam, lam).ravel().astype(complex)
    weights.flags.writeable = False
    return weights


def _eta_hadamard_stack(weights: np.ndarray, mode_maps, psi_stack: np.ndarray) -> np.ndarray:
    """Block form of the exponent for every psi-set of a (count, d, r, r)
    stack: Re[ lambda^T (hadamard_k  V_k Sigma_k psi_k Sigma_k V_k*) lambda ].

    With row-major vec, vec(A psi A*) = (A kron conj(A)) vec(psi), so with
    A_k = V_k Sigma_k each mode's core is one (count, r^2) @ (r^2, r^2)
    product with the mode map `mode_maps[k]` of a `SpikeSvd`, and the
    quadratic form in lambda is one product with `weights`, the
    `_pair_weights` vec(lambda lambda^T).  Neither depends on the draws:
    `cloud` and the Haar moments build both once a run, before their pool
    threads start, and a call does only the products.
    """
    count, _, r, _ = psi_stack.shape
    had = None
    for k, mode_map in enumerate(mode_maps):
        core = psi_stack[:, k].reshape(count, r * r) @ mode_map
        had = core if had is None else had * core
    return np.real(had @ weights)


def eta_hadamard(lambdas, svd: SpikeSvd, psis) -> float:
    """Block form of the exponent for one (d, r, r) psi-set (see `_eta_hadamard_stack`)."""
    psi_stack = np.asarray(psis, dtype=complex)[None]
    return float(_eta_hadamard_stack(_pair_weights(lambdas), svd.mode_maps, psi_stack)[0])


def psi_blocks_from_mode_operators(factors, thetas) -> tuple[SpikeSvd, np.ndarray]:
    """Reduce full mode operators to corner blocks.

    For each mode, from the SVD chi = U [Sigma; 0] V* the operator enters the
    exponent only through the top-left r x r block of U* Theta U; returning
    the matching (Sigma_k, V_k) alongside the blocks makes `eta_hadamard`
    reproduce `eta_expanded` on the same operators.  The blocks come back
    as one (d, r, r) psi-set.
    """
    sigmas, vs, blocks = [], [], []
    for chi, theta in zip(factors, thetas):
        r = chi.shape[1]
        u, s, vh = np.linalg.svd(np.asarray(chi), full_matrices=True)
        rotated = u.conj().T @ np.asarray(theta) @ u
        blocks.append(rotated[:r, :r])
        sigmas.append(s)
        vs.append(vh.conj().T)
    return SpikeSvd(sigmas=tuple(sigmas), vs=tuple(vs)), np.array(blocks)


def lemma_sup_bound(lambdas, mats, alphas) -> float:
    """Supremum of |lambda^T (hadamard_k A_k psi_k A_k*) lambda| over all
    psi_k with spectral norm alpha_k:
    (prod_k alpha_k) * lambda^T (hadamard_k A_k A_k*) lambda,
    attained at psi_k = alpha_k * I."""
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas < 0):
        raise ParameterError("spectral norms must be non-negative")
    mats = [np.asarray(a, dtype=complex) for a in mats]
    return float(np.prod(alphas) * _hadamard_form(lambdas, [a @ a.conj().T for a in mats]))


def grf_lower_bound(x, eta_max_value: float, d: int):
    """Closed-form lower bound on the rate function of the exponent:
    -d * log(1 - (|x| / eta_max)^(2/d)), and +inf for |x| >= eta_max.

    Elementwise over an array `x`; a scalar `x` gives a float.
    """
    if eta_max_value <= 0:
        raise ParameterError(f"eta_max must be positive, got {eta_max_value}")
    if d < 2:
        raise ParameterError(f"order d must be >= 2, got {d}")
    frac = np.minimum(np.abs(x) / eta_max_value, 1.0)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf: the bound is +inf there
        bound = -d * np.log1p(-(frac ** (2.0 / d)))
    return float(bound) if np.ndim(bound) == 0 else bound


def _gram_stack(psi_stack: np.ndarray) -> np.ndarray:
    """psi* psi for every r x r block of a (..., r, r) stack, with the stack
    axes last: shape (r, r, ...).  In that layout each of the r products is
    one array operation that runs along the whole stack."""
    p = np.ascontiguousarray(np.moveaxis(psi_stack, (-2, -1), (0, 1)))
    c = p.conj()
    gram = c[0, :, None] * p[0, None, :]
    for i in range(1, p.shape[0]):
        gram += c[i, :, None] * p[i, None, :]
    return gram


def _rate_stack(psi_stack: np.ndarray) -> np.ndarray:
    """Summed block rate sum_k log det(I - psi_k* psi_k) for every psi-set
    of a (count, d, r, r) stack; -inf as soon as one block has a singular
    value of 1 or more.

    The log-determinant is the sum of the log pivots of an r-step
    elimination of A = I - psi* psi (Cholesky without square roots: after
    step j the trailing block holds the Schur complement, whose leading
    entry is pivot j + 1), each step one array operation over the whole
    stack.  A pivot that is not positive, where A is singular or
    indefinite, has a log of -inf or nan, and so has its block's sum,
    which then gives -inf.

    A determinant within its rounding error of zero counts as zero.  Each
    entry of I - psi* psi is off by a few r eps.  By the backward-error
    bound of the elimination, the computed pivots are the exact ones of
    some A + E with |E_ij| <= (r + 1) eps (|L| |D| |L*|)_ij, and for a
    positive semi-definite A that product is at most sqrt(A_ii A_jj) <= 1
    (Cauchy-Schwarz).  As the eigenvalues of A lie in [0, 1], no cofactor
    exceeds 1, so the product of the pivots is off by a small multiple of
    r^3 eps; the floor is 16 r^3 eps.  At n < 2r every Haar corner block
    has a singular value of exactly 1: 52-91 % of such blocks met a pivot
    that is not positive and the rest measured a pivot product <= 5.5 eps
    (r = 1..3, 200k blocks each), while blocks at n = 2r stayed above
    e^-16 (log 16 r^3 eps is about -33 at r = 1, -30 at r = 3).
    """
    r = psi_stack.shape[-1]
    a = -_gram_stack(psi_stack)  # (r, r, count, d)
    diag = np.arange(r)
    a[diag, diag] += 1.0
    logdet = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(r):
            pivot = a[j, j].real
            logdet = logdet + np.log(pivot)
            a[j + 1:, j + 1:] -= a[j + 1:, j, None] * (a[None, j, j + 1:] / pivot)
    floor = math.log(16 * r**3 * np.finfo(float).eps)
    return np.sum(np.where(logdet > floor, logdet, -np.inf), axis=1)


def grf_psi_rate(psis) -> float:
    """Summed block rate of one (d, r, r) psi-set (see `_rate_stack`),
    whose blocks must have spectral norms at most 1."""
    psis = np.asarray(psis, dtype=complex)
    norms = np.linalg.norm(psis, 2, axis=(-2, -1))
    if np.any(norms > 1.0 + _NORM_TOL):
        raise ParameterError(f"spectral norms must be <= 1, got max {np.max(norms):.15g}")
    return float(_rate_stack(psis[None])[0])


class _Bartlett(NamedTuple):
    """Where `_haar_corner_sets` puts the variates of an (r + k, r) stack
    [G1; B], as positions among its (r + k) r cells in row-major order: the
    same for every call at one (n, r), so built once (`_bartlett_layout`)."""

    k: int  # B's rows, min(r, n - r)
    normals: tuple  # (size, index) of each non-empty normal part: G1's r^2 cells, then B's strictly upper entries
    diagonal: slice  # B's diagonal entries (i, i), r^2 + i (r + 1) for i < k
    shapes: np.ndarray  # the Gamma shapes of B_ii^2, n - r - i; 0-d at k = 1


@functools.lru_cache(maxsize=64)
def _bartlett_layout(n: int, r: int) -> _Bartlett:
    """The `_Bartlett` layout at (n, r), built on first use and kept for the
    64 latest (n, r), as many as a `moment` run's n list; its arrays are
    read-only.

    A normal part without entries is left out of `normals`, so it takes no
    `complex_normal_rounds` part and no scatter: B has no strictly upper
    entry at r = 1, and no row at all at n = r.  Where B has one row, k = 1
    (every r = 1 corner, and n = r + 1), the Gamma shape is 0-d: NumPy then
    draws the same variates as from a one-element shape array, without
    broadcasting it against the output, in about half the time (375 draws:
    8 us against 15 us, one thread, 2-vCPU VM)."""
    k = min(r, n - r)
    rows, cols = np.triu_indices(k, 1, r)
    upper = (r + rows) * r + cols
    shapes = n - r - np.arange(k, dtype=float)
    if k == 1:
        shapes = shapes.reshape(())
    upper.flags.writeable = shapes.flags.writeable = False
    normals = tuple(part for part in ((r * r, slice(0, r * r)), (upper.size, upper)) if part[0])
    return _Bartlett(k=k, normals=normals, diagonal=slice(r * r, None, r + 1), shapes=shapes)


def _haar_corner_sets(n: int, r: int, d: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """`count` sets of d independent r x r corner blocks of Haar n x n
    unitaries, shape (count, d, r, r), from O(r^2) variates each at every n.

    The corner is the top r rows of a Haar (n, r) frame Q = G R^-1, the
    phase-corrected QR of a Ginibre G = [G1; G2].  R* R = G1* G1 + G2* G2,
    so the corner G1 R^-1 sees G2 only through G2* G2, a complex Wishart
    CW_r(n - r, I).  Its Bartlett form is B* B with B (k, r), k =
    min(r, n - r), upper trapezoidal: B_ii^2 ~ Gamma(n - r - i) and B_ij,
    j > i, complex normal with N(0, 1/2) parts.  So the corner is the top
    r rows of the orthonormalized (r + k, r) stack [G1; B]; at n = r, k = 0
    and the stack is the full Haar unitary.  Draw order per call: G1 for
    all blocks, then B's strictly upper entries (one round of both parts),
    then its diagonal.

    Where each variate goes depends on (n, r) only: the positions and the
    Gamma shapes are built once per (n, r) (`_bartlett_layout`), so a call
    draws, writes its draws into the zeroed stack and orthonormalizes.
    """
    k, normals, diagonal, shapes = _bartlett_layout(n, r)
    m = count * d
    stack = np.zeros((m, r + k, r), dtype=complex)
    cells = stack.reshape(m, (r + k) * r)
    drawn = complex_normal_rounds(gen, 1, [((m, size), np.sqrt(0.5)) for size, _ in normals])
    for (_, index), part in zip(normals, drawn):
        cells[:, index] = part[0]
    if k:
        np.sqrt(gen.standard_gamma(shapes, size=(m, k)), out=cells[:, diagonal].real)
    return _orthonormalize(stack)[:, :r].reshape(count, d, r, r)


def _corner_cells(n: int, r: int, d: int) -> int:
    """Cells of one draw of `_haar_corner_sets`, its d (r + k, r) stacks:
    the `cells` of `map_streams` for the Haar moment and split."""
    return d * r * (r + min(r, n - r))


def _cloud_cells(n: int, r: int, d: int) -> int:
    """Cells of one cloud draw: its (d, r, r) psi-set plus the largest
    component array behind it, the Haar corner stack; the `cells` of
    `map_streams` for the cloud."""
    return d * r * r + _corner_cells(n, r, d)


# What one Haar-exponent draw of a mode costs in `moment`, `split` and
# `cloud`, in the CLI's work unit (`cli._LIMITS`): `_MAP_MADD_WORK` for each
# of the r^4 complex multiply-adds of its (r^2, r^2) mode-map product, and
# `_CORNER_CELL_WORK` for each of the r^2 cells of its corner, which covers
# its variates, its Gram-Schmidt (about 2 r^3 multiply-adds, at most 64 r^2
# up to the r cap of 32) and the per-cell work of the stacked array calls.
# Timed at the CLI's cap (in-process `cli.main`, one thread, 2-vCPU VM), the
# three drivers took 0.05-0.11 ns a unit from r = 1 to r = 32 (d = 3 at
# n = 2r, and d = 1024 at r = 1), the band `direct` runs in, where the
# product alone would put r = 1 at about 200 times the cost a unit of
# r = 32.  `cloud` adds its CSV row a draw, which its sample cap bounds.
_MAP_MADD_WORK = 8
_CORNER_CELL_WORK = 2048


def _haar_work(r: int, d: int, draws: int) -> int:
    """The one statement of what `draws` Haar-exponent draws cost, the work
    that the CLI's cap reads for `moment`, `split` and `cloud`: d modes a
    draw, each weighted as above."""
    return draws * d * (_MAP_MADD_WORK * r**4 + _CORNER_CELL_WORK * r * r)


def _sample_psi_stack(r: int, n: int, d: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Stack of `count` psi-sets, shape (count, d, r, r).

    The law is a three-way mixture chosen for envelope coverage, not as a
    model; all three components stay inside the spectral unit ball:

    - complex Ginibre rescaled to Frobenius norm sqrt(rho), rho uniform on
      [0,1]: fills the norm shells with unstructured directions.  The
      spectral norm is at most the Frobenius norm, so it is at most
      sqrt(rho), and the scale is one stacked sum of squared moduli;
    - corner blocks of Haar n x n unitaries (`_haar_corner_sets`): the
      typical scale 1/sqrt(n);
    - scaled rank ladder, one set-wide rank m and scale per set:
      psi_k = a * exp(i phi_k) * diag(1..1, 0..0) with a = f^(1/d), f
      uniform.  Aligned sets like these are what reach exponent values
      comparable to the supremum; unstructured draws essentially never do,
      which would leave the outer envelope bins empty.

    Each set's component is drawn first; then each component draws its
    variates for its own sets only, in the order listed.  A component that
    no set drew takes zero-size draws, which leave the generator as it is.
    """
    component = gen.integers(0, 3, size=count)
    out = np.empty((count, d, r, r), dtype=complex)

    ginibre = component == 0
    n_ginibre = int(np.sum(ginibre))
    rhos = gen.random((n_ginibre, d))
    raw = complex_normal_rounds(gen, 1, [((n_ginibre, d, r, r), np.sqrt(0.5))])[0][0]
    frobenius = np.sqrt(np.sum(raw.real**2 + raw.imag**2, axis=(-2, -1)))
    out[ginibre] = raw * (np.sqrt(rhos) / frobenius)[..., None, None]

    from_haar = component == 1
    n_haar = int(np.sum(from_haar))
    out[from_haar] = _haar_corner_sets(n, r, d, n_haar, gen)

    ladder = component == 2
    n_ladder = int(np.sum(ladder))
    scales = gen.random(n_ladder) ** (1.0 / d)
    phases = np.exp(2j * np.pi * gen.random((n_ladder, d)))
    ranks = gen.integers(1, r + 1, size=n_ladder)
    sub = np.zeros((n_ladder, d, r, r), dtype=complex)
    active = np.arange(r)[None, :] < ranks[:, None]
    idx = np.arange(r)
    sub[:, :, idx, idx] = scales[:, None, None] * phases[:, :, None] * active[:, None, :]
    out[ladder] = sub
    return out


def sample_grf_cloud(spec: SpikeSpec, count: int, rng: SeedSpec, bins: int, threads: int = 1) -> GrfCloud:
    """Draw `count` psi-sets, record (exponent, summed block rate) pairs, and
    bin the upper envelope over [-eta_max, eta_max].

    Work is split over a fixed set of child streams merged in stream order,
    so the cloud is identical for every `threads` value.
    """
    if count < 1 or bins < 1:
        raise ParameterError(f"need count >= 1 and bins >= 1, got count={count}, bins={bins}")
    emax = eta_max(spec.lambdas, spec.grams)
    if emax <= 0:
        raise ParameterError("eta_max must be positive to normalize the cloud")
    maps = spec.grams.svd.mode_maps  # built here, once, not in the pool threads
    weights = _pair_weights(spec.lambdas)

    def worker(m, gen):
        stack = _sample_psi_stack(spec.r, spec.n, spec.d, m, gen)
        return np.column_stack([_eta_hadamard_stack(weights, maps, stack), _rate_stack(stack)])

    points = np.concatenate(map_streams(worker, count, rng, threads, cells=_cloud_cells(spec.n, spec.r, spec.d)))
    x, y = points[:, 0], points[:, 1]

    width = 2.0 * emax / bins
    idx = np.clip(((x + emax) / width).astype(int), 0, bins - 1)
    top = np.full(bins, -np.inf)
    np.maximum.at(top, idx, y)
    filled = np.flatnonzero(np.bincount(idx, minlength=bins))
    return GrfCloud(
        points=points,
        eta_max=emax,
        d=spec.d,
        envelope=np.column_stack([-emax + (filled + 0.5) * width, top[filled]]),
    )


def cloud_bound_violations(cloud: GrfCloud) -> int:
    """Number of cloud points more than 1e-9 above the negated closed-form
    bound."""
    bound = -grf_lower_bound(cloud.points[:, 0], cloud.eta_max, cloud.d)
    return int(np.sum(cloud.points[:, 1] > bound + 1e-9))


def envelope_gap_median(cloud: GrfCloud) -> float:
    """Median over 25 sub-bins of the closest pointwise approach to the
    bound, restricted to |x|/eta_max in [0.3, 0.8].

    Each point is compared against the bound at its own x; comparing bin
    maxima against the bound at bin centers would charge the bound's slope
    across a bin to the gap.  NaN when the window holds no point.
    """
    lo, hi, window_bins = 0.3, 0.8, 25
    frac = np.abs(cloud.points[:, 0]) / cloud.eta_max
    keep = (frac >= lo) & (frac <= hi) & (frac < 1.0)
    if not np.any(keep):
        return math.nan
    frac = frac[keep]
    gap = -grf_lower_bound(cloud.points[keep, 0], cloud.eta_max, cloud.d) - cloud.points[keep, 1]
    idx = np.clip(((frac - lo) / (hi - lo) * window_bins).astype(int), 0, window_bins - 1)
    per_bin = np.full(window_bins, np.inf)
    np.minimum.at(per_bin, idx, gap)
    return float(np.median(per_bin[np.unique(idx)]))
