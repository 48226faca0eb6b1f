"""Monte-Carlo estimation of the squared likelihood ratio's second moment,
the two-piece split of that expectation, sphere-coordinate tail laws, and
the empirical ROC of the likelihood-ratio test.

All exponential averages are taken in one log-domain pass, shifted by
the largest exponent, and every estimate reports that exponent
(`log_domain_max`).  Near the detectability threshold exp(2 n eta) has
enormous relative variance: the reported means are then dominated by rare
draws and the asymptotic values are not reachable by sampling at desk
scale.  The estimators report honest batch-means standard errors instead
of hiding this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .rate import _corner_cells, _eta_hadamard_stack, _haar_corner_sets
from .rng import _PRIOR_LANE, SeedSpec, _orthonormalize, complex_normal_rounds, map_streams
from .spike import SpikeSpec, _spike_tensors, eta_max, spike_svd

@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo mean with batch-means standard error.

    `log_domain_max` is the largest exponent that entered the average; a
    value of order log(count) or more signals the heavy-tail regime where
    the mean is driven by a handful of draws.  An empty bucket has none:
    -inf here, null in `to_dict`.
    """

    count: int
    mean: float
    stderr: float
    log_domain_max: float
    seed: SeedSpec

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "stderr": self.stderr,
            "log_domain_max": None if self.log_domain_max == -math.inf else self.log_domain_max,
            "seed": self.seed.to_dict(),
        }


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Empirical ROC rows (threshold, fpr, tpr) and the separation proxy
    max_t |tpr(t) - fpr(t)|."""

    points: np.ndarray  # shape (m, 3)
    tv_proxy: float


def _mean_from_exponents(chunks, seed: SeedSpec, count: int) -> MCEstimate:
    """Combine per-chunk exponent arrays into mean / batch-means stderr in
    one log-domain pass.

    The exponentials are shifted by the largest exponent `top` (by 0 when
    it is not finite) and summed per chunk by one `np.bincount`; the mean
    and each batch mean are exp(log(sum) + shift - log(draws)).  A draw
    outside a bucket has the exponent -inf, which adds an exact 0 to its
    chunk's sum: a chunk or bucket with no other draw sums to 0.  A chunk
    more than about 708 below `top` in log flushes to 0, and its share of
    the stderr is below 1e-300.  The exponentials overflow to inf where the
    mean is not a finite float; the writers refuse that, so NumPy need not
    warn of it.
    """
    lengths = [len(c) for c in chunks]
    exponents = np.concatenate(chunks)
    top = float(np.max(exponents))
    shift = top if math.isfinite(top) else 0.0
    owner = np.repeat(np.arange(len(chunks)), lengths)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sums = np.bincount(owner, weights=np.exp(exponents - shift), minlength=len(chunks))
        mean = float(np.exp(np.log(np.sum(sums)) + shift - np.log(count)))
        batch_means = np.exp(np.log(sums) + shift - np.log(lengths))
        stderr = 0.0
        if len(batch_means) >= 2:
            stderr = float(np.std(batch_means, ddof=1) / np.sqrt(len(batch_means)))
    return MCEstimate(count=count, mean=mean, stderr=stderr, log_domain_max=top, seed=seed)


def _thin_r(spec: SpikeSpec) -> np.ndarray:
    """The r x r factors R_k of the thin QRs chi_k = Q_k R_k, shape (d, r, r).

    For a Haar Theta, Theta Q_k is uniform on the Stiefel manifold of
    (n, r) frames, so W @ R_k with W a Haar frame has the law of
    Theta @ chi_k.  Q_k has orthonormal columns even when the Gram of chi_k
    is singular, so this holds for every spike.
    """
    return np.linalg.qr(np.asarray(spec.factors), mode="r")


def _rotate(r_factors: np.ndarray, ginibre) -> list:
    """Haar rotations Theta_k chi_k of every factor, as W_k R_k with R_k
    from `_thin_r` and W_k the Haar frames of the mode's (..., n, r)
    Ginibre stack in `ginibre`; one array per mode, shaped like its stack.

    Every frame row of a mode goes through one 2-D product, the
    (count * n, r) stack of rows @ R_k, not one (n, r) @ (r, r) product
    per frame: the same BLAS kernel over the same rows, so the same bytes.
    On a `direct` block of 3200 frames (n = 3, one thread, 2-vCPU VM) a
    mode's product took 39 us against 61 us at r = 1, and 193 us against
    1141 us at r = 2.  The stacks in `ginibre` are consumed: at r = 1
    `_orthonormalize` overwrites them, so pass fresh draws.
    """
    return [
        (_orthonormalize(z.reshape(-1, *z.shape[-2:])).reshape(-1, z.shape[-1]) @ r_k).reshape(z.shape)
        for z, r_k in zip(ginibre, r_factors)
    ]


def _rotation_parts(spec: SpikeSpec, m: int) -> list:
    """(shape, std) of the Ginibre draws of `m` rotations of every factor,
    in draw order: a `complex_normal_rounds` layout."""
    return [((m, spec.n, spec.r), np.sqrt(0.5))] * spec.d


def _haar_eta_chunks(spec: SpikeSpec, samples: int, rng: SeedSpec, threads: int) -> list:
    """`samples` draws of the alignment exponent under i.i.d. Haar
    rotations, one array per `map_streams` chunk, scored by the cloud's
    block-form kernel on Haar corner sets.

    With chi_k = U_k [Sigma_k; 0] V_k*, the mode overlap is
    chi_k* Theta chi_k = V_k Sigma_k (U_k* Theta U_k)[:r, :r] Sigma_k V_k*,
    and U_k* Theta U_k is Haar when Theta is, so its corner has the law of
    a Haar corner block: never the full tensors or the full unitaries.  A
    draw takes d corner stacks of `_haar_corner_sets`, (r + min(r, n - r), r)
    each, from O(r^2) variates at every n (`_corner_cells`).
    """
    if samples < 2:
        raise ParameterError(f"need samples >= 2, got {samples}")
    svd = spike_svd(spec)

    def worker(m, gen):
        return _eta_hadamard_stack(spec.lambdas, svd, _haar_corner_sets(spec.n, spec.r, spec.d, m, gen))

    return map_streams(worker, samples, rng, threads, cells=_corner_cells(spec.n, spec.r, spec.d))


def second_moment_haar_mc(spec: SpikeSpec, samples: int, rng: SeedSpec, threads: int = 1) -> MCEstimate:
    """Estimate E[exp(2 n eta)] over i.i.d. Haar mode rotations.

    This equals the second moment of the likelihood ratio under the null
    once the spike prior is the Haar rotation of a fixed spike.
    """
    chunks = [2.0 * spec.n * c for c in _haar_eta_chunks(spec, samples, rng, threads)]
    return _mean_from_exponents(chunks, rng, samples)


def default_epsilon(spec: SpikeSpec) -> float:
    """Split level min(eta_max / 4, r^2 * max_ij lambda_i lambda_j), small
    enough for the tail argument the split feeds."""
    lam = spec.lambdas
    return min(eta_max(lam, spec.grams) / 4.0, spec.r**2 * float(np.max(lam)) ** 2)


def _complement(total: float, part: float) -> float:
    """The float v minimizing |v - (total - part)| subject to
    part + v == total exactly; nudges by ulps to defeat double rounding."""
    v = total - part
    for _ in range(8):
        s = part + v
        if s == total:
            return v
        v = math.nextafter(v, math.inf if s < total else -math.inf)
    raise ArithmeticError("could not form an exact complement")


def e1_e2_split(spec: SpikeSpec, epsilon: float, samples: int, rng: SeedSpec, threads: int = 1) -> tuple[MCEstimate, MCEstimate]:
    """Single-pass split of the second-moment average over the events
    {eta > epsilon} and {eta <= epsilon}.

    Runs on the same stream layout as `second_moment_haar_mc`, so with equal
    arguments the two bucket means add up to that estimator's mean exactly:
    the first bucket is scored as is and the second is defined as its exact
    complement (its own one-pass value up to the rounding of the other two
    means).  Where no such complement exists (the second mean in the
    total's binade, the first half an ulp off that grid, so that every sum
    rounds to even past the total), the roles swap: the second bucket is scored as is, and the first
    is total - e2, exact by Sterbenz's lemma since e2 >= total / 2 there.
    """
    if epsilon <= 0:
        raise ParameterError(f"need epsilon > 0, got {epsilon}")
    eta_chunks = _haar_eta_chunks(spec, samples, rng, threads)
    exp_chunks = [2.0 * spec.n * c for c in eta_chunks]
    total = _mean_from_exponents(exp_chunks, rng, samples)
    e1 = _mean_from_exponents([np.where(e > epsilon, c, -np.inf) for c, e in zip(exp_chunks, eta_chunks)], rng, samples)
    e2 = _mean_from_exponents([np.where(e <= epsilon, c, -np.inf) for c, e in zip(exp_chunks, eta_chunks)], rng, samples)
    try:
        e2 = replace(e2, mean=_complement(total.mean, e1.mean))
    except ArithmeticError:
        e1 = replace(e1, mean=_complement(total.mean, e2.mean))
    return e1, e2


def _log_lr_stack(spec: SpikeSpec, ys: np.ndarray, factors, energy: float) -> np.ndarray:
    """log (1/inner) sum_m exp(2 n Re<Y, X_m> - n |X_m|_F^2) for each of a
    stack of observations `ys` (b, n, ..., n), where X_m is the spike of
    the m-th factor set: `factors` holds one (b, inner, n, r) array per
    mode (a leading axis of 1 broadcasts one set to every observation).

    Re<X_m, Y> = Re<Y, X_m> is taken by contracting conj(Y) with the
    factors, last mode first: one batched matmul with r folded into the
    columns, then one einsum per remaining mode, never forming the spikes.
    Every X_m has the factor Grams of `spec`, so |X_m|_F^2 is their
    `energy` = eta_max.
    """
    n, b = spec.n, ys.shape[0]
    last = factors[-1]
    inner = last.shape[1]
    cols = last.transpose(0, 2, 1, 3).reshape(last.shape[0], n, inner * spec.r)
    t = (np.conj(ys).reshape(b, -1, n) @ cols).reshape(b, *(n,) * (spec.d - 1), inner, spec.r)
    for f in factors[-2::-1]:
        t = np.einsum("b...jmi,bmji->b...mi", t, f)
    a = 2.0 * n * np.real(t @ spec.lambdas) - n * energy
    top = np.max(a, axis=1)
    return np.log(np.sum(np.exp(a - top[:, None]), axis=1)) + top - np.log(inner)


def _noise_part(spec: SpikeSpec) -> tuple:
    """(shape, std) of one noise tensor, i.i.d. circular complex Gaussian
    entries of variance 1/n (each real component N(0, 1/(2n))), as a
    `complex_normal_rounds` layout part."""
    return ((spec.n,) * spec.d, np.sqrt(1.0 / (2.0 * spec.n)))


def _draw_cells(spec: SpikeSpec, inner: int) -> int:
    """Cells of the largest array of one observation draw against `inner`
    factor sets: its first likelihood contraction (n^(d-1), inner * r), its
    n^d noise tensor, or the d (inner, n, r) rotations, which outgrow the
    contraction when n^(d-2) < d.  `direct` draws those rotations for every
    observation; `roc` holds them once, as its prior set, which the CLI's
    cap on one draw bounds too.  The `cells` of `map_streams` for the
    observation drivers."""
    return max(inner * spec.r * spec.n ** (spec.d - 1), spec.n**spec.d, spec.d * spec.n * spec.r * inner)


def second_moment_direct_mc(
    spec: SpikeSpec,
    outer: int,
    inner: int,
    rng: SeedSpec,
    rotate: bool = True,
    threads: int = 1,
) -> MCEstimate:
    """Observation-side estimate of the second moment: draw null tensors Y,
    estimate the likelihood ratio of each by inner sampling of the spike
    prior, and average the square.

    The inner average makes this estimator biased by O(1/inner); it exists
    as an independent cross-check of `second_moment_haar_mc` at very small
    (n, d).  With `rotate=False` the spike is held fixed at its unrotated
    value, which corresponds to the deterministic-signal model whose second
    moment is exp(2 n |X0|_F^2).
    """
    if outer < 2 or inner < 1:
        raise ParameterError(f"need outer >= 2 and inner >= 1, got outer={outer}, inner={inner}")
    stacked = inner if rotate else 1
    layout = [_noise_part(spec), *(_rotation_parts(spec, inner) if rotate else [])]
    fixed = [chi[None, None] for chi in spec.factors]
    r_factors = _thin_r(spec)
    energy = eta_max(spec.lambdas, spec.grams)

    def worker(m, gen):
        y, *ginibre = complex_normal_rounds(gen, m, layout)
        return 2.0 * _log_lr_stack(spec, y, _rotate(r_factors, ginibre) if rotate else fixed, energy)

    chunks = map_streams(worker, outer, rng, threads, cells=_draw_cells(spec, stacked))
    return _mean_from_exponents(chunks, rng, outer)


def xi_tail_probability(t: float, n: int) -> float:
    """Exact survival probability (1 - t^2)^(n-1) of the modulus of one
    coordinate of a uniform point on the unit sphere of C^n."""
    if not (0.0 <= t <= 1.0):
        raise ParameterError(f"need t in [0, 1], got {t}")
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    return (1.0 - t * t) ** (n - 1)


def xi_empirical_tail(n: int, ts, samples: int, rng: SeedSpec, threads: int = 1) -> list[MCEstimate]:
    """Empirical frequencies of |u_1| >= t, one estimate per t in `ts`, all
    counted on one set of uniform sphere samples u in C^n, with binomial
    standard errors.

    A sample is n independent Exp(1) variates e_j, the law of the squared
    moduli |v_j|^2 of a standard complex Gaussian v, whose normalization is
    uniform on the sphere.  So (e_1, ..., e_n) / sum_j e_j is
    Dirichlet(1, ..., 1), the law of (|u_1|^2, ..., |u_n|^2), and a block
    counts ``e_1 / sum_j e_j >= t^2``: n variates a sample, no complex
    array, norm or square root.  Every coordinate is drawn, so the check
    does not rest on the Beta(1, n - 1) law of |u_1|^2 that the analytic
    tail comes from.

    A block's row sums are one gemv, ``e @ ones(n)``, not NumPy's pairwise
    sum a row: 23 us against 204 us for a 9375 x 4 block, 43 us against
    227 us for 8192 x 16 (one thread, 2-vCPU VM).  The two sums group the
    additions differently, so the ratios agree within 4 n eps (relative),
    not in bytes; a count can move only where e_1 / sum_j e_j lies that
    close to some t^2."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ParameterError(f"need a non-empty sequence of t, got {ts!r}")
    for t in ts:
        if not (0.0 <= t <= 1.0):
            raise ParameterError(f"need t in [0, 1], got {t}")
    if n < 2 or samples < 1:
        raise ParameterError(f"need n >= 2 and samples >= 1, got n={n}, samples={samples}")

    squares = ts * ts
    ones = np.ones(n)

    def worker(m, gen):
        e = gen.standard_exponential((m, n))  # |v_j|^2, one Exp(1) a coordinate
        ratio = e[:, 0] / (e @ ones)  # the row sums as one gemv, not a short sum a row
        return np.array([[np.count_nonzero(ratio >= t2) for t2 in squares]])  # one t at a time: no (m, t) temporary

    hits = np.concatenate(map_streams(worker, samples, rng, threads, cells=n)).sum(axis=0)
    freqs = [int(h) / samples for h in hits]
    return [
        MCEstimate(count=samples, mean=p, stderr=float(np.sqrt(p * (1.0 - p) / samples)), log_domain_max=0.0, seed=rng)
        for p in freqs
    ]


def _prior_set(spec: SpikeSpec, r_factors: np.ndarray, inner: int, rng: SeedSpec) -> list:
    """The one set S of `inner` prior rotations of every factor that `roc`
    scores each observation against: one (1, inner, n, r) array per mode,
    the `_rotate` of one round of `_rotation_parts` drawn from the lane
    `_PRIOR_LANE` of `rng`.  It depends on the seed and the spike only,
    never on the trial count, the threads or the block size."""
    return _rotate(r_factors, complex_normal_rounds(rng.generator(_PRIOR_LANE), 1, _rotation_parts(spec, inner)))


def roc_experiment(spec: SpikeSpec, trials: int, inner: int, rng: SeedSpec, threads: int = 1) -> RocCurve:
    """Empirical ROC of the likelihood-ratio statistic over `trials` draws
    per hypothesis.

    Every null and alternative observation is scored against one seeded set
    S of `inner` prior rotations (`_prior_set`), so the statistic
    T_S(Y) = log (1/inner) sum_{X in S} exp(2 n Re<Y, X> - n |X|_F^2) is one
    fixed function of Y and the trials are i.i.d. given S: the curve is the
    ROC of that one test, and |tpr - fpr| <= TV(P0, P1) holds for it with
    no randomization argument.  For a finite S the statistic is a
    Monte-Carlo approximation of the Neyman-Pearson optimal one, the
    likelihood ratio averaged over the whole Haar prior.
    """
    if trials < 2 or inner < 1:
        raise ParameterError(f"need trials >= 2 and inner >= 1, got trials={trials}, inner={inner}")
    # per draw: the null noise, the alternative's spike rotations and noise
    noise = _noise_part(spec)
    layout = [noise, *_rotation_parts(spec, 1), noise]
    r_factors = _thin_r(spec)
    energy = eta_max(spec.lambdas, spec.grams)
    prior = _prior_set(spec, r_factors, inner, rng)

    def worker(m, gen):
        y0, *rotations, noise1 = complex_normal_rounds(gen, m, layout)
        y1 = _spike_tensors(spec.lambdas, [f[:, 0] for f in _rotate(r_factors, rotations)]) + noise1
        return _log_lr_stack(spec, np.concatenate([y0, y1]), prior, energy).reshape(2, m).T

    scores = np.concatenate(map_streams(worker, trials, rng, threads, cells=_draw_cells(spec, inner)))
    s0 = np.sort(scores[:, 0])
    s1 = np.sort(scores[:, 1])
    thresholds = np.unique(np.concatenate([s0, s1]))
    fpr = 1.0 - np.searchsorted(s0, thresholds, side="left") / trials
    tpr = 1.0 - np.searchsorted(s1, thresholds, side="left") / trials
    return RocCurve(
        points=np.column_stack([thresholds, fpr, tpr]),
        tv_proxy=float(np.max(np.abs(tpr - fpr))),
    )
