"""Monte-Carlo estimation of the squared likelihood ratio's second moment,
the two-piece split of that expectation, sphere-coordinate tail laws, and a
small likelihood-ratio testing simulator.

All exponential averages are accumulated in log-sum-exp form, and every
estimate reports the largest exponent seen (`log_domain_max`).  Near the
detectability threshold exp(2 n eta) has enormous relative variance: the
reported means are then dominated by rare draws and the asymptotic values
are not reachable by sampling at desk scale.  The estimators report honest
batch-means standard errors instead of hiding this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .rate import _corner_cells, _eta_hadamard_stack, _haar_corner_sets
from .rng import (
    SeedSpec,
    _orthonormalize,
    as_generator,
    complex_normal,
    complex_normal_rounds,
    map_streams,
    sample_gaussian_tensor,
)
from .spike import SpikeSpec, SpikeSvd, _spike_tensors, build_spike, eta_max, gram_set, spike_svd

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
class HypothesisSample:
    """One simulated observation; `spike_used` holds the Haar-rotated spike
    realization under the alternative and is None under the null."""

    tensor: np.ndarray
    hypothesis: str
    spike_used: SpikeSpec | None = None


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Empirical ROC rows (threshold, fpr, tpr) and the separation proxy
    max_t |tpr(t) - fpr(t)|."""

    points: np.ndarray  # shape (m, 3)
    tv_proxy: float


def _logsumexp(a, axis=None):
    """log(sum(exp(a))) over `axis` (all of a non-empty float array when
    None), step for step as scipy.special.logsumexp computes it for real
    input, so the last bits match: the m entries equal to the maximum are
    taken out of the shifted sum s, s is divided by m, and the result is
    log1p(s) + log(m) + max.  A result that is not finite (an all -inf
    slice, an inf or NaN entry) is replaced by the direct log(sum(exp(a))).
    """
    a = np.asarray(a, dtype=np.float64)
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        at_max = a == a_max
        m = np.sum(at_max, axis=axis, keepdims=True, dtype=np.float64)
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)))
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _mean_from_exponents(chunks, seed: SeedSpec, count: int, sizes=None) -> MCEstimate:
    """Combine per-chunk exponent arrays into mean / batch-means stderr.

    `sizes` are the chunks' (positive) draw counts when the chunks hold
    only the draws of one bucket; an empty chunk or bucket then adds
    exp(-inf) = 0.  The batch means take one log-sum-exp per distinct chunk
    length, over the stack of the chunks of that length; a row of the stack
    is reduced as the chunk alone would be, so the bits do not depend on
    the grouping.  The exponentials overflow to inf where the mean is not a
    finite float; the writers refuse that, so NumPy need not warn of it.
    """
    lengths = [len(c) for c in chunks]
    sizes = lengths if sizes is None else sizes
    exponents = np.concatenate(chunks)
    lse = np.full(len(chunks), -np.inf)
    for length in set(lengths) - {0}:
        group = [i for i, n in enumerate(lengths) if n == length]
        lse[group] = _logsumexp(np.stack([chunks[i] for i in group]), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.exp(_logsumexp(exponents) - np.log(count))) if exponents.size else 0.0
        batch_means = np.exp(lse - np.log(sizes))
        stderr = 0.0
        if len(batch_means) >= 2:
            stderr = float(np.std(batch_means, ddof=1) / np.sqrt(len(batch_means)))
    return MCEstimate(
        count=count,
        mean=mean,
        stderr=stderr,
        log_domain_max=float(np.max(exponents)) if exponents.size else -math.inf,
        seed=seed,
    )


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
    Ginibre stack in `ginibre`; one array per mode, shaped like its stack."""
    return [(_orthonormalize(z.reshape(-1, *z.shape[-2:])) @ r_k).reshape(z.shape) for z, r_k in zip(ginibre, r_factors)]


def _rotation_parts(spec: SpikeSpec, m: int) -> list:
    """(shape, std) of the Ginibre draws of `m` rotations of every factor,
    in draw order: a `complex_normal_rounds` layout."""
    return [((m, spec.n, spec.r), np.sqrt(0.5))] * spec.d


def _rotated_factors(spec: SpikeSpec, m: int, gen: np.random.Generator) -> list:
    """`m` independent Haar rotations Theta_k chi_k of every factor; one
    (m, n, r) array per mode."""
    return _rotate(_thin_r(spec), [complex_normal(gen, shape, std) for shape, std in _rotation_parts(spec, m)])


def _eta_chunk(spec: SpikeSpec, svd: SpikeSvd, m: int, gen: np.random.Generator) -> np.ndarray:
    """One block of `m` draws of the alignment exponent under i.i.d. Haar
    rotations, scored by the cloud's block-form kernel on Haar corner sets.

    With chi_k = U_k [Sigma_k; 0] V_k*, the mode overlap is
    chi_k* Theta chi_k = V_k Sigma_k (U_k* Theta U_k)[:r, :r] Sigma_k V_k*,
    and U_k* Theta U_k is Haar when Theta is, so its corner has the law of
    a Haar corner block: never the full tensors or the full unitaries.
    `svd` is `spike_svd(spec)`.  A draw takes d corner stacks of
    `_haar_corner_sets`, (r + min(r, n - r), r) each, from O(r^2) variates
    at every n: `_corner_cells`, the `cells` of `map_streams` for the
    Haar-set drivers.
    """
    return _eta_hadamard_stack(spec.lambdas, svd, _haar_corner_sets(spec.n, spec.r, spec.d, m, gen))


def second_moment_haar_mc(spec: SpikeSpec, samples: int, rng: SeedSpec, threads: int = 1) -> MCEstimate:
    """Estimate E[exp(2 n eta)] over i.i.d. Haar mode rotations.

    This equals the second moment of the likelihood ratio under the null
    once the spike prior is the Haar rotation of a fixed spike.
    """
    if samples < 2:
        raise ParameterError(f"need samples >= 2, got {samples}")
    scale = 2.0 * spec.n
    svd = spike_svd(spec)

    def worker(m, gen):
        return scale * _eta_chunk(spec, svd, m, gen)

    chunks = map_streams(worker, samples, rng, threads, cells=_corner_cells(spec.n, spec.r, spec.d))
    return _mean_from_exponents(chunks, rng, samples)


def default_epsilon(spec: SpikeSpec) -> float:
    """Split level min(eta_max / 4, r^2 * max_ij lambda_i lambda_j), small
    enough for the tail argument the split feeds."""
    lam = spec.lambdas
    return min(eta_max(lam, gram_set(spec)) / 4.0, spec.r**2 * float(np.max(lam)) ** 2)


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
    complement (at most one ulp from its own log-sum-exp value).  Where no
    such complement exists (the second mean in the total's binade, the first
    half an ulp off that grid, so that every sum rounds to even past the
    total), the roles swap: the second bucket is scored as is, and the first
    is total - e2, exact by Sterbenz's lemma since e2 >= total / 2 there.
    """
    if epsilon <= 0:
        raise ParameterError(f"need epsilon > 0, got {epsilon}")
    if samples < 2:
        raise ParameterError(f"need samples >= 2, got {samples}")
    scale = 2.0 * spec.n
    svd = spike_svd(spec)

    def worker(m, gen):
        return _eta_chunk(spec, svd, m, gen)

    eta_chunks = map_streams(worker, samples, rng, threads, cells=_corner_cells(spec.n, spec.r, spec.d))
    sizes = [len(c) for c in eta_chunks]
    exp_chunks = [scale * c for c in eta_chunks]
    total = _mean_from_exponents(exp_chunks, rng, samples)
    e1 = _mean_from_exponents([c[e > epsilon] for c, e in zip(exp_chunks, eta_chunks)], rng, samples, sizes)
    e2 = _mean_from_exponents([c[e <= epsilon] for c, e in zip(exp_chunks, eta_chunks)], rng, samples, sizes)
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
    return _logsumexp(a, axis=1) - np.log(inner)


def _noise_part(spec: SpikeSpec) -> tuple:
    """(shape, std) of the draw of `sample_gaussian_tensor(n, d, .)`, as a
    `complex_normal_rounds` layout part."""
    return ((spec.n,) * spec.d, np.sqrt(1.0 / (2.0 * spec.n)))


def _draw_cells(spec: SpikeSpec, inner: int) -> int:
    """Cells of one draw's first likelihood contraction against `inner`
    factor sets, (n^(d-1), inner * r): the `cells` of `map_streams` for the
    observation drivers."""
    return inner * spec.r * spec.n ** (spec.d - 1)


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
    energy = eta_max(spec.lambdas, gram_set(spec))

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
    """Empirical frequencies of |v_1| >= t, one estimate per t in `ts`, all
    counted on one set of uniform sphere samples, with binomial standard
    errors.

    A sample is a standard complex Gaussian v in C^n, which normalized is
    uniform on the sphere; |v_1| / |v| does not depend on scale, so a block
    counts ``|v_1|^2 / |v|^2 >= t^2`` on the squared moduli of the normals
    ``complex_normal(gen, (m, n), .)`` would take, real parts then
    imaginary parts, without forming the complex array, its norm or a
    square root.  The counts equal those of ``|v_1| / |v| >= t`` on the
    complex array unless a ratio falls within a few ulps of t^2."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ParameterError(f"need a non-empty sequence of t, got {ts!r}")
    for t in ts:
        if not (0.0 <= t <= 1.0):
            raise ParameterError(f"need t in [0, 1], got {t}")
    if n < 2 or samples < 1:
        raise ParameterError(f"need n >= 2 and samples >= 1, got n={n}, samples={samples}")

    squares = ts * ts

    def worker(m, gen):
        x = gen.standard_normal((2, m, n))  # the real parts, then the imaginary parts
        np.square(x, out=x)
        s = np.add(x[0], x[1], out=x[0])  # |v_j|^2
        ratio = s[:, 0] / s.sum(axis=1)
        return np.array([[np.count_nonzero(ratio >= t2) for t2 in squares]])  # one t at a time: no (m, t) temporary

    hits = np.concatenate(map_streams(worker, samples, rng, threads, cells=n)).sum(axis=0)
    freqs = [int(h) / samples for h in hits]
    return [
        MCEstimate(count=samples, mean=p, stderr=float(np.sqrt(p * (1.0 - p) / samples)), log_domain_max=0.0, seed=rng)
        for p in freqs
    ]


def simulate_observation(spec: SpikeSpec, hypothesis: str, rng) -> HypothesisSample:
    """Draw one observation: pure noise under "H0", Haar-rotated spike plus
    noise under "H1"."""
    if hypothesis not in ("H0", "H1"):
        raise ParameterError(f"hypothesis must be 'H0' or 'H1', got {hypothesis!r}")
    gen = as_generator(rng)
    if hypothesis == "H0":
        return HypothesisSample(tensor=sample_gaussian_tensor(spec.n, spec.d, gen), hypothesis="H0")
    rotated = replace(
        spec,
        factors=tuple(f[0] for f in _rotated_factors(spec, 1, gen)),
    )
    noise = sample_gaussian_tensor(spec.n, spec.d, gen)
    return HypothesisSample(tensor=build_spike(rotated) + noise, hypothesis="H1", spike_used=rotated)


def log_lr_mc(y: HypothesisSample, spec: SpikeSpec, inner: int, rng, rotate: bool = True) -> float:
    """Log of the inner-Monte-Carlo likelihood-ratio estimate
    log (1/inner) sum_m exp(2 n Re<Y, X_m> - n |X_m|_F^2),
    with X_m drawn from the rotation prior (or held at the unrotated spike
    when `rotate` is False, in which case inner=1 gives the exact value)."""
    if inner < 1:
        raise ParameterError(f"need inner >= 1, got {inner}")
    gen = as_generator(rng)
    factors = [f[None] for f in _rotated_factors(spec, inner, gen)] if rotate else [chi[None, None] for chi in spec.factors]
    return float(_log_lr_stack(spec, y.tensor[None], factors, eta_max(spec.lambdas, gram_set(spec)))[0])


def roc_experiment(spec: SpikeSpec, trials: int, inner: int, rng: SeedSpec, threads: int = 1) -> RocCurve:
    """Empirical ROC of the likelihood-ratio statistic over `trials` draws
    per hypothesis; the statistic is the Neyman-Pearson optimal one, which
    makes the random-guessing regime maximally visible."""
    if trials < 2 or inner < 1:
        raise ParameterError(f"need trials >= 2 and inner >= 1, got trials={trials}, inner={inner}")
    # per draw, in the order of the one-draw calls: the null observation and
    # its likelihood's rotations, then the alternative's spike rotations,
    # noise and likelihood rotations
    noise, likelihood = _noise_part(spec), _rotation_parts(spec, inner)
    layout = [noise, *likelihood, *_rotation_parts(spec, 1), noise, *likelihood]
    d = spec.d
    r_factors = _thin_r(spec)
    energy = eta_max(spec.lambdas, gram_set(spec))

    def worker(m, gen):
        parts = complex_normal_rounds(gen, m, layout)
        s0 = _log_lr_stack(spec, parts[0], _rotate(r_factors, parts[1 : d + 1]), energy)
        spikes = _spike_tensors(spec.lambdas, [f[:, 0] for f in _rotate(r_factors, parts[d + 1 : 2 * d + 1])])
        s1 = _log_lr_stack(spec, spikes + parts[2 * d + 1], _rotate(r_factors, parts[2 * d + 2 :]), energy)
        return np.column_stack([s0, s1])

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
