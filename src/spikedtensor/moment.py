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
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .rate import _corner_cells, _eta_hadamard_stack, _haar_corner_sets, _pair_weights
from .rng import _N_STREAMS, _PRIOR_LANE, SeedSpec, _orthonormalize, complex_normal_rounds, map_streams
from .spike import SpikeSpec, _spike_tensors, eta_max

@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo mean with batch-means standard error.

    `stderr` is the standard error of the mean of the 16 batch means, one a
    `map_streams` chunk (fewer below 16 draws); `xi_empirical_tail`'s
    frequencies carry the binomial one instead.  With 16 batches, mean ±
    1.96 stderr is about a 93 % interval even for light tails (Student t
    with 15 degrees of freedom), and mean ± 2.131 stderr a 95 % one; a
    heavy tail that the draws missed widens both unseen.
    `log_domain_max` is the largest exponent that entered the average; a
    value of order log(count) or more signals the heavy-tail regime where
    the mean is driven by a handful of draws.  An empty bucket (a `split`
    bucket that no draw entered) has neither: its `stderr` is None and its
    `log_domain_max` -inf, both null in `to_dict`.
    """

    count: int
    mean: float
    stderr: float | None
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
    the stderr is below 1e-300.  A bucket that no draw entered has no
    stderr (None).  The exponentials overflow to inf where the mean is not a
    finite float; the writers refuse that, so NumPy need not warn of it.
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
        stderr = None if top == -math.inf else 0.0
        if stderr is not None and len(batch_means) >= 2:
            stderr = float(np.std(batch_means, ddof=1) / np.sqrt(len(batch_means)))
    return MCEstimate(count=count, mean=mean, stderr=stderr, log_domain_max=top, seed=seed)


def _rotate(roots: np.ndarray, ginibre) -> list:
    """Haar rotations Theta_k chi_k of every factor, as W_k S_k with S_k
    the Hermitian root of gram_k (`GramSet.roots`) and W_k the Haar frames
    of the mode's (..., n, r) Ginibre stack in `ginibre`; one array per
    mode, shaped like its stack.  As chi_k = [S_k; 0], Theta chi_k is the
    first r columns of Theta times S_k, and those columns are a Haar frame.

    Every frame row of a mode goes through one 2-D product, the
    (count * n, r) stack of rows @ S_k, not one (n, r) @ (r, r) product
    per frame: the same BLAS kernel over the same rows, so the same bytes.
    On a `direct` block of 3200 frames (n = 3, one thread, 2-vCPU VM) a
    mode's product took 39 us against 61 us at r = 1, and 193 us against
    1141 us at r = 2.  A root that is exactly the identity (every r = 1
    spike and every identity Gram) takes no product: W @ I gives W's bytes.
    The stacks in `ginibre` are consumed: at r = 1 `_orthonormalize`
    overwrites them, so pass fresh draws.
    """
    identity = np.eye(roots.shape[-1])
    rotated = []
    for z, s_k in zip(ginibre, roots):
        w = _orthonormalize(z.reshape(-1, *z.shape[-2:]))
        if not np.array_equal(s_k, identity):
            w = w.reshape(-1, z.shape[-1]) @ s_k
        rotated.append(w.reshape(z.shape))
    return rotated


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
    maps = spec.grams.svd.mode_maps  # built here, once, not in the pool threads
    weights = _pair_weights(spec.lambdas)

    def worker(m, gen):
        return _eta_hadamard_stack(weights, maps, _haar_corner_sets(spec.n, spec.r, spec.d, m, gen))

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


def _log_mean_exp(a: np.ndarray) -> np.ndarray:
    """log (1/inner) sum_m exp(a[:, m]) for each row of a (b, inner) stack
    of exponents, shifted by the row's largest."""
    top = np.max(a, axis=1)
    return np.log(np.sum(np.exp(a - top[:, None]), axis=1)) + top - np.log(a.shape[1])


def _prior_set(spec: SpikeSpec, roots: np.ndarray, inner: int, gen: np.random.Generator) -> list:
    """One set S of `inner` prior rotations of every factor, drawn from
    `gen`: one (1, inner, n, r) array per mode, the `_rotate` by the Gram
    `roots` of one round of `_rotation_parts`.  `roc` draws one a run, from
    the lane `_PRIOR_LANE`; `direct` one a chunk lane, from its stream."""
    return _rotate(roots, complex_normal_rounds(gen, 1, _rotation_parts(spec, inner)))


def _prior_dictionary(spec: SpikeSpec, prior) -> np.ndarray:
    """A prior set S (`_prior_set`) as one real matrix: row m is the real
    view of the spike X_m, the real and imaginary part of each of its n^d
    cells side by side, shape (inner, 2 n^d).  Its transpose is
    D = [Re X; Im X] with the two halves' rows interleaved, and
    Re<Y, X_m> = Re<X_m, Y> is the real view of Y times D: one real GEMM
    for a block, whatever r (`_dictionary_log_lr`).  It holds the bytes of
    inner n^d complex cells (`_prior_cells`)."""
    spikes = _spike_tensors(spec.lambdas, [f[0] for f in prior])
    return spikes.reshape(len(spikes), -1).view(float)


def _dictionary_log_lr(spec: SpikeSpec, ys: np.ndarray, dictionary: np.ndarray, energy: float) -> np.ndarray:
    """log (1/inner) sum_m exp(2 n Re<Y, X_m> - n |X_m|_F^2) for each of a
    stack of observations `ys` (b, n, ..., n) against one prior set of
    `inner` spikes X_m, given as its `_prior_dictionary`: the real view of
    the stack times D, one GEMM of b rows whatever r, then a shifted
    log-sum-exp over the set.  Every X_m has the factor Grams of `spec`, so
    |X_m|_F^2 is their `energy` = eta_max.  OpenBLAS can give a row other
    last digits in a stack of another height, so a score's bytes depend on
    the batch it is scored in, which `map_streams` fixes from the chunk
    layout and the draw cells of `_roc_cost` or `_direct_cost`."""
    dots = ys.reshape(len(ys), -1).view(float) @ dictionary.T
    return _log_mean_exp(2.0 * spec.n * dots - spec.n * energy)


def _noise_part(spec: SpikeSpec) -> tuple:
    """(shape, std) of one noise tensor, i.i.d. circular complex Gaussian
    entries of variance 1/n (each real component N(0, 1/(2n))), as a
    `complex_normal_rounds` layout part."""
    return ((spec.n,) * spec.d, np.sqrt(1.0 / (2.0 * spec.n)))


# The weights of `_roc_cost`'s, `_direct_cost`'s and `_prior_work`'s work,
# in the CLI's work unit (`cli._LIMITS`): multiply-adds of the scoring
# GEMM, counted at 10 G/s, about the rate of a whole `roc` run at d=3,
# n=16, inner 500, where the GEMM is most of the work (one thread, 2-vCPU
# VM, `roc_experiment` and `cli.main` calls, best of three or five).  The GEMM
# alone ran at 17 G/s there (28 rows a batch), and at 1.9 G/s at one trial
# a batch against a dictionary larger than the cache (d=2, n=256, inner 50:
# 52 MB read from memory for a trial's two rows), which the cell weight
# covers:
# - an exponential of a score's log-sum-exp took 16-19 ns, 160 multiply-adds
#   (d=2, n=2, inner 2000, where the log-sum-exp is the work);
# - a trial's n^d cell took 25-43 ns at inner 1, where the draws are the
#   work (d=3, n=16; d=2, n=64; d=4, n=8; d=7, n=6; d=2, n=256; the spread
#   is the VM's, between runs minutes apart), and a trial draws two n^d
#   noise tensors and builds one rank-one term a rank: 340 multiply-adds a
#   cell, from the top of that range, so that the d=2, n=256, inner 50
#   edge, whose GEMM reads its dictionary from memory, stays within the
#   cap's time;
# - a trial adds up to two rows to the curve, which the CLI sorts and
#   writes: 2.4 us a trial in CSV and 13 us in JSON (d=3, n=3, inner 1,
#   100000 trials), counted at the JSON price, 2^17 multiply-adds.
# On the first two, `direct` ran at 0.05-0.11 ns a unit (d=2, n=2 to d=3, n=4).
_ROC_EXP_MADDS = 160
_ROC_CELL_MADDS = 340
_ROC_TRIAL_MADDS = 2**17


class ScoreCost(NamedTuple):
    """What one `roc` or `direct` run costs (`_roc_cost`, `_direct_cost`)."""

    draw_cells: int  # what one draw holds when scored: the `cells` of its `map_streams` blocks
    held_cells: int  # what a prior set's holder holds (a `roc` run, a `direct` lane): the set and a draw being scored
    work: int  # the scoring GEMM's multiply-adds, and the rest of the work in their equivalents


def _prior_cells(spec: SpikeSpec, inner: int) -> int:
    """What one prior set holds while it scores: its d (inner, n, r)
    rotations (`_prior_set`) and its dictionary of inner n^d complex cells
    (`_prior_dictionary`)."""
    return inner * (spec.d * spec.n * spec.r + spec.n**spec.d)


def _prior_work(spec: SpikeSpec, inner: int) -> int:
    """What drawing one prior set costs (`_prior_set`, `_prior_dictionary`):
    the d n r inner cells it draws and the r inner n^d it builds, one
    rank-one term a rank, each weighted as a trial's cells."""
    return _ROC_CELL_MADDS * inner * (spec.d * spec.n * spec.r + spec.r * spec.n**spec.d)


def _roc_cost(spec: SpikeSpec, trials: int, inner: int) -> ScoreCost:
    """The one statement of what `roc_experiment` costs, which its blocks
    and the CLI's caps read.

    A trial holds its two observations (2 n^d), its spike's d (n, r)
    rotations and its two score rows (2 inner).  A run holds its prior set
    (`_prior_cells`) throughout, and at least one trial while it scores,
    which outgrows the set at inner 1.  Its work is the scoring GEMM's
    multiply-adds, 2 inner 2 n^d a trial (two rows against the dictionary:
    `_dictionary_log_lr`), and a trial's 2 inner exponentials, the
    (2 + r) n^d cells it draws (its two noise tensors) and builds (its
    spike, one rank-one term a rank) and its rows of the curve, each
    weighted by its measured cost, and the run's prior set (`_prior_work`)."""
    cube = spec.n**spec.d
    trial = 2 * cube + spec.d * spec.n * spec.r + 2 * inner
    gemm = 2 * inner * 2 * cube
    per_trial = _ROC_TRIAL_MADDS + _ROC_EXP_MADDS * 2 * inner + _ROC_CELL_MADDS * (2 + spec.r) * cube
    return ScoreCost(draw_cells=trial, held_cells=_prior_cells(spec, inner) + trial,
                     work=trials * (gemm + per_trial) + _prior_work(spec, inner))


def _direct_cost(spec: SpikeSpec, outer: int, inner: int) -> ScoreCost:
    """The one statement of what `second_moment_direct_mc` costs, which its
    blocks and the CLI's caps read.

    An observation holds its n^d noise cells and its score row (inner).  A
    chunk lane holds its prior set (`_prior_cells`) while it scores, and at
    least one observation.  The work is the scoring GEMM's multiply-adds,
    inner 2 n^d an observation (one row against its lane's dictionary:
    `_dictionary_log_lr`), an observation's inner exponentials and the n^d
    cells it draws, weighted as in `_roc_cost`, and each lane's prior set
    (`_prior_work`)."""
    cube = spec.n**spec.d
    draw = cube + inner
    per_draw = inner * 2 * cube + _ROC_EXP_MADDS * inner + _ROC_CELL_MADDS * cube
    return ScoreCost(draw_cells=draw, held_cells=_prior_cells(spec, inner) + draw,
                     work=outer * per_draw + min(outer, _N_STREAMS) * _prior_work(spec, inner))


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

    Each `map_streams` chunk lane draws one prior set (`_prior_set`) from
    its stream before its first observation and scores its observations
    against it with `roc`'s kernel (`_dictionary_log_lr`); the lanes are
    the batch-means batches, so they stay independent.  The inner average
    makes this estimator biased by O(1/inner); it exists as an independent
    cross-check of `second_moment_haar_mc` at very small (n, d).  With
    `rotate=False` the spike is held fixed at its unrotated value, which
    corresponds to the deterministic-signal model whose second moment is
    exp(2 n |X0|_F^2).
    """
    if outer < 2 or inner < 1:
        raise ParameterError(f"need outer >= 2 and inner >= 1, got outer={outer}, inner={inner}")
    noise = [_noise_part(spec)]
    roots = spec.grams.roots  # built here, once, not in the pool threads
    energy = eta_max(spec.lambdas, spec.grams)
    fixed = [chi[None, None] for chi in spec.factors]

    def lane(gen):
        return _prior_dictionary(spec, _prior_set(spec, roots, inner, gen) if rotate else fixed)

    def worker(m, gen, dictionary):
        y, = complex_normal_rounds(gen, m, noise)
        return 2.0 * _dictionary_log_lr(spec, y, dictionary, energy)

    cost = _direct_cost(spec, outer, inner if rotate else 1)
    chunks = map_streams(worker, outer, rng, threads, cells=cost.draw_cells, lane=lane, lane_cells=cost.held_cells)
    return _mean_from_exponents(chunks, rng, outer)


def xi_tail_probability(t: float, n: int) -> float:
    """Exact survival probability (1 - t^2)^(n-1) of the modulus of one
    coordinate of a uniform point on the unit sphere of C^n."""
    if not (0.0 <= t <= 1.0):
        raise ParameterError(f"need t in [0, 1], got {t}")
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    return (1.0 - t * t) ** (n - 1)


# The weights of `_xi_work`, in the CLI's work unit (`cli._LIMITS`; one
# thread, in-process `cli.main`, 2-vCPU VM): an exponential, with its share
# of the row-sum gemv, 128 units (2^27 at n=2^20 took 0.85 s, about 0.05 ns
# a unit), and a comparison of a sample's ratio with one t^2, with its
# count, 4 units (0.2-0.33 ns at 1000 t, where the comparisons are the
# work: the edges at n=2 and 6, 4.0M and 3.6M samples, took 0.84-1.1 s and
# 1.2-1.4 s, 0.05-0.08 ns a unit).
_XI_EXP_WORK = 128
_XI_T_WORK = 4


def _xi_work(n: int, t_count: int, samples: int) -> int:
    """The one statement of what `xi_empirical_tail` costs, which the CLI's
    work cap reads: a sample's n exponentials and its t comparisons."""
    return samples * (_XI_EXP_WORK * n + _XI_T_WORK * t_count)


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
    roots = spec.grams.roots  # built here, once, not in the pool threads
    energy = eta_max(spec.lambdas, spec.grams)
    dictionary = _prior_dictionary(spec, _prior_set(spec, roots, inner, rng.generator(_PRIOR_LANE)))

    def draw(m, gen):
        return complex_normal_rounds(gen, m, layout)

    def score(y0, *parts):
        *rotations, noise1 = parts
        y1 = _spike_tensors(spec.lambdas, [f[:, 0] for f in _rotate(roots, rotations)]) + noise1
        return _dictionary_log_lr(spec, np.concatenate([y0, y1]), dictionary, energy).reshape(2, -1).T

    cells = _roc_cost(spec, trials, inner).draw_cells
    scores = np.concatenate(map_streams(draw, trials, rng, threads, cells=cells, score=score))
    s0 = np.sort(scores[:, 0])
    s1 = np.sort(scores[:, 1])
    thresholds = np.unique(np.concatenate([s0, s1]))
    fpr = 1.0 - np.searchsorted(s0, thresholds, side="left") / trials
    tpr = 1.0 - np.searchsorted(s1, thresholds, side="left") / trials
    return RocCurve(
        points=np.column_stack([thresholds, fpr, tpr]),
        tv_proxy=float(np.max(np.abs(tpr - fpr))),
    )
