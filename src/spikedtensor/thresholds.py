"""Detectability thresholds: the order-d second-moment constant and the
closed-form non-detectability conditions built from it."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .spike import GramSet, SpikeSpec, eta_max


def beta_d_second(d: int) -> float:
    """Second-moment threshold constant:
    sqrt( min over u in [0, 1] of -log(1 - u^2) / u^d ), in closed form.

    With v = u^2 the objective is -log(1 - v) / v^a, a = d/2, and with
    z = 1/(1 - v) its stationarity condition reads z - 1 = a log z.  Its
    root z > 1 is z = -a W_-1(-e^(-1/a) / a), on the -1 branch of the
    Lambert W function (Corless et al., Adv. Comput. Math. 5, 1996); the
    0 branch gives the trivial root z = 1.  It is found here by Newton's
    method on the convex g(z) = z - 1 - a log z, started right of the root
    at z0 = 2a(1 + log a), where g > 0 for a >= 1.5: the iterates fall
    monotonically, and the loop stops once a step no longer lowers z.  For
    d = 2 the two roots meet and the infimum is the u -> 0 limit, 1.  The
    minimum log z / (1 - 1/z)^a is evaluated with the power in log1p form,
    which stays within about one ulp of a 50-digit value up to d = 10^9
    and finite beyond, where 1 - 1/z rounds to 1.
    """
    if d < 2:
        raise ParameterError(f"order d must be >= 2, got {d}")
    if d == 2:
        return 1.0
    a = d / 2
    z = 2 * a * (1 + math.log(a))
    while True:
        step = (z - 1 - a * math.log(z)) / (1 - a / z)
        if not z - step < z:
            break
        z -= step
    return math.sqrt(math.log(z) * math.exp(-a * math.log1p(-1.0 / z)))


def _verdict(bound: float, statistic: float) -> tuple[bool, float]:
    """(statistic < bound, bound - statistic) at bound = sqrt(d/2) * beta_d."""
    margin = bound - statistic
    return margin > 0.0, margin


def _amplitude_sum(lambdas) -> float:
    lam = np.asarray(lambdas, dtype=float)
    if np.any(lam <= 0):
        raise ParameterError("amplitudes must be strictly positive")
    return float(np.sum(lam))


def hoelder_condition(lambdas, d: int) -> tuple[bool, float]:
    """Strict test  sum(lambda) < sqrt(d/2) * beta_d_second(d); the margin is
    threshold minus statistic (positive means satisfied)."""
    return _verdict(math.sqrt(d / 2.0) * beta_d_second(d), _amplitude_sum(lambdas))


def main_condition(lambdas, grams: GramSet) -> tuple[bool, float]:
    """Strict test  sqrt(eta_max) < sqrt(d/2) * beta_d_second(d), with d the
    order of `grams`; margin as in `hoelder_condition`.  Always at least as
    permissive as the Hoelder test since eta_max <= (sum lambda)^2."""
    return _verdict(math.sqrt(grams.d / 2.0) * beta_d_second(grams.d), math.sqrt(eta_max(lambdas, grams)))


def matrix_case_mu_max(spec: SpikeSpec) -> float:
    """Largest eigenvalue of X0 X0* in the matrix case d=2.

    Computed from the r x r product diag(lambda) conj(G2) diag(lambda) G1,
    whose nonzero spectrum coincides with that of the assembled n x n
    matrix; evaluated through a Hermitian similarity for stability.
    """
    if spec.d != 2:
        raise ParameterError(f"matrix-case statistic requires d=2, got d={spec.d}")
    lam = np.diag(spec.lambdas)
    root = spec.grams.roots[0]
    core = root @ lam @ np.conj(spec.grams.grams[1]) @ lam @ root
    return float(np.max(np.linalg.eigvalsh(core)))


@dataclass(frozen=True)
class ThresholdReport:
    """Verdicts and margins of both non-detectability conditions.

    `main_ok` states the raw inequality sqrt(eta_max) < sqrt(d/2) * beta_d;
    it implies indistinguishability only for d > 2.  For d = 2 the separate
    matrix-case verdict `d2_ok` (largest eigenvalue of X0 X0* below 1)
    applies, and `d2_mu_max`/`d2_ok` are None for d != 2.
    """

    d: int
    beta_d: float
    sum_lambda: float
    eta_max: float
    hoelder_ok: bool
    hoelder_margin: float
    main_ok: bool
    main_margin: float
    d2_mu_max: float | None = None
    d2_ok: bool | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def threshold_report(spec: SpikeSpec) -> ThresholdReport:
    """Evaluate every applicable threshold condition for one spike."""
    hoelder_ok, hoelder_margin = hoelder_condition(spec.lambdas, spec.d)
    main_ok, main_margin = main_condition(spec.lambdas, spec.grams)
    d2_mu_max = d2_ok = None
    if spec.d == 2:
        d2_mu_max = matrix_case_mu_max(spec)
        d2_ok = d2_mu_max < 1.0
    return ThresholdReport(
        d=spec.d,
        beta_d=beta_d_second(spec.d),
        sum_lambda=_amplitude_sum(spec.lambdas),
        eta_max=eta_max(spec.lambdas, spec.grams),
        hoelder_ok=hoelder_ok,
        hoelder_margin=hoelder_margin,
        main_ok=main_ok,
        main_margin=main_margin,
        d2_mu_max=d2_mu_max,
        d2_ok=d2_ok,
    )
