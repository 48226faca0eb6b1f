"""Correctness checks of the CLI outputs, computed apart from the program.

Every check reads the files a round wrote and recomputes what it can from
first principles: the exact rank-one second-moment series, the xi tail law,
beta_d by an independent scalar minimisation, the cloud bound and envelope
from the points.  A check returns a list of problems; an empty list passes.
Statistical tolerances are set wide enough (5 to 6 standard errors) that a
correct program fails them on no realistic seed, and narrow enough that the
doctored outputs of `selftest.py` fail them.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, logsumexp

from workloads import Op

MEAN_SIGMAS = 5.0  # rank-one means, against the exact standard error
DIRECT_SIGMAS = 6.0  # observation-side mean, against its batch stderr (15 dof)
TAIL_SIGMAS = 5.0  # xi tails, against the exact binomial standard error
REL_TOL = 1e-12  # recomputed closed forms
BOUND_TOL = 1e-9  # a cloud point may sit this far above the bound


# ---------------------------------------------------------------- readers


def output_files(op: Op) -> list[str]:
    """The files one op writes, relative to its output directory."""
    kind = op.argv[0]
    if kind == "cloud":
        return [f"{op.name}.points.csv", f"{op.name}.envelope.csv", f"{op.name}.bound.csv"]
    if kind in ("xi-tail", "roc"):
        return [f"{op.name}.csv"]
    return [f"{op.name}.json"]


def read_csv(path: Path) -> tuple[dict[str, str], list[str], np.ndarray]:
    """(comments keyed by their first word, header, float rows)."""
    comments, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" ")
            comments[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header or [], np.array(rows, dtype=float).reshape(-1, len(header or []))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def op_failed(op: Op, outdir: Path, exit_code) -> bool:
    """An op fails when it exits non-zero, writes nothing, or reports an
    estimate that is not a finite number."""
    if exit_code != 0:
        return True
    paths = [outdir / name for name in output_files(op)]
    if not all(p.is_file() for p in paths):
        return True
    kind = op.argv[0]
    if kind == "moment":
        estimates = read_json(paths[0])["estimates"]
        return not all(_finite(e["mean"], e["stderr"]) for e in estimates)
    if kind == "split":
        doc = read_json(paths[0])
        return not _finite(doc["total_mean"], doc["e1"]["mean"], doc["e1"]["stderr"],
                           doc["e2"]["mean"], doc["e2"]["stderr"])
    return False


# ---------------------------------------------------------------- oracles


def log_rank_one_moment(n: int, d: int, lam: float, power: int = 2) -> float:
    """log E[exp(power n eta)] for a rank-one spike: the exact series
    sum_j (power/2 n lam^2)^(2j) / (j!)^2 * C(n+j-1, j)^(-d), in log form.

    |psi_k|^2 of a Haar corner entry is Beta(1, n-1) and its phase is
    uniform, which gives E|psi|^(2j) = 1 / C(n+j-1, j) and the Bessel-type
    series above.  The terms fall off super-exponentially; 2000 of them
    cover every size used here.
    """
    mu = power / 2.0 * n * lam * lam
    j = np.arange(2000, dtype=float)
    log_binom = gammaln(n + j) - gammaln(j + 1.0) - gammaln(n)
    terms = 2.0 * j * math.log(mu) - 2.0 * gammaln(j + 1.0) - d * log_binom
    return float(logsumexp(terms))


def rank_one_moment(n: int, d: int, lam: float, samples: int) -> tuple[float, float]:
    """Exact mean of exp(2 n eta) and the exact standard error of a mean of
    `samples` independent draws of it."""
    m2 = math.exp(log_rank_one_moment(n, d, lam))
    m4 = math.exp(log_rank_one_moment(n, d, lam, power=4))
    return m2, math.sqrt((m4 - m2 * m2) / samples)


def beta_d(d: int) -> float:
    """sqrt(min_u -log(1-u^2)/u^d), by bounded Brent minimisation; the
    infimum for d=2 is the u -> 0 limit, 1."""
    if d == 2:
        return 1.0
    res = minimize_scalar(lambda u: -math.log1p(-u * u) / u**d, bounds=(1e-6, 1 - 1e-9),
                          method="bounded", options={"xatol": 1e-12})
    return math.sqrt(res.fun)


def preset_gram(spec: str) -> np.ndarray:
    """The r=2 Gram matrix of an `identity` or `two-eigenvalue:a,b` preset."""
    if spec == "identity":
        return np.eye(2)
    a, b = (float(v) for v in spec.removeprefix("two-eigenvalue:").split(","))
    return np.array([[1.0, (a - b) / 2.0], [(a - b) / 2.0, 1.0]])


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- cloud


def check_cloud(op: Op, outdir: Path) -> list[str]:
    f = op.flags()
    d, bins, samples = int(f["d"]), int(f["bins"]), int(f["samples"])
    lam = np.array([float(v) for v in f["lambdas"].split(",")])
    had = preset_gram(f["gram"]) ** d
    emax = float(lam @ had @ lam)
    problems = []

    _, _, points = read_csv(outdir / f"{op.name}.points.csv")
    env_comments, _, env = read_csv(outdir / f"{op.name}.envelope.csv")
    _, _, bound = read_csv(outdir / f"{op.name}.bound.csv")
    file_emax = float(env_comments.get("eta_max", "nan"))
    if not _close(file_emax, emax):
        problems.append(f"{op.name}: eta_max {file_emax!r} in the file, {emax!r} from the Gram preset")
    if len(points) != samples:
        problems.append(f"{op.name}: {len(points)} points, expected {samples}")
        return problems

    if not np.all(np.isfinite(points)):
        problems.append(f"{op.name}: {int(np.sum(~np.isfinite(points)))} point coordinates are not finite")
    x, y = points[:, 0], points[:, 1]
    frac = np.abs(x) / emax
    if np.any(frac > 1.0 + REL_TOL):
        problems.append(f"{op.name}: {int(np.sum(frac > 1.0 + REL_TOL))} points with |x| > eta_max")
    with np.errstate(divide="ignore", invalid="ignore"):
        ceiling = np.where(frac < 1.0, d * np.log1p(-np.minimum(frac, 1.0) ** (2.0 / d)), -np.inf)
    above = y > ceiling + BOUND_TOL
    if np.any(above):
        problems.append(f"{op.name}: {int(np.sum(above))} points above d log(1 - (|x|/eta_max)^(2/d))")

    width = 2.0 * emax / bins
    idx = np.clip(np.floor((x + emax) / width).astype(int), 0, bins - 1)
    populated = np.unique(idx)
    want_max = np.full(bins, -np.inf)
    np.maximum.at(want_max, idx, y)
    centers = -emax + (np.arange(bins) + 0.5) * width
    with np.errstate(divide="ignore"):
        bound_at = d * np.log1p(-(np.abs(centers) / emax) ** (2.0 / d))
    if env.shape != (len(populated), 3):
        problems.append(f"{op.name}: envelope has {env.shape[0]} rows, {len(populated)} bins are populated")
    elif not (np.allclose(env[:, 0], centers[populated], rtol=REL_TOL, atol=REL_TOL * emax)
              and np.array_equal(env[:, 1], want_max[populated])
              and np.allclose(env[:, 2], bound_at[populated], rtol=REL_TOL, atol=REL_TOL)):
        problems.append(f"{op.name}: envelope rows are not the bin maxima and bound values recomputed from the points")
    if bound.shape != (bins, 2) or not (
        np.allclose(bound[:, 0], centers, rtol=REL_TOL, atol=REL_TOL * emax)
        and np.allclose(bound[:, 1], bound_at, rtol=REL_TOL, atol=REL_TOL)
    ):
        problems.append(f"{op.name}: bound file differs from the recomputed bound curve")
    return problems


# ---------------------------------------------------------------- moment


def check_rank_one(op: Op, outdir: Path) -> list[str]:
    f = op.flags()
    d, lam, samples = int(f["d"]), float(f["lambdas"]), int(f["samples"])
    estimates = read_json(outdir / f"{op.name}.json")["estimates"]
    problems = []
    if [e["n"] for e in estimates] != [int(v) for v in f["n"].split(",")]:
        problems.append(f"{op.name}: estimates for n = {[e['n'] for e in estimates]}, asked for {f['n']}")
    for e in estimates:
        exact, exact_se = rank_one_moment(e["n"], d, lam, samples)
        if e["count"] != samples:
            problems.append(f"{op.name}: n={e['n']} count {e['count']}, expected {samples}")
        if not abs(e["mean"] - exact) <= MEAN_SIGMAS * exact_se:  # a NaN mean fails too
            problems.append(f"{op.name}: n={e['n']} mean {e['mean']!r} is more than {MEAN_SIGMAS:g} exact "
                            f"standard errors ({exact_se:.3g}) from the exact series {exact!r}")
        if not 0.2 <= e["stderr"] / exact_se <= 5.0:  # so does a NaN stderr
            problems.append(f"{op.name}: n={e['n']} stderr {e['stderr']!r} is far from the exact {exact_se!r}")
    return problems


def check_split(moment_op: Op, split_op: Op, outdir: Path) -> list[str]:
    """E1 + E2 partition identity: the split total equals, bit for bit, the
    `moment` mean with the same arguments."""
    mean = read_json(outdir / f"{moment_op.name}.json")["estimates"][0]["mean"]
    doc = read_json(outdir / f"{split_op.name}.json")
    problems = []
    if doc["total_mean"] != mean:
        problems.append(f"{split_op.name}: total {doc['total_mean']!r} != moment mean {mean!r}")
    if doc["e1"]["mean"] + doc["e2"]["mean"] != doc["total_mean"]:
        problems.append(f"{split_op.name}: e1 + e2 != total")
    if not (doc["e1"]["mean"] > 0 and doc["e2"]["mean"] > 0):
        problems.append(f"{split_op.name}: a bucket is empty, so the split is not exercised")
    return problems


# ---------------------------------------------------------------- observe


def check_direct(op: Op, outdir: Path) -> list[str]:
    """The nested average is biased: its exact expectation is
    m2 + (exp(2 n lambda^2) - m2) / inner, where m2 is the rank-one series."""
    f = op.flags()
    n, d, lam, inner = int(f["n"]), int(f["d"]), float(f["lambdas"]), int(f["inner"])
    m2 = math.exp(log_rank_one_moment(n, d, lam))
    expected = m2 + (math.exp(2.0 * n * lam * lam) - m2) / inner
    est = read_json(outdir / f"{op.name}.json")["estimates"][0]
    if est["count"] != int(f["outer"]):
        return [f"{op.name}: count {est['count']}, expected {f['outer']}"]
    if not abs(est["mean"] - expected) <= DIRECT_SIGMAS * est["stderr"]:  # a NaN fails too
        return [f"{op.name}: mean {est['mean']!r} ± {est['stderr']!r} vs exact expectation {expected!r}"]
    return []


def check_roc(op: Op, outdir: Path) -> list[str]:
    trials = int(op.flags()["trials"])
    comments, header, rows = read_csv(outdir / f"{op.name}.csv")
    if header != ["threshold", "fpr", "tpr"] or len(rows) < 2:
        return [f"{op.name}: expected threshold,fpr,tpr rows, got header {header} and {len(rows)} rows"]
    thr, fpr, tpr = rows.T
    problems = []
    if not np.all(np.diff(thr) > 0):
        problems.append(f"{op.name}: thresholds are not strictly increasing")
    for name, rate in (("fpr", fpr), ("tpr", tpr)):
        if np.any(rate < 0) or np.any(rate > 1) or np.any(np.diff(rate) > 0):
            problems.append(f"{op.name}: {name} leaves [0, 1] or increases with the threshold")
        if not np.allclose(rate * trials, np.round(rate * trials), atol=1e-9):
            problems.append(f"{op.name}: {name} is not a multiple of 1/{trials}")
    if (fpr[0], tpr[0]) != (1.0, 1.0):
        problems.append(f"{op.name}: curve starts at ({fpr[0]}, {tpr[0]}), not (1, 1)")
    tv = float(np.max(np.abs(tpr - fpr)))
    if not _close(float(comments.get("tv_proxy", "nan")), tv):
        problems.append(f"{op.name}: tv_proxy {comments.get('tv_proxy')} != recomputed {tv!r}")
    return problems


# ---------------------------------------------------------------- tails


def check_xi(op: Op, outdir: Path) -> list[str]:
    f = op.flags()
    n, samples = int(f["n"]), int(f["samples"])
    ts = [float(v) for v in f["t"].split(",")]
    _, header, rows = read_csv(outdir / f"{op.name}.csv")
    if header != ["n", "t", "count", "analytic", "empirical", "stderr"] or len(rows) != len(ts):
        return [f"{op.name}: expected one n,t,count,analytic,empirical,stderr row per t"]
    problems = []
    for t, row in zip(ts, rows):
        exact = (1.0 - t * t) ** (n - 1)
        se = math.sqrt(exact * (1.0 - exact) / samples)
        if row[0] != n or row[1] != t or row[2] != samples or not _close(row[3], exact):
            problems.append(f"{op.name}: row {row.tolist()} does not match n={n}, t={t}, (1-t^2)^(n-1)={exact!r}")
        if not abs(row[4] - exact) <= TAIL_SIGMAS * se:  # a NaN fails too
            problems.append(f"{op.name}: t={t} empirical tail {row[4]!r} is more than {TAIL_SIGMAS:g} "
                            f"binomial standard errors from {exact!r}")
    return problems


def check_threshold(op: Op, outdir: Path) -> list[str]:
    """Identity Grams: eta_max = sum lambda^2, and for d=2 the largest
    eigenvalue of X0 X0* is max lambda^2."""
    f = op.flags()
    d = int(f["d"])
    lam = np.array([float(v) for v in f["lambdas"].split(",")])
    rep = read_json(outdir / f"{op.name}.json")["report"]
    beta = beta_d(d)
    threshold = math.sqrt(d / 2.0) * beta
    want = {
        "beta_d": beta,
        "sum_lambda": float(np.sum(lam)),
        "eta_max": float(lam @ lam),
        "hoelder_margin": threshold - float(np.sum(lam)),
        "main_margin": threshold - math.sqrt(float(lam @ lam)),
    }
    problems = [f"{op.name}: {key} {rep.get(key)!r}, expected {value!r}"
                for key, value in want.items() if not _close(rep.get(key, math.nan), value, 1e-10)]
    if rep["hoelder_ok"] != (want["hoelder_margin"] > 0) or rep["main_ok"] != (want["main_margin"] > 0):
        problems.append(f"{op.name}: verdicts disagree with the margins")
    want_mu = float(np.max(lam) ** 2) if d == 2 else None
    if (rep["d2_mu_max"] is None) != (want_mu is None) or (want_mu is not None and not _close(rep["d2_mu_max"], want_mu)):
        problems.append(f"{op.name}: d2_mu_max {rep['d2_mu_max']!r}, expected {want_mu!r}")
    return problems


# ---------------------------------------------------------------- workload


def _check_op(op: Op, by_name: dict[str, Op], outdir: Path) -> list[str]:
    kind = op.argv[0]
    if kind == "cloud":
        return check_cloud(op, outdir)
    if op.name == "mom_rank1":
        return check_rank_one(op, outdir)
    if kind == "split":
        return check_split(by_name["mom_rank2"], op, outdir)
    if kind == "roc":
        return check_roc(op, outdir)
    if op.name == "direct":
        return check_direct(op, outdir)
    if kind == "xi-tail":
        return check_xi(op, outdir)
    if kind == "threshold":
        return check_threshold(op, outdir)
    return []


def unexpected_failures(ops: list[Op], failed: set[str]) -> list[str]:
    """A problem for every failed op but the known fault."""
    return [f"{name}: op failed (non-zero exit, missing output or a non-finite estimate)"
            for name in sorted(failed - {op.name for op in ops if op.known_fault})]


def check_outputs(workload: str, ops: list[Op], outdir: Path, failed: set[str]) -> list[str]:
    """All checks of one workload's outputs in `outdir`.

    A failed op is a problem unless it is the known fault.  The content
    checks run on every op but a failed known fault, also on ops that exit
    non-zero: the CLI exits 2 when a cloud point lies above the bound, and
    the cloud check must still say which points.  An output that cannot be
    read is a problem too."""
    by_name = {op.name: op for op in ops}
    problems = unexpected_failures(ops, failed)
    for op in ops:
        if op.known_fault and op.name in failed:
            continue
        try:
            problems += _check_op(op, by_name, outdir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{op.name}: output unreadable: {exc!r}")
    return problems


def digests(ops: list[Op], outdir: Path) -> dict[str, str]:
    """SHA-256 of every output file by name, for byte-identity checks across
    thread counts and rounds; a missing file reads as empty."""
    out = {}
    for op in ops:
        for name in output_files(op):
            path = outdir / name
            out[name] = hashlib.sha256(path.read_bytes() if path.is_file() else b"").hexdigest()
    return out
