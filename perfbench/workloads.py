"""The four benchmark workloads as lists of `spikedtensor` CLI commands.

Every command comes from the README reference commands; the benchmark sets
the sizes.  The master seed of every command is the benchmark's `--seed`,
except the overflow case in `moment`, whose input is fixed so that it fails
the same way on every seed.  `--threads` is appended by the runner.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("cloud", "moment", "observe", "tails")

CLOUD_SAMPLES = 12_000
CLOUD_BINS = 60
MOMENT_N = (4, 8, 16, 32)
MOMENT_LAMBDA = 0.3
MOMENT_SAMPLES = 2_000
SPLIT_N = 8
SPLIT_LAMBDAS = "0.4,0.2"
SPLIT_EPSILON = 0.005  # about one draw in six lands above it
SPLIT_SAMPLES = 2_000
OVERFLOW_SAMPLES = 2_000
OBSERVE_N = 3
OBSERVE_LAMBDA = 0.4
OBSERVE_INNER = 200
ROC_TRIALS = 64
DIRECT_OUTER = 256
XI_SAMPLES = 150_000
XI_CASES = ((4, (0.3, 0.5, 0.7)), (8, (0.3, 0.5, 0.7)), (16, (0.2, 0.35, 0.5)))
THRESHOLD_LAMBDAS = "0.5,0.3"


@dataclass(frozen=True)
class Op:
    """One CLI call.  `name` is also its `--out` stem; `draws` is what the
    call counts toward draws/s; `known_fault` marks the one call expected to
    fail because of a fault in the program."""

    name: str
    argv: tuple
    draws: int
    known_fault: bool = False

    def flags(self) -> dict[str, str]:
        """The `--key value` pairs of the command, keyed without dashes."""
        return {key.removeprefix("--"): value for key, value in zip(self.argv[1::2], self.argv[2::2])}


def _argv(kind: str, **flags) -> tuple:
    out = [kind]
    for key, value in flags.items():
        out += [f"--{key}", str(value)]
    return tuple(out)


def build_ops(workload: str, seed: int) -> list[Op]:
    """The commands of one round of `workload`, all seeded from `seed`."""
    seed %= 2**64
    if workload == "cloud":
        return [
            Op(name, _argv("cloud", d=3, lambdas="1.0,1.0", gram=gram, n=16, samples=CLOUD_SAMPLES,
                           bins=CLOUD_BINS, seed=seed, out=name), CLOUD_SAMPLES)
            for name, gram in (("cloud_orth", "identity"), ("cloud_corr", "two-eigenvalue:1.8,0.2"))
        ]
    if workload == "moment":
        n_list = ",".join(map(str, MOMENT_N))
        pair = dict(d=3, lambdas=SPLIT_LAMBDAS, n=SPLIT_N, epsilon=SPLIT_EPSILON, samples=SPLIT_SAMPLES, seed=seed)
        return [
            Op("mom_rank1", _argv("moment", method="haar", d=3, lambdas=MOMENT_LAMBDA, n=n_list,
                                  samples=MOMENT_SAMPLES, seed=seed, out="mom_rank1"),
               MOMENT_SAMPLES * len(MOMENT_N)),
            Op("mom_rank2", _argv("moment", **pair, out="mom_rank2"), SPLIT_SAMPLES),
            Op("split_rank2", _argv("split", **pair, out="split_rank2"), SPLIT_SAMPLES),
            Op("mom_overflow", _argv("moment", d=3, lambdas=30, n=8, samples=OVERFLOW_SAMPLES, seed=0,
                                     out="mom_overflow"), OVERFLOW_SAMPLES, known_fault=True),
        ]
    if workload == "observe":
        common = dict(d=3, lambdas=OBSERVE_LAMBDA, n=OBSERVE_N, inner=OBSERVE_INNER, seed=seed)
        return [
            Op("roc", _argv("roc", **common, trials=ROC_TRIALS, out="roc"), 2 * ROC_TRIALS * OBSERVE_INNER),
            Op("direct", _argv("moment", method="direct", **common, outer=DIRECT_OUTER, out="direct"),
               DIRECT_OUTER * OBSERVE_INNER),
        ]
    if workload == "tails":
        ops = [
            Op(f"xi_n{n}", _argv("xi-tail", n=n, t=",".join(map(str, ts)), samples=XI_SAMPLES, seed=seed,
                                 out=f"xi_n{n}"), XI_SAMPLES * len(ts))
            for n, ts in XI_CASES
        ]
        ops += [
            Op(f"thr_d{d}", _argv("threshold", d=d, lambdas=THRESHOLD_LAMBDAS, gram="identity", out=f"thr_d{d}"), 0)
            for d in (2, 3)
        ]
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
