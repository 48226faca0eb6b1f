"""Golden SHA-256 digests of outputs whose draws and arithmetic are fixed.

The 0.4.0 break re-took the digests that one kernel per quantity moves:
every `roc` and `moment --method direct` case (the likelihood by mode
contractions), the Haar `moment` and `split` cases (the exponent of Haar
corner sets, a new draw order), the cloud's envelope and bound files (the
array-valued bound) and the library values.  Each was checked against
0.3.0 before it was pinned: the same draws give the same `roc` rates and
agree to a few ulps, and the Haar means agree in law.  The cloud points,
`threshold` and `xi-tail` keep their 0.3.0 digests.

The 0.5.0 break, one cell budget for every block (`rng._BLOCK_CELLS`),
re-took `mom_r1` and `split_r2` only: their chunks of 1250 draws became one
block instead of two, a new draw order, and `mom_r1` is checked against the
exact rank-one series below.  Every digest holds at every `--threads` value.
The `roc`, `direct` and library digests hold for any block size too; the
Haar, cloud and `xi-tail` digests depend on `_BLOCK_CELLS`, because a
block's Gaussians are drawn part by part.  BLAS and SIMD builds can in
principle move a last digit; a failure on another platform should first be
checked against that platform's output at the version the file was taken.

The 0.6.0 break, Haar corner blocks from their Bartlett form
(`rate._haar_corner_sets`: O(r^2) variates a block instead of an (n, r)
frame) and cloud mixture variates drawn per component, re-took every
output that reads Haar corners: the cloud's points and envelope, `mom_r1`,
`mom_r1_ragged`, `mom_r2`, `split_r2`, `split_empty` and `split_ragged`.
They were taken after the corner law tests in `test_rate.py` passed, and
the `mom_r1` means are checked against the exact rank-one series below.
`roc`, `direct`, `threshold`, `xi-tail`, the cloud's bound file and the
library values keep their digests.

The 0.7.0 break, cloud kernels without a LAPACK call per block (the block
rate as the log pivots of a stacked elimination, the Ginibre norm as the
root of its Gram's top eigenvalue, on the same variates), re-took the
cloud's points and envelope: 1923 of the 4000 points moved, by at most
1e-13 relative in x (Ginibre rows) and 5.5e-14 in y, and 7 of the 30
envelope maxima in their last two digits.  They were taken after the oracle
tests in `test_rate.py` (the batched `slogdet` rate and the SVD rescale)
passed.  The cloud's bound file and every other digest hold at `--threads`
1 and 2.

The 0.8.0 break, the Ginibre norm from a stacked top-eigenvalue kernel
(`rate._top_eigenvalue`: closed form at r = 2 in place of one LAPACK
`heevd` per block, on the same variates; r >= 3 keeps `eigvalsh`), re-took
the cloud's points only: 655 of the 4000 rows moved, all Ginibre rows, by
at most 9.2e-15 relative in x and 5.7e-14 in y.  The envelope and bound
files kept their bytes, and so did every other digest, at `--threads` 1
and 2.  The points were taken after the kernel's `eigvalsh` oracle test and
the SVD-rescale test in `test_rate.py` passed.

The 0.9.0 break, `xi-tail` from exponential squared moduli (a sample is n
Exp(1) variates, the law of the squared moduli of a standard complex
Gaussian, in place of its 2n normals; a new draw order, the same law), re-took `xi.csv` and
`xi.json` only.  At t = 0.2, 0.5, 0.7 the new frequencies sit -1.2, -1.2
and -0.3 stderr from (1 - t^2)^7, against -0.7, -1.6 and -1.6 at 0.8.0.
They were taken after the law tests of `test_moment.py` passed (the counts
against the complex route on disjoint seeds, a KS test of the ratios
against Beta(1, n - 1)), and they hold at `--threads` 1 and 2; every other
digest holds.

The 0.10.0 break, one route per sampling kernel, re-took the cloud's
points, `roc_full_qr`, `direct_full_qr` and the library `d3n2r2` (and the
mixture digest of `test_rate.py`).  The cloud's Ginibre component is scaled to Frobenius norm sqrt(rho) in place of
spectral norm sqrt(rho), a new law whose spectral norm is at most sqrt(rho):
of the cloud's 4000 points exactly its 1314 Ginibre rows moved, each to a
rate no lower than before, and the envelope and bound files kept their
bytes.  Square stacks (n = r) are orthonormalized by the Gram-Schmidt of the
frames in place of LAPACK's QR and its phase fix, the same draws and the
same Q up to rounding: against 0.9.0, `roc_full_qr` moved by at most 7.8e-14
relative, `direct_full_qr` by 3.1e-16 and the library values of `d3n2r2` by
2.4e-14, all within 1e-12, before they were re-taken.  Every other digest
holds at `--threads` 1 and 2.

The 0.11.0 break, one log-domain pass for every Monte-Carlo mean (the
exponentials shifted by the largest exponent and summed per chunk by one
`np.bincount`, in place of a replica of scipy's log-sum-exp; the
likelihood's inner average by the plain shifted log-sum-exp), re-took every
`roc`, `direct`, Haar `moment` and `split` case and the three library
values, on the same draws in the same order.  Against 0.10.0, before they
were re-taken, means moved by at most 1.8e-15 relative, stderrs by 4.8e-13
(`mom_r1`), `roc` thresholds by 3.0e-14 and the library values by 2.2e-14;
fpr, tpr, `tv_proxy`, counts, `log_domain_max` and the split means did not
move.  `roc_n4_d3`, `direct_n4_d3`, `direct_full_qr`, `threshold`,
`xi-tail` and the three cloud files keep their digests at `--threads` 1
and 2.

The 0.14.0 break, one prior set per `roc` run (`moment._prior_set`: the
`inner` prior rotations drawn once, from the lane `rng._PRIOR_LANE` past the
chunk lanes, and every null and alternative observation scored against
them; a draw now takes the null noise, one spike rotation and the
alternative noise), re-took the five `roc` cases and the three library
values, whose `roc` half moved.  The statistic is now one fixed function
of Y; against 0.13.0 it agrees in law, not in bytes: at d=3, n=4,
lambda=1.0, 2000 trials, inner=200 and seeds 1-6, `tv_proxy` read
0.096-0.132 and the AUC 0.559-0.585, against 0.110-0.132 and 0.566-0.585.
The new `roc` digests were taken after the per-draw reference, the
unit null mean of one fixed set and the second-moment bound on `tv_proxy`
in `test_moment.py` passed; they hold at `--threads` 1 and 2 and for one
draw a block.  Folding the normals' scale into one real product (the
`rng` samplers) moved no byte: every other digest holds at `--threads` 1
and 2.

The 0.16.0 break, a Gram-native `SpikeSpec` (amplitudes, Grams and n; the
factor matrices derived from the Grams, and no Grams rebuilt from them),
re-took the outputs that read a non-identity Gram: `thr_d3`, `mom_r2`,
`direct_r2_d2`, `direct_full_qr`, the library `d3n2r2` and the sparse
cloud hash, whose all-ones r=3 spike moved.  Their draws did not move, only
the arithmetic on the Grams.  Against 0.15.0, before they were re-taken:
`thr_d3`'s `eta_max` reads 0.7657600000000001, the exact 0.76576 to one
ulp, where it read 0.7657599999999994, and its margins moved by at most
8.7e-16 relative; the `direct` means, stderrs and `log_domain_max` by
3.5e-15; `mom_r2`'s mean did not move, its stderr moved by 2.1e-14 and its
`log_domain_max` by 1.1e-15; the `d3n2r2` roc thresholds by at most 1.8e-15
absolute, 1.2e-15 of the largest, with fpr, tpr and `tv_proxy` unmoved,
and its fixed-spike estimate by 2.7e-15.  The all-ones r=3 cloud points
moved in x by at most 7.7e-10 absolute on an `eta_max` of 1: the Grams'
zero eigenvalues enter `spike_svd` as square roots of rounding (2.6e-8
from the rebuilt Grams, 3.0e-9 from the given ones), and its y values and
the identity r=2 points kept their bytes.  Every other digest holds at
`--threads` 1 and 2.
"""

import hashlib
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import spikedtensor as st
import spikedtensor.moment as moment
import spikedtensor.rate as rate
import spikedtensor.rng as rng
from conftest import rank_one_second_moment
from spikedtensor.cli import main
from spikedtensor.rng import map_streams

CLI_CASES = {
    "roc_readme": "roc --d 3 --lambdas 0.4 --n 3 --trials 500 --inner 200",
    "roc_bench": "roc --d 3 --lambdas 0.4 --n 3 --inner 200 --trials 64 --seed 1",
    "direct_bench": "moment --method direct --d 3 --lambdas 0.4 --n 3 --inner 200 --outer 256 --seed 1",
    "roc_r2_d2": "roc --d 2 --lambdas 0.5,0.3 --n 4 --trials 40 --inner 50 --seed 77",
    "direct_r2_d2": "moment --method direct --d 2 --lambdas 0.5,0.3 --gram two-eigenvalue:1.8,0.2 --n 3,4 "
                    "--outer 40 --inner 30 --seed 77",
    # n = r: every draw orthonormalizes square (full-unitary) stacks, by the
    # frames' Gram-Schmidt; re-taken at 0.10.0, when it replaced LAPACK's QR
    # (roc_full_qr again at 0.11.0, with the other moved cases; every roc
    # case again at 0.14.0 for the one prior set a run)
    "roc_full_qr": "roc --d 3 --lambdas 0.6,0.4 --n 2 --trials 30 --inner 20 --seed 5",
    "direct_full_qr": "moment --method direct --d 3 --lambdas 0.6,0.4 --gram all-ones --n 2 --outer 30 --inner 20 --seed 5",
    # one draw fills a chunk above the thread threshold: runs on the pool at --threads 2
    "roc_n4_d3": "roc --d 3 --lambdas 0.3 --n 4 --trials 24 --inner 4200 --seed 77",
    "direct_n4_d3": "moment --method direct --d 3 --lambdas 0.5,0.2 --n 4 --outer 20 --inner 2400 --seed 1",
    "direct_d2_r1": "moment --method direct --d 2 --lambdas 0.7 --n 3,4 --outer 64 --inner 100 --seed 77",
}

# xi takes chunks above the thread threshold, so it runs on the pool at
# --threads 2; since 0.6.0 the Haar cases stay on the calling thread (see
# test_moment.py for a Haar estimate on the pool)
ESTIMATE_CASES = {
    "thr_d2": "threshold --d 2 --lambdas 0.5,0.3",
    "thr_d3": "threshold --d 3 --lambdas 0.6,0.4 --gram two-eigenvalue:1.8,0.2",
    "mom_r1": "moment --d 3 --lambdas 0.3 --n 4,8,32 --samples 20000 --seed 3",
    "mom_r2": "moment --d 3 --lambdas 0.4,0.2 --gram two-eigenvalue:1.8,0.2 --n 8 --samples 2000 --seed 3",
    "split_r2": "split --d 3 --lambdas 0.4,0.2 --n 16 --epsilon 0.005 --samples 20000 --seed 3",
    # the default epsilon leaves E1 empty: log_domain_max is null (JSON), -inf (CSV)
    "split_empty": "split --lambdas 0.4,0.2 --n 8 --samples 2000 --seed 4",
    # 2001 draws: chunks of 126 and 125, so the batch means average ragged chunks
    "mom_r1_ragged": "moment --d 3 --lambdas 0.3 --n 4,8 --samples 2001 --seed 3",
    "split_ragged": "split --d 3 --lambdas 0.4,0.2 --n 8 --epsilon 0.005 --samples 2001 --seed 3",
    "xi": "xi-tail --n 8 --t 0.2,0.5,0.7 --samples 150000 --seed 3",
    # NumPy's pairwise row sum adds fewer than 8 terms one after another and
    # 8 or more in 8 interleaved partial sums, so n=4 and n=16 group their
    # additions unlike n=8, one term a partial sum; n=4 stays on the calling
    # thread at --threads 2, n=16 reaches the pool
    "xi_n4": "xi-tail --n 4 --t 0.2,0.5,0.7 --samples 150000 --seed 3",
    "xi_n16": "xi-tail --n 16 --t 0.2,0.35,0.5 --samples 150000 --seed 3",
}

GOLDEN = {
    "roc_readme.csv": "7cdcc3336a56f7f637edb565105ba65dcfc8fc030bdd22f4b7d54cb7609dd353",
    "roc_readme.json": "2515765e222e572a6afadef3727ab325d1a8d65c4cf063a560a53e3f67948281",
    "roc_bench.csv": "1bce1ee41b32a55589d2c2371b3d6054c467e4dcf93c60b1e4c92aeefd5764cd",
    "roc_bench.json": "8388cbb13d1bcf75d8fc8f0ac5a4e0b7570ba5e80bdfb5dac66482eeb88e8c26",
    "direct_bench.csv": "f64773191dc4bb972ef9bf9c4bb4788ae0991efd22a573d1b154422f415c13ee",
    "direct_bench.json": "d02c9b54519d8630f167152f2d2a85b8e5343c6cd42e545f082f364b0f3b858e",
    "roc_r2_d2.csv": "f38f1085c7054026714b31095bb407d127c187ca24ffa62918a2b7d8c0a0217d",
    "roc_r2_d2.json": "cda338f56f4aaf89647a79b195ce345433b78c46a9bb26cde77b7d452bce02b3",
    "direct_r2_d2.csv": "5854f7cb46ad534d0ff86bb886904d4052daa3f790ca2a66960da036309c495b",
    "direct_r2_d2.json": "04ad86c6773060c72ec73f960be788c6690c180ce125295fad10a755a1ade909",
    "roc_full_qr.csv": "dba6c5f08bc28a841080887f086c4c2f7d2f2287cdd5d4808126ad3450b7c974",
    "roc_full_qr.json": "171457460076dac4280138e4d666fd2e943e96a0e0586d486eb6da329ed88515",
    "direct_full_qr.csv": "f07cb43e585c4bee4d3088d3324faa4740c6949f22122c650a39a309413a659c",
    "direct_full_qr.json": "c822c165060364a6adb13239af94d9a178d1303f5bc2f2a424602b357e1d14e1",
    "roc_n4_d3.csv": "bdb0d023c75bef7fa55f534723f6a271aa40c57802d53a1053fb39c6745c9dad",
    "roc_n4_d3.json": "4c41e4779640421cd8c827493ea1c4228c91ab033ac4e42c925b13047d49a0c9",
    "direct_n4_d3.csv": "1ebddfe29b9086d64f092b17c2692e244ef7f92a234773264919032b9f45d799",
    "direct_n4_d3.json": "4deffdaf8584d74ee78d7f35c388fca08f6beb059ad0097ff347291a00e78c42",
    "direct_d2_r1.csv": "a45090152e7d89ed5c7a790dcf2cdb2a1c7f36536949066031f2786729370fdd",
    "direct_d2_r1.json": "d3f03dbb22244a54a54b1a394b27a025674a8511af8eae978fa8a0759bfa9deb",
    # bound taken at 0.4.0 for the array-valued bound (last digits of the
    # bound column); points and envelope re-taken at 0.6.0 for the Bartlett
    # corner draw and the per-component mixture variates, then at 0.7.0 for
    # the stacked block-rate and Ginibre-norm kernels (last digits); points
    # re-taken at 0.8.0 for the stacked top-eigenvalue kernel (last digits),
    # and at 0.10.0 for the Frobenius-scaled Ginibre rows (a new law)
    "cloud.points.csv": "255df59927a6f3dc49b126292349e07d54bba451a630c2b324104711fbb143ac",
    "cloud.envelope.csv": "5d0e18d1a8a9aedb11ccb7c694d2089b03d28384ad13a67078d612b0c44bd0da",
    "cloud.bound.csv": "7d8676b534e1b959c397b65af04d7ef2b239521a727e8448e3dd3414b1f19f95",
    # thr_* taken from 0.3.0 before the one-emitter CLI, thr_d3 re-taken at
    # 0.16.0 for the Grams read as given
    "thr_d2.csv": "a71d26adb81b46b826b2e73b828da4f6cfbc1c0e64979a654319a77e27de53cb",
    "thr_d2.json": "a7b1d937e2fa5724259314349c5f430aefb183dd22dc4ad77e97aad01791b9cf",
    "thr_d3.csv": "ceb0aabb6903868eb8228957570c89beb6159009c8fcd1d8c7eb5289ea28634e",
    "thr_d3.json": "93325ad49df8a163f0d8c43e2cf5621314675d51ce111488e08492b8c2d2447c",
    # the Haar moment and split cases re-taken at 0.6.0 for the Bartlett
    # corner draw; these and the direct cases above but direct_n4_d3 and
    # direct_full_qr re-taken at 0.11.0 for the one-pass reduction (last
    # digits), as were the roc cases, re-taken again at 0.14.0; mom_r2,
    # direct_r2_d2 and direct_full_qr re-taken at 0.16.0 (last digits)
    "mom_r1.csv": "7bdca34993f547cd65c64bc3500fb7f356a4ffc87db6c38fa551680dce65818b",
    "mom_r1.json": "fe731bca8bde7d7547610995e3cbdeacdccf8d6d12ae338cacba454997934037",
    "mom_r2.csv": "7e6ff250882ef24c75207fdae50a6eada53982b7316e8e58824b9221d487cb03",
    "mom_r2.json": "b8b11411e1c844e86310c41135609660ed9f2e5df84c44035a1fa8fe307168b5",
    "split_r2.csv": "cffd96d3c09ae5bad08182a1d857f13110f9f319f551d642d0c38c704e585efe",
    "split_r2.json": "5b40b6872a62240e0a02a391babc481d862b795c8f12472c5e50c2de944153c9",
    "split_empty.csv": "ad6fafe10de2d60a3b1942435f9ce76cd4de15da7310ca9e1570916b34cad743",
    "split_empty.json": "423c00b59ccfe5781a59f9189d14cd16757b36729f04bafdcc1a67888191e8dd",
    # first taken at 0.5.0 before the stacked batch means of
    # _mean_from_exponents, re-taken at 0.6.0 and 0.11.0
    "mom_r1_ragged.csv": "6f236c516c9e19de776f8e7d21b53663bc4f2a8991a106a1db30ef2a544d635b",
    "mom_r1_ragged.json": "a5d953842291322b8bb0865d80a5c99b25a8e91438283043b86c06b5833fd7b6",
    "split_ragged.csv": "4e905fc81b3ce8c766e5497e12f9996b269220d3eb3facc0a89e2a08c475f28a",
    "split_ragged.json": "d1b6a53cfe65ac1b6f8fab89faf9de5f5503ee846049efdf0eca108df5efe87c",
    # xi re-taken at 0.9.0 for the exponential squared moduli
    "xi.csv": "c791aef348147cfdadf578285370fe4b177174444c14810a64a837334fcdadcb",
    "xi.json": "6a38c91dd122e3c17a2e4f41b4fbd975a1df6886939900e4bf7b45c06ac7019a",
    # xi_n4 and xi_n16 taken at 0.14.0 by the per-row sums, before the
    # one-gemv row sums that must keep them
    "xi_n4.csv": "e4e913a78505ae166bb3e5c2b0a96e0ae2575948751f1224924e3e33e85e8903",
    "xi_n4.json": "ad44ca86991e37e5ab39ccb4a02724609d929a33d0bb1234f014bff08b5583c0",
    "xi_n16.csv": "79273d2e714100ad7c140719e7986472f9c9062417bf1d1f7771c374ba08f869",
    "xi_n16.json": "4fabaea7b10853f60966e257980dfe4bf6699ffbf732616761a3dc9cbfe7150b",
}

CLOUD = "cloud --d 3 --lambdas 1.0,1.0 --n 8 --samples 4000 --bins 30 --seed 5 --out cloud"

# roc_experiment's points and tv proxy and the fixed-spike
# second_moment_direct_mc, hashed together per spike (see _library_digest);
# taken at 0.8.0, when they replaced the digests of the per-observation
# route (simulate_observation, log_lr_mc), which no subcommand called; d3n2r2
# (n = r) re-taken at 0.10.0 for the Gram-Schmidt square stacks, all
# three at 0.11.0 for the plain shifted log-sum-exp (last digits), all
# three at 0.14.0 for `roc`'s one prior set a run, and d3n2r2 at 0.16.0
# for its Gram read as given (last digits)
LIBRARY_GOLDEN = {
    "d3n3r2": "4b353d8bb2ac342b3b931aed80bbd6c1657a59488b069dec4b298f4d6cb3951e",
    "d2n4r1": "1e180cdf03c136a1f0930a700ae6a1d6b1499f2d2d1191a8ca111a2545cf936f",
    "d3n2r2": "95d288582fd68e6165427d84eec0f6b9a58b4ee54b560feee8673383a8d98520",
}

LIBRARY_SPECS = {
    "d3n3r2": ([0.6, 0.3], 3, 3, np.eye(2)),
    "d2n4r1": ([0.8], 2, 4, np.eye(1)),
    "d3n2r2": ([0.5, 0.4], 3, 2, np.array([[1.0, 0.5], [0.5, 1.0]])),
}


# the version each file's digest was taken at: the version in the header
# is checked and then swapped for that one before hashing
PINNED_VERSION = (
    dict.fromkeys(GOLDEN, "0.4.0")
    | dict.fromkeys(["thr_d2.csv", "thr_d2.json", "thr_d3.csv", "thr_d3.json"], "0.3.0")
    | dict.fromkeys([f"{name}.{ext}" for name in ("mom_r1", "mom_r1_ragged", "mom_r2", "split_r2", "split_empty",
                                                  "split_ragged") for ext in ("csv", "json")], "0.6.0")
    | {"cloud.envelope.csv": "0.7.0", "xi.csv": "0.9.0", "xi.json": "0.9.0"}
    | dict.fromkeys(["cloud.points.csv"] + [f"{name}.{ext}" for name in ("roc_full_qr", "direct_full_qr")
                                             for ext in ("csv", "json")], "0.10.0")
    | dict.fromkeys([f"{name}.{ext}" for name in ("direct_bench", "direct_r2_d2", "direct_d2_r1", "mom_r1",
                                                  "mom_r1_ragged", "mom_r2", "split_r2", "split_empty",
                                                  "split_ragged") for ext in ("csv", "json")], "0.11.0")
    | dict.fromkeys([f"{name}.{ext}" for name in ("roc_readme", "roc_bench", "roc_r2_d2", "roc_full_qr", "roc_n4_d3")
                     for ext in ("csv", "json")], "0.14.0")
    | dict.fromkeys([f"{name}.{ext}" for name in ("xi_n4", "xi_n16") for ext in ("csv", "json")], "0.14.0")
    | dict.fromkeys([f"{name}.{ext}" for name in ("direct_r2_d2", "direct_full_qr", "mom_r2", "thr_d3")
                     for ext in ("csv", "json")], "0.16.0")
)


def _digests(directory) -> dict:
    out = {}
    for p in sorted(directory.iterdir()):
        data = p.read_bytes()
        header = '"version": "{}"' if p.suffix == ".json" else "# spikedtensor {}\n"
        written = header.format(st.__version__).encode()
        assert data.count(written) == 1 and (p.suffix == ".json" or data.startswith(written))
        data = data.replace(written, header.format(PINNED_VERSION[p.name]).encode())
        out[p.name] = hashlib.sha256(data).hexdigest()
    return out


def _run_case(tmp_path, monkeypatch, command: str, threads: int) -> dict:
    # a relative --out keeps the tmp path out of the config line
    monkeypatch.chdir(tmp_path)
    for fmt in ("csv", "json"):
        assert main(command.split() + ["--format", fmt, "--threads", str(threads)]) == 0
    return _digests(tmp_path)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_observation_outputs_are_pinned(tmp_path, monkeypatch, name):
    got = _run_case(tmp_path, monkeypatch, f"{CLI_CASES[name]} --out {name}", 1)
    assert got == {f"{name}.{ext}": GOLDEN[f"{name}.{ext}"] for ext in ("csv", "json")}


@pytest.mark.parametrize("name", ["roc_bench", "direct_bench", "roc_full_qr", "roc_n4_d3", "direct_n4_d3"])
def test_observation_outputs_are_pinned_at_two_threads(tmp_path, monkeypatch, name):
    got = _run_case(tmp_path, monkeypatch, f"{CLI_CASES[name]} --out {name}", 2)
    assert got == {f"{name}.{ext}": GOLDEN[f"{name}.{ext}"] for ext in ("csv", "json")}


@pytest.mark.parametrize("name", ["roc_n4_d3", "direct_n4_d3"])
def test_pool_cases_reach_the_pool(tmp_path, monkeypatch, name):
    idents = []

    def recording(draw, *args, **kwargs):
        def traced(m, gen):
            idents.append(threading.get_ident())
            return draw(m, gen)

        return map_streams(traced, *args, **kwargs)

    monkeypatch.setattr(moment, "map_streams", recording)
    _run_case(tmp_path, monkeypatch, f"{CLI_CASES[name]} --out {name}", 2)
    assert idents and threading.get_ident() not in idents


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(ESTIMATE_CASES))
def test_estimate_outputs_are_pinned(tmp_path, monkeypatch, name, threads):
    got = _run_case(tmp_path, monkeypatch, f"{ESTIMATE_CASES[name]} --out {name}", threads)
    assert got == {f"{name}.{ext}": GOLDEN[f"{name}.{ext}"] for ext in ("csv", "json")}


def test_rank_one_haar_means_match_the_exact_series(tmp_path, monkeypatch):
    # the re-taken mom_r1 means are checked in law, not only re-pinned, on
    # the exact rank-one series
    _run_case(tmp_path, monkeypatch, f"{ESTIMATE_CASES['mom_r1']} --out mom_r1", 1)
    estimates = json.loads((tmp_path / "mom_r1.json").read_text())["estimates"]
    assert [e["n"] for e in estimates] == [4, 8, 32]
    for e in estimates:
        assert abs(e["mean"] - rank_one_second_moment(e["n"], 3, 0.3)) <= 3 * e["stderr"]


@pytest.mark.parametrize("threads", [1, 2])
def test_cloud_outputs_are_pinned(tmp_path, monkeypatch, threads):
    monkeypatch.chdir(tmp_path)
    assert main(CLOUD.split() + ["--threads", str(threads)]) == 0
    assert _digests(tmp_path) == {name: GOLDEN[name] for name in ("cloud.bound.csv", "cloud.envelope.csv", "cloud.points.csv")}


def test_cloud_on_the_pool_matches_one_thread(tmp_path, monkeypatch):
    # 32k draws at n=8, r=2: chunks of 2000 draws of 36 cells reach the pool
    # at --threads 2 (the pinned 4000-draw cloud stays on the calling thread)
    command = CLOUD.replace("--samples 4000", "--samples 32000").split()
    idents = []

    def recording(draw, *args, **kwargs):
        def traced(m, gen):
            idents.append(threading.get_ident())
            return draw(m, gen)

        return map_streams(traced, *args, **kwargs)

    monkeypatch.setattr(rate, "map_streams", recording)
    files = {}
    for threads in (1, 2):
        (tmp_path / str(threads)).mkdir()
        monkeypatch.chdir(tmp_path / str(threads))
        idents.clear()
        assert main(command + ["--threads", str(threads)]) == 0
        files[threads] = {name: Path(name).read_bytes() for name in ("cloud.points.csv", "cloud.envelope.csv")}
    assert idents and threading.get_ident() not in idents
    assert files[1] == files[2]


# Clouds whose blocks lack mixture components: at 16 draws every chunk is
# one draw, so each block draws one component and none of the other two;
# at 17 and 40 a chunk holds one to three draws.  Hashed with 30 one-set
# `_sample_psi_stack` calls on one generator, for an identity r=2 and an
# all-ones r=3 spike at d=3, n=16; taken at 0.12.0, when an empty
# component's draws were still skipped by a guard, and re-taken at 0.16.0
# for the all-ones spike's Grams read as given
SPARSE_CLOUD_GOLDEN = "bcfbdb604f80229f4d330388751859791f76e23d037b31b5ab128566b61eb05c"


def test_cloud_blocks_without_some_components_are_pinned():
    h = hashlib.sha256()
    for lambdas, gram in (([1.0, 0.5], np.eye(2)), ([0.5, 0.3, 0.2], np.ones((3, 3)))):
        spec = st.SpikeSpec(lambdas, st.GramSet((gram,) * 3), n=16)
        for samples in (16, 17, 40):
            h.update(st.sample_grf_cloud(spec, samples, st.SeedSpec(7, samples), bins=10).points.tobytes())
        gen = st.SeedSpec(8, spec.r).generator()
        for _ in range(30):
            h.update(rate._sample_psi_stack(spec.r, spec.n, spec.d, 1, gen).tobytes())
    assert h.hexdigest() == SPARSE_CLOUD_GOLDEN


def _library_digest(name: str) -> str:
    lambdas, d, n, gram = LIBRARY_SPECS[name]
    spec = st.SpikeSpec(lambdas, st.GramSet((gram,) * d), n=n)
    h = hashlib.sha256()
    roc = st.roc_experiment(spec, 40, 37, st.SeedSpec(123, 4))
    h.update(roc.points.tobytes())
    h.update(np.float64(roc.tv_proxy).tobytes())
    est = st.second_moment_direct_mc(spec, 40, 1, st.SeedSpec(9, 0), rotate=False)
    h.update(np.array([est.mean, est.stderr, est.log_domain_max]).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(LIBRARY_SPECS))
def test_observation_library_values_are_pinned(name):
    assert _library_digest(name) == LIBRARY_GOLDEN[name]


@pytest.mark.parametrize("name", ["roc_bench", "roc_r2_d2", "direct_bench", "direct_d2_r1"])
def test_one_draw_blocks_give_the_same_bytes(tmp_path, monkeypatch, name):
    # a budget below one draw makes every block hold a single draw
    monkeypatch.setattr(rng, "_BLOCK_CELLS", 1)
    got = _run_case(tmp_path, monkeypatch, f"{CLI_CASES[name]} --out {name}", 1)
    assert got == {f"{name}.{ext}": GOLDEN[f"{name}.{ext}"] for ext in ("csv", "json")}


def test_one_draw_blocks_fixed_spike(monkeypatch):
    spec = st.SpikeSpec([0.6, 0.3], st.GramSet((np.eye(2),) * 3), n=3)
    batched = st.second_moment_direct_mc(spec, 300, 1, st.SeedSpec(9, 1), rotate=False)
    monkeypatch.setattr(rng, "_BLOCK_CELLS", 1)
    assert st.second_moment_direct_mc(spec, 300, 1, st.SeedSpec(9, 1), rotate=False) == batched


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == st.__version__
