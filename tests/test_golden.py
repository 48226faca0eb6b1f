"""Golden SHA-256 digests of outputs whose draws and arithmetic are fixed.

What the bytes are relative to: the digests are pinned to OpenBLAS
0.3.31's SkylakeX kernel (the one its runtime dispatch picks on an
AVX-512 x86 CPU), NumPy 2.4, with BLAS held to one thread on every thread
that draws (`rng._one_blas_thread`).  Another kernel sums in another
order: at 0.19.0, with `OPENBLAS_CORETYPE=Haswell`, 18 of the 65 tests
here fail (18 of 62 at 0.18.0), `thr_d3` among them, which draws nothing;
so do the `roc` digests where `openblas_set_num_threads_local` is missing
and OpenBLAS runs its GEMMs threaded.  On such a platform a failure says
that bits moved, not values: check it against that platform's own output
at the version the file was taken.  Every digest mismatch names the
OpenBLAS core and build config that it ran on and the SIMD targets that
NumPy's dispatch enabled there (`_blas_platform`), and a
`roc` case checks its fpr, tpr and `tv_proxy` apart from its thresholds
first (`ROC_RATES_GOLDEN`), so that a failure says whether the curve moved
or only threshold bits did.  Within one platform every digest holds on a
rerun and at every `--threads` value.  Every digest with draws is pinned
to the layout constants as well (`rng._BLOCK_CELLS`, and for `roc` and,
since 0.23.0, `direct` the draw cells of `moment._roc_cost` and
`moment._direct_cost`), which fix the batch a draw is scored in; a
fixed-spike `direct` estimate, scored against a one-row dictionary, keeps
its bytes with one-draw blocks (`test_one_draw_blocks_fixed_spike`).

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
block's Gaussians are drawn part by part.

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
zero eigenvalues enter the Gram spectra as square roots of rounding
(2.6e-8 from the rebuilt Grams, 3.0e-9 from the given ones), and its y
values and the identity r=2 points kept their bytes.  Every other digest
holds at `--threads` 1 and 2.

The 0.17.0 break, one eigendecomposition a spike (`GramSet` takes one
stacked `eigh` of its Grams, and the PSD check, the mode maps, the factors
and the rotations all read it), re-took `direct_r2_d2`, `direct_full_qr`,
the library `d3n2r2` and the sparse cloud hash.  `roc` and `direct` now
rotate a factor chi_k = [S_k; 0], S_k the Gram's Hermitian root, as W S_k
with W a Haar frame, in place of W R_k with R_k from the thin QR of chi_k.
As R_k = U_k S_k for a unitary U_k and W U_k is a Haar frame whenever W
is, the law is the same but the rotations are new; at identity Grams R_k
and S_k are both exactly I, so those cases keep their bytes.  Over seeds
1-20 (400 outer draws) and 1-10 (200 trials), before they were re-taken,
the `direct_full_qr` spike's `direct` means averaged 3.31 (sd 2.00)
against 2.92 (0.94) at 0.16.0 and its `tv_proxy` 0.201 (0.032) against
0.195 (0.027); the `direct_r2_d2` spike at n = 4 read 3.07 (2.10) against
3.05 (1.72) and 0.149 (0.032) against 0.163 (0.040).  The `d3n2r2`
fixed-spike estimate kept its bytes and its `tv_proxy` moved from 0.150
to 0.225 (40 trials).  The Gram eigenvalues at most 16 r eps times the
largest are now exactly 0, so the all-ones r=3 cloud points moved in x by
at most 4.4e-11 absolute, and their y values and the identity r=2 points
kept their bytes.  They were re-taken after the law and reference tests
of `direct` and `roc` in `test_moment.py` passed unchanged; every other
digest holds at `--threads` 1 and 2.

The 0.18.0 break, `roc` scored by one real GEMM against its prior
dictionary (`moment._dictionary_log_lr`, in fixed slabs of 16 rows, with
BLAS held to one thread on every thread that draws) and Gram-Schmidt inner
products by `einsum` in place of `np.vecdot` (`rng._orthonormalize`), re-took
every `roc` and `direct` case, `split_r2`, `split_ragged`, the cloud's
points, the sparse cloud hash and the three library values, on the same
draws in the same order.  Against 0.17.0, before they were re-taken: `roc`'s
fpr, tpr and `tv_proxy` did not move in any case, and its thresholds moved
by at most 2.1e-14 absolute and 1.5e-14 of the largest threshold (the
thresholds nearest 0, such as 7e-4 in `roc_bench`, by up to 1.3e-12 of
their own size); the `direct` means kept their bytes but one, which moved
by 9.0e-16 relative, and their stderrs and `log_domain_max` moved by at
most 9.7e-16; the split means kept their bytes and the stderrs moved by at
most 5.2e-15; 883 of the cloud's 4000 points moved, by at most 3.4e-14
relative in x and 7.5e-16 in y, none lies above the bound, and the
envelope and bound files kept their bytes; the library fixed-spike
estimates kept theirs.  `mom_r1`, `mom_r1_ragged`, `mom_r2` and
`split_empty` kept their digests.  The new `roc_n6_r1` and `roc_n6_r2`
cases (a slab GEMM that OpenBLAS threads unless held to one thread) were
taken with the others; every `roc` digest holds at `--threads` 1 and 2 and
for one draw a block.

The 0.19.0 break, `roc` scored on 8-row slabs a whole group of chunks at a
time (`map_streams`' score step) and `direct`'s mode contractions by
broadcast products in place of an `einsum`, re-took `roc_n6_r1`,
`roc_n6_r2` and the four `direct` cases but `direct_n4_d3`, on the same
draws in the same order.  A row of a 16-row slab GEMM could take other
bytes at another place in its slab, at inner 500; 8-row slabs showed no
such dependence, and three `roc` runs at inner 500 now give the same bytes
at `--threads` 1 and 2 and with one-draw blocks (below).  Against 0.18.0,
before they were re-taken: `roc_n6_r1` and `roc_n6_r2` kept fpr, tpr and
`tv_proxy`, and 4 and 6 of their 400 thresholds moved, by at most 8.9e-16
and 2.7e-15; the `direct` means kept their bytes but one, which moved by
9.0e-16 relative, and the stderrs and `log_domain_max` moved by at most
7.9e-16 and 2.0e-15 relative.  `split_empty` was re-taken for its empty E1
bucket's stderr, now null in JSON and an empty cell in CSV in place of 0.
Every other digest, the library values included, holds at `--threads` 1
and 2.

The 0.22.0 break, `roc` scored by one plain GEMM a batch, at the batch's
own height (`moment._dictionary_log_lr`, no zero-padded 8-row slabs),
re-took `roc_r2_d2`, `roc_n6_r1`, `roc_n6_r2` and the library `d2n4r1` and
`d3n3r2`, on the same draws in the same order.  OpenBLAS can give a row
other last digits in a GEMM of another height, so `roc`'s bytes now depend
on its block layout, as the Haar, cloud and `xi-tail` ones do, and no
longer hold with one-draw blocks; they still hold on reruns and at
`--threads` 1 and 2.  Against 0.21.0, before they were re-taken: fpr, tpr
and `tv_proxy` did not move in any case (the `ROC_RATES_GOLDEN` digests
equal 0.21.0's), and 4, 6 and 25 of the 400, 400 and 80 CLI thresholds
moved, and 49 and 34 of the 80 library ones, by at most 2.4e-16, 4.0e-16,
7.1e-16, 6.9e-16 and 1.9e-15 of the largest |threshold|; the library
fixed-spike `direct` estimates kept their bytes.  `roc_readme`,
`roc_bench`, `roc_full_qr`, `roc_n4_d3`, `d3n2r2` and every non-`roc`
digest hold at `--threads` 1 and 2.

The 0.23.0 break, one prior set a chunk lane for `direct` (each of the 16
lanes draws `inner` rotations from its own stream before its first
observation, and scores its observations against their dictionary by
`roc`'s GEMM, `moment._dictionary_log_lr`; until 0.22.0 every observation
drew its own set), re-took the five `direct` cases and the library
`d3n2r2`, a new draw order for `direct` only.  Against 0.22.0, before they
were re-taken, every mean moved by at most 1.14 combined stderrs (0.80 for
`direct_bench`, 1.14 and 0.03 for `direct_d2_r1` at n = 3 and 4, 0.87 and
0.53 for `direct_r2_d2`, 0.69 for `direct_full_qr`, 0.20 for
`direct_n4_d3`); the r=1 means are checked against their exact
expectation below, where `direct_d2_r1` at n = 3 sits 3.40 stderrs low (it
sat 1.88 low at 0.22.0).  The fixed-spike `direct` estimate of `d3n2r2`,
now scored as a one-row dictionary, moved by 1.0e-15 relative, and those
of `d3n3r2` and `d2n4r1` kept their bytes.  Like `roc`'s since 0.22.0,
the `direct` digests hold on reruns and at `--threads` 1 and 2, and no
longer with one-draw blocks, whose one-row GEMMs give other last digits
(checked to 1e-12 below).  Every other digest holds at `--threads` 1 and
2.
"""

import ctypes
import hashlib
import json
import math
import re
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
    # case again at 0.14.0 for the one prior set a run, and every case here
    # at 0.18.0)
    "roc_full_qr": "roc --d 3 --lambdas 0.6,0.4 --n 2 --trials 30 --inner 20 --seed 5",
    "direct_full_qr": "moment --method direct --d 3 --lambdas 0.6,0.4 --gram all-ones --n 2 --outer 30 --inner 20 --seed 5",
    # one draw fills a chunk above the pool threshold: runs on the pool at --threads 2
    "roc_n4_d3": "roc --d 3 --lambdas 0.3 --n 4 --trials 24 --inner 4200 --seed 77",
    "direct_n4_d3": "moment --method direct --d 3 --lambdas 0.5,0.2 --n 4 --outer 20 --inner 2400 --seed 1",
    # scoring GEMMs of 72 to 172 rows by 432 by 500, large enough for
    # OpenBLAS to thread on the calling thread unless `map_streams` holds it
    # to one; groups of chunks reach the pool at --threads 2
    "roc_n6_r1": "roc --d 3 --lambdas 1.0 --n 6 --trials 200 --inner 500 --seed 7",
    "roc_n6_r2": "roc --d 3 --lambdas 1.0,0.5 --n 6 --trials 200 --inner 500 --seed 7",
    "direct_d2_r1": "moment --method direct --d 2 --lambdas 0.7 --n 3,4 --outer 64 --inner 100 --seed 77",
}

# the xi cases and split_r2 (1250 draws of 24 cells a chunk) take chunks
# above the pool threshold, so they run on the pool at --threads 2; the
# other Haar cases stay on the calling thread (mom_r1: 1250 draws of 6
# cells)
ESTIMATE_CASES = {
    "thr_d2": "threshold --d 2 --lambdas 0.5,0.3",
    "thr_d3": "threshold --d 3 --lambdas 0.6,0.4 --gram two-eigenvalue:1.8,0.2",
    "mom_r1": "moment --d 3 --lambdas 0.3 --n 4,8,32 --samples 20000 --seed 3",
    "mom_r2": "moment --d 3 --lambdas 0.4,0.2 --gram two-eigenvalue:1.8,0.2 --n 8 --samples 2000 --seed 3",
    "split_r2": "split --d 3 --lambdas 0.4,0.2 --n 16 --epsilon 0.005 --samples 20000 --seed 3",
    # the default epsilon leaves E1 empty: its stderr is null (JSON) or an
    # empty cell (CSV), and its log_domain_max null (JSON) or -inf (CSV)
    "split_empty": "split --lambdas 0.4,0.2 --n 8 --samples 2000 --seed 4",
    # 2001 draws: chunks of 126 and 125, so the batch means average ragged chunks
    "mom_r1_ragged": "moment --d 3 --lambdas 0.3 --n 4,8 --samples 2001 --seed 3",
    "split_ragged": "split --d 3 --lambdas 0.4,0.2 --n 8 --epsilon 0.005 --samples 2001 --seed 3",
    "xi": "xi-tail --n 8 --t 0.2,0.5,0.7 --samples 150000 --seed 3",
    # NumPy's pairwise row sum adds fewer than 8 terms one after another and
    # 8 or more in 8 interleaved partial sums, so n=4 and n=16 group their
    # additions unlike n=8, one term a partial sum; both reach the pool at
    # --threads 2 (n=4 with 37.5k cells a chunk)
    "xi_n4": "xi-tail --n 4 --t 0.2,0.5,0.7 --samples 150000 --seed 3",
    "xi_n16": "xi-tail --n 16 --t 0.2,0.35,0.5 --samples 150000 --seed 3",
}

GOLDEN = {
    "roc_readme.csv": "861581daf46d28613c050d65cb40128b2df64a08fa14e99450d060c19a49a505",
    "roc_readme.json": "d0f4f6d2e7a994a1872e555ecdeaf0ca54688a8d58812df9a5486557abeff35a",
    "roc_bench.csv": "8ab8b7834450c882e5c2fe10ac002fc44a65d6c31f490322993a42578527919a",
    "roc_bench.json": "654114322e71dd24fc9c0a04b9b8563318bd5f0a19b953296529b7e3281a048c",
    "direct_bench.csv": "700a8f3e7a2ac07a3d472592b96d91d4ed7186771616bbd99832ffb7c47d9127",
    "direct_bench.json": "7e9e24361e34afb0a5fb41b220e1d92cf9d1576aa72fc3bf74438ebc627d940c",
    "roc_r2_d2.csv": "47b87254555cca20fc9ad03ecf6b8e4938227f71c005acad0263acea4b397601",
    "roc_r2_d2.json": "2425b0acc4dfa02639790870c7f936aea686bbc4dd555794b72fa90b5d844f99",
    "direct_r2_d2.csv": "d0b72a4e8ec209d61e5238a9ea3cc63f890ff11647d92e0eaa187fc5f401d806",
    "direct_r2_d2.json": "730a260af4152f5ea89cd86912b56046fdc1b6c7028d7c0a652c61c941af31e9",
    "roc_full_qr.csv": "a5b5b6934daae9831e09c1ce0d68ee4edb38d5e85f03a5b5227ed5c5db073955",
    "roc_full_qr.json": "5b2818f0d5ae1d201d52e7c690b6a411bc77889befec420d3fceb385f0a52eb6",
    "direct_full_qr.csv": "fe97bf51d16dc8e4bcabc90b31f93862ac48fb81cca479eb397d93e4248c41ff",
    "direct_full_qr.json": "352abecacc2573e2cbe4fe23c0feafea47a8d81e37524e5e7164b4d8f4341f6b",
    "roc_n4_d3.csv": "108af69b1da00a1294e20a86062dfca5f552a56259b74559227e2cd6a774f73c",
    "roc_n4_d3.json": "c3395526cd7df4b41e31d2ccbfa2a7dc1a827f642b541604d943bdee4ce1a3b5",
    "direct_n4_d3.csv": "0a6a255730d011872db3a2b72071839a68c4e6effc84bdd715a2b7ca00889d50",
    "direct_n4_d3.json": "f8e889f3708d2544ae38ba626a2b4ce388c40d981f4a2ce5932e791a296a4a79",
    "direct_d2_r1.csv": "1174f8edd5bf04f73f4f1ee54b838d5272e9dcf19f75e11879ef0c5845239b9d",
    "direct_d2_r1.json": "e38716bfba7ae73def8a9123ff4667b0ff2cba21570b053a31e8a09c90da79a2",
    "roc_n6_r1.csv": "9ebbe18d343e8ed1b8797928af414c1dcb8897295ba9e037fe980256285efa93",
    "roc_n6_r1.json": "18955e3b968c7e3a76715ad716c6c1661a16074e3b046ee395e16efabc89ea64",
    "roc_n6_r2.csv": "84455bc1b81b3e77638731fe14db5e8eac7de043b43464345bee33663a487c02",
    "roc_n6_r2.json": "8990b251e3529ce70ece19d36484428192f06bfce7c81b077981e1f3a4c97d04",
    # bound taken at 0.4.0 for the array-valued bound (last digits of the
    # bound column); points and envelope re-taken at 0.6.0 for the Bartlett
    # corner draw and the per-component mixture variates, then at 0.7.0 for
    # the stacked block-rate and Ginibre-norm kernels (last digits); points
    # re-taken at 0.8.0 for the stacked top-eigenvalue kernel (last digits),
    # at 0.10.0 for the Frobenius-scaled Ginibre rows (a new law) and at
    # 0.18.0 for the Gram-Schmidt inner products (last digits)
    "cloud.points.csv": "83be77150ed6e8eeacc54e79c72527297b1cce7ba8a052e3d98313152e1e8dd8",
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
    # direct_r2_d2 and direct_full_qr re-taken at 0.16.0 (last digits), and
    # the last two at 0.17.0 for the rotations by the Gram roots; split_r2
    # and split_ragged re-taken at 0.18.0 for the Gram-Schmidt inner
    # products (last digits)
    "mom_r1.csv": "7bdca34993f547cd65c64bc3500fb7f356a4ffc87db6c38fa551680dce65818b",
    "mom_r1.json": "fe731bca8bde7d7547610995e3cbdeacdccf8d6d12ae338cacba454997934037",
    "mom_r2.csv": "7e6ff250882ef24c75207fdae50a6eada53982b7316e8e58824b9221d487cb03",
    "mom_r2.json": "b8b11411e1c844e86310c41135609660ed9f2e5df84c44035a1fa8fe307168b5",
    "split_r2.csv": "2f802ab84473b827c0639af2ed34192626acdcb3b863cb52db00fcc3a826a753",
    "split_r2.json": "57823d5b767981e67379d67a6deb5fbfc3e080b3cb031067cf2e76bf2d1f4ef4",
    "split_empty.csv": "c24319fb779c4bd66fb2ed10460a851fa19a53cf8dedec3a5ed63f21e6c1d774",
    "split_empty.json": "eca28478425585a00741ce98657adcd0126c15bd551446d1e7c18291258dbb6e",
    # first taken at 0.5.0 before the stacked batch means of
    # _mean_from_exponents, re-taken at 0.6.0 and 0.11.0
    "mom_r1_ragged.csv": "6f236c516c9e19de776f8e7d21b53663bc4f2a8991a106a1db30ef2a544d635b",
    "mom_r1_ragged.json": "a5d953842291322b8bb0865d80a5c99b25a8e91438283043b86c06b5833fd7b6",
    "split_ragged.csv": "d1948f441381bcbb231944ebc02925b4a2549d0b6817f7b714e6533c2782088f",
    "split_ragged.json": "5db12f36d96ee5965370decd3b4f45593de37f2d84817cb8f61f83b1197f879b",
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

# fpr, tpr and tv_proxy of each `roc` case above, hashed without the
# thresholds (`_rates_digest`), taken at 0.22.0: they depend on the order of
# the scores, not on their last bits, so on another BLAS core a file digest
# that fails while these hold says that only threshold bits moved
ROC_RATES_GOLDEN = {
    "roc_readme": "705c203e31a0dfc190e7308142f1369d0cfc85b32b0bbcd88560b08cae44bd84",
    "roc_bench": "46e707c9561157908d5e85e402ed2d3fab2ddf185534dadc29577a070d26e45c",
    "roc_r2_d2": "c5da19028d01bbbff76ad95eaccca6a61577ed019677bd54c24a9b704ffacc4d",
    "roc_full_qr": "ea86c603ed86a86614456af0344d328e5f78fb81f299df9476bddbb7c6f4ddd9",
    "roc_n4_d3": "7b66af279382d7f10d0d69da2d3c7949192abd85493eff185c62b17fdc965ac7",
    "roc_n6_r1": "7d5bb685aacba1d33720f37dfd0ea2407187832c27a56c3a6faddc78add27139",
    "roc_n6_r2": "5d656910414c6b23923ff37bb6bf9208db4df772a7e8ca55a52ddbf4c29b92b2",
}

# every `direct` case, re-taken at 0.23.0 for one prior set a chunk lane
DIRECT_CASES = [name for name in CLI_CASES if name.startswith("direct_")]

CLOUD = "cloud --d 3 --lambdas 1.0,1.0 --n 8 --samples 4000 --bins 30 --seed 5 --out cloud"

# roc_experiment's points and tv proxy and the fixed-spike
# second_moment_direct_mc, hashed together per spike (see _library_digest);
# taken at 0.8.0, when they replaced the digests of the per-observation
# route (simulate_observation, log_lr_mc), which no subcommand called; d3n2r2
# (n = r) re-taken at 0.10.0 for the Gram-Schmidt square stacks, all
# three at 0.11.0 for the plain shifted log-sum-exp (last digits), all
# three at 0.14.0 for `roc`'s one prior set a run, and d3n2r2 at 0.16.0
# for its Gram read as given (last digits) and at 0.17.0 for the rotations
# by the Gram roots (new rotations, the same law); all three at 0.18.0
# for `roc`'s dictionary GEMM and the Gram-Schmidt inner products (last
# digits); d2n4r1 and d3n3r2 at 0.22.0 for `roc`'s GEMM at the height of
# its batch (last digits); d3n2r2 at 0.23.0 for the fixed spike scored as
# a one-row dictionary (last digits)
LIBRARY_GOLDEN = {
    "d3n3r2": "63158cf98330777e31c98c0df3ec4595c19850fd198d179fc7a8bd489a331c9b",
    "d2n4r1": "2835be7c4ebc989510be548344a8a01d57b883ef0b67b8f8c789e2a95446bf71",
    "d3n2r2": "a346c1784ba9941b2e1f3c78ed742e64e14703ce8cfef4344292133c3bb61e64",
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
    | dict.fromkeys([f"{name}.{ext}" for name in ("mom_r2", "thr_d3") for ext in ("csv", "json")], "0.16.0")
    | dict.fromkeys([f"{name}.{ext}" for name in ("direct_r2_d2", "direct_full_qr") for ext in ("csv", "json")],
                    "0.17.0")
    | dict.fromkeys(["cloud.points.csv"] + [f"{name}.{ext}" for name in (*CLI_CASES, "split_r2", "split_ragged")
                                             for ext in ("csv", "json")], "0.18.0")
    | dict.fromkeys([f"{name}.{ext}" for name in ("direct_bench", "direct_r2_d2", "direct_full_qr", "direct_d2_r1",
                                                  "roc_n6_r1", "roc_n6_r2", "split_empty") for ext in ("csv", "json")],
                    "0.19.0")
    | dict.fromkeys([f"{name}.{ext}" for name in ("roc_r2_d2", "roc_n6_r1", "roc_n6_r2") for ext in ("csv", "json")],
                    "0.22.0")
    | dict.fromkeys([f"{name}.{ext}" for name in DIRECT_CASES for ext in ("csv", "json")], "0.23.0")
)


def _blas_platform() -> str:
    """The core and build config of the OpenBLAS that `rng` holds to one
    thread, as its own `scipy_openblas_get_corename64_` and
    `scipy_openblas_get_config64_` report them, and the SIMD targets of
    NumPy's dispatch that this CPU enables (those of `__cpu_dispatch__` that
    `__cpu_features__` marks; "none" if it enables none); "unknown" for each
    that is absent, as on another BLAS or NumPy."""
    library = rng._openblas()
    names = []
    for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_config64_"):
        try:
            query = getattr(library, symbol)  # AttributeError: no library, or no such symbol
        except AttributeError:
            names.append("unknown")
            continue
        query.argtypes = []
        query.restype = ctypes.c_char_p
        names.append(query().decode())
    try:
        from numpy._core import _multiarray_umath as umath

        simd = " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)) or "none"
    except (ImportError, AttributeError):
        simd = "unknown"
    return f"OpenBLAS core {names[0]}, config {names[1]}, NumPy SIMD {simd}"


def _assert_pinned(got, expected, what: str = "digests") -> None:
    assert got == expected, f"{what} moved on {_blas_platform()}; the pins are SkylakeX's (module docstring)"


def _rates_digest(path) -> str:
    """SHA-256 of a `roc` JSON file's fpr and tpr, row by row, then its
    tv_proxy, as float64 bytes."""
    doc = json.loads(Path(path).read_text())
    rates = [value for p in doc["points"] for value in (p["fpr"], p["tpr"])] + [doc["tv_proxy"]]
    return hashlib.sha256(np.array(rates).tobytes()).hexdigest()


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
    if name in ROC_RATES_GOLDEN:  # first: whether the curve moved, or at most the thresholds' bits
        _assert_pinned(_rates_digest(tmp_path / f"{name}.json"), ROC_RATES_GOLDEN[name], "fpr, tpr or tv_proxy")
    _assert_pinned(got, {f"{name}.{ext}": GOLDEN[f"{name}.{ext}"] for ext in ("csv", "json")})


@pytest.mark.parametrize("name", ["roc_readme", "roc_bench", "roc_r2_d2", "direct_bench", "roc_full_qr", "roc_n4_d3",
                                  "direct_n4_d3", "roc_n6_r1", "roc_n6_r2"])
def test_observation_outputs_are_pinned_at_two_threads(tmp_path, monkeypatch, name):
    got = _run_case(tmp_path, monkeypatch, f"{CLI_CASES[name]} --out {name}", 2)
    _assert_pinned(got, {f"{name}.{ext}": GOLDEN[f"{name}.{ext}"] for ext in ("csv", "json")})


def _draw_threads(tmp_path, monkeypatch, name) -> list:
    """The threads that ran the draws of CLI case `name` at --threads 2."""
    idents = []

    def recording(draw, *args, **kwargs):
        def traced(m, gen, *held):
            idents.append(threading.get_ident())
            return draw(m, gen, *held)

        return map_streams(traced, *args, **kwargs)

    monkeypatch.setattr(moment, "map_streams", recording)
    _run_case(tmp_path, monkeypatch, f"{CLI_CASES[name]} --out {name}", 2)
    return idents


# chunks of 57.6k cells (roc_readme: 32 draws), one draw over the pool
# threshold (roc_n4_d3) and one lane's prior set and dictionary over it
# (direct_n4_d3: 2400 x (12 + 64) cells)
@pytest.mark.parametrize("name", ["roc_n4_d3", "direct_n4_d3", "roc_readme"])
def test_pool_cases_reach_the_pool(tmp_path, monkeypatch, name):
    idents = _draw_threads(tmp_path, monkeypatch, name)
    assert idents and threading.get_ident() not in idents


def test_small_chunks_stay_on_the_calling_thread(tmp_path, monkeypatch):
    # roc_bench: chunks of 4 draws of 1800 cells, 7.2k cells
    assert set(_draw_threads(tmp_path, monkeypatch, "roc_bench")) == {threading.get_ident()}


def test_small_direct_lanes_stay_on_the_calling_thread(tmp_path, monkeypatch):
    # direct_bench: a lane holds its prior set and dictionary, 200 x (9 + 27)
    # cells, and 16 observations of 27 + 200, 10.8k cells in all
    assert set(_draw_threads(tmp_path, monkeypatch, "direct_bench")) == {threading.get_ident()}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(ESTIMATE_CASES))
def test_estimate_outputs_are_pinned(tmp_path, monkeypatch, name, threads):
    got = _run_case(tmp_path, monkeypatch, f"{ESTIMATE_CASES[name]} --out {name}", threads)
    _assert_pinned(got, {f"{name}.{ext}": GOLDEN[f"{name}.{ext}"] for ext in ("csv", "json")})


def test_rank_one_haar_means_match_the_exact_series(tmp_path, monkeypatch):
    # the re-taken mom_r1 means are checked in law, not only re-pinned, on
    # the exact rank-one series
    _run_case(tmp_path, monkeypatch, f"{ESTIMATE_CASES['mom_r1']} --out mom_r1", 1)
    estimates = json.loads((tmp_path / "mom_r1.json").read_text())["estimates"]
    assert [e["n"] for e in estimates] == [4, 8, 32]
    for e in estimates:
        assert abs(e["mean"] - rank_one_second_moment(e["n"], 3, 0.3)) <= 3 * e["stderr"]


def _direct_estimates(tmp_path, monkeypatch, name) -> list:
    monkeypatch.chdir(tmp_path)
    assert main(CLI_CASES[name].split() + ["--format", "json", "--threads", "1", "--out", name]) == 0
    return json.loads((tmp_path / f"{name}.json").read_text())["estimates"]


@pytest.mark.parametrize("name, d, lam, inner, n", [
    ("direct_bench", 3, 0.4, 200, 3),
    ("direct_d2_r1", 2, 0.7, 100, 4),
    # 16 batches of 4 observations under-report the d=2 tail: over seeds
    # 0-399 of this spike, 13.5 % of the means sat more than 3 stderr below
    # the expectation (9.5 % on the per-observation route of 0.22.0)
    pytest.param("direct_d2_r1", 2, 0.7, 100, 3, marks=pytest.mark.xfail(
        strict=True, reason="the re-taken mean sits 3.40 stderr below its expectation")),
])
def test_rank_one_direct_means_match_their_exact_expectation(tmp_path, monkeypatch, name, d, lam, inner, n):
    # the re-taken r=1 `direct` means are checked in law, not only re-pinned:
    # each estimates m2 + (e^{2 n lambda^2} - m2) / inner, m2 the exact
    # rank-one series
    e, = (e for e in _direct_estimates(tmp_path, monkeypatch, name) if e["n"] == n)
    m2 = rank_one_second_moment(n, d, lam)
    assert abs(e["mean"] - (m2 + (math.exp(2 * n * lam * lam) - m2) / inner)) <= 3 * e["stderr"]


@pytest.mark.parametrize("threads", [1, 2])
def test_cloud_outputs_are_pinned(tmp_path, monkeypatch, threads):
    monkeypatch.chdir(tmp_path)
    assert main(CLOUD.split() + ["--threads", str(threads)]) == 0
    _assert_pinned(_digests(tmp_path), {name: GOLDEN[name] for name in ("cloud.bound.csv", "cloud.envelope.csv",
                                                                      "cloud.points.csv")})


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
# component's draws were still skipped by a guard, re-taken at 0.16.0 for
# the all-ones spike's Grams read as given, at 0.17.0 for their zero
# eigenvalues floored to exactly 0 and at 0.18.0 for the Gram-Schmidt
# inner products (last digits)
SPARSE_CLOUD_GOLDEN = "9a485b1d222d663f5ec4d748614adc9b84264464ef65109f93ab7e341bbdd8e7"


def test_cloud_blocks_without_some_components_are_pinned():
    h = hashlib.sha256()
    for lambdas, gram in (([1.0, 0.5], np.eye(2)), ([0.5, 0.3, 0.2], np.ones((3, 3)))):
        spec = st.SpikeSpec(lambdas, st.GramSet((gram,) * 3), n=16)
        for samples in (16, 17, 40):
            h.update(st.sample_grf_cloud(spec, samples, st.SeedSpec(7, samples), bins=10).points.tobytes())
        gen = st.SeedSpec(8, spec.r).generator()
        for _ in range(30):
            h.update(rate._sample_psi_stack(spec.r, spec.n, spec.d, 1, gen).tobytes())
    _assert_pinned(h.hexdigest(), SPARSE_CLOUD_GOLDEN)


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
    _assert_pinned(_library_digest(name), LIBRARY_GOLDEN[name])


@pytest.mark.parametrize("name", ["direct_bench", "direct_d2_r1"])
def test_one_draw_blocks_give_the_same_direct_estimates(tmp_path, monkeypatch, name):
    # a budget below one draw makes every block hold a single observation:
    # the same draws, but each scored by a one-row GEMM against its lane's
    # dictionary, whose last digits can differ from those of a taller one
    # (since 0.23.0, as for `roc` since 0.22.0)
    (tmp_path / "one").mkdir()
    pinned = _direct_estimates(tmp_path, monkeypatch, name)
    monkeypatch.setattr(rng, "_BLOCK_CELLS", 1)
    one = _direct_estimates(tmp_path / "one", monkeypatch, name)
    assert [(e["n"], e["count"]) for e in one] == [(e["n"], e["count"]) for e in pinned]
    for got, expected in zip(one, pinned):
        for field in ("mean", "stderr", "log_domain_max"):
            assert got[field] == pytest.approx(expected[field], rel=1e-12, abs=0)


# `roc` at the CLI default inner 500, where a BLAS result can depend on the
# height of the GEMM and on a row's place in it: 16-row slabs moved 13, 5 and
# 6 cells with the block size at 0.18.0, and since 0.22.0 a batch's height
# is its own
ROC_INNER_500 = {
    "d3_n6": "roc --d 3 --lambdas 1.0 --n 6 --trials 3000 --inner 500 --seed 1",
    "d3_n4": "roc --d 3 --lambdas 1.0 --n 4 --trials 2000 --inner 500 --seed 1",
    "d2_n6_r2": "roc --d 2 --lambdas 0.5,0.3 --n 6 --trials 2000 --inner 500 --seed 1",
}


@pytest.mark.parametrize("name", sorted(ROC_INNER_500))
def test_roc_at_inner_500_does_not_depend_on_threads_or_reruns(tmp_path, monkeypatch, name):
    # the batches that `map_streams` scores depend on the layout alone, not
    # on the thread count or the run
    runs = []
    for threads in (1, 2, 1):
        (tmp_path / str(len(runs))).mkdir()
        monkeypatch.chdir(tmp_path / str(len(runs)))
        assert main(ROC_INNER_500[name].split() + ["--format", "csv", "--threads", str(threads), "--out", "roc"]) == 0
        runs.append(Path("roc.csv").read_bytes())
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_one_draw_blocks_fixed_spike(monkeypatch):
    spec = st.SpikeSpec([0.6, 0.3], st.GramSet((np.eye(2),) * 3), n=3)
    batched = st.second_moment_direct_mc(spec, 300, 1, st.SeedSpec(9, 1), rotate=False)
    monkeypatch.setattr(rng, "_BLOCK_CELLS", 1)
    assert st.second_moment_direct_mc(spec, 300, 1, st.SeedSpec(9, 1), rotate=False) == batched


def test_a_digest_mismatch_names_the_blas_platform(monkeypatch):
    from numpy._core import _multiarray_umath as umath

    with pytest.raises(AssertionError, match=re.escape(f"digests moved on {_blas_platform()}; ")):
        _assert_pinned("a", "b")
    assert _blas_platform().startswith("OpenBLAS core ")
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    monkeypatch.setattr(rng, "_openblas", lambda: None)  # another BLAS
    assert _blas_platform() == f"OpenBLAS core unknown, config unknown, NumPy SIMD {' '.join(enabled) or 'none'}"
    monkeypatch.setattr(umath, "__cpu_features__", {})  # a CPU that enables no dispatch target
    assert _blas_platform().endswith(", NumPy SIMD none")
    monkeypatch.delattr(umath, "__cpu_dispatch__")  # a NumPy without the dispatch tables
    assert _blas_platform().endswith(", NumPy SIMD unknown")


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == st.__version__
