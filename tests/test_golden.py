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
    # n = r: full unitaries through the LAPACK QR path
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
}

GOLDEN = {
    "roc_readme.csv": "527ba4f76d34c79769c70263dbdf49cb1fb3320209ece01d3f8530ea6304f99a",
    "roc_readme.json": "a5678667a5e4a476f7f7c1c2a21939b8821e811955bf6ed8e5d91335ff26fe12",
    "roc_bench.csv": "c1742fedc3ee2a1830877e8d6d6562cc353797934d43f8c4be36de583957531f",
    "roc_bench.json": "dda768a7565e958adf31ed50b3db64148acf6eb372ebbf0f2f28a699747cf5a5",
    "direct_bench.csv": "a130204edc0ad4fb26cab7c0666dba0da33a9c927a6828447564269cc588be7f",
    "direct_bench.json": "dccf123f95fcf9469c33782795ad4fa5225a439d9e5be6444cb36b73eea95578",
    "roc_r2_d2.csv": "ba5aaf62ffe520630acc6206e250486b18c007d1f37f01ade408ee987148c878",
    "roc_r2_d2.json": "0848a0928ba867d12a775eac1ee62232ebd60d17aa80b91d00b7824de7dff607",
    "direct_r2_d2.csv": "735b2a30526cdaa7eed59c2bfb8d200249726f9224573d8b54c7bf2921858534",
    "direct_r2_d2.json": "8656ec0dd60b43c5ec7d2c567fbe92485fcae791046087f5ce93f9a94c385183",
    "roc_full_qr.csv": "00923e003b522ad6653e81fefcb87ffc8cd8cae4ac7e71a2c9ef50b549327856",
    "roc_full_qr.json": "e61c288740164c80affa9bcde5d6d9da1e08cc6b3d56e65b159891f47772ee18",
    "direct_full_qr.csv": "4a80c123c69da78abc89f770e5aa62df46373fe9c8989c1931bfafd8228d26a1",
    "direct_full_qr.json": "7e60e4df0411711a40467292b44d7b2fb63b49d40f4ff1f01cb98cc016ff8508",
    "roc_n4_d3.csv": "789e2709b0d5a2ef957aa965e6278f1f2821187f31f3d5a29161e75f23610fb1",
    "roc_n4_d3.json": "f5364422531ec6889cced56796c60a377246f1a8a142f89fe81729dfc03d8dc5",
    "direct_n4_d3.csv": "1ebddfe29b9086d64f092b17c2692e244ef7f92a234773264919032b9f45d799",
    "direct_n4_d3.json": "4deffdaf8584d74ee78d7f35c388fca08f6beb059ad0097ff347291a00e78c42",
    "direct_d2_r1.csv": "4db98aedfddff34fa0b55780f75053b397e6ee1ef2ec2e45c3dbaf2d1fb00707",
    "direct_d2_r1.json": "3973bb7655ac4953763c58948d1239876e4efa40f4d45fa6fab86c91963c6565",
    # bound taken at 0.4.0 for the array-valued bound (last digits of the
    # bound column); points and envelope re-taken at 0.6.0 for the Bartlett
    # corner draw and the per-component mixture variates, then at 0.7.0 for
    # the stacked block-rate and Ginibre-norm kernels (last digits); points
    # re-taken at 0.8.0 for the stacked top-eigenvalue kernel (last digits)
    "cloud.points.csv": "51341b037f101da5f37ee7fe5a0c8c5f81ab62d77410a3172223ca6a9c292e8a",
    "cloud.envelope.csv": "5d0e18d1a8a9aedb11ccb7c694d2089b03d28384ad13a67078d612b0c44bd0da",
    "cloud.bound.csv": "7d8676b534e1b959c397b65af04d7ef2b239521a727e8448e3dd3414b1f19f95",
    # thr_* and xi taken from 0.3.0 before the one-emitter CLI
    "thr_d2.csv": "a71d26adb81b46b826b2e73b828da4f6cfbc1c0e64979a654319a77e27de53cb",
    "thr_d2.json": "a7b1d937e2fa5724259314349c5f430aefb183dd22dc4ad77e97aad01791b9cf",
    "thr_d3.csv": "c1fa7bcc1412eb100a78548142f985035d3d6fb98a64dcc0e253110509b39f6c",
    "thr_d3.json": "62a98276633980a5b5f1e78a5e289be63ed0374d93928b32605437c372d41178",
    # the Haar moment and split cases re-taken at 0.6.0 for the Bartlett
    # corner draw
    "mom_r1.csv": "43b9d8af7957bd9b64531f681930bafe2f66c4d62a63d4a8603efbfe18b6f474",
    "mom_r1.json": "763701413e96591ccce466f00dbb170c92fff56c4c2c02d8e21deec404260417",
    "mom_r2.csv": "bbd4c5a580e062a5540c6e6d8406b7c6c3b23784d7e897e48daed7c393527ba0",
    "mom_r2.json": "ff5b4da84b309f72a0ef4db6ed337b4d23a23ecfa5680f897ec7339f7a0b5c05",
    "split_r2.csv": "5e3ec57aa8ee9247043be49aa43bd474434fa216c7cf5f27066abe4f23777d8b",
    "split_r2.json": "951d3d05c6112442994ec78dd71cf80feb355e79252380aedefe0e108f65336a",
    "split_empty.csv": "a2ccba204d650cc320618b5dc901cd7ce8ca4ee266fd8ef81661783aa84c1cbf",
    "split_empty.json": "e641bb09731e0e3dcdf5da67856f710520f039dae54af574eafd1bf731bed02f",
    # first taken at 0.5.0 before the stacked batch means of
    # _mean_from_exponents, re-taken at 0.6.0
    "mom_r1_ragged.csv": "6b87a6b29218d68cf4b6854dba5b206e8a0d8a8ae35ddd87c46a75709591f53e",
    "mom_r1_ragged.json": "2a985f835a6be36ddbd2f4f80e5a161558266768d29740b5b758d1103516642e",
    "split_ragged.csv": "700407b942eac789ba2a68945c8cd2a39cf41f8b3df002487d7f3036acc56cac",
    "split_ragged.json": "8f0cf6ade05a1dfa93f6e7b8b42d4042561095467f492beb4f88a19b95ea6370",
    "xi.csv": "5fa09af1e56f9ce9634a7d1dee24b473a1016c5153af246c41d05223278ab1b0",
    "xi.json": "97c1b8053450445adb15704c4a3a66d8081b3bd3f7c01192b1768bc58edb155f",
}

CLOUD = "cloud --d 3 --lambdas 1.0,1.0 --n 8 --samples 4000 --bins 30 --seed 5 --out cloud"

# simulate_observation, log_lr_mc (rotated and fixed) and the fixed-spike
# second_moment_direct_mc, hashed together per spike (see _library_digest)
LIBRARY_GOLDEN = {
    "d3n3r2": "3b0cd74ea27665233083c58e04d450e4efa4ebf02f25574ce29261250f0feb97",
    "d2n4r1": "0ed78b62f4e8a796cdea4160036125202c77fc6e22c33a52f417c4017d816723",
    "d3n2r2": "97db5de044b2a7c73fdcfa4fca6deafeda7f234b59b06337b07c523111cc13ce",
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
    | dict.fromkeys(["thr_d2.csv", "thr_d2.json", "thr_d3.csv", "thr_d3.json", "xi.csv", "xi.json"],
                    "0.3.0")
    | dict.fromkeys([f"{name}.{ext}" for name in ("mom_r1", "mom_r1_ragged", "mom_r2", "split_r2", "split_empty",
                                                  "split_ragged") for ext in ("csv", "json")], "0.6.0")
    | {"cloud.envelope.csv": "0.7.0", "cloud.points.csv": "0.8.0"}
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


def _library_digest(name: str) -> str:
    lambdas, d, n, gram = LIBRARY_SPECS[name]
    spec = st.spec_from_grams(lambdas, st.GramSet((gram,) * d), n=n)
    gen = st.SeedSpec(123, 4).generator()
    h = hashlib.sha256()
    for _ in range(3):
        for hypothesis in ("H0", "H1"):
            y = st.simulate_observation(spec, hypothesis, gen)
            h.update(y.tensor.tobytes())
            if y.spike_used is not None:
                for chi in y.spike_used.factors:
                    h.update(chi.tobytes())
            h.update(np.float64(st.log_lr_mc(y, spec, 37, gen)).tobytes())
            h.update(np.float64(st.log_lr_mc(y, spec, 1, gen, rotate=False)).tobytes())
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
    spec = st.spec_from_grams([0.6, 0.3], st.GramSet((np.eye(2),) * 3), n=3)
    batched = st.second_moment_direct_mc(spec, 300, 1, st.SeedSpec(9, 1), rotate=False)
    monkeypatch.setattr(rng, "_BLOCK_CELLS", 1)
    assert st.second_moment_direct_mc(spec, 300, 1, st.SeedSpec(9, 1), rotate=False) == batched


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == st.__version__
