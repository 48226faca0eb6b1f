"""Golden SHA-256 digests of outputs whose draws and arithmetic are fixed.

The digests were taken from the 0.3.0 per-draw code of `roc` and
`moment --method direct`, before those drivers were batched over blocks of
draws, and from the 0.3.0 cloud writer.  The batched drivers take the same
normals in the same order and do the same arithmetic per draw, so they must
reproduce these bytes exactly, at every `--threads` value.  The
`ESTIMATE_CASES` digests (threshold, Haar moment, split, xi-tail) were
taken from the 0.3.0 writers with one code path per subcommand and format,
before the CLI wrote every output through one emitter.  BLAS and SIMD
builds can in principle move a last digit; a failure on another platform
should first be checked against that platform's 0.3.0 output.
"""

import hashlib

import numpy as np
import pytest

import spikedtensor as st
import spikedtensor.moment as moment
from spikedtensor.cli import main

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
    "roc_n4_d3": "roc --d 3 --lambdas 0.3 --n 4 --trials 24 --inner 300 --seed 77",
    # one draw fills a step above the thread threshold: runs on the pool at --threads 2
    "direct_n4_d3": "moment --method direct --d 3 --lambdas 0.5,0.2 --n 4 --outer 20 --inner 1200 --seed 1",
    "direct_d2_r1": "moment --method direct --d 2 --lambdas 0.7 --n 3,4 --outer 64 --inner 100 --seed 77",
}

# the subcommands without a draw-order break since 0.3.0; the larger cases
# take steps above the thread threshold, so they run on the pool at
# --threads 2
ESTIMATE_CASES = {
    "thr_d2": "threshold --d 2 --lambdas 0.5,0.3",
    "thr_d3": "threshold --d 3 --lambdas 0.6,0.4 --gram two-eigenvalue:1.8,0.2",
    "mom_r1": "moment --d 3 --lambdas 0.3 --n 4,8,32 --samples 20000 --seed 3",
    "mom_r2": "moment --d 3 --lambdas 0.4,0.2 --gram two-eigenvalue:1.8,0.2 --n 8 --samples 2000 --seed 3",
    "split_r2": "split --d 3 --lambdas 0.4,0.2 --n 16 --epsilon 0.005 --samples 20000 --seed 3",
    # the default epsilon leaves E1 empty: log_domain_max is null (JSON), -inf (CSV)
    "split_empty": "split --lambdas 0.4,0.2 --n 8 --samples 2000 --seed 4",
    "xi": "xi-tail --n 8 --t 0.2,0.5,0.7 --samples 150000 --seed 3",
}

GOLDEN = {
    "roc_readme.csv": "26d1843024c6b3c53ab31cc982a1d7b99dae26ca1dfbeceb05b6d35ede52c211",
    "roc_readme.json": "2b053cab128ae19220ab68b8f75f14c97b02f9069d160b97954640241698c556",
    "roc_bench.csv": "33ca40ae54667359aecf933d600f0281b265158a764779bc17075765120c2243",
    "roc_bench.json": "d2674f251b84e7933e366dab0d5c1a546729bdaa8baa5df5f15e1e76033e7e75",
    "direct_bench.csv": "c5387f84fd56e2b21244a789941fd1ad513117bd5e6bd0bfa748b0162b8c784d",
    "direct_bench.json": "7b8341312e4045116f43250470294ab8bb36f987267245933a7f8604256c1883",
    "roc_r2_d2.csv": "61c97f7b818d7007c25250ed999744cb1e092a049f8466e888a8b47b316cad1e",
    "roc_r2_d2.json": "c7c50d16960db938940902569ab5f50e2dd6b0cc80729211dfb2cb9c8b05a616",
    "direct_r2_d2.csv": "d5bcd22807207000972348ed6be2fe4d5f41d913c2a6321e54305bdd557221b7",
    "direct_r2_d2.json": "aeb87044c40e2a9fb3b2bc72966d15f4ed4649c5d2ba4aa4fc676ebc2146ab57",
    "roc_full_qr.csv": "b1752ae60d00ff912c0de98b5f560b30bcbc9a246aff8aa10db960b07d25a0aa",
    "roc_full_qr.json": "719fbbe23da3056bf13e5ac8c293f53ff9913d0aca5dc185203d39583ab8f2c1",
    "direct_full_qr.csv": "c072561f6a878dff217e6a6ff5ad8382a32cbc608ef517325bae28b66a8e75df",
    "direct_full_qr.json": "18031b3196f6c55161c34395664d35996acb9bede7e7ecddb0a6b5e64cd88787",
    "roc_n4_d3.csv": "bd0a639272c3ed42da9b3f4d0c7d9d43348dd5da31af928a537b7ca96ad8b6a2",
    "roc_n4_d3.json": "0aacb29178cd320a30acc902c14e479b86ac816be8efa1f01ddc133ce31bd740",
    "direct_n4_d3.csv": "6fd80cd9cd3d6f4200060bbdd7c8d4bc59e7fae1c87d8cc9c240ac9fd9838214",
    "direct_n4_d3.json": "8acdd2c1a748fa613301836499b8ae558b1fe1669cac04b9a5f61cc9bbb2929e",
    "direct_d2_r1.csv": "3a7f01328d6c0c5b8a12dabdd37e9f6057a30b98d03fd6b799b7925c7dc649d1",
    "direct_d2_r1.json": "310f7875bf0e8dcfbfe6083bfecae3cc2d9ae8c4eb3b1ee40940ed13a43406c7",
    # re-taken when the block rate became a batched log-determinant and the
    # exponent one product per mode: the same draws, last digits moved
    "cloud.points.csv": "dab8ccf79fba9433c9dc7f9880fbf281044eca28182a037bbf2016fe21f31636",
    "cloud.envelope.csv": "adfbe2822143e6010929e70d6824eab2194aa2d73a0b4edc54b7521bdebd23ae",
    "cloud.bound.csv": "c0ee61e2387d68808e862996234a30d6f35456c750bcb753e94755394ea8b6ed",
    # taken from 0.3.0 before the one-emitter CLI; the same bytes at --threads 1 and 2
    "thr_d2.csv": "a71d26adb81b46b826b2e73b828da4f6cfbc1c0e64979a654319a77e27de53cb",
    "thr_d2.json": "a7b1d937e2fa5724259314349c5f430aefb183dd22dc4ad77e97aad01791b9cf",
    "thr_d3.csv": "c1fa7bcc1412eb100a78548142f985035d3d6fb98a64dcc0e253110509b39f6c",
    "thr_d3.json": "62a98276633980a5b5f1e78a5e289be63ed0374d93928b32605437c372d41178",
    "mom_r1.csv": "baeb161437a52e3e9421ef196d9eb2c07b21e3b8cf7d6cde1ece45128c045b77",
    "mom_r1.json": "795c7bc1bc93ac9b3c713edff20f21afdf06c10f1b7de2f476403e9795ffd4df",
    "mom_r2.csv": "743fb0c2276849b2268c7441e5af9b6ffe14c51deabdc29000e3e6b83f1406a2",
    "mom_r2.json": "742ee1c79c92f6e90092272500d5b9874b3e3ddf9aea9d4b1311ca08b1a24ab2",
    "split_r2.csv": "764fa0a3c95af03769b45a2341256a3b505b7092c4c7ce88ff6ff5a212efc8f0",
    "split_r2.json": "5bab14284d2c13764462781f250712c09e1010234a27c93f91c08a2c68824702",
    "split_empty.csv": "3fcb07612ea17888a13798470bf575eb79b247ebf5dfac8a93e580459a228bf4",
    "split_empty.json": "9b44daaaab63f53cce9d89f896490326371e5a5e4c2b94b187aa41794f75ef58",
    "xi.csv": "5fa09af1e56f9ce9634a7d1dee24b473a1016c5153af246c41d05223278ab1b0",
    "xi.json": "97c1b8053450445adb15704c4a3a66d8081b3bd3f7c01192b1768bc58edb155f",
}

CLOUD = "cloud --d 3 --lambdas 1.0,1.0 --n 8 --samples 4000 --bins 30 --seed 5 --out cloud"

# simulate_observation, log_lr_mc (rotated and fixed) and the fixed-spike
# second_moment_direct_mc, hashed together per spike (see _library_digest)
LIBRARY_GOLDEN = {
    "d3n3r2": "eb0aca261fb39f98dfa447b20dc9c0faaefbc3e7aafb8ac6d33ca28c371c8246",
    "d2n4r1": "ef3faf73d52ecafe46e8ff1e73e455fac6cbd0cf5ef9789f064437a99f6a5ccb",
    "d3n2r2": "5eab817a53fc88236e085a6d7aae17036a90ee22a6c6038304615605b33ff002",
}

LIBRARY_SPECS = {
    "d3n3r2": ([0.6, 0.3], 3, 3, np.eye(2)),
    "d2n4r1": ([0.8], 2, 4, np.eye(1)),
    "d3n2r2": ([0.5, 0.4], 3, 2, np.array([[1.0, 0.5], [0.5, 1.0]])),
}


def _digests(directory) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


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


@pytest.mark.parametrize("name", ["roc_bench", "direct_bench", "roc_full_qr", "direct_n4_d3"])
def test_observation_outputs_are_pinned_at_two_threads(tmp_path, monkeypatch, name):
    got = _run_case(tmp_path, monkeypatch, f"{CLI_CASES[name]} --out {name}", 2)
    assert got == {f"{name}.{ext}": GOLDEN[f"{name}.{ext}"] for ext in ("csv", "json")}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(ESTIMATE_CASES))
def test_estimate_outputs_are_pinned(tmp_path, monkeypatch, name, threads):
    got = _run_case(tmp_path, monkeypatch, f"{ESTIMATE_CASES[name]} --out {name}", threads)
    assert got == {f"{name}.{ext}": GOLDEN[f"{name}.{ext}"] for ext in ("csv", "json")}


@pytest.mark.parametrize("threads", [1, 2])
def test_cloud_outputs_are_pinned(tmp_path, monkeypatch, threads):
    monkeypatch.chdir(tmp_path)
    assert main(CLOUD.split() + ["--threads", str(threads)]) == 0
    assert _digests(tmp_path) == {name: GOLDEN[name] for name in ("cloud.bound.csv", "cloud.envelope.csv", "cloud.points.csv")}


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
    # a cap below one stack makes every block hold a single draw
    monkeypatch.setattr(moment, "_OBSERVE_BLOCK_CELLS", 1)
    got = _run_case(tmp_path, monkeypatch, f"{CLI_CASES[name]} --out {name}", 1)
    assert got == {f"{name}.{ext}": GOLDEN[f"{name}.{ext}"] for ext in ("csv", "json")}


def test_one_draw_blocks_fixed_spike(monkeypatch):
    spec = st.spec_from_grams([0.6, 0.3], st.GramSet((np.eye(2),) * 3), n=3)
    batched = st.second_moment_direct_mc(spec, 300, 1, st.SeedSpec(9, 1), rotate=False)
    monkeypatch.setattr(moment, "_OBSERVE_BLOCK_CELLS", 1)
    assert st.second_moment_direct_mc(spec, 300, 1, st.SeedSpec(9, 1), rotate=False) == batched
