import hashlib
import threading

import numpy as np
import pytest
from scipy import stats

import spikedtensor as st
from spikedtensor.config import gram_matrices
from spikedtensor.errors import ParameterError
from spikedtensor.moment import _eta_chunk
from spikedtensor.rng import _THREADED_STEP_CELLS, chunk_sizes, complex_normal, complex_normal_rounds, map_streams


def test_seedspec_determinism():
    a = st.sample_gaussian_tensor(4, 3, st.SeedSpec(123, 5))
    b = st.sample_gaussian_tensor(4, 3, st.SeedSpec(123, 5))
    assert np.array_equal(a, b)


def test_seedspec_streams_differ_and_decorrelate():
    g0 = st.SeedSpec(9, 0).generator()
    g1 = st.SeedSpec(9, 1).generator()
    x = g0.standard_normal(20000)
    y = g1.standard_normal(20000)
    assert not np.array_equal(x, y)
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(len(x))


def test_seedspec_validation():
    with pytest.raises(ParameterError):
        st.SeedSpec(-1, 0)
    with pytest.raises(ParameterError):
        st.SeedSpec(0, 2**64)


def test_gaussian_tensor_moments():
    n, d = 10, 5  # one draw gives 1e5 entry samples
    z = st.sample_gaussian_tensor(n, d, st.SeedSpec(1, 0))
    flat = z.ravel()
    count = flat.size
    assert count == 10**5
    # entries are N_C(0, 1/n): component std sqrt(1/2n), |z|^2 mean 1/n
    se_mean = np.sqrt(1.0 / (2 * n)) / np.sqrt(count)
    assert abs(np.mean(flat.real)) < 3 * se_mean
    assert abs(np.mean(flat.imag)) < 3 * se_mean
    sq = np.abs(flat) ** 2
    assert abs(np.mean(sq) - 1.0 / n) < 3 * np.std(sq) / np.sqrt(count)


def test_gaussian_tensor_total_energy():
    n, d, reps = 4, 3, 4000
    gen = st.SeedSpec(2, 0).generator()
    norms = np.array([np.sum(np.abs(st.sample_gaussian_tensor(n, d, gen)) ** 2) for _ in range(reps)])
    target = n ** (d - 1)
    assert abs(np.mean(norms) - target) < 3 * np.std(norms) / np.sqrt(reps)


def test_haar_unitarity():
    gen = st.SeedSpec(3, 0).generator()
    for n in (1, 2, 5, 9):
        for _ in range(10):
            u = st.sample_haar_unitaries(n, 1, gen)[0]
            assert st.unitarity_defect(u) <= 1e-10


def test_haar_frames_have_orthonormal_columns():
    gen = st.SeedSpec(12, 0).generator()
    for n, r in ((1, 1), (5, 1), (5, 2), (9, 3), (9, 9), (64, 2), (300, 4)):
        w = st.sample_haar_unitaries(n, 10, gen, columns=r)
        assert w.shape == (10, n, r)
        assert st.unitarity_defect(w) <= 1e-10
    for bad in (0, 6):
        with pytest.raises(ParameterError):
            st.sample_haar_unitaries(5, 1, gen, columns=bad)


@pytest.mark.parametrize("r", [1, 2])
def test_haar_frame_entry_is_beta(r):
    # |W_11|^2 of a Haar frame, as of a Haar unitary, is Beta(1, n - 1)
    n, reps = 5, 20000
    w = st.sample_haar_unitaries(n, reps, st.SeedSpec(13, r), columns=r)
    sq = np.abs(w[:, 0, 0]) ** 2
    assert stats.kstest(sq, stats.beta(1, n - 1).cdf).pvalue > 0.01


def _phase_corrected_qr(z):
    """Thin QR through LAPACK, columns rotated so R's diagonal is real
    positive: the reference for the Gram-Schmidt frames."""
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    return q * (diag / np.abs(diag))[..., None, :]


@pytest.mark.parametrize("n, c", [(2, 1), (3, 2), (4, 1), (8, 2), (16, 3), (32, 2), (64, 8)])
def test_haar_frames_match_phase_corrected_qr(n, c):
    # the frames orthonormalize the same Ginibre stack that complex_normal
    # draws first from the generator
    frames = st.sample_haar_unitaries(n, 200, st.SeedSpec(17, n), columns=c)
    z = complex_normal(st.SeedSpec(17, n).generator(), (200, n, c), np.sqrt(0.5))
    assert np.max(np.abs(frames - _phase_corrected_qr(z))) <= 1e-12


@pytest.mark.parametrize("c", [1, 2, 4, 8, 16])
def test_haar_frames_orthonormal_at_worst_conditioning(c):
    # n = c + 1 gives the Ginibre stacks with the smallest singular values.
    # Two Gram-Schmidt passes keep the defect at a few ulps; a single pass
    # leaves about 3e-14 at c = 16.
    frames = st.sample_haar_unitaries(c + 1, 10_000, st.SeedSpec(18, c), columns=c)
    assert st.unitarity_defect(frames) <= 1e-14


def test_complex_normal_draw_order_is_pinned():
    z = complex_normal(st.SeedSpec(1, 0).generator(), (4, 5, 3), np.sqrt(0.5))
    digest = hashlib.sha256(z.tobytes()).hexdigest()
    assert digest == "af28cd9e0c95e03578934e4d6d0cecbe249547abae1dcd5b29c9652690b594ed"


def test_complex_normal_rounds_equal_sequential_calls():
    layout = [((3, 3), 0.25), ((5, 4, 2), np.sqrt(0.5)), ((1, 4, 2), np.sqrt(0.5)), ((7,), 2.0)]
    gen = st.SeedSpec(19, 1).generator()
    parts = complex_normal_rounds(gen, 6, layout)
    ref = st.SeedSpec(19, 1).generator()
    expected = [[complex_normal(ref, shape, std) for shape, std in layout] for _ in range(6)]
    for k, (shape, _) in enumerate(layout):
        assert parts[k].shape == (6, *shape)
        assert parts[k].tobytes() == np.stack([row[k] for row in expected]).tobytes()
    # both generators are left at the same state
    assert gen.standard_normal() == ref.standard_normal()


def test_full_haar_draw_order_is_pinned():
    # The draw order of full unitaries is part of the released behaviour:
    # changing it is a versioned break.  Rounding keeps last-bit differences
    # between LAPACK builds from tripping the hash.
    u = st.sample_haar_unitaries(5, 3, st.SeedSpec(1, 0))
    digest = hashlib.sha256(np.round(u, 12).tobytes()).hexdigest()
    assert digest == "d7ee5bf8effc55c0fb4ec5c121a5c8cf3b6c8673fc95900cdd469c12c9bdeb12"


def _eta_full_unitaries(spec, size, gen):
    """The exponent from full Haar unitaries, thetas @ chi: the reference
    that the frame-based `_eta_chunk` must match in law."""
    had = None
    for chi in spec.factors:
        thetas = st.sample_haar_unitaries(spec.n, size, gen)
        overlap = np.einsum("ni,bnj->bij", np.conj(chi), thetas @ chi)
        had = overlap if had is None else had * overlap
    return np.real(np.einsum("i,bij,j->b", spec.lambdas, had, spec.lambdas))


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("gram", ["two-eigenvalue:1.8,0.2", "all-ones"])
def test_eta_from_frames_matches_full_unitaries(n, gram):
    # all-ones Grams are rank one: the thin QR of the factor is rank deficient
    spec = st.spec_from_grams([0.4, 0.2], gram_matrices(gram, 2, 3), n)
    frames = _eta_chunk(spec, st.spike_svd(spec), 4000, st.SeedSpec(14, n).generator())
    full = _eta_full_unitaries(spec, 4000, st.SeedSpec(15, n).generator())
    assert stats.ks_2samp(frames, full).pvalue > 0.01


def test_haar_first_entry_moment():
    n, reps = 4, 20000
    us = st.sample_haar_unitaries(n, reps, st.SeedSpec(4, 0))
    sq = np.abs(us[:, 0, 0]) ** 2
    assert abs(np.mean(sq) - 1.0 / n) < 3 * np.std(sq) / np.sqrt(reps)


def test_haar_invariance_of_traces():
    # traces of V @ U, U @ V and U should all be indistinguishable in law
    n, reps = 5, 4000
    gen = st.SeedSpec(5, 0).generator()
    v = st.sample_haar_unitaries(n, 1, gen)[0]
    t_plain = np.einsum("bii->b", st.sample_haar_unitaries(n, reps, gen))
    t_left = np.einsum("bii->b", v @ st.sample_haar_unitaries(n, reps, gen))
    t_right = np.einsum("bii->b", st.sample_haar_unitaries(n, reps, gen) @ v)
    for rotated in (t_left, t_right):
        for part in (np.real, np.imag):
            p = stats.mannwhitneyu(part(t_plain), part(rotated)).pvalue
            assert p > 0.01


def test_sphere_vector():
    gen = st.SeedSpec(6, 0).generator()
    for n in (1, 3, 8):
        v = st.sample_unit_sphere(n, gen)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_sphere_first_coordinate_moment():
    n, reps = 6, 20000
    gen = st.SeedSpec(7, 0).generator()
    sq = np.array([np.abs(st.sample_unit_sphere(n, gen)[0]) ** 2 for _ in range(reps)])
    assert abs(np.mean(sq) - 1.0 / n) < 3 * np.std(sq) / np.sqrt(reps)


def test_sphere_tail_matches_polar_law():
    # P(|v1| >= t) = (1 - t^2)^(n-1) at t = 0.5, n = 4
    n, t, reps = 4, 0.5, 40000
    gen = st.SeedSpec(8, 0).generator()
    hits = np.array([np.abs(st.sample_unit_sphere(n, gen)[0]) >= t for _ in range(reps)])
    p = np.mean(hits)
    target = (1 - t * t) ** (n - 1)
    assert abs(p - target) < 3 * np.sqrt(target * (1 - target) / reps)


def test_psi_block_norm_and_edges():
    gen = st.SeedSpec(9, 0).generator()
    # the top r x r block of a Haar unitary is the first r rows of a Haar (n, r) frame
    for _ in range(50):
        b = st.sample_haar_unitaries(6, 1, gen, columns=3)[0, :3]
        assert np.linalg.norm(b, 2) <= 1.0 + 1e-12
    full = st.sample_haar_unitaries(4, 1, gen, columns=4)[0, :4]
    assert st.unitarity_defect(full) <= 1e-10
    with pytest.raises(ParameterError):
        st.sample_haar_unitaries(3, 1, gen, columns=4)


def test_psi_block_r1_is_sphere_coordinate():
    n, reps = 5, 20000
    gen = st.SeedSpec(10, 0).generator()
    sq = np.abs(st.sample_haar_unitaries(n, reps, gen)[:, 0, 0]) ** 2
    assert abs(np.mean(sq) - 1.0 / n) < 3 * np.std(sq) / np.sqrt(reps)


def test_chunk_sizes():
    assert chunk_sizes(10, 3) == [4, 3, 3]
    assert chunk_sizes(2, 16) == [1, 1]
    assert sum(chunk_sizes(100001, 16)) == 100001


def test_map_streams_order_and_thread_invariance():
    seed = st.SeedSpec(11, 0)
    calls = []

    def draw(m, gen):
        calls.append(m)
        return gen.standard_normal(m)

    # blocks of 40: chunk i of 63 or 62 draws is two blocks on child stream
    # i, and with a threshold's worth of cells a draw threads=4 runs a pool
    expected = []
    for i, size in enumerate(chunk_sizes(1000, 16)):
        gen = seed.generator(i)
        expected += [gen.standard_normal(40), gen.standard_normal(size - 40)]
    expected = np.concatenate(expected)
    serial = map_streams(draw, 1000, seed, threads=1, cells=_THREADED_STEP_CELLS, block=40)
    assert sorted(set(calls)) == [22, 23, 40]
    parallel = map_streams(draw, 1000, seed, threads=4, cells=_THREADED_STEP_CELLS, block=40)
    assert len(serial) == 16
    assert np.array_equal(np.concatenate(serial), expected)
    assert np.array_equal(np.concatenate(parallel), expected)


def test_map_streams_threads_only_large_steps():
    seed = st.SeedSpec(16, 0)
    caller = threading.get_ident()

    def run(cells):
        idents = []

        def draw(m, gen):
            idents.append(threading.get_ident())
            return gen.standard_normal(m)

        # 64 draws: chunks of 4, so the largest block holds 4 * cells cells
        out = np.concatenate(map_streams(draw, 64, seed, threads=2, cells=cells))
        return out, set(idents)

    small, small_idents = run(_THREADED_STEP_CELLS // 4 - 1)
    large, large_idents = run(_THREADED_STEP_CELLS // 4)
    assert small_idents == {caller}
    assert caller not in large_idents
    assert np.array_equal(small, large)
