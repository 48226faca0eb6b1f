import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from scipy import stats

import spikedtensor as st
import spikedtensor.rate as rate
from conftest import complex_gaussian, unitarity_defect
from spikedtensor.config import gram_matrices
from spikedtensor.errors import ParameterError
from spikedtensor.moment import _haar_eta_chunks, _noise_part
from spikedtensor.rng import (
    _BLOCK_CELLS,
    _HELD_CELLS,
    _POOL_CELLS,
    _blas_threads_setter,
    _orthonormalize,
    chunk_sizes,
    complex_normal_rounds,
    map_streams,
)


def haar_frames(n, count, gen, columns=None):
    """`count` Haar (n, c) frames by the package's one route, c = `columns`
    (n when left out): `_orthonormalize` of a Ginibre draw of the sampler,
    as `moment._rotate` takes them."""
    return _orthonormalize(complex_gaussian(gen, (count, n, n if columns is None else columns), np.sqrt(0.5)))


def noise_tensors(n, d, m, gen):
    """`m` noise tensors drawn as the observation drivers draw them."""
    spec = st.SpikeSpec([1.0], st.GramSet((np.eye(1),) * d), n=n)
    (y,) = complex_normal_rounds(gen, m, [_noise_part(spec)])
    return y


def test_seedspec_determinism():
    a = noise_tensors(4, 3, 2, st.SeedSpec(123, 5).generator())
    b = noise_tensors(4, 3, 2, st.SeedSpec(123, 5).generator())
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


@pytest.mark.parametrize("bad", [1.5, 3.0, "3", None, np.float64(2.0)])
def test_seedspec_refuses_non_integers(bad):
    # refused at construction, not by numpy's TypeError at `generator()`
    for args in ((bad, 0), (0, bad)):
        with pytest.raises(ParameterError, match="unsigned 64-bit integer"):
            st.SeedSpec(*args)


def test_seedspec_takes_integer_types():
    for value in (np.uint64(2**64 - 1), np.int32(7)):
        spec = st.SeedSpec(value, value)
        spec.generator(1).standard_normal()


def test_gaussian_tensor_moments():
    n, d = 10, 5  # one draw gives 1e5 entry samples
    flat = noise_tensors(n, d, 1, st.SeedSpec(1, 0).generator()).ravel()
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
    norms = np.sum(np.abs(noise_tensors(n, d, reps, st.SeedSpec(2, 0).generator())) ** 2, axis=(1, 2, 3))
    target = n ** (d - 1)
    assert abs(np.mean(norms) - target) < 3 * np.std(norms) / np.sqrt(reps)


def test_haar_unitarity():
    gen = st.SeedSpec(3, 0).generator()
    for n in (1, 2, 5, 9):
        for _ in range(10):
            u = haar_frames(n, 1, gen)[0]
            assert unitarity_defect(u) <= 1e-10


def test_haar_frames_have_orthonormal_columns():
    gen = st.SeedSpec(12, 0).generator()
    for n, r in ((1, 1), (5, 1), (5, 2), (9, 3), (9, 9), (64, 2), (300, 4)):
        w = haar_frames(n, 10, gen, columns=r)
        assert w.shape == (10, n, r)
        assert unitarity_defect(w) <= 1e-10


@pytest.mark.parametrize("r", [1, 2])
def test_haar_frame_entry_is_beta(r):
    # |W_11|^2 of a Haar frame, as of a Haar unitary, is Beta(1, n - 1)
    n, reps = 5, 20000
    w = haar_frames(n, reps, st.SeedSpec(13, r).generator(), columns=r)
    sq = np.abs(w[:, 0, 0]) ** 2
    assert stats.kstest(sq, stats.beta(1, n - 1).cdf).pvalue > 0.01


def _phase_corrected_qr(z):
    """Thin QR through LAPACK, columns rotated so R's diagonal is real
    positive: the reference for the Gram-Schmidt frames."""
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    return q * (diag / np.abs(diag))[..., None, :]


@pytest.mark.parametrize("n, c", [(2, 1), (3, 2), (4, 1), (8, 2), (16, 3), (32, 2), (64, 8),
                                  (1, 1), (2, 2), (5, 5), (16, 16)])
def test_haar_frames_match_phase_corrected_qr(n, c):
    # the frames orthonormalize the same Ginibre stack that LAPACK's QR
    # factors; at c = n they are full unitaries
    z = complex_gaussian(st.SeedSpec(17, n).generator(), (200, n, c), np.sqrt(0.5))
    frames = _orthonormalize(z.copy())
    assert np.max(np.abs(frames - _phase_corrected_qr(z))) <= 1e-12


def _divided_gram_schmidt(z):
    """`_orthonormalize` with each column divided by its real norm as one
    complex quotient: the reference that its reciprocal product must equal
    byte for byte.  It takes the same inner products: the coefficients as
    an einsum of the conjugated basis with the column, the squared norm as
    a real-view einsum."""
    q = np.ascontiguousarray(z.swapaxes(-1, -2))
    for j in range(q.shape[-2]):
        v = q[:, j]
        basis = q[:, :j]
        for _ in range(2 if j else 0):
            v -= np.matmul(np.einsum("cjk,ck->cj", basis.conj(), v)[:, None, :], basis)[:, 0]
        parts = v.view(float)
        v /= np.sqrt(np.einsum("ck,ck->c", parts, parts))[:, None]
    return q.swapaxes(-1, -2)


@pytest.mark.parametrize("n, c", [(1, 1), (2, 1), (3, 2), (4, 4), (6, 1), (6, 3), (9, 4), (16, 2), (16, 16)])
def test_orthonormalize_is_the_complex_division_on_ginibre_stacks(n, c):
    # NumPy divides a complex a + ib by a real c as (a + b * 0) * (1 / c)
    # and (b - a * 0) * (1 / c): the real parts times the reciprocal norm
    z = complex_gaussian(st.SeedSpec(19, 10 * n + c).generator(), (300, n, c), np.sqrt(0.5))
    assert _orthonormalize(z.copy()).tobytes() == _divided_gram_schmidt(z).tobytes()


@pytest.mark.parametrize("n, r", [(2, 2), (3, 2), (4, 2), (5, 3), (8, 3), (7, 4), (64, 4)])
def test_orthonormalize_is_the_complex_division_on_bartlett_stacks(monkeypatch, n, r):
    # the stacks of the Haar corner draw, with exact zeros below B's diagonal
    stacks = []

    def recording(stack):
        stacks.append(stack.copy())
        return _orthonormalize(stack)

    monkeypatch.setattr(rate, "_orthonormalize", recording)
    rate._haar_corner_sets(n, r, 3, 100, st.SeedSpec(20, 10 * n + r).generator())
    (stack,) = stacks
    k = min(r, n - r)  # B is (k, r) upper trapezoidal: k (k - 1) / 2 zeros a stack
    assert np.count_nonzero(stack == 0) == 300 * k * (k - 1) // 2
    assert _orthonormalize(stack.copy()).tobytes() == _divided_gram_schmidt(stack).tobytes()


@pytest.mark.parametrize("c", [1, 2, 4, 8, 16])
def test_haar_frames_orthonormal_at_worst_conditioning(c):
    # n = c, then n = c + 1, give the Ginibre stacks with the smallest
    # singular values.  Two Gram-Schmidt passes keep the defect at a few
    # ulps; a single pass leaves about 3e-14 at c = 16, n = c + 1.
    for n in (c, c + 1):
        frames = haar_frames(n, 10_000, st.SeedSpec(18, c).generator(), columns=c)
        assert unitarity_defect(frames) <= 1e-14


def test_complex_normal_draw_order_is_pinned():
    z = complex_gaussian(st.SeedSpec(1, 0).generator(), (4, 5, 3), np.sqrt(0.5))
    digest = hashlib.sha256(z.tobytes()).hexdigest()
    assert digest == "af28cd9e0c95e03578934e4d6d0cecbe249547abae1dcd5b29c9652690b594ed"


def _inline_complex_normal(gen, shape, std):
    """std * (a + ib) from two `standard_normal(shape)` calls: the plain
    construction that the sampler's scaled writes must equal in bytes."""
    return std * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))


def test_complex_normal_rounds_equal_sequential_calls():
    layout = [((3, 3), 0.25), ((5, 4, 2), np.sqrt(0.5)), ((1, 4, 2), np.sqrt(0.5)), ((7,), 2.0), ((2, 0), 1.0)]
    gen = st.SeedSpec(19, 1).generator()
    parts = complex_normal_rounds(gen, 6, layout)
    ref = st.SeedSpec(19, 1).generator()
    expected = [[_inline_complex_normal(ref, shape, std) for shape, std in layout] for _ in range(6)]
    for k, (shape, _) in enumerate(layout):
        assert parts[k].shape == (6, *shape)
        assert parts[k].tobytes() == np.stack([row[k] for row in expected]).tobytes()
    # both generators are left at the same state
    assert gen.standard_normal() == ref.standard_normal()


def test_full_haar_draw_order_is_pinned():
    # The draw order of full unitaries is part of the released behaviour:
    # changing it is a versioned break.  Rounding keeps last-bit differences
    # between BLAS builds from tripping the hash.
    u = haar_frames(5, 3, st.SeedSpec(1, 0).generator())
    digest = hashlib.sha256(np.round(u, 12).tobytes()).hexdigest()
    assert digest == "d7ee5bf8effc55c0fb4ec5c121a5c8cf3b6c8673fc95900cdd469c12c9bdeb12"


def _eta_full_unitaries(spec, size, gen):
    """The exponent from full Haar unitaries, thetas @ chi: the reference
    that the corner-based `_haar_eta_chunks` must match in law."""
    had = None
    for chi in spec.factors:
        thetas = haar_frames(spec.n, size, gen)
        overlap = np.einsum("ni,bnj->bij", np.conj(chi), thetas @ chi)
        had = overlap if had is None else had * overlap
    return np.real(np.einsum("i,bij,j->b", spec.lambdas, had, spec.lambdas))


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("gram", ["two-eigenvalue:1.8,0.2", "all-ones"])
def test_eta_from_frames_matches_full_unitaries(n, gram):
    # all-ones Grams are rank one: so are the factors and their Gram roots
    spec = st.SpikeSpec([0.4, 0.2], gram_matrices(gram, 2, 3), n)
    corners = np.concatenate(_haar_eta_chunks(spec, 4000, st.SeedSpec(14, n), 1))
    full = _eta_full_unitaries(spec, 4000, st.SeedSpec(15, n).generator())
    assert stats.ks_2samp(corners, full).pvalue > 0.01


def test_haar_first_entry_moment():
    n, reps = 4, 20000
    us = haar_frames(n, reps, st.SeedSpec(4, 0).generator())
    sq = np.abs(us[:, 0, 0]) ** 2
    assert abs(np.mean(sq) - 1.0 / n) < 3 * np.std(sq) / np.sqrt(reps)


def test_haar_invariance_of_traces():
    # traces of V @ U, U @ V and U should all be indistinguishable in law
    n, reps = 5, 4000
    gen = st.SeedSpec(5, 0).generator()
    v = haar_frames(n, 1, gen)[0]
    t_plain = np.einsum("bii->b", haar_frames(n, reps, gen))
    t_left = np.einsum("bii->b", v @ haar_frames(n, reps, gen))
    t_right = np.einsum("bii->b", haar_frames(n, reps, gen) @ v)
    for rotated in (t_left, t_right):
        for part in (np.real, np.imag):
            p = stats.mannwhitneyu(part(t_plain), part(rotated)).pvalue
            assert p > 0.01


def test_sphere_first_coordinate_moment():
    # E|v_1|^2 = 1/n on the xi-tail sphere samples: the integral of
    # 2t P(|v_1| >= t) over [0, 1], from the counts of one sample set
    n, reps = 6, 20000
    ts = np.linspace(0.0, 1.0, 1001)
    tail = np.array([e.mean for e in st.xi_empirical_tail(n, ts, reps, st.SeedSpec(7, 0))])
    sd = math.sqrt((n - 1) / (n * n * (n + 1)))  # |v_1|^2 ~ Beta(1, n - 1)
    assert abs(np.trapezoid(2 * ts * tail, ts) - 1.0 / n) < 3 * sd / math.sqrt(reps)


def test_psi_block_norm_and_edges():
    gen = st.SeedSpec(9, 0).generator()
    # the top r x r block of a Haar unitary is the first r rows of a Haar (n, r) frame
    for _ in range(50):
        b = haar_frames(6, 1, gen, columns=3)[0, :3]
        assert np.linalg.norm(b, 2) <= 1.0 + 1e-12
    full = haar_frames(4, 1, gen, columns=4)[0, :4]
    assert unitarity_defect(full) <= 1e-10


def test_psi_block_r1_is_sphere_coordinate():
    n, reps = 5, 20000
    gen = st.SeedSpec(10, 0).generator()
    sq = np.abs(haar_frames(n, reps, gen)[:, 0, 0]) ** 2
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

    # a budget of 40 draws a block: chunk i of 63 or 62 draws is two blocks
    # on child stream i, and at 63 * cells cells a chunk threads=4 runs a pool
    cells = _BLOCK_CELLS // 40
    expected = []
    for i, size in enumerate(chunk_sizes(1000, 16)):
        gen = seed.generator(i)
        expected += [gen.standard_normal(40), gen.standard_normal(size - 40)]
    expected = np.concatenate(expected)
    serial = map_streams(draw, 1000, seed, threads=1, cells=cells)
    assert sorted(set(calls)) == [22, 23, 40]
    parallel = map_streams(draw, 1000, seed, threads=4, cells=cells)
    assert len(serial) == 16
    assert np.array_equal(np.concatenate(serial), expected)
    assert np.array_equal(np.concatenate(parallel), expected)


def test_map_streams_threads_only_large_steps():
    seed = st.SeedSpec(16, 0)
    caller = threading.get_ident()

    def run(total, cells):
        calls = []

        def draw(m, gen):
            calls.append((m, threading.get_ident()))
            return gen.standard_normal(m)

        out = np.concatenate(map_streams(draw, total, seed, threads=2, cells=cells))
        return out, {m for m, _ in calls}, {ident for _, ident in calls}

    # 16 draws: one a chunk, so a chunk holds `cells` cells
    small, _, small_idents = run(16, _POOL_CELLS - 1)
    large, _, large_idents = run(16, _POOL_CELLS)
    assert small_idents == {caller}
    assert caller not in large_idents
    assert np.array_equal(small, large)
    # one draw over the budget: chunks of 4 draws take one-draw blocks
    over, over_sizes, over_idents = run(64, _BLOCK_CELLS + 1)
    assert over_sizes == {1}
    assert caller not in over_idents
    assert np.array_equal(over, run(64, 1)[0])


@pytest.mark.parametrize("lane_cells, bound", [(_HELD_CELLS - 1, 1), (_HELD_CELLS // 2 + 1, 1),
                                               (_HELD_CELLS // 2, 2), (_HELD_CELLS // 3, 3)])
def test_map_streams_holds_only_the_lanes_that_fit(lane_cells, bound):
    # at most max(1, _HELD_CELLS // lane_cells) lanes are held at once: the
    # 16 lanes' draws run on that many threads at most, and on the calling
    # thread alone when one lane fills the budget, with the same bytes
    seed = st.SeedSpec(17, 0)
    caller = threading.get_ident()
    idents = set()

    def lane(gen):
        return gen.standard_normal()

    def draw(m, gen, held):
        idents.add(threading.get_ident())
        return gen.standard_normal(m) + held

    expected = np.concatenate(map_streams(draw, 64, seed, 1, cells=1, lane=lane, lane_cells=lane_cells))
    idents.clear()
    got = np.concatenate(map_streams(draw, 64, seed, 3, cells=1, lane=lane, lane_cells=lane_cells))
    assert got.tobytes() == expected.tobytes()
    assert len(idents) <= bound
    assert (idents == {caller}) == (bound == 1)


def _scored_reference(total, seed, cells, draw, score):
    """One array per chunk, each block drawn and scored on its own: the
    per-block path that `map_streams(..., score=)` must reproduce."""
    block = max(1, _BLOCK_CELLS // cells)
    out = []
    for i, size in enumerate(chunk_sizes(total, 16)):
        gen = seed.generator(i)
        out.append(np.concatenate([score(*draw(min(block, size - start), gen)) for start in range(0, size, block)]))
    return out


# 64 draws pack all 16 chunks into one scoring call; 1000 draws at 40 a
# block make chunks of two blocks; 300 draws at a budget of 50 pack two
# chunks of 18 or 19 draws a task; one draw above the budget scores draw
# by draw
@pytest.mark.parametrize("total, cells", [(64, 1), (1000, _BLOCK_CELLS // 40), (300, _BLOCK_CELLS // 50),
                                          (40, _BLOCK_CELLS + 1)])
@pytest.mark.parametrize("threads", [1, 3])
def test_map_streams_score_matches_per_block_scoring(total, cells, threads):
    seed = st.SeedSpec(12, 0)
    calls = []

    def draw(m, gen):
        return gen.standard_normal((m, 3)), gen.integers(0, 9, m)

    def score(x, k):
        calls.append(len(k))
        return x.sum(axis=1) * k

    expected = _scored_reference(total, seed, cells, draw, score)
    calls.clear()
    got = map_streams(draw, total, seed, threads, cells=cells, score=score)
    assert len(got) == len(expected) == min(total, 16)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))
    # a call scores at most one budget of draws, or one draw above it
    assert calls and max(calls) * cells <= max(_BLOCK_CELLS, cells)
    assert sum(calls) == total


def test_map_streams_packs_chunks_into_scoring_calls():
    seed = st.SeedSpec(13, 0)
    calls = []

    def draw(m, gen):
        return (gen.standard_normal(m),)

    def score(x):
        calls.append(len(x))
        return x

    # every chunk fits: one call for all 64 draws
    map_streams(draw, 64, seed, 2, cells=1, score=score)
    assert calls == [64]
    # 50 draws a budget, twelve chunks of 19 and four of 18: two whole
    # chunks a call
    calls.clear()
    map_streams(draw, 300, seed, 1, cells=_BLOCK_CELLS // 50, score=score)
    assert calls == [38] * 6 + [36] * 2


def test_pool_workers_run_blas_on_one_thread():
    setter = _blas_threads_setter()
    if setter is None:
        pytest.skip("NumPy's BLAS has no openblas_set_num_threads_local")
    caller = threading.get_ident()
    before = setter(2)  # the calling thread at two BLAS threads
    try:
        seen = []

        def draw(m, gen):
            count = setter(1)  # the worker's count before this call
            setter(count)
            seen.append((threading.get_ident(), count))
            return gen.standard_normal(m)

        map_streams(draw, 16, st.SeedSpec(3, 0), threads=2, cells=_POOL_CELLS)
        assert seen and all(ident != caller and count == 1 for ident, count in seen)
        assert setter(2) == 2  # the calling thread's count is its own again
        seen.clear()
        map_streams(draw, 16, st.SeedSpec(3, 0), threads=1, cells=_POOL_CELLS)
        # one thread: the calling thread's BLAS is held to 1 during the run
        # and given back after
        assert seen and all(entry == (caller, 1) for entry in seen)
        assert setter(2) == 2
    finally:
        setter(before)


def test_concurrent_pooled_calls_give_the_blas_count_back():
    # four callers, each pooling at two threads: the count they restore is
    # the one from before the first of them started
    setter = _blas_threads_setter()
    if setter is None:
        pytest.skip("NumPy's BLAS has no openblas_set_num_threads_local")
    seed = st.SeedSpec(5, 0)

    def draw(m, gen):
        return gen.standard_normal(m)

    expected = np.concatenate(map_streams(draw, 16, seed, cells=_POOL_CELLS))
    outputs = []

    def caller():
        for _ in range(20):
            out = map_streams(draw, 16, seed, threads=2, cells=_POOL_CELLS)
            outputs.append(np.array_equal(np.concatenate(out), expected))

    before = setter(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
        assert outputs == [True] * 80
        assert setter(2) == 2
    finally:
        sys.setswitchinterval(interval)
        setter(before)
