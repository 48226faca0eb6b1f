"""Seeded random sampling: the one complex-Gaussian sampler, the Haar
frames orthonormalized from its Ginibre draws, and the Monte-Carlo
drivers' chunk layout.

The model has two random objects, and each has one sampler.  Circular
complex Gaussian arrays, the noise tensors and the Ginibre stacks alike,
come from `complex_normal_rounds`.  Haar frames, the leading columns of
Haar unitaries, are `_orthonormalize` of a Ginibre draw from it
(`moment._rotate`), and Haar corner blocks the same kernel on the Bartlett
stacks of `rate._haar_corner_sets`.

All sampling is driven by :class:`SeedSpec`, a (master_seed, stream_id) pair
that fully determines the generator state.  Parallel drivers derive disjoint
child streams from one SeedSpec so that results never depend on how work is
scheduled across threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_U64 = 2**64

@dataclass(frozen=True)
class SeedSpec:
    """Reproducible seed handle: (master_seed, stream_id) -> one RNG stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            try:
                valid = 0 <= operator.index(value) < _U64
            except TypeError:  # not an integer: a float, a string, None
                valid = False
            if not valid:
                raise ParameterError(f"{name} must be an unsigned 64-bit integer, got {value!r}")

    def generator(self, *lane: int) -> np.random.Generator:
        """Create the generator for this stream, or a child lane of it.

        ``spec.generator()`` is the stream itself; ``spec.generator(i)``,
        ``spec.generator(i, j)``, ... are statistically independent child
        streams used by chunked Monte-Carlo drivers.
        """
        key = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id, *lane))
        return np.random.default_rng(key)

    def to_dict(self) -> dict:
        return {"master_seed": self.master_seed, "stream_id": self.stream_id}


def complex_normal_rounds(gen: np.random.Generator, count: int, layout) -> list[np.ndarray]:
    """`count` rounds of circular complex Gaussian arrays, one (count, *shape)
    array per ``(shape, std)`` part of `layout`, whose real and imaginary
    parts are independent N(0, std**2) each: the package's one sampler of
    complex normals.

    The normals come from one `standard_normal` call, in the order round by
    round, part by part, and within a part first all real then all
    imaginary parts.  A Generator gives the same normals from one call as
    from many, so a one-round layout of one part, ``count = 1``, is the
    array of two `standard_normal(shape)` calls.  Each part is scaled as it
    is written, one real product a normal: for a finite normal x and a
    positive std, x * std is the real part of the complex product
    (x + iy) * (std + 0j), so this gives the bytes of scaling the whole
    complex array afterwards, without that second pass.
    """
    sizes = [math.prod(shape) for shape, _ in layout]
    normals = gen.standard_normal((count, 2 * sum(sizes)))
    parts = []
    start = 0
    for (shape, std), size in zip(layout, sizes):
        out = np.empty((count, *shape), dtype=complex)
        np.multiply(normals[:, start : start + size].reshape(out.shape), std, out=out.real)
        np.multiply(normals[:, start + size : start + 2 * size].reshape(out.shape), std, out=out.imag)
        parts.append(out)
        start += 2 * size
    return parts


def _orthonormalize(z: np.ndarray) -> np.ndarray:
    """The Q factor, with R's diagonal real positive, of every matrix of a
    (count, n, c) stack, c <= n: Haar unitaries or frames when the stack is
    Ginibre with N(0, 1/2) components, Haar corner stacks on the Bartlett
    stacks of `rate._haar_corner_sets`.  R's real positive diagonal is what
    makes Q Haar: it fixes the phases that the factorization leaves free
    (Mezzadri, Notices AMS 54, 2007), and the first c columns of a Haar
    unitary are uniform on the Stiefel manifold of c-frames in C^n, so an
    (n, c) Ginibre stack gives them at O(n c^2) cost.

    Two passes of classical Gram-Schmidt, c steps of a few NumPy calls each
    over the whole stack, with no LAPACK call.  Dividing each column by its
    real positive norm makes R's diagonal real positive by construction, so
    no phase correction follows; the second pass keeps the columns
    orthonormal to machine precision, square stacks included (Giraud,
    Langou, Rozloznik, Comput. Math. Appl. 50, 2005).  The division is
    taken as one product of the real and imaginary parts with the
    reciprocal norm, the bytes of NumPy's complex quotient by a real
    divisor, (a + b * 0) * (1 / c) and (b - a * 0) * (1 / c): at c = 1,
    3200 frames of n = 3 took 148 us against 188 us by the quotient (one
    thread, 2-vCPU VM).  The squared norms are one real-view `einsum`, the
    sum of the squared real and imaginary parts of each column, and the
    Gram-Schmidt coefficients one `einsum` of the conjugated basis with the
    column, not the `np.vecdot` gufunc: 3200 frames of n = 3, c = 1 took
    58 us against 114 us, and 1125 Ginibre (4, 2) stacks 219 us against
    266 us (one thread, 2-vCPU VM).

    The stack `z` is consumed: at c = 1 the (count, c, n) copy is `z`'s own
    memory, so `z` is overwritten and the result shares it.  Pass a fresh
    draw, or a copy of one that is used again.
    """
    q = np.ascontiguousarray(z.swapaxes(-1, -2))  # (count, c, n): one row per column
    parts = q.view(float)  # (count, c, 2n): the real and imaginary parts side by side
    for j in range(q.shape[-2]):
        v = q[:, j]
        basis = q[:, :j]
        for _ in range(2 if j else 0):
            v -= np.matmul(np.einsum("cjk,ck->cj", basis.conj(), v)[:, None, :], basis)[:, 0]
        parts[:, j] *= (1.0 / np.sqrt(np.einsum("ck,ck->c", parts[:, j], parts[:, j])))[:, None]
    return q.swapaxes(-1, -2)


# The chunk layout of every Monte-Carlo driver, owned by `map_streams`: its
# draws are split into `_N_STREAMS` chunks, one child stream each, and a
# chunk takes its draws in blocks of at most `_BLOCK_CELLS` array cells.
# One thread on a 2-core machine, medians of seven calls: 12k cloud draws
# at n=16, r=2 (chunks of 750 draws, 72k cells) took 126 ms at a budget of
# 2^16 (blocks of 682 + 68 draws) and 105 ms at 2^17 (one block); xi-tail
# at n=16, 150k samples took 99-103 ms at every budget from 2^15 to 2^18
# (medians of 15, the budgets interleaved); roc, direct and the Haar moment
# moved within noise from 2^15 to 2^18, while the traced peak of `direct`
# at n=4, inner=2000 doubled with each step up to 5.4 MB at 2^17.
#
# The chunks go to the pool from `_POOL_CELLS` cells a chunk.  Every draw
# runs its BLAS calls on one thread (`_one_blas_thread`), on a pool worker
# and on the calling thread alike, so the pool's threads and OpenBLAS's own
# do not compete for the cores, and a BLAS result does not depend on which
# thread took the draw: a threaded GEMM may split its sums unlike a
# one-thread GEMM, and with the calling thread's GEMMs left on two threads
# `roc` thresholds at d=3, n=6 moved by up to 8.9e-15 between `--threads`
# 1 and 2.  Chunks
# that small gain because half of their time is RNG fill and BLAS, which
# release the GIL: `direct` at n=3 (16 chunks of 28.8k cells).  On a 2-vCPU
# VM (in-process CLI calls, medians of 31, `--threads 2` against 1),
# `cloud --n 16 --samples 100000`, `split --samples 200000` and `direct
# --n 4 --inner 2000` ran 1.18-1.54x as fast, against 0.78-0.89x with the
# pool from 2^16 cells and OpenBLAS's threads left alone.  Runs of a few
# ms gain less (the README table): two workers take about 0.45 ms to start,
# and an OpenBLAS worker left spinning by a threaded BLAS call that the
# calling thread took before the run competes with the pool for about 0.1 s.
_POOL_CELLS = 2**14
_N_STREAMS = 16
_BLOCK_CELLS = 2**17
# The most cells one draw, and the lanes held at once, may hold: the CLI
# refuses a run whose draw or lane would hold more (`cli._LIMITS`), and
# `map_streams` starts no more workers than lanes fit in it.
_HELD_CELLS = 2**22
# The child stream of a draw taken once per run and shared by every chunk
# (the prior set of `roc`): past the chunk lanes 0 .. _N_STREAMS - 1, so it
# shares no stream with them and does not move with the chunk layout.
_PRIOR_LANE = _N_STREAMS


def _block_draws(cells: int) -> int:
    """Draws a block of `map_streams` takes when one draw holds `cells`
    array cells: as many as fit in `_BLOCK_CELLS`, at least one."""
    return max(1, _BLOCK_CELLS // cells)


def chunk_sizes(total: int, chunks: int) -> list[int]:
    """Split `total` items into `chunks` nearly equal parts (first parts get
    the remainder).  The split depends only on `total` and `chunks`, never on
    the worker count, which is what makes threaded runs reproducible."""
    if total < 1 or chunks < 1:
        raise ParameterError(f"need total >= 1 and chunks >= 1, got {total}, {chunks}")
    chunks = min(chunks, total)
    base, extra = divmod(total, chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]


@functools.cache
def _openblas():
    """The OpenBLAS that NumPy loaded, as a `ctypes.CDLL`: the one in
    NumPy's wheel libraries, or one mapped into this process, that has
    `openblas_set_num_threads_local`.  None where neither has the symbol
    (an older OpenBLAS, another BLAS)."""
    paths = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as maps:
            fields = (line.split(maxsplit=5) for line in maps)
            paths += [f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])]
    for path in dict.fromkeys(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(library, "openblas_set_num_threads_local"):
            return library
    return None


@functools.cache
def _blas_threads_setter():
    """OpenBLAS's `openblas_set_num_threads_local(n)`, which sets the BLAS
    thread count of the calling thread and returns the count before, from
    `_openblas`.  None where there is none; the pool then runs as it is."""
    library = _openblas()
    if library is None:
        return None
    setter = library.openblas_set_num_threads_local
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


_blas_lock = threading.Lock()
_blas_runs = 0  # `map_streams` calls running
_blas_before = 0  # the BLAS thread count they restore when the last ends


@contextlib.contextmanager
def _one_blas_thread():
    """Hold BLAS to one thread while a `map_streams` call runs, and give
    the calling thread its count back afterwards; yields the pool workers'
    initializer, the setter called with 1, or None where there is no
    setter.  A thread-local OpenBLAS (OpenMP builds) needs the call on every
    worker; a pthreads build keeps one count for the whole process, so the
    calling thread's count is set too, and restored when the last call
    running ends."""
    global _blas_runs, _blas_before
    setter = _blas_threads_setter()
    if setter is None:
        yield None
        return
    with _blas_lock:
        if _blas_runs == 0:
            _blas_before = setter(1)
        _blas_runs += 1
    try:
        yield setter
    finally:
        with _blas_lock:
            _blas_runs -= 1
            if _blas_runs == 0:
                setter(_blas_before)


def map_streams(draw, total: int, seed: SeedSpec, threads: int = 1, *, cells: int, score=None, lane=None,
                lane_cells: int = 0) -> list:
    """Take `total` draws in the chunk layout and return one array per
    chunk, in chunk order.

    `total` is split by ``chunk_sizes(total, _N_STREAMS)``.  Chunk i draws
    from its own child stream ``seed.generator(i)`` by calls
    ``draw(m, generator)``, and its array is their results concatenated
    along axis 0; so the output is byte-identical for any `threads` value.
    `cells` is the size, in array cells, of one draw: a call takes as many
    draws as fit in `_BLOCK_CELLS` cells, at least one.  The chunks run on
    a pool of `threads` workers when there is more than one task and the
    largest holds at least `_POOL_CELLS` cells, and on the calling thread
    otherwise.  Every draw runs its BLAS calls on one thread, on a pool
    worker or on the calling thread, and the calling thread's BLAS thread
    count is the same after the call as before.

    Without `score` a task is one chunk.  A driver whose statistic is fixed
    before any draw passes `score`: then ``draw(m, generator)`` returns a
    sequence of arrays of m rows each, the same calls on the same streams
    as without `score`, and ``score(*arrays)`` the output rows of the draws
    given, row by row, each part concatenated over the draws it is passed.
    Consecutive whole chunks are packed into one task while their draws
    hold at most `_BLOCK_CELLS` cells, and a task calls `score` once a
    `_BLOCK_CELLS` cells of draws, on a pool worker or on the calling
    thread under the same one-BLAS-thread hold: the draws of several small
    chunks are scored together, and a chunk above the budget block by
    block, so memory stays bounded.  The batches that `score` is given
    depend on the chunk sizes and `cells` alone, never on `threads`, so the
    output is byte-identical for any `threads` value even where a row's
    bytes depend on its batch, as those of `roc`'s dictionary GEMM do
    (`moment._dictionary_log_lr`); across block sizes it is not.

    A driver that draws a statistic once a chunk passes `lane`:
    ``lane(generator)`` runs in the chunk's task before its first draw, and
    its result is passed to each of the chunk's draws,
    ``draw(m, generator, held)``; `lane_cells`, the cells a lane holds while
    it scores, count toward the pool threshold.  At most `threads` lanes,
    and at most as many as fit in `_HELD_CELLS` cells, at least one, are
    held at once: the pool starts no more workers than that.
    """
    if threads < 1:
        raise ParameterError(f"need threads >= 1, got {threads}")
    sizes = chunk_sizes(total, _N_STREAMS)
    block = _block_draws(cells)

    def blocks(i: int):
        gen = seed.generator(i)
        held = () if lane is None else (lane(gen),)
        return (draw(min(block, sizes[i] - start), gen, *held) for start in range(0, sizes[i], block))

    def run(task: list) -> list:
        if score is None:
            return [np.concatenate(list(blocks(i))) for i in task]
        out, pending, held = [], [], 0
        for i in task:
            for drawn in blocks(i):
                pending.append(drawn)
                held += len(drawn[0])
                if held >= block:
                    out.append(score(*_stacked(pending)))
                    pending, held = [], 0
        if pending:
            out.append(score(*_stacked(pending)))
        return np.split(np.concatenate(out), np.cumsum([sizes[i] for i in task[:-1]]))

    tasks = [[i] for i in range(len(sizes))] if score is None else _packed(sizes, block)
    largest = max(sum(sizes[i] for i in task) for task in tasks)
    workers = min(threads, max(1, _HELD_CELLS // lane_cells)) if lane_cells else threads
    with _one_blas_thread() as init:
        if workers == 1 or len(tasks) == 1 or largest * cells + lane_cells < _POOL_CELLS:
            return [chunk for task in tasks for chunk in run(task)]
        with ThreadPoolExecutor(max_workers=workers, initializer=init, initargs=(1,)) as pool:
            return [chunk for out in pool.map(run, tasks) for chunk in out]


def _packed(sizes: list, block: int) -> list:
    """Consecutive chunk indices grouped while their draws number at most
    `block`; a chunk above it is a group of its own."""
    tasks, held = [], block
    for i, size in enumerate(sizes):
        if held + size > block:
            tasks.append([])
            held = 0
        tasks[-1].append(i)
        held += size
    return tasks


def _stacked(pending: list) -> list:
    """The parts of the draws in `pending`, each concatenated along axis 0;
    one draw's own arrays when there is one, which saves a copy a block of
    a chunk above the budget (`roc --d 3 --n 4 --trials 100000 --inner 100`
    ran in 1.22-1.32 s against 1.32-1.41 s with the copy)."""
    return pending[0] if len(pending) == 1 else [np.concatenate(part) for part in zip(*pending)]
