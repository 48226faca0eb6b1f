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

import math
import operator
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
    thread, 2-vCPU VM).

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
            v -= np.matmul(np.vecdot(basis, v[:, None, :])[:, None, :], basis)[:, 0]
        parts[:, j] *= (1.0 / np.sqrt(np.vecdot(v, v).real))[:, None]
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
# at n=4, inner=2000 doubled with each step up to 5.4 MB at 2^17.  The
# chunks go to the pool from 2^16 cells a chunk: with the pool forced on, 2
# threads took 0.56-0.68x the one-thread time on roc, cloud, Haar-moment
# and xi-tail chunks of 72k-120k cells, but 1.17x on `direct` at n=4,
# inner=2000 (four 32k-cell draws a chunk), and 0.68-0.89x on chunks of
# 36k-60k cells, a gain this threshold leaves unused.  A chunk above the
# threshold is not sure to gain, because OpenBLAS's own threads compete
# with the pool: on a 2-vCPU VM (three sets of medians of five calls),
# whole `cloud --n 16 --samples 100000` runs took 0.73-1.12x as fast on 2
# threads as on 1, and `split --n 8 --samples 200000` 0.82-1.17x; with
# OPENBLAS_NUM_THREADS=1 they took 1.15-1.39x and 1.73-2.11x.
_N_STREAMS = 16
_BLOCK_CELLS = 2**17
# The child stream of a draw taken once per run and shared by every chunk
# (the prior set of `roc`): past the chunk lanes 0 .. _N_STREAMS - 1, so it
# shares no stream with them and does not move with the chunk layout.
_PRIOR_LANE = _N_STREAMS


def chunk_sizes(total: int, chunks: int) -> list[int]:
    """Split `total` items into `chunks` nearly equal parts (first parts get
    the remainder).  The split depends only on `total` and `chunks`, never on
    the worker count, which is what makes threaded runs reproducible."""
    if total < 1 or chunks < 1:
        raise ParameterError(f"need total >= 1 and chunks >= 1, got {total}, {chunks}")
    chunks = min(chunks, total)
    base, extra = divmod(total, chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]


def map_streams(draw, total: int, seed: SeedSpec, threads: int = 1, *, cells: int) -> list:
    """Take `total` draws in the chunk layout and return one array per
    chunk, in chunk order.

    `total` is split by ``chunk_sizes(total, _N_STREAMS)``.  Chunk i draws
    from its own child stream ``seed.generator(i)`` by calls
    ``draw(m, generator)``, and its array is their results concatenated
    along axis 0; so the output is byte-identical for any `threads` value.
    `cells` is the size, in array cells, of one draw: a call takes as many
    draws as fit in `_BLOCK_CELLS` cells, at least one, and the chunks run
    on the calling thread, whatever `threads` is, while the largest chunk
    holds fewer than `_BLOCK_CELLS // 2` cells.
    """
    if threads < 1:
        raise ParameterError(f"need threads >= 1, got {threads}")
    sizes = chunk_sizes(total, _N_STREAMS)
    block = max(1, _BLOCK_CELLS // cells)

    def run(i: int):
        gen = seed.generator(i)
        return np.concatenate([draw(min(block, sizes[i] - start), gen) for start in range(0, sizes[i], block)])

    indices = range(len(sizes))
    if threads == 1 or len(sizes) == 1 or sizes[0] * cells < _BLOCK_CELLS // 2:
        return [run(i) for i in indices]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, indices))
