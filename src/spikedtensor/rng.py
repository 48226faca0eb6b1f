"""Seeded random sampling: complex Gaussian tensors, Haar unitaries and
their leading-column frames, and sphere vectors.

All sampling is driven by :class:`SeedSpec`, a (master_seed, stream_id) pair
that fully determines the generator state.  Parallel drivers derive disjoint
child streams from one SeedSpec so that results never depend on how work is
scheduled across threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_U64 = 2**64

# Worker threads pay only when each NumPy call of a chunk runs long enough
# to release the GIL for most of the chunk's time; with smaller steps the
# Python between the calls serializes the workers and they only contend.
# On a 2-core machine, 2 threads took 1.20x and 1.17x the one-thread time
# on roc steps of 43k and 50k cells, 0.55x on cloud steps of 72k cells and
# 0.62x on rank-one moment steps of 98k cells.
_THREADED_STEP_CELLS = 2**16


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible seed handle: (master_seed, stream_id) -> one RNG stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            if not (0 <= int(value) < _U64):
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


def as_generator(rng) -> np.random.Generator:
    """Accept either a SeedSpec or an already-constructed Generator."""
    if isinstance(rng, SeedSpec):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ParameterError(f"expected SeedSpec or numpy Generator, got {type(rng).__name__}")


def complex_normal(gen: np.random.Generator, shape, component_std: float) -> np.ndarray:
    """Circular complex Gaussian array; real and imaginary parts are
    independent N(0, component_std**2) each."""
    out = np.empty(shape, dtype=complex)
    out.real = gen.standard_normal(shape)
    out.imag = gen.standard_normal(shape)
    out *= component_std
    return out


def complex_normal_rounds(gen: np.random.Generator, count: int, layout) -> list[np.ndarray]:
    """`count` rounds of ``complex_normal(gen, shape, std)`` for each
    ``(shape, std)`` of `layout` in turn, taken from one `standard_normal`
    call; one (count, *shape) array per part.

    A Generator gives the same normals from one call as from many, so the
    result equals the part-by-part, round-by-round calls byte for byte.  It
    holds all 2 * count * cells normals at once, which is why
    `complex_normal` does not go through it.
    """
    sizes = [math.prod(shape) for shape, _ in layout]
    normals = gen.standard_normal((count, 2 * sum(sizes)))
    parts = []
    start = 0
    for (shape, std), size in zip(layout, sizes):
        out = np.empty((count, *shape), dtype=complex)
        out.real = normals[:, start : start + size].reshape(out.shape)
        out.imag = normals[:, start + size : start + 2 * size].reshape(out.shape)
        out *= std
        parts.append(out)
        start += 2 * size
    return parts


def sample_gaussian_tensor(n: int, d: int, rng) -> np.ndarray:
    """Order-d tensor with i.i.d. circular complex Gaussian entries of
    variance 1/n (so each real component has variance 1/(2n))."""
    if n < 1 or d < 2:
        raise ParameterError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    gen = as_generator(rng)
    return complex_normal(gen, (n,) * d, np.sqrt(1.0 / (2.0 * n)))


def sample_haar_unitaries(n: int, count: int, rng, columns: int | None = None) -> np.ndarray:
    """Stack of `count` independent Haar unitaries, shape (count, n, n), or
    of their first `columns` columns only, shape (count, n, columns).

    Construction: complex Ginibre matrix, QR factorization, then each column
    of Q is multiplied by the phase of the matching diagonal entry of R so
    that R's diagonal becomes real positive.  Plain QR is *not* Haar; the
    phase correction is what removes the factorization's sign ambiguity
    (Mezzadri, Notices AMS 54, 2007).  Leaving `columns` out draws the full
    unitaries.

    With `columns` = c < n the Ginibre matrix is (n, c) and the result is
    uniform on the Stiefel manifold of orthonormal c-frames in C^n, the law
    of the first c columns of a Haar unitary, at O(n c^2) cost.  The thin
    QR is then taken by two passes of classical Gram-Schmidt over the whole
    stack at once, c steps of a few NumPy calls each instead of one LAPACK
    call per matrix.  Dividing each column by its real positive norm makes
    R's diagonal real positive by construction, so this is the
    phase-corrected thin QR of the same draws, equal to the LAPACK route up
    to rounding; the second pass keeps the columns orthonormal to machine
    precision (Giraud, Langou, Rozloznik, Comput. Math. Appl. 50, 2005).
    """
    columns = n if columns is None else columns
    if not (1 <= columns <= n):
        raise ParameterError(f"need 1 <= columns <= n, got columns={columns}, n={n}")
    return _orthonormalize(complex_normal(as_generator(rng), (count, n, columns), np.sqrt(0.5)))


def _orthonormalize(z: np.ndarray) -> np.ndarray:
    """Haar unitaries or frames from a (count, n, c) stack of Ginibre
    matrices with N(0, 1/2) components, by the two routes that
    `sample_haar_unitaries` describes."""
    n, columns = z.shape[-2:]
    if columns < n:
        q = np.ascontiguousarray(z.swapaxes(-1, -2))  # (count, c, n): one row per column
        for j in range(columns):
            v = q[:, j]
            basis = q[:, :j]
            for _ in range(2 if j else 0):
                v -= np.matmul(np.vecdot(basis, v[:, None, :])[:, None, :], basis)[:, 0]
            v /= np.sqrt(np.vecdot(v, v).real)[:, None]
        return q.swapaxes(-1, -2)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    phase = diag / np.abs(diag)
    return q * phase[..., None, :]


def sample_unit_sphere(n: int, rng) -> np.ndarray:
    """Uniform point on the unit sphere of C^n (normalized complex Gaussian)."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got n={n}")
    gen = as_generator(rng)
    v = complex_normal(gen, (n,), np.sqrt(0.5))
    return v / np.linalg.norm(v)


def unitarity_defect(m: np.ndarray) -> float:
    """max |M* M - I|, zero for an exactly unitary matrix."""
    n = m.shape[-1]
    return float(np.max(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(n))))


# The chunk layout of every Monte-Carlo driver, owned by `map_streams`: its
# draws are split into `_N_STREAMS` chunks, one child stream each, and a
# chunk takes its draws in blocks of at most `_BLOCK` (the Haar-set drivers;
# the observation drivers size their blocks from their own cells).
_N_STREAMS = 16
_BLOCK = 1024


def chunk_sizes(total: int, chunks: int) -> list[int]:
    """Split `total` items into `chunks` nearly equal parts (first parts get
    the remainder).  The split depends only on `total` and `chunks`, never on
    the worker count, which is what makes threaded runs reproducible."""
    if total < 1 or chunks < 1:
        raise ParameterError(f"need total >= 1 and chunks >= 1, got {total}, {chunks}")
    chunks = min(chunks, total)
    base, extra = divmod(total, chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]


def map_streams(draw, total: int, seed: SeedSpec, threads: int = 1, *, cells: int, block: int = _BLOCK) -> list:
    """Take `total` draws in the chunk layout and return one array per
    chunk, in chunk order.

    `total` is split by ``chunk_sizes(total, _N_STREAMS)``.  Chunk i draws
    from its own child stream ``seed.generator(i)`` by calls
    ``draw(m, generator)`` of at most `block` draws each, and its array is
    their results concatenated along axis 0; so the output is byte-identical
    for any `threads` value.  `cells` is the size, in array cells, of one
    draw of a block: below `_THREADED_STEP_CELLS` cells in the largest
    block, the chunks run on the calling thread whatever `threads` is.
    """
    if threads < 1:
        raise ParameterError(f"need threads >= 1, got {threads}")
    sizes = chunk_sizes(total, _N_STREAMS)

    def run(i: int):
        gen = seed.generator(i)
        return np.concatenate([draw(min(block, sizes[i] - start), gen) for start in range(0, sizes[i], block)])

    indices = range(len(sizes))
    if threads == 1 or len(sizes) == 1 or min(block, sizes[0]) * cells < _THREADED_STEP_CELLS:
        return [run(i) for i in indices]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, indices))
