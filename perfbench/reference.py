"""Machine-speed reference for the timed end-to-end metrics.

On a shared machine the speed one process gets drifts: the same CLI call
took from 0.40 to 0.69 s within minutes here, and over ten runs the raw
draws/s of `observe` once spread by 18 % at one thread.  A run therefore
times a fixed one-thread kernel of the benchmark's own code after every
timed interval (each set-up child and each round, at either thread count)
and reports every time at the reference speed:

    time at reference speed = wall time * REFERENCE_S / median kernel time

One factor serves the set-up time and both thread counts, so the ratio of
`draws_per_s_tN` to `draws_per_s_t1` is the program's own.  The kernel
mixes what the workloads do: a batched complex QR (LAPACK), a Python loop
of small NumPy calls, and a block of normal draws.  It runs none of the
program's code, so a change to the program moves the reported times in
full.  `run.py` prints the raw wall-time figures as well.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median time on the machine of the README figures, so that
# scaled figures read close to raw ones there.
REFERENCE_S = 0.027
REPEATS = 3


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.stack = rng.standard_normal((96, 32, 32)) + 1j * rng.standard_normal((96, 32, 32))
        self.small = rng.standard_normal((3, 3))
        self.samples: list[float] = []

    def _work(self) -> None:
        np.linalg.qr(self.stack)
        for _ in range(600):
            np.linalg.norm(np.einsum("ij,jk->ik", self.small, self.small))
        draws = np.random.default_rng(1).standard_normal((40_000, 8))
        int(np.sum(np.abs(draws) > 1.0))

    def sample(self) -> None:
        """Time the kernel a few times."""
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Reference time over the median kernel time sampled in this run;
        below 1 when the machine ran slower than the reference."""
        return REFERENCE_S / statistics.median(self.samples)
