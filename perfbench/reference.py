"""A fixed reference computation that measures the machine's current speed.

The benchmark's host shares its cores: over tens of seconds its speed drifts
by up to 1.6x, for interpreted Python and for BLAS alike, while the program's
work stays the same.  So the timed loop runs this kernel between every two
solves, and divides each solve's wall time by the mean of the kernel's times
just before and just after it.  The quotient, the solve's time in *ref*
units, stays put when the machine speeds up or slows down, and moves when
the program does more or less work.

The kernel calls nothing of the program under test.  It mixes the three
kinds of work the solves do: an interpreted loop with dict stores (the
per-call Python of the CLI and the ``*_locg`` loops), small dense
factorizations (the reduced problems and the n=40 to 200 eigensolves) and
products of a 600-by-600 matrix with a thin block (the n=1000 ``A P``
products).  It takes about 5 ms on a 2-vCPU Xeon VM, and its arrays, about
3 MB, count in ``peak_rss_mb``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


class Reference:
    """The reference kernel and its fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(20230501)
        M = rng.standard_normal((80, 80))
        self.M = M + M.T
        self.X = rng.standard_normal((80, 4))
        self.big = rng.standard_normal((600, 600))
        self.thin = rng.standard_normal((600, 4))

    def run(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = perf_counter()
        acc, table = 0, {}
        for i in range(10000):
            table[i & 255] = acc
            acc += i * i
        for _ in range(2):
            _, V = np.linalg.eigh(self.M)
            np.linalg.qr(self.X + 0.1 * V[:, :4])
        for _ in range(6):
            self.big @ self.thin
        return perf_counter() - t0
