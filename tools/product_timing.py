#!/usr/bin/env python3
"""Time a product A X with a term matrix A plainly, by a serial panel loop
and by the package's kernel.

Usage::

    python tools/product_timing.py [N,K ...] [--repeats R]

For each N,K shape (default: the benchmark's shapes 40,3 200,8 200,24
1000,2 1000,4 1000,8 1000,12 1000,16, and 1950,4 2000,4 3000,4 around
the upper end of the kernel's share window) this builds an exactly
symmetric, C-ordered N-by-N A and a C-ordered N-by-K X, then times
``A @ X``, ``serial_panels(A, X)`` and the package's
``kernels._thin_matmul(A, X)``.  ``serial_panels`` is this tool's own copy
of the kernel's row-panel loop, panels of at most ``kernels.PANEL_MNK``
multiply-adds run one after the other on the calling thread; the kernel
runs the same panels, shared with its helper thread for shapes in its
share window.  The three are timed in alternation, R rounds each (default
31), and each round runs enough calls to last about a millisecond.  One
row per shape gives the median microseconds per call of each, the ratio
of the kernel over ``A @ X`` and the ratio of the kernel over the serial
loop.

BLAS is pinned to one thread before numpy is imported, as in the
benchmark.  Which form is faster depends on the BLAS library and the CPU,
so the numbers hold only for the machine that printed them.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from stiefelscf import kernels  # noqa: E402

DEFAULT_SHAPES = ("40,3", "200,8", "200,24", "1000,2", "1000,4", "1000,8",
                  "1000,12", "1000,16", "1950,4", "2000,4", "3000,4")


def serial_panels(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X in the kernel's row panels, all on the calling thread."""
    X = np.ascontiguousarray(X)
    (n, m), k = A.shape, X.shape[1]
    rows = max(1, kernels.PANEL_MNK // max(1, m * k))
    out = np.empty((n, k))
    for i in range(0, n, rows):
        np.matmul(A[i:i + rows], X, out=out[i:i + rows])
    return out


def _shape(text: str) -> tuple[int, int]:
    n, k = (int(v) for v in text.split(","))
    if not 1 <= k <= n:
        raise argparse.ArgumentTypeError(f"need 1 <= K <= N, got {text}")
    return n, k


def _calls_per_round(fn) -> int:
    # Enough calls for a round of about a millisecond.
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    return max(1, int(1e-3 / max(once, 1e-7)))


def time_shape(n: int, k: int, repeats: int) -> tuple[float, float, float]:
    """Median microseconds per call of ``A @ X``, of ``serial_panels`` and
    of ``_thin_matmul``."""
    rng = np.random.default_rng(0)
    G = rng.standard_normal((n, n))
    A = G + G.T
    X = rng.standard_normal((n, k))
    fns = ((lambda: A @ X), (lambda: serial_panels(A, X)),
           (lambda: kernels._thin_matmul(A, X)))
    calls = _calls_per_round(fns[0])
    samples = ([], [], [])
    for _ in range(repeats):
        for fn, out in zip(fns, samples):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            out.append((time.perf_counter() - start) / calls * 1e6)
    return tuple(float(np.median(s)) for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("shapes", nargs="*", type=_shape,
                        default=[_shape(s) for s in DEFAULT_SHAPES],
                        metavar="N,K")
    parser.add_argument("--repeats", type=int, default=31)
    args = parser.parse_args(argv)
    print(f"{'n':>6} {'k':>4} {'A@X_us':>10} {'serial_us':>10} "
          f"{'kernel_us':>10} {'ratio':>6} {'shared':>6}")
    for n, k in args.shapes:
        plain, serial, kernel = time_shape(n, k, args.repeats)
        print(f"{n:6d} {k:4d} {plain:10.1f} {serial:10.1f} {kernel:10.1f} "
              f"{kernel / plain:6.2f} {kernel / serial:6.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
