#!/usr/bin/env python3
"""Time one plain polar step next to the one product it forms.

Usage::

    python tools/step_timing.py [N,K ...] [--repeats R]

For each N,K shape (default: 1000,4, 40,3 and 12,4, the sizes of
``polar-route``'s ``sep``, of ``desk-catalog`` and of a ``sep``/npdo-locg
inner problem) this builds a ``sep`` objective f = tr(P'AP) with an exactly
symmetric PSD N-by-N A and a fixed Stiefel point P, and times:

- one plain polar step from P, as ``npdo_scf`` takes it: the residual (P'G,
  eps_kkt and eps_sym, one thin SVD of G) and the step (alignment, then the
  evaluation at P_next, f and the step angle).  Each call starts from a
  fresh evaluation at P whose term and f were read outside the clock, as a
  solve's previous step leaves them;
- the one full-size product that step forms, ``kernels._thin_matmul(A, X)``
  for an N-by-K X.

The two are timed in alternation, R rounds each (default 31), and each round
runs enough calls to last about a millisecond.  One row per shape gives the
median microseconds per call of each and their difference, the step's fixed
cost beyond its product.

BLAS is pinned to one thread before numpy is imported, as in the
benchmark.  The numbers hold only for the machine that printed them.
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
from stiefelscf.kernels import _thin_matmul, random_stiefel  # noqa: E402
from stiefelscf.npdo import _PolarStep  # noqa: E402
from stiefelscf.objective import PointEvaluation  # noqa: E402
from stiefelscf.problems import ProblemSpec, build  # noqa: E402

DEFAULT_SHAPES = ("1000,4", "40,3", "12,4")


def _shape(text: str) -> tuple[int, int]:
    n, k = (int(v) for v in text.split(","))
    if not 1 <= k <= n:
        raise argparse.ArgumentTypeError(f"need 1 <= K <= N, got {text}")
    return n, k


def time_shape(n: int, k: int, repeats: int) -> tuple[float, float]:
    """Median microseconds per call of one plain polar step on ``sep`` and
    of its one ``_thin_matmul`` product."""
    rng = np.random.default_rng(0)
    G = rng.standard_normal((n, n))
    A = G @ G.T / n
    A = 0.5 * (A + A.T)
    obj = build(ProblemSpec("sep", n, k, {"A": A}))
    A = obj.terms[0].matrix
    P = random_stiefel(n, k, 0)
    AP = _thin_matmul(A, P)
    step = _PolarStep(obj)

    def fresh():
        # The evaluation at P as the previous step leaves it: the term's
        # products and f already read.
        at = PointEvaluation(obj, P, [AP])
        _ = at.value
        return at

    def plain_step(at):
        res, ctx = step.residual(at)
        step.step(at, at.value, res, ctx)

    def product(_):
        _thin_matmul(A, P)

    start = time.perf_counter()
    plain_step(fresh())
    calls = max(1, int(1e-3 / max(time.perf_counter() - start, 1e-7)))
    samples = ([], [])
    for _ in range(repeats):
        for fn, out in zip((plain_step, product), samples):
            points = [fresh() for _ in range(calls)]
            start = time.perf_counter()
            for at in points:
                fn(at)
            out.append((time.perf_counter() - start) / calls * 1e6)
    return float(np.median(samples[0])), float(np.median(samples[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("shapes", nargs="*", type=_shape,
                        default=[_shape(s) for s in DEFAULT_SHAPES],
                        metavar="N,K")
    parser.add_argument("--repeats", type=int, default=31)
    args = parser.parse_args(argv)
    print(f"{'n':>6} {'k':>4} {'step_us':>10} {'product_us':>10} "
          f"{'fixed_us':>10}")
    for n, k in args.shapes:
        step, product = time_shape(n, k, args.repeats)
        print(f"{n:6d} {k:4d} {step:10.1f} {product:10.1f} "
              f"{step - product:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
