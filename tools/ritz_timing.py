#!/usr/bin/env python3
"""Time one warm Ritz solve next to a dense solve and one field apply.

Usage::

    python tools/ritz_timing.py [N,K ...] [--repeats R]

For each N,K shape (default: 200,8, 120,8, 80,3 and 40,3, the sizes of
``eigen-route``'s fields, of the ``WARM_MIN_N`` bound and of
``desk-catalog``) this builds an mbsub-like symmetric N-by-N field H, its
top K eigenvalues spread over [3, 4] and the rest over [0, 2.5], and takes
the point P and guard g of a warm NEPv step from the top K+1 eigenpairs of
a drifted field H + 1e-2 E (||E||_2 = 1), as the previous step leaves them.
It times, in median microseconds per call:

- ``ritz_us``: one warm solve ``kernels.ritz_top_k(H, P, HP, g, tol,
  GAP_DEGENERATE)`` with ``tol`` the ``INNER_TOL_FRACTION`` of the
  residual ||HP - P(P'HP)||_F, as ``nepv_scf`` asks it;
- ``dense_us``: the dense step's solve ``kernels._top_k`` of the formed H;
- ``apply_us``: one field apply H @ P.

The three are timed in alternation, R rounds each (default 31), and each
round runs enough calls to last about a millisecond.  ``svds`` and ``qrs``
are the SVDs and Householder QRs one warm solve takes, counted at the
bindings ``kernels._gesdd`` and ``kernels._geqrf``, and ``accepted`` says
whether it returned pairs (no: the caller falls back to the dense solve).

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
from stiefelscf import kernels  # noqa: E402
from stiefelscf.nepv import GAP_DEGENERATE, INNER_TOL_FRACTION  # noqa: E402

DEFAULT_SHAPES = ("200,8", "120,8", "80,3", "40,3")
DRIFT = 1e-2


def _shape(text: str) -> tuple[int, int]:
    n, k = (int(v) for v in text.split(","))
    if not 1 <= k < n:
        raise argparse.ArgumentTypeError(f"need 1 <= K < N, got {text}")
    return n, k


def warm_problem(n: int, k: int, seed: int = 0):
    """(H, P, HP, g, tol): an mbsub-like field and a warm step's inputs."""
    rng = np.random.default_rng(seed)
    spectrum = np.concatenate([np.linspace(0.0, 2.5, n - k),
                               np.linspace(3.0, 4.0, k)])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = kernels.sym_part((Q * spectrum) @ Q.T)
    E = kernels.sym_part(rng.standard_normal((n, n)))
    prev = kernels.top_k_eigenpairs(H + DRIFT * E / np.linalg.norm(E, 2), k)
    P = prev.eigenbasis
    HP = H @ P
    tol = INNER_TOL_FRACTION * np.linalg.norm(HP - P @ (P.T @ HP))
    return H, P, HP, prev.next_vector, tol


def count_decompositions(H, P, HP, g, tol) -> tuple[int, int, bool]:
    """SVDs and QRs one warm solve takes, and whether it returned pairs."""
    counts = {"svd": 0, "qr": 0}
    gesdd, geqrf = kernels._gesdd, kernels._geqrf

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    kernels._gesdd, kernels._geqrf = counted("svd", gesdd), counted("qr", geqrf)
    try:
        out = kernels.ritz_top_k(H, P, HP, g, tol, GAP_DEGENERATE)
    finally:
        kernels._gesdd, kernels._geqrf = gesdd, geqrf
    return counts["svd"], counts["qr"], out is not None


def time_shape(n: int, k: int, repeats: int) -> tuple[float, float, float]:
    """Median microseconds per call of a warm Ritz solve, a dense solve and
    a field apply."""
    H, P, HP, g, tol = warm_problem(n, k)
    work = np.empty(H.shape, order="F")
    calls = [
        lambda: kernels.ritz_top_k(H, P, HP, g, tol, GAP_DEGENERATE),
        lambda: kernels._top_k(H, k, work),
        lambda: H @ P,
    ]
    start = time.perf_counter()
    calls[0]()
    per_round = max(1, int(1e-3 / max(time.perf_counter() - start, 1e-7)))
    samples = [[] for _ in calls]
    for _ in range(repeats):
        for fn, out in zip(calls, samples):
            start = time.perf_counter()
            for _ in range(per_round):
                fn()
            out.append((time.perf_counter() - start) / per_round * 1e6)
    return tuple(float(np.median(s)) for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("shapes", nargs="*", type=_shape,
                        default=[_shape(s) for s in DEFAULT_SHAPES],
                        metavar="N,K")
    parser.add_argument("--repeats", type=int, default=31)
    args = parser.parse_args(argv)
    print(f"{'n':>6} {'k':>4} {'ritz_us':>10} {'dense_us':>10} "
          f"{'apply_us':>10} {'svds':>5} {'qrs':>5} {'accepted':>9}")
    for n, k in args.shapes:
        svds, qrs, accepted = count_decompositions(*warm_problem(n, k))
        ritz, dense, apply = time_shape(n, k, args.repeats)
        print(f"{n:6d} {k:4d} {ritz:10.1f} {dense:10.1f} {apply:10.1f} "
              f"{svds:5d} {qrs:5d} {'yes' if accepted else 'no':>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
