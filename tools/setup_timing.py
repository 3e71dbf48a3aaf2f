#!/usr/bin/env python3
"""Time what a solve pays before its first step: the import and the build.

Usage::

    python tools/setup_timing.py [N ...] [--repeats R]

It prints two things:

- ``import_s``: the median time of ``import stiefelscf`` in a fresh
  interpreter with numpy already imported, R interpreters, measured as the
  benchmark's import probe measures it;
- one row per N (default 1000, 200 and 40, the sizes of ``polar-route``,
  ``eigen-route`` and ``desk-catalog``) and family: the median
  milliseconds of one ``problems.build``, R builds, from seeded exactly
  symmetric matrices, PSD (``psd_ms``) and indefinite (``indefinite_ms``).
  The indefinite column makes each quadratic matrix indefinite, except the
  denominator B of ``olda``, which stays positive definite as the family
  requires.

Import time plus the builds of an instance set is what the benchmark's
``setup_s`` measures, so a change to either shows here first.  BLAS is
pinned to one thread before numpy is imported, as in the benchmark.  The
numbers hold only for the machine that printed them.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from stiefelscf.problems import ProblemSpec, build  # noqa: E402

DEFAULT_SIZES = (1000, 200, 40)
K = 4
FAMILIES = ("sep", "mbsub", "quad_lin2", "sumct", "umds", "trcp", "dft",
            "olda")

IMPORT_PROBE = (
    "import time, numpy\n"
    "t0 = time.perf_counter()\n"
    "import stiefelscf\n"
    "print(time.perf_counter() - t0)\n"
)


def _size(text: str) -> int:
    n = int(text)
    if n < K:
        raise argparse.ArgumentTypeError(f"need N >= {K}, got {n}")
    return n


def import_seconds(repeats: int) -> float:
    """Median seconds of ``import stiefelscf`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        samples.append(float(out.stdout))
    return float(np.median(samples))


def _symmetric(rng, n: int, psd: bool) -> np.ndarray:
    # A Wishart matrix G G' / n, or the indefinite (G + G') / 2, exactly
    # symmetric.
    G = rng.standard_normal((n, n))
    M = G @ G.T / n if psd else G
    return 0.5 * (M + M.T)


def spec(family: str, n: int, psd: bool, seed: int = 0) -> ProblemSpec:
    """A seeded ``family`` problem of order n with K = 4 columns."""
    rng = np.random.default_rng(seed)
    A, A2 = _symmetric(rng, n, psd), _symmetric(rng, n, psd)
    D = rng.standard_normal((n, K))
    if family == "sep":
        return ProblemSpec(family, n, K, {"A": A})
    if family == "dft":
        return ProblemSpec(family, n, K, {"A": A}, phi="quad_penalty",
                           phi_weight=0.25)
    if family in ("mbsub", "quad_lin2"):
        return ProblemSpec(family, n, K, {"A": A, "D": D})
    if family == "sumct":
        return ProblemSpec(family, n, K, {
            "A_list": [A, A2], "D_list": [D[:, :2], D[:, 2:]]},
            blocks=((0, 1), (2, 3)))
    if family in ("umds", "trcp"):
        return ProblemSpec(family, n, K, {"A_list": [A, A2]},
                           phi="quad_penalty", phi_weight=0.5)
    if family == "olda":
        B = _symmetric(rng, n, True) + np.eye(n)
        return ProblemSpec(family, n, K, {"A": A, "B": B})
    raise ValueError(f"no timing spec for family {family!r}")


def build_ms(n: int, family: str, repeats: int) -> tuple[float, float]:
    """Median milliseconds of one ``build`` of the PSD and of the
    indefinite problem, timed in alternation."""
    specs = (spec(family, n, True), spec(family, n, False))
    samples = ([], [])
    for _ in range(repeats):
        for s, out in zip(specs, samples):
            start = time.perf_counter()
            build(s)
            out.append((time.perf_counter() - start) * 1e3)
    return float(np.median(samples[0])), float(np.median(samples[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="*", type=_size,
                        default=list(DEFAULT_SIZES), metavar="N")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    print(f"import_s {import_seconds(args.repeats):.4f}")
    print(f"{'n':>6} {'family':<10} {'psd_ms':>10} {'indefinite_ms':>14}")
    for n in args.sizes:
        for family in FAMILIES:
            psd, indefinite = build_ms(n, family, args.repeats)
            print(f"{n:6d} {family:<10} {psd:10.3f} {indefinite:14.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
