#!/usr/bin/env python3
"""Time-to-solution benchmark for the stiefelscf SCF solvers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {eigen-route,polar-route,desk-catalog}
                             --seed N --seconds S --trace {0,1} [--tiny]

``--trace 0`` times solves end to end with no tracing and prints the
end-to-end metrics; ``--trace 1`` runs a fixed pass in which every build and
solve runs untraced and then traced, and prints the per-layer metrics.  ``--tiny`` shrinks every
instance for the benchmark's own tests.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Spans and a
full result record (with the run environment) are written under
``.perfbench_run/``.  See ``perfbench/README.md``.
"""

import os
import sys

# BLAS is pinned to one thread before NumPy is imported: one client in one
# process, with no hidden parallelism to vary between runs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_run"
if __name__ == "__main__":
    sys.path[0] = str(ROOT)     # import perfbench as a package

import numpy as np  # noqa: E402

from perfbench import harness  # noqa: E402
from perfbench.harness import BenchError  # noqa: E402
from perfbench.workloads import MIN_SOLVES, WORKLOADS  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny instances, one instance set (self-test mode)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def environment(ss, args) -> dict:
    import scipy

    def blas(cfg):
        try:
            info = cfg(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception:  # noqa: BLE001 - informational only
            return "unknown"

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config), "scipy_blas": blas(scipy.show_config),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "stiefelscf": ss.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        # The solvers' ascent and field-identity asserts vanish under -O;
        # the numbers would measure a different program.
        print("perfbench: refusing to run under python -O", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    try:
        ss = harness.import_program()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = "-tiny" if args.tiny else ""
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        pool = harness.generate_pool(                  # not part of setup_s
            workload, args.seed, args.tiny, workdir / "pool.pickle")
        runner = harness.Runner(ss, workload, pool, workdir)
        wall = {}
        if args.trace:
            attempted, failed, metrics = harness.per_layer(
                runner, OUT / f"{args.workload}{tag}.spans.csv")
        else:
            attempted, failed, metrics, wall = harness.end_to_end(
                runner, args.seconds, 1 if args.tiny else MIN_SOLVES,
                1 if args.tiny else harness.SETUP_REPS)
        env = environment(ss, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, env=env, wall=wall, failures=runner.failures[:50],
                  pairs=runner.pair_summary())
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env, "wall": wall}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
