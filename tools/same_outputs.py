#!/usr/bin/env python3
"""Check that two program trees give the same outputs on the benchmark's
instances.

Usage::

    python tools/same_outputs.py OLD_SRC NEW_SRC [--tiny]

OLD_SRC and NEW_SRC are directories holding a ``stiefelscf`` package, such
as the ``src`` of two checkouts.  For each workload of
``perfbench.workloads`` (instance set 0 of seed 0, at full size and tiny, or
tiny only with ``--tiny``) every (instance, solver) pair is solved through
``stiefelscf.cli.main(["run", ..., "--seed", <start seed>, "--audit",
"certs", "--trace", ..., "--report", ...])``, with the solver settings the
benchmark uses.  Each side runs in one subprocess with ``PYTHONPATH`` set to
its tree and BLAS at one thread.  The problem files, the traces, the
report texts (each side's problem path masked) and the exit codes are then
compared byte for byte; each
pair that differs is printed with what differs, and the exit code is 1 if
any pair differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Environment of each side: BLAS at one thread makes runs bit-for-bit
# repeatable.
_ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# The program of each side's subprocess: argv is this directory, the output
# directory and the sizes.
_SIDE = ("import sys\n"
         "sys.path.append(sys.argv[1])\n"
         "import same_outputs\n"
         "same_outputs.run_side(*sys.argv[2:])\n")


def run_side(out: str, *sizes: str) -> None:
    """Solve every pair of ``sizes`` ("full", "tiny") with the
    ``stiefelscf`` on ``PYTHONPATH``; write the problem files, traces and
    reports under ``out`` and the exit codes to ``out/codes.json``."""
    import stiefelscf
    from stiefelscf import cli
    from stiefelscf.kernels import random_stiefel

    sys.path.append(str(ROOT))
    from perfbench.workloads import MAX_ITER, TOL, WORKLOADS, make_pool

    side = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(stiefelscf.__file__).resolve().parents[1] != side:
        raise SystemExit(f"imported stiefelscf from {stiefelscf.__file__}, "
                         f"not from {side}")
    out, codes = Path(out), {}
    for size in sizes:
        for name, workload in WORKLOADS.items():
            for inst in make_pool(workload, 0, size == "tiny", random_stiefel)[0]:
                d = out / size / name / inst.label
                d.mkdir(parents=True)
                problem = d / "problem.json"
                problem.write_text(json.dumps(inst.problem_document()))
                for solver in inst.solvers:
                    codes[f"{size}/{name}/{inst.label}/{solver}"] = cli.main([
                        "run", "--problem", str(problem), "--solver", solver,
                        "--tol", repr(TOL), "--max-iter", str(MAX_ITER),
                        "--seed", str(inst.start_seed), "--audit", "certs",
                        "--trace", str(d / f"{solver}.csv"),
                        "--report", str(d / f"{solver}.json")])
    (out / "codes.json").write_text(json.dumps(codes))


def _outputs(out: Path, key: str, code) -> dict:
    # What one side produced for one pair; a missing file reads as None.
    d, solver = out / key.rsplit("/", 1)[0], key.rsplit("/", 1)[1]

    def read(path):
        return path.read_text() if path.is_file() else None

    report = read(d / f"{solver}.json")
    if report is not None:
        # The text, so whitespace, key order and float spelling count too.
        report = report.replace(json.dumps(str(d / "problem.json")),
                                '"<problem>"')
    return {"exit code": code, "problem": read(d / "problem.json"),
            "trace": read(d / f"{solver}.csv"), "report": report}


def compare(old: Path, new: Path) -> tuple[int, dict[str, list[str]]]:
    """The number of pairs, and for each pair that differs, what differs."""
    codes = [json.loads((side / "codes.json").read_text())
             for side in (old, new)]
    keys = sorted(set(codes[0]) | set(codes[1]))
    differing = {}
    for key in keys:
        a, b = (_outputs(side, key, c.get(key))
                for side, c in zip((old, new), codes))
        parts = [part for part in a if a[part] != b[part]]
        if parts:
            differing[key] = parts
    return len(keys), differing


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_src", type=Path)
    p.add_argument("new_src", type=Path)
    p.add_argument("--tiny", action="store_true",
                   help="the tiny instances only")
    args = p.parse_args(argv)
    sizes = ["tiny"] if args.tiny else ["full", "tiny"]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "old", Path(tmp) / "new"]
        procs = []
        for src, out in zip((args.old_src, args.new_src), outs):
            out.mkdir()
            env = dict(os.environ, **_ONE_THREAD,
                       PYTHONPATH=str(src.resolve()))
            procs.append(subprocess.Popen(
                [sys.executable, "-c", _SIDE, str(ROOT / "tools"), str(out),
                 *sizes], env=env, cwd=out))
        if any([proc.wait() != 0 for proc in procs]):
            print("error: a side failed to run", file=sys.stderr)
            return 2
        total, differing = compare(*outs)
    for key, parts in differing.items():
        print(f"differs: {key} ({', '.join(parts)})")
    print(f"{len(differing)} of {total} (instance, solver) pairs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
