#!/usr/bin/env python3
"""Check that two program trees give the same outputs on the benchmark's
instances.

Usage::

    python tools/same_outputs.py OLD_SRC NEW_SRC [--tiny] [--rtol RTOL]

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

With ``--rtol`` each pair that differs is also printed with whether its
exit code, stop reason, iteration count and inner iteration count (the
report's ``diagnostics.inner_iters``, 0 for the plain solvers) match, and
with the largest relative difference in ``f_final`` and in each trace
column, a difference |a - b| taken relative to max(1, |a|), as the
package's own rounding slacks are.  A pair whose problem file, exit code, texts and non-numeric
values match, and whose numbers (trace cells and report values alike) all
lie within RTOL, counts as the same; only the other pairs set exit code 1.
The output then ends with one line naming every trace column and every
report key path that differs in any pair.

Each side's falsely converged pairs are printed too: those whose report
says ``converged`` while its certificate residual (``eps_kkt + eps_sym`` on
the polar route, ``eps_nepv`` on the eigenvector route) exceeds
``FALSE_MARGIN`` times the benchmark's tolerance, followed by the count on
each side.  They do not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
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

# A converged solve tests its residual on the evaluation it carries, the
# certificates on a fresh one; 1% of the tolerance absorbs their rounding.
FALSE_MARGIN = 1.01

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
    """The number of pairs, and for each pair that differs, the parts that
    differ and their ``numeric_diff``."""
    codes = [json.loads((side / "codes.json").read_text())
             for side in (old, new)]
    keys = sorted(set(codes[0]) | set(codes[1]))
    differing = {}
    for key in keys:
        a, b = (_outputs(side, key, c.get(key))
                for side, c in zip((old, new), codes))
        parts = [part for part in a if a[part] != b[part]]
        if parts:
            differing[key] = (parts, numeric_diff(a, b))
    return len(keys), differing


def false_convergence(out: Path, tol: float) -> dict[str, float]:
    """The pairs of one side whose report says ``converged`` while the
    certificate residual of their route exceeds ``FALSE_MARGIN * tol``,
    with that residual."""
    found = {}
    for key in json.loads((out / "codes.json").read_text()):
        path = out / f"{key}.json"
        if not path.is_file():
            continue
        report = json.loads(path.read_text())
        certs = report["certificates"]
        res = (certs["eps_kkt"] + certs["eps_sym"]
               if key.rsplit("/", 1)[1].startswith("npdo")
               else certs["eps_nepv"])
        if report["converged"] and res > FALSE_MARGIN * tol:
            found[key] = res
    return found


def _rel(a: float, b: float) -> float:
    # |a - b| relative to max(1, |a|); 0 for equal values, inf for unequal
    # ones of which one is not finite.
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return float("inf")
    return abs(a - b) / max(1.0, abs(a))


def _number(x):
    # The float of a trace cell or report value, or None for anything else
    # (an empty cell, a string, a bool).
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _json_diffs(a, b, path: str = "") -> dict[str, float]:
    # The relative difference of each value that differs between two parsed
    # reports, by key path; inf where their structure or a non-numeric
    # value differs.
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return {path: float("inf")}
        out = {}
        for key in a:
            out.update(_json_diffs(a[key], b[key], f"{path}.{key}".lstrip(".")))
        return out
    x, y = _number(a), _number(b)
    if x is None or y is None or isinstance(a, str) or isinstance(b, str):
        rel = 0.0 if a == b else float("inf")
    else:
        rel = _rel(x, y)
    return {path: rel} if rel else {}


def _trace_rel(a: str | None, b: str | None) -> dict[str, float]:
    # Per trace column, the largest relative difference; the key "rows" is
    # inf when the header or the row count differs.
    if a is None or b is None:
        return {"rows": 0.0 if a == b else float("inf")}
    (head_a, *rows_a), (head_b, *rows_b) = a.splitlines(), b.splitlines()
    if head_a != head_b or len(rows_a) != len(rows_b):
        return {"rows": float("inf")}
    names = head_a.split(",")
    worst = dict.fromkeys(names, 0.0)
    for row_a, row_b in zip(rows_a, rows_b):
        for name, x, y in zip(names, row_a.split(","), row_b.split(",")):
            if x != y:
                nx, ny = _number(x), _number(y)
                worst[name] = max(worst[name], float("inf") if nx is None
                                  or ny is None else _rel(nx, ny))
    return worst


def numeric_diff(a: dict, b: dict) -> dict:
    """How two sides' outputs of one pair (see ``_outputs``) differ:
    whether the exit code, stop reason, iteration count and inner
    iteration count match, the relative difference in ``f_final``, the largest one per trace column,
    the one of each report value that differs, by key path, and ``worst``,
    the largest relative difference over everything (inf where a
    non-numeric part differs)."""
    reports = [None if side["report"] is None else json.loads(side["report"])
               for side in (a, b)]

    def field(report, *path):
        for key in path:
            if not isinstance(report, dict):
                return None
            report = report.get(key)
        return report

    out = {"exit code": a["exit code"] == b["exit code"],
           "stop reason": (field(reports[0], "diagnostics", "stop_reason")
                           == field(reports[1], "diagnostics", "stop_reason")),
           "iterations": field(reports[0], "iters") == field(reports[1], "iters"),
           "inner iterations": (
               field(reports[0], "diagnostics", "inner_iters")
               == field(reports[1], "diagnostics", "inner_iters"))}
    out["f_final"] = max(_json_diffs(*(field(r, "f_final") for r in reports))
                         .values(), default=0.0)
    out["columns"] = _trace_rel(a["trace"], b["trace"])
    out["report"] = _json_diffs(*reports)
    same_text = a["problem"] == b["problem"] and out["exit code"]
    out["worst"] = max(0.0 if same_text else float("inf"),
                       *out["report"].values(), *out["columns"].values())
    return out


def _describe(diff: dict) -> list[str]:
    # The two lines printed under a differing pair in --rtol mode.
    match = "; ".join(f"{name} {'same' if diff[name] else 'DIFFERS'}"
                      for name in ("exit code", "stop reason", "iterations",
                                   "inner iterations"))
    cols = ", ".join(f"{name} {rel:.1e}" for name, rel in diff["columns"].items())
    path, rel = max(diff["report"].items(), key=lambda item: item[1],
                    default=("", 0.0))
    return [f"    {match}",
            f"    largest relative difference: f_final {diff['f_final']:.1e}; "
            f"report {rel:.1e} ({path}); trace {cols}"]


def _aggregate(differing: dict) -> str:
    # The closing line in --rtol mode: every trace column and report key
    # path that differs in any pair.
    diffs = [diff for _, diff in differing.values()]
    columns = sorted({name for diff in diffs
                      for name, rel in diff["columns"].items() if rel})
    keys = sorted({path or "<report>" for diff in diffs
                   for path in diff["report"]})
    return (f"differing trace columns: {', '.join(columns) or 'none'}; "
            f"report keys: {', '.join(keys) or 'none'}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_src", type=Path)
    p.add_argument("new_src", type=Path)
    p.add_argument("--tiny", action="store_true",
                   help="the tiny instances only")
    p.add_argument("--rtol", type=float, default=None,
                   help="count pairs whose numbers differ by at most this "
                        "relative amount as the same, and describe each "
                        "pair that differs")
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
        sys.path.append(str(ROOT))
        from perfbench.workloads import TOL
        false = [false_convergence(out, TOL) for out in outs]
    if any(false):
        for side, found in zip(("old", "new"), false):
            for key, res in found.items():
                print(f"falsely converged ({side}): {key} (certificate "
                      f"residual {res:.2e})")
        print(f"{len(false[0])} old, {len(false[1])} new pairs say converged "
              f"above {FALSE_MARGIN:g} x tol {TOL:g}")
    if args.rtol is None:
        for key, (parts, _) in differing.items():
            print(f"differs: {key} ({', '.join(parts)})")
        print(f"{len(differing)} of {total} (instance, solver) pairs differ")
        return 1 if differing else 0
    beyond = 0
    for key, (parts, diff) in differing.items():
        within = diff["worst"] <= args.rtol
        beyond += not within
        print(f"{'within rtol' if within else 'differs'}: {key} "
              f"({', '.join(parts)})")
        print("\n".join(_describe(diff)))
    print(f"{beyond} of {total} (instance, solver) pairs differ beyond rtol "
          f"{args.rtol:g}; {len(differing) - beyond} differ within it")
    print(_aggregate(differing))
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
