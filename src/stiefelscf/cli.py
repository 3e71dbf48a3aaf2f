"""Command-line front end: problem files in, trace CSV and report JSON out.

Usage::

    stiefel-scf run --problem prob.json --solver nepv [--tol 1e-8]
                 [--max-iter N] [--seed N] [--trace out.csv]
                 [--report out.json] [--oracle BUDGET]
                 [--audit {grad,series,theta,certs,all}] [--batch DIR]

Exit codes: 0 converged, 1 input error or failed solve, 2 iteration budget
exhausted, 3 audit failure.  Set STIEFEL_SCF_LOG={off,info,debug} for logging.
Runs are reproducible bit-for-bit given the problem file, flags and seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .diagnostics import (
    SizeTooLargeForOracle,
    brute_force_oracle,
    gradient_check,
    monotonicity_audit,
    series_audit,
    theta_step_audit,
)
from .kernels import random_stiefel
from .nepv import NepvConfig, nepv_locg, nepv_scf
from .npdo import NpdoConfig, npdo_locg, npdo_scf
from .problems import ProblemSpec, build, procrustes_residual

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MAXITER = 2
EXIT_AUDIT = 3

TRACE_HEADER = ("iter,f,eps_kkt,eps_sym,eps_nepv,"
                "gap_or_sigmamin,eta,step_angle,m_asymmetry")

SOLVERS = {
    "npdo": (npdo_scf, NpdoConfig),
    "npdo-locg": (npdo_locg, NpdoConfig),
    "nepv": (nepv_scf, NepvConfig),
    "nepv-locg": (nepv_locg, NepvConfig),
}

logger = logging.getLogger("stiefelscf")


class ProblemFileError(ValueError):
    """Malformed problem file; the message names the offending field."""


def load_problem(path) -> ProblemSpec:
    """Parse a problem JSON file into a ProblemSpec.

    Matrix entries are row-major nested arrays of decimal literals; lists of
    matrices use the *_list keys.  Raises ProblemFileError naming the bad
    field on any inconsistency.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ProblemFileError(f"problem file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"invalid JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise ProblemFileError("problem file must hold a JSON object")
    for key in ("family", "n", "k"):
        if key not in doc:
            raise ProblemFileError(f"missing required field {key!r}")
    family = doc["family"]
    try:
        n, k = int(doc["n"]), int(doc["k"])
    except (TypeError, ValueError):
        raise ProblemFileError("fields 'n' and 'k' must be integers")
    matrices = {}
    raw = doc.get("matrices", {})
    if not isinstance(raw, dict):
        raise ProblemFileError("field 'matrices' must be an object")
    for name, val in raw.items():
        try:
            if name.endswith("_list"):
                matrices[name] = [np.asarray(m, dtype=float) for m in val]
            else:
                matrices[name] = np.asarray(val, dtype=float)
        except (TypeError, ValueError):
            raise ProblemFileError(f"matrix {name!r} is not a numeric array")
    blocks = doc.get("blocks")
    if blocks is not None:
        try:
            blocks = tuple(tuple(int(c) for c in b) for b in blocks)
        except (TypeError, ValueError):
            raise ProblemFileError("field 'blocks' must be a list of index lists")
    theta = doc.get("theta")
    if theta is not None:
        try:
            theta = float(theta)
        except (TypeError, ValueError):
            raise ProblemFileError("field 'theta' must be a number")
    try:
        return ProblemSpec(family=family, n=n, k=k, matrices=matrices,
                           theta=theta, blocks=blocks,
                           phi=doc.get("phi", "sum"),
                           phi_weight=float(doc.get("phi_weight", 1.0)))
    except ValueError as exc:
        raise ProblemFileError(str(exc))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and not np.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return repr(float(x))


def write_trace(path, report) -> None:
    """Write the iteration trace as CSV, atomically (temp file + rename)."""
    rows = [TRACE_HEADER]
    for rec in report.iterations:
        gap_or_sigma = rec.sigma_min if rec.sigma_min is not None else rec.gap
        rows.append(",".join([
            str(rec.index), _fmt(rec.f), _fmt(rec.eps_kkt), _fmt(rec.eps_sym),
            _fmt(rec.eps_nepv), _fmt(gap_or_sigma), _fmt(rec.eta),
            _fmt(rec.step_angle), _fmt(rec.m_asymmetry),
        ]))
    _atomic_write(path, "\n".join(rows) + "\n")


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def write_report(path, payload: dict) -> None:
    clean = json.loads(json.dumps(payload, default=_jsonable, sort_keys=True))
    _atomic_write(path, json.dumps(clean, indent=2, sort_keys=True) + "\n")


def run_audits(which: set[str], obj, report, spec, framework: str) -> tuple[dict, bool]:
    """Execute the requested audits; returns (diagnostics, all_passed)."""
    diag: dict = {}
    ok = True
    if "grad" in which:
        err = gradient_check(obj, trials=5)
        diag["gradient_check"] = err
        ok &= err <= 1e-6
    if "series" in which:
        res = series_audit(report, framework)
        diag["series"] = res
        ok &= res["ok"]
    if "theta" in which:
        ratio = obj.theta_data
        if ratio is None:
            raise ProblemFileError("theta audit requested for a non-ratio problem")
        if report.solver != "nepv":
            # Only the plain eigenvector route records the alignment terms
            # the per-step bound replays.
            raise ProblemFileError("theta audit needs --solver nepv")
        res = theta_step_audit(report, ratio.B, ratio.D, ratio.theta)
        diag["theta_step"] = res
        ok &= res["ok"]
    if "certs" in which:
        mono = monotonicity_audit(report)
        diag["monotone"] = mono
        certs_ok = mono["ok"]
        c = report.certificates
        if "lambda_min_of_multiplier" in c:
            certs_ok &= (c["lambda_min_of_multiplier"]
                         >= -1e-8 * max(c["multiplier_norm"], 1e-300))
        if "omega_vs_topk_max_dev" in c:
            certs_ok &= (c["omega_vs_topk_max_dev"]
                         <= 1e-6 * max(c["field_norm"], 1e-300))
            certs_ok &= c["mismatch_asymmetry"] <= 1e-6
        if "alignment_psd_margin" in c:
            certs_ok &= (c["alignment_psd_margin"]
                         >= -1e-8 * max(c["alignment_matrix_norm"], 1.0))
        diag["certificates_ok"] = certs_ok
        ok &= certs_ok
    return diag, ok


def run_one(args) -> int:
    """Solve one problem file per the parsed CLI arguments."""
    try:
        spec = load_problem(args.problem)
        obj = build(spec)
    except (ProblemFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    solver_fn, cfg_cls = SOLVERS[args.solver]
    cfg = cfg_cls(tol=args.tol, max_iter=args.max_iter)
    P0 = random_stiefel(spec.n, spec.k, args.seed)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = solver_fn(obj, P0, cfg)
    except ValueError as exc:
        # Includes LinAlgError: a numerical failure ends this solve only,
        # so a batch still runs its other problems.
        print(f"error: solve failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    framework = "npdo" if args.solver.startswith("npdo") else "nepv"
    logger.info("%s on %s: f = %.12g, converged = %s in %d iterations",
                args.solver, spec.family, report.f_final, report.converged,
                report.num_iterations)

    payload = {
        "problem": str(args.problem),
        "solver": args.solver,
        "converged": report.converged,
        "iters": report.num_iterations,
        "f_final": report.f_final,
        "certificates": dict(report.certificates),
        "diagnostics": {"stop_reason": report.stop_reason,
                        "f_initial": report.f_initial},
    }
    if obj.meta.get("family") == "procrustes":
        payload["diagnostics"]["procrustes_residual"] = procrustes_residual(
            obj, report.point)

    audits_ok = True
    if args.audit:
        which = ({"grad", "series", "theta", "certs"} if args.audit == "all"
                 else {args.audit})
        if args.audit == "all" and (obj.theta_data is None
                                    or args.solver != "nepv"):
            which.discard("theta")
        try:
            diag, audits_ok = run_audits(which, obj, report, spec, framework)
        except ProblemFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        payload["diagnostics"].update(diag)

    if args.oracle is not None:
        try:
            best_f, _ = brute_force_oracle(obj, budget=args.oracle,
                                           seed=args.seed)
        except SizeTooLargeForOracle as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        payload["diagnostics"]["oracle_best"] = best_f
        payload["diagnostics"]["oracle_gap"] = best_f - report.f_final

    if args.trace:
        write_trace(args.trace, report)
    if args.report:
        write_report(args.report, payload)
    return exit_code(report.converged, audits_ok)


def exit_code(converged: bool, audits_ok: bool) -> int:
    if not converged:
        return EXIT_MAXITER
    if not audits_ok:
        return EXIT_AUDIT
    return EXIT_OK


def run_batch(args) -> int:
    """Run every *.json problem in a directory, one solve per worker.

    Output files land next to each problem file as <stem>_trace.csv and
    <stem>_report.json; the exit code is the worst per-problem code.
    """
    directory = Path(args.batch)
    files = sorted(p for p in directory.glob("*.json")
                   if not p.name.endswith("_report.json"))
    if not files:
        print(f"error: no problem files in {directory}", file=sys.stderr)
        return EXIT_INPUT

    def one(path):
        sub = argparse.Namespace(**vars(args))
        sub.problem = path
        sub.batch = None
        sub.trace = path.with_name(path.stem + "_trace.csv")
        sub.report = path.with_name(path.stem + "_report.json")
        return run_one(sub)

    workers = min(len(files), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        codes = list(pool.map(one, files))
    return max(codes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiefel-scf",
        description="SCF solvers for trace objectives on the Stiefel manifold")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="solve a problem file (or a batch)")
    run.add_argument("--problem", type=Path, help="problem JSON file")
    run.add_argument("--solver", choices=sorted(SOLVERS), default="nepv")
    run.add_argument("--tol", type=float, default=1e-8)
    run.add_argument("--max-iter", type=int, default=5000)
    run.add_argument("--seed", type=int, default=0,
                     help="seed for the initial point (solves are otherwise "
                          "deterministic)")
    run.add_argument("--trace", type=Path, help="write iteration trace CSV here")
    run.add_argument("--report", type=Path, help="write report JSON here")
    run.add_argument("--oracle", type=int, metavar="BUDGET",
                     help="compare against the brute-force oracle (n<=6, k<=2)")
    run.add_argument("--audit", choices=["grad", "series", "theta", "certs", "all"])
    run.add_argument("--batch", type=Path, metavar="DIR",
                     help="solve every *.json in DIR")
    return parser


def _setup_logging() -> None:
    level = os.environ.get("STIEFEL_SCF_LOG", "off").lower()
    if level in ("info", "debug"):
        logging.basicConfig(level=getattr(logging, level.upper()),
                            format="%(name)s %(levelname)s %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    if args.batch is not None:
        return run_batch(args)
    if args.problem is None:
        print("error: --problem or --batch is required", file=sys.stderr)
        return EXIT_INPUT
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
