"""Command-line front end: problem files in, trace CSV and report JSON out.

Usage::

    stiefel-scf run --problem prob.json --solver nepv [--tol 1e-8]
                 [--max-iter N] [--seed N] [--trace out.csv]
                 [--report out.json] [--oracle BUDGET]
                 [--audit {grad,series,theta,certs,all}] [--batch DIR]

Exit codes: 0 converged, 1 input error, failed solve or unwritable output,
2 iteration budget exhausted, 3 audit failure or a solve stopped by a
violated declared ascent.
Set STIEFEL_SCF_LOG={off,info,debug} for logging.
Runs are reproducible bit-for-bit given the problem file, flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import tempfile
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
from .kernels import as_matrix, random_stiefel
from .nepv import nepv_certificates, nepv_locg, nepv_scf
from .npdo import NpdoConfig, npdo_certificates, npdo_locg, npdo_scf
from .objective import FIELD_IDENTITY_TOL
from .problems import ProblemSpec, build

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MAXITER = 2
EXIT_AUDIT = 3

TRACE_HEADER = ("iter,f,eps_kkt,eps_sym,eps_nepv,"
                "gap_or_sigmamin,eta,step_angle,m_asymmetry")

SOLVERS = {
    "npdo": npdo_scf,
    "npdo-locg": npdo_locg,
    "nepv": nepv_scf,
    "nepv-locg": nepv_locg,
}

logger = logging.getLogger("stiefelscf")


class ProblemFileError(ValueError):
    """Malformed problem file; the message names the offending field."""


def _integer(x) -> int:
    # JSON integers, or floats with an integral value; not booleans.
    if isinstance(x, bool) or int(x) != x:
        raise ValueError(x)
    return int(x)


def _real(x) -> float:
    # JSON numbers; not booleans or strings.
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(x)
    return float(x)


def _finite(x) -> float:
    x = _real(x)
    if not np.isfinite(x):
        raise ValueError(x)
    return x


def _field(doc: dict, key: str, convert, what: str):
    # One scalar field of the document, converted; an error names the field.
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError):
        raise ProblemFileError(f"field {key!r} must be {what}")


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
    n = _field(doc, "n", _integer, "an integer")
    k = _field(doc, "k", _integer, "an integer")
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
            blocks = tuple(tuple(_integer(c) for c in b) for b in blocks)
        except (TypeError, ValueError, OverflowError):
            raise ProblemFileError("field 'blocks' must be a list of index lists")
    theta = doc.get("theta")
    if theta is not None:
        theta = _field(doc, "theta", _real, "a number")
    phi_weight = 1.0
    if "phi_weight" in doc:
        phi_weight = _field(doc, "phi_weight", _finite, "a finite number")
    phi = doc.get("phi", "sum")
    if not isinstance(phi, str):
        raise ProblemFileError("field 'phi' must be a string")
    try:
        return ProblemSpec(family=family, n=n, k=k, matrices=matrices,
                           theta=theta, blocks=blocks,
                           phi=phi, phi_weight=phi_weight)
    except ValueError as exc:
        raise ProblemFileError(str(exc))


def _fmt(x) -> str:
    # repr(float(x)) writes a non-finite value as "inf", "-inf" or "nan".
    return "" if x is None else repr(float(x))


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
    """The report payload ``value`` (nested dicts of scalars) with numpy
    scalars as Python ones and each non-finite float as its repr ("inf",
    "-inf", "nan", as ``_fmt`` writes them)."""
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def write_report(path, payload: dict) -> None:
    """Write the report as strict JSON, atomically (temp file + rename)."""
    _atomic_write(path, json.dumps(_jsonable(payload), indent=2,
                                   sort_keys=True, allow_nan=False) + "\n")


def _certificates(obj, P, framework: str) -> dict:
    """The exit certificates of ``framework`` ("npdo" or "nepv") at P."""
    return (npdo_certificates if framework == "npdo"
            else nepv_certificates)(obj, P)


def _audit_refusal(audit: str, obj, report, framework: str) -> str | None:
    """Why ``audit`` does not cover ``report``'s solve of ``obj``, or None.

    The series bound holds for plain steps of ``framework`` only (the outer
    records of ``nepv_locg`` carry no gap, which would weigh every term 0),
    and only the plain eigenvector route of a ratio problem records the
    alignment terms the theta bound replays.
    """
    if audit == "series" and report.solver not in ("", framework):
        return "series audit needs --solver npdo or nepv"
    if audit == "theta":
        if obj.theta_data is None:
            return "theta audit requested for a non-ratio problem"
        if report.solver != "nepv":
            return "theta audit needs --solver nepv"
    return None


def run_audits(which: set[str], obj, report, spec, framework: str, *,
               certs: dict | None = None) -> tuple[dict, bool]:
    """Execute the requested audits; returns (diagnostics, all_passed).

    An audit that does not cover the solve (``_audit_refusal``) raises
    ``ProblemFileError`` with the reason.  The ``certs`` audit checks the
    certificates of ``framework`` at the report's point: ``certs`` when
    given (as ``run_one`` computed them for its report), else computed here.
    """
    for audit in sorted(which):
        reason = _audit_refusal(audit, obj, report, framework)
        if reason is not None:
            raise ProblemFileError(reason)
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
        res = theta_step_audit(report, ratio.B, ratio.D, ratio.theta)
        diag["theta_step"] = res
        ok &= res["ok"]
    if "certs" in which:
        mono = monotonicity_audit(report)
        diag["monotone"] = mono
        certs_ok = mono["ok"]
        c = certs
        if c is None:
            # As in the solve, a non-finite value is a result, not a warning.
            with np.errstate(all="ignore"):
                c = _certificates(obj, report.point, framework)
        if "lambda_min_of_multiplier" in c:
            certs_ok &= (c["lambda_min_of_multiplier"]
                         >= -1e-8 * max(c["multiplier_norm"], 1e-300))
        if "omega_vs_topk_max_dev" in c:
            certs_ok &= (c["omega_vs_topk_max_dev"]
                         <= 1e-6 * max(c["field_norm"], 1e-300))
            certs_ok &= c["mismatch_asymmetry"] <= 1e-6
            certs_ok &= c["field_identity"] <= FIELD_IDENTITY_TOL
        if "alignment_psd_margin" in c:
            certs_ok &= (c["alignment_psd_margin"]
                         >= -1e-8 * max(c["alignment_matrix_norm"], 1.0))
        diag["certificates_ok"] = certs_ok
        ok &= certs_ok
    return diag, ok


def run_one(args) -> int:
    """Solve one problem file per the parsed CLI arguments."""
    framework = "npdo" if args.solver.startswith("npdo") else "nepv"
    try:
        # Finite but huge input overflows in the builder's norm and spectrum
        # checks; the solve reports it, so numpy's overflow messages are
        # noise.  The builder never warns: a lost ascent guarantee reaches
        # the report as diagnostics.declared_ascent.
        with np.errstate(over="ignore", invalid="ignore"):
            spec = load_problem(args.problem)
            obj = build(spec)
        cfg = NpdoConfig(tol=args.tol, max_iter=args.max_iter)
        P0 = random_stiefel(spec.n, spec.k, args.seed)
    except Exception as exc:
        # Any failure ends this problem only, so a batch runs the others.
        logger.debug("input error in %s", args.problem, exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        # A numerical failure ends the solve with an exception, so numpy's
        # floating-point messages are noise.  errstate, unlike a process-wide
        # filter, is context-local and so safe in batch threads.
        with np.errstate(all="ignore"):
            report = SOLVERS[args.solver](obj, P0, cfg)
            certs = _certificates(obj, report.point, framework)
    except Exception as exc:
        # ValueError and LinAlgError from a numerical failure, or anything
        # else: it ends this solve only, so a batch still runs the others.
        logger.debug("solve of %s failed", args.problem, exc_info=True)
        print(f"error: solve failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    logger.info("%s on %s: f = %.12g, converged = %s in %d iterations",
                args.solver, spec.family, report.f_final, report.converged,
                report.num_iterations)

    payload = {
        "problem": str(args.problem),
        "solver": args.solver,
        "converged": report.converged,
        "iters": report.num_iterations,
        "f_final": report.f_final,
        "certificates": certs,
        "diagnostics": {"stop_reason": report.stop_reason,
                        "f_initial": report.f_initial,
                        "inner_iters": sum(rec.inner_iters or 0
                                           for rec in report.iterations),
                        "declared_ascent": getattr(obj, f"{framework}_monotone")},
    }
    if spec.family == "procrustes":
        # As the builder reads them: a 1-d array is one column.
        C, B = (as_matrix(spec.matrices[name]) for name in "CB")
        payload["diagnostics"]["procrustes_residual"] = float(
            np.linalg.norm(C @ report.point - B))

    audits_ok = True
    if args.audit:
        # "all" skips the audits whose bounds do not cover this solve.
        which = ({a for a in ("grad", "series", "theta", "certs")
                  if _audit_refusal(a, obj, report, framework) is None}
                 if args.audit == "all" else {args.audit})
        try:
            diag, audits_ok = run_audits(which, obj, report, spec, framework,
                                         certs=certs)
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

    for path, write, data in ((args.trace, write_trace, report),
                              (args.report, write_report, payload)):
        if path:
            try:
                write(path, data)
            except OSError as exc:
                # An unwritable output path ends this problem only.
                print(f"error: cannot write {path}: {exc.strerror or exc}",
                      file=sys.stderr)
                return EXIT_INPUT
    if report.stop_reason == "ascent_violated":
        # The objective broke the ascent it declares: an audit failure.
        return EXIT_AUDIT
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built on the first call (the first ``main``) and kept: a parse reads
    # the parser and changes nothing, and building it costs about 0.3 ms.
    # It is not built at import, which stays cheap.
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
                     help="seed (>= 0) for the initial point (solves are "
                          "otherwise deterministic)")
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


def _check_settings(args) -> None:
    """Reject a bad ``--seed``, ``--tol``, ``--max-iter`` or ``--oracle``
    with ValueError.

    These settings are shared by every problem of a run, so they are checked
    once, before any problem is read: a batch with a bad one writes nothing.
    """
    if args.seed < 0:
        raise ValueError("seed must be >= 0")
    if args.oracle is not None and args.oracle < 1:
        raise ValueError("oracle budget must be >= 1")
    NpdoConfig(tol=args.tol, max_iter=args.max_iter)


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        _check_settings(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.batch is not None:
        return run_batch(args)
    if args.problem is None:
        print("error: --problem or --batch is required", file=sys.stderr)
        return EXIT_INPUT
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
