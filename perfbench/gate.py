"""Correctness gate applied to every solve, outside the timed region.

A solve passes only if it converged, its point is orthonormal, the
thresholds of the CLI ``certs`` audit hold, and the family-specific
references the benchmark computes itself agree with the solver's value:

* ``sep``: f equals the sum of the top-k eigenvalues of A from
  ``numpy.linalg.eigvalsh``, within 1e-8 relative;
* ``procrustes``: ||CP - B||_F^2 = ||B||_F^2 - f within 1e-8 relative.

Each check returns ``None`` on a pass and a one-line reason on a failure.
"""

from __future__ import annotations

import json

import numpy as np

ORTHO_TOL = 1e-10
REF_RTOL = 1e-8


def framework_of(solver: str) -> str:
    return "npdo" if solver.startswith("npdo") else "nepv"


def check_point(inst, report) -> str | None:
    """Convergence, orthonormality and the family references."""
    if not report.converged:
        return f"not converged (stop reason {report.stop_reason})"
    P = np.asarray(report.point, dtype=float)
    if P.shape != (inst.n, inst.k):
        return f"point has shape {P.shape}, expected {(inst.n, inst.k)}"
    drift = float(np.linalg.norm(P.T @ P - np.eye(inst.k)))
    if not drift <= ORTHO_TOL:
        return f"||P'P - I||_F = {drift:.3e} > {ORTHO_TOL:.0e}"
    f = float(report.f_final)
    if inst.family == "sep":
        ref = inst.ref["top_k_sum"]
        if not abs(f - ref) <= REF_RTOL * abs(ref):
            return f"sep: f = {f!r} but top-k eigenvalue sum = {ref!r}"
    if inst.family == "procrustes":
        C, B = inst.ref["C"], inst.ref["B"]
        lhs = float(np.linalg.norm(C @ P - B) ** 2)
        rhs = float(np.linalg.norm(B) ** 2) - f
        if not abs(lhs - rhs) <= REF_RTOL * max(abs(lhs), abs(rhs)):
            return f"procrustes: ||CP-B||^2 = {lhs!r} but ||B||^2 - f = {rhs!r}"
    return None


def check_library(cli, inst, obj, spec, solver, report) -> str | None:
    """Gate a library solve; ``cli`` is the ``stiefelscf.cli`` module."""
    reason = check_point(inst, report)
    if reason:
        return reason
    diag, ok = cli.run_audits({"certs"}, obj, report, spec,
                              framework_of(solver))
    if not ok:
        return f"certs audit failed: {diag}"
    return None


def check_cli(inst, exit_code, report_path, report) -> str | None:
    """Gate one ``cli.main`` solve.

    Needs exit code 0 (converged, certs audit passed) and a parseable report
    that agrees with the solver result captured in-process, which supplies
    the point for the orthonormality and reference checks.
    """
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        doc = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    if doc.get("converged") is not True:
        return "report says not converged"
    if report is None:
        return "no solver result captured"
    if doc.get("f_final") != float(report.f_final):
        return f"report f_final {doc.get('f_final')!r} != {report.f_final!r}"
    return check_point(inst, report)
