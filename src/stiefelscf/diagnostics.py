"""Independent oracles and audits for solver output.

Everything here deliberately avoids the solvers' own formulas: gradients are
checked against central finite differences, optima against exhaustive or
multi-start search at desk scale, and convergence traces against the
per-step inequalities and summability bounds the ascent theory provides.
"""

from __future__ import annotations

import numpy as np

from .kernels import random_stiefel
from .nepv import NepvConfig, nepv_scf
from .npdo import MONOTONE_SLACK
from .objective import ComposedObjective

__all__ = [
    "SizeTooLargeForOracle",
    "brute_force_oracle",
    "gradient_check",
    "monotonicity_audit",
    "series_audit",
    "theta_step_audit",
]

# Hard size cap for exhaustive verification; beyond this the oracle would be
# too slow or too unreliable to serve as ground truth.
ORACLE_MAX_N = 6
ORACLE_MAX_K = 2

SERIES_SLACK = 1e-8

# Central-difference step of ``gradient_check``.
FD_STEP = 1e-6


class SizeTooLargeForOracle(ValueError):
    """Brute-force verification is restricted to n <= 6, k <= 2."""


def gradient_check(obj: ComposedObjective, trials: int = 20,
                   seed: int = 0) -> float:
    """Worst relative error of the analytic gradient against central
    finite differences (step ``FD_STEP``) over all n*k entries at
    ``trials`` random points.

    The error at each point is ||FD - G||_F / max(1, ||G||_F); the maximum
    over points is returned.
    """
    n, k = obj.n, obj.k
    worst = 0.0
    for t in range(trials):
        P = random_stiefel(n, k, seed + 7919 * t)
        G = obj.euclidean_grad(P)
        FD = np.empty_like(G)
        for i in range(n):
            for j in range(k):
                E = np.zeros((n, k))
                E[i, j] = FD_STEP
                FD[i, j] = (obj.value(P + E) - obj.value(P - E)) / (2.0 * FD_STEP)
        err = np.linalg.norm(FD - G) / max(1.0, np.linalg.norm(G))
        worst = max(worst, float(err))
    return worst


def _polish(obj: ComposedObjective, P0):
    cfg = NepvConfig(tol=1e-10, max_iter=400)
    try:
        rep = nepv_scf(obj, P0, cfg)
        return rep.f_final, rep.point
    except ValueError:
        return obj.value(P0), P0


def brute_force_oracle(obj: ComposedObjective, budget: int = 2000,
                       seed: int = 0):
    """Desk-scale global-maximum search: dense sampling plus SCF polish.

    For k = 1 on the circle (n = 2) the unit sphere is swept on a uniform
    angular grid of ``budget`` points; for k = 1 in higher dimensions,
    ``budget`` seeded random directions (plus the coordinate axes) are
    sampled and the 20 best are polished by the eigenvector SCF.  For k = 2,
    ``budget`` random orthonormal starts are polished.  Returns
    ``(best_f, best_P)``.
    """
    if not budget >= 1:
        raise ValueError(f"budget must be >= 1, got {budget!r}")
    n, k = obj.n, obj.k
    if n > ORACLE_MAX_N or k > ORACLE_MAX_K:
        raise SizeTooLargeForOracle(
            f"oracle supports n <= {ORACLE_MAX_N}, k <= {ORACLE_MAX_K}; "
            f"got n = {n}, k = {k}")
    rng = np.random.default_rng(seed)

    def safe_value(P):
        try:
            return obj.value(P)
        except ValueError:
            return -np.inf

    best_f, best_P = -np.inf, None
    if k == 1:
        if n == 2:
            angles = np.linspace(0.0, 2.0 * np.pi, budget, endpoint=False)
            candidates = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        else:
            G = rng.standard_normal((budget, n))
            axes = np.vstack([np.eye(n), -np.eye(n)])
            candidates = np.vstack([G / np.linalg.norm(G, axis=1, keepdims=True),
                                    axes])
        values = np.array([safe_value(c.reshape(-1, 1)) for c in candidates])
        order = np.argsort(values)[::-1]
        for idx in order[:20]:
            f_c, P_c = _polish(obj, candidates[idx].reshape(-1, 1))
            if f_c > best_f:
                best_f, best_P = f_c, P_c
        top = order[0]
        if values[top] > best_f:
            best_f, best_P = values[top], candidates[top].reshape(-1, 1)
    else:
        for t in range(budget):
            P0 = random_stiefel(n, k, seed + 104729 * (t + 1))
            f_c, P_c = _polish(obj, P0)
            if f_c > best_f:
                best_f, best_P = f_c, P_c
    return float(best_f), best_P


def monotonicity_audit(report) -> dict:
    """Check the recorded f sequence is non-decreasing up to rounding slack.

    Returns {"ok", "worst_violation"}; the violation is max(f_i - f_{i+1})
    over consecutive records (0 when monotone), measured against the slack
    1e-12 * max(1, |f|).
    """
    fs = [report.f_initial] + [r.f for r in report.iterations]
    worst = 0.0
    ok = True
    for a, b in zip(fs, fs[1:]):
        drop = a - b
        worst = max(worst, drop)
        if drop > MONOTONE_SLACK * max(1.0, abs(a)):
            ok = False
    return {"ok": ok, "worst_violation": worst}


def series_audit(report, framework: str) -> dict:
    """Summability audit of a plain-SCF trace.

    Both weighted series -- weight * sin^2(step angle) and
    weight * residual^2, with weight = sigma_min of the gradient (polar
    framework) or the eigenvalue gap (eigenvector framework) -- must have
    non-decreasing partial sums bounded by 2 (f_final - f_initial) + slack.
    The audit also rechecks f-monotonicity: an oscillating trace must fail.
    A report whose ``solver`` names any other solver than ``framework``'s
    plain one raises ``ValueError``: the bound holds for plain steps only,
    and the outer records of ``nepv_locg`` carry no gap, which would weigh
    every term 0.  A report built by hand, whose ``solver`` is empty, is
    audited as its records stand.
    """
    if framework not in ("npdo", "nepv"):
        raise ValueError(f"framework must be 'npdo' or 'nepv', got {framework!r}")
    if report.solver not in ("", framework):
        raise ValueError(f"series audit of {framework} needs a plain "
                         f"{framework} trace, got a {report.solver} report")
    if not report.iterations:
        return {"ok": True, "sum_angles": 0.0, "sum_residuals": 0.0,
                "bound": SERIES_SLACK, "monotone": True, "terms_nonneg": True}
    s_angle = 0.0
    s_resid = 0.0
    terms_nonneg = True
    for rec in report.iterations:
        if framework == "npdo":
            w = rec.sigma_min if rec.sigma_min is not None else 0.0
            eps = rec.eps_kkt if rec.eps_kkt is not None else 0.0
        else:
            w = rec.gap if rec.gap is not None and np.isfinite(rec.gap) else 0.0
            eps = rec.eps_nepv if rec.eps_nepv is not None else 0.0
        if w < -SERIES_SLACK:
            terms_nonneg = False
        s_angle += w * rec.step_angle**2
        s_resid += w * eps**2
    f_final = report.iterations[-1].f
    bound = 2.0 * (f_final - report.f_initial) + SERIES_SLACK
    mono = monotonicity_audit(report)
    ok = (terms_nonneg and mono["ok"]
          and s_angle <= bound and s_resid <= bound)
    return {"ok": ok, "sum_angles": s_angle, "sum_residuals": s_resid,
            "bound": bound, "monotone": mono["ok"],
            "terms_nonneg": terms_nonneg}


def theta_step_audit(report, B, D, theta: float) -> dict:
    """Per-step lower-bound audit for the trace-ratio ascent refinement.

    Each eigenvector-SCF step must satisfy

        f_next - f >= 0.5 (s_k(B)/S_k(B))^theta * eta
                      + S_k(B)^(-theta) * (||Phat'D||_tr - tr(Phat'D P'Phat))

    where eta is the recorded trace gain, s_k/S_k are the sums of the k
    smallest/largest eigenvalues of B, and the last term is contributed by
    the alignment rotation.  At theta = 0 the B-dependent factors are 1.
    D is not read: the step records carry ||Phat'D||_tr and
    tr(Phat'D P'Phat) (``d_trace_norm``, ``d_cross``), 0 for a ratio with
    no D, so D may be None.
    Returns {"ok", "worst_slack"} with slack = LHS - RHS per step.
    """
    theta = float(theta)
    if not report.iterations:
        return {"ok": True, "worst_slack": 0.0}
    if report.iterations[0].d_trace_norm is None:
        raise ValueError("trace does not carry ratio-alignment records; "
                         "run a trace-ratio objective first")
    k = report.point.shape[1]
    if theta > 0.0:
        w = np.linalg.eigvalsh(np.asarray(B, dtype=float))
        s_k = float(w[:k].sum())
        S_k = float(w[-k:].sum())
        if s_k <= 0.0:
            raise ValueError("audit needs s_k(B) > 0")
        factor1 = 0.5 * (s_k / S_k) ** theta
        factor2 = S_k ** (-theta)
    else:
        factor1, factor2 = 0.5, 1.0
    worst = np.inf
    f_prev = report.f_initial
    for rec in report.iterations:
        d_term = rec.d_trace_norm - rec.d_cross
        rhs = factor1 * rec.eta + factor2 * d_term
        slack = (rec.f - f_prev) - rhs
        worst = min(worst, slack)
        f_prev = rec.f
    return {"ok": worst >= -SERIES_SLACK, "worst_slack": float(worst)}
