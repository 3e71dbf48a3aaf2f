"""Polar-decomposition SCF solver and its subspace-accelerated variant.

The plain iteration repeatedly replaces P by the orthogonal polar factor of
the Euclidean gradient, followed by the objective's alignment rotation; it
ascends f monotonically whenever the objective declares the framework's
ascent guarantee.  The accelerated variant maximizes over the subspace
spanned by [P, Riemannian gradient, previous iterate], solving the reduced
problem with the plain iteration.

Every solver in the package, the eigenvector route of ``stiefelscf.nepv``
included, runs one SCF loop (``_scf``) over a step kind: the polar step
here, the eigen step there, and the subspace step, whose inner solve
re-enters the same loop through the plain solver.  The public single-step
functions run the same step code as iteration 0 of their solver.

The loop carries the objective's ``PointEvaluation`` at the current iterate:
a step lands on P_next by evaluating f there, and the next iteration's
residual, step, alignment and, at exit, the certificates read the same
evaluation, so each iterate's A P products are formed once.  Inputs are
validated at the public entry points only.

A solve reports only through its ``SolveReport``: an exhausted budget is
``converged=False, stop_reason="max_iter"``, and what the theory's
assumptions say about each step (a degenerate eigenvalue gap, a violated
ratio sign condition) is a flag on that step's ``IterationRecord``.  A step
that lowers f although the objective declares the framework's ascent
guarantee is flagged ``ascent_violated`` and ends the solve with that stop
reason.  A solve never warns, and no check depends on
``python -O``.  A solve's settings are ``(tol, max_iter)``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .alignment import align_rotation
from .kernels import (
    _sym,
    canonical_sin_theta,
    orthonormalize_against,
    polar_factor,
    require_stiefel,
)
from .objective import ComposedObjective, PointEvaluation

__all__ = [
    "IterationRecord",
    "NpdoConfig",
    "SolveReport",
    "kkt_residuals",
    "npdo_locg",
    "npdo_scf",
    "npdo_scf_step",
]

logger = logging.getLogger("stiefelscf")

# Gradient norms below this count as an exactly stationary (degenerate) point.
ZERO_GRAD_FLOOR = 1e-300

# Monotonicity slack: ascent is exact in theory, rounding only in practice.
MONOTONE_SLACK = 1e-12

# Stagnation guard of the plain steps: stop after this many consecutive
# steps whose f-change |f_next - f| is below 1e-16 * max(1, |f_next|) while
# the residual stays above tolerance.
STAGNATION_LIMIT = 50

# Inner solve of the subspace step: each outer step solves its reduced
# problem to this fraction of the outer residual, within this budget.
INNER_TOL_FRACTION = 0.25
INNER_MAX_ITER = 200


@dataclass(frozen=True)
class NpdoConfig:
    """Settings of a solve, for every solver: the residual tolerance and the
    iteration budget (outer steps for the subspace-accelerated variants).

    Residuals are always scaled by the Frobenius norm of the gradient or
    field; the subspace inner solve uses ``INNER_TOL_FRACTION`` and
    ``INNER_MAX_ITER``.  ``max_iter = 0`` takes no step: the solve only
    certifies its (projected) start.
    """

    tol: float = 1e-8
    max_iter: int = 5000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


@dataclass(frozen=True)
class IterationRecord:
    """One row of a solve trace.

    ``sigma_min`` is the smallest singular value of the gradient (polar
    solver) and ``gap`` the eigenvalue gap lambda_k - lambda_{k+1} of the
    field (eigenvector solver); each trace fills the one that applies.  A
    warm eigenvector step (see ``stiefelscf.nepv``) records the Ritz gap
    theta_k - theta_{k+1} of the Krylov space it solved over, for which its
    step bound holds; a dense step records the field's own gap.
    ``eta`` is the trace gain of the inner step (the realized f-gain for
    accelerated outer steps); ``step_angle`` is the Frobenius sine distance
    between consecutive column spaces.  The eigenvector step flags a gap
    below ``nepv.GAP_DEGENERATE`` (``gap_degenerate``: whole-sequence
    convergence is not guaranteed, per-step ascent still holds) and an
    incoming P that fails the ratio sign condition tr(P'AP + P'D) >= 0
    (``sign_violated``: per-step ascent is no longer guaranteed).  A step
    of a solver whose ascent the objective declares sets ``ascent_violated``
    when it lowers f by more than ``MONOTONE_SLACK`` relative, which ends
    the solve.  An accelerated step sets any of the three flags when a
    record of its inner solve does.
    """

    index: int
    f: float
    eps_kkt: float | None = None
    eps_sym: float | None = None
    eps_nepv: float | None = None
    sigma_min: float | None = None
    gap: float | None = None
    eta: float = 0.0
    step_angle: float = 0.0
    m_asymmetry: float | None = None
    gap_degenerate: bool = False
    sign_violated: bool = False
    ascent_violated: bool = False
    inner_iters: int | None = None
    d_trace_norm: float | None = None
    d_cross: float | None = None


@dataclass
class SolveReport:
    """Outcome of a solve: final point, trace, and exit certificates.

    ``certificates`` holds the quantities the optimality theory makes
    testable at the returned point (multiplier spectrum / field spectrum
    agreement, mismatch asymmetry, alignment PSD margin, exit residuals).
    Whenever the objective declares the framework's ascent guarantee, the
    recorded f sequence is non-decreasing up to rounding slack, or the
    solve stops with ``stop_reason="ascent_violated"`` at the first step
    that breaks it.
    """

    point: np.ndarray
    f_final: float
    f_initial: float
    converged: bool
    stop_reason: str
    iterations: list[IterationRecord] = field(default_factory=list)
    certificates: dict = field(default_factory=dict)
    solver: str = ""

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)


def kkt_residuals(obj: ComposedObjective, P):
    """Normalized KKT residual and multiplier-symmetry residual at P.

    eps_kkt = ||G - P (P'G)||_F / xi and eps_sym = ||P'G - (P'G)'||_F / xi
    with G the Euclidean gradient and xi = ||G||_F.  A vanished gradient
    returns (0, 0): the point is stationary of a degenerate kind.
    """
    P = require_stiefel(P)
    return _kkt_residuals_from_grad(P, obj.euclidean_grad(P))


def _kkt_residuals_from_grad(P, G):
    xi = np.linalg.norm(G)
    if xi < ZERO_GRAD_FLOOR:
        return 0.0, 0.0
    PtG = P.T @ G
    eps_kkt = float(np.linalg.norm(G - P @ PtG) / xi)
    eps_sym = float(np.linalg.norm(PtG - PtG.T) / xi)
    return eps_kkt, eps_sym


def project_feasible(obj: ComposedObjective, P0) -> np.ndarray:
    """One alignment application, used to bring an infeasible start into the
    feasible subset (the same mechanism the iteration uses mid-run)."""
    return _feasible_start(obj, P0).P


def _feasible_start(obj: ComposedObjective, P0) -> PointEvaluation:
    # The evaluation at the projected start point (see project_feasible).
    start = PointEvaluation(obj, require_stiefel(P0))
    rule = obj.alignment
    try:
        if rule.is_feasible(start):
            return start
    except ValueError:
        # Objective undefined outside the feasible subset (powered atoms):
        # that alone marks the start as infeasible.
        pass
    _, P = align_rotation(rule, start.P, start)
    return PointEvaluation(obj, P)


def _alignment_certificates(at: PointEvaluation, certs: dict) -> dict:
    margin = at.obj.alignment.psd_margin(at)
    if margin is not None:
        certs["alignment_psd_margin"], certs["alignment_matrix_norm"] = margin
    return certs


def _landing(at: PointEvaluation, P_next):
    # The evaluation at P_next, and the record fields every step kind
    # shares: f there and the Frobenius sine distance between the two
    # column spaces.
    landed = PointEvaluation(at.obj, P_next)
    return landed, {"f": landed.value,
                    "step_angle": canonical_sin_theta(at.P, P_next)[1]}


def _sigma_min(pol) -> float:
    return float(np.linalg.eigvalsh(pol.psd_factor)[0])


class _Step:
    """One kind of SCF step, as the driver ``_scf`` sees it.

    Every call takes ``at``, the objective's evaluation at the current
    point P.  ``residual(at)`` returns ``(residual, ctx)``, where ``ctx`` is
    ``(extra, fields)``: what the residual computed beyond the evaluation
    (or None) and the record fields measured at P, handed on to
    ``step(at, f, ctx)``, which returns ``(evaluation at P_next, record
    fields)`` given f = f(P).  ``monotone`` switches the ascent check on
    (see ``_take_step``); ``done(f, f_next)`` names a stop reason after a
    step, or returns None.  ``certificates(at)`` gives the exit
    certificates.  Steps keep per-solve state, so every solve builds its
    own.
    """

    monotone = False
    _stagnant = 0

    def done(self, f, f_next):
        if abs(f_next - f) < 1e-16 * max(1.0, abs(f_next)):
            self._stagnant += 1
            return "stagnated" if self._stagnant >= STAGNATION_LIMIT else None
        self._stagnant = 0
        return None


class _PolarStep(_Step):
    """Polar factor of the Euclidean gradient, then alignment."""

    name = "npdo"

    def __init__(self, obj: ComposedObjective):
        self.obj = obj
        self.monotone = obj.npdo_monotone

    def residual(self, at):
        G = at.euclidean_grad
        eps_kkt, eps_sym = _kkt_residuals_from_grad(at.P, G)
        pol = polar_factor(G)
        return eps_kkt + eps_sym, (pol, dict(
            eps_kkt=eps_kkt, eps_sym=eps_sym, sigma_min=_sigma_min(pol)))

    def step(self, at, f, ctx):
        pol, fields = ctx
        eta = pol.trace_norm - float(np.trace(at.P.T @ at.euclidean_grad))
        _, P_next = align_rotation(self.obj.alignment, pol.orthogonal_factor, at)
        landed, landing = _landing(at, P_next)
        return landed, dict(landing, **fields, eta=eta)

    def certificates(self, at) -> dict:
        P, G = at.P, at.euclidean_grad
        Lam = P.T @ G
        sym_lam = _sym(Lam)
        eps_kkt, eps_sym = _kkt_residuals_from_grad(P, G)
        return _alignment_certificates(at, {
            "lambda_min_of_multiplier": float(np.linalg.eigvalsh(sym_lam)[0]),
            "multiplier_norm": float(np.linalg.norm(sym_lam, 2)),
            "multiplier_asymmetry": float(np.linalg.norm(Lam - Lam.T)),
            "eps_kkt": eps_kkt,
            "eps_sym": eps_sym,
        })


class _SubspaceStep(_Step):
    """Maximize f over range([P, Riemannian gradient, previous iterate]).

    The reduced problem f(WZ) = ``obj.transform(W)``, W an orthonormal
    basis of that subspace, is solved by ``solve``, the public plain solver
    of the step kind ``plain``, from Z0 = the first k columns of the
    identity (the previous-iterate block is absent on the first step), to
    ``INNER_TOL_FRACTION`` of the outer residual within ``INNER_MAX_ITER``
    iterations.  Residual,
    certificates and ``monotone`` are the plain step's, so the realized
    gain is checked for ascent until a record carries ``sign_violated``.
    The record keeps the fields the plain residual measured at P (eps_kkt,
    eps_sym and sigma_min, or eps_nepv), the realized f-gain as ``eta``,
    the inner iteration count, and ``gap_degenerate``/``sign_violated``/
    ``ascent_violated`` when any inner record has them.
    """

    def __init__(self, obj: ComposedObjective, plain, solve):
        self.obj, self.solve = obj, solve
        self.outer = plain(obj)
        self.monotone = self.outer.monotone
        self.name = f"{plain.name}-locg"
        self.certificates = self.outer.certificates
        self.P_before = None
        self.stalled = False

    def residual(self, at):
        res, (_, fields) = self.outer.residual(at)
        return res, (res, fields)

    def step(self, at, f, ctx):
        obj, P = self.obj, at.P
        res, plain_fields = ctx
        R = at.riemannian_grad
        V = R if self.P_before is None else np.hstack([R, self.P_before])
        W_extra = orthonormalize_against(P, V)
        W = np.hstack([P, W_extra]) if W_extra.shape[1] else P.copy()
        red = obj.transform(W)
        Z0 = np.eye(W.shape[1], obj.k)
        inner = self.solve(red, Z0, NpdoConfig(
            tol=max(INNER_TOL_FRACTION * res, 1e-15), max_iter=INNER_MAX_ITER))
        landed, fields = _landing(at, W @ inner.point)
        gain = fields["f"] - f
        # A step that cannot move means the Riemannian gradient vanishes on
        # range(W), so P is already a KKT point.
        self.stalled = (np.linalg.norm(inner.point - Z0) <= 1e-14
                        and gain <= 1e-14 * max(1.0, abs(f)))
        self.P_before = P
        flags = {name: any(getattr(rec, name) for rec in inner.iterations)
                 for name in ("gap_degenerate", "sign_violated",
                              "ascent_violated")}
        if flags["sign_violated"]:
            self.monotone = False
        return landed, dict(fields, **plain_fields, **flags, eta=gain,
                            inner_iters=inner.num_iterations)

    def done(self, f, f_next):
        return "converged" if self.stalled else None


def _take_step(step: _Step, at: PointEvaluation, f, ctx, i: int):
    # One step and its record.  A declared-monotone step that lowers f
    # beyond rounding slack is flagged; the check is plain code, so
    # `python -O` keeps it.
    landed, fields = step.step(at, f, ctx)
    if step.monotone and fields["f"] < f - MONOTONE_SLACK * max(1.0, abs(f)):
        fields["ascent_violated"] = True
    return landed, IterationRecord(i, **fields)


def _scf(obj: ComposedObjective, P0, cfg: NpdoConfig, step: _Step,
         callback=None) -> SolveReport:
    # The one SCF loop: project the start, then test the residual, step,
    # record and test for a stop (a flagged ascent violation first) until
    # the budget runs out; certify the returned point.
    at = _feasible_start(obj, P0)
    f0 = f = at.value
    records: list[IterationRecord] = []
    stop = "max_iter"
    for i in range(cfg.max_iter):
        res, ctx = step.residual(at)
        if res <= cfg.tol:
            stop = "converged"
            break
        landed, rec = _take_step(step, at, f, ctx, i)
        records.append(rec)
        if callback is not None:
            callback(i, landed.P)
        logger.debug("%s iter %d: f=%.12g res=%.3e", step.name, i, rec.f, res)
        reason = ("ascent_violated" if rec.ascent_violated
                  else step.done(f, rec.f))
        at, f = landed, rec.f
        if reason is not None:
            stop = reason
            break
    return SolveReport(
        point=at.P, f_final=f, f_initial=f0, converged=stop == "converged",
        stop_reason=stop, iterations=records, certificates=step.certificates(at),
        solver=step.name)


def _one_step(step: _Step, P):
    at = PointEvaluation(step.obj, require_stiefel(P))
    _, ctx = step.residual(at)
    landed, rec = _take_step(step, at, at.value, ctx, 0)
    return landed.P, rec


def npdo_scf_step(obj: ComposedObjective, P):
    """One polar-SCF step: polar factor of the gradient, then alignment.

    Returns ``(P_next, record)``, exactly as iteration 0 of ``npdo_scf``
    from P: the record's residuals are evaluated at the incoming P and its
    f at P_next, and it is flagged ``ascent_violated`` when a declared
    ascent fails.
    """
    return _one_step(_PolarStep(obj), P)


def npdo_scf(obj: ComposedObjective, P0, cfg: NpdoConfig | None = None,
             callback=None) -> SolveReport:
    """Polar-decomposition SCF loop.

    Iterates until eps_kkt + eps_sym <= tol, the iteration budget runs out
    or a step breaks the declared ascent (``stop_reason="ascent_violated"``,
    the point it landed on returned); exit certificates are computed at the
    returned point.  Infeasible
    starts are projected by one alignment application.  ``callback``, if
    given, is called as callback(i, P_next) after every step.
    """
    cfg = cfg or NpdoConfig()
    return _scf(obj, P0, cfg, _PolarStep(obj), callback)


def npdo_locg(obj: ComposedObjective, P0, cfg: NpdoConfig | None = None,
              callback=None) -> SolveReport:
    """Subspace-accelerated polar SCF.

    Each outer step maximizes f over range([P, grad, previous P]) by running
    the plain polar SCF on the reduced problem from Z0 = the first k columns
    of the identity (the previous-iterate block is absent on the first
    step).  The inner tolerance is a fraction of the current outer residual.
    """
    cfg = cfg or NpdoConfig()
    return _scf(obj, P0, cfg, _SubspaceStep(obj, _PolarStep, npdo_scf),
                callback)
