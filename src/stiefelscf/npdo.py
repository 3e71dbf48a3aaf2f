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
re-enters the same loop through the plain solver.  The public single-step functions run the same
step code as iteration 0 of their solver.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .alignment import align_rotation
from .kernels import (
    canonical_sin_theta,
    orthonormalize_against,
    polar_factor,
    require_stiefel,
    sym_part,
)
from .objective import ComposedObjective

__all__ = [
    "IterationRecord",
    "NpdoConfig",
    "SolveReport",
    "kkt_residuals",
    "npdo_locg",
    "npdo_scf",
    "npdo_scf_step",
    "reduced_objective",
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


@dataclass(frozen=True)
class NpdoConfig:
    """Solver knobs.

    ``normalization`` is the residual scaling: None uses the Frobenius norm
    of the gradient, a float fixes a constant.  ``tolerance_fraction`` and
    ``inner_max_iter`` only matter for the subspace-accelerated variant:
    each outer step solves its reduced problem to that fraction of the
    current residual.
    """

    tol: float = 1e-8
    max_iter: int = 5000
    normalization: float | None = None
    tolerance_fraction: float = 0.25
    inner_max_iter: int = 200

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not 0.0 < self.tolerance_fraction < 1.0:
            raise ValueError("tolerance_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class IterationRecord:
    """One row of a solve trace.

    ``sigma_min`` is the smallest singular value of the gradient (polar
    solver) and ``gap`` the eigenvalue gap lambda_k - lambda_{k+1} of the
    field (eigenvector solver); each trace fills the one that applies.
    ``eta`` is the trace gain of the inner step (the realized f-gain for
    accelerated outer steps); ``step_angle`` is the Frobenius sine distance
    between consecutive column spaces.
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
    inner_iters: int | None = None
    d_trace_norm: float | None = None
    d_cross: float | None = None


@dataclass
class SolveReport:
    """Outcome of a solve: final point, trace, and exit certificates.

    ``certificates`` holds the quantities the optimality theory makes
    testable at the returned point (multiplier spectrum / field spectrum
    agreement, mismatch asymmetry, alignment PSD margin, exit residuals).
    The recorded f sequence is non-decreasing up to rounding slack whenever
    the objective declares the framework's ascent guarantee.
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


def kkt_residuals(obj: ComposedObjective, P, normalization: float | None = None):
    """Normalized KKT residual and multiplier-symmetry residual at P.

    eps_kkt = ||G - P (P'G)||_F / xi and eps_sym = ||P'G - (P'G)'||_F / xi
    with G the Euclidean gradient and xi = ||G||_F by default.  A vanished
    gradient returns (0, 0): the point is stationary of a degenerate kind.
    """
    P = require_stiefel(P)
    G = obj.euclidean_grad(P)
    return _kkt_residuals_from_grad(P, G, normalization)


def _kkt_residuals_from_grad(P, G, normalization):
    xi = np.linalg.norm(G) if normalization is None else float(normalization)
    if xi < ZERO_GRAD_FLOOR:
        return 0.0, 0.0
    PtG = P.T @ G
    eps_kkt = float(np.linalg.norm(G - P @ PtG) / xi)
    eps_sym = float(np.linalg.norm(PtG - PtG.T) / xi)
    return eps_kkt, eps_sym


def project_feasible(obj: ComposedObjective, P0) -> np.ndarray:
    """One alignment application, used to bring an infeasible start into the
    feasible subset (the same mechanism the iteration uses mid-run)."""
    P0 = require_stiefel(P0)
    rule = obj.alignment
    if rule is None:
        return P0
    try:
        if rule.is_feasible(obj, P0):
            return P0
    except ValueError:
        # Objective undefined outside the feasible subset (powered atoms):
        # that alone marks the start as infeasible.
        pass
    _, P = align_rotation(rule, P0, obj, P0)
    return P


def reduced_objective(obj: ComposedObjective, W) -> ComposedObjective:
    """Restriction f~(Z) = f(W Z) to an orthonormal subspace basis W.

    The atomic structure survives the substitution (linear matrices become
    W'D, quadratic ones W'AW), so the reduced problem is again a composed
    objective over m-by-k Stiefel points; its field is H~(Z) = W' H(WZ) W
    with mismatch M~(Z) = M(WZ), because the recipe formulas are structural
    in the substituted matrices.
    """
    W = require_stiefel(W, name="W")
    return obj.transform(W)


def _alignment_certificates(obj: ComposedObjective, P, certs: dict) -> dict:
    if obj.alignment is not None:
        margin = obj.alignment.psd_margin(obj, P)
        if margin is not None:
            certs["alignment_psd_margin"], certs["alignment_matrix_norm"] = margin
    return certs


def _landing(obj: ComposedObjective, P, P_next) -> dict:
    # Record fields every step kind shares: f at the new point and the
    # Frobenius sine distance between the two column spaces.
    return {"f": obj.value(P_next), "step_angle": canonical_sin_theta(P, P_next)[1]}


def _sigma_min(pol) -> float:
    return float(np.linalg.eigvalsh(pol.psd_factor)[0])


class _Step:
    """One kind of SCF step, as the driver ``_scf`` sees it.

    ``residual(P)`` returns ``(residual, ctx)``, where ``ctx`` carries what
    the residual computed (gradient or field, and the record fields measured
    at P) on to ``step(P, f, ctx)``, which returns ``(P_next, record
    fields)`` given f = f(P).  ``gradient(P, ctx)`` is the Euclidean
    gradient at P, from ``ctx`` where the residual computed it.  ``monotone``
    switches the debug-mode ascent assertion on; ``done(f, f_next)`` names a
    stop reason after a step, or returns None.  ``certificates(P)`` gives
    the exit certificates, and ``budget_warning`` the message a solver
    warns with when it runs out of iterations.  Steps keep per-solve state,
    so every solve builds its own.
    """

    monotone = False
    budget_warning: str | None = None
    _stagnant = 0

    def gradient(self, P, ctx):
        return self.obj.euclidean_grad(P)

    def done(self, f, f_next):
        if abs(f_next - f) < 1e-16 * max(1.0, abs(f_next)):
            self._stagnant += 1
            return "stagnated" if self._stagnant >= STAGNATION_LIMIT else None
        self._stagnant = 0
        return None


class _PolarStep(_Step):
    """Polar factor of the Euclidean gradient, then alignment."""

    name = "npdo"
    budget_warning = "polar SCF hit the iteration budget before tolerance"

    def __init__(self, obj: ComposedObjective, cfg: NpdoConfig):
        self.obj, self.normalization = obj, cfg.normalization
        self.monotone = obj.npdo_monotone

    def residual(self, P):
        G = self.obj.euclidean_grad(P)
        eps_kkt, eps_sym = _kkt_residuals_from_grad(P, G, self.normalization)
        pol = polar_factor(G)
        return eps_kkt + eps_sym, ((G, pol), dict(
            eps_kkt=eps_kkt, eps_sym=eps_sym, sigma_min=_sigma_min(pol)))

    def gradient(self, P, ctx):
        (G, _), _ = ctx
        return G

    def step(self, P, f, ctx):
        (G, pol), fields = ctx
        eta = pol.trace_norm - float(np.trace(P.T @ G))
        _, P_next = align_rotation(self.obj.alignment, pol.orthogonal_factor,
                                   self.obj, P)
        return P_next, dict(_landing(self.obj, P, P_next), **fields, eta=eta)

    def certificates(self, P) -> dict:
        G = self.obj.euclidean_grad(P)
        Lam = P.T @ G
        sym_lam = sym_part(Lam)
        eps_kkt, eps_sym = _kkt_residuals_from_grad(P, G, self.normalization)
        return _alignment_certificates(self.obj, P, {
            "lambda_min_of_multiplier": float(np.linalg.eigvalsh(sym_lam)[0]),
            "multiplier_norm": float(np.linalg.norm(sym_lam, 2)),
            "multiplier_asymmetry": float(np.linalg.norm(Lam - Lam.T)),
            "eps_kkt": eps_kkt,
            "eps_sym": eps_sym,
        })


class _SubspaceStep(_Step):
    """Maximize f over range([P, Riemannian gradient, previous iterate]).

    The reduced problem f(WZ), W an orthonormal basis of that subspace, is
    solved by ``solve``, the public plain solver of the step kind ``plain``,
    from Z0 = the first k columns of the identity (the previous-iterate
    block is absent on the first step), to ``tolerance_fraction`` of the
    outer residual.  Residual and certificates are the plain step's.  The
    record keeps the fields the plain residual measured at P (eps_kkt,
    eps_sym and sigma_min, or eps_nepv), the realized f-gain as ``eta`` and
    the inner iteration count.
    """

    def __init__(self, obj: ComposedObjective, cfg: NpdoConfig, plain, solve):
        self.obj, self.cfg, self.solve = obj, cfg, solve
        self.outer = plain(obj, cfg)
        self.name = f"{plain.name}-locg"
        self.certificates = self.outer.certificates
        self.P_before = None
        self.stalled = False

    def residual(self, P):
        res, ctx = self.outer.residual(P)
        return res, (res, ctx)

    def step(self, P, f, ctx):
        obj, cfg = self.obj, self.cfg
        res, plain_ctx = ctx
        G = self.outer.gradient(P, plain_ctx)
        R = G - P @ sym_part(P.T @ G)
        V = R if self.P_before is None else np.hstack([R, self.P_before])
        W_extra = orthonormalize_against(P, V)
        W = np.hstack([P, W_extra]) if W_extra.shape[1] else P.copy()
        red = reduced_objective(obj, W)
        Z0 = np.eye(W.shape[1], obj.k)
        inner_cfg = replace(cfg, tol=max(cfg.tolerance_fraction * res, 1e-15),
                            max_iter=cfg.inner_max_iter)
        with warnings.catch_warnings():
            # The reduced problem only needs an approximate solve; its
            # warnings are not worth surfacing.
            warnings.simplefilter("ignore")
            inner = self.solve(red, Z0, inner_cfg)
        P_next = W @ inner.point
        fields = _landing(obj, P, P_next)
        gain = fields["f"] - f
        # A step that cannot move means the Riemannian gradient vanishes on
        # range(W), so P is already a KKT point.
        self.stalled = (np.linalg.norm(inner.point - Z0) <= 1e-14
                        and gain <= 1e-14 * max(1.0, abs(f)))
        self.P_before = P
        return P_next, dict(fields, **plain_ctx[1], eta=gain,
                            inner_iters=inner.num_iterations)

    def done(self, f, f_next):
        return "converged" if self.stalled else None


def _take_step(step: _Step, P, f, ctx, i: int):
    P_next, fields = step.step(P, f, ctx)
    if __debug__ and step.monotone:
        assert fields["f"] >= f - MONOTONE_SLACK * max(1.0, abs(f)), (
            f"ascent violated at iteration {i}: {f} -> {fields['f']}")
    return P_next, IterationRecord(i, **fields)


def _scf(obj: ComposedObjective, P0, cfg: NpdoConfig, step: _Step,
         callback=None) -> SolveReport:
    # The one SCF loop: project the start, then test the residual, step,
    # check ascent, record and test for a stop until the budget runs out.
    P = project_feasible(obj, P0)
    f0 = f = obj.value(P)
    records: list[IterationRecord] = []
    stop = "max_iter"
    for i in range(cfg.max_iter):
        res, ctx = step.residual(P)
        if res <= cfg.tol:
            stop = "converged"
            break
        P_next, rec = _take_step(step, P, f, ctx, i)
        records.append(rec)
        if callback is not None:
            callback(i, P_next)
        logger.debug("%s iter %d: f=%.12g res=%.3e", step.name, i, rec.f, res)
        reason = step.done(f, rec.f)
        P, f = P_next, rec.f
        if reason is not None:
            stop = reason
            break
    return SolveReport(
        point=P, f_final=f, f_initial=f0, converged=stop == "converged",
        stop_reason=stop, iterations=records, solver=step.name)


def _one_step(step: _Step, P):
    P = require_stiefel(P)
    _, ctx = step.residual(P)
    return _take_step(step, P, step.obj.value(P), ctx, 0)


def _certified(report: SolveReport, step: _Step) -> SolveReport:
    report.certificates = step.certificates(report.point)
    if report.stop_reason == "max_iter" and step.budget_warning:
        warnings.warn(step.budget_warning, stacklevel=3)
    return report


def npdo_scf_step(obj: ComposedObjective, P):
    """One polar-SCF step: polar factor of the gradient, then alignment.

    Returns ``(P_next, record)``, exactly as iteration 0 of ``npdo_scf``
    from P: the record's residuals are evaluated at the incoming P and its
    f at P_next.
    """
    return _one_step(_PolarStep(obj, NpdoConfig()), P)


def npdo_scf(obj: ComposedObjective, P0, cfg: NpdoConfig | None = None,
             callback=None) -> SolveReport:
    """Polar-decomposition SCF loop.

    Iterates until eps_kkt + eps_sym <= tol or the iteration budget runs
    out; exit certificates are computed at the returned point.  Infeasible
    starts are projected by one alignment application.  ``callback``, if
    given, is called as callback(i, P_next) after every step.
    """
    cfg = cfg or NpdoConfig()
    step = _PolarStep(obj, cfg)
    return _certified(_scf(obj, P0, cfg, step, callback), step)


def npdo_locg(obj: ComposedObjective, P0, cfg: NpdoConfig | None = None,
              callback=None) -> SolveReport:
    """Subspace-accelerated polar SCF.

    Each outer step maximizes f over range([P, grad, previous P]) by running
    the plain polar SCF on the reduced problem from Z0 = the first k columns
    of the identity (the previous-iterate block is absent on the first
    step).  The inner tolerance is a fraction of the current outer residual.
    """
    cfg = cfg or NpdoConfig()
    step = _SubspaceStep(obj, cfg, _PolarStep, npdo_scf)
    return _certified(_scf(obj, P0, cfg, step, callback), step)
