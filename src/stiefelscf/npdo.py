"""Polar-decomposition SCF solver and its subspace-accelerated variant.

The plain iteration repeatedly replaces P by the orthogonal polar factor of
the Euclidean gradient, followed by the objective's alignment rotation; it
ascends f monotonically whenever the objective declares the framework's
ascent guarantee.  The accelerated variant maximizes over the subspace
spanned by [P, Riemannian gradient, previous iterate, plain step], solving
the reduced problem with the plain iteration started at the plain step, so
each of its steps gains at least what the plain step gains.  Where an
exact bound on the reduced residual at the plain step shows that the inner
solve would take no step, the accelerated step lands on the plain step
directly (the plain landing, see ``_SubspaceStep``) and costs what a plain
step costs.

Every solver in the package, the eigenvector route of ``stiefelscf.nepv``
included, runs one SCF loop (``_scf``) over a step kind: the polar step
here, the eigen step there, and the subspace step, whose inner solve
re-enters the same loop through the plain solver.

The loop carries the objective's ``PointEvaluation`` at the current iterate:
a step lands on P_next by evaluating f there, and the next iteration's
residual, step and alignment read the same evaluation, so each iterate's
A P products are formed once.  Inputs are validated at the public entry
points only.

The exit certificates are a function of a point, not of a solve:
``npdo_certificates`` here and ``nepv.nepv_certificates`` evaluate them at
any P, the returned point of a solve included.  No solve computes them, so
the inner solves of the subspace step pay nothing for them.

A solve reports only through its ``SolveReport``, and ``_scf`` alone ends
it, by one rule for every solver, plain or accelerated: ``converged`` when
the step kind's residual at the current point is at most ``tol``,
``stagnated`` after ``STAGNATION_LIMIT`` consecutive flat steps,
``ascent_violated`` at the first step that lowers f although the objective
declares the framework's ascent guarantee, and ``max_iter`` when the budget
runs out.  Step kinds only measure and propose.  What the theory's
assumptions say about each step (a degenerate eigenvalue gap, a violated
ratio sign condition) is a flag on that step's ``IterationRecord``.  A solve
never warns, and no check depends on ``python -O``.  A solve's settings are
``(tol, max_iter)``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .alignment import _aligned
from .kernels import _orth_against, _polar, _scaled_norm, _sym, require_stiefel
from .objective import ComposedObjective, PointEvaluation

__all__ = [
    "IterationRecord",
    "NpdoConfig",
    "SolveReport",
    "kkt_residuals",
    "npdo_certificates",
    "npdo_locg",
    "npdo_scf",
]

logger = logging.getLogger("stiefelscf")

# Gradient norms below this count as an exactly stationary (degenerate) point.
ZERO_GRAD_FLOOR = 1e-300

# Monotonicity slack: ascent is exact in theory, rounding only in practice.
MONOTONE_SLACK = 1e-12

# Stagnation guard of every solve: stop after this many consecutive steps
# whose f-change |f_next - f| is at most 1e-16 * |f_next| while the
# residual stays above tolerance.  The floor is relative alone, so it holds
# at every data scale.
STAGNATION_LIMIT = 50

# Inner solve of the subspace step: each outer step solves its reduced
# problem to this fraction of the outer residual, within this budget or
# what is left of the solve's total inner budget, whichever is smaller.
INNER_TOL_FRACTION = 0.25
INNER_MAX_ITER = 200


@dataclass(frozen=True)
class NpdoConfig:
    """Settings of a solve, for every solver: the residual tolerance and the
    iteration budget.  For the subspace-accelerated variants ``max_iter``
    bounds the outer steps and, separately, the inner iterations of all
    their inner solves together.

    Residuals are always scaled by the Frobenius norm of the gradient or
    field; each subspace inner solve uses ``INNER_TOL_FRACTION`` and at most
    ``INNER_MAX_ITER`` iterations.  ``max_iter = 0`` takes no step: the
    solve returns its aligned start, which ``npdo_certificates`` or
    ``nepv.nepv_certificates`` then certify.
    """

    tol: float = 1e-8
    max_iter: int = 5000

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
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
    between consecutive column spaces, ||P_next - P(P'P_next)||_F, formed
    directly rather than from the cosines (1 - sigma^2 would lose digits at
    small angles).  The eigenvector step flags a gap
    below ``nepv.GAP_DEGENERATE`` (``gap_degenerate``: whole-sequence
    convergence is not guaranteed, per-step ascent still holds) and an
    incoming P that fails the ratio sign condition tr(P'AP + P'D) >= 0
    (``sign_violated``: per-step ascent is no longer guaranteed).  A step
    of a solver whose ascent the objective declares sets ``ascent_violated``
    when it lowers f by more than ``MONOTONE_SLACK`` relative, which ends
    the solve.  An accelerated step sets any of the three flags when a
    record of its inner solve does, and the first two also when its
    plain-step proposal does.
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
    """Outcome of a solve: final point and trace.

    ``npdo_certificates`` or ``nepv.nepv_certificates`` at ``point`` give
    the exit certificates.  Whenever the objective declares the framework's
    ascent guarantee, the recorded f sequence is non-decreasing up to
    rounding slack, or the solve stops with
    ``stop_reason="ascent_violated"`` at the first step that breaks it.
    """

    point: np.ndarray
    f_final: float
    f_initial: float
    converged: bool
    stop_reason: str
    iterations: list[IterationRecord] = field(default_factory=list)
    solver: str = ""

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)


def kkt_residuals(obj: ComposedObjective, P):
    """Normalized KKT residual and multiplier-symmetry residual at P.

    eps_kkt = ||G - P (P'G)||_F / xi and eps_sym = ||P'G - (P'G)'||_F / xi
    with G the Euclidean gradient and xi = ||G||_F.  A vanished gradient
    returns (0, 0): the point is stationary of a degenerate kind.  A
    gradient with an entry that is not finite raises ``ValueError``.
    """
    P = require_stiefel(P)
    return _kkt_residuals_from_grad(P, obj.euclidean_grad(P))[:2]


def _kkt_residuals_from_grad(P, G):
    # (eps_kkt, eps_sym, tr(P'G)), from one k-by-k product P'G.  Both
    # residuals are ratios of norms, so G may be scaled (by
    # ``kernels._scaled_norm``, at data scales whose plain norms overflow or
    # underflow), and the trace is scaled back.  A gradient with an inf or
    # NaN entry has no finite norm and is refused, as
    # ``objective.FactoredField`` refuses such a field.
    s, xi = _scaled_norm(G)
    if not np.isfinite(xi):
        raise ValueError("gradient has non-finite entries")
    if s * xi < ZERO_GRAD_FLOOR:
        return 0.0, 0.0, 0.0
    if s != 1.0:
        G = G / s
    PtG = P.T @ G
    eps_kkt = float(np.linalg.norm(G - P @ PtG) / xi)
    eps_sym = float(np.linalg.norm(PtG - PtG.T) / xi)
    return eps_kkt, eps_sym, s * float(np.trace(PtG))


def npdo_certificates(obj: ComposedObjective, P) -> dict:
    """Exit certificates of the polar route at P.

    The smallest eigenvalue and spectral norm of the symmetrized multiplier
    P'G (nonnegative at a certified point), both read off one eigvalsh, the
    asymmetry ||P'G - G'P||_F, the KKT residuals of ``kkt_residuals`` and,
    for a rule with a D, the alignment PSD margin; G is the Euclidean
    gradient at P.
    """
    at = PointEvaluation(obj, require_stiefel(P))
    P, G = at.P, at.euclidean_grad
    Lam = P.T @ G
    w = np.linalg.eigvalsh(_sym(Lam))  # ascending
    eps_kkt, eps_sym, _ = _kkt_residuals_from_grad(P, G)
    return _alignment_certificates(at, {
        "lambda_min_of_multiplier": float(w[0]),
        "multiplier_norm": float(max(abs(w[0]), abs(w[-1]))),
        "multiplier_asymmetry": float(np.linalg.norm(Lam - Lam.T)),
        "eps_kkt": eps_kkt,
        "eps_sym": eps_sym,
    })


def _feasible_start(obj: ComposedObjective, P0) -> PointEvaluation:
    # The evaluation at the start point after one alignment application, as
    # every iterate gets: the rotation maps any point into the feasible
    # subset and fixes one already in it, up to rounding.  A rule that
    # rotates nothing keeps the evaluation at P0.
    start = PointEvaluation(obj, require_stiefel(P0))
    P = _aligned(obj.alignment, start.P, start)
    return start if P is start.P else PointEvaluation(obj, P)


def _alignment_certificates(at: PointEvaluation, certs: dict) -> dict:
    margin = at.obj.alignment.psd_margin(at)
    if margin is not None:
        certs["alignment_psd_margin"], certs["alignment_matrix_norm"] = margin
    return certs


def _landing(at: PointEvaluation, landed: PointEvaluation) -> dict:
    # The record fields every step kind shares, read off the evaluations at
    # P and at the landed point P_next: f there and the Frobenius sine
    # distance between the two column spaces, ||(I - PP')P_next||_F, from
    # one n-by-k product.
    P, P_next = at.P, landed.P
    return {"f": landed.value, "step_angle": float(
        np.linalg.norm(P_next - P @ (P.T @ P_next)))}


class _Step:
    """One kind of SCF step, as the driver ``_scf`` sees it.

    Every call takes ``at``, the objective's evaluation at the current
    point P.  ``residual(at)`` returns ``(residual, ctx)``, where ``ctx`` is
    ``(extra, fields)``: what the residual computed beyond the evaluation
    (or None) and the record fields measured at P, handed on to
    ``step(at, f, res, ctx)``, which returns ``(evaluation at P_next,
    record fields)`` given f = f(P) and the residual res.  A plain step
    kind defines ``propose(at, ctx)``, which returns ``(P_next, fields)``:
    the aligned iterate and every record field but the landing's; its
    ``step`` is ``propose`` followed by ``_landing``.  It also defines
    ``bound(at)``: an upper bound, at the evaluation's point P, on its
    residual of the reduced problem ``obj.transform(W)`` at Z0 = W'P, for
    every orthonormal basis W whose range holds P.  ``monotone`` switches
    the ascent check on, and ``_scf`` switches it off after a record that
    carries ``sign_violated``.  A step kind only measures and proposes:
    ``_scf`` flags each step and decides when a solve ends.  Steps keep
    per-solve state, so every solve builds its own.
    """

    def step(self, at, f, res, ctx):
        P_next, fields = self.propose(at, ctx)
        landed = PointEvaluation(self.obj, P_next)
        return landed, dict(_landing(at, landed), **fields)


class _PolarStep(_Step):
    """Polar factor of the Euclidean gradient G, then alignment.

    The residual forms the k-by-k P'G once, for eps_kkt, eps_sym and
    tr(P'G), and takes one thin SVD of G for its polar factor, its trace
    norm ||G||_* = sum(s) and ``sigma_min`` = s[-1]; the step's trace gain
    eta is ||G||_* - tr(P'G).  With the product of the landed evaluation,
    one per quadratic term, that is all the arithmetic of a plain step.
    """

    name = "npdo"

    def __init__(self, obj: ComposedObjective):
        self.obj = obj
        self.monotone = obj.npdo_monotone

    def residual(self, at):
        G = at.euclidean_grad
        eps_kkt, eps_sym, trace = _kkt_residuals_from_grad(at.P, G)
        Q, s = _polar(G)
        return eps_kkt + eps_sym, ((Q, float(s.sum()) - trace), dict(
            eps_kkt=eps_kkt, eps_sym=eps_sym, sigma_min=float(s[-1])))

    def propose(self, at, ctx):
        (Q, eta), fields = ctx
        P_next = _aligned(self.obj.alignment, Q, at)
        return P_next, dict(fields, eta=eta)

    def bound(self, at):
        # The reduced gradient W'G keeps Z0'W'G = P'G: so its asymmetry, and
        # a norm of at least ||P'G||_F = sqrt(1 - eps_kkt^2) ||G||_F, while
        # its KKT part W'(G - PP'G) is at most ||G - PP'G||_F.
        eps_kkt, eps_sym, _ = _kkt_residuals_from_grad(at.P, at.euclidean_grad)
        if eps_kkt >= 1.0:
            return math.inf
        return (eps_kkt + eps_sym) / math.sqrt(1.0 - eps_kkt * eps_kkt)


class _SubspaceStep(_Step):
    """Maximize f over range([P, Riemannian gradient, previous iterate,
    plain step]), starting from the plain step.

    The plain step kind ``plain`` proposes P_hat from P, as its own step
    would.  The basis is W = [P, orth(R, P_prev)], the previous-iterate
    block absent on the first step, with P_hat's component outside range(W)
    appended only when its norm exceeds the deflation floor: on the polar
    route P_hat lies in range([P, R]) unless the gradient is rank-deficient,
    so there it adds nothing.  The reduced problem f(WZ) is
    ``obj.transform(W, AW)``, with A W for each quadratic term made by
    ``PointEvaluation.basis_products`` with one product, reusing the A P
    the evaluation at P holds, so an outer step reads each term matrix
    once.  It is solved by ``solve``, the public plain
    solver of that step kind, from Z0 = polar(W'P_hat), so W Z0 = P_hat, to
    ``INNER_TOL_FRACTION`` of the outer residual within ``INNER_MAX_ITER``
    iterations or the ``budget`` of inner iterations the solve has left,
    whichever is smaller.  The step lands on W Z evaluated from the
    products (A W) Z, which costs no full-size product.  The inner solve
    ascends from P_hat, so each outer step gains at least what the plain
    step gains.  Residual and ``monotone`` are the plain step's, so the
    realized gain is checked for ascent until a record carries
    ``sign_violated``.

    Plain landing: on the first outer step, and after one whose inner solve
    took no step, the step first evaluates f at P_hat, one product per
    quadratic term, and reads the plain step kind's ``bound`` there.  When
    the bound meets the inner tolerance or the budget is spent, the inner
    solve would return Z0 untouched over any W, so the step lands on P_hat
    with that evaluation and builds no basis, A W or reduced problem.
    Otherwise the evaluation is dropped and the step runs as above, one
    product block more.  Either way the record is the same.

    The plain step kind keeps its per-solve state across outer steps (the
    warm Ritz guard of the eigen step).
    The record keeps the fields the plain residual measured at P (eps_kkt,
    eps_sym and sigma_min, or eps_nepv), the realized f-gain as ``eta``,
    the inner iteration count, and ``gap_degenerate``/``sign_violated``/
    ``ascent_violated`` when the proposal or any inner record has them.
    """

    def __init__(self, obj: ComposedObjective, plain, solve, budget: int):
        self.obj, self.solve, self.budget = obj, solve, budget
        self.outer = plain(obj)
        self.residual = self.outer.residual
        self.monotone = self.outer.monotone
        self.name = f"{plain.name}-locg"
        self.P_before = None
        self.try_plain = True

    def step(self, at, f, res, ctx):
        P_hat, proposal = self.outer.propose(at, ctx)
        tol = max(INNER_TOL_FRACTION * res, 1e-15)
        landed, inner = None, []
        if self.try_plain:
            at_hat = PointEvaluation(self.obj, P_hat)
            if self.outer.bound(at_hat) <= tol or self.budget == 0:
                landed = at_hat
        if landed is None:
            landed, inner = self._solve_over_subspace(at, P_hat, tol)
            self.try_plain = not inner
        self.P_before = at.P
        fields = _landing(at, landed)
        flags = {name: proposal.get(name, False)
                 or any(getattr(rec, name) for rec in inner)
                 for name in ("gap_degenerate", "sign_violated",
                              "ascent_violated")}
        return landed, dict(fields, **ctx[1], **flags, eta=fields["f"] - f,
                            inner_iters=len(inner))

    def _solve_over_subspace(self, at, P_hat, tol):
        # The evaluation at W Z and the inner solve's records.
        obj, P = self.obj, at.P
        R = at.riemannian_grad
        # Deflation floor: directions below it are rounding.  R joins at
        # unit norm when larger (its norm by _scaled_norm, which cannot
        # overflow at extreme data scales), so the floor suits the unit
        # scale of P_prev's orthonormal columns whatever the data's.
        s, xi = _scaled_norm(R)
        if s * xi > 1.0:
            R = R / s / xi
        V = R if self.P_before is None else np.hstack([R, self.P_before])
        W = np.hstack([P, _orth_against(P, V, 1e-12)])
        # P_hat joins W only with a part outside it, which on the polar
        # route needs a rank-deficient gradient, so that W Z0 = P_hat.
        r = P_hat - W @ (W.T @ P_hat)
        if np.linalg.norm(r) > 1e-12:
            W = np.hstack([W, _orth_against(W, r, 1e-12)])
        AW = at.basis_products(W)
        Z0 = _polar(W.T @ P_hat)[0]
        inner = self.solve(obj.transform(W, AW), Z0, NpdoConfig(
            tol=tol, max_iter=min(INNER_MAX_ITER, self.budget)))
        self.budget -= inner.num_iterations
        Z = inner.point
        return PointEvaluation(obj, W @ Z, [
            None if X is None else X @ t.select(Z)
            for t, X in zip(obj.terms, AW)]), inner.iterations


def _scf(obj: ComposedObjective, P0, cfg: NpdoConfig, step: _Step,
         callback=None) -> SolveReport:
    # The one SCF loop and the one stop rule: align the start, then test
    # the residual, step, flag and record the step, and test for a stop (a
    # flagged ascent violation first, then stagnation) until the budget runs
    # out.  A record that carries ``sign_violated`` switches the ascent
    # check off for the rest of the solve, this step included; while it is
    # on, a step that lowers f beyond rounding slack is flagged.  The check
    # is plain code, so `python -O` keeps it.
    at = _feasible_start(obj, P0)
    f0 = f = at.value
    records: list[IterationRecord] = []
    stop, flat = "max_iter", 0
    for i in range(cfg.max_iter):
        res, ctx = step.residual(at)
        if res <= cfg.tol:
            stop = "converged"
            break
        landed, fields = step.step(at, f, res, ctx)
        if fields.get("sign_violated"):
            step.monotone = False
        slack = MONOTONE_SLACK * max(1.0, abs(f))
        if step.monotone and fields["f"] < f - slack:
            fields["ascent_violated"] = True
        rec = IterationRecord(i, **fields)
        records.append(rec)
        if callback is not None:
            callback(i, landed.P)
        logger.debug("%s iter %d: f=%.12g res=%.3e", step.name, i, rec.f, res)
        flat = flat + 1 if abs(rec.f - f) <= 1e-16 * abs(rec.f) else 0
        at, f = landed, rec.f
        if rec.ascent_violated or flat >= STAGNATION_LIMIT:
            stop = "ascent_violated" if rec.ascent_violated else "stagnated"
            break
    return SolveReport(
        point=at.P, f_final=f, f_initial=f0, converged=stop == "converged",
        stop_reason=stop, iterations=records, solver=step.name)


def npdo_scf(obj: ComposedObjective, P0, cfg: NpdoConfig | None = None,
             callback=None) -> SolveReport:
    """Polar-decomposition SCF loop.

    Iterates until eps_kkt + eps_sym <= tol, the iteration budget runs out,
    f stagnates or a step breaks the declared ascent
    (``stop_reason="ascent_violated"``, the point it landed on returned).
    The start is aligned like every iterate, by one alignment application.
    ``callback``, if given, is called as callback(i, P_next) after every
    step.  A step costs one full-size product per quadratic term (the
    evaluation at P_next), one thin SVD of the gradient G and one k-by-k
    P'G; the alignment adds a k-by-k polar factor when the rule has one.
    """
    cfg = cfg or NpdoConfig()
    return _scf(obj, P0, cfg, _PolarStep(obj), callback)


def npdo_locg(obj: ComposedObjective, P0, cfg: NpdoConfig | None = None,
              callback=None) -> SolveReport:
    """Subspace-accelerated polar SCF.

    Each outer step computes the plain polar step P_hat from P and
    maximizes f over range(W), W = [P, orth(grad, previous P)] (the
    previous-iterate block is absent on the first step; P_hat lies in
    range([P, grad]) and adds a block to W only when the gradient is
    rank-deficient, so W has at most 3k columns otherwise), by running the
    plain polar SCF on the reduced problem from Z0 = polar(W'P_hat), so
    W Z0 = P_hat: each outer step gains at least what the plain step gains.
    The inner tolerance is a fraction of the current outer residual, and the
    inner iterations of all outer steps together are at most
    ``cfg.max_iter``.  An outer step forms one full-size product block per
    quadratic term, for A W, and lands without another, so it reads each
    term matrix once, as a plain step does.  On the first outer step and
    after one whose inner solve took no step, it first evaluates f at
    P_hat; where the bound (eps_kkt + eps_sym) / sqrt(1 - eps_kkt^2) at
    P_hat meets the inner tolerance, or the inner budget is spent, the
    inner solve would take no step, and the step lands on P_hat as the
    plain step does, with no basis, A W or inner solve.  A failed try costs
    one more product block.  It stops by the same rule as ``npdo_scf``.
    """
    cfg = cfg or NpdoConfig()
    return _scf(obj, P0, cfg, _SubspaceStep(obj, _PolarStep, npdo_scf,
                                            cfg.max_iter), callback)
