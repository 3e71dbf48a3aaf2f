"""Eigenvector-based SCF solver over the symmetric field H(P).

Each step replaces P by an orthonormal basis of the invariant subspace of
H(P) belonging to its k largest eigenvalues, followed by the objective's
alignment rotation.  The accelerated variant restricts the field to the
subspace spanned by [P, Riemannian gradient, previous iterate, plain step]:
the reduced field is W' H(WZ) W, which inherits the ascent guarantee, and
its inner solve starts at the plain step.

The step need not solve the eigenproblem exactly.  The NEPv basic
assumption bounds f(P_hat) - f(P) below by a multiple of the trace gain
tr(P_hat' H P_hat) - tr(P' H P) for any P_hat, so from the second step on,
for fields of order at least ``WARM_MIN_N``, the step first tries the warm
Rayleigh-Ritz solve ``kernels.ritz_top_k``: a few Krylov blocks of H around
[P, g], where g is the previous step's (k+1)-th vector.  Its top k Ritz
pairs are taken when their residual is at most ``INNER_TOL_FRACTION`` of
||HP - P(P'HP)||_F, scaled down by the last contraction of the residual
when the iteration converges fast, and when the Ritz gap theta_k -
theta_{k+1} exceeds ``GAP_DEGENERATE`` by more than that residual.  Since
P lies in the Krylov space the trace gain is >= 0, and the record carries
the Ritz gap, the gap of the eigenproblem the step solved.  Otherwise the
step falls back to the dense LAPACK solve, which also serves the first
step, every step after a failed attempt, small fields and the
``nepv_locg`` inner problems (order at most 4k).  The plain-step proposal
of each ``nepv_locg`` outer step is a step at full size like any other,
warm from the second on.  ``nepv_certificates``, the exit
certificates at a point, always reads the exact spectrum.

Every step reads one field object, the evaluation's
``objective.FactoredField``, which answers H, H P, ||H||_F and the mismatch
M(P).  A step that tries the warm solve applies H part by part in the
Krylov blocks, at one product per quadratic term with m = 1, and takes H P
from the A P products the evaluation holds and ||H||_F, the residual's
denominator, from the Gram identity with the per-solve constants
``objective.field_gram``.  Such a step forms no n-by-n matrix unless the
Gram identity gives no norm: where it cancels, and for a field with a
quadratic term of m >= 2 or a diagonal term with R != I, which the
identity does not cover, the field forms H for its norm.  H is otherwise
formed (``FactoredField.H``) only by a dense solve, by the ``nepv_locg``
inner problems and by the certificates.  A dense step takes H P as H @ P
from the formed H, which at small n costs less than reading it off the
parts.

Residuals are ratios of Frobenius norms, taken at a data scale where they
neither overflow nor underflow (``kernels._scaled_norm``).
"""

from __future__ import annotations

import numpy as np

from .alignment import _aligned, _polar_square
from .kernels import (
    RITZ_MAX_BLOCKS,
    _scaled_norm,
    _svd,
    _sym,
    _top_k,
    require_stiefel,
    ritz_top_k,
)
from .npdo import (
    INNER_TOL_FRACTION,
    ZERO_GRAD_FLOOR,
    NpdoConfig,
    SolveReport,
    _alignment_certificates,
    _scf,
    _Step,
    _SubspaceStep,
)
from .objective import ComposedObjective, PointEvaluation, field_gram

__all__ = [
    "NepvConfig",
    "nepv_certificates",
    "nepv_locg",
    "nepv_residual",
    "nepv_scf",
]


# Both frameworks take the same settings, (tol, max_iter).
NepvConfig = NpdoConfig

# An eigenvalue gap lambda_k - lambda_{k+1} of the field below this flags
# the step's record as degenerate.
GAP_DEGENERATE = 1e-10

# Fields of order below this take the dense step only: there the dense
# solve costs about as much as the warm Krylov blocks.  The per-step time
# of mbsub, theta_tr and procrustes solves crosses between n = 50 and
# n = 70 at k = 3 and near n = 50 at k = 8 (BLAS at one thread).  With one
# SVD and one QR per Krylov block, ``tools/ritz_timing.py`` puts the warm
# solve alone at 1.4 times the dense one at n = 40 (169 against 124 us at
# k = 3, 304 against 208 at k = 8), even at n = 60 and 0.6-0.8 times it at
# n = 80.  The bound stays at 80: below it a failed attempt, which pays for
# both, eats what a passing one saves.
WARM_MIN_N = 80


def nepv_residual(obj: ComposedObjective, P) -> float:
    """Normalized field residual ||H(P)P - P(P'H(P)P)||_F / ||H(P)||_F."""
    P = require_stiefel(P)
    field = obj.field(P)
    return _nepv_residual_from_field(P, field.H @ P, field.frobenius_norm())


def _nepv_residual_from_field(P, HP, norm) -> float:
    # HP is the product H @ P and norm = (s, xi) gives ||H||_F = s xi, as
    # ``FactoredField.frobenius_norm`` does; the ratio reads HP / s.
    s, xi = norm
    if s * xi < ZERO_GRAD_FLOOR:
        return 0.0
    if s != 1.0:
        HP = HP / s
    return float(np.linalg.norm(HP - P @ (P.T @ HP)) / xi)


def nepv_certificates(obj: ComposedObjective, P) -> dict:
    """Exit certificates of the eigenvector route at P.

    How far the eigenvalues of Omega = P'H(P)P sit from the k largest
    eigenvalues of H(P), the spectral norm and eigenvalue gap of H(P), the
    mismatch asymmetry that promotes a field solution to a KKT point, the
    field residual of ``nepv_residual``, ``field_identity`` (the residual of
    H(P) P - grad f(P) = P M(P), the identity the field is built on,
    relative to max(1, ||H(P)||_F)) and, for a rule with a D, the alignment
    PSD margin.  They read eigenvalues only: one eigvalsh of the field gives
    the top k, the gap and the spectral norm.
    """
    at = PointEvaluation(obj, require_stiefel(P))
    P, field, k = at.P, at.field, obj.k
    H = field.H
    HP = H @ P
    omega_eigs = np.linalg.eigvalsh(_sym(P.T @ HP))[::-1]
    w = np.linalg.eigvalsh(_sym(H))[::-1]  # descending
    s, xi = norm = field.frobenius_norm()
    # The identity residual over max(1, ||H||_F), both read at the scale s.
    r = HP - at.euclidean_grad - P @ field.mismatch
    identity = np.linalg.norm(r if s == 1.0 else r / s)
    return _alignment_certificates(at, {
        "omega_vs_topk_max_dev": float(np.max(np.abs(omega_eigs - w[:k]))),
        "field_norm": float(max(abs(w[0]), abs(w[-1]))),
        "field_identity": float(identity / max(1.0 / s, xi)),
        "mismatch_asymmetry": field.asymmetry,
        "gap": float(w[k - 1] - w[k]) if k < len(w) else np.inf,
        "eps_nepv": _nepv_residual_from_field(P, HP, norm),
    })


class _EigenStep(_Step):
    """Top-k eigenbasis of the field H(P), then alignment.

    For a ratio exponent strictly between 0 and 1 the sign condition
    tr(P'AP + P'D) >= 0 is checked at the incoming P of each step; a
    violation sets the record's ``sign_violated``, on which the driver
    switches the ascent check off for the rest of the solve.  A gap below
    ``GAP_DEGENERATE`` sets the record's ``gap_degenerate``.

    The top k pairs come from the warm Ritz solve where the module
    docstring says so, else from the dense solve.  ``warm`` holds when the
    field has order n >= ``WARM_MIN_N`` and room for the Krylov blocks,
    (RITZ_MAX_BLOCKS + 1)(k + 1) < n, so inner problems of order <= 4k stay
    dense.  ``guard`` is the previous step's (k+1)-th vector, or None before
    the first step and after a failed attempt; with a guard a warm step's
    residual reads H P and ||H||_F off the field's parts.  ``gram`` holds
    the constants of ``FactoredField.frobenius_norm``, taken once per solve
    when ``warm`` holds, else None.  ``work`` is the n-by-n array every
    dense solve of the step symmetrizes H into (see the ``objective`` module
    docstring for why it lives as long as the solve).
    """

    name = "nepv"

    def __init__(self, obj: ComposedObjective):
        self.obj = obj
        self.monotone = obj.nepv_monotone
        self.ratio = obj.theta_data
        self.sign_guard = self.ratio is not None and 0.0 < self.ratio.theta < 1.0
        n, k = obj.n, obj.k
        self.warm = n >= WARM_MIN_N and (RITZ_MAX_BLOCKS + 1) * (k + 1) < n
        self.gram = field_gram(obj) if self.warm else None
        self.guard = self.eps_before = None
        self.work = np.empty((n, n), order="F")

    def residual(self, at):
        # A step that will try the warm solve reads H P and ||H||_F off the
        # field's parts and forms no H (unless the Gram identity gives no
        # norm); a dense step forms H.
        field, warm = at.field, self.warm and self.guard is not None
        HP = field.HP if warm else field.H @ at.P
        norm = field.frobenius_norm(self.gram if warm else None)
        eps = _nepv_residual_from_field(at.P, HP, norm)
        return eps, ((HP, norm), {"eps_nepv": eps})

    def propose(self, at, ctx):
        obj, P, (HP, norm), residuals = self.obj, at.P, *ctx
        sign_violated = self.sign_guard and not at.theta_sign_ok
        spect = self._top_pairs(at, HP, residuals["eps_nepv"], norm)
        eta = float(spect.eigenvalues.sum() - np.trace(P.T @ HP))
        basis = spect.eigenbasis
        if obj.field_recipe == "generic":
            # With the generic field the ascent proof goes through a two-stage
            # rotation: first align the eigenbasis to the polar frame of the
            # gradient, then apply the objective's own rule.
            basis = basis @ _polar_square(basis.T @ at.euclidean_grad)
        P_next = _aligned(obj.alignment, basis, at)
        fields = dict(residuals, gap=spect.gap,
                      eta=eta, m_asymmetry=at.field.asymmetry,
                      gap_degenerate=spect.gap < GAP_DEGENERATE,
                      sign_violated=sign_violated)
        if self.ratio is not None:
            PhD = spect.eigenbasis.T @ self.ratio.D
            fields["d_trace_norm"] = float(_svd(PhD, compute_uv=False).sum())
            fields["d_cross"] = float(np.trace(PhD @ (P.T @ spect.eigenbasis)))
        return P_next, fields

    def bound(self, at):
        # The reduced field W'HW keeps Z0'W'HW Z0 = P'HP, so its norm is at
        # least ||P'HP||_F, while the reduced residual's numerator
        # W'(HP - P(P'HP)) is at most ||HP - P(P'HP)||_F: the bound is
        # eps_nepv ||H||_F / ||P'HP||_F, with no need of ||H||_F.  The
        # norms are taken at HP's scale.
        P, HP = at.P, at.field.HP
        HP = HP / _scaled_norm(HP)[0]
        PtHP = P.T @ HP
        den = np.linalg.norm(PtHP)
        return float(np.linalg.norm(HP - P @ PtHP) / den) if den > 0 else np.inf

    def _top_pairs(self, at, HP, eps, norm):
        # The warm Ritz pairs of the field, applied part by part, when they
        # pass, else the dense top k+1 of the formed H.  The residual bound
        # shrinks with the last contraction eps/eps_before, so a
        # fast-converging solve keeps its rate.  A failed attempt drops the
        # guard, so the next step goes dense without trying.
        tried = self.warm and self.guard is not None
        spect = None
        if tried:
            rate = min(1.0, eps / self.eps_before)
            tol = INNER_TOL_FRACTION * rate * eps * (norm[0] * norm[1])
            spect = ritz_top_k(at.field, at.P, HP, self.guard, tol,
                               GAP_DEGENERATE)
        self.eps_before = eps
        failed = tried and spect is None
        if spect is None:
            spect = _top_k(at.field.H, self.obj.k, self.work)
        self.guard = None if failed else spect.next_vector
        return spect


def nepv_scf(obj: ComposedObjective, P0, cfg: NepvConfig | None = None,
             callback=None) -> SolveReport:
    """Eigenvector SCF loop over the objective's field recipe.

    Iterates until the field residual drops below tolerance, f stagnates or
    the budget runs out; ``nepv_certificates`` certifies the returned point.
    Each record flags a near-degenerate gap (``gap_degenerate``); for a
    ratio exponent strictly between 0 and 1 the sign condition
    tr(P'AP + P'D) >= 0 is checked each iteration, and a violation flags
    the record (``sign_violated``) and switches the ascent check off for the
    rest of the run.  While the check is on, a step that lowers f is
    flagged ``ascent_violated`` and ends the solve with that stop reason.
    """
    cfg = cfg or NepvConfig()
    return _scf(obj, P0, cfg, _EigenStep(obj), callback)


def nepv_locg(obj: ComposedObjective, P0, cfg: NepvConfig | None = None,
              callback=None) -> SolveReport:
    """Subspace-accelerated eigenvector SCF.

    Each outer step computes the plain eigenvector step P_hat from P (warm
    from the second step on, where the field allows) and maximizes f over
    range(W), W = [P, orth(grad, previous P), orth(P_hat)], at most 4k
    columns (P_hat's block holds its component outside the others);
    the inner solver is the plain eigenvector SCF on the reduced field,
    started from Z0 = polar(W'P_hat), so W Z0 = P_hat, to a fraction of the
    current residual; the inner iterations of all outer steps together are
    at most ``cfg.max_iter``.  Each outer step thus gains at least what the
    plain step gains.  The reduced problem and the landed point are built
    from one full-size product block per quadratic term, for A W.  On the
    first outer step and after one whose inner solve took no step, it first
    evaluates f at P_hat; where the bound ||HP - P(P'HP)||_F / ||P'HP||_F
    at P = P_hat (H the field there) meets the inner tolerance, or the
    inner budget is spent, the step lands on P_hat as the plain step does,
    with no basis, A W or inner solve.  It stops by the same rule as
    ``nepv_scf``.
    """
    cfg = cfg or NepvConfig()
    return _scf(obj, P0, cfg, _SubspaceStep(obj, _EigenStep, nepv_scf,
                                            cfg.max_iter), callback)
