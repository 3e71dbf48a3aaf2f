"""Eigenvector-based SCF solver over the symmetric field H(P).

Each step replaces P by an orthonormal basis of the invariant subspace of
H(P) belonging to its k largest eigenvalues, followed by the objective's
alignment rotation.  The accelerated variant restricts the field to the
subspace spanned by [P, Riemannian gradient, previous iterate]: the reduced
field is W' H(WZ) W, which inherits the ascent guarantee.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .alignment import _polar_square, align_rotation
from .kernels import require_stiefel, top_k_eigenpairs, trace_norm
from .npdo import (
    ZERO_GRAD_FLOOR,
    NpdoConfig,
    SolveReport,
    _alignment_certificates,
    _landing,
    _one_step,
    _scf,
    _Step,
    _SubspaceStep,
)
from .objective import ComposedObjective

__all__ = [
    "NepvConfig",
    "nepv_locg",
    "nepv_residual",
    "nepv_scf",
    "nepv_scf_step",
]


@dataclass(frozen=True)
class NepvConfig(NpdoConfig):
    """NpdoConfig plus a warning threshold for near-degenerate eigenvalue
    gaps lambda_k ~ lambda_{k+1} of the field."""

    gap_warn_threshold: float = 1e-10


def nepv_residual(obj: ComposedObjective, P, normalization: float | None = None) -> float:
    """Normalized field residual ||H(P)P - P(P'H(P)P)||_F / ||H(P)||_F."""
    P = require_stiefel(P)
    H = obj.field(P).H
    return _nepv_residual_from_field(P, H, normalization)


def _nepv_residual_from_field(P, H, normalization) -> float:
    xi = np.linalg.norm(H) if normalization is None else float(normalization)
    if xi < ZERO_GRAD_FLOOR:
        return 0.0
    HP = H @ P
    return float(np.linalg.norm(HP - P @ (P.T @ HP)) / xi)


class _EigenStep(_Step):
    """Top-k eigenbasis of the field H(P), then alignment.

    For a ratio exponent strictly between 0 and 1 the sign condition
    tr(P'AP + P'D) >= 0 is checked before each step; a violation warns and
    disables the debug-mode ascent assertion for the rest of the solve.  A
    gap below ``gap_warn_threshold`` flags the record and warns once per
    solve.  Warnings point at the caller of the public solver or step
    function.
    """

    name = "nepv"
    budget_warning = "eigenvector SCF hit the iteration budget before tolerance"

    def __init__(self, obj: ComposedObjective, cfg: NepvConfig):
        self.obj, self.cfg = obj, cfg
        self.monotone = obj.nepv_monotone
        self.ratio = obj.theta_data
        self.sign_guard = self.ratio is not None and 0.0 < self.ratio.theta < 1.0
        self.warned_gap = False

    def residual(self, at):
        eps = _nepv_residual_from_field(at.P, at.field.H, self.cfg.normalization)
        return eps, (None, {"eps_nepv": eps})

    def step(self, at, f, ctx):
        obj, P, field, (_, residuals) = self.obj, at.P, at.field, ctx
        if self.sign_guard and self.monotone and not at.theta_sign_ok:
            warnings.warn(
                "trace-ratio sign condition tr(P'AP + P'D) >= 0 violated; "
                "per-step ascent is no longer guaranteed", stacklevel=5)
            self.monotone = False
        H = field.H
        spect = top_k_eigenpairs(H, obj.k)
        eta = float(spect.eigenvalues.sum() - np.trace(P.T @ (H @ P)))
        basis = spect.eigenbasis
        if obj.field_recipe == "generic":
            # With the generic field the ascent proof goes through a two-stage
            # rotation: first align the eigenbasis to the polar frame of the
            # gradient, then apply the objective's own rule.
            basis = basis @ _polar_square(basis.T @ at.euclidean_grad)
        _, P_next = align_rotation(obj.alignment, basis, at)
        degenerate = spect.gap < self.cfg.gap_warn_threshold
        if degenerate and not self.warned_gap:
            warnings.warn(
                f"eigenvalue gap {spect.gap:.3e} below "
                f"{self.cfg.gap_warn_threshold:.1e}: whole-sequence convergence "
                "is not guaranteed (per-step ascent still holds)", stacklevel=5)
            self.warned_gap = True
        landed, landing = _landing(at, P_next)
        fields = dict(landing, **residuals, gap=spect.gap,
                      eta=eta, m_asymmetry=field.asymmetry,
                      gap_degenerate=degenerate)
        if self.ratio is not None:
            PhD = spect.eigenbasis.T @ self.ratio.D
            fields["d_trace_norm"] = trace_norm(PhD)
            fields["d_cross"] = float(np.trace(PhD @ (P.T @ spect.eigenbasis)))
        return landed, fields

    def certificates(self, at) -> dict:
        P, field = at.P, at.field
        H = field.H
        omega = P.T @ (H @ P)
        omega_eigs = np.sort(np.linalg.eigvalsh(0.5 * (omega + omega.T)))[::-1]
        top = top_k_eigenpairs(H, self.obj.k)
        return _alignment_certificates(at, {
            "omega_vs_topk_max_dev": float(np.max(np.abs(omega_eigs - top.eigenvalues))),
            "field_norm": float(np.linalg.norm(H, 2)),
            "mismatch_asymmetry": field.asymmetry,
            "gap": top.gap,
            "eps_nepv": _nepv_residual_from_field(P, H, self.cfg.normalization),
        })


def nepv_scf_step(obj: ComposedObjective, P,
                  gap_warn_threshold: float = 1e-10):
    """One eigenvector-SCF step: top-k eigenbasis of H(P), then alignment.

    Returns ``(P_next, record)``, exactly as iteration 0 of ``nepv_scf``
    from P: the record's residual is evaluated at the incoming P, its f at
    P_next, and it carries the eigenvalue gap plus a degeneracy flag when
    the gap falls below ``gap_warn_threshold``.
    """
    cfg = NepvConfig(gap_warn_threshold=gap_warn_threshold)
    return _one_step(_EigenStep(obj, cfg), P)


def nepv_scf(obj: ComposedObjective, P0, cfg: NepvConfig | None = None,
             callback=None) -> SolveReport:
    """Eigenvector SCF loop over the objective's field recipe.

    Iterates until the field residual drops below tolerance or the budget
    runs out.  At exit the certificates record how far the eigenvalues of
    Omega = P'H(P)P sit from the k largest eigenvalues of H(P), and the
    mismatch asymmetry that promotes a field solution to a KKT point.
    A near-degenerate gap raises a warning once per solve; for a ratio
    exponent strictly between 0 and 1 the sign condition tr(P'AP + P'D) >= 0
    is checked each iteration and a violation disables the debug-mode
    ascent assertion for the rest of the run.
    """
    cfg = cfg or NepvConfig()
    return _scf(obj, P0, cfg, _EigenStep(obj, cfg), callback)


def nepv_locg(obj: ComposedObjective, P0, cfg: NepvConfig | None = None,
              callback=None) -> SolveReport:
    """Subspace-accelerated eigenvector SCF.

    Outer steps maximize f over range([P, grad, previous P]); the inner
    solver is the plain eigenvector SCF on the reduced field, started from
    the first k columns of the identity, to a fraction of the current
    residual.
    """
    cfg = cfg or NepvConfig()
    return _scf(obj, P0, cfg, _SubspaceStep(obj, cfg, _EigenStep, nepv_scf),
                callback)
