"""Builders assembling composed objectives for the catalog of named problems.

Families
--------
sep          tr(P'AP), the symmetric eigenvalue problem
mbsub        tr(P'AP + P'D), the MAXBET subproblem
sumct        sum_i tr(P_i'A_iP_i + P_i'D_i) over a column partition
theta_tr     (tr(P'AP + P'D)) / tr(P'BP)^theta, 0 <= theta <= 1
olda         theta_tr with theta = 1, D = 0 (trace-ratio discriminant analysis)
occa         theta_tr with theta = 1/2, A = 0 (orthogonal CCA)
theta_tr_sq  the squared ratio as a convex composition, 0 <= theta <= 1/2
umds        sum_i ||P'A_iP||_F^2
trcp         phi(tr(P'A_1P), ..., tr(P'A_NP)) for a convex phi preset
dft          tr(P'AP) + phi(diag(PP')) with a convex phi preset
quad_lin2    tr(P'AP) + tr((P'D)^2)
procrustes   min ||CP - B||_F^2 recast as a MAXBET subproblem

Each builder wires the family's documented field recipe and alignment rule
and declares which framework carries a per-step ascent guarantee for it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg
import scipy.special

from .alignment import PolarAlignment
from .kernels import as_matrix, random_stiefel, require_symmetric, sym_part
from .objective import (
    AtomicTerm,
    ComposedObjective,
    OuterFunction,
    outer_ratio_squared,
    outer_sum,
    outer_theta_ratio,
    spot_check_outer,
)

__all__ = [
    "MLifting",
    "ProblemSpec",
    "build",
    "build_procrustes_ls",
    "lift_m_orthogonal",
    "m_orthogonality_drift",
    "generalized_kkt_residual",
    "procrustes_residual",
]

FAMILIES = ("sep", "mbsub", "sumct", "theta_tr", "olda", "occa",
            "theta_tr_sq", "umds", "trcp", "dft", "quad_lin2", "procrustes")

OUTER_PRESETS = ("sum", "quad_penalty", "logsumexp")


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative description of a catalog problem.

    ``matrices`` maps names (A, B, D, C, M, A_list, D_list) to arrays;
    ``blocks`` lists column-index groups for the coupled-trace family;
    ``theta`` is the ratio exponent; ``phi`` names an outer preset for the
    trace-composition families.
    """

    family: str
    n: int
    k: int
    matrices: dict = dc_field(default_factory=dict)
    theta: float | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None
    phi: str = "sum"
    phi_weight: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got n = {self.n}, k = {self.k}")


def _get(spec: ProblemSpec, name: str, shape, symmetric=False) -> np.ndarray:
    if name not in spec.matrices:
        raise ValueError(f"family {spec.family!r} requires matrix {name!r}")
    M = as_matrix(spec.matrices[name], name)
    if shape is not None and M.shape != shape:
        raise ValueError(
            f"matrix {name!r} has shape {M.shape}, expected {shape}")
    if symmetric:
        M = require_symmetric(M, name=name)
    return M


def _check_ratio_denominator(B: np.ndarray, k: int, family: str) -> None:
    w = np.linalg.eigvalsh(B)
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    if w[0] < -1e-10 * scale:
        raise ValueError(f"{family}: B must be positive semidefinite "
                         f"(lambda_min = {w[0]:.3e})")
    if w[:k].sum() <= 0.0:
        raise ValueError(
            f"{family}: sum of the {k} smallest eigenvalues of B must be "
            "positive (rank(B) > n - k), got "
            f"{w[:k].sum():.3e}")


def _check_psd(A: np.ndarray, name: str, family: str, required: bool) -> bool:
    w = np.linalg.eigvalsh(A)
    ok = w[0] >= -1e-10 * max(abs(w[0]), abs(w[-1]), 1e-300)
    if required and not ok:
        warnings.warn(
            f"{family}: {name} is not positive semidefinite "
            f"(lambda_min = {w[0]:.3e}); the ascent guarantee is lost",
            stacklevel=3)
    return ok


def _spot_check(obj: ComposedObjective, seed: int = 0) -> ComposedObjective:
    pts = [random_stiefel(obj.n, obj.k, seed + i) for i in range(6)]
    try:
        samples = np.array([obj.term_values(p) for p in pts])
        spot_check_outer(obj.outer, samples)
    except ValueError:
        pass
    return obj


def _trace_composition_outer(spec: ProblemSpec, ell: int, lead: bool) -> OuterFunction:
    """phi presets over (optional leading trace +) ell composed coordinates.

    ``lead`` prepends an identity coordinate (the plain tr(P'AP) part of the
    density-functional-style family).  Presets: "sum", "quad_penalty"
    (weight * sum x_i^2) and "logsumexp" (weight * log sum exp x_i), all
    convex with nonnegative partials.
    """
    w = float(spec.phi_weight)
    dim = ell + (1 if lead else 0)
    off = 1 if lead else 0

    if spec.phi == "sum":
        if not lead:
            return outer_sum(ell)

        def value(x):
            return float(x[0] + w * np.sum(x[off:]))

        def partials(x):
            p = np.full(dim, w)
            p[0] = 1.0
            return p

    elif spec.phi == "quad_penalty":
        def value(x):
            x = np.asarray(x, dtype=float)
            return float((x[0] if lead else 0.0) + w * np.sum(x[off:] ** 2))

        def partials(x):
            x = np.asarray(x, dtype=float)
            p = np.empty(dim)
            if lead:
                p[0] = 1.0
            p[off:] = 2.0 * w * x[off:]
            return p

    elif spec.phi == "logsumexp":
        def value(x):
            x = np.asarray(x, dtype=float)
            return float((x[0] if lead else 0.0)
                         + w * scipy.special.logsumexp(x[off:]))

        def partials(x):
            x = np.asarray(x, dtype=float)
            p = np.empty(dim)
            if lead:
                p[0] = 1.0
            e = np.exp(x[off:] - np.max(x[off:]))
            p[off:] = w * e / e.sum()
            return p

    else:
        raise ValueError(f"unknown outer preset {spec.phi!r}; "
                         f"choose from {OUTER_PRESETS}")
    # quad_penalty partials are nonnegative only for x >= 0, which holds for
    # the squares/diagonals these presets are applied to.
    nonneg = (True,) * dim
    return OuterFunction(dim, value, partials, convex=True,
                         sign_nonneg=nonneg, name=spec.phi)


def build(spec: ProblemSpec) -> ComposedObjective:
    """Assemble the composed objective for a catalog problem."""
    n, k, fam = spec.n, spec.k, spec.family
    meta = {"family": fam}

    if fam == "sep":
        A = _get(spec, "A", (n, n), symmetric=True)
        psd = _check_psd(A, "A", fam, required=False)
        return _spot_check(ComposedObjective(
            n, k, (AtomicTerm.quadratic(A),), outer_sum(1),
            field_recipe="composition", alignment=PolarAlignment(blocks=()),
            npdo_monotone=psd, nepv_monotone=True, meta=meta))

    if fam == "mbsub":
        A = _get(spec, "A", (n, n), symmetric=True)
        D = _get(spec, "D", (n, k))
        psd = _check_psd(A, "A", fam, required=False)
        terms = (AtomicTerm.quadratic(A), AtomicTerm.linear(D))
        return _spot_check(ComposedObjective(
            n, k, terms, outer_sum(2), field_recipe="composition",
            alignment=PolarAlignment(),
            npdo_monotone=psd, nepv_monotone=True, meta=meta))

    if fam == "sumct":
        if spec.blocks is None:
            raise ValueError("sumct requires blocks (a partition of the columns)")
        A_list = spec.matrices.get("A_list")
        D_list = spec.matrices.get("D_list")
        if A_list is None or D_list is None:
            raise ValueError("sumct requires A_list and D_list")
        if not (len(A_list) == len(D_list) == len(spec.blocks)):
            raise ValueError("sumct: A_list, D_list and blocks must have equal length")
        flat = [c for b in spec.blocks for c in b]
        if sorted(flat) != list(range(k)):
            raise ValueError(f"sumct: blocks must partition 0..{k - 1}, got {spec.blocks}")
        terms = []
        all_psd = True
        for j, cols in enumerate(spec.blocks):
            A_j = require_symmetric(as_matrix(A_list[j], f"A_list[{j}]"), name=f"A_list[{j}]")
            D_j = as_matrix(D_list[j], f"D_list[{j}]")
            if D_j.shape != (n, len(cols)):
                raise ValueError(
                    f"D_list[{j}] has shape {D_j.shape}, expected ({n}, {len(cols)})")
            all_psd &= _check_psd(A_j, f"A_list[{j}]", fam, required=False)
            terms.append(AtomicTerm.quadratic(A_j, cols=cols))
        for j, cols in enumerate(spec.blocks):
            terms.append(AtomicTerm.linear(as_matrix(D_list[j]), cols=cols))
        lin_idx = tuple(range(len(spec.blocks), 2 * len(spec.blocks)))
        return _spot_check(ComposedObjective(
            n, k, tuple(terms), outer_sum(len(terms)), field_recipe="generic",
            alignment=PolarAlignment(blocks=lin_idx),
            npdo_monotone=all_psd, nepv_monotone=all_psd, meta=meta))

    if fam in ("theta_tr", "olda", "occa"):
        if fam == "olda":
            theta = 1.0
            A = _get(spec, "A", (n, n), symmetric=True)
            D = np.zeros((n, k))
        elif fam == "occa":
            theta = 0.5
            A = np.zeros((n, n))
            D = _get(spec, "D", (n, k))
        else:
            if spec.theta is None:
                raise ValueError("theta_tr requires theta")
            theta = float(spec.theta)
            if not 0.0 <= theta <= 1.0:
                raise ValueError(f"theta must lie in [0, 1], got {theta}")
            A = (_get(spec, "A", (n, n), symmetric=True)
                 if "A" in spec.matrices else np.zeros((n, n)))
            D = (_get(spec, "D", (n, k))
                 if "D" in spec.matrices else np.zeros((n, k)))
        B = _get(spec, "B", (n, n), symmetric=True)
        _check_ratio_denominator(B, k, fam)
        terms = (AtomicTerm.quadratic(B), AtomicTerm.quadratic(A),
                 AtomicTerm.linear(D))
        align = (PolarAlignment(blocks=()) if not D.any()
                 else PolarAlignment(D))
        meta["theta"] = theta
        return ComposedObjective(
            n, k, terms, outer_theta_ratio(theta), field_recipe="composition",
            alignment=align,
            npdo_monotone=False, nepv_monotone=True, meta=meta)

    if fam == "theta_tr_sq":
        if spec.theta is None:
            raise ValueError("theta_tr_sq requires theta")
        theta = float(spec.theta)
        if not 0.0 <= theta <= 0.5:
            raise ValueError(
                f"the squared ratio composition is convex only for theta in "
                f"[0, 1/2], got {theta}")
        A = (_get(spec, "A", (n, n), symmetric=True)
             if "A" in spec.matrices else np.zeros((n, n)))
        D = (_get(spec, "D", (n, k))
             if "D" in spec.matrices else np.zeros((n, k)))
        B = _get(spec, "B", (n, n), symmetric=True)
        _check_ratio_denominator(B, k, fam)
        terms = (AtomicTerm.quadratic(B), AtomicTerm.quadratic(A),
                 AtomicTerm.linear(D))
        align = (PolarAlignment(blocks=()) if not D.any() else PolarAlignment())
        meta["theta"] = theta
        return _spot_check(ComposedObjective(
            n, k, terms, outer_ratio_squared(theta), field_recipe="composition",
            alignment=align, npdo_monotone=False, nepv_monotone=True, meta=meta))

    if fam == "umds":
        A_list = spec.matrices.get("A_list")
        if A_list is None:
            raise ValueError("umds requires A_list")
        terms = []
        all_psd = True
        for j, A_j in enumerate(A_list):
            A_j = require_symmetric(as_matrix(A_j, f"A_list[{j}]"), name=f"A_list[{j}]")
            all_psd &= _check_psd(A_j, f"A_list[{j}]", fam, required=True)
            terms.append(AtomicTerm.quadratic(A_j, m=2))
        return _spot_check(ComposedObjective(
            n, k, tuple(terms), outer_sum(len(terms)),
            field_recipe="composition", alignment=PolarAlignment(blocks=()),
            npdo_monotone=all_psd, nepv_monotone=all_psd, meta=meta))

    if fam == "trcp":
        A_list = spec.matrices.get("A_list")
        if A_list is None:
            raise ValueError("trcp requires A_list")
        terms = []
        all_psd = True
        for j, A_j in enumerate(A_list):
            A_j = require_symmetric(as_matrix(A_j, f"A_list[{j}]"), name=f"A_list[{j}]")
            all_psd &= _check_psd(A_j, f"A_list[{j}]", fam, required=False)
            terms.append(AtomicTerm.quadratic(A_j))
        outer = _trace_composition_outer(spec, len(terms), lead=False)
        return _spot_check(ComposedObjective(
            n, k, tuple(terms), outer, field_recipe="composition",
            alignment=PolarAlignment(blocks=()),
            npdo_monotone=all_psd, nepv_monotone=True, meta=meta))

    if fam == "dft":
        A = _get(spec, "A", (n, n), symmetric=True)
        psd = _check_psd(A, "A", fam, required=False)
        terms = [AtomicTerm.quadratic(A)]
        # diag(PP')_i = tr(P' e_i e_i' P): one rank-one quadratic atom per row.
        for i in range(n):
            E = np.zeros((n, n))
            E[i, i] = 1.0
            terms.append(AtomicTerm.quadratic(E))
        outer = _trace_composition_outer(spec, n, lead=True)
        return _spot_check(ComposedObjective(
            n, k, tuple(terms), outer, field_recipe="composition",
            alignment=PolarAlignment(blocks=()),
            npdo_monotone=psd, nepv_monotone=True, meta=meta))

    if fam == "quad_lin2":
        A = _get(spec, "A", (n, n), symmetric=True)
        D = _get(spec, "D", (n, k))
        psd = _check_psd(A, "A", fam, required=False)
        terms = (AtomicTerm.quadratic(A), AtomicTerm.linear(D, m=2))
        return _spot_check(ComposedObjective(
            n, k, terms, outer_sum(2), field_recipe="composition",
            alignment=PolarAlignment(D),
            npdo_monotone=psd, nepv_monotone=True, meta=meta))

    if fam == "procrustes":
        C = _get(spec, "C", None)
        B = _get(spec, "B", None)
        return build_procrustes_ls(C, B)

    raise AssertionError(f"unhandled family {fam!r}")


def build_procrustes_ls(C, B) -> ComposedObjective:
    """Least-squares min ||CP - B||_F^2 recast as a MAXBET subproblem.

    Expanding the square gives ||CP - B||_F^2 = ||B||_F^2 - f(P) with
    f(P) = tr(P'(-C'C)P) + tr(P' 2C'B), so maximizing f minimizes the
    residual; the constant offset makes the equivalence checkable at every
    iterate.  The quadratic matrix is negative semidefinite, so only the
    eigenvector-based solver carries the ascent guarantee.
    """
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    if C.shape[0] != B.shape[0]:
        raise ValueError(
            f"row mismatch: C has {C.shape[0]} rows, B has {B.shape[0]}")
    n, k = C.shape[1], B.shape[1]
    if k > n:
        raise ValueError(f"need k <= n, got n = {n}, k = {k}")
    A = sym_part(-C.T @ C)
    D_eff = 2.0 * C.T @ B
    terms = (AtomicTerm.quadratic(A), AtomicTerm.linear(D_eff))
    meta = {"family": "procrustes", "C": C, "B": B,
            "offset": float(np.linalg.norm(B) ** 2)}
    return ComposedObjective(
        n, k, terms, outer_sum(2), field_recipe="composition",
        alignment=PolarAlignment(),
        npdo_monotone=False, nepv_monotone=True, meta=meta)


def procrustes_residual(obj: ComposedObjective, P) -> float:
    """||CP - B||_F reconstructed from a least-squares objective."""
    if obj.meta.get("family") != "procrustes":
        raise ValueError("objective was not built by build_procrustes_ls")
    C, B = obj.meta["C"], obj.meta["B"]
    return float(np.linalg.norm(C @ as_matrix(P, "P") - B))


@dataclass(frozen=True)
class MLifting:
    """Change of metric turning P'MP = I into an ordinary Stiefel constraint.

    With the Cholesky factorization M = R'R, Z = RP is orthonormal exactly
    when P is M-orthonormal; ``forward``/``backward`` round-trip between the
    two coordinate systems.
    """

    M: np.ndarray
    R: np.ndarray

    def forward(self, P) -> np.ndarray:
        return self.R @ as_matrix(P, "P")

    def backward(self, Z) -> np.ndarray:
        return scipy.linalg.solve_triangular(self.R, as_matrix(Z, "Z"), lower=False)

    def cholesky_reconstruction(self) -> np.ndarray:
        return self.R.T @ self.R


def lift_m_orthogonal(obj: ComposedObjective, M) -> tuple[ComposedObjective, MLifting]:
    """Lift an objective under the constraint P'MP = I to plain orthonormality.

    Returns the lifted objective over Z (atomic matrices substituted with
    R^{-T} D and R^{-T} A R^{-1}) and the MLifting that maps solutions back.
    """
    M = require_symmetric(M, name="M")
    if M.shape[0] != obj.n:
        raise ValueError(f"M has order {M.shape[0]}, objective has n = {obj.n}")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError("M must be positive definite") from exc
    R = L.T
    R_inv = scipy.linalg.solve_triangular(R, np.eye(obj.n), lower=False)
    lifted = obj.transform(R_inv, meta_update={"m_lifted": True})
    return lifted, MLifting(M, R)


def m_orthogonality_drift(P, M) -> float:
    """||P'MP - I||_F, the M-orthonormality defect."""
    P = as_matrix(P, "P")
    return float(np.linalg.norm(P.T @ M @ P - np.eye(P.shape[1])))


def generalized_kkt_residual(obj: ComposedObjective, M, P) -> float:
    """Normalized residual ||grad f(P) - M P Lambda||_F / ||grad f(P)||_F of
    the metric-constrained first-order condition, with Lambda = sym(P'grad)."""
    P = as_matrix(P, "P")
    G = obj.euclidean_grad(P)
    xi = np.linalg.norm(G)
    if xi < 1e-300:
        return 0.0
    Lam = sym_part(P.T @ G)
    return float(np.linalg.norm(G - M @ P @ Lam) / xi)
