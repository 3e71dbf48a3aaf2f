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

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg
import scipy.special

from .alignment import PolarAlignment
from .kernels import as_matrix, require_symmetric, sym_part
from .objective import (
    AtomicTerm,
    ComposedObjective,
    OuterFunction,
    outer_ratio_squared,
    outer_sum,
    outer_theta_ratio,
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


def _logsumexp_partials(w, y):
    e = np.exp(y - np.max(y))
    return w * e / e.sum()


# phi presets as (value, partials) of w * phi(y) over the composed
# coordinates y; all convex for the nonnegative weights ``build`` admits.
_PHI_PRESETS = {
    "sum": (lambda w, y: w * np.sum(y), lambda w, y: np.full(y.size, w)),
    "quad_penalty": (lambda w, y: w * np.sum(y ** 2),
                     lambda w, y: 2.0 * w * y),
    "logsumexp": (lambda w, y: w * scipy.special.logsumexp(y),
                  _logsumexp_partials),
}

OUTER_PRESETS = tuple(_PHI_PRESETS)

# Trace-ratio families: (fixed theta, or None to read spec.theta; how A is
# read; how D is read), each matrix "required", "optional" or "zero".
_RATIO_FAMILIES = {
    "theta_tr": (None, "optional", "optional"),
    "olda": (1.0, "required", "zero"),
    "occa": (0.5, "zero", "required"),
    "theta_tr_sq": (None, "optional", "optional"),
}


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


def _matrix(M, name: str, shape, symmetric=False) -> np.ndarray:
    M = as_matrix(M, name)
    if shape is not None and M.shape != shape:
        raise ValueError(
            f"matrix {name!r} has shape {M.shape}, expected {shape}")
    if symmetric:
        M = require_symmetric(M, name=name)
    return M


def _get(spec: ProblemSpec, name: str, shape, symmetric=False,
         role="required") -> np.ndarray:
    # role "optional" reads a missing matrix as zero, "zero" ignores it.
    if role == "zero" or (role == "optional" and name not in spec.matrices):
        return np.zeros(shape)
    if name not in spec.matrices:
        raise ValueError(f"family {spec.family!r} requires matrix {name!r}")
    return _matrix(spec.matrices[name], name, shape, symmetric)


def _A_list(spec: ProblemSpec) -> tuple[list[np.ndarray], bool]:
    """The symmetric n-by-n matrices of a nonempty ``A_list``, and whether
    all of them are positive semidefinite."""
    A_list = spec.matrices.get("A_list")
    if A_list is None or len(A_list) == 0:
        raise ValueError(f"{spec.family} requires a nonempty A_list")
    mats = [_matrix(A, f"A_list[{j}]", (spec.n, spec.n), symmetric=True)
            for j, A in enumerate(A_list)]
    return mats, all(_check_psd(A) for A in mats)


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


def _check_psd(A: np.ndarray) -> bool:
    w = np.linalg.eigvalsh(A)
    return bool(w[0] >= -1e-10 * max(abs(w[0]), abs(w[-1]), 1e-300))


def _trace_composition_outer(spec: ProblemSpec, ell: int, lead: bool) -> OuterFunction:
    """The weighted phi preset over ell composed coordinates.

    ``lead`` prepends an identity coordinate (the plain tr(P'AP) part of the
    density-functional-style family).
    """
    if spec.phi not in _PHI_PRESETS:
        raise ValueError(f"unknown outer preset {spec.phi!r}; "
                         f"choose from {OUTER_PRESETS}")
    phi, dphi = _PHI_PRESETS[spec.phi]
    w = float(spec.phi_weight)
    off = 1 if lead else 0

    def value(x):
        x = np.asarray(x, dtype=float)
        return float((x[0] if lead else 0.0) + phi(w, x[off:]))

    def partials(x):
        x = np.asarray(x, dtype=float)
        return np.concatenate((np.ones(off), dphi(w, x[off:])))

    return OuterFunction(ell + off, value, partials, name=spec.phi)


def build(spec: ProblemSpec) -> ComposedObjective:
    """Assemble the composed objective for a catalog problem."""
    n, k, fam = spec.n, spec.k, spec.family
    if not spec.phi_weight >= 0:
        # A negative weight makes the outer presets' partials negative and
        # quad_penalty/logsumexp concave: no ascent guarantee would hold.
        raise ValueError(
            f"phi_weight must be nonnegative, got {spec.phi_weight!r}")
    meta = {"family": fam}

    if fam == "sep":
        A = _get(spec, "A", (n, n), symmetric=True)
        psd = _check_psd(A)
        return ComposedObjective(
            n, k, (AtomicTerm.quadratic(A),), outer_sum(1),
            field_recipe="composition", alignment=PolarAlignment(blocks=()),
            npdo_monotone=psd, nepv_monotone=True, meta=meta)

    if fam == "mbsub":
        A = _get(spec, "A", (n, n), symmetric=True)
        D = _get(spec, "D", (n, k))
        psd = _check_psd(A)
        terms = (AtomicTerm.quadratic(A), AtomicTerm.linear(D))
        return ComposedObjective(
            n, k, terms, outer_sum(2), field_recipe="composition",
            alignment=PolarAlignment(),
            npdo_monotone=psd, nepv_monotone=True, meta=meta)

    if fam == "sumct":
        if spec.blocks is None:
            raise ValueError("sumct requires blocks (a partition of the columns)")
        D_list = spec.matrices.get("D_list")
        if D_list is None:
            raise ValueError("sumct requires D_list")
        A_list, all_psd = _A_list(spec)
        if not (len(A_list) == len(D_list) == len(spec.blocks)):
            raise ValueError("sumct: A_list, D_list and blocks must have equal length")
        flat = [c for b in spec.blocks for c in b]
        if not all(spec.blocks) or sorted(flat) != list(range(k)):
            raise ValueError(f"sumct: blocks must partition 0..{k - 1} into "
                             f"nonempty groups, got {spec.blocks}")
        D_list = [_matrix(D_j, f"D_list[{j}]", (n, len(cols)))
                  for j, (D_j, cols) in enumerate(zip(D_list, spec.blocks))]
        terms = ([AtomicTerm.quadratic(A_j, cols=cols)
                  for A_j, cols in zip(A_list, spec.blocks)]
                 + [AtomicTerm.linear(D_j, cols=cols)
                    for D_j, cols in zip(D_list, spec.blocks)])
        lin_idx = tuple(range(len(spec.blocks), len(terms)))
        return ComposedObjective(
            n, k, tuple(terms), outer_sum(len(terms)), field_recipe="generic",
            alignment=PolarAlignment(blocks=lin_idx),
            npdo_monotone=all_psd, nepv_monotone=all_psd, meta=meta)

    if fam in _RATIO_FAMILIES:
        # The squared ratio differs in its theta range, outer and alignment.
        theta, A_role, D_role = _RATIO_FAMILIES[fam]
        squared = fam == "theta_tr_sq"
        if theta is None:
            if spec.theta is None:
                raise ValueError(f"{fam} requires theta")
            theta = float(spec.theta)
            theta_max = 0.5 if squared else 1.0
            if not 0.0 <= theta <= theta_max:
                why = (" (the squared ratio composition is convex only there)"
                       if squared else "")
                raise ValueError(f"{fam}: theta must lie in "
                                 f"[0, {theta_max:g}]{why}, got {theta}")
        A = _get(spec, "A", (n, n), symmetric=True, role=A_role)
        D = _get(spec, "D", (n, k), role=D_role)
        if not (A.any() or D.any()):
            # The numerator tr(P'AP + P'D) would be 0 at every point.
            raise ValueError(f"{fam} needs a nonzero 'A' or 'D' (the ratio's "
                             "numerator); both are zero or missing")
        B = _get(spec, "B", (n, n), symmetric=True)
        _check_ratio_denominator(B, k, fam)
        terms = (AtomicTerm.quadratic(B), AtomicTerm.quadratic(A),
                 AtomicTerm.linear(D))
        if not D.any():
            align = PolarAlignment(blocks=())
        else:
            align = PolarAlignment() if squared else PolarAlignment(D)
        outer = (outer_ratio_squared if squared else outer_theta_ratio)(theta)
        meta["theta"] = theta
        return ComposedObjective(
            n, k, terms, outer, field_recipe="composition", alignment=align,
            npdo_monotone=False, nepv_monotone=True, meta=meta)

    if fam == "umds":
        A_list, all_psd = _A_list(spec)
        terms = tuple(AtomicTerm.quadratic(A_j, m=2) for A_j in A_list)
        return ComposedObjective(
            n, k, terms, outer_sum(len(terms)),
            field_recipe="composition", alignment=PolarAlignment(blocks=()),
            npdo_monotone=all_psd, nepv_monotone=all_psd, meta=meta)

    if fam == "trcp":
        A_list, all_psd = _A_list(spec)
        terms = tuple(AtomicTerm.quadratic(A_j) for A_j in A_list)
        outer = _trace_composition_outer(spec, len(terms), lead=False)
        return ComposedObjective(
            n, k, terms, outer, field_recipe="composition",
            alignment=PolarAlignment(blocks=()),
            npdo_monotone=all_psd, nepv_monotone=True, meta=meta)

    if fam == "dft":
        A = _get(spec, "A", (n, n), symmetric=True)
        psd = _check_psd(A)
        terms = [AtomicTerm.quadratic(A)]
        # diag(PP')_i = tr(P' e_i e_i' P): one rank-one quadratic atom per row.
        for i in range(n):
            E = np.zeros((n, n))
            E[i, i] = 1.0
            terms.append(AtomicTerm.quadratic(E))
        outer = _trace_composition_outer(spec, n, lead=True)
        return ComposedObjective(
            n, k, tuple(terms), outer, field_recipe="composition",
            alignment=PolarAlignment(blocks=()),
            npdo_monotone=psd, nepv_monotone=True, meta=meta)

    if fam == "quad_lin2":
        A = _get(spec, "A", (n, n), symmetric=True)
        D = _get(spec, "D", (n, k))
        psd = _check_psd(A)
        terms = (AtomicTerm.quadratic(A), AtomicTerm.linear(D, m=2))
        return ComposedObjective(
            n, k, terms, outer_sum(2), field_recipe="composition",
            alignment=PolarAlignment(D),
            npdo_monotone=psd, nepv_monotone=True, meta=meta)

    if fam == "procrustes":
        C = _get(spec, "C", None)
        B = _get(spec, "B", None)
        obj = build_procrustes_ls(C, B)
        if (obj.n, obj.k) != (n, k):
            raise ValueError(
                f"procrustes: C has shape {C.shape} and B has shape {B.shape}, "
                f"so n = {obj.n}, k = {obj.k}; the spec says n = {n}, k = {k}")
        return obj

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
