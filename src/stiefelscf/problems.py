"""Builders assembling composed objectives for the catalog of named problems.

Families
--------
sep          tr(P'AP), the symmetric eigenvalue problem
mbsub        tr(P'AP + P'D), the MAXBET subproblem
sumct        sum_i tr(P_i'A_iP_i + P_i'D_i) over a column partition
theta_tr     (tr(P'AP + P'D)) / tr(P'BP)^theta, 0 <= theta <= 1
olda         theta_tr with theta = 1 and no D (trace-ratio discriminant analysis)
occa         theta_tr with theta = 1/2 and no A (orthogonal CCA)
theta_tr_sq  the squared ratio as a convex composition, 0 <= theta <= 1/2
umds        sum_i ||P'A_iP||_F^2
trcp         phi(tr(P'A_1P), ..., tr(P'A_NP)) for a convex phi preset
dft          tr(P'AP) + phi(diag(PP')) with a convex phi preset, diag(PP')
             one diagonal atom (n coordinates, no stored matrix)
quad_lin2    tr(P'AP) + tr((P'D)^2)
procrustes   min ||CP - B||_F^2 recast as a MAXBET subproblem

Each builder wires the family's alignment rule and declares which framework
carries a per-step ascent guarantee for it; the terms' selectors decide the
field recipe (generic for sumct's column blocks, composition elsewhere).
A built objective holds only what defines f: the family name and the input
matrices stay with the ``ProblemSpec`` (or the caller), so a quantity of the
original problem, such as the Procrustes residual ||CP - B||_F, is computed
from them.

A build costs about what reading its matrices costs.  Each symmetric matrix
takes one symmetry pass: ``_matrix`` checks it within relative
``SYMMETRY_TOL`` and its exactly symmetric copy goes to the term as it is.
The polar route's ascent guarantee needs each quadratic matrix A positive
semidefinite (the NPDo case of Wang, Zhang and Li, Numer. Math. 152, 2022),
which here means lambda_min >= -1e-10 max(|lambda_min|, |lambda_max|).
``_check_psd`` decides that by at most two Cholesky factorizations (LAPACK
``dpotrf``) of B = A / max |a_ij|, so every data scale factors like scale 1.
With rho_lo = max(||B||_F / sqrt(n), max |b_ii|) <= ||B||_2 <= ||B||_F:

- B + 1e-10 rho_lo I factors: A is PSD;
- B + 1e-10 ||B||_F I does not factor: A is not;
- otherwise a full ``eigvalsh`` of A decides.

So a PSD matrix takes no spectrum.  At n = 1000 on one thread one
factorization took 15 ms where the ``eigvalsh`` it replaces took 99 ms, and
a ``sep`` build fell from 113 to 25 ms (``tools/setup_timing.py``).  A ratio
denominator B passes both of its tests when B / s - 1e-10 rho_lo I factors;
any other B is decided on its spectrum, whose values its error quotes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg

from .alignment import PolarAlignment
from .kernels import _factors, as_matrix, require_symmetric, sym_part
from .objective import (
    AtomicTerm,
    ComposedObjective,
    OuterFunction,
    _ratio_outer,
    outer_sum,
)

__all__ = [
    "MLifting",
    "ProblemSpec",
    "build",
    "build_procrustes_ls",
    "lift_m_orthogonal",
    "m_orthogonality_drift",
    "generalized_kkt_residual",
]

FAMILIES = ("sep", "mbsub", "sumct", "theta_tr", "olda", "occa",
            "theta_tr_sq", "umds", "trcp", "dft", "quad_lin2", "procrustes")


def _logsumexp(y):
    # log sum exp(y), shifted by the largest entry m so no exp overflows:
    # m + log1p of the sum over the other entries, as scipy.special's
    # logsumexp takes it (whose import would cost every import of the
    # package about 46 ms).
    i = np.argmax(y)
    e = np.exp(y - y[i])
    e[i] = 0.0
    return y[i] + np.log1p(e.sum())


def _logsumexp_partials(w, y):
    e = np.exp(y - np.max(y))
    return w * e / e.sum()


# phi presets as (value, partials) of w * phi(y) over the composed
# coordinates y; all convex for the nonnegative weights ``build`` admits.
_PHI_PRESETS = {
    "sum": (lambda w, y: w * np.sum(y), lambda w, y: np.full(y.size, w)),
    "quad_penalty": (lambda w, y: w * np.sum(y ** 2),
                     lambda w, y: 2.0 * w * y),
    "logsumexp": (lambda w, y: w * _logsumexp(y),
                  _logsumexp_partials),
}

OUTER_PRESETS = tuple(_PHI_PRESETS)

# Trace-ratio families: (fixed theta, or None to read spec.theta; the
# numerator matrices read).  A family with one numerator matrix requires
# it; the others may be missing.  Only a numerator matrix that is read and
# nonzero makes a term, so olda builds (B, A) and occa (B, D).
_RATIO_FAMILIES = {
    "theta_tr": (None, "AD"),
    "olda": (1.0, "A"),
    "occa": (0.5, "D"),
    "theta_tr_sq": (None, "AD"),
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


def _get(spec: ProblemSpec, name: str, shape, symmetric=False) -> np.ndarray:
    if name not in spec.matrices:
        raise ValueError(f"family {spec.family!r} requires matrix {name!r}")
    return _matrix(spec.matrices[name], name, shape, symmetric)


def _quadratic(A: np.ndarray, m: int = 1, cols=None) -> AtomicTerm:
    # ``AtomicTerm.quadratic`` for a matrix that ``_matrix`` (or
    # ``sym_part``) already made exactly symmetric, without a second
    # symmetry pass; the term's own exact-symmetry test still runs.
    return AtomicTerm("quadratic", A, m=m,
                      cols=None if cols is None else tuple(cols))


def _A_list(spec: ProblemSpec) -> tuple[list[np.ndarray], bool]:
    """The symmetric n-by-n matrices of a nonempty ``A_list``, and whether
    all of them are positive semidefinite."""
    A_list = spec.matrices.get("A_list")
    if A_list is None or len(A_list) == 0:
        raise ValueError(f"{spec.family} requires a nonempty A_list")
    mats = [_matrix(A, f"A_list[{j}]", (spec.n, spec.n), symmetric=True)
            for j, A in enumerate(A_list)]
    return mats, all(_check_psd(A) for A in mats)


# A symmetric matrix counts as positive semidefinite when
# lambda_min >= -PSD_TOL * max(|lambda_min|, |lambda_max|) = -PSD_TOL ||A||_2.
PSD_TOL = 1e-10


def _normalized(A: np.ndarray):
    # (s, B, rho_lo, rho_hi) for symmetric A != 0: B = A / s with s the
    # largest |a_ij|, so every scale of data factors like scale 1, and
    # rho_lo = max(||B||_F / sqrt(n), max |b_ii|) <= ||B||_2 <= ||B||_F =
    # rho_hi.  (0.0, None, 0.0, 0.0) for A = 0.  Of n-by-n arrays only B is
    # made: the largest |a_ij| is read as max(max, -min).
    s = float(max(A.max(), -A.min()))
    if s == 0.0:
        return 0.0, None, 0.0, 0.0
    B = A / s
    hi = float(np.linalg.norm(B))
    lo = max(hi / math.sqrt(A.shape[0]), float(np.abs(B.diagonal()).max()))
    return s, B, lo, hi


def _shift(B: np.ndarray, t: float) -> np.ndarray:
    # B + t I, in place.
    B.flat[::B.shape[0] + 1] += t
    return B


def _check_ratio_denominator(B: np.ndarray, k: int, family: str) -> None:
    # If B / s - PSD_TOL rho_lo I factors, lambda_min(B) > 0 and B passes
    # both tests; any other B is decided on its spectrum.
    s, M, lo, _ = _normalized(B)
    if s and _factors(_shift(M, -PSD_TOL * lo)):
        return
    del M
    w = np.linalg.eigvalsh(B)
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    if w[0] < -PSD_TOL * scale:
        raise ValueError(f"{family}: B must be positive semidefinite "
                         f"(lambda_min = {w[0]:.3e})")
    if w[:k].sum() <= 0.0:
        raise ValueError(
            f"{family}: sum of the {k} smallest eigenvalues of B must be "
            "positive (rank(B) > n - k), got "
            f"{w[:k].sum():.3e}")


def _check_psd(A: np.ndarray) -> bool:
    """Whether symmetric ``A`` is positive semidefinite by the PSD_TOL rule,
    decided by at most two Cholesky factorizations of B = A / s.

    rho_lo <= ||B||_2 <= rho_hi (``_normalized``), so if B + PSD_TOL rho_lo I
    factors then lambda_min(B) > -PSD_TOL ||B||_2 and A is PSD, and if
    B + PSD_TOL rho_hi I does not then lambda_min(B) <= -PSD_TOL ||B||_2 and
    A is not.  Only a matrix in the band between the two takes a full
    spectrum.  At most one n-by-n array is held beyond A at any time.
    """
    s, B, lo, hi = _normalized(A)
    if not s:
        return True
    if _factors(_shift(B, PSD_TOL * lo)):
        return True
    if not _factors(_shift(np.divide(A, s, out=B), PSD_TOL * hi)):
        return False
    del B
    w = np.linalg.eigvalsh(A)
    return bool(w[0] >= -PSD_TOL * max(abs(w[0]), abs(w[-1]), 1e-300))


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

    return OuterFunction(ell + off, value, partials)


def build(spec: ProblemSpec) -> ComposedObjective:
    """Assemble the composed objective for a catalog problem."""
    n, k, fam = spec.n, spec.k, spec.family
    if not 0 <= spec.phi_weight < np.inf:
        # A negative weight makes the outer presets' partials negative and
        # quad_penalty/logsumexp concave: no ascent guarantee would hold.
        # An infinite one makes f infinite at every point.
        raise ValueError(
            f"phi_weight must be nonnegative and finite, got {spec.phi_weight!r}")

    if fam == "sep":
        A = _get(spec, "A", (n, n), symmetric=True)
        psd = _check_psd(A)
        return ComposedObjective(
            n, k, (_quadratic(A),), outer_sum(1),
            alignment=PolarAlignment(blocks=()),
            npdo_monotone=psd, nepv_monotone=True)

    if fam == "mbsub":
        A = _get(spec, "A", (n, n), symmetric=True)
        D = _get(spec, "D", (n, k))
        psd = _check_psd(A)
        terms = (_quadratic(A), AtomicTerm.linear(D))
        return ComposedObjective(
            n, k, terms, outer_sum(2), alignment=PolarAlignment(),
            npdo_monotone=psd, nepv_monotone=True)

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
        terms = ([_quadratic(A_j, cols=cols)
                  for A_j, cols in zip(A_list, spec.blocks)]
                 + [AtomicTerm.linear(D_j, cols=cols)
                    for D_j, cols in zip(D_list, spec.blocks)])
        lin_idx = tuple(range(len(spec.blocks), len(terms)))
        return ComposedObjective(
            n, k, tuple(terms), outer_sum(len(terms)),
            alignment=PolarAlignment(blocks=lin_idx),
            npdo_monotone=all_psd, nepv_monotone=all_psd)

    if fam in _RATIO_FAMILIES:
        # The squared ratio differs in its theta range, outer and alignment.
        theta, names = _RATIO_FAMILIES[fam]
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
        num = {}
        for name in names:
            if name in spec.matrices or len(names) == 1:
                M = _get(spec, name, (n, n) if name == "A" else (n, k),
                         symmetric=name == "A")
                if M.any():
                    num[name] = (_quadratic(M) if name == "A"
                                 else AtomicTerm.linear(M))
        if not num:
            # The numerator tr(P'AP + P'D) would be 0 at every point.
            raise ValueError(f"{fam} needs a nonzero 'A' or 'D' (the ratio's "
                             "numerator); both are zero or missing")
        B = _get(spec, "B", (n, n), symmetric=True)
        _check_ratio_denominator(B, k, fam)
        terms = (_quadratic(B), *num.values())
        D = num.get("D")
        align = (PolarAlignment(blocks=()) if D is None
                 else PolarAlignment(None if squared else D.matrix))
        outer = _ratio_outer(theta, squared, len(terms) - 1)
        return ComposedObjective(
            n, k, terms, outer, alignment=align,
            npdo_monotone=False, nepv_monotone=True)

    if fam == "umds":
        A_list, all_psd = _A_list(spec)
        terms = tuple(_quadratic(A_j, m=2) for A_j in A_list)
        return ComposedObjective(
            n, k, terms, outer_sum(len(terms)),
            alignment=PolarAlignment(blocks=()),
            npdo_monotone=all_psd, nepv_monotone=all_psd)

    if fam == "trcp":
        A_list, all_psd = _A_list(spec)
        terms = tuple(_quadratic(A_j) for A_j in A_list)
        outer = _trace_composition_outer(spec, len(terms), lead=False)
        return ComposedObjective(
            n, k, terms, outer, alignment=PolarAlignment(blocks=()),
            npdo_monotone=all_psd, nepv_monotone=True)

    if fam == "dft":
        A = _get(spec, "A", (n, n), symmetric=True)
        psd = _check_psd(A)
        # diag(PP') is one diagonal atom with n coordinates, after tr(P'AP).
        terms = (_quadratic(A), AtomicTerm.diagonal())
        outer = _trace_composition_outer(spec, n, lead=True)
        return ComposedObjective(
            n, k, terms, outer, alignment=PolarAlignment(blocks=()),
            npdo_monotone=psd, nepv_monotone=True)

    if fam == "quad_lin2":
        A = _get(spec, "A", (n, n), symmetric=True)
        D = _get(spec, "D", (n, k))
        psd = _check_psd(A)
        terms = (_quadratic(A), AtomicTerm.linear(D, m=2))
        return ComposedObjective(
            n, k, terms, outer_sum(2), alignment=PolarAlignment(D),
            npdo_monotone=psd, nepv_monotone=True)

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
    residual.  The objective keeps neither C nor B: the caller holds them
    and checks the equivalence at any P as
    ``np.linalg.norm(C @ P - B) ** 2 + f(P) == np.linalg.norm(B) ** 2``.
    The quadratic matrix is negative semidefinite, so only the
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
    terms = (_quadratic(A), AtomicTerm.linear(D_eff))
    return ComposedObjective(
        n, k, terms, outer_sum(2), alignment=PolarAlignment(),
        npdo_monotone=False, nepv_monotone=True)


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
    return obj.transform(R_inv), MLifting(M, R)


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
