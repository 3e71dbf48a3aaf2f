"""Composed matrix-trace objectives on the Stiefel manifold.

An objective is f(P) = phi(T(P)) where each component of T is an atomic term

    c * [tr((P_i' D)^m)]^s        ("linear" kind)
    c * [tr((P_i' A P_i)^m)]^s    ("quadratic" kind)

with P_i a column selection of P, and phi is a scalar outer function supplied
as paired value/partials callbacks.  The objective knows how to produce its
value, Euclidean gradient, Riemannian gradient, and the symmetric field H(P)
used by the eigenvector-based solver together with the mismatch matrix M(P)
whose symmetry certifies that a field solution is a KKT point.

There are two field recipes: "generic" (H = G P' + P G' from the gradient G)
and "composition" (the per-term fields weighted by the outer partials), which
every catalog family except the partial-selector sumct uses.  For the trace
ratio (x2 + x3) / x1^theta over (tr(P'BP), tr(P'AP), tr(P'D)) the
composition gives (2 / b^theta) (A + sym(D P') - theta (a + d) / b B) with
M = b^-theta D'P; ``ComposedObjective.theta_data`` reads theta, A, B and D
off such an objective's meta and terms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .kernels import as_matrix, require_symmetric, sym_part

__all__ = [
    "AtomicTerm",
    "ComposedObjective",
    "FieldEvaluation",
    "NegativeBaseError",
    "OuterFunction",
    "RecipeRequiresFullSelectors",
    "ThetaRatioData",
    "eval_atomic",
    "grad_atomic",
    "outer_ratio_squared",
    "outer_sum",
    "outer_theta_ratio",
    "outer_weighted_sum",
]

# Denominator guard for trace-ratio objectives: tr(P'BP) at or below this
# signals bad data (B should satisfy s_k(B) > 0).
RATIO_DENOMINATOR_FLOOR = 1e-14

# Relative tolerance for the exact algebraic identity H(P) P - grad = P M(P);
# only rounding error is expected.
FIELD_IDENTITY_TOL = 1e-10


class NegativeBaseError(ValueError):
    """A power term with s > 1 was evaluated where its base is negative."""


class RecipeRequiresFullSelectors(ValueError):
    """The composition field recipe needs every term to use all columns."""


def _matpow(M: np.ndarray, m: int) -> np.ndarray:
    if m == 0:
        return np.eye(M.shape[0])
    if m == 1:
        return M
    return np.linalg.matrix_power(M, m)


@dataclass(frozen=True)
class AtomicTerm:
    """One atomic component c * [tr(.)^m]^s with a column selector.

    ``matrix`` is D (n-by-k_i) for the linear kind or A (n-by-n symmetric)
    for the quadratic kind.  ``cols`` is None for "all columns of P", else a
    strictly increasing tuple of column indices.  ``matrix_psd`` records, for
    quadratic terms with m >= 2 or s > 1, whether A >= 0 was verified at
    construction.
    """

    kind: str
    matrix: np.ndarray
    m: int = 1
    s: float = 1.0
    c: float = 1.0
    cols: tuple[int, ...] | None = None
    matrix_psd: bool | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic"):
            raise ValueError(f"unknown atomic kind {self.kind!r}")
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"power m must be an integer >= 1, got {self.m}")
        if self.s < 1.0:
            raise ValueError(f"power s must be >= 1, got {self.s}")
        if self.c <= 0.0:
            raise ValueError(f"scale c must be > 0, got {self.c}")
        if self.cols is not None:
            if list(self.cols) != sorted(set(self.cols)):
                raise ValueError("selector columns must be strictly increasing")

    @staticmethod
    def linear(D, m: int = 1, s: float = 1.0, c: float = 1.0, cols=None) -> "AtomicTerm":
        D = as_matrix(D, "D")
        return AtomicTerm("linear", D, m=int(m), s=float(s), c=float(c),
                          cols=None if cols is None else tuple(cols))

    @staticmethod
    def quadratic(A, m: int = 1, s: float = 1.0, c: float = 1.0, cols=None) -> "AtomicTerm":
        A = require_symmetric(A, name="A")
        psd = None
        if m >= 2 or s > 1.0:
            w = np.linalg.eigvalsh(A)
            psd = bool(w[0] >= -1e-10 * max(abs(w[0]), abs(w[-1]), 1e-300))
        return AtomicTerm("quadratic", A, m=int(m), s=float(s), c=float(c),
                          cols=None if cols is None else tuple(cols),
                          matrix_psd=psd)

    def width(self, k: int) -> int:
        return k if self.cols is None else len(self.cols)

    def select(self, P: np.ndarray) -> np.ndarray:
        return P if self.cols is None else P[:, list(self.cols)]


def _atom(term: AtomicTerm, P_i: np.ndarray):
    # (X, S, value, chain) of one term at its selected columns P_i: X = D for
    # the linear kind or A P_i for the quadratic kind, S = P_i' X, the value
    # c base^s and the chain factor c s base^(s-1), with base = tr(S^m).
    X = term.matrix if term.kind == "linear" else term.matrix @ P_i
    S = P_i.T @ X
    base = float(np.trace(_matpow(S, term.m)))
    if term.s == 1.0:
        return X, S, term.c * base, term.c
    if base < 0.0:
        raise NegativeBaseError(
            f"base {base:.3e} < 0 under fractional/odd power s = {term.s}")
    return X, S, term.c * base**term.s, term.c * term.s * base ** (term.s - 1.0)


def _atom_grad(term: AtomicTerm, X: np.ndarray, S: np.ndarray, chain: float):
    # Gradient with respect to P_i from the products and chain factor of
    # ``_atom``: m D (P_i'D)^(m-1) or 2m A P_i (P_i'AP_i)^(m-1), times chain.
    scale = 2.0 * term.m if term.kind == "quadratic" else term.m
    return chain * (scale * X @ _matpow(S, term.m - 1))


def _add_term_field(H, M, term: AtomicTerm, P, X, S, w: float) -> None:
    # Add w times one full-selector term's symmetric field H_t and mismatch
    # M_t, where H_t P - grad_t = P M_t before the chain factor (folded into
    # w) and X, S are the products of ``_atom``.  Quadratic terms satisfy
    # grad = H_t P exactly, so their M_t is zero.
    if term.kind == "quadratic":
        if term.m == 1:
            H += (2.0 * w) * term.matrix
        else:
            PPtA = P @ (P.T @ term.matrix)
            H += w * sym_part(2.0 * term.m * term.matrix @ _matpow(PPtA, term.m - 1))
        return
    # D (P'D)^(m-1) P' plus its transpose, exactly symmetric.
    Y = (w * term.m) * (X @ _matpow(S, term.m - 1) @ P.T)
    H += Y
    H += Y.T
    M += (w * term.m) * _matpow(S, term.m).T


def eval_atomic(term: AtomicTerm, P) -> float:
    """Value c * base^s of one atomic term at P."""
    return _atom(term, term.select(as_matrix(P, "P")))[2]


def grad_atomic(term: AtomicTerm, P) -> np.ndarray:
    """Euclidean gradient of one atomic term, scattered into full n-by-k shape.

    The base gradients are m D (P'D)^(m-1) for the linear kind and
    2m A P (P'AP)^(m-1) for the quadratic kind; powers s > 1 apply the chain
    rule c s base^(s-1).  Columns outside the term's selector are zero.
    """
    P = as_matrix(P, "P")
    X, S, _, chain = _atom(term, term.select(P))
    G_i = _atom_grad(term, X, S, chain)
    if term.cols is None:
        return G_i
    G = np.zeros(P.shape)
    G[:, list(term.cols)] = G_i
    return G


@dataclass(frozen=True)
class OuterFunction:
    """Outer scalar function phi with its partial derivatives.

    ``value`` maps an N-vector of term values to a scalar; ``partials`` maps
    it to the N-vector of partial derivatives.  ``convex`` and
    ``sign_nonneg`` are declarations: the solver guarantees are conditional
    on them, and the library monitors rather than proves them (see
    ``spot_check_outer``).  ``sign_nonneg`` lists, per coordinate, whether
    the partial derivative is declared nonnegative.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    partials: Callable[[np.ndarray], np.ndarray]
    convex: bool = False
    sign_nonneg: tuple[bool, ...] | None = None
    name: str = "custom"


def outer_sum(dim: int) -> OuterFunction:
    """phi(x) = sum(x)."""
    return OuterFunction(
        dim,
        lambda x: float(np.sum(x)),
        lambda x: np.ones(dim),
        convex=True,
        sign_nonneg=(True,) * dim,
        name="sum",
    )


def outer_weighted_sum(weights) -> OuterFunction:
    """phi(x) = w . x with fixed weights."""
    w = np.asarray(weights, dtype=float).ravel()
    return OuterFunction(
        w.size,
        lambda x: float(w @ np.asarray(x)),
        lambda x: w.copy(),
        convex=True,
        sign_nonneg=tuple(bool(wi >= 0) for wi in w),
        name="weighted_sum",
    )


def outer_theta_ratio(theta: float) -> OuterFunction:
    """phi(x) = (x2 + x3) / x1^theta over x = [x1, x2, x3].

    The trace-ratio outer function; not convex, supplied for the direct
    ratio objectives, whose composition field is the trace-ratio field.
    """
    th = float(theta)

    def value(x):
        x = np.asarray(x, dtype=float)
        if x[0] <= RATIO_DENOMINATOR_FLOOR:
            raise ValueError(f"ratio denominator {x[0]:.3e} below floor")
        return float((x[1] + x[2]) / x[0] ** th)

    def partials(x):
        x = np.asarray(x, dtype=float)
        if x[0] <= RATIO_DENOMINATOR_FLOOR:
            raise ValueError(f"ratio denominator {x[0]:.3e} below floor")
        p = np.empty(3)
        p[0] = -th * (x[1] + x[2]) / x[0] ** (th + 1.0)
        p[1] = 1.0 / x[0] ** th
        p[2] = 1.0 / x[0] ** th
        return p

    return OuterFunction(3, value, partials, convex=False,
                         sign_nonneg=(False, True, True), name="theta_ratio")


def outer_ratio_squared(theta: float) -> OuterFunction:
    """phi(x) = (x2 + x3)^2 / x1^(2 theta), convex for theta in [0, 1/2]
    on the domain x1 > 0, x2 + x3 >= 0."""
    th = float(theta)

    def value(x):
        x = np.asarray(x, dtype=float)
        if x[0] <= RATIO_DENOMINATOR_FLOOR:
            raise ValueError(f"ratio denominator {x[0]:.3e} below floor")
        return float((x[1] + x[2]) ** 2 / x[0] ** (2.0 * th))

    def partials(x):
        x = np.asarray(x, dtype=float)
        if x[0] <= RATIO_DENOMINATOR_FLOOR:
            raise ValueError(f"ratio denominator {x[0]:.3e} below floor")
        num = x[1] + x[2]
        p = np.empty(3)
        p[0] = -2.0 * th * num**2 / x[0] ** (2.0 * th + 1.0)
        p[1] = 2.0 * num / x[0] ** (2.0 * th)
        p[2] = p[1]
        return p

    # Partial signs hold only on the convexity domain x2 + x3 >= 0; declaring
    # them here would make domain-blind spot checks false-alarm.
    return OuterFunction(3, value, partials, convex=(0.0 <= th <= 0.5),
                         sign_nonneg=None, name="ratio_squared")


def spot_check_outer(outer: OuterFunction, samples: np.ndarray,
                     fd_step: float = 1e-6) -> None:
    """Numerically spot-check declared convexity and partial signs.

    Midpoint convexity is sampled on random pairs from ``samples`` (rows are
    points in the outer function's domain); declared-nonnegative partials are
    sampled pointwise.  Violations raise warnings, never errors: the
    guarantees are conditional on these properties and the library can only
    monitor them.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] == 0:
        return
    if outer.convex:
        for i in range(samples.shape[0] - 1):
            x, y = samples[i], samples[i + 1]
            try:
                lhs = outer.value(0.5 * (x + y))
                rhs = 0.5 * (outer.value(x) + outer.value(y))
            except ValueError:
                continue
            if lhs > rhs + 1e-8 * max(1.0, abs(rhs)):
                warnings.warn(
                    f"outer function {outer.name!r} failed a midpoint-convexity "
                    f"spot check ({lhs:.6g} > {rhs:.6g})", stacklevel=2)
                break
    if outer.sign_nonneg is not None:
        for x in samples:
            try:
                p = outer.partials(x)
            except ValueError:
                continue
            for i, must in enumerate(outer.sign_nonneg):
                if must and p[i] < -1e-10 * max(1.0, abs(p[i])):
                    warnings.warn(
                        f"outer function {outer.name!r}: partial {i} declared "
                        f"nonnegative but sampled {p[i]:.3e}", stacklevel=2)
                    return


@dataclass(frozen=True)
class ThetaRatioData:
    """Exponent and matrices of a trace ratio tr(P'AP + P'D) / tr(P'BP)^theta,
    as read off a ratio objective by ``ComposedObjective.theta_data``."""

    theta: float
    A: np.ndarray
    B: np.ndarray
    D: np.ndarray


@dataclass(frozen=True)
class FieldEvaluation:
    """Symmetric field H(P) with the KKT-equivalence mismatch M(P).

    The identity H(P) P - grad f(P) = P M(P) holds by construction;
    ``asymmetry`` is ||M - M'||_F / max(1, ||M||_F), which vanishes exactly
    when a field solution at P is a KKT point.
    """

    H: np.ndarray
    mismatch: np.ndarray
    asymmetry: float


@dataclass(frozen=True)
class ComposedObjective:
    """Objective f = phi o T over n-by-k Stiefel points.

    ``field_recipe`` selects how the symmetric field H(P) is produced:

    * ``"generic"``      - H = grad P' + P grad', always valid;
    * ``"composition"``  - per-term fields weighted by the outer partials
                           (requires every selector to cover all columns).

    ``theta_data`` is a read-only view, derived rather than stored: for the
    theta-ratio outer over the terms (B, A, D) it is
    ``ThetaRatioData(meta["theta"], A, B, D)`` with the terms' own matrices,
    else None.

    ``alignment`` is the rotation rule the solvers use to map subproblem
    solutions back into the feasible subset (duck-typed; see
    ``stiefelscf.alignment``).  ``npdo_monotone`` / ``nepv_monotone`` declare
    whether the respective framework's per-step ascent guarantee applies to
    this objective, which gates debug-mode monotonicity assertions in the
    solvers.  Instances are immutable; evaluations are pure and reentrant
    (outer-function callbacks must themselves be reentrant).
    """

    n: int
    k: int
    terms: tuple[AtomicTerm, ...]
    outer: OuterFunction
    field_recipe: str = "generic"
    alignment: object = None
    npdo_monotone: bool = False
    nepv_monotone: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.outer.dim != len(self.terms):
            raise ValueError(
                f"outer dimension {self.outer.dim} != number of terms {len(self.terms)}")
        if self.field_recipe not in ("generic", "composition"):
            raise ValueError(f"unknown field recipe {self.field_recipe!r}")
        for t in self.terms:
            if t.cols is not None and (t.cols[-1] >= self.k):
                raise ValueError(f"selector {t.cols} out of bounds for k = {self.k}")
            w = t.width(self.k)
            if t.kind == "linear" and t.matrix.shape != (self.n, w):
                raise ValueError(
                    f"linear term matrix shape {t.matrix.shape} != ({self.n}, {w})")
            if t.kind == "quadratic" and t.matrix.shape != (self.n, self.n):
                raise ValueError(
                    f"quadratic term matrix shape {t.matrix.shape} != ({self.n}, {self.n})")

    @property
    def theta_data(self) -> ThetaRatioData | None:
        """The trace-ratio data read off the terms, or None (see above)."""
        if self.outer.name != "theta_ratio" or "theta" not in self.meta:
            return None
        B, A, D = (t.matrix for t in self.terms)
        return ThetaRatioData(self.meta["theta"], A, B, D)

    # -- scalar quantities -------------------------------------------------

    def term_values(self, P) -> np.ndarray:
        P = as_matrix(P, "P")
        return np.array([eval_atomic(t, P) for t in self.terms])

    def value(self, P) -> float:
        return float(self.outer.value(self.term_values(P)))

    # -- gradients ---------------------------------------------------------

    def euclidean_grad(self, P) -> np.ndarray:
        P = as_matrix(P, "P")
        phi = self.outer.partials(self.term_values(P))
        G = np.zeros((self.n, self.k))
        for w, t in zip(phi, self.terms):
            if w != 0.0:
                G += w * grad_atomic(t, P)
        return G

    def riemannian_grad(self, P) -> np.ndarray:
        P = as_matrix(P, "P")
        G = self.euclidean_grad(P)
        return G - P @ sym_part(P.T @ G)

    # -- the symmetric field -----------------------------------------------

    def script_d(self, P) -> np.ndarray:
        """Weighted sum of the full-selector m=1 linear matrices.

        This is the matrix driving the optimal alignment rotation; weights
        are the outer partials times each term's own chain factor.
        """
        P = as_matrix(P, "P")
        phi = self.outer.partials(self.term_values(P))
        D = np.zeros((self.n, self.k))
        for w, t in zip(phi, self.terms):
            if t.kind == "linear" and t.m == 1 and t.cols is None:
                D += w * _atom(t, P)[3] * t.matrix
        return D

    def field(self, P) -> FieldEvaluation:
        """Symmetric field H(P) and mismatch M(P) per the configured recipe."""
        P = as_matrix(P, "P")
        if self.field_recipe == "composition":
            if any(t.cols is not None and len(t.cols) != self.k for t in self.terms):
                raise RecipeRequiresFullSelectors(
                    "composition field recipe needs full-column selectors; "
                    "use the generic recipe for partial-column objectives")
            atoms = [_atom(t, P) for t in self.terms]
            phi = self.outer.partials(np.array([a[2] for a in atoms]))
            H = np.zeros((self.n, self.n))
            M = np.zeros((self.k, self.k))
            weighted = [(w * chain, t, X, S) for w, t, (X, S, _, chain)
                        in zip(phi, self.terms, atoms) if w != 0.0]
            for w, t, X, S in weighted:
                _add_term_field(H, M, t, P, X, S, w)
        else:
            G = self.euclidean_grad(P)
            H = sym_part(G @ P.T + P @ G.T)
            M = G.T @ P
        if __debug__:
            if self.field_recipe == "composition":
                G = sum(_atom_grad(t, X, S, w) for w, t, X, S in weighted)
            err = np.linalg.norm(H @ P - G - P @ M)
            assert err <= FIELD_IDENTITY_TOL * max(1.0, np.linalg.norm(H)), (
                f"field identity violated: {err:.3e}")
        denom = max(1.0, np.linalg.norm(M))
        return FieldEvaluation(H, M, float(np.linalg.norm(M - M.T) / denom))

    def mismatch_asymmetry(self, P) -> float:
        """Asymmetry of M(P); ~0 certifies a field solution as a KKT point."""
        return self.field(P).asymmetry

    def theta_sign_ok(self, P) -> bool:
        """Sign condition tr(P'AP + P'D) >= 0 for ratio exponents in (0, 1)."""
        td = self.theta_data
        if td is None:
            return True
        P = as_matrix(P, "P")
        return float(np.trace(P.T @ (td.A @ P)) + np.trace(P.T @ td.D)) >= 0.0

    # -- structural transforms ----------------------------------------------

    def transform(self, T, meta_update: dict | None = None) -> "ComposedObjective":
        """Objective g(Z) = f(T @ Z) with the atomic structure substituted.

        Linear matrices map to T' D and quadratic ones to T' A T; selectors,
        outer function, field recipe and monotonicity declarations carry
        over.  Used for subspace restriction (orthonormal T) and metric
        lifting (T = R^{-1}).
        """
        T = as_matrix(T, "T")
        if T.shape[0] != self.n:
            raise ValueError(f"transform rows {T.shape[0]} != n = {self.n}")
        new_terms = []
        for t in self.terms:
            if t.kind == "linear":
                new_terms.append(replace(t, matrix=T.T @ t.matrix))
            else:
                new_terms.append(replace(t, matrix=sym_part(T.T @ t.matrix @ T)))
        align = self.alignment.transform(T) if self.alignment is not None else None
        meta = dict(self.meta)
        if meta_update:
            meta.update(meta_update)
        return ComposedObjective(
            n=T.shape[1], k=self.k, terms=tuple(new_terms), outer=self.outer,
            field_recipe=self.field_recipe, alignment=align,
            npdo_monotone=self.npdo_monotone, nepv_monotone=self.nepv_monotone,
            meta=meta)
