"""Composed matrix-trace objectives on the Stiefel manifold.

An objective is f(P) = phi(T(P)) where each component of T is an atomic term

    c * [tr((P_i' D)^m)]^s        ("linear" kind)
    c * [tr((P_i' A P_i)^m)]^s    ("quadratic" kind)

with P_i a column selection of P, and phi is a scalar outer function supplied
as paired value/partials callbacks.  The objective knows how to produce its
value, Euclidean gradient, Riemannian gradient, and the symmetric field H(P)
used by the eigenvector-based solver together with the mismatch matrix M(P)
whose symmetry certifies that a field solution is a KKT point.

Everything is evaluated through ``ComposedObjective.at(P)``, a
``PointEvaluation`` that validates P once and computes each term's products
(X = A P_i or D, S = P_i' X, the value and the chain factor) on first use and
keeps them.  The term values, f, the outer partials, both gradients, the
alignment matrix scriptD and the field are derived from those products, so
one point costs one A P product per quadratic term however many of them a
solver step asks for.  The solvers carry the evaluation at each iterate from
the step that produced it to the next.  An evaluation can also be handed
its products.  The subspace step forms A W for its basis W = [P, ...] with
one product per term matrix (``PointEvaluation.basis_products``, which
reuses the A P the evaluation holds); ``transform`` builds W' A W from that
A W, and the point P = W Z it lands on is evaluated from (A W) Z, so the
landed point costs no A P product.

Each of these full-size products with a term matrix, A P_i, A W and A T, is
formed as (X'A)' by ``kernels._sym_matmul``.  That is A X because every
quadratic term matrix is exactly symmetric (``AtomicTerm`` refuses any
other).  For a C-ordered n-by-n A and a thin X it runs on the BLAS GEMM path
that packs the large operand well.  One run of ``tools/product_timing.py``
on OpenBLAS 0.3.31 (Haswell kernels, one thread) gave, in median
microseconds per product:

    n, k       A @ X   (X'A)'
    1000, 2     1386     962
    1000, 4     1398    1092
    1000, 8     1511    1193
    1000, 12    2066    1372
    200, 8        27      29
    40, 3        3.6     5.2

so an NPDo solve at n = 1000, where the product is most of the work, takes
about a fifth less time, and at n <= 200 the two differ by a microsecond or
two.

The objective's ``value``, ``euclidean_grad``, ``riemannian_grad``,
``script_d`` and ``field`` methods, and the single-term ``eval_atomic`` and
``grad_atomic``, are one-line wrappers over a fresh evaluation, kept because
the benchmark's per-layer tracer wraps them by name; other per-point
quantities are read off ``at(P)``.

An objective holds only what defines f and how the solvers treat it: n, k,
the terms, the outer function, the alignment rule and the two ascent
declarations, so a transformed objective carries no stale copy of the data
of the problem it came from.

An objective is checked once, when it is built: its order 1 <= k <= n, term
shapes and selectors, and the alignment rule (a
``stiefelscf.alignment.PolarAlignment``) against the terms.

The selectors decide the field recipe.  When every term covers all k
columns the field is the "composition" one, the per-term fields weighted by
the outer partials; otherwise (column-block terms, as in sumct) it is the
"generic" H = G P' + P G' from the gradient G.  For the trace ratio
(x2 + x3) / x1^theta over (tr(P'BP), tr(P'AP), tr(P'D)) the composition
gives (2 / b^theta) (A + sym(D P') - theta (a + d) / b B) with
M = b^-theta D'P; ``ComposedObjective.theta_data`` reads theta off the outer
function and A, B and D off the terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .alignment import PolarAlignment
from .kernels import _sym, _sym_matmul, as_matrix, require_symmetric

__all__ = [
    "AtomicTerm",
    "ComposedObjective",
    "FieldEvaluation",
    "NegativeBaseError",
    "OuterFunction",
    "PointEvaluation",
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

# Relative tolerance for the exact algebraic identity H(P) P - grad = P M(P),
# which ``nepv.nepv_certificates`` measures (``field_identity``); only
# rounding error is expected.
FIELD_IDENTITY_TOL = 1e-10


class NegativeBaseError(ValueError):
    """A power term with s > 1 was evaluated where its base is negative."""


def _matpow(M: np.ndarray, m: int) -> np.ndarray:
    if m == 0:
        return np.eye(M.shape[0])
    if m == 1:
        return M
    return np.linalg.matrix_power(M, m)


@dataclass(frozen=True)
class AtomicTerm:
    """One atomic component c * [tr(.)^m]^s with a column selector.

    ``matrix`` is D (n-by-k_i) for the linear kind or A (n-by-n, exactly
    symmetric: A == A.T bit for bit, else ``ValueError``) for the quadratic
    kind; ``quadratic`` symmetrizes a matrix within ``SYMMETRY_TOL``.
    ``cols`` is None for "all columns of P", else a nonempty, strictly
    increasing tuple of column indices in 0..k-1.
    """

    kind: str
    matrix: np.ndarray
    m: int = 1
    s: float = 1.0
    c: float = 1.0
    cols: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic"):
            raise ValueError(f"unknown atomic kind {self.kind!r}")
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"power m must be an integer >= 1, got {self.m}")
        if self.s < 1.0:
            raise ValueError(f"power s must be >= 1, got {self.s}")
        if self.c <= 0.0:
            raise ValueError(f"scale c must be > 0, got {self.c}")
        if self.kind == "quadratic" and not np.array_equal(self.matrix,
                                                           self.matrix.T):
            # The gradient 2 A P and the product (P'A)' hold only for A = A'.
            raise ValueError("quadratic term matrix must be exactly symmetric")
        if self.cols is not None:
            if not self.cols or min(self.cols) < 0:
                raise ValueError("selector columns must be a nonempty tuple "
                                 "of indices >= 0")
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
        return AtomicTerm("quadratic", A, m=int(m), s=float(s), c=float(c),
                          cols=None if cols is None else tuple(cols))

    def width(self, k: int) -> int:
        return k if self.cols is None else len(self.cols)

    def select(self, P: np.ndarray) -> np.ndarray:
        return P if self.cols is None else P[:, list(self.cols)]


def _atom(term: AtomicTerm, P_i: np.ndarray):
    # (X, S, value, chain) of one term at its selected columns P_i: X = D for
    # the linear kind or A P_i for the quadratic kind, the one full-size
    # product, and the rest from ``_atom_from``.
    X = term.matrix if term.kind == "linear" else _sym_matmul(term.matrix, P_i)
    return _atom_from(term, P_i, X)


def _atom_from(term: AtomicTerm, P_i: np.ndarray, X: np.ndarray):
    # ``_atom`` given X: S = P_i' X, the value c base^s and the chain factor
    # c s base^(s-1), with base = tr(S^m), in O(n k_i^2).
    S = P_i.T @ X
    base = float(_matpow(S, term.m).trace())
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
    if term.m == 1:
        return chain * (scale * X)
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
            # H_t = 2m A (P P'A)^(m-1) = 2m X S^(m-2) X', O(n^2 k).  For m = 2
            # it is X X', symmetric as computed; for larger m it is symmetric
            # to rounding, which top_k_eigenpairs' symmetrization absorbs.
            Y = X if term.m == 2 else X @ _matpow(S, term.m - 2)
            H += (2.0 * term.m * w) * (Y @ X.T)
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
    it to the N-vector of partial derivatives.  ``theta`` is the exponent of
    the trace ratio (x2 + x3) / x1^theta made by ``outer_theta_ratio``, and
    None for every other phi.  These four fields are all of phi: it has no
    name, and whether it carries an ascent guarantee is declared by the
    objective that uses it (``ComposedObjective.npdo_monotone`` /
    ``nepv_monotone``), not here.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    partials: Callable[[np.ndarray], np.ndarray]
    theta: float | None = None


def outer_sum(dim: int) -> OuterFunction:
    """phi(x) = sum(x)."""
    return OuterFunction(
        dim,
        lambda x: float(np.sum(x)),
        lambda x: np.ones(dim),
    )


def outer_weighted_sum(weights) -> OuterFunction:
    """phi(x) = w . x with fixed weights."""
    w = np.asarray(weights, dtype=float).ravel()
    return OuterFunction(
        w.size,
        lambda x: float(w @ np.asarray(x)),
        lambda x: w.copy(),
    )


def _ratio_point(x) -> np.ndarray:
    # x = [denominator, numerator terms...] as floats, refused when the
    # denominator is at or below the floor.
    x = np.asarray(x, dtype=float)
    if x[0] <= RATIO_DENOMINATOR_FLOOR:
        raise ValueError(f"ratio denominator {x[0]:.3e} below floor")
    return x


def outer_theta_ratio(theta: float) -> OuterFunction:
    """phi(x) = (x2 + x3) / x1^theta over x = [x1, x2, x3].

    The trace-ratio outer function; not convex, supplied for the direct
    ratio objectives, whose composition field is the trace-ratio field.
    """
    th = float(theta)

    def value(x):
        x = _ratio_point(x)
        return float((x[1] + x[2]) / x[0] ** th)

    def partials(x):
        x = _ratio_point(x)
        p = np.empty(3)
        p[0] = -th * (x[1] + x[2]) / x[0] ** (th + 1.0)
        p[1] = 1.0 / x[0] ** th
        p[2] = 1.0 / x[0] ** th
        return p

    return OuterFunction(3, value, partials, theta=th)


def outer_ratio_squared(theta: float) -> OuterFunction:
    """phi(x) = (x2 + x3)^2 / x1^(2 theta), convex for theta in [0, 1/2]
    on the domain x1 > 0, x2 + x3 >= 0."""
    th = float(theta)

    def value(x):
        x = _ratio_point(x)
        return float((x[1] + x[2]) ** 2 / x[0] ** (2.0 * th))

    def partials(x):
        x = _ratio_point(x)
        num = x[1] + x[2]
        p = np.empty(3)
        p[0] = -2.0 * th * num**2 / x[0] ** (2.0 * th + 1.0)
        p[1] = 2.0 * num / x[0] ** (2.0 * th)
        p[2] = p[1]
        return p

    return OuterFunction(3, value, partials)


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

    The identity H(P) P - grad f(P) = P M(P) holds by construction and is
    measured by ``nepv.nepv_certificates``, not per evaluation;
    ``asymmetry`` is ||M - M'||_F / max(1, ||M||_F), which vanishes exactly
    when a field solution at P is a KKT point.
    """

    H: np.ndarray
    mismatch: np.ndarray
    asymmetry: float


@dataclass(frozen=True)
class ComposedObjective:
    """Objective f = phi o T over n-by-k Stiefel points.

    Its seven fields are all it holds: n, k, the terms, the outer function,
    the alignment rule and the two ascent declarations.

    ``field_recipe`` is read off the selectors, not set: it is
    ``"composition"`` (per-term fields weighted by the outer partials) when
    every term covers all k columns, else ``"generic"``
    (H = grad P' + P grad').  A full-column objective that wants the generic
    field is written as what that field belongs to, a sum of column-block
    terms.

    ``theta_data`` is a read-only view, derived rather than stored: for an
    ``outer_theta_ratio`` over the full-column terms (B, A, D), quadratic,
    quadratic and linear with m = s = c = 1, it is
    ``ThetaRatioData(outer.theta, A, B, D)`` with the terms' own matrices,
    else None.

    ``alignment`` is the ``PolarAlignment`` rule the solvers use to map
    subproblem solutions back into the feasible subset; the default
    ``PolarAlignment(blocks=())`` rotates nothing.  ``npdo_monotone`` /
    ``nepv_monotone`` declare whether the respective framework's per-step
    ascent guarantee applies to this objective; the solvers then check every
    step, and a step that lowers f ends the solve with
    ``stop_reason="ascent_violated"``.

    ``at(P)`` returns the ``PointEvaluation`` at P, which caches each term's
    products and what is derived from them; ``value``, ``euclidean_grad``,
    ``riemannian_grad``, ``script_d`` and ``field`` read one fresh
    evaluation each.  ``__post_init__`` validates 1 <= k <= n, the terms and
    the alignment rule once (``TypeError`` for an alignment that is not a
    ``PolarAlignment``, and ``PolarAlignment.check``).
    Instances are immutable and hold no cache, so evaluations are pure and
    reentrant (outer-function callbacks must themselves be reentrant).
    """

    n: int
    k: int
    terms: tuple[AtomicTerm, ...]
    outer: OuterFunction
    alignment: PolarAlignment = PolarAlignment(blocks=())
    npdo_monotone: bool = False
    nepv_monotone: bool = False

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got n = {self.n}, k = {self.k}")
        if self.outer.dim != len(self.terms):
            raise ValueError(
                f"outer dimension {self.outer.dim} != number of terms {len(self.terms)}")
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
        if not isinstance(self.alignment, PolarAlignment):
            raise TypeError(f"alignment must be a PolarAlignment, got "
                            f"{type(self.alignment).__name__}")
        self.alignment.check(self)

    @property
    def field_recipe(self) -> str:
        """The field recipe the selectors decide (see above)."""
        full = all(t.width(self.k) == self.k for t in self.terms)
        return "composition" if full else "generic"

    @property
    def theta_data(self) -> ThetaRatioData | None:
        """The trace-ratio data read off the outer function and the terms,
        or None (see above)."""
        kinds = ("quadratic", "quadratic", "linear")
        if (self.outer.theta is None or self.field_recipe != "composition"
                or tuple(t.kind for t in self.terms) != kinds
                or any((t.m, t.s, t.c) != (1, 1.0, 1.0) for t in self.terms)):
            return None
        B, A, D = (t.matrix for t in self.terms)
        return ThetaRatioData(self.outer.theta, A, B, D)

    def at(self, P) -> "PointEvaluation":
        """The evaluation of f at P; P is validated here, once."""
        return PointEvaluation(self, as_matrix(P, "P"))

    def value(self, P) -> float:
        return self.at(P).value

    def euclidean_grad(self, P) -> np.ndarray:
        return self.at(P).euclidean_grad

    def riemannian_grad(self, P) -> np.ndarray:
        return self.at(P).riemannian_grad

    def script_d(self, P) -> np.ndarray:
        """Weighted sum of the full-selector m=1 linear matrices (see
        ``PointEvaluation.script_d``)."""
        return self.at(P).script_d

    def field(self, P) -> FieldEvaluation:
        """Symmetric field H(P) and mismatch M(P) per the objective's recipe."""
        return self.at(P).field

    # -- structural transforms ----------------------------------------------

    def transform(self, T, products=None) -> "ComposedObjective":
        """Objective g(Z) = f(T @ Z) with the atomic structure substituted.

        Linear matrices map to T' D and quadratic ones to T' (A T); selectors
        (and so the field recipe), outer function and monotonicity
        declarations carry over, and T needs at least k columns.  Used for
        subspace restriction (orthonormal T, the reduced problem of the
        subspace-accelerated solvers, whose field is T' H(TZ) T with
        mismatch M(TZ)) and metric lifting (T = R^{-1}).  ``products``, if
        given, holds per term the product A T a caller already formed, or
        None where this forms it (linear terms read none).
        """
        T = as_matrix(T, "T")
        if T.shape[0] != self.n:
            raise ValueError(f"transform rows {T.shape[0]} != n = {self.n}")
        terms = tuple(
            replace(t, matrix=T.T @ t.matrix if t.kind == "linear"
                    else _sym(T.T @ (_sym_matmul(t.matrix, T) if AT is None
                                     else AT)))
            for t, AT in zip(self.terms, products or [None] * len(self.terms)))
        return ComposedObjective(
            n=T.shape[1], k=self.k, terms=terms, outer=self.outer,
            alignment=self.alignment.transform(T),
            npdo_monotone=self.npdo_monotone, nepv_monotone=self.nepv_monotone)


class PointEvaluation:
    """The objective at one point P, each quantity computed once, on demand.

    Made by ``ComposedObjective.at(P)``, which validates P; the solvers make
    it directly for the iterates they produce.  ``atom(i)`` holds term i's
    products (X, S, value, chain factor) of ``_atom``, computed on first use
    (one A P_i product for a quadratic term); the other attributes are
    derived from them on first use and kept.  ``products``, if given, holds
    per term an X = A P_i the caller already has, or None where ``atom``
    forms it: the subspace step lands on P = W Z with X = (A W) Z_i, so its
    landed point costs no full-size product.  An evaluation belongs to the
    code that made it and is never shared, which keeps the objective itself
    free of mutable state; treat the arrays it returns as read-only.
    """

    def __init__(self, obj: ComposedObjective, P: np.ndarray, products=None):
        self.obj, self.P = obj, P
        self._atoms = [None] * len(obj.terms)
        self._products = products or [None] * len(obj.terms)

    def atom(self, i: int):
        a = self._atoms[i]
        if a is None:
            t, X = self.obj.terms[i], self._products[i]
            P_i = t.select(self.P)
            a = self._atoms[i] = (_atom(t, P_i) if X is None
                                  else _atom_from(t, P_i, X))
        return a

    def basis_products(self, W: np.ndarray) -> list:
        """A W for each quadratic term (None for a linear one), for a basis
        W whose leading k columns are P: a full-column term reuses the A P
        this evaluation holds and multiplies A by the other columns only; a
        column-block term, which holds A P_i for its own columns alone,
        multiplies A by all of W.  Either way, one product with A."""
        k, out = self.obj.k, []
        for i, t in enumerate(self.obj.terms):
            if t.kind == "linear":
                out.append(None)
            elif t.cols is None:
                out.append(np.hstack([self.atom(i)[0],
                                      _sym_matmul(t.matrix, W[:, k:])]))
            else:
                out.append(_sym_matmul(t.matrix, W))
        return out

    @cached_property
    def term_values(self) -> np.ndarray:
        return np.array([self.atom(i)[2] for i in range(len(self.obj.terms))])

    @cached_property
    def value(self) -> float:
        return float(self.obj.outer.value(self.term_values))

    @cached_property
    def partials(self) -> np.ndarray:
        return self.obj.outer.partials(self.term_values)

    @cached_property
    def euclidean_grad(self) -> np.ndarray:
        G = np.zeros(self.P.shape)
        for i, (w, t) in enumerate(zip(self.partials, self.obj.terms)):
            if w != 0.0:
                X, S, _, chain = self.atom(i)
                G_i = w * _atom_grad(t, X, S, chain)
                if t.cols is None:
                    G += G_i
                else:
                    G[:, list(t.cols)] += G_i
        return G

    @cached_property
    def riemannian_grad(self) -> np.ndarray:
        G, P = self.euclidean_grad, self.P
        return G - P @ _sym(P.T @ G)

    @cached_property
    def script_d(self) -> np.ndarray:
        """Weighted sum of the full-selector m=1 linear matrices.

        This is the matrix driving the optimal alignment rotation; weights
        are the outer partials times each term's own chain factor.
        """
        D, k = np.zeros(self.P.shape), self.obj.k
        for i, (w, t) in enumerate(zip(self.partials, self.obj.terms)):
            if t.kind == "linear" and t.m == 1 and t.width(k) == k:
                D += w * self.atom(i)[3] * t.matrix
        return D

    @cached_property
    def field(self) -> FieldEvaluation:
        """Symmetric field H(P) and mismatch M(P) per the objective's recipe."""
        obj, P = self.obj, self.P
        if obj.field_recipe == "composition":
            H = np.zeros((obj.n, obj.n))
            M = np.zeros((obj.k, obj.k))
            for i, (w, t) in enumerate(zip(self.partials, obj.terms)):
                if w != 0.0:
                    X, S, _, chain = self.atom(i)
                    _add_term_field(H, M, t, P, X, S, w * chain)
        else:
            G = self.euclidean_grad
            H = _sym(G @ P.T + P @ G.T)
            M = G.T @ P
        if not np.isfinite(H).all():
            # Overflow in the data: a failed solve.
            raise ValueError("field H(P) has non-finite entries")
        denom = max(1.0, np.linalg.norm(M))
        return FieldEvaluation(H, M, float(np.linalg.norm(M - M.T) / denom))

    @property
    def theta_sign_ok(self) -> bool:
        """Sign condition tr(P'AP + P'D) >= 0 of a trace ratio (the ratio's
        numerator, terms 1 and 2); True for other objectives."""
        if self.obj.theta_data is None:
            return True
        x = self.term_values
        return float(x[1] + x[2]) >= 0.0
