"""Composed matrix-trace objectives on the Stiefel manifold.

An objective is f(P) = phi(T(P)) where T stacks the coordinates of atomic
terms

    c * [tr((P_i' D)^m)]^s        ("linear" kind, one coordinate)
    c * [tr((P_i' A P_i)^m)]^s    ("quadratic" kind, one coordinate)
    c * diag(R P_i P_i' R')       ("diagonal" kind, one per row of R)

with P_i a column selection of P, and phi is a scalar outer function supplied
as paired value/partials callbacks over all the coordinates, term after
term.  The objective knows how to produce its value, Euclidean gradient,
Riemannian gradient, and the symmetric field H(P) used by the
eigenvector-based solver together with the mismatch matrix M(P) whose
symmetry certifies that a field solution is a KKT point.

Everything is evaluated through ``ComposedObjective.at(P)``, a
``PointEvaluation`` that validates P once and computes each term's products
(X = A P_i or D, S = P_i' X, the value and the chain factor) on first use and
keeps them.  The term values, f, the outer partials, both gradients, the
alignment matrix scriptD and the field are derived from those products, so
one point costs one A P product per quadratic term however many of them a
solver step asks for.  Those derived attributes, and the field's, are lazy
attributes (``_lazy``) rather than ``functools.cached_property``, which
on Python 3.10 and 3.11 takes a lock on each first read: 0.66 against
0.31 us per read on CPython 3.11, on the 5-10 such reads of every step.
The solvers carry the evaluation at each iterate from the step that
produced it to the next.  An evaluation can also be handed its products.
The subspace step forms A W for its basis W = [P, ...] with one product
per term matrix (``PointEvaluation.basis_products``, which
reuses the A P the evaluation holds); ``transform`` builds W' A W from that
A W, and the point P = W Z it lands on is evaluated from (A W) Z, so the
landed point costs no A P product.

Each of these full-size products with a term matrix, A P_i, A W and A T, is
formed by ``kernels._thin_matmul`` in row panels A[i:i+r] @ X of at most
``kernels.PANEL_MNK`` = 100^3 multiply-adds each, the size up to which
OpenBLAS runs its small-matrix GEMM kernel, which skips packing.  At n <= 200
and k <= 25 one panel covers A and the product is A @ X.  One run of
``tools/product_timing.py`` on OpenBLAS 0.3.31 (Haswell kernels, one thread)
gave, in median microseconds per product:

    n, k       A @ X   panels   ratio
    1000, 2     971.7    406.3    0.42
    1000, 4    1015.5    458.8    0.45
    1000, 8    1184.1    644.2    0.54
    1000, 12   1597.0   1027.5    0.64
    1000, 16   1482.9    843.9    0.57
    2000, 4    4594.2   1915.0    0.42
    200, 8       20.8     23.7    1.14
    200, 24      45.8     50.3    1.10
    40, 3         2.5      5.2    2.04

so an NPDo solve at n = 1000, where the product is most of the work, takes
about 30% less time (``sep``/npdo on ``polar-route``: 428 to 294 ms, 433
steps either way), and at n <= 200 the kernel's own per-call cost adds a
microsecond or three.

The diagonal atom is the density of the Kohn-Sham-type model of Liu, Wang,
Wen and Yuan (SIAM J. Matrix Anal. Appl. 35(2), 2014): its coordinate
x_r = tr(P_i' R' e_r e_r' R P_i) is the squared norm of row r of R P_i, its
gradient is 2 R' diag(w) R P_i and its field 2 R' diag(w) R for the outer
partials w of its coordinates.  ``AtomicTerm.diagonal`` builds
it with R the identity, stored as None, which costs nothing to hold: the
field then adds 2 w to the diagonal of H, and no product is formed.
``transform`` maps R to R T.  It stands in for n rank-one quadratic atoms
e_r e_r', which held one dense n-by-n matrix and formed one n-by-k product
each per evaluation (121 terms and 14 MB for ``dft`` at n = 120, 8 GB at
n = 1000).

The field has one object per point, ``FactoredField``, which
``PointEvaluation.field`` builds from the products the evaluation already
has: each term contributes its own closed-form part, weighted by its outer
partial, sum_q c_q A_q over the m = 1 quadratic terms, diag(v) over the
diagonal terms with R = I, U P' + P U' over the linear terms and one
low-rank pair Y Z' for each other term (for the generic recipe, U = G
alone).  It applies H at one product per m = 1 quadratic term, gives H P in
O(n k^2) and ||H||_F by a Gram identity where that holds, so a warm
eigenvector step forms no n-by-n matrix.  Its ``H`` is the one place the
n-by-n H is formed, for a dense eigensolve, for the norm where the Gram
identity gives none, and for the certificates.  The mismatch M(P) is U'P
for either recipe, so M and its asymmetry need no H.

A formed field is made afresh at each evaluation.  Those 14 MB of row
atoms had also kept glibc from trimming the top of its heap; without them
the heap is trimmed after each step, and the next step's fresh n-by-n
arrays fault in zeroed pages.  So the dense eigenvector step (``nepv``)
owns one n-by-n array for the whole solve, which it symmetrizes H into and
LAPACK overwrites.  Counting ``ru_minflt`` around each ``eigen-route``
solve of the benchmark loop (n = 200), an ``mbsub``/nepv solve took 8361
minor page faults without that array, 379 with it and 0 with the row
atoms, and the workload's ``solves_per_kref`` was about 100, 131 and 118,
while every step still formed H.

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
from typing import Callable

import numpy as np

from .alignment import PolarAlignment
from .kernels import (
    PLAIN_NORM_RANGE,
    _scaled_norm,
    _sym,
    _thin_matmul,
    as_matrix,
    require_symmetric,
)

__all__ = [
    "AtomicTerm",
    "ComposedObjective",
    "FactoredField",
    "NegativeBaseError",
    "OuterFunction",
    "PointEvaluation",
    "ThetaRatioData",
    "eval_atomic",
    "field_gram",
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

# The Gram identity gives ||H||_F^2 as a signed sum; below this fraction of
# the sum of its terms' magnitudes, cancellation may have cost it its
# digits, and the norm is taken of the formed field instead
# (``FactoredField.frobenius_norm``).
GRAM_CANCELLATION = 1e-8


class _lazy:
    """A lazy attribute: computed by ``func`` on first read and stored in
    the instance ``__dict__`` under its own name, where every later read
    finds it without calling the descriptor.

    It is ``functools.cached_property`` without the lock that one takes on
    each first read on Python 3.10 and 3.11.  No lock is needed, because
    an evaluation or a field is never shared between threads.
    """

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class NegativeBaseError(ValueError):
    """A power term with s > 1 was evaluated where its base is negative."""


def _matpow(M: np.ndarray, m: int) -> np.ndarray:
    # M^m.  A power that overflows gives inf entries without a warning, for
    # a later check, such as the field's finiteness test, to refuse.
    if m == 0:
        return np.eye(M.shape[0])
    if m == 1:
        return M
    with np.errstate(over="ignore"):
        return np.linalg.matrix_power(M, m)


@dataclass(frozen=True)
class AtomicTerm:
    """One atomic component c * [tr(.)^m]^s, or c * diag(R P_i P_i' R'),
    with a column selector.

    ``matrix`` is D (n-by-k_i) for the linear kind, A (n-by-n, exactly
    symmetric: A == A.T bit for bit, else ``ValueError``) for the quadratic
    kind, and R for the diagonal kind: None for the identity, else an
    N-by-n matrix (``transform`` makes R T).  ``quadratic`` symmetrizes a
    matrix within ``SYMMETRY_TOL``.  The diagonal kind takes m = s = 1.
    ``cols`` is None for "all columns of P", else a nonempty, strictly
    increasing tuple of column indices in 0..k-1.
    """

    kind: str
    matrix: np.ndarray | None
    m: int = 1
    s: float = 1.0
    c: float = 1.0
    cols: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic", "diagonal"):
            raise ValueError(f"unknown atomic kind {self.kind!r}")
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"power m must be an integer >= 1, got {self.m}")
        if self.s < 1.0:
            raise ValueError(f"power s must be >= 1, got {self.s}")
        if self.kind == "diagonal" and (self.m, self.s) != (1, 1.0):
            raise ValueError("a diagonal term takes m = s = 1")
        if self.c <= 0.0:
            raise ValueError(f"scale c must be > 0, got {self.c}")
        if self.kind == "quadratic" and not np.array_equal(self.matrix,
                                                           self.matrix.T):
            # The gradient 2 A P and the field's part 2 c A hold only for
            # A = A'.
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

    @staticmethod
    def diagonal() -> "AtomicTerm":
        """diag(P P'), R the identity."""
        return AtomicTerm("diagonal", None)

    def width(self, k: int) -> int:
        return k if self.cols is None else len(self.cols)

    def coords(self, n: int) -> int:
        """Number of outer coordinates over n-by-k points: the rows of R
        (n for the identity) for the diagonal kind, else 1."""
        if self.kind != "diagonal":
            return 1
        return n if self.matrix is None else self.matrix.shape[0]

    def select(self, P: np.ndarray) -> np.ndarray:
        return P if self.cols is None else P[:, list(self.cols)]


def _atom(term: AtomicTerm, P_i: np.ndarray):
    # (X, S, value, chain) of one term at its selected columns P_i: X = D for
    # the linear kind or A P_i for the quadratic kind, the one full-size
    # product, and the rest from ``_atom_from``.  The diagonal kind has
    # X = R P_i, no S, and the vector of squared row norms of X as value.
    if term.kind == "diagonal":
        X = P_i if term.matrix is None else term.matrix @ P_i
        return X, None, term.c * np.sum(X * X, axis=1), term.c
    X = term.matrix if term.kind == "linear" else _thin_matmul(term.matrix, P_i)
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


def _times_power(X: np.ndarray, S: np.ndarray, p: int) -> np.ndarray:
    # X S^p, X itself for p = 0.  Overflow gives inf entries without a
    # warning, as in ``_matpow``.
    if p == 0:
        return X
    with np.errstate(over="ignore"):
        return X @ _matpow(S, p)


def _atom_grad(term: AtomicTerm, X: np.ndarray, S: np.ndarray, chain: float):
    # Gradient with respect to P_i from the products and chain factor of
    # ``_atom``: m D (P_i'D)^(m-1) or 2m A P_i (P_i'AP_i)^(m-1), times chain.
    scale = 2.0 * term.m if term.kind == "quadratic" else term.m
    return chain * _times_power(scale * X, S, term.m - 1)


def _term_grad(term: AtomicTerm, X, S, chain, w):
    # w times the gradient with respect to P_i of ``_atom_grad``, for the
    # term's outer partial w; a diagonal term takes the vector of its
    # coordinates' partials and gives 2 R' diag(chain w) R P_i.
    if term.kind != "diagonal":
        return w * _atom_grad(term, X, S, chain)
    G_i = (2.0 * chain * w)[:, None] * X
    return G_i if term.matrix is None else term.matrix.T @ G_i


def _one_coordinate(term: AtomicTerm) -> None:
    if term.kind == "diagonal":
        raise ValueError("a diagonal term has one coordinate per row of R, "
                         "not one value; read them off at(P).term_values")


def eval_atomic(term: AtomicTerm, P) -> float:
    """Value c * base^s of one linear or quadratic term at P (``ValueError``
    for a diagonal term, which has many)."""
    _one_coordinate(term)
    return _atom(term, term.select(as_matrix(P, "P")))[2]


def grad_atomic(term: AtomicTerm, P) -> np.ndarray:
    """Euclidean gradient of one atomic term, scattered into full n-by-k shape.

    The base gradients are m D (P'D)^(m-1) for the linear kind and
    2m A P (P'AP)^(m-1) for the quadratic kind; powers s > 1 apply the chain
    rule c s base^(s-1).  Columns outside the term's selector are zero.  A
    diagonal term, whose many coordinates have no one gradient, raises
    ``ValueError``.
    """
    _one_coordinate(term)
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
        lambda x: float(np.add.reduce(x)),
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


class FactoredField:
    """The field H(P) at one point, held as the parts the objective's terms
    give it:

        H = sum_q c_q A_q + diag(v) + U P' + P U' + sum_j Y_j Z_j'.

    The first sum runs over the m = 1 quadratic terms, with c_q twice the
    term's outer partial times its chain factor; v is twice the weights of
    the diagonal terms with R the identity; U is the sum over the linear
    terms of (w m) D (P'D)^(m-1), with w the same weight.  Each of the other
    terms gives one pair (Y, Z): ((2 m w) X S^(m-2), X) for a quadratic term
    with m >= 2, where X = A P and S = P'A P, and (R' diag(2 w), R') for a
    diagonal term with R != I.  For the generic recipe U = G and no other
    part is present.  Made by ``PointEvaluation.field``, which holds each
    A_q P.  It is the package's one field object: H, H P, ||H||_F and the
    mismatch M(P) are all read off it.

    ``H`` is the n-by-n field, formed on first use; it is the one place the
    package forms it.  ``apply(X)`` is H X at one product per m = 1
    quadratic term, and ``field @ X`` calls it, so ``kernels.ritz_top_k``
    runs on the field without forming H.  ``HP`` is H P in O(n k^2) from
    the held A_q P (O(n N k) for a diagonal pair with N rows of R).  Each of
    ``H`` and ``HP`` raises ``ValueError`` when an entry is not finite
    (overflow in the data, a failed solve).

    ``mismatch`` is M(P) of the identity H(P) P - grad f(P) = P M(P): every
    part but U P' + P U' maps P to its term's gradient exactly, so
    M = U'P for either recipe (G'P for the generic one), and zeros when no
    U is present.  ``asymmetry`` is ||M - M'||_F / max(1, ||M||_F), which
    vanishes exactly when a field solution at P is a KKT point.  Neither
    needs H.

    ``frobenius_norm(gram)`` is ||H||_F as (s, xi), ||H||_F = s xi, the
    form of ``kernels._scaled_norm``.  Given the per-objective constants
    ``gram`` of ``field_gram``, it comes from the Gram identity

        ||H||_F^2 = sum_qr c_q c_r <A_q, A_r> + 2 sum_q c_q v.diag(A_q)
                    + ||v||^2 + 4 sum_q c_q <A_q P, U> + 4 <v o P, U>
                    + 2 <U'U, P'P> + 2 tr((U'P)^2)

    (2 <U'U, P'P> is 2 ||U||_F^2 on the Stiefel manifold) with s = 1, and
    no H is formed.  Where the identity does not hold (a pair is present)
    or cannot be trusted (the sum is not above ``GRAM_CANCELLATION`` times
    the sum of its terms' magnitudes, or its root falls outside
    ``kernels.PLAIN_NORM_RANGE``), and without ``gram``, it is
    ``_scaled_norm(H)``.
    """

    def __init__(self, P: np.ndarray, quad: list, v, U, pairs: list):
        # quad holds (q, c_q, A_q, A_q P) for each m = 1 quadratic term with
        # c_q != 0, q its row in ``field_gram``; v and U are None when
        # absent; pairs holds the (Y, Z) of the other terms.
        self.P, self.quad, self.v, self.U, self.pairs = P, quad, v, U, pairs

    def apply(self, X: np.ndarray) -> np.ndarray:
        """H X, with one product per m = 1 quadratic term matrix."""
        return self._plus_low_rank(
            X, [c * _thin_matmul(A, X) for _, c, A, _ in self.quad])

    __matmul__ = apply

    @_lazy
    def HP(self) -> np.ndarray:
        """H P, from the products A_q P."""
        return _finite(self._plus_low_rank(
            self.P, [c * AP for _, c, _, AP in self.quad]))

    def _plus_low_rank(self, X, quad_products) -> np.ndarray:
        # H X given c_q A_q X for each m = 1 quadratic term.
        P, v, U = self.P, self.v, self.U
        HX = np.zeros(X.shape)
        for AX in quad_products:
            HX += AX
        if v is not None:
            HX += v[:, None] * X
        for Y, Z in self.pairs:
            HX += Y @ (Z.T @ X)
        if U is not None:
            HX += U @ (P.T @ X)
            HX += P @ (U.T @ X)
        return HX

    @_lazy
    def H(self) -> np.ndarray:
        """The n-by-n H, summed from its parts."""
        P, n = self.P, self.P.shape[0]
        H = np.zeros((n, n))
        # Overflow in the sum shows as the entries that ``_finite`` refuses,
        # so it raises no warning on the way.
        with np.errstate(over="ignore", invalid="ignore"):
            for _, c, A, _ in self.quad:
                H += c * A
            if self.v is not None:
                H.flat[::n + 1] += self.v
            for Y, Z in self.pairs:
                H += Y @ Z.T
            if self.U is not None:
                UP = self.U @ P.T
                H += UP
                H += UP.T
        return _finite(H)

    @_lazy
    def mismatch(self) -> np.ndarray:
        """M(P) = U'P (see above)."""
        k = self.P.shape[1]
        return np.zeros((k, k)) if self.U is None else self.U.T @ self.P

    @_lazy
    def asymmetry(self) -> float:
        """||M - M'||_F / max(1, ||M||_F) of ``mismatch``."""
        M = self.mismatch
        return float(np.linalg.norm(M - M.T) / max(1.0, np.linalg.norm(M)))

    def frobenius_norm(self, gram=None) -> tuple[float, float]:
        """||H||_F as (s, xi), by the Gram identity where it holds and
        ``gram`` is given, else from the formed H (see above)."""
        if gram is not None and not self.pairs:
            inner, diags = gram
            P, v, U, quad = self.P, self.v, self.U, self.quad
            with np.errstate(over="ignore", invalid="ignore"):
                terms = [c_q * c_r * inner[q, r]
                         for q, c_q, _, _ in quad for r, c_r, _, _ in quad]
                if v is not None:
                    dv = diags @ v
                    terms += [2.0 * c_q * dv[q] for q, c_q, _, _ in quad]
                    terms.append(v @ v)
                if U is not None:
                    UtP = U.T @ P
                    terms += [4.0 * c_q * np.vdot(AP, U)
                              for _, c_q, _, AP in quad]
                    terms += [2.0 * np.vdot(U.T @ U, P.T @ P),
                              2.0 * np.vdot(UtP, UtP.T)]
                    if v is not None:
                        terms.append(4.0 * np.vdot(v[:, None] * P, U))
                total = float(sum(terms))
                size = float(sum(abs(t) for t in terms))
            lo, hi = PLAIN_NORM_RANGE
            if lo * lo < total < hi * hi and total > GRAM_CANCELLATION * size:
                return 1.0, float(np.sqrt(total))
        return _scaled_norm(self.H)


def _finite(X: np.ndarray) -> np.ndarray:
    # H or H P, refused with ``ValueError`` when an entry is not finite.
    if not np.isfinite(X).all():
        raise ValueError("field H(P) has non-finite entries")
    return X


def field_gram(obj: "ComposedObjective") -> tuple:
    """The per-objective constants of ``FactoredField.frobenius_norm``: the
    Gram matrix <A_q, A_r> of the m = 1 quadratic term matrices and the rows
    diag(A_q), none of either for the generic recipe."""
    mats = [] if obj.field_recipe == "generic" else [
        t.matrix for t in obj.terms if t.kind == "quadratic" and t.m == 1]
    inner = np.empty((len(mats), len(mats)))
    for a, A in enumerate(mats):
        for b in range(a, len(mats)):
            inner[a, b] = inner[b, a] = np.vdot(A, mats[b])
    return inner, np.array([np.diag(A) for A in mats]).reshape(len(mats), obj.n)


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
        coords = sum(t.coords(self.n) for t in self.terms)
        if self.outer.dim != coords:
            raise ValueError(f"outer dimension {self.outer.dim} != number of "
                             f"term coordinates {coords}")
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
            if (t.kind == "diagonal" and t.matrix is not None
                    and (t.matrix.ndim != 2 or t.matrix.shape[1] != self.n)):
                raise ValueError(f"diagonal term matrix shape "
                                 f"{t.matrix.shape} != (N, {self.n})")
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

    def field(self, P) -> FactoredField:
        """The field H(P) with its mismatch M(P) per the objective's recipe
        (``PointEvaluation.field``)."""
        return self.at(P).field

    # -- structural transforms ----------------------------------------------

    def transform(self, T, products=None) -> "ComposedObjective":
        """Objective g(Z) = f(T @ Z) with the atomic structure substituted.

        Linear matrices map to T' D, quadratic ones to T' (A T) and a
        diagonal term's R to R T; selectors (and so the field recipe), outer
        function and monotonicity declarations carry over, and T needs at
        least k columns.  Used for subspace restriction (orthonormal T, the
        reduced problem of the subspace-accelerated solvers, whose field is
        T' H(TZ) T with mismatch M(TZ)) and metric lifting (T = R^{-1}).
        ``products``, if given, holds per term the product A T a caller
        already formed, or None where this forms it (linear and diagonal
        terms read none).
        """
        T = as_matrix(T, "T")
        if T.shape[0] != self.n:
            raise ValueError(f"transform rows {T.shape[0]} != n = {self.n}")
        terms = tuple(
            replace(t, matrix=_transformed(t, T, AT))
            for t, AT in zip(self.terms, products or [None] * len(self.terms)))
        return ComposedObjective(
            n=T.shape[1], k=self.k, terms=terms, outer=self.outer,
            alignment=self.alignment.transform(T),
            npdo_monotone=self.npdo_monotone, nepv_monotone=self.nepv_monotone)


def _transformed(t: AtomicTerm, T: np.ndarray, AT) -> np.ndarray:
    # The matrix of term t in ``ComposedObjective.transform(T)``, given the
    # product A T or None.
    if t.kind == "linear":
        return T.T @ t.matrix
    if t.kind == "diagonal":
        return T if t.matrix is None else t.matrix @ T
    return _sym(T.T @ (_thin_matmul(t.matrix, T) if AT is None else AT))


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
        """A W for each quadratic term (None for another kind), for a basis
        W whose leading k columns are P: a full-column term reuses the A P
        this evaluation holds and multiplies A by the other columns only; a
        column-block term, which holds A P_i for its own columns alone,
        multiplies A by all of W.  Either way, one product with A."""
        k, out = self.obj.k, []
        for i, t in enumerate(self.obj.terms):
            if t.kind != "quadratic":
                out.append(None)
            elif t.cols is None:
                out.append(np.hstack([self.atom(i)[0],
                                      _thin_matmul(t.matrix, W[:, k:])]))
            else:
                out.append(_thin_matmul(t.matrix, W))
        return out

    @_lazy
    def term_values(self) -> np.ndarray:
        """The coordinates of T(P), term after term."""
        terms = self.obj.terms
        values = [self.atom(i)[2] for i in range(len(terms))]
        if any(t.kind == "diagonal" for t in terms):
            return np.hstack(values)
        return np.array(values)

    @_lazy
    def value(self) -> float:
        return float(self.obj.outer.value(self.term_values))

    @_lazy
    def partials(self) -> np.ndarray:
        """The outer partials, one per coordinate of ``term_values``."""
        return self.obj.outer.partials(self.term_values)

    @_lazy
    def term_partials(self) -> list:
        """The outer partials by term: one float per linear or quadratic
        term, the vector over its coordinates for a diagonal one."""
        p, n, out, off = self.partials, self.obj.n, [], 0
        for t in self.obj.terms:
            size = t.coords(n)
            out.append(p[off:off + size] if t.kind == "diagonal" else p[off])
            off += size
        return out

    @_lazy
    def euclidean_grad(self) -> np.ndarray:
        G = np.zeros(self.P.shape)
        for i, (w, t) in enumerate(zip(self.term_partials, self.obj.terms)):
            if t.kind == "diagonal" or w != 0.0:
                X, S, _, chain = self.atom(i)
                G_i = _term_grad(t, X, S, chain, w)
                if t.cols is None:
                    G += G_i
                else:
                    G[:, list(t.cols)] += G_i
        return G

    @_lazy
    def riemannian_grad(self) -> np.ndarray:
        G, P = self.euclidean_grad, self.P
        return G - P @ _sym(P.T @ G)

    @_lazy
    def script_d(self) -> np.ndarray:
        """Weighted sum of the full-selector m=1 linear matrices.

        This is the matrix driving the optimal alignment rotation; weights
        are the outer partials times each term's own chain factor.
        """
        D, k = np.zeros(self.P.shape), self.obj.k
        for i, (w, t) in enumerate(zip(self.term_partials, self.obj.terms)):
            if t.kind == "linear" and t.m == 1 and t.width(k) == k:
                D += w * self.atom(i)[3] * t.matrix
        return D

    @_lazy
    def field(self) -> FactoredField:
        """The field H(P) with its mismatch M(P), a ``FactoredField`` made
        from the products this evaluation holds."""
        obj, P = self.obj, self.P
        if obj.field_recipe == "generic":
            return FactoredField(P, [], None, self.euclidean_grad, [])
        quad, v, U, pairs, q = [], None, None, [], 0
        for i, (w, t) in enumerate(zip(self.term_partials, obj.terms)):
            if t.kind == "diagonal" or w != 0.0:
                X, S, _, chain = self.atom(i)
                w = w * chain
                if t.kind == "diagonal" and t.matrix is not None:
                    pairs.append((t.matrix.T * (2.0 * w), t.matrix.T))
                elif t.kind == "diagonal":
                    v = 2.0 * w if v is None else v + 2.0 * w
                elif t.kind == "quadratic" and t.m == 1:
                    quad.append((q, 2.0 * w, t.matrix, X))
                elif t.kind == "quadratic":
                    Y = _times_power(X, S, t.m - 2)
                    pairs.append(((2.0 * t.m * w) * Y, X))
                else:
                    U_t = (w * t.m) * _times_power(X, S, t.m - 1)
                    U = U_t if U is None else U + U_t
            q += t.kind == "quadratic" and t.m == 1
        return FactoredField(P, quad, v, U, pairs)

    @property
    def theta_sign_ok(self) -> bool:
        """Sign condition tr(P'AP + P'D) >= 0 of a trace ratio (the ratio's
        numerator, terms 1 and 2); True for other objectives."""
        if self.obj.theta_data is None:
            return True
        x = self.term_values
        return float(x[1] + x[2]) >= 0.0
