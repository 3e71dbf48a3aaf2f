"""Dense linear-algebra kernels shared by the Stiefel SCF solvers.

All routines operate on plain NumPy arrays.  Orthonormal matrices ("Stiefel
points") are n-by-k arrays P with P.T @ P = I_k.  Symmetric matrices that
the package keeps, such as the objectives' term matrices, are stored fully
and exactly symmetric, A == A.T bit for bit (``require_symmetric`` and
``sym_part`` return such copies).  A product A X of an n-by-n matrix and a
thin X is formed by ``_thin_matmul`` in row panels small enough for BLAS's
unpacked small-matrix GEMM kernel (see ``PANEL_MNK``).  Every function is a
pure function of its inputs, so results are safe to share between threads.

The decompositions call LAPACK through bindings resolved once by
``scipy.linalg.get_lapack_funcs``:

- ``dsyevr`` for the top eigenpairs;
- ``dgesdd`` (``_svd``) for every SVD, public or internal: polar factors,
  trace norms, canonical angles and the rank-revealing first pass of
  Gram-Schmidt;
- ``dgeqrf`` and ``dorgqr`` (``_qr_basis``) for the Householder QR of
  Gram-Schmidt's second pass, which has no rank to decide;
- ``dpotrf`` (``_factors``) for the Cholesky factorizations that certify a
  problem matrix positive (semi)definite when it is built.

``_svd`` skips numpy's wrapper: 5-6 us less per
call than ``np.linalg.svd`` at 12-by-4 and 40-by-3, and 2-5 us at
1000-by-4, on one thread.  numpy and scipy ship separate OpenBLAS builds,
so the two need not agree bit for bit.  With the numpy 2.4 and scipy 1.17
wheels they did on 1500 random shapes (n up to 1000, k up to 16, C and
Fortran order, some rank-deficient), but not on every basis of the warm
Ritz solve: there the results differ in the last bits, which moved one
benchmark solve's trace gains by 1.7e-12 relative.  A plain polar step
takes one such SVD of its gradient.

Sign conventions
----------------
Eigenvectors carry an inherent sign ambiguity.  To make iteration traces
reproducible, every eigenbasis returned here fixes signs so that the
largest-magnitude entry of each vector is positive, ties broken by lowest
row index.  The polar factors need no such rule: flipping a singular pair
(u_j, v_j) leaves U Vt and Vt' diag(s) Vt unchanged, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


__all__ = [
    "PolarDecomposition",
    "SpectralTopK",
    "as_matrix",
    "canonical_sin_theta",
    "orthonormalize_against",
    "polar_factor",
    "random_stiefel",
    "require_stiefel",
    "ritz_top_k",
    "sym_part",
    "top_k_eigenpairs",
    "trace_norm",
]

# Orthonormality drift admitted before a matrix stops counting as a Stiefel
# point; re-orthonormalization (QR) is cheap if callers need to restore it.
STIEFEL_TOL = 1e-10

# Relative symmetry tolerance enforced when a symmetric matrix is expected.
SYMMETRY_TOL = 1e-12


def as_matrix(B, name: str = "matrix") -> np.ndarray:
    """Validate and return ``B`` as a 2-d float array with finite entries."""
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if B.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {B.shape}")
    if B.size and not np.isfinite(B).all():
        raise ValueError(f"{name} contains non-finite entries")
    return B


def require_stiefel(P) -> np.ndarray:
    """Validate that ``P`` has orthonormal columns within ``STIEFEL_TOL``."""
    P = as_matrix(P, "P")
    n, k = P.shape
    if k > n:
        raise ValueError(f"P must be tall: shape {P.shape}")
    drift = np.linalg.norm(P.T @ P - np.eye(k))
    if drift > STIEFEL_TOL:
        raise ValueError(f"P is not orthonormal: ||P'P - I||_F = {drift:.3e}")
    return P


def sym_part(M) -> np.ndarray:
    """Symmetric part (M + M.T) / 2 of a square matrix."""
    M = as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"sym_part needs a square matrix, got shape {M.shape}")
    return _sym(M)


def _sym(M: np.ndarray) -> np.ndarray:
    # sym_part without the input checks, for products the package formed.
    return 0.5 * (M + M.T)


# Most multiply-adds in one row panel of ``_thin_matmul``.  OpenBLAS
# (0.3.31, Haswell kernels, one thread) runs a GEMM with M N K <= 100^3 on
# its small-matrix kernel, which skips packing: at n = 1000, k = 4 a
# 250-row panel took 333 us per 1000 rows and a 251-row panel 876 us.  At
# n <= 200 and k <= 25 one panel covers A and the product is A @ X.  One
# run of ``tools/product_timing.py`` gave, in median us per product:
#
#     n, k       A @ X   panels   ratio
#     1000, 2     971.7    406.3    0.42
#     1000, 4    1015.5    458.8    0.45
#     1000, 8    1184.1    644.2    0.54
#     1000, 12   1597.0   1027.5    0.64
#     1000, 16   1482.9    843.9    0.57
#     2000, 4    4594.2   1915.0    0.42
#     200, 8       20.8     23.7    1.14
#     200, 24      45.8     50.3    1.10
#     40, 3         2.5      5.2    2.04
#
# so an NPDo solve at n = 1000, where the product is most of the work,
# takes about 30% less time (``sep``/npdo on ``polar-route``: 428 to 294
# ms, 433 steps either way), and at n <= 200 the panel loop adds a
# microsecond or three.
PANEL_MNK = 100**3


def _thin_matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    # A @ X for a thin X, unchecked, formed in row panels A[i:i+r] @ X of at
    # most PANEL_MNK multiply-adds each, written into one C-ordered result;
    # below that size the one panel is A @ X.  X is made C-contiguous once:
    # a Fortran-ordered X loses part of the small kernel's gain at k >= 8
    # (405 against 344 us per 1000 rows at n = 1000, k = 8).
    X = np.ascontiguousarray(X)
    (n, m), k = A.shape, X.shape[1]
    rows = max(1, PANEL_MNK // max(1, m * k))
    out = np.empty((n, k))
    for i in range(0, n, rows):
        np.matmul(A[i:i + rows], X, out=out[i:i + rows])
    return out


# Frobenius norms inside this range are taken plainly: their squares can
# neither overflow nor lose digits to underflow.
PLAIN_NORM_RANGE = (1e-140, 1e140)


def _scaled_norm(X: np.ndarray) -> tuple[float, float]:
    # (s, ||X / s||_F), so ||X||_F = s ||X / s||_F and a ratio of norms
    # ||Y||_F / ||X||_F is ||Y / s||_F / ||X / s||_F.  s = 1 when the plain
    # norm lies inside PLAIN_NORM_RANGE, which keeps its bits; else s is the
    # largest |entry| of X, so the squares of X / s stay in range.  The
    # plain norm is np.linalg.norm's own arithmetic, sqrt(x.x) over the
    # entries in memory order, by the same BLAS dot; np.vdot, unlike
    # ndarray.dot, raises no floating-point warning where it overflows.
    # The largest |entry| is read as max(max, -min), which copies nothing:
    # the zero H - H' of ``require_symmetric`` takes this path at every
    # build, and |X| would cost it an n-by-n array.
    x = X.ravel(order="K")
    xi = math.sqrt(np.vdot(x, x))
    if PLAIN_NORM_RANGE[0] < xi < PLAIN_NORM_RANGE[1]:
        return 1.0, xi
    s = float(max(x.max(), -x.min()))
    if not 0.0 < s < np.inf:
        return 1.0, xi
    return s, float(np.linalg.norm(X / s))


def require_symmetric(H, name: str = "H") -> np.ndarray:
    """Check symmetry within relative ``SYMMETRY_TOL`` and return the
    symmetrized copy."""
    H = as_matrix(H, name)
    if H.shape[0] != H.shape[1]:
        raise ValueError(f"{name} must be square, got shape {H.shape}")
    # Both norms by _scaled_norm: a plain norm overflows at data scales past
    # about 1e154 (and keeps its bits inside PLAIN_NORM_RANGE).  The test is
    # relative at every scale, so a matrix with ||H||_F < 1 gets no absolute
    # allowance; the zero matrix passes, its asymmetry being 0.
    asym, size = math.prod(_scaled_norm(H - H.T)), math.prod(_scaled_norm(H))
    if asym > SYMMETRY_TOL * size:
        raise ValueError(f"{name} is not symmetric within {SYMMETRY_TOL:.1e}")
    return 0.5 * (H + H.T)


_potrf, = scipy.linalg.get_lapack_funcs(("potrf",), dtype=np.float64)


def _factors(M: np.ndarray) -> bool:
    # Whether LAPACK's dpotrf completes the Cholesky factorization of the
    # exactly symmetric M, that is whether M is numerically positive
    # definite.  M is overwritten: it goes to dpotrf in Fortran order, as
    # itself or as M.T (the same matrix), so f2py copies nothing.
    _, info = _potrf(M if M.flags.f_contiguous else M.T, lower=0, clean=0,
                     overwrite_a=1)
    return info == 0


def _lead_signs(V: np.ndarray) -> np.ndarray:
    # +1 or -1 per column of V: the sign that makes the column's first
    # largest-|.| entry positive (+1 for a zero column).  Callers scale in
    # place, which keeps their arrays' memory layout and so the rounding of
    # later BLAS products.
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.where(lead < 0, -1.0, 1.0)


@dataclass(frozen=True)
class PolarDecomposition:
    """Polar decomposition B = orthogonal_factor @ psd_factor.

    ``orthogonal_factor`` is n-by-k with orthonormal columns, ``psd_factor``
    is k-by-k symmetric positive semidefinite, and ``trace_norm`` is the sum
    of the singular values of B (= trace of ``psd_factor``).
    """

    orthogonal_factor: np.ndarray
    psd_factor: np.ndarray
    trace_norm: float


def polar_factor(B) -> PolarDecomposition:
    """Orthogonal polar factor of a tall matrix via the thin SVD.

    For B = U @ diag(s) @ Vt the factors are P = U @ Vt and
    Lambda = Vt.T @ diag(s) @ Vt, so that B = P @ Lambda with Lambda >= 0.
    When rank(B) < k the decomposition is not unique; the SVD basis provides
    a deterministic valid completion and B = P (P.T B) still holds.

    Parameters
    ----------
    B : (n, k) array_like, k <= n

    Returns
    -------
    PolarDecomposition
    """
    B = as_matrix(B, "B")
    n, k = B.shape
    if k > n:
        raise ValueError(f"polar_factor needs a tall matrix, got shape {B.shape}")
    U, s, Vt = _svd(B)
    Lam = _sym(Vt.T @ (s[:, None] * Vt))
    return PolarDecomposition(U @ Vt, Lam, float(s.sum()))


_gesdd, = scipy.linalg.get_lapack_funcs(("gesdd",), dtype=np.float64)


def _svd(B: np.ndarray, compute_uv: bool = True):
    # Thin SVD (U, s, Vt) of B by LAPACK's dgesdd, unchecked, or the
    # singular values alone with compute_uv=False: the shapes and order of
    # np.linalg.svd(B, full_matrices=False), empty B included (dgesdd
    # rejects it).  A LAPACK failure (a NaN entry, no convergence) raises
    # ``np.linalg.LinAlgError``, as np.linalg.svd does.
    if not B.size:
        n, k = B.shape
        s = np.zeros(0)
        return (np.zeros((n, 0)), s, np.zeros((0, k))) if compute_uv else s
    U, s, Vt, info = _gesdd(B, compute_uv=int(compute_uv), full_matrices=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgesdd failed with info = {info}")
    return (U, s, Vt) if compute_uv else s


def _polar(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The orthogonal polar factor U Vt of a tall matrix the package formed,
    # unchecked, with B's singular values s (descending), from one thin
    # SVD: sum(s) is B's trace norm and s[-1] its smallest singular value.
    U, s, Vt = _svd(B)
    return U @ Vt, s


@dataclass(frozen=True)
class SpectralTopK:
    """Top-k eigenpairs of a symmetric matrix.

    ``eigenvalues`` are the k largest eigenvalues in descending order,
    ``eigenbasis`` is an n-by-k orthonormal basis of the associated invariant
    subspace, and ``gap`` is lambda_k - lambda_{k+1} (+inf when k = n).
    ``next_vector`` is the (k+1)-th eigenvector, n-by-1 (None when k = n).
    From ``ritz_top_k`` all four are the Ritz values and vectors of a
    subspace, and ``gap`` is the Ritz gap theta_k - theta_{k+1}.
    """

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
    gap: float
    next_vector: np.ndarray | None = None


_syevr, = scipy.linalg.get_lapack_funcs(("syevr",), dtype=np.float64)


def top_k_eigenpairs(H, k: int) -> SpectralTopK:
    """Eigenpairs for the ``k`` largest eigenvalues of symmetric ``H``.

    Calls LAPACK's ``dsyevr`` with RANGE='I' for eigenpairs n-k .. n only
    (all n when k = n): the k wanted pairs plus lambda_{k+1} for the gap.
    Reducing H to tridiagonal form is O(n^3) either way, but only k+1
    eigenvectors are computed and transformed back, where a full
    eigendecomposition transforms all n.  The routine comes straight from
    ``get_lapack_funcs``: ``scipy.linalg.eigh(subset_by_index=...)`` adds a
    fixed per-call cost that outweighs the saving at small n.  Where
    dsyevr fails or returns too few pairs, a full ``np.linalg.eigh``
    supplies them, and its failure raises ``np.linalg.LinAlgError``.
    """
    H = require_symmetric(H)
    n = H.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}, got k = {k}")
    return _top_k(H, k, np.empty(H.shape, order="F"))


def _top_k(H: np.ndarray, k: int, work: np.ndarray) -> SpectralTopK:
    # top_k_eigenpairs without the input checks, for a matrix the package
    # formed, symmetrized here into ``work``, a Fortran-ordered n-by-n array
    # that dsyevr then overwrites (the bits of _sym(H), with no copy made by
    # f2py).  il..iu are 1-based indices into the ascending spectrum.  On a
    # tightly clustered spectrum dsyevr can return fewer than the k+1 pairs
    # asked for with info = 0, or fail with info > 0; the full eigh of H
    # then supplies them.
    n = H.shape[0]
    np.add(H, H.T, out=work)
    work *= 0.5
    w, V, m, _, info = _syevr(work, compute_v=1, range="I",
                              il=max(n - k, 1), iu=n, overwrite_a=1)
    if info != 0 or m != min(k + 1, n):
        (w, V), m = np.linalg.eigh(_sym(H)), n
    w, V = w[m - 1::-1], V[:, ::-1]  # descending
    vals = w[:k].copy()
    basis = V[:, :k].copy()
    basis *= _lead_signs(basis)
    if k == n:
        return SpectralTopK(vals, basis, np.inf)
    return SpectralTopK(vals, basis, float(w[k - 1] - w[k]), V[:, k:k + 1])


# Most Krylov blocks ``ritz_top_k`` adds to its start block.
RITZ_MAX_BLOCKS = 3


def ritz_top_k(H, P, HP, guard, tol: float,
               gap_floor: float) -> SpectralTopK | None:
    """Top-k Ritz pairs of symmetric ``H`` over a block Krylov space around P.

    The space starts from X0 = [P, guard], with ``HP`` = H @ P given, and
    grows by the blocks H X_j, each orthonormalized against the space so
    far, up to ``RITZ_MAX_BLOCKS`` of them.  The start basis is P and the
    guard projected off P twice, with no decomposition; each block takes
    one SVD, the Gram-Schmidt pass that decides its rank, and one
    Householder QR, the second pass, which has no rank to decide (see
    ``_orth_against``).  After each block a
    Rayleigh-Ritz solve gives the top k+1 Ritz pairs (theta_i, v_i) and the
    residual R = H V - V Theta of their vectors V.  The top k are returned,
    with ``gap`` = theta_k - theta_{k+1} and ``next_vector`` = v_{k+1}, as
    soon as ||R||_F over the top k is at most ``tol``, provided the gap
    exceeds ``gap_floor`` plus ||R||_F over all k+1.  The growth gives up
    once a block cuts the residual by less than half, or once halving per
    block left cannot reach ``tol``.  Returns None when a test fails, so the
    caller can fall back to a dense solve.  Because range(P) lies in the
    space, the k Ritz values sum to at least tr(P'HP), and by interlacing
    none exceeds its eigenvalue.  ``H`` is anything whose ``@`` applies a
    symmetric matrix, read only as ``H @ X``: the array itself, or
    ``objective.FactoredField``, which applies the field from its terms'
    parts without forming it.  P must be orthonormal; neither is checked.
    """
    n, k = P.shape
    g = guard - P @ (P.T @ guard)
    norm_g = np.linalg.norm(g)
    if not norm_g > 1e-8 * np.linalg.norm(guard):
        return None
    # Projected twice, g is orthogonal to range(P) to working precision, so
    # W = [P, g] is orthonormal as it stands.  W and HW = H W grow in place
    # in buffers sized for every block; W[:, :m] holds the space so far.
    g -= P @ (P.T @ g)
    g /= np.linalg.norm(g)
    W = np.empty((n, (RITZ_MAX_BLOCKS + 1) * (k + 1)), order="F")
    HW = np.empty_like(W)
    m = k + 1
    W[:, :k], W[:, k:m], HW[:, :k], HW[:, k:m] = P, g, HP, H @ g
    HX, last = HW[:, :m], np.inf
    for left in range(RITZ_MAX_BLOCKS - 1, -1, -1):
        Y = _orth_against(W[:, :m], HX, 1e-12 * np.linalg.norm(HX))
        if Y.shape[1]:
            HX = H @ Y
            W[:, m:m + Y.shape[1]], HW[:, m:m + Y.shape[1]] = Y, HX
            m += Y.shape[1]
        theta, Z = np.linalg.eigh(_sym(W[:, :m].T @ HW[:, :m]))
        theta, Z = theta[:-k - 2:-1], Z[:, :-k - 2:-1]  # top k+1, descending
        V = W[:, :m] @ Z
        R = HW[:, :m] @ Z - V * theta
        res = float(np.linalg.norm(R[:, :k]))
        if res <= tol:
            break
        if res > min(0.5 * last, 2.0**left * tol) or not Y.shape[1]:
            return None
        last = res
    gap = float(theta[k - 1] - theta[k])
    if not gap > gap_floor + np.linalg.norm(R):
        return None
    basis = V[:, :k].copy()
    basis *= _lead_signs(basis)
    return SpectralTopK(theta[:k].copy(), basis, gap, V[:, k:k + 1])


def trace_norm(B) -> float:
    """Sum of the singular values of ``B`` (nuclear norm)."""
    return float(_svd(as_matrix(B, "B"), compute_uv=False).sum())


def canonical_sin_theta(X, Y) -> tuple[float, float]:
    """Sine-based distances between the column spaces of X and Y.

    The canonical angles are theta_i = arccos(sigma_i(X.T Y)) with singular
    values clamped into [0, 1] against floating-point overshoot.  Returns
    ``(dist2, distF)``: the sine of the largest angle and the Frobenius norm
    of the vector of sines.  Both lie in [0, sqrt(k)].
    """
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    sigma = np.clip(_svd(X.T @ Y, compute_uv=False), 0.0, 1.0)
    sines_sq = np.clip(1.0 - sigma**2, 0.0, None)
    dist2 = float(np.sqrt(sines_sq.max()))
    dist_f = float(np.sqrt(sines_sq.sum()))
    return dist2, dist_f


_geqrf, _orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"),
                                               dtype=np.float64)


def _qr_basis(B: np.ndarray) -> np.ndarray:
    # The orthonormal factor Q of the thin Householder QR B = Q R, by
    # LAPACK's dgeqrf and dorgqr, unchecked: B is tall, nonempty and of full
    # column rank.  A LAPACK failure raises ``np.linalg.LinAlgError``.
    qr, tau, _, info = _geqrf(B, overwrite_a=1)
    if info == 0:
        Q, _, info = _orgqr(qr, tau, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Householder QR failed with info = {info}")
    return Q


def orthonormalize_against(P, V) -> np.ndarray:
    """Orthonormal basis of the part of range(V) outside range(P).

    Performs classical Gram-Schmidt against ``P`` twice, orthonormalizing in
    between, which in practice removes the P-components to machine precision.
    Numerically rank-deficient directions (singular values below
    1e-12 * sigma_max, measured against the scale of the input V so pure
    projection noise deflates to nothing) are dropped; the result may be
    empty.
    """
    P = require_stiefel(P)
    V = as_matrix(V, "V")
    if V.shape[0] != P.shape[0]:
        raise ValueError(f"row mismatch: P has {P.shape[0]}, V has {V.shape[0]}")
    if V.shape[1] == 0:
        return V
    return _orth_against(P, V, 1e-12 * float(_svd(V, compute_uv=False)[0]))


def _orth_against(P: np.ndarray, V: np.ndarray, floor: float) -> np.ndarray:
    # Two passes of classical Gram-Schmidt against orthonormal P.  The first
    # orthonormalizes by SVD and drops the directions whose singular values
    # are at or below 1e-12 * sigma_max or ``floor``, which every caller sets
    # at about 1e-12 ||V|| or more.  So the kept directions hold at most
    # about eps * 1e12 = 1e-4 of range(P), the second projection leaves
    # singular values of at least 1 - 1e-4, and its Householder QR has no
    # rank to decide; after it the basis is orthogonal to P to working
    # precision (twice is enough).
    U, s, _ = _svd(V - P @ (P.T @ V))
    W = U[:, s > max(1e-12 * s.max(initial=0.0), floor)]
    return _qr_basis(W - P @ (P.T @ W)) if W.shape[1] else W


def random_stiefel(n: int, k: int, seed: int = 0) -> np.ndarray:
    """Deterministic random Stiefel point from a seeded Gaussian QR.

    The orthonormal factor of the QR decomposition of a standard-Gaussian
    n-by-k matrix, with column signs fixed by the sign of diag(R).
    """
    if k > n:
        raise ValueError(f"need k <= n, got n = {n}, k = {k}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, k))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs
