"""Dense linear-algebra kernels shared by the Stiefel SCF solvers.

All routines operate on plain NumPy arrays.  Orthonormal matrices ("Stiefel
points") are n-by-k arrays P with P.T @ P = I_k.  Symmetric matrices that
the package keeps, such as the objectives' term matrices, are stored fully
and exactly symmetric, A == A.T bit for bit (``require_symmetric`` and
``sym_part`` return such copies).  A product A X with one is formed as (X'A)'
by ``_sym_matmul``: for a C-ordered A and a thin X that runs the same
arithmetic on the BLAS GEMM path that packs the large operand well.  Every
function is a pure function of its inputs, so results are safe to share
between threads.

Sign conventions
----------------
Eigenvectors carry an inherent sign ambiguity.  To make iteration traces
reproducible, every eigenbasis returned here fixes signs so that the
largest-magnitude entry of each vector is positive, ties broken by lowest
row index.  The polar factors need no such rule: flipping a singular pair
(u_j, v_j) leaves U Vt and Vt' diag(s) Vt unchanged, bit for bit.
"""

from __future__ import annotations

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


def _sym_matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    # A @ X for an exactly symmetric A, unchecked, formed as (X'A)' and
    # returned C-contiguous so later products round as they would on A @ X.
    return np.ascontiguousarray((X.T @ A).T)


def require_symmetric(H, name: str = "H") -> np.ndarray:
    """Check symmetry within relative ``SYMMETRY_TOL`` and return the
    symmetrized copy."""
    H = as_matrix(H, name)
    if H.shape[0] != H.shape[1]:
        raise ValueError(f"{name} must be square, got shape {H.shape}")
    if np.linalg.norm(H - H.T) > SYMMETRY_TOL * max(np.linalg.norm(H), 1.0):
        raise ValueError(f"{name} is not symmetric within {SYMMETRY_TOL:.1e}")
    return 0.5 * (H + H.T)


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
    return _polar(B)


def _polar(B: np.ndarray) -> PolarDecomposition:
    # polar_factor without the input checks, for a tall matrix the package
    # formed.
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    P = U @ Vt
    Lam = _sym(Vt.T @ (s[:, None] * Vt))
    return PolarDecomposition(P, Lam, float(s.sum()))


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
    fixed per-call cost that outweighs the saving at small n.  A LAPACK
    failure raises ``np.linalg.LinAlgError``.
    """
    H = require_symmetric(H)
    n = H.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}, got k = {k}")
    return _top_k(H, k)


def _top_k(H: np.ndarray, k: int) -> SpectralTopK:
    # top_k_eigenpairs without the input checks, for a matrix the package
    # formed, symmetrized here.  il..iu are 1-based indices into the
    # ascending spectrum.  On a tightly clustered spectrum dsyevr can return
    # fewer than the k+1 pairs asked for with info = 0; the full eigh of H
    # then supplies them.
    n = H.shape[0]
    w, V, m, _, info = _syevr(_sym(H), compute_v=1, range="I",
                              il=max(n - k, 1), iu=n, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info = {info}")
    if m != min(k + 1, n):
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
    far, up to ``RITZ_MAX_BLOCKS`` of them.  After each block a
    Rayleigh-Ritz solve gives the top k+1 Ritz pairs (theta_i, v_i) and the
    residual R = H V - V Theta of their vectors V.  The top k are returned,
    with ``gap`` = theta_k - theta_{k+1} and ``next_vector`` = v_{k+1}, as
    soon as ||R||_F over the top k is at most ``tol``, provided the gap
    exceeds ``gap_floor`` plus ||R||_F over all k+1.  The growth gives up
    once a block cuts the residual by less than half, or once halving per
    block left cannot reach ``tol``.  Returns None when a test fails, so the
    caller can fall back to a dense solve.  Because range(P) lies in the
    space, the k Ritz values sum to at least tr(P'HP), and by interlacing
    none exceeds its eigenvalue.  ``H`` must be symmetric and P orthonormal;
    neither is checked.
    """
    k = P.shape[1]
    g = guard - P @ (P.T @ guard)
    norm_g = np.linalg.norm(g)
    if not norm_g > 1e-8 * np.linalg.norm(guard):
        return None
    g /= norm_g
    # An orthonormal basis W of [P, g] and HW = H W, from one product.
    U, s, Vt = np.linalg.svd(np.hstack([P, g]), full_matrices=False)
    W, HW = U, np.hstack([HP, H @ g]) @ (Vt.T / s)
    HX, last = HW, np.inf
    for left in range(RITZ_MAX_BLOCKS - 1, -1, -1):
        Y = _orth_against(W, HX, 1e-12 * np.linalg.norm(HX))
        if Y.shape[1]:
            HX = H @ Y
            W, HW = np.hstack([W, Y]), np.hstack([HW, HX])
        theta, Z = np.linalg.eigh(_sym(W.T @ HW))
        theta, Z = theta[:-k - 2:-1], Z[:, :-k - 2:-1]  # top k+1, descending
        V = W @ Z
        R = HW @ Z - V * theta
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
    B = as_matrix(B, "B")
    return float(np.linalg.svd(B, compute_uv=False).sum())


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
    sigma = np.clip(scipy.linalg.svdvals(X.T @ Y), 0.0, 1.0)
    sines_sq = np.clip(1.0 - sigma**2, 0.0, None)
    dist2 = float(np.sqrt(sines_sq.max()))
    dist_f = float(np.sqrt(sines_sq.sum()))
    return dist2, dist_f


def _orth(V: np.ndarray, floor: float = 0.0) -> np.ndarray:
    # Orthonormal basis of range(V) by SVD, without the directions whose
    # singular value is at or below 1e-12 * sigma_max or ``floor``.
    if V.shape[1] == 0:
        return V
    U, s, _ = np.linalg.svd(V, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return V[:, :0]
    keep = s > max(1e-12 * s[0], floor)
    return U[:, keep]


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
    return _orth_against(P, V, 1e-12 * float(np.linalg.norm(V, 2)))


def _orth_against(P: np.ndarray, V: np.ndarray, floor: float) -> np.ndarray:
    # Two passes of classical Gram-Schmidt against orthonormal P, each
    # followed by an SVD orthonormalization; the first pass drops directions
    # with singular values at or below ``floor``.
    W = _orth(V - P @ (P.T @ V), floor)
    if W.shape[1]:
        W = _orth(W - P @ (P.T @ W))
    return W


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
