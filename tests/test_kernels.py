import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelscf.nepv import GAP_DEGENERATE
from stiefelscf.kernels import (
    _sym_matmul,
    canonical_sin_theta,
    orthonormalize_against,
    polar_factor,
    random_stiefel,
    require_stiefel,
    ritz_top_k,
    sym_part,
    top_k_eigenpairs,
    trace_norm,
)


def field_and_previous_step(spectrum, seed, drift):
    # A symmetric H with the given spectrum, and the top k+1 pairs of a
    # nearby field H + drift E (||E||_2 = 1), as the previous NEPv step
    # leaves them: its basis P is the current point and its (k+1)-th
    # vector the guard.
    rng = np.random.default_rng(seed)
    n = len(spectrum)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = sym_part((Q * np.asarray(spectrum)) @ Q.T)
    E = sym_part(rng.standard_normal((n, n)))
    return H, H + drift * E / np.linalg.norm(E, 2)


def outer_residual(H, P):
    HP = H @ P
    return HP, np.linalg.norm(HP - P @ (P.T @ HP))


class TestRitzTopK:
    N, K = 120, 4
    SEPARATED = np.concatenate([np.linspace(0.0, 2.5, N - K),
                                np.linspace(3.0, 4.0, K)])

    @pytest.mark.parametrize("drift", [1e-3, 1e-1])
    def test_accepted_pairs_are_ritz_pairs_of_a_space_holding_p(self, drift):
        k = self.K
        H, H_prev = field_and_previous_step(self.SEPARATED, 0, drift)
        prev = top_k_eigenpairs(H_prev, k)
        P = prev.eigenbasis
        HP, res = outer_residual(H, P)
        out = ritz_top_k(H, P, HP, prev.next_vector, 0.25 * res, 0.0)
        assert out is not None
        V, theta = out.eigenbasis, out.eigenvalues
        assert np.allclose(V.T @ V, np.eye(k), atol=1e-13)
        assert np.linalg.norm(H @ V - V * theta) <= 0.25 * res
        # Ky Fan within the space: range(P) lies in it.
        assert theta.sum() >= np.trace(P.T @ HP) - 1e-12
        # Cauchy interlacing: no Ritz value exceeds its eigenvalue.
        w = np.linalg.eigvalsh(H)[::-1]
        assert np.all(theta <= w[:k] + 1e-12)
        g = out.next_vector
        assert g.shape == (self.N, 1)
        assert np.linalg.norm(V.T @ g) <= 1e-12
        assert np.linalg.norm(g) == pytest.approx(1.0)
        assert out.gap == pytest.approx(theta[-1] - (g.T @ H @ g).item())

    def test_none_when_the_residual_test_cannot_pass(self):
        H, H_prev = field_and_previous_step(self.SEPARATED, 1, 1e-1)
        prev = top_k_eigenpairs(H_prev, self.K)
        HP, _ = outer_residual(H, prev.eigenbasis)
        assert ritz_top_k(H, prev.eigenbasis, HP, prev.next_vector, 0.0,
                          0.0) is None

    @pytest.mark.parametrize("n, k", [(100, 3), (120, 8)])
    @pytest.mark.parametrize("drift", [1e-4, 1e-2, 0.3])
    def test_degenerate_gap_is_flagged_or_refused(self, n, k, drift):
        # lambda_k = lambda_{k+1} = 3: a warm step must not report a gap.
        spectrum = np.concatenate([np.linspace(0.0, 2.0, n - k - 1),
                                   [3.0, 3.0], np.linspace(3.5, 4.0, k - 1)])
        for seed in range(5):
            H, H_prev = field_and_previous_step(spectrum, seed, drift)
            prev = top_k_eigenpairs(H_prev, k)
            P = prev.eigenbasis
            HP, res = outer_residual(H, P)
            for floor in (0.0, GAP_DEGENERATE):
                out = ritz_top_k(H, P, HP, prev.next_vector, 0.25 * res, floor)
                assert out is None or out.gap < GAP_DEGENERATE


class TestPolarFactor:
    def test_orthonormal_input_is_its_own_factor(self):
        B = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        pol = polar_factor(B)
        assert np.allclose(pol.orthogonal_factor, B)
        assert np.allclose(pol.psd_factor, np.eye(2))
        assert pol.trace_norm == pytest.approx(2.0)

    def test_permutation_example(self):
        B = np.array([[0.0, 2.0], [3.0, 0.0], [0.0, 0.0]])
        pol = polar_factor(B)
        # Derived by direct multiplication: B = P Lam with P'P = I, Lam >= 0.
        assert np.allclose(pol.orthogonal_factor, [[0, 1], [1, 0], [0, 0]])
        assert np.allclose(pol.psd_factor, np.diag([3.0, 2.0]))
        assert pol.trace_norm == pytest.approx(5.0)

    def test_rank_deficient_postconditions(self):
        B = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        pol = polar_factor(B)
        P = pol.orthogonal_factor
        assert np.allclose(P.T @ P, np.eye(2), atol=1e-12)
        assert np.allclose(P[:, 0], [1, 0, 0])
        w = np.linalg.eigvalsh(sym_part(P.T @ B))
        assert w[0] >= -1e-12
        assert np.allclose(P @ (P.T @ B), B, atol=1e-12)

    def test_reconstruction_and_psd(self):
        rng = np.random.default_rng(5)
        for t in range(20):
            B = rng.standard_normal((7, 3))
            pol = polar_factor(B)
            P, Lam = pol.orthogonal_factor, pol.psd_factor
            assert np.allclose(P @ Lam, B, atol=1e-10 * max(1, np.linalg.norm(B)))
            assert np.allclose(P.T @ P, np.eye(3), atol=1e-12)
            w = np.linalg.eigvalsh(Lam)
            assert w[0] >= -1e-12 * max(1.0, abs(w[-1]))
            assert pol.trace_norm == pytest.approx(np.trace(Lam))

    def test_maximizes_trace_over_random_rotations(self):
        # For all orthonormal Q, tr(Q'B) <= ||B||_tr with equality at the factor.
        rng = np.random.default_rng(11)
        B = rng.standard_normal((6, 3))
        pol = polar_factor(B)
        tn = pol.trace_norm
        assert np.trace(pol.orthogonal_factor.T @ B) == pytest.approx(tn)
        for t in range(1000):
            Q = random_stiefel(6, 3, seed=t)
            assert np.trace(Q.T @ B) <= tn + 1e-10

    def test_rejects_wide_and_nonfinite(self):
        with pytest.raises(ValueError):
            polar_factor(np.ones((2, 3)))
        with pytest.raises(ValueError):
            polar_factor(np.array([[np.nan, 0.0], [0.0, 1.0], [0, 0]]))


class TestTopKEigenpairs:
    def test_diagonal(self):
        out = top_k_eigenpairs(np.diag([5.0, 3.0, 1.0]), 2)
        assert np.allclose(out.eigenvalues, [5.0, 3.0])
        span = out.eigenbasis @ out.eigenbasis.T
        assert np.allclose(span, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        assert out.gap == pytest.approx(2.0)

    def test_clustered_spectrum_the_range_solve_cuts_short(self):
        # On this spectrum dsyevr returned 1 of the 3 pairs asked for, with
        # info = 0; the top pairs and the gap must still be those of eigh,
        # within the tolerances of the property below (||H|| < 1).
        spectrum = [-3.0, 1.0, 1.0, 1.0, 1e-14, 2.0, -1.6259730522369593,
                    1.0, -2.7002857242383396, 1.0, -2.0, -2.465665306554751,
                    2.0, 1.0]
        n = len(spectrum)
        Q, _ = np.linalg.qr(np.random.default_rng(2340906).standard_normal((n, n)))
        H = sym_part((Q * (1e-3 * np.array(spectrum))) @ Q.T)
        out = top_k_eigenpairs(H, 2)
        w = np.linalg.eigh(H)[0][::-1]
        assert np.max(np.abs(out.eigenvalues - w[:2])) <= 1e-12
        assert abs(out.gap - (w[1] - w[2])) <= 1e-12
        V = out.eigenbasis
        assert np.linalg.norm(H @ V - V * out.eigenvalues) <= 1e-10

    def test_degenerate_spectrum(self):
        out = top_k_eigenpairs(np.eye(4), 2)
        assert np.allclose(out.eigenvalues, [1.0, 1.0])
        assert np.allclose(out.eigenbasis.T @ out.eigenbasis, np.eye(2), atol=1e-12)
        assert out.gap == pytest.approx(0.0)

    def test_matches_full_decomposition_oracle(self):
        rng = np.random.default_rng(3)
        for t in range(10):
            H = rng.standard_normal((6, 6))
            H = 0.5 * (H + H.T)
            out = top_k_eigenpairs(H, 3)
            # Oracle: sort all n eigenpairs, take the top k.
            w = np.sort(np.linalg.eigvalsh(H))[::-1]
            assert np.allclose(out.eigenvalues, w[:3], atol=1e-10)
            assert np.allclose(H @ out.eigenbasis,
                               out.eigenbasis * out.eigenvalues, atol=1e-10)
            assert out.gap == pytest.approx(w[2] - w[3], abs=1e-12)

    def test_fan_bound_over_random_points(self):
        rng = np.random.default_rng(9)
        H = rng.standard_normal((6, 6))
        H = 0.5 * (H + H.T)
        bound = top_k_eigenpairs(H, 2).eigenvalues.sum()
        for t in range(1000):
            P = random_stiefel(6, 2, seed=t)
            assert np.trace(P.T @ H @ P) <= bound + 1e-10

    def test_gap_infinite_when_k_equals_n(self):
        out = top_k_eigenpairs(np.diag([2.0, 1.0]), 2)
        assert np.isinf(out.gap)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            top_k_eigenpairs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_matches_eigh_on_spectra_with_repeats(self, data, n, seed, scale):
        # Integer eigenvalues repeat often; the floats make clusters rarer.
        k = data.draw(st.integers(1, n), label="k")
        spectrum = data.draw(st.lists(
            st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-3, 3, allow_subnormal=False)),
            min_size=n, max_size=n), label="spectrum")
        Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        H = sym_part((Q * (scale * np.array(spectrum))) @ Q.T)
        out = top_k_eigenpairs(H, k)
        w = np.linalg.eigh(H)[0][::-1]
        tol = max(1.0, np.linalg.norm(H, 2))
        V = out.eigenbasis
        assert V.shape == (n, k)
        assert np.max(np.abs(out.eigenvalues - w[:k])) <= 1e-12 * tol
        if k < n:
            assert abs(out.gap - (w[k - 1] - w[k])) <= 1e-12 * tol
        else:
            assert np.isinf(out.gap)
        assert np.linalg.norm(V.T @ V - np.eye(k)) <= 1e-12
        assert np.linalg.norm(H @ V - V * out.eigenvalues) <= 1e-10 * tol
        lead = np.argmax(np.abs(V), axis=0)
        assert np.all(V[lead, np.arange(k)] > 0)


def reference_flips(V):
    # The sign rule as a per-column loop: column j is flipped when its first
    # largest-|.| entry is negative (never for a zero column).
    flips = np.ones(V.shape[1])
    for j in range(V.shape[1]):
        if V[np.argmax(np.abs(V[:, j])), j] < 0:
            flips[j] = -1.0
    return flips


def small_integer_matrix(data, n, k, label):
    # Entries in -2..2, so that |entries| tie often, with some columns
    # zeroed.
    M = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n * k,
                                    max_size=n * k), label=label),
                 dtype=float).reshape(n, k)
    zero = data.draw(st.lists(st.booleans(), min_size=k, max_size=k),
                     label=f"{label} zero columns")
    M[:, zero] = 0.0
    return M


class TestSignConvention:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_polar_factor_is_the_same_under_any_flips(self, data, n):
        # Flipping a singular pair (u_j, v_j) leaves U Vt and Vt' diag(s) Vt
        # unchanged bit for bit, so polar_factor needs no sign rule: its
        # factors equal those after the reference loop's flips, or any.
        k = data.draw(st.integers(1, n), label="k")
        B = small_integer_matrix(data, n, k, "B")
        drawn = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                            min_size=k, max_size=k),
                                   label="flips"))
        pol = polar_factor(B)
        U, s, Vt = np.linalg.svd(B, full_matrices=False)
        for flips in (np.ones(k), reference_flips(U), drawn):
            U_f, Vt_f = U * flips, Vt * flips[:, None]
            assert np.array_equal(pol.orthogonal_factor, U_f @ Vt_f)
            Lam = Vt_f.T @ (s[:, None] * Vt_f)
            assert np.array_equal(pol.psd_factor, 0.5 * (Lam + Lam.T))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_top_k_eigenpairs_flips_as_the_reference_loop(self, data, n):
        # Zeroed rows and columns of H give eigenvectors with exact zeros
        # and exact ties.
        k = data.draw(st.integers(1, n), label="k")
        G = small_integer_matrix(data, n, n, "G")
        H = G + G.T
        zero = ~G.any(axis=0)
        H[zero, :] = 0.0
        H[:, zero] = 0.0
        syevr, = scipy.linalg.get_lapack_funcs(("syevr",), dtype=np.float64)
        _, V, _, _, info = syevr(H.copy(), compute_v=1, range="I",
                                 il=max(n - k, 1), iu=n)
        assert info == 0
        basis = V[:, ::-1][:, :k]
        out = top_k_eigenpairs(H, k).eigenbasis
        assert np.array_equal(out, basis * reference_flips(basis))


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(3)) == pytest.approx(3.0)

    def test_diagonal_absolute_values(self):
        assert trace_norm(np.diag([2.0, -3.0])) == pytest.approx(5.0)

    def test_matches_polar_example(self):
        assert trace_norm([[0.0, 2.0], [3.0, 0.0], [0.0, 0.0]]) == pytest.approx(5.0)

    def test_zero_iff_zero(self):
        assert trace_norm(np.zeros((3, 2))) == 0.0
        assert trace_norm(np.array([[1e-14, 0.0], [0.0, 0.0]])) > 0.0


class TestSymPart:
    def test_basic(self):
        assert np.allclose(sym_part([[1.0, 2.0], [0.0, 1.0]]), [[1, 1], [1, 1]])

    def test_symmetric_fixed_point(self):
        S = np.array([[2.0, 0.5], [0.5, -1.0]])
        assert np.allclose(sym_part(S), S)

    def test_skew_annihilation(self):
        assert np.allclose(sym_part([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 2)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            sym_part(np.ones((2, 3)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), data=st.data(),
       layout=st.sampled_from(["C", "F", "column slice", "fancy index"]))
def test_sym_matmul_is_the_product_for_every_layout(seed, n, data, layout):
    # (X'A)' equals A X for a symmetric A whatever the layout of X,
    # including the ones the package passes: a column slice W[:, k:] of a
    # basis and a fancy-indexed column block.  The result is C-contiguous.
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A = G + G.T
    W = rng.standard_normal((n, n + k))
    X = {"C": W[:, :k].copy(),
         "F": np.asfortranarray(W[:, :k]),
         "column slice": W[:, n:],
         "fancy index": W[:, sorted(rng.choice(n + k, k, replace=False))],
         }[layout]
    out = _sym_matmul(A, X)
    assert out.shape == (n, k) and out.flags.c_contiguous
    scale = max(1.0, np.linalg.norm(A) * np.linalg.norm(X))
    assert np.abs(out - A @ X).max() <= 1e-14 * scale


class TestCanonicalSinTheta:
    def test_same_subspace(self):
        # The clamped-cosine formula resolves tiny angles to ~sqrt(eps).
        X = random_stiefel(5, 2, 0)
        d2, df = canonical_sin_theta(X, X)
        assert d2 == pytest.approx(0.0, abs=1e-7)
        assert df == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_lines(self):
        X = np.array([[1.0], [0.0]])
        Y = np.array([[0.0], [1.0]])
        assert canonical_sin_theta(X, Y) == pytest.approx((1.0, 1.0))

    def test_forty_five_degrees(self):
        X = np.array([[1.0], [0.0], [0.0]])
        Y = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0)
        d2, df = canonical_sin_theta(X, Y)
        assert d2 == pytest.approx(np.sin(np.pi / 4), abs=1e-12)
        assert df == pytest.approx(d2, abs=1e-12)

    def test_right_rotation_invariance(self):
        rng = np.random.default_rng(4)
        X = random_stiefel(6, 3, 1)
        Y = random_stiefel(6, 3, 2)
        base = canonical_sin_theta(X, Y)
        for t in range(10):
            Q = random_stiefel(3, 3, seed=100 + t)
            assert canonical_sin_theta(X @ Q, Y) == pytest.approx(base, abs=1e-10)
            assert canonical_sin_theta(X, Y @ Q) == pytest.approx(base, abs=1e-10)


class TestOrthonormalizeAgainst:
    def test_already_orthogonal(self):
        P = np.array([[1.0], [0.0]])
        W = orthonormalize_against(P, np.array([[0.0], [1.0]]))
        assert np.allclose(np.abs(W), [[0.0], [1.0]])

    def test_full_deflation_gives_empty(self):
        P = random_stiefel(5, 2, 0)
        W = orthonormalize_against(P, P @ np.random.default_rng(1).standard_normal((2, 3)))
        assert W.shape == (5, 0)

    def test_diagonal_direction(self):
        P = np.array([[1.0], [0.0]])
        V = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        W = orthonormalize_against(P, V)
        assert W.shape == (2, 1)
        assert abs(W[1, 0]) == pytest.approx(1.0)

    def test_postconditions_random(self):
        rng = np.random.default_rng(8)
        for t in range(10):
            P = random_stiefel(10, 3, t)
            V = rng.standard_normal((10, 4))
            W = orthonormalize_against(P, V)
            assert np.linalg.norm(P.T @ W) <= 1e-10
            assert np.linalg.norm(W.T @ W - np.eye(W.shape[1])) <= 1e-10
            # Combined spans agree: V lies in range([P, W]).
            basis = np.hstack([P, W])
            proj = basis @ (basis.T @ V)
            assert np.allclose(proj, V, atol=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 12),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_rank_deficient_input(self, data, n, seed, scale):
        # V = P C + Y E with Y of r < m columns: at most r directions lie
        # outside range(P), and what comes back is orthonormal and
        # orthogonal to P.
        k = data.draw(st.integers(1, n - 1), label="k")
        m = data.draw(st.integers(1, 6), label="m")
        r = data.draw(st.integers(0, m - 1), label="r")
        rng = np.random.default_rng(seed)
        P = random_stiefel(n, k, seed)
        V = (scale * P @ rng.standard_normal((k, m))
             + rng.standard_normal((n, r)) @ rng.standard_normal((r, m)))
        W = orthonormalize_against(P, V)
        assert W.shape[0] == n and W.shape[1] <= r
        assert np.linalg.norm(W.T @ W - np.eye(W.shape[1])) <= 1e-12
        assert np.linalg.norm(P.T @ W) <= 1e-12


class TestRandomStiefel:
    def test_square_orthogonal(self):
        Q = random_stiefel(3, 3, 0)
        assert np.allclose(Q.T @ Q, np.eye(3), atol=1e-12)

    def test_deterministic(self):
        assert np.array_equal(random_stiefel(6, 2, 42), random_stiefel(6, 2, 42))

    def test_tall_orthonormal(self):
        P = random_stiefel(100, 5, 7)
        assert np.linalg.norm(P.T @ P - np.eye(5)) <= 1e-12

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            random_stiefel(2, 3, 0)

    def test_require_stiefel_guards(self):
        with pytest.raises(ValueError):
            require_stiefel(np.ones((3, 2)))
