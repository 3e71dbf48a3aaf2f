import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelscf import kernels
from stiefelscf.nepv import GAP_DEGENERATE
from stiefelscf.kernels import (
    _polar,
    _svd,
    _sym,
    _thin_matmul,
    _top_k,
    canonical_sin_theta,
    orthonormalize_against,
    polar_factor,
    random_stiefel,
    require_stiefel,
    require_symmetric,
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


def assert_ritz_pairs(H, P, HP, out, tol):
    # What an accepted warm solve promises: orthonormal Ritz vectors within
    # tol of being eigenvectors, Ky Fan against tr(P'HP) (range(P) lies in
    # the space), Cauchy interlacing, and a unit (k+1)-th vector orthogonal
    # to the basis.
    n, k = P.shape
    V, theta = out.eigenbasis, out.eigenvalues
    assert np.allclose(V.T @ V, np.eye(k), atol=1e-13)
    assert np.linalg.norm(H @ V - V * theta) <= tol
    assert theta.sum() >= np.trace(P.T @ HP) - 1e-12
    w = np.linalg.eigvalsh(H)[::-1]
    assert np.all(theta <= w[:k] + 1e-12)
    g = out.next_vector
    assert g.shape == (n, 1)
    assert np.linalg.norm(V.T @ g) <= 1e-12
    assert np.linalg.norm(g) == pytest.approx(1.0)


def degenerate_spectrum(n, k):
    # lambda_k = lambda_{k+1} = 3: a warm step must not report a gap.
    return np.concatenate([np.linspace(0.0, 2.0, n - k - 1), [3.0, 3.0],
                           np.linspace(3.5, 4.0, k - 1)])


class CountingField:
    # A symmetric matrix applied as ``H @ X``, counting the applies.
    def __init__(self, H):
        self.H, self.applies = H, 0

    def __matmul__(self, X):
        self.applies += 1
        return self.H @ X


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
        assert_ritz_pairs(H, P, HP, out, 0.25 * res)
        g = out.next_vector
        assert out.gap == pytest.approx(out.eigenvalues[-1]
                                        - (g.T @ H @ g).item())

    def test_none_when_the_residual_test_cannot_pass(self):
        H, H_prev = field_and_previous_step(self.SEPARATED, 1, 1e-1)
        prev = top_k_eigenpairs(H_prev, self.K)
        HP, _ = outer_residual(H, prev.eigenbasis)
        assert ritz_top_k(H, prev.eigenbasis, HP, prev.next_vector, 0.0,
                          0.0) is None

    @pytest.mark.parametrize("n, k", [(100, 3), (120, 8)])
    @pytest.mark.parametrize("drift", [1e-4, 1e-2, 0.3])
    def test_degenerate_gap_is_flagged_or_refused(self, n, k, drift):
        for seed in range(5):
            H, H_prev = field_and_previous_step(degenerate_spectrum(n, k),
                                                seed, drift)
            prev = top_k_eigenpairs(H_prev, k)
            P = prev.eigenbasis
            HP, res = outer_residual(H, P)
            for floor in (0.0, GAP_DEGENERATE):
                out = ritz_top_k(H, P, HP, prev.next_vector, 0.25 * res, floor)
                assert out is None or out.gap < GAP_DEGENERATE

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_one_svd_and_one_qr_per_krylov_block(self, degenerate,
                                                 monkeypatch):
        # The start basis [P, g] takes no decomposition; each block the
        # space grows by takes one SVD (the rank-deciding Gram-Schmidt pass)
        # and one Householder QR (the second pass), counted at the LAPACK
        # bindings.  Blocks are counted as the field applies after H g.
        n, k = self.N, self.K
        spectrum = degenerate_spectrum(n, k) if degenerate else self.SEPARATED
        calls = []
        for name in ("_gesdd", "_geqrf"):
            real = getattr(kernels, name)
            monkeypatch.setattr(kernels, name, lambda *a, _n=name, _r=real,
                                **kw: calls.append(_n) or _r(*a, **kw))
        accepted = 0
        for seed in range(4):
            for drift in (1e-3, 1e-1):
                H, H_prev = field_and_previous_step(spectrum, seed, drift)
                prev = top_k_eigenpairs(H_prev, k)
                P = prev.eigenbasis
                HP, res = outer_residual(H, P)
                field = CountingField(H)
                calls.clear()
                out = ritz_top_k(field, P, HP, prev.next_vector, 0.25 * res,
                                 0.0)
                blocks = field.applies - 1
                assert 1 <= blocks <= kernels.RITZ_MAX_BLOCKS
                assert calls.count("_gesdd") == calls.count("_geqrf") == blocks
                accepted += out is not None
        # A degenerate gap is refused, and the rule holds there too.
        assert accepted == 0 if degenerate else accepted >= 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), k=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["separated", "low_rank", "repeated",
                                 "degenerate"]),
           drift=st.sampled_from([1e-6, 1e-3, 0.3]))
    def test_accepted_pairs_hold_on_every_field(self, data, k, seed, kind,
                                                drift):
        # A field with one repeated eigenvalue below the top k has a Krylov
        # space of few dimensions, so a block deflates; a low-rank field has
        # most of its range in [P, g]; with lambda_k = lambda_{k+1} the step
        # must refuse or flag the gap.
        n = data.draw(st.integers(4 * (k + 1) + 1, 120), label="n")
        top = np.linspace(3.0, 4.0, k)
        spectrum = {
            "separated": np.concatenate([np.linspace(0.0, 2.5, n - k), top]),
            "low_rank": np.concatenate([np.zeros(n - k - 1), [1.0], top]),
            "repeated": np.concatenate([np.full(n - k, 1.0), top]),
            "degenerate": degenerate_spectrum(n, k),
        }[kind]
        H, H_prev = field_and_previous_step(spectrum, seed, drift)
        prev = top_k_eigenpairs(H_prev, k)
        P = prev.eigenbasis
        HP, res = outer_residual(H, P)
        out = ritz_top_k(H, P, HP, prev.next_vector, 0.25 * res,
                         GAP_DEGENERATE)
        if out is not None:
            assert_ritz_pairs(H, P, HP, out, 0.25 * res)
        if kind == "degenerate":
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


class TestSvdBinding:
    # Every polar factor and trace norm goes through ``_svd``, the package's
    # dgesdd binding: the public kernels give the solvers' bits, and those
    # agree with np.linalg.svd to rounding (numpy and scipy may link
    # different LAPACK builds, so bit equality is not asserted here).
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 60), data=st.data(), seed=st.integers(0, 2**32 - 1),
           fortran=st.booleans(), repeat=st.booleans())
    def test_polar_and_trace_norm_share_the_binding(self, n, data, seed,
                                                    fortran, repeat):
        k = data.draw(st.integers(1, min(n, 8)), label="k")
        B = np.random.default_rng(seed).standard_normal((n, k))
        if repeat and k > 1:
            B[:, -1] = B[:, 0]  # rank-deficient
        if fortran:
            B = np.asfortranarray(B)
        Q, s = _polar(B)
        pol = polar_factor(B)
        assert np.array_equal(Q, pol.orthogonal_factor)
        assert float(s.sum()) == pol.trace_norm
        # dgesdd takes another route to the singular values alone, so
        # those agree with s only to rounding, as np.linalg.svd's do.
        s_np = np.linalg.svd(B, compute_uv=False)
        for values in (s, _svd(B, compute_uv=False)):
            assert np.allclose(values, s_np, rtol=0.0, atol=1e-13 * s_np[0])
        assert trace_norm(B) == pytest.approx(float(s_np.sum()), rel=1e-13)
        assert np.all(s >= 0.0) and np.all(np.diff(s) <= 0.0)
        assert np.allclose(Q.T @ Q, np.eye(k), atol=1e-13)
        if s_np[-1] > 1e-4 * s_np[0]:
            U, _, Vt = np.linalg.svd(B, full_matrices=False)
            assert np.allclose(Q, U @ Vt, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrices_have_numpys_shapes(self, shape):
        # dgesdd rejects an empty matrix; _svd answers as np.linalg.svd.
        B = np.zeros(shape)
        got, want = _svd(B), np.linalg.svd(B, full_matrices=False)
        assert [x.shape for x in got] == [x.shape for x in want]
        assert _svd(B, compute_uv=False).shape == (0,)
        assert trace_norm(B) == 0.0

    @pytest.mark.parametrize("compute_uv", [True, False])
    def test_a_lapack_failure_raises_linalg_error(self, compute_uv):
        B = np.ones((5, 2))
        B[1, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="dgesdd"):
            _svd(B, compute_uv=compute_uv)


class TestTopKEigenpairs:
    @pytest.mark.parametrize("case", ["exact", "rounded", "clustered"])
    def test_symmetrizing_into_the_workspace_gives_the_sym_bits(self, case):
        # _top_k symmetrizes H into its workspace: the same bits as solving
        # from _sym(H), which is exactly symmetric, for an exactly symmetric
        # H, one that is symmetric only to rounding, and one on which dsyevr
        # returns too few pairs (the eigh fallback).  H is left as it was.
        rng = np.random.default_rng(11)
        n, k = 40, 4
        G = rng.standard_normal((n, n))
        if case == "exact":
            H = G + G.T
        elif case == "rounded":
            H = (G * rng.uniform(0.5, 2.0, n)) @ G.T
            assert not np.array_equal(H, H.T)
        else:
            spectrum = [-3.0, 1.0, 1.0, 1.0, 1e-14, 2.0, -1.6259730522369593,
                        1.0, -2.7002857242383396, 1.0, -2.0,
                        -2.465665306554751, 2.0, 1.0]
            n, k = len(spectrum), 2
            Q, _ = np.linalg.qr(np.random.default_rng(2340906)
                                .standard_normal((n, n)))
            H = sym_part((Q * (1e-3 * np.array(spectrum))) @ Q.T)
        before = H.copy()
        into = _top_k(H, k, np.empty((n, n), order="F"))
        ref = _top_k(_sym(H), k, np.empty((n, n), order="F"))
        assert np.array_equal(H, before)
        assert np.array_equal(ref.eigenvalues, into.eigenvalues)
        assert np.array_equal(ref.eigenbasis, into.eigenbasis)
        assert ref.gap == into.gap
        assert np.array_equal(ref.next_vector, into.next_vector)

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

    def test_a_failed_range_solve_falls_back_to_eigh(self):
        # On this spectrum dsyevr failed with info = 1, which raised
        # LinAlgError; the full eigh supplies the pairs instead.
        spectrum = [0.0, 2.0, -1.2349168807773334, 1.9976362761322708, 2.0,
                    2.0, 2.0, -1.0, 2.875, 0.0, 2.0, 1.0]
        n, k = len(spectrum), 5
        Q, _ = np.linalg.qr(np.random.default_rng(1_073_545_072)
                            .standard_normal((n, n)))
        H = sym_part((Q * (1e-3 * np.array(spectrum))) @ Q.T)
        out = top_k_eigenpairs(H, k)
        w = np.linalg.eigh(H)[0][::-1]
        assert np.max(np.abs(out.eigenvalues - w[:k])) <= 1e-12
        assert abs(out.gap - (w[k - 1] - w[k])) <= 1e-12
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


class TestRequireSymmetric:
    # The symmetry test is relative at every scale: below unit scale it
    # once allowed an absolute 1e-12, which let any tiny matrix through.

    @pytest.mark.parametrize("H", [
        np.array([[0.0, 1e-20], [0.0, 0.0]]),
        1e-170 * np.array([[1.0, 2.0], [0.0, 1.0]]),
        1e-170 * np.triu(np.random.default_rng(0).standard_normal((5, 5))),
    ], ids=["upper-1e-20", "2x2-1e-170", "triu-1e-170"])
    def test_refuses_an_asymmetric_matrix_below_unit_scale(self, H):
        with pytest.raises(ValueError, match="not symmetric"):
            require_symmetric(H)

    @pytest.mark.parametrize("scale", [1e-170, 1e-20, 1.0, 1e154, 1e300])
    def test_passes_a_symmetric_matrix_at_any_scale(self, scale):
        G = np.random.default_rng(1).standard_normal((6, 6))
        A = (G + G.T) * scale
        assert np.array_equal(require_symmetric(A), A)

    def test_passes_rounding_level_asymmetry_below_unit_scale(self):
        G = np.random.default_rng(2).standard_normal((6, 6))
        A = 1e-170 * (G @ G.T)
        off = A.copy()
        off[0, 1] = np.nextafter(off[0, 1], np.inf)
        out = require_symmetric(off)
        assert np.array_equal(out, out.T)

    def test_the_zero_matrix_passes(self):
        assert not require_symmetric(np.zeros((3, 3))).any()


def test_require_symmetric_holds_one_n_by_n_array_at_a_time():
    # Every build runs this on each symmetric matrix, so its peak memory is
    # the benchmark's: at most one n-by-n array beyond the input (the zero
    # H - H' once, then the result), whatever the scale of the data.
    n = 500
    G = np.random.default_rng(0).standard_normal((n, n))
    for scale in (1.0, 1e154, 1e-170):
        A = (G + G.T) * scale
        tracemalloc.start()
        try:
            out = require_symmetric(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, A)
        assert peak < 1.5 * A.nbytes


LAYOUTS = ["C", "F", "column slice", "fancy index"]


def thin_product_case(rng, n, k, layout, symmetric):
    # An n-by-n A, symmetric or not, and an n-by-k X in the given layout,
    # including the ones the package passes: a column slice W[:, k:] of a
    # basis and a fancy-indexed column block.
    G = rng.standard_normal((n, n))
    A = G + G.T if symmetric else G
    W = rng.standard_normal((n, n + k))
    X = {"C": W[:, :k].copy(),
         "F": np.asfortranarray(W[:, :k]),
         "column slice": W[:, n:],
         "fancy index": W[:, sorted(rng.choice(n + k, k, replace=False))],
         }[layout]
    return A, X


def assert_is_the_product(out, A, X):
    assert out.shape == (A.shape[0], X.shape[1]) and out.flags.c_contiguous
    scale = max(1.0, np.linalg.norm(A) * np.linalg.norm(X))
    assert np.abs(out - A @ X).max() <= 1e-14 * scale


def serial_panels(A, X):
    # The kernel's row-panel loop with every panel on the calling thread:
    # the reference the shared path equals bit for bit.
    X = np.ascontiguousarray(X)
    (n, m), k = A.shape, X.shape[1]
    rows = max(1, kernels.PANEL_MNK // max(1, m * k))
    out = np.empty((n, k))
    for i in range(0, n, rows):
        np.matmul(A[i:i + rows], X, out=out[i:i + rows])
    return out


def share_window(open_):
    # The share window opened to every size, or closed to every size.
    return mock.patch.multiple(kernels, SHARE_MIN_MNK=0 if open_ else np.inf,
                               SHARE_MAX_ENTRIES=np.inf)


def logging_matmul(threads):
    # np.matmul, adding the id of each thread that calls it to ``threads``.
    matmul = np.matmul

    def logged(*args, **kwargs):
        threads.add(threading.get_ident())
        return matmul(*args, **kwargs)

    return mock.patch.object(np, "matmul", logged)


# The helper thread exists only where the process may run on two CPUs.
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="no helper on one CPU")


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), data=st.data(),
       layout=st.sampled_from(LAYOUTS), symmetric=st.booleans(),
       shared=st.booleans())
def test_thin_matmul_is_the_product_for_every_layout(seed, n, data, layout,
                                                    symmetric, shared):
    # Row panels of at most PANEL_MNK multiply-adds give A X whatever the
    # layout of X and whether or not A is symmetric.  PANEL_MNK is drawn
    # from 1 (one row per panel) to n^2 k (one panel).  The result is
    # C-contiguous, and with the share window open, so that the helper
    # thread may take panels too, it is the serial loop's bit for bit.
    k = data.draw(st.integers(1, n), label="k")
    panel_mnk = data.draw(st.integers(1, n * n * k), label="PANEL_MNK")
    A, X = thin_product_case(np.random.default_rng(seed), n, k, layout,
                             symmetric)
    with mock.patch.object(kernels, "PANEL_MNK", panel_mnk), \
            share_window(shared):
        out = _thin_matmul(A, X)
        serial = serial_panels(A, X)
    assert_is_the_product(out, A, X)
    assert np.array_equal(out, serial)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n, k, panel_mnk", [(64, 1, 5 * 64), (61, 3, 1)])
def test_shared_panels_are_the_serial_loop(layout, n, k, panel_mnk):
    # The shared path at k = 1 with a ragged last panel (64 rows in panels
    # of 5) and at one row per panel: bit for bit the serial loop, call
    # after call.
    A, X = thin_product_case(np.random.default_rng(n), n, k, layout, False)
    with mock.patch.object(kernels, "PANEL_MNK", panel_mnk), \
            share_window(True):
        serial = serial_panels(A, X)
        for _ in range(50):
            assert np.array_equal(_thin_matmul(A, X), serial)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_thin_matmul_is_the_product_at_n_1000(layout):
    # The unpatched PANEL_MNK and share window at the polar-route shape
    # n = 1000, k = 4: four panels of 250 rows, shared with the helper
    # thread, with a non-symmetric A.
    assert kernels.PANEL_MNK // (1000 * 4) == 250
    assert kernels.SHARE_MIN_MNK <= 1000 * 1000 * 4
    assert 1000 * 1000 <= kernels.SHARE_MAX_ENTRIES
    A, X = thin_product_case(np.random.default_rng(1), 1000, 4, layout, False)
    out = _thin_matmul(A, X)
    assert_is_the_product(out, A, X)
    assert np.array_equal(out, serial_panels(A, X))


def test_the_window_keeps_small_and_large_products_serial():
    # n <= 200 with up to 32 columns (the largest NEPv products) and an A
    # beyond SHARE_MAX_ENTRIES entries run every panel on the caller.
    threads = set()
    rng = np.random.default_rng(2)
    for n, k in ((200, 32), (40, 3), (2000, 4)):
        A, X = thin_product_case(rng, n, k, "C", True)
        with logging_matmul(threads):
            out = _thin_matmul(A, X)
        assert np.array_equal(out, serial_panels(A, X))
    assert threads == {threading.get_ident()}


@needs_two_cpus
def test_the_helper_takes_panels():
    # At n = 1000, k = 4 the helper thread runs some of the four panels:
    # within a few products a panel runs on a thread other than the
    # caller's.
    A, X = thin_product_case(np.random.default_rng(4), 1000, 4, "C", True)
    serial = serial_panels(A, X)
    threads = set()
    with logging_matmul(threads):
        for _ in range(50):
            assert np.array_equal(_thin_matmul(A, X), serial)
            if len(threads) > 1:
                break
    assert len(threads) == 2 and threading.get_ident() in threads


@needs_two_cpus
def test_a_busy_helper_does_not_stall_the_product():
    # With the helper blocked on an event, the caller withdraws its offer
    # and forms every panel itself: the product returns, exact, while the
    # helper is still blocked.
    started, release = threading.Event(), threading.Event()

    def block():
        started.set()
        release.wait(60)

    A, X = thin_product_case(np.random.default_rng(5), 1000, 4, "C", True)
    serial = serial_panels(A, X)
    blocker = kernels._Job(block)
    kernels._helper_jobs().put(blocker)
    try:
        assert started.wait(10)
        result = []
        caller = threading.Thread(
            target=lambda: result.append(_thin_matmul(A, X)))
        caller.start()
        caller.join(10)
        assert not caller.is_alive()
        assert not release.is_set()
        assert np.array_equal(result[0], serial)
    finally:
        release.set()
        blocker.join()


def test_concurrent_callers_get_the_serial_result():
    # Four callers at once on two CPUs, as ``cli.run_batch`` runs its
    # files, share the one helper, with thread switches forced often: a
    # panel lost or written into another caller's result would show.
    rng = np.random.default_rng(6)
    cases = [thin_product_case(rng, 1000, k, layout, False)
             for k, layout in ((2, "C"), (4, "F"), (4, "column slice"),
                               (8, "fancy index"))]
    expected = [serial_panels(A, X) for A, X in cases]

    def products(A, X):
        return [_thin_matmul(A, X) for _ in range(25)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(products, A, X) for A, X in cases]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for outs, want in zip(results, expected):
        assert all(np.array_equal(out, want) for out in outs)


def fresh_python(code, *args):
    # What a fresh interpreter on this package prints running ``code``
    # with ``args``, split into words.
    src = Path(kernels.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(src))).stdout.split()


def test_import_starts_no_thread():
    assert fresh_python("import threading, stiefelscf\n"
                        "print(threading.active_count())") == ["1"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_one_cpu_starts_no_helper():
    # A process narrowed to one CPU forms the n = 1000 product on its own
    # thread and starts no other; with every CPU the same product starts
    # the helper where there are two.
    code = ("import os, sys, threading\n"
            "if sys.argv[1:] == ['one']:\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import numpy as np\n"
            "from stiefelscf import kernels\n"
            "A, X = np.ones((1000, 1000)), np.ones((1000, 4))\n"
            "assert (kernels._thin_matmul(A, X) == 1000.0).all()\n"
            "print(kernels._helper is False, threading.active_count())\n")
    assert fresh_python(code, "one") == ["True", "1"]
    if CPUS > 1:
        assert fresh_python(code) == ["False", "2"]



@needs_two_cpus
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper():
    # The parent's helper thread does not survive a fork: the child forgets
    # it and starts its own on its first shared product, which is exact.
    code = ("import os, threading\n"
            "import numpy as np\n"
            "from stiefelscf import kernels\n"
            "A, X = np.ones((1000, 1000)), np.ones((1000, 4))\n"
            "kernels._thin_matmul(A, X)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    forgot = kernels._helper is None\n"
            "    exact = (kernels._thin_matmul(A, X) == 1000.0).all()\n"
            "    ok = forgot and exact and threading.active_count() == 2\n"
            "    os._exit(0 if ok else 1)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n")
    assert fresh_python(code) == ["0"]

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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_orth_against_is_orthonormal_to_working_precision(data, k, seed,
                                                          scale):
    # V mixes columns outside range(W), columns inside it and columns that
    # nearly repeat others.  With the floor orthonormalize_against sets,
    # the SVD pass decides the rank and the QR pass leaves Y orthonormal and
    # orthogonal to W to working precision.
    n = data.draw(st.integers(4 * (k + 1) + 1, 120), label="n")
    p = data.draw(st.integers(k, 4 * (k + 1)), label="p")
    free = data.draw(st.integers(0, min(n - p, k + 1)), label="free")
    inside = data.draw(st.integers(0, k + 1), label="inside")
    near = data.draw(st.sampled_from([0.0, 1e-10, 1e-6]), label="near")
    rng = np.random.default_rng(seed)
    W = random_stiefel(n, p, seed)
    cols = [rng.standard_normal((n, free)), W @ rng.standard_normal((p, inside))]
    if near and free:
        cols.append(cols[0] + near * rng.standard_normal((n, free)))
    V = scale * np.hstack(cols)
    if not V.shape[1]:
        return
    Y = kernels._orth_against(W, V, 1e-12 * np.linalg.norm(V, 2))
    assert Y.shape[1] <= V.shape[1] - inside
    assert np.linalg.norm(Y.T @ Y - np.eye(Y.shape[1])) <= 1e-13
    assert np.linalg.norm(W.T @ Y) <= 1e-13


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
