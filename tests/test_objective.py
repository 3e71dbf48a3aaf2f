import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelscf.alignment import PolarAlignment
from stiefelscf.kernels import random_stiefel, sym_part
from stiefelscf.nepv import nepv_scf_step
from stiefelscf import objective
from stiefelscf.objective import (
    AtomicTerm,
    ComposedObjective,
    NegativeBaseError,
    eval_atomic,
    grad_atomic,
    outer_ratio_squared,
    outer_sum,
    outer_theta_ratio,
    outer_weighted_sum,
)


def fd_grad(fn, P, h=1e-6):
    """Central-difference gradient over all entries of P as a free matrix."""
    G = np.zeros_like(P)
    for i in range(P.shape[0]):
        for j in range(P.shape[1]):
            E = np.zeros_like(P)
            E[i, j] = h
            G[i, j] = (fn(P + E) - fn(P - E)) / (2 * h)
    return G


def make_psd(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T / n + shift * np.eye(n)


class TestEvalAtomic:
    def test_linear_square(self):
        term = AtomicTerm.linear(np.array([[2.0], [0.0]]), m=2)
        P = np.array([[1.0], [0.0]])
        assert eval_atomic(term, P) == pytest.approx(4.0)

    def test_quadratic_power_s(self):
        term = AtomicTerm.quadratic(np.diag([3.0, 2.0]), m=1, s=2.0)
        P = np.array([[1.0], [0.0]])
        assert eval_atomic(term, P) == pytest.approx(9.0)

    def test_quadratic_m2_full(self):
        term = AtomicTerm.quadratic(np.diag([3.0, 2.0]), m=2)
        P = np.eye(2)
        assert eval_atomic(term, P) == pytest.approx(13.0)

    def test_negative_base_raises(self):
        term = AtomicTerm.linear(np.array([[1.0], [0.0]]), m=1, s=1.5)
        P = np.array([[-1.0], [0.0]])
        with pytest.raises(NegativeBaseError):
            eval_atomic(term, P)

    def test_selector(self):
        term = AtomicTerm.quadratic(np.diag([3.0, 2.0]), cols=(1,))
        P = np.eye(2)
        assert eval_atomic(term, P) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AtomicTerm.linear(np.eye(2), m=0)
        with pytest.raises(ValueError):
            AtomicTerm.linear(np.eye(2), s=0.5)
        with pytest.raises(ValueError):
            AtomicTerm.linear(np.eye(2), c=-1.0)
        with pytest.raises(ValueError):
            AtomicTerm.linear(np.eye(2), cols=(1, 0))
        with pytest.raises(ValueError, match="nonempty"):
            AtomicTerm.linear(np.zeros((2, 0)), cols=())
        with pytest.raises(ValueError, match=">= 0"):
            AtomicTerm.quadratic(np.eye(2), cols=(-1,))

    def test_a_quadratic_matrix_is_exactly_symmetric(self):
        # A direct term refuses a matrix one ulp off symmetric, whose
        # gradient 2 A P would be wrong; ``quadratic`` symmetrizes one
        # within SYMMETRY_TOL.
        A = sym_part(make_psd(5, 1))
        off = A.copy()
        off[0, 1] = np.nextafter(off[0, 1], np.inf)
        with pytest.raises(ValueError, match="exactly symmetric"):
            AtomicTerm("quadratic", off)
        assert AtomicTerm("quadratic", A).matrix is A
        term = AtomicTerm.quadratic(off)
        assert np.array_equal(term.matrix, term.matrix.T)
        assert np.allclose(term.matrix, A, rtol=0.0, atol=1e-15)


class TestGradAtomic:
    def test_linear_m1_is_constant_d(self):
        D = np.random.default_rng(0).standard_normal((5, 2))
        term = AtomicTerm.linear(D)
        for seed in range(3):
            P = random_stiefel(5, 2, seed)
            assert np.allclose(grad_atomic(term, P), D)

    def test_quadratic_m1(self):
        A = np.diag([3.0, 2.0])
        term = AtomicTerm.quadratic(A)
        P = np.array([[1.0], [0.0]])
        assert np.allclose(grad_atomic(term, P), [[6.0], [0.0]])

    @pytest.mark.parametrize("term_fn", [
        lambda D, A: AtomicTerm.linear(D, m=1),
        lambda D, A: AtomicTerm.linear(D, m=2),
        lambda D, A: AtomicTerm.linear(D, m=3),
        lambda D, A: AtomicTerm.quadratic(A, m=1),
        lambda D, A: AtomicTerm.quadratic(A, m=2),
        lambda D, A: AtomicTerm.linear(D, m=2, s=2.0, c=0.7),
        lambda D, A: AtomicTerm.quadratic(A, m=1, s=1.5, c=2.0),
        lambda D, A: AtomicTerm.quadratic(A, m=2, s=2.0),
        lambda D, A: AtomicTerm.linear(D, m=1, cols=(0, 2)),
        lambda D, A: AtomicTerm.quadratic(A, m=2, cols=(1,)),
    ])
    def test_matches_finite_differences(self, term_fn):
        n, k = 6, 3
        rng = np.random.default_rng(17)
        A = make_psd(n, 23, shift=0.5)
        for seed in range(3):
            P = random_stiefel(n, k, seed)
            D_full = rng.standard_normal((n, k))
            term = term_fn(D_full[:, :2] if term_fn(D_full, A).cols == (0, 2)
                           else D_full, A)
            # Rebuild with a correctly-shaped D for the selector case.
            if term.kind == "linear" and term.cols is not None:
                term = AtomicTerm.linear(D_full[:, :len(term.cols)], m=term.m,
                                         s=term.s, c=term.c, cols=term.cols)
            G = grad_atomic(term, P)
            FD = fd_grad(lambda X: eval_atomic(term, X), P)
            assert np.linalg.norm(FD - G) <= 1e-6 * max(1.0, np.linalg.norm(G))

    def test_euler_identity_linear(self):
        # tr(P_i' grad) = s*m*value for the linear kind.
        D = np.random.default_rng(1).standard_normal((6, 2))
        for m, s in [(1, 1.0), (2, 1.0), (3, 2.0), (2, 1.5)]:
            term = AtomicTerm.linear(D, m=m, s=s, c=1.3)
            for seed in range(5):
                P = random_stiefel(6, 2, seed)
                if np.trace(np.linalg.matrix_power(P.T @ D, m)) < 0 and s != 1.0:
                    continue
                val = eval_atomic(term, P)
                lhs = np.trace(P.T @ grad_atomic(term, P))
                assert lhs == pytest.approx(s * m * val, rel=1e-10, abs=1e-10)

    def test_euler_identity_quadratic(self):
        A = make_psd(6, 2)
        for m, s in [(1, 1.0), (2, 1.0), (1, 2.0), (2, 1.5)]:
            term = AtomicTerm.quadratic(A, m=m, s=s, c=0.9)
            for seed in range(5):
                P = random_stiefel(6, 2, seed)
                val = eval_atomic(term, P)
                lhs = np.trace(P.T @ grad_atomic(term, P))
                assert lhs == pytest.approx(2 * s * m * val, rel=1e-10, abs=1e-10)


def mbsub_objective(n, k, seed, psd=True, split=False):
    """tr(P'AP + P'D) with full-column terms, or with ``split`` as the sum
    over columns j of tr(p_j'Ap_j + p_j'd_j), the same f with the generic
    field."""
    rng = np.random.default_rng(seed)
    A = make_psd(n, seed) if psd else sym_part(rng.standard_normal((n, n)))
    D = rng.standard_normal((n, k))
    terms = (AtomicTerm.quadratic(A), AtomicTerm.linear(D))
    if split:
        terms = tuple(t for j in range(k) for t in (
            AtomicTerm.quadratic(A, cols=(j,)),
            AtomicTerm.linear(D[:, [j]], cols=(j,))))
    return ComposedObjective(n, k, terms, outer_sum(len(terms)),
                             alignment=PolarAlignment(blocks=())), A, D


class TestComposedObjective:
    def test_sep_value(self):
        A = np.diag([2.0, 1.0])
        obj = ComposedObjective(2, 1, (AtomicTerm.quadratic(A),), outer_sum(1))
        assert obj.value(np.array([[1.0], [0.0]])) == pytest.approx(2.0)

    def test_mbsub_value(self):
        obj = ComposedObjective(
            2, 1,
            (AtomicTerm.quadratic(np.eye(2)), AtomicTerm.linear(np.array([[1.0], [0.0]]))),
            outer_sum(2))
        assert obj.value(np.array([[1.0], [0.0]])) == pytest.approx(2.0)

    def test_ratio_squared_value(self):
        # (x2 + x3)^2 / x1^(2 theta) at P = e1 with A = 0, B = I, D = e1.
        n, k = 2, 1
        terms = (AtomicTerm.quadratic(np.eye(n)),
                 AtomicTerm.quadratic(np.zeros((n, n))),
                 AtomicTerm.linear(np.array([[1.0], [0.0]])))
        obj = ComposedObjective(n, k, terms, outer_ratio_squared(0.5))
        assert obj.value(np.array([[1.0], [0.0]])) == pytest.approx(1.0)

    @pytest.mark.parametrize("outer", [outer_theta_ratio, outer_ratio_squared])
    def test_ratio_outers_refuse_a_denominator_at_the_floor(self, outer):
        phi = outer(0.5)
        for x0 in (objective.RATIO_DENOMINATOR_FLOOR, 0.0, -1.0):
            for fn in (phi.value, phi.partials):
                with pytest.raises(ValueError, match="below floor"):
                    fn(np.array([x0, 1.0, 1.0]))
        assert phi.value([2 * objective.RATIO_DENOMINATOR_FLOOR, 0.0, 0.0]) == 0.0

    def test_mbsub_gradient_form(self):
        obj, A, D = mbsub_objective(6, 2, 3)
        for seed in range(3):
            P = random_stiefel(6, 2, seed)
            assert np.allclose(obj.euclidean_grad(P), 2 * A @ P + D, atol=1e-12)

    def test_example_gradient_quad_plus_linsq(self):
        # f = tr(P'AP) + tr((P'D)^2) has gradient 2AP + 2D(P'D).
        n, k = 5, 2
        rng = np.random.default_rng(5)
        A = make_psd(n, 5)
        D = rng.standard_normal((n, k))
        obj = ComposedObjective(
            n, k, (AtomicTerm.quadratic(A), AtomicTerm.linear(D, m=2)),
            outer_sum(2))
        for seed in range(3):
            P = random_stiefel(n, k, seed)
            expected = 2 * A @ P + 2 * D @ (P.T @ D)
            assert np.allclose(obj.euclidean_grad(P), expected, atol=1e-12)

    def test_composed_gradient_fd(self):
        n, k = 6, 2
        rng = np.random.default_rng(7)
        terms = (AtomicTerm.quadratic(make_psd(n, 1, 0.3), m=2),
                 AtomicTerm.linear(rng.standard_normal((n, k)), m=1),
                 AtomicTerm.quadratic(make_psd(n, 2), m=1, s=2.0))
        obj = ComposedObjective(n, k, terms, outer_weighted_sum([1.0, 0.5, 0.25]))
        for seed in range(5):
            P = random_stiefel(n, k, seed)
            G = obj.euclidean_grad(P)
            FD = fd_grad(obj.value, P)
            assert np.linalg.norm(FD - G) <= 1e-6 * max(1.0, np.linalg.norm(G))

    def test_riemannian_grad_zero_at_eigenbasis(self):
        A = np.diag([5.0, 3.0, 1.0])
        obj = ComposedObjective(3, 2, (AtomicTerm.quadratic(A),), outer_sum(1))
        P = np.eye(3)[:, :2]
        R = obj.riemannian_grad(P)
        assert np.linalg.norm(R) <= 1e-12 * np.linalg.norm(A)

    def test_riemannian_grad_zero_at_polar_factor(self):
        rng = np.random.default_rng(11)
        D = rng.standard_normal((6, 2))
        from stiefelscf.kernels import polar_factor
        obj = ComposedObjective(6, 2, (AtomicTerm.linear(D),), outer_sum(1))
        P = polar_factor(D).orthogonal_factor
        assert np.linalg.norm(obj.riemannian_grad(P)) <= 1e-10

    def test_riemannian_grad_is_tangent(self):
        obj, _, _ = mbsub_objective(7, 3, 9)
        for seed in range(5):
            P = random_stiefel(7, 3, seed)
            R = obj.riemannian_grad(P)
            assert np.linalg.norm(sym_part(P.T @ R)) <= 1e-12 * max(
                1.0, np.linalg.norm(R))

    def test_right_rotation_invariance_quadratic_only(self):
        A1, A2 = make_psd(6, 1), make_psd(6, 2)
        obj = ComposedObjective(
            6, 3, (AtomicTerm.quadratic(A1, m=2), AtomicTerm.quadratic(A2)),
            outer_sum(2))
        P = random_stiefel(6, 3, 0)
        base = obj.value(P)
        for t in range(5):
            Q = random_stiefel(3, 3, 50 + t)
            assert obj.value(P @ Q) == pytest.approx(base, rel=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ComposedObjective(3, 2, (AtomicTerm.quadratic(np.eye(4)),), outer_sum(1))
        with pytest.raises(ValueError):
            ComposedObjective(3, 2, (AtomicTerm.quadratic(np.eye(3)),), outer_sum(2))
        with pytest.raises(ValueError):
            ComposedObjective(3, 2, (AtomicTerm.quadratic(np.eye(3), cols=(2,)),),
                              outer_sum(1))
        for k in (0, 5):
            with pytest.raises(ValueError, match=f"n = 3, k = {k}"):
                ComposedObjective(3, k, (AtomicTerm.quadratic(np.eye(3)),),
                                  outer_sum(1))
        obj, _, _ = mbsub_objective(6, 2, 1)
        with pytest.raises(ValueError, match="n = 1, k = 2"):
            obj.transform(random_stiefel(6, 1, 0))


class TestField:
    def test_sep_field_is_2a(self):
        A = sym_part(np.random.default_rng(0).standard_normal((5, 5)))
        obj = ComposedObjective(5, 2, (AtomicTerm.quadratic(A),), outer_sum(1))
        for seed in range(3):
            P = random_stiefel(5, 2, seed)
            fe = obj.field(P)
            assert np.allclose(fe.H, 2 * A, atol=1e-12)
            assert np.linalg.norm(fe.mismatch) <= 1e-12
            assert fe.asymmetry <= 1e-12

    def test_generic_field_identity_mbsub(self):
        obj, A, D = mbsub_objective(6, 2, 4, psd=False, split=True)
        assert obj.field_recipe == "generic"
        for seed in range(5):
            P = random_stiefel(6, 2, seed)
            fe = obj.field(P)
            G = 2 * A @ P + D
            assert np.allclose(fe.H, G @ P.T + P @ G.T, atol=1e-12)
            resid = fe.H @ P - G - P @ fe.mismatch
            assert np.linalg.norm(resid) <= 1e-10 * max(1.0, np.linalg.norm(fe.H))

    def test_field_identity_all_recipes(self):
        n, k = 6, 2
        rng = np.random.default_rng(21)
        D = rng.standard_normal((n, k))
        A = make_psd(n, 31)
        partial = (AtomicTerm.quadratic(A, m=2, cols=(0,)),
                   AtomicTerm.linear(D[:, 1:], m=2, cols=(1,)),
                   AtomicTerm.linear(D, m=1, s=2.0))
        full = (AtomicTerm.quadratic(A, m=2), AtomicTerm.linear(D, m=2),
                AtomicTerm.linear(D, m=1, s=2.0))
        cases = [ComposedObjective(n, k, terms,
                                   outer_weighted_sum([1.0, 0.7, 0.2]))
                 for terms in (partial, full)]
        assert [c.field_recipe for c in cases] == ["generic", "composition"]
        B = make_psd(n, 41, shift=1.0)
        cases.append(ComposedObjective(
            n, k,
            (AtomicTerm.quadratic(B), AtomicTerm.quadratic(A), AtomicTerm.linear(D)),
            outer_theta_ratio(0.5)))
        for obj in cases:
            for seed in range(100):
                P = random_stiefel(n, k, seed)
                try:
                    fe = obj.field(P)
                except NegativeBaseError:
                    continue
                G = obj.euclidean_grad(P)
                resid = np.linalg.norm(fe.H @ P - G - P @ fe.mismatch)
                assert resid <= 1e-10 * max(1.0, np.linalg.norm(fe.H))

    def test_theta_field_at_zero_theta(self):
        # At theta = 0 the ratio field reduces to 2A + DP' + PD'.
        n, k = 5, 2
        rng = np.random.default_rng(2)
        A = make_psd(n, 3)
        B = make_psd(n, 4, shift=1.0)
        D = rng.standard_normal((n, k))
        obj = ComposedObjective(
            n, k,
            (AtomicTerm.quadratic(B), AtomicTerm.quadratic(A), AtomicTerm.linear(D)),
            outer_theta_ratio(0.0))
        P = random_stiefel(n, k, 0)
        fe = obj.field(P)
        assert np.allclose(fe.H, 2 * A + D @ P.T + P @ D.T, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_power_quadratic_field_is_n2k(self, m):
        # 2m X S^(m-2) X' (X = AP, S = P'X) against the n^3 form
        # 2m sym(A (PP'A)^(m-1)) it replaces; the field identity is exact.
        n, k, c = 9, 3, 0.5
        A = make_psd(n, 50 + m)
        obj = ComposedObjective(n, k, (AtomicTerm.quadratic(A, m=m, c=c),),
                                outer_sum(1))
        for seed in range(5):
            P = random_stiefel(n, k, seed)
            fe = obj.field(P)
            old = c * sym_part(2 * m * A @ np.linalg.matrix_power(
                P @ P.T @ A, m - 1))
            assert np.linalg.norm(fe.H - old) <= 1e-12 * np.linalg.norm(old)
            resid = fe.H @ P - obj.euclidean_grad(P) - P @ fe.mismatch
            assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(fe.H)

    def test_field_trace_identity_composition(self):
        # tr(P'HP) = sum_i 2 s_i m_i phi_i value_i for the composition recipe.
        n, k = 6, 2
        rng = np.random.default_rng(33)
        D = rng.standard_normal((n, k))
        A = make_psd(n, 8)
        terms = (AtomicTerm.quadratic(A, m=2, c=0.5),
                 AtomicTerm.linear(D, m=2),
                 AtomicTerm.quadratic(A, m=1, s=2.0))
        obj = ComposedObjective(n, k, terms, outer_weighted_sum([1.0, 0.3, 0.1]))
        gammas = [2 * 1 * 2, 2 * 1 * 2, 2 * 2 * 1]
        for seed in range(20):
            P = random_stiefel(n, k, seed)
            fe = obj.field(P)
            x = obj.at(P).term_values
            phi = obj.outer.partials(x)
            expected = sum(g * w * v for g, w, v in zip(gammas, phi, x))
            got = np.trace(P.T @ fe.H @ P)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_field_trace_identity_generic(self):
        # tr(P'HP) = 2 tr(P'G) for the generic recipe.
        obj, A, D = mbsub_objective(6, 2, 14, psd=False, split=True)
        for seed in range(20):
            P = random_stiefel(6, 2, seed)
            fe = obj.field(P)
            got = np.trace(P.T @ fe.H @ P)
            expected = 2 * np.trace(P.T @ obj.euclidean_grad(P))
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_mismatch_asymmetry_zero_for_sep_positive_generic(self):
        A = make_psd(5, 6)
        obj = ComposedObjective(5, 2, (AtomicTerm.quadratic(A),), outer_sum(1))
        assert obj.at(random_stiefel(5, 2, 1)).field.asymmetry <= 1e-12

    def test_mismatch_asymmetry_positive_generically(self):
        obj, _, _ = mbsub_objective(6, 2, 8)
        vals = [obj.at(random_stiefel(6, 2, s)).field.asymmetry for s in range(5)]
        assert all(v > 1e-6 for v in vals)

    def test_an_explicit_full_selector_is_a_full_selector(self):
        # Field recipe, field and alignment matrix are those of cols=None.
        obj, A, D = mbsub_objective(6, 2, 5)
        full = ComposedObjective(6, 2, (AtomicTerm.quadratic(A, cols=(0, 1)),
                                        AtomicTerm.linear(D, cols=(0, 1))),
                                 outer_sum(2))
        assert full.field_recipe == "composition"
        for seed in range(3):
            P = random_stiefel(6, 2, seed)
            assert np.array_equal(full.script_d(P), obj.script_d(P))
            assert np.array_equal(full.field(P).H, obj.field(P).H)

    def test_transform_substitutes_structure(self):
        obj, A, D = mbsub_objective(7, 2, 12)
        W = random_stiefel(7, 5, 3)
        red = obj.transform(W)
        for seed in range(5):
            Z = random_stiefel(5, 2, seed)
            assert red.value(Z) == pytest.approx(obj.value(W @ Z), rel=1e-12)
            assert np.allclose(red.euclidean_grad(Z),
                               W.T @ obj.euclidean_grad(W @ Z), atol=1e-10)


def evaluation_objectives(n=7, k=3):
    rng = np.random.default_rng(60)
    A, D = make_psd(n, 61), rng.standard_normal((n, k))
    terms = (AtomicTerm.quadratic(A, m=2, c=0.5), AtomicTerm.linear(D),
             AtomicTerm.quadratic(make_psd(n, 62), cols=(0, 2)),
             AtomicTerm.linear(D[:, 1:], m=2, cols=(1, 2)),
             AtomicTerm.quadratic(A, s=2.0))
    yield ComposedObjective(n, k, terms, outer_weighted_sum(
        [1.0, 0.5, -0.25, 0.0, 0.1]))
    B = make_psd(n, 63, shift=1.0)
    yield ComposedObjective(
        n, k, (AtomicTerm.quadratic(B), AtomicTerm.quadratic(A),
               AtomicTerm.linear(D)),
        outer_theta_ratio(0.5))


class TestPointEvaluation:
    @pytest.mark.parametrize("idx", [0, 1])
    def test_matches_the_per_term_functions_exactly(self, idx):
        obj = list(evaluation_objectives())[idx]
        for seed in range(3):
            P = random_stiefel(obj.n, obj.k, seed)
            at = obj.at(P)
            x = np.array([eval_atomic(t, P) for t in obj.terms])
            assert np.array_equal(at.term_values, x)
            assert at.value == float(obj.outer.value(x))
            G = np.zeros((obj.n, obj.k))
            for w, t in zip(obj.outer.partials(x), obj.terms):
                if w != 0.0:
                    G += w * grad_atomic(t, P)
            assert np.array_equal(at.euclidean_grad, G)
            assert np.array_equal(at.riemannian_grad,
                                  G - P @ sym_part(P.T @ G))

    def test_each_term_is_evaluated_once(self, monkeypatch):
        calls = []
        real = objective._atom
        monkeypatch.setattr(objective, "_atom",
                            lambda t, P_i: calls.append(t) or real(t, P_i))
        for obj in evaluation_objectives():
            calls.clear()
            at = obj.at(random_stiefel(obj.n, obj.k, 4))
            for name in ("value", "euclidean_grad", "riemannian_grad",
                         "script_d", "field", "theta_sign_ok"):
                getattr(at, name)
            assert len(calls) == len(obj.terms)

    def test_validates_the_point(self):
        obj = next(evaluation_objectives())
        P = random_stiefel(obj.n, obj.k, 0)
        P[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            obj.at(P)

    def test_theta_sign_ok_is_the_ratio_numerator(self):
        obj = list(evaluation_objectives())[1]
        A, D = obj.theta_data.A, obj.theta_data.D
        for seed in range(10):
            P = random_stiefel(obj.n, obj.k, seed)
            num = np.trace(P.T @ A @ P) + np.trace(P.T @ D)
            assert obj.at(P).theta_sign_ok == (num >= 0.0)


class TestThetaData:
    def test_read_off_the_outer_function(self):
        # A hand-built ratio carries theta in its outer function alone, and
        # the eigenvector step guards and records it like a built one.
        obj = list(evaluation_objectives())[1]
        assert "meta" not in {f.name for f in dataclasses.fields(obj)}
        assert obj.outer.theta == 0.5
        assert obj.theta_data.theta == 0.5
        _, rec = nepv_scf_step(obj, random_stiefel(obj.n, obj.k, 0))
        assert rec.d_trace_norm is not None

    def test_none_off_the_ratio_layout(self):
        obj = list(evaluation_objectives())[1]
        B, A, D = obj.terms
        for terms, outer in (
                ((B, A, D), outer_ratio_squared(0.5)),
                ((B, A, D), outer_weighted_sum([1.0, 1.0, 1.0])),
                ((B, A, AtomicTerm.linear(D.matrix, c=2.0)),
                 outer_theta_ratio(0.5)),
                ((B, A, AtomicTerm.linear(D.matrix[:, :2], cols=(0, 1))),
                 outer_theta_ratio(0.5))):
            assert ComposedObjective(obj.n, obj.k, terms, outer).theta_data is None


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 7), seed=st.integers(0, 2**16))
def test_field_recipe_is_read_off_the_selectors(data, n, seed):
    # Composition exactly when every term covers all k columns (no selector
    # or an explicit full tuple); either field satisfies the field identity.
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(data.draw(st.integers(1, 3))):
        cols = data.draw(st.sampled_from(
            [None, tuple(range(k))] + (["subset"] if k > 1 else [])))
        if cols == "subset":
            cols = tuple(sorted(data.draw(st.lists(
                st.integers(0, k - 1), min_size=1, max_size=k - 1,
                unique=True))))
        width = k if cols is None else len(cols)
        m = data.draw(st.sampled_from([1, 2]))
        if data.draw(st.booleans()):
            terms.append(AtomicTerm.linear(
                rng.standard_normal((n, width)), m=m, cols=cols))
        else:
            terms.append(AtomicTerm.quadratic(
                sym_part(rng.standard_normal((n, n))), m=m, cols=cols))
    obj = ComposedObjective(n, k, tuple(terms), outer_weighted_sum(
        rng.uniform(0.5, 2.0, len(terms))))
    full = all(t.cols is None or len(t.cols) == k for t in terms)
    assert obj.field_recipe == ("composition" if full else "generic")
    P = random_stiefel(n, k, seed)
    at = obj.at(P)
    H = at.field.H
    resid = np.linalg.norm(H @ P - at.euclidean_grad - P @ at.field.mismatch)
    assert resid <= objective.FIELD_IDENTITY_TOL * max(1.0, np.linalg.norm(H))
