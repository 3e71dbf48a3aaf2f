import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelscf.alignment import PolarAlignment
from stiefelscf.kernels import _scaled_norm, random_stiefel, sym_part
from stiefelscf.nepv import NepvConfig, nepv_scf
from stiefelscf.problems import OUTER_PRESETS, ProblemSpec, build
from stiefelscf import objective
from stiefelscf.objective import (
    AtomicTerm,
    ComposedObjective,
    NegativeBaseError,
    eval_atomic,
    field_gram,
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

    def test_outer_sum_takes_any_sequence(self):
        phi = outer_sum(3)
        assert phi.value([1, 2, 3]) == phi.value((1.0, 2.0, 3.0)) == 6.0
        assert phi.value(np.array([0.5, 0.25, 0.125])) == 0.875

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
        report = nepv_scf(obj, random_stiefel(obj.n, obj.k, 0),
                          NepvConfig(tol=1e-300, max_iter=1))
        assert report.iterations[0].d_trace_norm is not None

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


class TestDiagonalTerm:
    def objective(self, n=5, k=2):
        A = make_psd(n, 0)
        return ComposedObjective(
            n, k, (AtomicTerm.quadratic(A), AtomicTerm.diagonal()),
            outer_weighted_sum(np.linspace(1.0, 2.0, n + 1)))

    def test_outer_dimension_counts_coordinates(self):
        obj = self.objective()
        with pytest.raises(ValueError, match="coordinates 6"):
            dataclasses.replace(obj, outer=outer_sum(2))
        assert obj.transform(np.eye(5)[:, :3]).outer.dim == 6

    def test_single_term_functions_refuse_it(self):
        P = random_stiefel(5, 2, 0)
        for fn in (eval_atomic, grad_atomic):
            with pytest.raises(ValueError, match="diagonal"):
                fn(AtomicTerm.diagonal(), P)

    def test_takes_no_powers(self):
        for kw in ({"m": 2}, {"s": 2.0}):
            with pytest.raises(ValueError, match="m = s = 1"):
                AtomicTerm("diagonal", None, **kw)

    def test_values_gradient_and_field_in_closed_form(self):
        # x = diag(R P P' R'), gradient 2 R' diag(w) R P and field
        # 2 R' diag(w) R, for R = I and for R = T after transform(T).
        obj = self.objective()
        w = obj.outer.partials(None)[1:]
        P = random_stiefel(5, 2, 1)
        at = obj.at(P)
        A = obj.terms[0].matrix
        assert np.array_equal(at.term_values[1:], np.sum(P * P, axis=1))
        assert np.allclose(at.euclidean_grad, 2 * A @ P + 2 * w[:, None] * P,
                           rtol=0, atol=1e-13)
        assert np.allclose(at.field.H, 2 * A + 2 * np.diag(w), rtol=0,
                           atol=1e-13)
        T = np.linalg.qr(np.random.default_rng(2).standard_normal((5, 4)))[0]
        red = obj.transform(T)
        assert red.terms[1].matrix is T
        Z = random_stiefel(4, 2, 3)
        red_at = red.at(Z)
        assert np.allclose(red_at.term_values, obj.at(T @ Z).term_values,
                           rtol=0, atol=1e-13)
        assert np.allclose(red_at.field.H, T.T @ obj.at(T @ Z).field.H @ T,
                           rtol=0, atol=1e-13)
        assert np.allclose(red_at.euclidean_grad,
                           T.T @ obj.at(T @ Z).euclidean_grad, rtol=0,
                           atol=1e-13)
        assert red_at.basis_products(np.eye(4))[1] is None


def factored_spec(family, n, k, rng):
    # A catalog spec of the family at order n with random matrices: symmetric
    # indefinite A, positive definite B.
    def sym():
        return sym_part(rng.standard_normal((n, n)))

    def pd():
        G = rng.standard_normal((n, n))
        return sym_part(G @ G.T / n + np.eye(n))

    def phi():
        return dict(phi=str(rng.choice(OUTER_PRESETS)),
                    phi_weight=float(rng.uniform(0.0, 2.0)))

    D = rng.standard_normal((n, k))
    if family in ("mbsub", "quad_lin2"):
        return ProblemSpec(family, n, k, {"A": sym(), "D": D})
    if family == "theta_tr":
        return ProblemSpec("theta_tr", n, k, {"A": sym(), "B": pd(), "D": D},
                           theta=float(rng.uniform(0.0, 1.0)))
    if family == "olda":
        return ProblemSpec("olda", n, k, {"A": sym(), "B": pd()})
    if family == "occa":
        return ProblemSpec("occa", n, k, {"B": pd(), "D": D})
    if family == "procrustes":
        return ProblemSpec("procrustes", n, k, {
            "C": rng.standard_normal((n + 3, n)),
            "B": rng.standard_normal((n + 3, k))})
    if family == "dft":
        return ProblemSpec("dft", n, k, {"A": sym()}, **phi())
    if family == "trcp":
        return ProblemSpec("trcp", n, k, {"A_list": [sym(), sym()]}, **phi())
    if family == "umds":
        return ProblemSpec("umds", n, k, {"A_list": [sym(), sym()]})
    # sumct: one or two column blocks.
    cut = int(rng.integers(1, k + 1))
    blocks = tuple(b for b in (tuple(range(cut)), tuple(range(cut, k))) if b)
    return ProblemSpec("sumct", n, k, {
        "A_list": [sym() for _ in blocks],
        "D_list": [rng.standard_normal((n, len(b))) for b in blocks]},
        blocks=blocks)


def powers_objective(n, k, rng):
    # Powers outside the catalog: a quadratic term with m = 3 and s = 1.5
    # (A positive definite, so the base is positive), a linear one with
    # m = 3 and c = 0.5, and a diagonal term with a random R.
    G = rng.standard_normal((n, n))
    A = sym_part(G @ G.T / n + np.eye(n))
    R = rng.standard_normal((n + 2, n))
    terms = (AtomicTerm.quadratic(A, m=3, s=1.5),
             AtomicTerm.linear(rng.standard_normal((n, k)), m=3, c=0.5),
             AtomicTerm("diagonal", R))
    return ComposedObjective(n, k, terms, outer_sum(n + 4))


def closed_form_field(obj, P):
    # The field built term by term from each term's closed form, weighted by
    # its outer partial times its chain factor c s base^(s-1):
    # 2 c A (m = 1), 2 m X S^(m-2) X' with X = A P and S = P'A P (m >= 2),
    # m D (P'D)^(m-1) P' plus its transpose, 2 R' diag(w) R, and G P' + P G'
    # for the generic recipe.  Returns H and the sum of the norms of its
    # parts, the scale of its rounding.
    at = obj.at(P)
    if obj.field_recipe == "generic":
        G = at.euclidean_grad
        part = G @ P.T + P @ G.T
        return part, np.linalg.norm(part)
    H, scale, w_all, off = np.zeros((obj.n, obj.n)), 0.0, at.partials, 0
    for t in obj.terms:
        size = t.coords(obj.n)
        w, off = w_all[off:off + size], off + size
        if t.kind == "diagonal":
            R = np.eye(obj.n) if t.matrix is None else t.matrix
            part = 2.0 * t.c * R.T @ np.diag(w) @ R
        else:
            if t.kind == "quadratic":
                X = t.matrix @ P
                S = P.T @ X
            else:
                S = P.T @ t.matrix
            base = np.trace(np.linalg.matrix_power(S, t.m))
            c = w[0] * t.c * t.s * base ** (t.s - 1.0)
            if t.kind == "quadratic" and t.m == 1:
                part = 2.0 * c * t.matrix
            elif t.kind == "quadratic":
                part = 2.0 * t.m * c * (
                    X @ np.linalg.matrix_power(S, t.m - 2) @ X.T)
            else:
                Y = t.m * c * (
                    t.matrix @ np.linalg.matrix_power(S, t.m - 1) @ P.T)
                part = Y + Y.T
        H += part
        scale += np.linalg.norm(part)
    return H, scale


def column_block_objective(n, k, rng):
    # A column-block objective, so on the generic recipe (k >= 2): a
    # quadratic term with m = 2 on the first column, a linear one with
    # m = 2 on the others and a full-column linear term.
    D = rng.standard_normal((n, k))
    terms = (AtomicTerm.quadratic(sym_part(rng.standard_normal((n, n))), m=2,
                                  cols=(0,)),
             AtomicTerm.linear(D[:, 1:], m=2, cols=tuple(range(1, k))),
             AtomicTerm.linear(D))
    return ComposedObjective(n, k, terms, outer_weighted_sum(
        rng.uniform(0.5, 2.0, 3)))


def closed_form_mismatch(obj, P):
    # M(P) term by term: G'P for the generic recipe, else the sum over the
    # linear terms of (w m) ((P'D)^m)', w the outer partial times the chain
    # factor c s base^(s-1); quadratic and diagonal terms add nothing.
    at = obj.at(P)
    if obj.field_recipe == "generic":
        return at.euclidean_grad.T @ P
    M, w_all, off = np.zeros((obj.k, obj.k)), at.partials, 0
    for t in obj.terms:
        w, off = w_all[off], off + t.coords(obj.n)
        if t.kind == "linear":
            S = P.T @ t.matrix
            base = np.trace(np.linalg.matrix_power(S, t.m))
            c = w * t.c * t.s * base ** (t.s - 1.0)
            M += c * t.m * np.linalg.matrix_power(S, t.m).T
    return M


FACTORED_FAMILIES = ["mbsub", "quad_lin2", "theta_tr", "olda", "occa",
                     "procrustes", "dft", "trcp", "umds", "sumct"]


def factored_case(data, family, seed, n, k, rng):
    # The family's objective at order n, transformed by an orthonormal n-by-n2
    # W when ``data`` draws it (a dft term's R becomes W, R != I), and a
    # Stiefel point of the objective's order.  n2 >= 2 as n is: at order 1
    # the olda field cancels to rounding at its one point.
    obj = build(factored_spec(family, n, k, rng))
    if data.draw(st.booleans(), label="transformed"):
        n2 = data.draw(st.integers(max(k, 2), n), label="n2")
        obj = obj.transform(np.linalg.qr(rng.standard_normal((n, n2)))[0])
    return obj, random_stiefel(obj.n, k, seed % 1000)


def has_pairs(obj):
    # Whether the field has a (Y, Z) part: a quadratic term with m >= 2 or a
    # diagonal term with R != I, in a composition.
    return obj.field_recipe == "composition" and any(
        (t.kind == "quadratic" and t.m >= 2)
        or (t.kind == "diagonal" and t.matrix is not None) for t in obj.terms)


class TestFactoredField:
    @settings(max_examples=80, deadline=None)
    @given(family=st.sampled_from(FACTORED_FAMILIES),
           seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60),
           data=st.data())
    def test_matches_the_formed_field(self, family, seed, n, data):
        k = data.draw(st.integers(1, n), label="k")
        rng = np.random.default_rng(seed)
        obj, P = factored_case(data, family, seed, n, k, rng)
        X = rng.standard_normal((obj.n,
                                 data.draw(st.integers(1, k + 2), label="cols")))
        # M and its asymmetry come without forming H ...
        at = obj.at(P)
        factored = at.field
        M, asymmetry = factored.mismatch, factored.asymmetry
        assert "H" not in factored.__dict__
        # ... and match those of a field whose H is formed.
        field = obj.at(P).field
        H, norm = field.H, np.linalg.norm(field.H)
        assert np.array_equal(M, field.mismatch)
        assert asymmetry == field.asymmetry
        assert np.linalg.norm(factored.apply(X) - H @ X) <= (
            1e-12 * norm * np.linalg.norm(X))
        assert np.array_equal(factored @ X, factored.apply(X))
        assert np.linalg.norm(factored.HP - H @ P) <= 1e-12 * norm * np.sqrt(k)
        # The Gram identity gives the norm unless a pair is present, when
        # the norm is that of the formed H.
        assert bool(factored.pairs) == has_pairs(obj)
        s, xi = factored.frobenius_norm(field_gram(obj))
        if factored.pairs:
            assert (s, xi) == _scaled_norm(factored.H)
        else:
            assert "H" not in factored.__dict__
            assert s * xi == pytest.approx(norm, rel=1e-12, abs=0.0)
        # The identity H P - grad = P M holds on the factored H P.
        resid = factored.HP - at.euclidean_grad - P @ M
        assert np.linalg.norm(resid) <= (
            objective.FIELD_IDENTITY_TOL * max(1.0, norm))

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(FACTORED_FAMILIES + ["powers"]),
           seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           data=st.data())
    def test_dense_is_the_closed_form_field(self, family, seed, n, data):
        k = data.draw(st.integers(1, n), label="k")
        rng = np.random.default_rng(seed)
        if family == "powers":
            obj, P = powers_objective(n, k, rng), random_stiefel(n, k, seed % 1000)
        else:
            obj, P = factored_case(data, family, seed, n, k, rng)
        H, scale = closed_form_field(obj, P)
        dense = obj.at(P).field.H
        assert np.linalg.norm(dense - H) <= 1e-12 * scale
        assert np.array_equal(obj.at(P).field.H, dense)

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(FACTORED_FAMILIES + ["powers", "blocks"]),
           seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           data=st.data())
    def test_mismatch_is_the_per_term_closed_form(self, family, seed, n, data):
        # M = U'P, one formula for both recipes, against each recipe's own
        # closed form, and the identity H P - grad = P M on the formed H.
        k = data.draw(st.integers(2 if family == "blocks" else 1, n),
                      label="k")
        rng = np.random.default_rng(seed)
        P = random_stiefel(n, k, seed % 1000)
        if family == "powers":
            obj = powers_objective(n, k, rng)
        elif family == "blocks":
            obj = column_block_objective(n, k, rng)
        else:
            obj, P = factored_case(data, family, seed, n, k, rng)
        at = obj.at(P)
        M, M_ref = at.field.mismatch, closed_form_mismatch(obj, P)
        assert np.linalg.norm(M - M_ref) <= 1e-12 * max(1.0, np.linalg.norm(M))
        H = at.field.H
        resid = H @ P - at.euclidean_grad - P @ M
        assert np.linalg.norm(resid) <= (
            objective.FIELD_IDENTITY_TOL * max(1.0, np.linalg.norm(H)))

    @pytest.mark.parametrize("family", ["umds", "dft"])
    def test_pairs_hold_the_other_terms(self, family):
        # umds's m = 2 terms and a diagonal term with R != I (dft after a
        # transform) are (Y, Z) pairs of the factored form: its products
        # and H include them, and the Gram identity gives no norm: the norm
        # is that of the formed H.
        n, k = 8, 2
        rng = np.random.default_rng(7)
        A = sym_part(rng.standard_normal((n, n)))
        if family == "umds":
            obj = build(ProblemSpec("umds", n, k, {"A_list": [A, A @ A]}))
        else:
            obj = build(ProblemSpec("dft", n, k, {"A": A})).transform(
                np.linalg.qr(rng.standard_normal((n, n)))[0])
        P = random_stiefel(n, k, 0)
        factored = obj.at(P).field
        assert len(factored.pairs) == (2 if family == "umds" else 1)
        H, scale = closed_form_field(obj, P)
        assert np.linalg.norm(factored.H - H) <= 1e-13 * scale
        assert np.linalg.norm(factored.HP - H @ P) <= 1e-13 * scale
        assert factored.frobenius_norm(field_gram(obj)) == _scaled_norm(
            factored.H)

    def test_cancelling_terms_fall_back_to_the_formed_field(self):
        # olda with A = 2B + 1e-7 E: the field (2/b)(A - (a/b) B) is small
        # against its two terms, so the Gram identity cancels to rounding
        # and gives no norm: the norm is that of the formed H.  Products
        # with H still match.
        n, k = 30, 3
        rng = np.random.default_rng(5)
        B = make_psd(n, 6, shift=1.0)
        E = sym_part(rng.standard_normal((n, n)))
        obj = build(ProblemSpec("olda", n, k, {"A": 2.0 * B + 1e-7 * E, "B": B}))
        P = random_stiefel(n, k, 0)
        factored, H = obj.at(P).field, obj.at(P).field.H
        assert factored.frobenius_norm(field_gram(obj)) == _scaled_norm(H)
        assert "H" in factored.__dict__
        scale = sum(abs(c) * np.linalg.norm(A) for _, c, A, _ in factored.quad)
        assert np.linalg.norm(H) <= 1e-5 * scale
        assert np.linalg.norm(factored.HP - H @ P) <= 1e-14 * scale

    def test_overflowing_gram_gives_none(self):
        # A term matrix whose squared norm overflows: its Gram entry is not
        # finite, and the Gram identity gives no norm, with no warning: the
        # norm is that of the formed H.
        A = np.diag(np.linspace(3.0, 1.0, 6)) * 1e160
        obj = ComposedObjective(6, 2, (AtomicTerm("quadratic", A),),
                                outer_sum(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram = field_gram(obj)
            factored = obj.at(random_stiefel(6, 2, 0)).field
            norm = factored.frobenius_norm(gram)
            assert "H" in factored.__dict__
            assert norm == _scaled_norm(factored.H)
