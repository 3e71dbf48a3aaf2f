import dataclasses

import numpy as np
import pytest

from stiefelscf.alignment import (
    BlockOverlapError,
    PolarAlignment,
    _aligned,
    align_rotation,
)
from stiefelscf.kernels import polar_factor, random_stiefel, sym_part, trace_norm
from stiefelscf.nepv import NepvConfig
from stiefelscf.npdo import (
    NpdoConfig,
    kkt_residuals,
    npdo_certificates,
    npdo_locg,
    npdo_scf,
)
from stiefelscf.objective import AtomicTerm, ComposedObjective, outer_sum
from stiefelscf.problems import ProblemSpec, build


def make_psd(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T / n + shift * np.eye(n)


def linear_objective(D):
    n, k = D.shape
    return ComposedObjective(n, k, (AtomicTerm.linear(D),), outer_sum(1),
                             alignment=PolarAlignment(),
                             npdo_monotone=True, nepv_monotone=True)


class TestKktResiduals:
    def test_zero_at_eigenbasis(self):
        A = np.diag([5.0, 3.0, 1.0])
        obj = build(ProblemSpec("sep", 3, 2, {"A": A}))
        e1, e2 = kkt_residuals(obj, np.eye(3)[:, :2])
        assert e1 == pytest.approx(0.0, abs=1e-14)
        assert e2 == pytest.approx(0.0, abs=1e-14)

    def test_zero_at_polar_factor_of_d(self):
        D = np.random.default_rng(1).standard_normal((6, 2))
        obj = linear_objective(D)
        P = polar_factor(D).orthogonal_factor
        e1, e2 = kkt_residuals(obj, P)
        assert e1 <= 1e-12 and e2 <= 1e-12

    def test_positive_generically(self):
        obj = build(ProblemSpec("mbsub", 6, 2, {
            "A": make_psd(6, 0), "D": np.random.default_rng(2).standard_normal((6, 2))}))
        for seed in range(5):
            e1, e2 = kkt_residuals(obj, random_stiefel(6, 2, seed))
            assert e1 > 1e-6 and e2 > 1e-8


class TestAlignRotation:
    def test_identity(self):
        P_hat = random_stiefel(5, 2, 0)
        Q, P = align_rotation(PolarAlignment(blocks=()), P_hat, None)
        assert np.allclose(Q, np.eye(2))
        assert P is P_hat or np.allclose(P, P_hat)

    def test_the_solvers_form_keeps_only_p_next(self):
        # The solvers discard Q: with no drivers they get P_hat itself and
        # no identity is built; with one, the same P_next as align_rotation.
        P_hat = random_stiefel(5, 2, 0)
        assert _aligned(PolarAlignment(blocks=()), P_hat, None) is P_hat
        rule = PolarAlignment(np.random.default_rng(1).standard_normal((5, 2)))
        assert np.array_equal(_aligned(rule, P_hat, None),
                              align_rotation(rule, P_hat, None)[1])

    def test_sign_flip_k1(self):
        D = np.array([[1.0], [0.0]])
        P_hat = np.array([[-0.5], [np.sqrt(3) / 2]])
        Q, P = align_rotation(PolarAlignment(D), P_hat, None)
        assert Q[0, 0] == pytest.approx(-1.0)
        assert (P.T @ D).item() == pytest.approx(0.5)

    def test_script_d_psd_after_rotation(self):
        # Swap-structured P_hat'D is cured by the polar rotation.
        D = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        P_hat = np.eye(3)[:, :2]
        obj = linear_objective(D)
        Q, P = align_rotation(PolarAlignment(), P_hat, obj.at(P_hat))
        assert np.allclose(Q, [[0.0, 1.0], [1.0, 0.0]])
        S = P.T @ D
        assert np.allclose(S, np.eye(2))
        assert np.linalg.eigvalsh(sym_part(S))[0] >= -1e-12

    def test_per_block_rotation(self):
        n, k = 6, 3
        rng = np.random.default_rng(3)
        blocks = ((0, 1), (2,))
        A_list = [make_psd(n, 10), make_psd(n, 11)]
        D_list = [rng.standard_normal((n, 2)), rng.standard_normal((n, 1))]
        obj = build(ProblemSpec("sumct", n, k, {"A_list": A_list, "D_list": D_list},
                                blocks=blocks))
        P_hat = random_stiefel(n, k, 5)
        Q, P = align_rotation(obj.alignment, P_hat, obj.at(P_hat))
        assert np.allclose(Q.T @ Q, np.eye(k), atol=1e-12)
        for cols, D_j in zip(blocks, D_list):
            S = sym_part(P[:, list(cols)].T @ D_j)
            assert np.linalg.eigvalsh(S)[0] >= -1e-12
        # Off-block entries of Q stay zero, unselected columns identity.
        assert Q[2, 0] == 0.0 and Q[0, 2] == 0.0

    def test_block_overlap_rejected(self):
        n, k = 4, 2
        D = np.ones((n, 2))
        terms = (AtomicTerm.linear(D[:, :1], cols=(0,)),
                 AtomicTerm.linear(D[:, :1], cols=(0,)))
        with pytest.raises(BlockOverlapError):
            ComposedObjective(n, k, terms, outer_sum(2),
                              alignment=PolarAlignment(blocks=(0, 1)))

    @pytest.mark.parametrize("rule, match", [
        (PolarAlignment(blocks=(2,)), "block 2 is out of range"),
        (PolarAlignment(blocks=(-1,)), "block -1 is out of range"),
        (PolarAlignment(blocks=(0,)), "block 0 names a quadratic term"),
        (PolarAlignment(np.ones((5, 2))), r"D has shape \(5, 2\)"),
        (PolarAlignment(np.ones((4, 3))), r"D has shape \(4, 3\)"),
        (PolarAlignment(np.ones((4, 2)), blocks=(1,)), "D or blocks, not both"),
    ], ids=["index-past-end", "negative-index", "quadratic-term",
            "D-rows", "D-columns", "D-and-blocks"])
    def test_invalid_rule_rejected_when_built(self, rule, match):
        # Each used to pass construction and then fail mid-solve (a bare
        # IndexError, or "polar_factor needs a tall matrix"), or, for a D
        # next to blocks, to ignore D.
        n, k = 4, 2
        terms = (AtomicTerm.quadratic(np.eye(n)),
                 AtomicTerm.linear(np.ones((n, k))))
        with pytest.raises(ValueError, match=match):
            ComposedObjective(n, k, terms, outer_sum(2), alignment=rule)

    def test_alignment_none_rejected(self):
        with pytest.raises(TypeError, match="alignment"):
            ComposedObjective(3, 1, (AtomicTerm.quadratic(np.eye(3)),),
                              outer_sum(1), alignment=None)

    def test_default_rule_rotates_nothing(self):
        obj = ComposedObjective(3, 1, (AtomicTerm.quadratic(np.eye(3)),),
                                outer_sum(1))
        assert obj.alignment == PolarAlignment(blocks=())


class TestNpdoScfStep:
    def test_linear_one_step(self):
        rng = np.random.default_rng(4)
        D = rng.standard_normal((7, 2))
        obj = linear_objective(D)
        P0 = random_stiefel(7, 2, 1)
        report = npdo_scf(obj, P0, NpdoConfig(tol=1e-300, max_iter=1))
        assert obj.value(report.point) == pytest.approx(trace_norm(D),
                                                        rel=1e-12)
        assert report.iterations[0].eta >= -1e-12

    def test_sep_k1_power_iteration(self):
        A = np.diag([5.0, 3.0, 1.0])
        obj = build(ProblemSpec("sep", 3, 1, {"A": A}))
        P0 = np.full((3, 1), 1.0 / np.sqrt(3.0))
        P = npdo_scf(obj, P0, NpdoConfig(tol=1e-300, max_iter=200)).point
        assert abs(P[0, 0]) == pytest.approx(1.0, abs=1e-10)
        assert obj.value(P) == pytest.approx(5.0, abs=1e-9)

    def test_monotone_and_certified_on_quad_lin2(self):
        # f = tr(P'AP) + tr((P'D)^2) on the circle, against a dense sweep.
        A = np.diag([2.0, 1.0])
        D = np.array([[0.0], [1.0]])
        obj = build(ProblemSpec("quad_lin2", 2, 1, {"A": A, "D": D}))
        rep = npdo_scf(obj, random_stiefel(2, 1, 0))
        fs = [rep.f_initial] + [r.f for r in rep.iterations]
        assert all(b >= a - 1e-12 * max(1, abs(a)) for a, b in zip(fs, fs[1:]))
        angles = np.linspace(0, 2 * np.pi, 62832, endpoint=False)
        best = max(obj.value(np.array([[np.cos(t)], [np.sin(t)]])) for t in angles)
        assert rep.f_final == pytest.approx(best, abs=1e-6)
        certs = npdo_certificates(obj, rep.point)
        assert certs["lambda_min_of_multiplier"] >= -1e-8 * certs["multiplier_norm"]


class TestNpdoScf:
    def test_linear_converges_in_one_iteration(self):
        rng = np.random.default_rng(6)
        D = rng.standard_normal((8, 3))
        obj = linear_objective(D)
        rep = npdo_scf(obj, random_stiefel(8, 3, 2))
        assert rep.converged
        assert rep.num_iterations == 1
        assert rep.f_final == pytest.approx(trace_norm(D), abs=1e-10)

    def test_mbsub_converges_with_certificates(self):
        n, k = 30, 3
        rng = np.random.default_rng(7)
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": make_psd(n, 70), "D": rng.standard_normal((n, k))}))
        rep = npdo_scf(obj, random_stiefel(n, k, 3))
        assert rep.converged and rep.num_iterations <= 5000
        c = npdo_certificates(obj, rep.point)
        assert c["lambda_min_of_multiplier"] >= -1e-8 * c["multiplier_norm"]
        assert c["eps_sym"] <= 1e-8

    def test_sumct_monotone_and_per_block_psd(self):
        n, k = 12, 4
        rng = np.random.default_rng(8)
        blocks = ((0, 1), (2, 3))
        obj = build(ProblemSpec("sumct", n, k, {
            "A_list": [make_psd(n, 80), make_psd(n, 81)],
            "D_list": [rng.standard_normal((n, 2)), rng.standard_normal((n, 2))]},
            blocks=blocks))
        rep = npdo_scf(obj, random_stiefel(n, k, 4))
        assert rep.converged
        fs = [rep.f_initial] + [r.f for r in rep.iterations]
        assert all(b >= a - 1e-12 * max(1, abs(a)) for a, b in zip(fs, fs[1:]))
        P = rep.point
        for cols, term in zip(blocks, obj.terms[2:]):
            S = sym_part(P[:, list(cols)].T @ term.matrix)
            assert np.linalg.eigvalsh(S)[0] >= -1e-10 * max(
                1.0, np.linalg.norm(term.matrix, 2))

    def test_eta_nonnegative_along_trace(self):
        obj = build(ProblemSpec("mbsub", 10, 2, {
            "A": make_psd(10, 90),
            "D": np.random.default_rng(9).standard_normal((10, 2))}))
        rep = npdo_scf(obj, random_stiefel(10, 2, 5))
        assert all(r.eta >= -1e-12 * max(1.0, abs(r.f)) for r in rep.iterations)

    @pytest.mark.parametrize("solve", [npdo_scf, npdo_locg])
    def test_sigma_min_of_a_rank_deficient_gradient(self, solve):
        # sep with a PSD A of rank r < k: every gradient 2 A P has rank r,
        # and each record's sigma_min is its smallest singular value, which
        # is nonnegative, never a rounding below 0.
        n, k = 20, 4
        for seed in range(6):
            rng = np.random.default_rng(seed)
            r = 1 + seed % 3
            V = np.linalg.qr(rng.standard_normal((n, r)))[0]
            A = sym_part((V * rng.uniform(1.0, 2.0, r)) @ V.T)
            obj = build(ProblemSpec("sep", n, k, {"A": A}))
            P0 = random_stiefel(n, k, seed)
            landed = []
            rep = solve(obj, P0, NpdoConfig(max_iter=30),
                        lambda i, P: landed.append(P))
            assert rep.num_iterations >= 1
            for rec, P in zip(rep.iterations, [P0] + landed):
                G = obj.euclidean_grad(P)
                assert rec.sigma_min >= 0.0
                assert abs(rec.sigma_min - np.linalg.svd(
                    G, compute_uv=False)[-1]) <= 1e-14 * np.linalg.norm(G)

    def test_infeasible_start_projected(self):
        # A start with P'D not PSD gets one alignment application.
        D = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        obj = linear_objective(D)
        P0 = -np.eye(3)[:, :2]
        rep = npdo_scf(obj, P0)
        assert rep.converged
        assert rep.f_final == pytest.approx(2.0, abs=1e-10)


class TestReducedObjective:
    def test_identity_basis(self):
        obj = build(ProblemSpec("mbsub", 6, 2, {
            "A": make_psd(6, 1), "D": np.random.default_rng(0).standard_normal((6, 2))}))
        red = obj.transform(np.eye(6))
        for seed in range(3):
            P = random_stiefel(6, 2, seed)
            assert red.value(P) == pytest.approx(obj.value(P), rel=1e-12)

    def test_sep_rayleigh_ritz(self):
        A = make_psd(8, 3)
        obj = build(ProblemSpec("sep", 8, 2, {"A": A}))
        W = random_stiefel(8, 4, 1)
        red = obj.transform(W)
        # Substituted atomic structure: W'AW drives the reduced problem.
        assert np.allclose(red.terms[0].matrix, sym_part(W.T @ A @ W), atol=1e-12)
        for seed in range(100):
            Z = random_stiefel(4, 2, seed)
            assert red.value(Z) == pytest.approx(obj.value(W @ Z), rel=1e-12)
        from stiefelscf.nepv import nepv_scf
        rep = nepv_scf(red, random_stiefel(4, 2, 0))
        w = np.sort(np.linalg.eigvalsh(W.T @ A @ W))[::-1]
        assert rep.f_final == pytest.approx(w[:2].sum(), abs=1e-10)

    def test_reduced_gradient_fd(self):
        obj = build(ProblemSpec("mbsub", 7, 2, {
            "A": make_psd(7, 2), "D": np.random.default_rng(1).standard_normal((7, 2))}))
        W = random_stiefel(7, 5, 2)
        red = obj.transform(W)
        Z = random_stiefel(5, 2, 3)
        G = red.euclidean_grad(Z)
        FD = np.zeros_like(G)
        h = 1e-6
        for i in range(5):
            for j in range(2):
                E = np.zeros((5, 2))
                E[i, j] = h
                FD[i, j] = (red.value(Z + E) - red.value(Z - E)) / (2 * h)
        assert np.linalg.norm(FD - G) <= 1e-6 * max(1.0, np.linalg.norm(G))


class TestNpdoLocg:
    def test_first_step_basis_width(self):
        # Without a previous iterate the subspace has at most 2k columns.
        from stiefelscf.kernels import orthonormalize_against
        obj = build(ProblemSpec("sep", 10, 2, {"A": make_psd(10, 4, 1.0)}))
        P = random_stiefel(10, 2, 0)
        W_extra = orthonormalize_against(P, obj.riemannian_grad(P))
        assert W_extra.shape[1] <= 2

    def test_accelerates_slow_sep(self):
        # Eigenvalue ratio 0.99 makes plain polar SCF crawl.
        n, k = 50, 2
        vals = np.concatenate([[1.5, 1.0], np.linspace(0.99, 0.01, n - 2)])
        rng = np.random.default_rng(10)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(vals) @ Q.T
        obj = build(ProblemSpec("sep", n, k, {"A": sym_part(A)}))
        P0 = random_stiefel(n, k, 6)
        plain = npdo_scf(obj, P0)
        metric = npdo_locg(obj, P0)
        assert plain.converged and metric.converged
        assert metric.num_iterations < plain.num_iterations
        assert metric.f_final == pytest.approx(2.5, abs=1e-6)

    def test_monotone_outer_steps(self):
        n, k = 20, 3
        rng = np.random.default_rng(11)
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": make_psd(n, 110), "D": rng.standard_normal((n, k))}))
        rep = npdo_locg(obj, random_stiefel(n, k, 7))
        assert rep.converged
        fs = [rep.f_initial] + [r.f for r in rep.iterations]
        assert all(b >= a - 1e-12 * max(1, abs(a)) for a, b in zip(fs, fs[1:]))

    def test_stationary_start_short_circuits(self):
        A = np.diag([5.0, 3.0, 1.0])
        obj = build(ProblemSpec("sep", 3, 2, {"A": A}))
        rep = npdo_locg(obj, np.eye(3)[:, :2])
        assert rep.converged
        assert rep.num_iterations == 0

    def test_agrees_with_plain_scf(self):
        n, k = 15, 2
        rng = np.random.default_rng(12)
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": make_psd(n, 120), "D": rng.standard_normal((n, k))}))
        P0 = random_stiefel(n, k, 8)
        f_plain = npdo_scf(obj, P0).f_final
        f_locg = npdo_locg(obj, P0).f_final
        assert f_locg == pytest.approx(f_plain, rel=1e-7)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NpdoConfig(tol=0.0)

    def test_max_iter_must_not_be_negative(self):
        with pytest.raises(ValueError, match=r"max_iter must be >= 0"):
            NpdoConfig(max_iter=-1)
        with pytest.raises(ValueError, match="tol must be positive"):
            NpdoConfig(tol=float("nan"))
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            NpdoConfig(tol=np.inf)

    def test_zero_max_iter_certifies_the_start(self):
        obj = build(ProblemSpec("sep", 4, 2, {"A": make_psd(4, 3)}))
        P0 = random_stiefel(4, 2, 0)
        for solve in (npdo_scf, npdo_locg):
            report = solve(obj, P0, NpdoConfig(max_iter=0))
            assert report.num_iterations == 0
            assert report.stop_reason == "max_iter" and not report.converged
            assert np.array_equal(report.point, P0)
            assert npdo_certificates(obj, report.point)["eps_kkt"] > 0
        # An infeasible start: P0'D is not symmetric, so P0 lies outside the
        # feasible subset of the D rule.  The solve takes no step and returns
        # the start brought into it by one alignment application.
        n, k = 6, 2
        D = np.random.default_rng(4).standard_normal((n, k))
        obj = build(ProblemSpec("mbsub", n, k, {"A": make_psd(n, 3), "D": D}))
        P0 = random_stiefel(n, k, 0)
        assert not obj.alignment.is_feasible(obj.at(P0))
        for solve in (npdo_scf, npdo_locg):
            report = solve(obj, P0, NpdoConfig(max_iter=0))
            assert report.num_iterations == 0
            assert report.stop_reason == "max_iter" and not report.converged
            assert obj.alignment.is_feasible(obj.at(report.point))
            certs = npdo_certificates(obj, report.point)
            assert certs["alignment_psd_margin"] >= (
                -1e-12 * max(certs["alignment_matrix_norm"], 1.0))
            S = report.point.T @ D
            assert np.linalg.norm(S - S.T) <= 1e-12 * np.linalg.norm(D, 2)

    def test_settings_are_tol_and_max_iter(self):
        assert [f.name for f in dataclasses.fields(NpdoConfig)] == ["tol", "max_iter"]
        assert NepvConfig is NpdoConfig
