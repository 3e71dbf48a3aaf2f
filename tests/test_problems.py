import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stiefelscf import kernels
from stiefelscf.diagnostics import gradient_check
from stiefelscf.kernels import polar_factor, random_stiefel, sym_part
from stiefelscf.nepv import nepv_scf
from stiefelscf.npdo import npdo_scf
from stiefelscf.objective import AtomicTerm, ComposedObjective
from stiefelscf.problems import (
    OUTER_PRESETS,
    MLifting,
    ProblemSpec,
    _check_psd,
    _check_ratio_denominator,
    _logsumexp,
    build,
    build_procrustes_ls,
    generalized_kkt_residual,
    lift_m_orthogonal,
    m_orthogonality_drift,
)


def make_psd(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T / n + shift * np.eye(n)


def family_instances(n=7, k=2, seed=0):
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((n, k))
    A = make_psd(n, seed + 1)
    B = make_psd(n, seed + 2, 1.0)
    yield build(ProblemSpec("sep", n, k, {"A": A}))
    yield build(ProblemSpec("mbsub", n, k, {"A": A, "D": D}))
    yield build(ProblemSpec("theta_tr", n, k, {"A": A, "B": B, "D": D}, theta=0.5))
    yield build(ProblemSpec("olda", n, k, {"A": A, "B": B}))
    yield build(ProblemSpec("occa", n, k, {"B": B, "D": D}))
    yield build(ProblemSpec("theta_tr_sq", n, k, {"A": A, "B": B, "D": D}, theta=0.25))
    yield build(ProblemSpec("umds", n, k, {"A_list": [A, make_psd(n, seed + 3)]}))
    yield build(ProblemSpec("trcp", n, k, {"A_list": [A, make_psd(n, seed + 4)]},
                            phi="quad_penalty", phi_weight=0.5))
    yield build(ProblemSpec("dft", n, k, {"A": A}, phi="quad_penalty",
                            phi_weight=0.25))
    yield build(ProblemSpec("quad_lin2", n, k, {"A": A, "D": D}))
    yield build(ProblemSpec("sumct", n, k, {
        "A_list": [A, make_psd(n, seed + 5)],
        "D_list": [D[:, :1], D[:, 1:]]}, blocks=((0,), (1,))))


def planted(n, eigenvalues, seed, scale=1.0):
    # scale * Q diag(eigenvalues) Q', exactly symmetric, for a random
    # orthogonal Q.
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return sym_part((Q * np.asarray(eigenvalues, dtype=float)) @ Q.T) * scale


def psd_bounds(A):
    # (rho_lo, ||A||_2) with rho_lo = max(||A||_F / sqrt(n), max |a_ii|),
    # the lower bound on ||A||_2 that the first Cholesky test shifts by.
    lo = max(np.linalg.norm(A) / np.sqrt(len(A)), np.abs(np.diag(A)).max())
    return lo, np.linalg.norm(A, 2)


def band_matrix(n, seed, scale=1.0):
    # A matrix PSD by the rule lambda_min >= -1e-10 ||A||_2 whose lambda_min
    # lies below -1e-10 rho_lo: B + 1e-10 rho_lo I does not factor, B +
    # 1e-10 ||B||_F I does, and eigvalsh decides.
    spectrum = np.r_[1.0, np.full(n - 2, 0.1), 0.0]
    lo, norm2 = psd_bounds(planted(n, spectrum, seed))
    assert lo < 0.9 * norm2
    spectrum[-1] = -1e-10 * 0.5 * (lo + norm2)
    return planted(n, spectrum, seed, scale)


# Each phi preset written out, unweighted.
PHI = {"sum": np.sum, "quad_penalty": lambda y: np.sum(y**2),
       "logsumexp": lambda y: np.log(np.sum(np.exp(y)))}


class TestBuilders:
    def test_sep_maximum_is_fan_value(self):
        obj = build(ProblemSpec("sep", 3, 2, {"A": np.diag([5.0, 3.0, 1.0])}))
        rep = nepv_scf(obj, random_stiefel(3, 2, 0))
        assert rep.f_final == pytest.approx(8.0, abs=1e-10)

    def test_occa_is_theta_half_with_zero_a(self):
        n, k = 5, 2
        D = np.random.default_rng(0).standard_normal((n, k))
        B = make_psd(n, 1, 1.0)
        occa = build(ProblemSpec("occa", n, k, {"B": B, "D": D}))
        theta = build(ProblemSpec("theta_tr", n, k,
                                  {"A": np.zeros((n, n)), "B": B, "D": D}, theta=0.5))
        for seed in range(5):
            P = random_stiefel(n, k, seed)
            assert occa.value(P) == pytest.approx(theta.value(P), rel=1e-12)
        assert occa.theta_data.theta == 0.5

    def test_olda_is_theta_one_with_zero_d(self):
        n, k = 5, 2
        A = make_psd(n, 2)
        B = make_psd(n, 3, 1.0)
        olda = build(ProblemSpec("olda", n, k, {"A": A, "B": B}))
        theta = build(ProblemSpec("theta_tr", n, k, {"A": A, "B": B}, theta=1.0))
        for seed in range(5):
            P = random_stiefel(n, k, seed)
            assert olda.value(P) == pytest.approx(theta.value(P), rel=1e-12)
        assert olda.theta_data.theta == 1.0

    def test_every_family_passes_gradient_check(self):
        for obj in family_instances():
            assert gradient_check(obj, trials=20, seed=5) <= 1e-6

    def test_umds_value_is_squared_frobenius(self):
        n, k = 6, 2
        A1, A2 = make_psd(n, 4), make_psd(n, 5)
        obj = build(ProblemSpec("umds", n, k, {"A_list": [A1, A2]}))
        P = random_stiefel(n, k, 0)
        expected = sum(np.linalg.norm(P.T @ A @ P) ** 2 for A in (A1, A2))
        assert obj.value(P) == pytest.approx(expected, rel=1e-12)

    def test_dft_value_matches_diag_form(self):
        n, k = 5, 2
        A = make_psd(n, 6)
        P = random_stiefel(n, k, 1)
        diag = np.diag(P @ P.T)
        for phi in OUTER_PRESETS:
            for w in (0.0, 0.25, 1.0):
                obj = build(ProblemSpec("dft", n, k, {"A": A}, phi=phi,
                                        phi_weight=w))
                expected = np.trace(P.T @ A @ P) + w * PHI[phi](diag)
                assert obj.value(P) == pytest.approx(expected, rel=1e-12), (phi, w)

    def test_trcp_sum_applies_the_weight(self):
        A_list = [make_psd(5, 1), make_psd(5, 2)]
        P = random_stiefel(5, 2, 0)
        f = {w: build(ProblemSpec("trcp", 5, 2, {"A_list": A_list},
                                  phi_weight=w)).value(P)
             for w in (0.0, 0.5, 1.0, 2.0)}
        assert f[0.0] == 0.0
        assert f[0.5] == pytest.approx(0.5 * f[1.0], rel=1e-12)
        assert f[2.0] == pytest.approx(2.0 * f[1.0], rel=1e-12)

    @pytest.mark.parametrize("family", ["umds", "trcp"])
    def test_empty_a_list_rejected(self, family):
        for matrices in ({}, {"A_list": []}):
            with pytest.raises(ValueError, match="nonempty A_list"):
                build(ProblemSpec(family, 4, 2, matrices))

    @pytest.mark.parametrize("family", ["sumct", "umds", "trcp"])
    def test_wrong_order_a_list_matrix_named(self, family):
        spec = ProblemSpec(family, 4, 2, {
            "A_list": [np.eye(4), np.eye(3)],
            "D_list": [np.ones((4, 1)), np.ones((4, 1))]},
            blocks=((0,), (1,)) if family == "sumct" else None)
        with pytest.raises(ValueError,
                           match=r"'A_list\[1\]' has shape \(3, 3\), "
                                 r"expected \(4, 4\)"):
            build(spec)

    @pytest.mark.parametrize("family, matrices", [
        ("theta_tr", {}), ("theta_tr_sq", {}),
        ("theta_tr", {"A": np.zeros((4, 4)), "D": np.zeros((4, 2))}),
        ("olda", {"A": np.zeros((4, 4))}), ("occa", {"D": np.zeros((4, 2))}),
    ], ids=["theta_tr-missing", "theta_tr_sq-missing", "theta_tr-zero",
            "olda-zero-A", "occa-zero-D"])
    def test_ratio_without_numerator_rejected(self, family, matrices):
        # A zero or missing A and D made a numerator that is 0 at every
        # point, so the solve "converged" to f = 0 in 0 iterations.
        B = make_psd(4, 7, shift=1.0)
        with pytest.raises(ValueError, match="nonzero 'A' or 'D'"):
            build(ProblemSpec(family, 4, 2, dict(matrices, B=B), theta=0.25))

    def test_ratio_without_rank_condition_rejected(self):
        B = np.diag([1.0, 0.0, 0.0, 0.0])  # s_k(B) = 0 for k = 2
        with pytest.raises(ValueError, match="smallest eigenvalues"):
            build(ProblemSpec("olda", 4, 2, {"A": make_psd(4, 7), "B": B}))

    def test_sumct_bad_blocks_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            build(ProblemSpec("sumct", 4, 2, {
                "A_list": [np.eye(4)], "D_list": [np.ones((4, 1))]},
                blocks=((0,),)))
        # An empty block covers no column, so it is no partition either.
        with pytest.raises(ValueError, match="blocks must partition"):
            build(ProblemSpec("sumct", 4, 2, {
                "A_list": [np.eye(4), np.eye(4)],
                "D_list": [np.ones((4, 0)), np.ones((4, 2))]},
                blocks=((), (0, 1))))

    def test_missing_matrix_named(self):
        with pytest.raises(ValueError, match="'D'"):
            build(ProblemSpec("mbsub", 4, 2, {"A": np.eye(4)}))

    def test_nonpsd_umds_declares_no_guarantee(self):
        # The lost guarantee is recorded in the flags, not warned about.
        bad = np.diag([1.0, -1.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obj = build(ProblemSpec("umds", 4, 2, {"A_list": [bad]}))
        assert not obj.npdo_monotone and not obj.nepv_monotone

    @pytest.mark.parametrize("family", ["sep", "trcp", "umds"])
    def test_one_spectrum_per_matrix(self, family, monkeypatch):
        # A PSD matrix is certified by one Cholesky factorization (dpotrf)
        # and takes no spectrum.  Only a matrix planted in the band between
        # the two Cholesky tests takes one, an eigvalsh that then decides.
        n = 6
        calls = {"eigvalsh": 0, "dpotrf": 0}
        real_eigvalsh, real_potrf = np.linalg.eigvalsh, kernels._potrf

        def counting_eigvalsh(a, *args, **kwargs):
            if np.shape(a) == (n, n):
                calls["eigvalsh"] += 1
            return real_eigvalsh(a, *args, **kwargs)

        def counting_potrf(a, *args, **kwargs):
            calls["dpotrf"] += 1
            return real_potrf(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(kernels, "_potrf", counting_potrf)

        def spec(first):
            mats = ({"A": first} if family == "sep"
                    else {"A_list": [first, make_psd(n, 2)]})
            return ProblemSpec(family, n, 2, mats)

        matrices = 1 if family == "sep" else 2
        obj = build(spec(make_psd(n, 1)))
        assert calls == {"eigvalsh": 0, "dpotrf": matrices}
        assert obj.npdo_monotone and obj.nepv_monotone
        calls.update(eigvalsh=0, dpotrf=0)
        obj = build(spec(band_matrix(n, 3)))
        assert calls == {"eigvalsh": 1, "dpotrf": matrices + 1}
        assert obj.npdo_monotone and obj.nepv_monotone

    def test_squared_ratio_family_monotone_solve(self):
        n, k = 9, 2
        rng = np.random.default_rng(30)
        obj = build(ProblemSpec("theta_tr_sq", n, k, {
            "A": make_psd(n, 31, 0.3), "B": make_psd(n, 32, 1.0),
            "D": 0.5 * rng.standard_normal((n, k))}, theta=0.25))
        rep = nepv_scf(obj, random_stiefel(n, k, 0))
        assert rep.converged
        fs = [rep.f_initial] + [r.f for r in rep.iterations]
        assert all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(fs, fs[1:]))

    def test_squared_ratio_rejects_large_theta(self):
        with pytest.raises(ValueError, match="convex only"):
            build(ProblemSpec("theta_tr_sq", 4, 2, {
                "A": np.eye(4), "B": np.eye(4), "D": np.ones((4, 2))},
                theta=0.75))


def closed_form_cases():
    # (id, spec, f(P) written out) for every family but dft and umds (their
    # value tests are in TestBuilders), every phi preset where one applies
    # and theta at both ends of its range.
    n, k = 6, 2
    rng = np.random.default_rng(40)
    A, A2, B = make_psd(n, 41), make_psd(n, 42), make_psd(n, 43, 1.0)
    D = rng.standard_normal((n, k))
    C, Bp = rng.standard_normal((n + 2, n)), rng.standard_normal((n + 2, k))

    def q(P, M):
        return np.trace(P.T @ M @ P)

    def lin(P, M):
        return np.trace(P.T @ M)

    yield "sep", ProblemSpec("sep", n, k, {"A": A}), lambda P: q(P, A)
    yield ("mbsub", ProblemSpec("mbsub", n, k, {"A": A, "D": D}),
           lambda P: q(P, A) + lin(P, D))
    yield ("sumct", ProblemSpec("sumct", n, k, {
        "A_list": [A, A2], "D_list": [D[:, :1], D[:, 1:]]},
        blocks=((0,), (1,))),
        lambda P: (q(P[:, :1], A) + lin(P[:, :1], D[:, :1])
                   + q(P[:, 1:], A2) + lin(P[:, 1:], D[:, 1:])))
    for theta in (0.0, 1.0):
        yield (f"theta_tr-{theta}",
               ProblemSpec("theta_tr", n, k, {"A": A, "B": B, "D": D},
                           theta=theta),
               lambda P, th=theta: (q(P, A) + lin(P, D)) / q(P, B) ** th)
    yield ("olda", ProblemSpec("olda", n, k, {"A": A, "B": B}),
           lambda P: q(P, A) / q(P, B))
    yield ("occa", ProblemSpec("occa", n, k, {"B": B, "D": D}),
           lambda P: lin(P, D) / np.sqrt(q(P, B)))
    for theta in (0.0, 0.5):
        yield (f"theta_tr_sq-{theta}",
               ProblemSpec("theta_tr_sq", n, k, {"A": A, "B": B, "D": D},
                           theta=theta),
               lambda P, th=theta: ((q(P, A) + lin(P, D)) ** 2
                                    / q(P, B) ** (2 * th)))
    for phi in OUTER_PRESETS:
        yield (f"trcp-{phi}",
               ProblemSpec("trcp", n, k, {"A_list": [A, A2]}, phi=phi,
                           phi_weight=0.5),
               lambda P, phi=phi: 0.5 * PHI[phi](np.array([q(P, A), q(P, A2)])))
    yield ("quad_lin2", ProblemSpec("quad_lin2", n, k, {"A": A, "D": D}),
           lambda P: q(P, A) + np.trace((P.T @ D) @ (P.T @ D)))
    yield ("procrustes", ProblemSpec("procrustes", n, k, {"C": C, "B": Bp}),
           lambda P: np.linalg.norm(Bp) ** 2 - np.linalg.norm(C @ P - Bp) ** 2)


@pytest.mark.parametrize("spec, closed_form",
                         [c[1:] for c in closed_form_cases()],
                         ids=[c[0] for c in closed_form_cases()])
def test_value_matches_closed_form(spec, closed_form):
    obj = build(spec)
    for seed in range(3):
        P = random_stiefel(spec.n, spec.k, seed)
        assert obj.value(P) == pytest.approx(closed_form(P), rel=1e-12)


@pytest.mark.parametrize("phi", OUTER_PRESETS)
@pytest.mark.parametrize("family", ["trcp", "dft"])
def test_negative_phi_weight_rejected(family, phi):
    # An infinite weight is rejected too: f would be inf at every point.
    A = make_psd(5, 1)
    matrices = {"A_list": [A, A]} if family == "trcp" else {"A": A}
    for weight in (-0.5, np.inf):
        spec = ProblemSpec(family, 5, 2, matrices, phi=phi, phi_weight=weight)
        with pytest.raises(ValueError, match="phi_weight"):
            build(spec)
    assert build(dataclasses.replace(spec, phi_weight=0.0)).n == 5


class TestProcrustes:
    def test_identity_c_orthonormal_b(self):
        C, B = np.eye(4), random_stiefel(4, 2, 0)
        obj = build_procrustes_ls(C, B)
        rep = nepv_scf(obj, random_stiefel(4, 2, 1))
        assert rep.converged
        assert np.linalg.norm(C @ rep.point - B) <= 1e-6
        assert np.allclose(rep.point, B, atol=1e-5)

    def test_square_case_matches_polar_closed_form(self):
        # k = n with C = I: the classical orthogonal fit, polar factor of B.
        rng = np.random.default_rng(1)
        C, B = np.eye(4), rng.standard_normal((4, 4))
        obj = build_procrustes_ls(C, B)
        rep = nepv_scf(obj, random_stiefel(4, 4, 2))
        P_star = polar_factor(B).orthogonal_factor
        closed = np.linalg.norm(P_star - B)
        assert np.linalg.norm(C @ rep.point - B) == pytest.approx(closed, abs=1e-8)

    def test_residual_identity_along_iterates(self):
        # ||CP - B||_F^2 + f(P) = ||B||_F^2 exactly, at every iterate.
        rng = np.random.default_rng(2)
        C = rng.standard_normal((8, 5))
        B = rng.standard_normal((8, 2))
        obj = build_procrustes_ls(C, B)
        offset = np.linalg.norm(B) ** 2
        seen = []

        def check(i, P):
            lhs = np.linalg.norm(C @ P - B) ** 2 + obj.value(P)
            assert lhs == pytest.approx(offset, rel=1e-9)
            seen.append(i)

        rep = nepv_scf(obj, random_stiefel(5, 2, 3), callback=check)
        assert rep.converged and seen

    def test_monotone_f_means_monotone_residual_descent(self):
        rng = np.random.default_rng(3)
        C = rng.standard_normal((6, 4))
        B = rng.standard_normal((6, 2))
        obj = build_procrustes_ls(C, B)
        resids = []
        rep = nepv_scf(obj, random_stiefel(4, 2, 4),
                       callback=lambda i, P: resids.append(np.linalg.norm(C @ P - B)))
        assert rep.converged
        assert all(b <= a + 1e-10 for a, b in zip(resids, resids[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="row mismatch"):
            build_procrustes_ls(np.ones((3, 2)), np.ones((4, 1)))

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 1)])
    def test_spec_shape_must_match_c_and_b(self, n, k):
        # The CLI draws the start point from the spec's n, k.
        spec = ProblemSpec("procrustes", n, k, {"C": np.ones((6, 5)),
                                                "B": np.ones((6, 2))})
        with pytest.raises(ValueError, match=r"C has shape \(6, 5\) and B "
                                             r"has shape \(6, 2\)"):
            build(spec)

    def test_solver_matches_multistart_oracle(self):
        from stiefelscf.diagnostics import brute_force_oracle

        rng = np.random.default_rng(7)
        C = rng.standard_normal((8, 5))
        B = rng.standard_normal((8, 2))
        obj = build_procrustes_ls(C, B)
        _, P_oracle = brute_force_oracle(obj, budget=200, seed=0)
        rep = nepv_scf(obj, random_stiefel(5, 2, 0))
        r_solver = np.linalg.norm(C @ rep.point - B)
        r_oracle = np.linalg.norm(C @ P_oracle - B)
        assert r_solver <= r_oracle + 1e-6


class TestMLifting:
    def test_identity_metric_is_identity_lifting(self):
        obj = build(ProblemSpec("sep", 4, 2, {"A": make_psd(4, 8)}))
        lifted, lift = lift_m_orthogonal(obj, np.eye(4))
        P = random_stiefel(4, 2, 0)
        assert lifted.value(P) == pytest.approx(obj.value(P), rel=1e-12)
        assert np.allclose(lift.forward(P), P)

    def test_two_by_two_generalized_eigenproblem(self):
        # max p'p s.t. p'Mp = 1 with M = diag(4, 1): optimum 1 at p = e2.
        obj = build(ProblemSpec("sep", 2, 1, {"A": np.eye(2)}))
        M = np.diag([4.0, 1.0])
        lifted, lift = lift_m_orthogonal(obj, M)
        assert np.allclose(lifted.terms[0].matrix, np.diag([0.25, 1.0]), atol=1e-12)
        rep = nepv_scf(lifted, random_stiefel(2, 1, 1))
        assert rep.f_final == pytest.approx(1.0, abs=1e-10)
        P = lift.backward(rep.point)
        assert abs(P[1, 0]) == pytest.approx(1.0, abs=1e-8)
        assert m_orthogonality_drift(P, M) <= 1e-10

    def test_round_trip(self):
        M = make_psd(5, 9, 1.0)
        obj = build(ProblemSpec("sep", 5, 2, {"A": make_psd(5, 10)}))
        _, lift = lift_m_orthogonal(obj, M)
        Z = random_stiefel(5, 2, 2)
        assert np.allclose(lift.forward(lift.backward(Z)), Z, atol=1e-12)
        assert np.allclose(lift.R.T @ lift.R, M, atol=1e-10)

    def test_values_agree_across_the_metric_map(self):
        n, k = 6, 2
        M = make_psd(n, 11, 1.0)
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": make_psd(n, 12), "D": np.random.default_rng(5).standard_normal((n, k))}))
        lifted, lift = lift_m_orthogonal(obj, M)
        for seed in range(100):
            Z = random_stiefel(n, k, seed)
            P = lift.backward(Z)
            assert lifted.value(Z) == pytest.approx(obj.value(P), rel=1e-10)

    def test_solve_lifted_certifies_in_p_space(self):
        n, k = 8, 2
        M = make_psd(n, 13, 1.0)
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": make_psd(n, 14), "D": np.random.default_rng(6).standard_normal((n, k))}))
        lifted, lift = lift_m_orthogonal(obj, M)
        rep = nepv_scf(lifted, random_stiefel(n, k, 3))
        assert rep.converged
        P = lift.backward(rep.point)
        assert m_orthogonality_drift(P, M) <= 1e-10
        assert generalized_kkt_residual(obj, M, P) <= 1e-7

    def test_rejects_indefinite_metric(self):
        obj = build(ProblemSpec("sep", 3, 1, {"A": np.eye(3)}))
        with pytest.raises(ValueError, match="positive definite"):
            lift_m_orthogonal(obj, np.diag([1.0, -1.0, 1.0]))


def ratio_instance(n, k, seed, theta):
    rng = np.random.default_rng(seed)
    A, B = make_psd(n, seed + 1), make_psd(n, seed + 2, 1.0)
    A, B = 0.5 * (A + A.T), 0.5 * (B + B.T)
    D = rng.standard_normal((n, k))
    obj = build(ProblemSpec("theta_tr", n, k, {"A": A, "B": B, "D": D},
                            theta=theta))
    return obj, A, B, D


class TestRatioObjective:
    """The trace-ratio families use the composition field, and their
    ``theta_data`` is a view of the terms."""

    @settings(max_examples=50, deadline=None)
    @given(theta=st.floats(0.0, 1.0), seed=st.integers(0, 2**16),
           n=st.integers(3, 8))
    def test_composition_field_is_the_closed_form(self, theta, seed, n):
        k = 1 + seed % (n - 1)
        obj, A, B, D = ratio_instance(n, k, seed, theta)
        P = random_stiefel(n, k, seed + 7)
        a = np.trace(P.T @ A @ P)
        b = np.trace(P.T @ B @ P)
        d = np.trace(P.T @ D)
        H_ref = (2.0 / b**theta) * (A + 0.5 * (D @ P.T + P @ D.T)
                                    - theta * (a + d) / b * B)
        M_ref = b ** (-theta) * (D.T @ P)
        fe = obj.field(P)
        assert np.linalg.norm(fe.H - H_ref) <= 1e-12 * np.linalg.norm(H_ref)
        assert (np.linalg.norm(fe.mismatch - M_ref)
                <= 1e-12 * np.linalg.norm(M_ref))

    def test_theta_data_is_a_view_of_the_terms(self):
        olda = build(ProblemSpec("olda", 5, 2, {"A": make_psd(5, 1),
                                                "B": make_psd(5, 2, 1.0)}))
        td = olda.theta_data
        assert td.theta == 1.0
        assert td.B is olda.terms[0].matrix
        assert td.A is olda.terms[1].matrix
        assert td.D is olda.terms[2].matrix
        assert olda.field_recipe == "composition"
        assert "theta_data" not in {f.name for f in dataclasses.fields(ComposedObjective)}
        sq = build(ProblemSpec("theta_tr_sq", 5, 2, {"A": make_psd(5, 1),
                                                     "B": make_psd(5, 2, 1.0)},
                               theta=0.25))
        assert sq.theta_data is None

    def test_theta_tr_recipe_is_gone(self):
        # The recipe is read off the selectors; no caller can set one.
        olda = build(ProblemSpec("olda", 5, 2, {"A": make_psd(5, 1),
                                                "B": make_psd(5, 2, 1.0)}))
        assert olda.field_recipe == "composition"
        assert "field_recipe" not in {
            f.name for f in dataclasses.fields(ComposedObjective)}

    def assert_view(self, obj, theta, A, B, D):
        td = obj.theta_data
        assert td.theta == theta
        for got, want in ((td.A, A), (td.B, B), (td.D, D)):
            assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))

    def test_transform_maps_theta_data(self):
        n, k = 7, 2
        obj, A, B, D = ratio_instance(n, k, 3, 0.4)
        for T in (random_stiefel(n, 4, 5),
                  np.random.default_rng(6).standard_normal((n, n))):
            self.assert_view(obj.transform(T), 0.4, T.T @ A @ T, T.T @ B @ T,
                             T.T @ D)

    def test_lift_m_orthogonal_maps_theta_data(self):
        n, k = 6, 2
        obj, A, B, D = ratio_instance(n, k, 8, 0.7)
        M = make_psd(n, 9, 1.0)
        lifted, lift = lift_m_orthogonal(obj, M)
        T = np.linalg.inv(lift.R)
        self.assert_view(lifted, 0.7, T.T @ A @ T, T.T @ B @ T, T.T @ D)


def _row_atom_dft(obj):
    # The same dft objective with diag(PP') written as n rank-one quadratic
    # atoms e_i e_i' after tr(P'AP), under the same outer function.
    n = obj.n
    rows = []
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        rows.append(AtomicTerm.quadratic(E))
    return ComposedObjective(n, obj.k, (obj.terms[0], *rows), obj.outer,
                             alignment=obj.alignment,
                             npdo_monotone=obj.npdo_monotone,
                             nepv_monotone=obj.nepv_monotone)


def _rel_close(a, b, rel=1e-12):
    return np.linalg.norm(np.asarray(a) - b) <= rel * np.linalg.norm(b)


class TestDiagonalAtom:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           k=st.integers(1, 40), phi=st.sampled_from(OUTER_PRESETS),
           weight=st.floats(0.0, 2.0), extra=st.integers(0, 120))
    def test_dft_matches_the_row_atoms(self, seed, n, k, phi, weight, extra):
        # f, the Euclidean gradient and the field H of dft's diagonal atom
        # agree with n explicit e_i e_i' atoms within 1e-12 relative, at P
        # and in the reduced problem transform(W) for an orthonormal W with
        # k to 4k columns.
        k = min(k, n)
        rng = np.random.default_rng(seed)
        obj = build(ProblemSpec("dft", n, k, {"A": make_psd(n, seed % 997)},
                                phi=phi, phi_weight=weight))
        assert [t.kind for t in obj.terms] == ["quadratic", "diagonal"]
        ref = _row_atom_dft(obj)
        m = min(n, k + extra % (3 * k + 1))
        W, _ = np.linalg.qr(rng.standard_normal((n, m)))
        Z = random_stiefel(W.shape[1], k, seed % 991)
        P = random_stiefel(n, k, seed % 983)
        for new, old, X in ((obj, ref, P),
                            (obj.transform(W), ref.transform(W), Z)):
            a, b = new.at(X), old.at(X)
            assert _rel_close(a.term_values, b.term_values)
            assert _rel_close(a.value, b.value)
            assert _rel_close(a.euclidean_grad, b.euclidean_grad)
            assert _rel_close(a.field.H, b.field.H)
            assert not a.field.mismatch.any()

    def test_dft_keeps_both_declarations(self):
        n, k = 6, 2
        psd = build(ProblemSpec("dft", n, k, {"A": make_psd(n, 1)}))
        A = np.diag([1.0, 0.5, 0.0, -0.1, -1.0, -2.0])
        indefinite = build(ProblemSpec("dft", n, k, {"A": A}))
        assert (psd.npdo_monotone, psd.nepv_monotone) == (True, True)
        assert (indefinite.npdo_monotone, indefinite.nepv_monotone) == (
            False, True)

    def test_dft_at_n_1000_holds_one_matrix(self):
        # Two terms, and no n-by-n array beyond A's own copy.
        n, k = 1000, 8
        G = np.random.default_rng(0).standard_normal((n, n))
        A = G + G.T
        obj = build(ProblemSpec("dft", n, k, {"A": A}, phi="quad_penalty"))
        assert len(obj.terms) == 2 and obj.outer.dim == n + 1
        held = sum(t.matrix.nbytes for t in obj.terms if t.matrix is not None)
        assert held <= A.nbytes + 8 * n * k


def eigvalsh_psd(A):
    # The PSD rule as it reads on the full spectrum.
    w = np.linalg.eigvalsh(A)
    return bool(w[0] >= -1e-10 * max(abs(w[0]), abs(w[-1]), 1e-300))


def eigvalsh_ratio_error(B, k):
    # The ratio denominator's checks on the full spectrum: the error
    # message, or None when B passes.
    w = np.linalg.eigvalsh(B)
    if w[0] < -1e-10 * max(abs(w[0]), abs(w[-1]), 1e-300):
        return f"olda: B must be positive semidefinite (lambda_min = {w[0]:.3e})"
    if w[:k].sum() <= 0.0:
        return (f"olda: sum of the {k} smallest eigenvalues of B must be "
                f"positive (rank(B) > n - k), got {w[:k].sum():.3e}")
    return None


@st.composite
def symmetric_matrices(draw):
    # Random PSD (full and low rank), indefinite, zero and n = 1 matrices,
    # and, about half the time, spectra with lambda_min planted within two
    # decades on either side of the PSD threshold -1e-10 ||A||_2, but not
    # within 1e-3 of it, at scales from 1e-170 to 1e160.
    n = draw(st.integers(1, 30), label="n")
    kind = draw(st.one_of(st.just("planted"), st.sampled_from(
        ["psd", "low rank", "indefinite", "zero"])), label="kind")
    scale = draw(st.sampled_from([1.0, 1e154, 1e-170, 1e160]), label="scale")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    if kind == "zero":
        return np.zeros((n, n))
    rng = np.random.default_rng(seed)
    spectrum = rng.uniform(0.0, 1.0, n)
    if kind == "low rank":
        spectrum[rng.random(n) < 0.5] = 0.0
    elif kind == "indefinite":
        spectrum = rng.uniform(-1.0, 1.0, n)
    elif kind == "planted" and n > 1:
        t = draw(st.floats(-12.0, -8.0), label="log10 |lambda_min|")
        sign = draw(st.sampled_from([-1.0, 1.0]), label="sign")
        assume(abs(10.0 ** (t + 10.0) - 1.0) > 1e-3)
        spectrum[-1] = sign * 10.0 ** t
    if kind != "indefinite":
        spectrum[0] = 1.0  # ||A||_2 = 1 before scaling
    return planted(n, spectrum, seed, scale)


class TestPsdCertificate:
    # _check_psd decides by at most two Cholesky factorizations, and the
    # ratio denominator by one, what the full spectrum decides.

    @settings(max_examples=400, deadline=None)
    @given(A=symmetric_matrices())
    def test_check_psd_decides_as_the_spectrum(self, A):
        assert _check_psd(A) == eigvalsh_psd(A)

    @settings(max_examples=300, deadline=None)
    @given(B=symmetric_matrices(), data=st.data())
    def test_ratio_denominator_decides_as_the_spectrum(self, B, data):
        k = data.draw(st.integers(1, len(B)), label="k")
        try:
            _check_ratio_denominator(B, k, "olda")
            error = None
        except ValueError as exc:
            error = str(exc)
        assert error == eigvalsh_ratio_error(B, k)

    @pytest.mark.parametrize("kind", ["psd", "indefinite", "band"])
    def test_check_psd_holds_one_n_by_n_array_at_a_time(self, kind):
        # Every build runs this on each quadratic matrix, so its peak memory
        # is the benchmark's: at most one n-by-n array beyond the input,
        # whatever the scale and whichever test decides.
        n = 300
        A0 = {"psd": lambda: make_psd(n, 0),
              "indefinite": lambda: planted(n, np.linspace(-1.0, 1.0, n), 0),
              "band": lambda: band_matrix(n, 0)}[kind]()
        for scale in (1.0, 1e154, 1e-170):
            A = A0 * scale
            tracemalloc.start()
            try:
                out = _check_psd(A)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out == (kind != "indefinite")
            assert peak < 1.5 * A.nbytes


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 60),
       spread=st.sampled_from([1e-3, 1.0, 30.0, 700.0]), ties=st.booleans())
def test_logsumexp_matches_scipy(seed, size, spread, ties):
    # The logsumexp preset's numpy form, to a few ulp of scipy.special's.
    y = np.random.default_rng(seed).uniform(-spread, spread, size)
    if ties:
        y[-1] = y.max()
    ref = scipy.special.logsumexp(y)
    ulp = np.spacing(max(abs(ref), abs(y.max())))
    assert abs(_logsumexp(y) - ref) <= 4 * ulp
