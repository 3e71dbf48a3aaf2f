import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelscf import nepv as nepv_module
from stiefelscf.cli import run_audits
from stiefelscf.kernels import random_stiefel, sym_part, top_k_eigenpairs
from stiefelscf.nepv import (
    NepvConfig,
    nepv_locg,
    nepv_residual,
    nepv_scf,
    nepv_scf_step,
)
from stiefelscf.npdo import npdo_scf
from stiefelscf.objective import AtomicTerm, ComposedObjective, outer_sum
from stiefelscf.problems import ProblemSpec, build


def make_psd(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T / n + shift * np.eye(n)


def monotone(report):
    fs = [report.f_initial] + [r.f for r in report.iterations]
    return all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(fs, fs[1:]))


class TestNepvResidual:
    def test_zero_at_eigenbasis(self):
        obj = build(ProblemSpec("sep", 4, 2, {"A": np.diag([4.0, 3.0, 2.0, 1.0])}))
        assert nepv_residual(obj, np.eye(4)[:, :2]) <= 1e-14

    def test_positive_off_invariant_subspace(self):
        obj = build(ProblemSpec("sep", 5, 2, {"A": make_psd(5, 0)}))
        for seed in range(5):
            assert nepv_residual(obj, random_stiefel(5, 2, seed)) > 1e-6

    def test_small_at_converged_point(self):
        obj = build(ProblemSpec("mbsub", 8, 2, {
            "A": make_psd(8, 1), "D": np.random.default_rng(1).standard_normal((8, 2))}))
        rep = nepv_scf(obj, random_stiefel(8, 2, 0))
        assert nepv_residual(obj, rep.point) <= 1e-8


class TestNepvScfStep:
    def test_sep_one_step_reaches_fan_bound(self):
        A = np.diag([5.0, 3.0, 1.0])
        obj = build(ProblemSpec("sep", 3, 2, {"A": A}))
        for seed in range(3):
            P1, rec = nepv_scf_step(obj, random_stiefel(3, 2, seed))
            assert obj.value(P1) == pytest.approx(8.0, abs=1e-12)
            assert rec.eta >= -1e-12

    def test_occa_alignment_keeps_ptd_psd(self):
        n, k = 8, 2
        rng = np.random.default_rng(2)
        obj = build(ProblemSpec("occa", n, k, {
            "B": make_psd(n, 20, 1.0), "D": rng.standard_normal((n, k))}))
        P = random_stiefel(n, k, 0)
        for _ in range(5):
            P, rec = nepv_scf_step(obj, P)
            S = sym_part(P.T @ obj.theta_data.D)
            assert np.linalg.eigvalsh(S)[0] >= -1e-12

    def test_quad_lin2_monotone_per_step(self):
        # Indefinite quadratic part: the eigenvector route still ascends.
        n, k = 7, 2
        rng = np.random.default_rng(3)
        A = sym_part(rng.standard_normal((n, n)))
        D = rng.standard_normal((n, k))
        obj = build(ProblemSpec("quad_lin2", n, k, {"A": A, "D": D}))
        P = obj.alignment.rotate(random_stiefel(n, k, 1),
                                 obj.at(random_stiefel(n, k, 1)))[1]
        f = obj.value(P)
        for _ in range(20):
            P, rec = nepv_scf_step(obj, P)
            f_next = obj.value(P)
            assert f_next >= f - 1e-12 * max(1.0, abs(f))
            f = f_next


class TestNepvScf:
    def test_sep_converges_in_one_iteration(self):
        obj = build(ProblemSpec("sep", 6, 3, {"A": make_psd(6, 5, 0.1)}))
        rep = nepv_scf(obj, random_stiefel(6, 3, 0))
        assert rep.converged
        assert rep.num_iterations == 1
        w = np.sort(np.linalg.eigvalsh(obj.terms[0].matrix))[::-1]
        assert rep.f_final == pytest.approx(w[:3].sum(), abs=1e-10)

    def test_mbsub_indefinite_converges_with_certificates(self):
        n, k = 12, 3
        rng = np.random.default_rng(6)
        A = sym_part(rng.standard_normal((n, n)))
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": A, "D": rng.standard_normal((n, k))}))
        rep = nepv_scf(obj, random_stiefel(n, k, 2))
        assert rep.converged
        assert monotone(rep)
        c = rep.certificates
        assert c["omega_vs_topk_max_dev"] <= 1e-6 * c["field_norm"]
        assert c["mismatch_asymmetry"] <= 1e-6
        assert c["alignment_psd_margin"] >= -1e-8 * c["alignment_matrix_norm"]

    def test_olda_monotone_ratio_ascent(self):
        n, k = 10, 2
        obj = build(ProblemSpec("olda", n, k, {
            "A": make_psd(n, 7), "B": make_psd(n, 8, 1.0)}))
        rep = nepv_scf(obj, random_stiefel(n, k, 3))
        assert rep.converged
        assert monotone(rep)

    def test_theta_interior_monotone(self):
        n, k = 9, 2
        rng = np.random.default_rng(9)
        obj = build(ProblemSpec("theta_tr", n, k, {
            "A": make_psd(n, 90), "B": make_psd(n, 91, 1.0),
            "D": 0.3 * rng.standard_normal((n, k))}, theta=0.3))
        rep = nepv_scf(obj, random_stiefel(n, k, 4))
        assert rep.converged
        assert monotone(rep)

    def test_gap_flag_on_degenerate_field(self):
        # lambda_k = lambda_{k+1} of the field: per-step ascent holds, but
        # the record flags that whole-sequence convergence is not guaranteed.
        obj = build(ProblemSpec("sep", 4, 2, {"A": np.diag([3.0, 1.0, 1.0, 0.0])}))
        rep = nepv_scf(obj, random_stiefel(4, 2, 0), NepvConfig(max_iter=3))
        assert rep.iterations[0].gap_degenerate

    def test_mismatch_asymmetry_small_at_convergence(self):
        # The certified point of the additive subproblem has a KKT-grade
        # symmetric mismatch, far below the 1e-8 the theory asks for.
        obj = build(ProblemSpec("mbsub", 10, 2, {
            "A": make_psd(10, 50), "D": np.random.default_rng(51).standard_normal((10, 2))}))
        rep = nepv_scf(obj, random_stiefel(10, 2, 0))
        assert rep.converged
        assert obj.at(rep.point).field.asymmetry <= 1e-8

    def test_feasibility_preserved_along_iterates(self):
        # After the first step every iterate satisfies the alignment rule's
        # PSD condition.
        n, k = 9, 2
        rng = np.random.default_rng(52)
        obj = build(ProblemSpec("occa", n, k, {
            "B": make_psd(n, 53, 1.0), "D": rng.standard_normal((n, k))}))
        margins = []
        rep = nepv_scf(obj, random_stiefel(n, k, 1),
                       callback=lambda i, P: margins.append(
                           obj.alignment.psd_margin(obj.at(P))[0]))
        assert rep.converged and margins
        norm = np.linalg.norm(obj.theta_data.D, 2)
        assert all(m >= -1e-10 * max(norm, 1.0) for m in margins)

    def test_npdo_nepv_agree_multistart(self):
        # Both frameworks land on the same best value over five starts.
        n, k = 12, 2
        rng = np.random.default_rng(54)
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": make_psd(n, 55), "D": rng.standard_normal((n, k))}))
        best_npdo = max(npdo_scf(obj, random_stiefel(n, k, s)).f_final
                        for s in range(5))
        best_nepv = max(nepv_scf(obj, random_stiefel(n, k, s)).f_final
                        for s in range(5))
        assert best_nepv == pytest.approx(best_npdo, rel=1e-6)

    def test_omega_certificate_matches_field_spectrum(self):
        obj = build(ProblemSpec("mbsub", 10, 2, {
            "A": make_psd(10, 10), "D": np.random.default_rng(4).standard_normal((10, 2))}))
        rep = nepv_scf(obj, random_stiefel(10, 2, 5))
        P = rep.point
        fe = obj.field(P)
        omega = np.sort(np.linalg.eigvalsh(sym_part(P.T @ fe.H @ P)))[::-1]
        top = top_k_eigenpairs(fe.H, 2).eigenvalues
        assert np.max(np.abs(omega - top)) <= 1e-6 * np.linalg.norm(fe.H, 2)


class TestReducedField:
    def test_identity_basis(self):
        obj = build(ProblemSpec("mbsub", 6, 2, {
            "A": make_psd(6, 11), "D": np.random.default_rng(5).standard_normal((6, 2))}))
        red = obj.transform(np.eye(6))
        P = random_stiefel(6, 2, 1)
        assert np.allclose(red.field(P).H, obj.field(P).H, atol=1e-12)

    def test_sep_reduced_field_constant(self):
        A = make_psd(7, 12)
        obj = build(ProblemSpec("sep", 7, 2, {"A": A}))
        W = random_stiefel(7, 4, 2)
        red = obj.transform(W)
        Z = random_stiefel(4, 2, 3)
        assert np.allclose(red.field(Z).H, 2 * W.T @ A @ W, atol=1e-12)

    @pytest.mark.parametrize("family,extra", [
        ("mbsub", {}),
        ("quad_lin2", {}),
        ("theta_tr", {"theta": 0.5}),
    ])
    def test_restriction_identity(self, family, extra):
        # H~(Z) = W'H(WZ)W and M~(Z) = M(WZ) for every recipe.
        n, k, m = 8, 2, 5
        rng = np.random.default_rng(13)
        mats = {"A": make_psd(n, 130), "D": rng.standard_normal((n, k))}
        if family == "theta_tr":
            mats["B"] = make_psd(n, 131, 1.0)
        obj = build(ProblemSpec(family, n, k, mats, **extra))
        W = random_stiefel(n, m, 4)
        red = obj.transform(W)
        for seed in range(10):
            Z = random_stiefel(m, k, seed)
            fe_red = red.field(Z)
            fe_full = obj.field(W @ Z)
            assert np.allclose(fe_red.H, W.T @ fe_full.H @ W, atol=1e-10)
            assert np.allclose(fe_red.mismatch, fe_full.mismatch, atol=1e-10)
            # The reduced identity itself: H~ Z - grad~ = Z M~.
            G = red.euclidean_grad(Z)
            resid = fe_red.H @ Z - G - Z @ fe_red.mismatch
            assert np.linalg.norm(resid) <= 1e-10 * max(1.0, np.linalg.norm(fe_red.H))


    @pytest.mark.parametrize("shift", [0.0, -3.0])
    def test_certificates_match_the_field_spectrum(self, shift):
        # The certificates' one eigvalsh gives the spectral norm, whether the
        # largest or the most negative eigenvalue sets it, and the gap.
        n, k = 12, 2
        A = make_psd(n, 12) + shift * np.eye(n)
        obj = build(ProblemSpec("sep", n, k, {"A": A}))
        rep = nepv_scf(obj, random_stiefel(n, k, 3))
        H = obj.field(rep.point).H
        norm = np.linalg.norm(H, 2)
        certs = rep.certificates
        assert certs["field_norm"] == pytest.approx(norm, rel=1e-12, abs=0.0)
        assert certs["gap"] == pytest.approx(top_k_eigenpairs(H, k).gap,
                                             abs=1e-12 * norm)


class TestNepvLocg:
    def test_first_step_basis_width(self):
        from stiefelscf.kernels import orthonormalize_against
        obj = build(ProblemSpec("mbsub", 12, 3, {
            "A": make_psd(12, 14), "D": np.random.default_rng(6).standard_normal((12, 3))}))
        P = random_stiefel(12, 3, 0)
        W_extra = orthonormalize_against(P, obj.riemannian_grad(P))
        assert W_extra.shape[1] <= 3

    def test_accelerates_generic_field_sep(self):
        # With the P-dependent generic field the plain iteration crawls at
        # the 0.99 eigenvalue ratio; the subspace variant should not.
        n, k = 50, 2
        vals = np.concatenate([[1.5, 1.0], np.linspace(0.99, 0.01, n - 2)])
        rng = np.random.default_rng(15)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = sym_part(Q @ np.diag(vals) @ Q.T)
        obj = ComposedObjective(n, k, (AtomicTerm.quadratic(A),), outer_sum(1),
                                field_recipe="generic", nepv_monotone=True)
        P0 = random_stiefel(n, k, 7)
        plain = nepv_scf(obj, P0)
        metric = nepv_locg(obj, P0)
        assert metric.converged
        assert metric.num_iterations < plain.num_iterations
        assert metric.f_final == pytest.approx(2.5, abs=1e-6)

    def test_monotone_outer_steps(self):
        n, k = 16, 2
        rng = np.random.default_rng(16)
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": make_psd(n, 160), "D": rng.standard_normal((n, k))}))
        rep = nepv_locg(obj, random_stiefel(n, k, 8))
        assert rep.converged
        assert monotone(rep)

    def test_agrees_with_plain_and_npdo(self):
        n, k = 14, 2
        rng = np.random.default_rng(17)
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": make_psd(n, 170), "D": rng.standard_normal((n, k))}))
        P0 = random_stiefel(n, k, 9)
        f1 = nepv_scf(obj, P0).f_final
        f2 = nepv_locg(obj, P0).f_final
        f3 = npdo_scf(obj, P0).f_final
        assert f2 == pytest.approx(f1, rel=1e-7)
        assert f3 == pytest.approx(f1, rel=1e-6)


def separated_psd(rng, n, k, shift=0.0):
    # Top k eigenvalues in [3, 4], the rest in [0, 2.5], randomly rotated.
    w = np.concatenate([np.linspace(4.0, 3.0, k), np.linspace(2.5, 0.0, n - k)])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return sym_part((Q * (w + shift)) @ Q.T)


def warm_family_spec(family, n, k, rng):
    if family == "mbsub":
        return ProblemSpec("mbsub", n, k, {
            "A": separated_psd(rng, n, k), "D": rng.standard_normal((n, k))})
    if family == "theta_tr":
        return ProblemSpec("theta_tr", n, k, {
            "A": separated_psd(rng, n, k), "B": separated_psd(rng, n, k, 1.0),
            "D": 0.5 * rng.standard_normal((n, k))}, theta=0.5)
    if family == "olda":
        return ProblemSpec("olda", n, k, {
            "A": separated_psd(rng, n, k), "B": separated_psd(rng, n, k, 1.0)})
    # procrustes: C with singular values sqrt(linspace(4, 0.25)).
    U, _ = np.linalg.qr(rng.standard_normal((n + 5, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    C = (U * np.sqrt(np.linspace(4.0, 0.25, n))) @ V.T
    return ProblemSpec("procrustes", n, k, {
        "C": C, "B": rng.standard_normal((n + 5, k))})


class TestWarmStep:
    @pytest.mark.parametrize("family", ["mbsub", "theta_tr", "olda", "procrustes"])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(nepv_module.WARM_MIN_N, 130), k=st.integers(2, 8))
    def test_matches_the_dense_step(self, family, seed, n, k):
        rng = np.random.default_rng(seed)
        obj = build(warm_family_spec(family, n, k, rng))
        P0 = random_stiefel(n, k, seed % 1000)
        warm = nepv_scf(obj, P0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nepv_module, "WARM_MIN_N", n + 1)
            dense = nepv_scf(obj, P0)
        assert warm.stop_reason == dense.stop_reason
        assert warm.f_final == pytest.approx(dense.f_final, rel=1e-10)
        # The trace gain of a Ritz step over a space holding P is >= 0.
        assert all(rec.eta >= -1e-12 * max(1.0, abs(rec.f))
                   for rec in warm.iterations)
        which = {"certs", "series"}
        if obj.theta_data is not None:
            which.add("theta")
        diag, ok = run_audits(which, obj, warm, None, "nepv")
        assert ok, diag

    def test_dense_solves_are_the_exception(self, monkeypatch):
        n, k = 200, 8
        rng = np.random.default_rng(0)
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": separated_psd(rng, n, k), "D": rng.standard_normal((n, k))}))
        dense, warm = [], []
        top_k, ritz = nepv_module._top_k, nepv_module.ritz_top_k
        monkeypatch.setattr(nepv_module, "_top_k",
                            lambda H, k: dense.append(len(H)) or top_k(H, k))
        monkeypatch.setattr(nepv_module, "ritz_top_k",
                            lambda H, *a: warm.append(len(H)) or ritz(H, *a))
        P0 = random_stiefel(n, k, 0)
        report = nepv_scf(obj, P0)
        assert report.converged
        assert len(dense) <= report.num_iterations / 4
        assert len(warm) >= report.num_iterations - len(dense)
        dense.clear()
        warm.clear()
        # The inner problems of nepv_locg have order at most 3k: dense.
        report = nepv_locg(obj, P0)
        assert report.converged
        assert dense and max(dense) <= 3 * k
        assert warm == []
