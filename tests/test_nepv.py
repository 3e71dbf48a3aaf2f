import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelscf import nepv as nepv_module
from stiefelscf import objective as objective_module
from stiefelscf.cli import run_audits
from stiefelscf.kernels import random_stiefel, sym_part, top_k_eigenpairs
from stiefelscf.nepv import (
    NepvConfig,
    nepv_certificates,
    nepv_locg,
    nepv_residual,
    nepv_scf,
)
from stiefelscf.npdo import (
    NpdoConfig,
    _feasible_start,
    kkt_residuals,
    npdo_locg,
    npdo_scf,
)
from stiefelscf.objective import (
    AtomicTerm,
    ComposedObjective,
    PointEvaluation,
    outer_sum,
)
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
            report = nepv_scf(obj, random_stiefel(3, 2, seed),
                              NepvConfig(tol=1e-300, max_iter=1))
            assert obj.value(report.point) == pytest.approx(8.0, abs=1e-12)
            assert report.iterations[0].eta >= -1e-12

    def test_occa_alignment_keeps_ptd_psd(self):
        n, k = 8, 2
        rng = np.random.default_rng(2)
        obj = build(ProblemSpec("occa", n, k, {
            "B": make_psd(n, 20, 1.0), "D": rng.standard_normal((n, k))}))
        landed = []
        nepv_scf(obj, random_stiefel(n, k, 0),
                 NepvConfig(tol=1e-300, max_iter=5),
                 lambda i, P: landed.append(P))
        assert len(landed) == 5
        for P in landed:
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
        landed = []
        nepv_scf(obj, P, NepvConfig(tol=1e-300, max_iter=20),
                 lambda i, P: landed.append(P))
        assert len(landed) == 20
        for P in landed:
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
        c = nepv_certificates(obj, rep.point)
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
        certs = nepv_certificates(obj, rep.point)
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
        # the 0.99 eigenvalue ratio; the subspace variant should not.  sep
        # written as a sum of one-column traces has that field.
        n, k = 50, 2
        vals = np.concatenate([[1.5, 1.0], np.linspace(0.99, 0.01, n - 2)])
        rng = np.random.default_rng(15)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = sym_part(Q @ np.diag(vals) @ Q.T)
        obj = ComposedObjective(
            n, k, tuple(AtomicTerm.quadratic(A, cols=(j,)) for j in range(k)),
            outer_sum(k), nepv_monotone=True)
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
                            lambda H, *a: dense.append(len(H)) or top_k(H, *a))
        monkeypatch.setattr(nepv_module, "ritz_top_k",
                            lambda H, P, *a: warm.append(len(P)) or ritz(H, P, *a))
        P0 = random_stiefel(n, k, 0)
        report = nepv_scf(obj, P0)
        assert report.converged
        assert len(dense) <= report.num_iterations / 4
        assert len(warm) >= report.num_iterations - len(dense)
        dense.clear()
        warm.clear()
        # Each nepv_locg outer step solves the full-size field once, for its
        # plain-step proposal: dense on the first step, warm after it.  The
        # reduced problems have order at most 4k and are always dense.
        report = nepv_locg(obj, P0)
        assert report.converged
        reduced = [order for order in dense if order < n]
        assert reduced and max(reduced) <= 4 * k
        assert [order for order in dense if order == n] == [n]
        assert warm == [n] * (report.num_iterations - 1)

    def test_dense_step_reuses_one_workspace_per_solve(self, monkeypatch):
        # Every dense solve of one nepv_scf solve symmetrizes into the same
        # n-by-n Fortran-ordered array; a second solve gets its own, so the
        # workspace is per-solve state and solves can run side by side.
        n, k = 40, 3
        assert n < nepv_module.WARM_MIN_N  # every step is dense
        rng = np.random.default_rng(1)
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": make_psd(n, 2), "D": rng.standard_normal((n, k))}))
        works = []
        top_k = nepv_module._top_k
        monkeypatch.setattr(nepv_module, "_top_k",
                            lambda H, k, work: works.append(work)
                            or top_k(H, k, work))
        P0 = random_stiefel(n, k, 0)
        first = nepv_scf(obj, P0)
        steps = first.num_iterations
        assert first.converged and steps >= 2 and len(works) == steps
        assert all(w is works[0] for w in works)
        assert works[0].shape == (n, n) and works[0].flags.f_contiguous
        second = nepv_scf(obj, P0)
        assert len(works) == 2 * steps
        assert works[steps] is not works[0]
        assert all(w is works[steps] for w in works[steps:])
        assert np.array_equal(second.point, first.point)

    def test_a_warm_step_forms_no_field(self, monkeypatch):
        # H is formed once per dense solve and never for a warm step, and
        # each record's eps_nepv and m_asymmetry are what nepv_residual and
        # the formed field give at the step's incoming point.
        n, k = 200, 8
        rng = np.random.default_rng(0)
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": separated_psd(rng, n, k), "D": rng.standard_normal((n, k))}))
        formed, dense = [], []
        form, top_k = objective_module.FactoredField.H.func, nepv_module._top_k
        counted = functools.cached_property(
            lambda field: formed.append(len(field.P)) or form(field))
        counted.__set_name__(objective_module.FactoredField, "H")
        monkeypatch.setattr(objective_module.FactoredField, "H", counted)
        monkeypatch.setattr(nepv_module, "_top_k",
                            lambda H, *a: dense.append(len(H)) or top_k(H, *a))
        P0 = random_stiefel(n, k, 0)
        landed = []
        report = nepv_scf(obj, P0, callback=lambda i, P: landed.append(P))
        assert report.converged and report.num_iterations >= 8
        assert dense and formed == dense == [n] * len(dense)
        assert len(dense) < report.num_iterations
        monkeypatch.undo()
        incoming = [_feasible_start(obj, P0).P] + landed[:-1]
        for rec, P in zip(report.iterations, incoming):
            assert rec.eps_nepv == pytest.approx(
                nepv_residual(obj, P), rel=1e-12, abs=1e-12)
            assert rec.m_asymmetry == pytest.approx(
                obj.at(P).field.asymmetry, rel=1e-12, abs=1e-12)

    def test_a_warm_umds_solve_records_its_residuals(self, monkeypatch):
        # umds's m = 2 terms are pairs of the factored form: a warm step
        # applies them in its Krylov blocks and forms H only for the norm,
        # which the Gram identity does not give.  Each record's eps_nepv is
        # nepv_residual at the step's incoming point.
        n, k = 120, 3
        rng = np.random.default_rng(4)
        obj = build(ProblemSpec("umds", n, k, {
            "A_list": [separated_psd(rng, n, k), separated_psd(rng, n, k)]}))
        dense, top_k = [], nepv_module._top_k
        monkeypatch.setattr(nepv_module, "_top_k",
                            lambda H, *a: dense.append(len(H)) or top_k(H, *a))
        P0 = random_stiefel(n, k, 0)
        landed = []
        report = nepv_scf(obj, P0, callback=lambda i, P: landed.append(P))
        assert report.converged
        assert 0 < len(dense) < report.num_iterations  # a warm step was taken
        monkeypatch.undo()
        incoming = [_feasible_start(obj, P0).P] + landed[:-1]
        for rec, P in zip(report.iterations, incoming):
            assert rec.eps_nepv == pytest.approx(
                nepv_residual(obj, P), rel=1e-12, abs=1e-12)

    def test_warm_residual_reads_the_factored_field(self):
        n, k = 100, 2
        rng = np.random.default_rng(3)
        B = make_psd(n, 4, 1.0)
        P = random_stiefel(n, k, 1)
        guard = random_stiefel(n, 1, 2)
        # mbsub: H P and ||H||_F come from the factored form, H is not formed.
        obj = build(warm_family_spec("mbsub", n, k, rng))
        step = nepv_module._EigenStep(obj)
        step.guard = guard
        at = PointEvaluation(obj, P)
        eps, _ = step.residual(at)
        assert "H" not in at.field.__dict__
        assert eps == pytest.approx(nepv_residual(obj, P), rel=1e-12)
        # olda with A = 2B + 1e-7 E: the Gram identity cancels, so the step
        # forms H for its norm.
        obj = build(ProblemSpec("olda", n, k, {
            "A": 2.0 * B + 1e-7 * sym_part(rng.standard_normal((n, n))),
            "B": B}))
        step = nepv_module._EigenStep(obj)
        step.guard = guard
        at = PointEvaluation(obj, P)
        eps, _ = step.residual(at)
        assert "H" in at.field.__dict__
        assert eps == pytest.approx(nepv_residual(obj, P), rel=1e-6)


def scaled_sep(scale):
    # sep with A = diag(linspace(3, 1, 6)) * scale.
    return build(ProblemSpec("sep", 6, 2, {
        "A": np.diag(np.linspace(3.0, 1.0, 6)) * scale}))


class TestExtremeScales:
    # Residuals are ratios of norms, so they do not change with the data
    # scale, even where a plain Frobenius norm overflows (1e154) or
    # underflows (1e-170).
    @pytest.mark.parametrize("scale", [1e154, 1e-170])
    def test_the_catalog_builds_it(self, scale):
        # The builder's symmetry check takes its norms at a safe scale, so
        # it neither warns nor refuses the data.
        obj = scaled_sep(scale)
        assert np.array_equal(obj.terms[0].matrix,
                              np.diag(np.linspace(3.0, 1.0, 6)) * scale)
        assert obj.npdo_monotone and obj.nepv_monotone

    @pytest.mark.parametrize("scale", [1e154, 1e-170])
    def test_the_stagnation_floor_is_relative(self, scale):
        # A step is flat when |f_next - f| <= 1e-16 |f_next|, at any scale:
        # at 1e-170, where every f-change lies below 1e-16, the polar route
        # still converges in as many steps as at scale 1.
        P0 = random_stiefel(6, 2, 0)
        ref, rep = npdo_scf(scaled_sep(1.0), P0), npdo_scf(scaled_sep(scale), P0)
        assert ref.converged and rep.converged
        assert rep.num_iterations == ref.num_iterations

    @pytest.mark.parametrize("scale", [1e154, 1e-170])
    def test_residuals_and_certificates_keep_their_values(self, scale):
        P = random_stiefel(6, 2, 0)
        ref, obj = scaled_sep(1.0), scaled_sep(scale)
        assert kkt_residuals(obj, P) == pytest.approx(kkt_residuals(ref, P),
                                                      rel=1e-12)
        assert nepv_residual(obj, P) == pytest.approx(nepv_residual(ref, P),
                                                      rel=1e-12)
        certs = nepv_certificates(obj, P)
        assert certs["eps_nepv"] == pytest.approx(nepv_residual(ref, P),
                                                  rel=1e-12)
        assert 0.0 <= certs["field_identity"] <= 1e-12

    @pytest.mark.parametrize("scale", [1e154, 1e-170])
    def test_no_false_convergence(self, scale):
        P0 = random_stiefel(6, 2, 0)
        for solve in (nepv_scf, npdo_scf):
            ref, rep = solve(scaled_sep(1.0), P0), solve(scaled_sep(scale), P0)
            assert rep.num_iterations > 0
            assert not rep.converged or (
                rep.num_iterations == ref.num_iterations
                and rep.f_final / scale == pytest.approx(5.6, rel=1e-12))
        # The eigenvector route solves it as at scale 1, in one step.
        rep = nepv_scf(scaled_sep(scale), P0)
        assert rep.converged and rep.num_iterations == 1

    @pytest.mark.parametrize("scale", [1e154, 1e-150])
    def test_the_locg_basis_keeps_the_previous_iterate(self, scale):
        # The Riemannian gradient joins the basis at unit norm when larger,
        # so the unit-scale previous-iterate block stays above the deflation
        # floor at any data scale: npdo_locg takes the outer and inner steps
        # it takes at scale 1 (12 outer; at 1e154 the block once deflated
        # away and the solve took 20).
        P0 = random_stiefel(6, 2, 0)
        ref = npdo_locg(scaled_sep(1.0), P0)
        rep = npdo_locg(scaled_sep(scale), P0)
        assert ref.converged and rep.converged
        assert [r.inner_iters for r in rep.iterations] == [
            r.inner_iters for r in ref.iterations]

    @pytest.mark.parametrize("scale", [1.0, 1e154, 1e-170])
    @pytest.mark.parametrize("route", ["npdo", "nepv"])
    def test_a_locg_first_step_gains_at_least_the_plain_step(self, route,
                                                             scale):
        # The plain step's iterate joins the subspace basis whatever the
        # scale of the gradient, so the first outer step starts its inner
        # solve there and gains at least as much; no norm overflows.
        accelerated, plain, cfg_cls = {
            "npdo": (npdo_locg, npdo_scf, NpdoConfig),
            "nepv": (nepv_locg, nepv_scf, NepvConfig)}[route]
        obj, P0 = scaled_sep(scale), random_stiefel(6, 2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = accelerated(obj, P0, cfg_cls(max_iter=1))
            one = plain(obj, P0, cfg_cls(max_iter=1))
        gain = (rep.iterations[0].f - rep.f_initial) / scale
        assert gain >= (one.f_final - one.f_initial) / scale - 1e-12
        if route == "nepv":
            assert rep.iterations[0].f / scale == pytest.approx(5.6,
                                                                rel=1e-12)


def test_an_overflowing_field_raises_only_its_value_error():
    # umds with A = 1e160 I: the power S^2 and the field overflow.  The
    # solve refuses the field with ValueError and raises no warning first.
    obj = build(ProblemSpec("umds", 4, 2, {"A_list": [1e160 * np.eye(4)]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            nepv_scf(obj, random_stiefel(4, 2, 0))


@pytest.mark.parametrize("solver", [npdo_scf, npdo_locg])
def test_an_overflowing_gradient_raises_only_its_value_error(solver):
    # The same umds instance on the polar route: the gradient 4 X S
    # overflows, and the solve refuses it with ValueError, as the eigenvector
    # route refuses the field, and raises no warning first.
    obj = build(ProblemSpec("umds", 4, 2, {"A_list": [1e160 * np.eye(4)]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gradient has non-finite"):
            solver(obj, random_stiefel(4, 2, 0))


@pytest.mark.parametrize("solver", [npdo_scf, nepv_scf])
def test_an_overflowing_linear_power_raises_only_its_value_error(solver):
    # tr((P'D)^2) with D at 1e160: the product D (P'D) in the gradient and
    # in the field's U overflows, and either route refuses it with
    # ValueError and no warning first.
    D = 1e160 * np.random.default_rng(0).standard_normal((4, 2))
    obj = ComposedObjective(4, 2, (AtomicTerm.linear(D, m=2),), outer_sum(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            solver(obj, random_stiefel(4, 2, 0))
