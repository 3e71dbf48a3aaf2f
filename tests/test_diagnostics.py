import numpy as np
import pytest

from stiefelscf.diagnostics import (
    SizeTooLargeForOracle,
    brute_force_oracle,
    gradient_check,
    monotonicity_audit,
    series_audit,
    theta_step_audit,
)
from stiefelscf.kernels import random_stiefel, trace_norm
from stiefelscf.nepv import nepv_scf
from stiefelscf.npdo import IterationRecord, SolveReport, npdo_scf
from stiefelscf.objective import AtomicTerm, ComposedObjective, outer_sum
from stiefelscf.alignment import PolarAlignment
from stiefelscf.problems import ProblemSpec, build


def make_psd(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T / n + shift * np.eye(n)


class TestGradientCheck:
    def test_sep(self):
        obj = build(ProblemSpec("sep", 6, 2, {"A": make_psd(6, 0)}))
        assert gradient_check(obj, trials=5) <= 1e-7

    def test_theta_half(self):
        rng = np.random.default_rng(1)
        obj = build(ProblemSpec("theta_tr", 6, 2, {
            "A": make_psd(6, 1), "B": make_psd(6, 2, 1.0),
            "D": rng.standard_normal((6, 2))}, theta=0.5))
        assert gradient_check(obj, trials=5) <= 1e-6

    def test_powered_linear_atom(self):
        D = np.random.default_rng(2).standard_normal((5, 2))
        obj = ComposedObjective(5, 2, (AtomicTerm.linear(D, m=3, s=2.0),),
                                outer_sum(1),
                                alignment=PolarAlignment(D))
        from stiefelscf.npdo import project_feasible

        # Check at feasible points, where the power's base is nonnegative.
        worst = 0.0
        for t in range(5):
            P = project_feasible(obj, random_stiefel(5, 2, t))
            G = obj.euclidean_grad(P)
            FD = np.zeros_like(G)
            h = 1e-6
            for i in range(5):
                for j in range(2):
                    E = np.zeros((5, 2))
                    E[i, j] = h
                    FD[i, j] = (obj.value(P + E) - obj.value(P - E)) / (2 * h)
            worst = max(worst, np.linalg.norm(FD - G) / max(1, np.linalg.norm(G)))
        assert worst <= 1e-6


class TestBruteForceOracle:
    def test_sep_k1(self):
        obj = build(ProblemSpec("sep", 3, 1, {"A": np.diag([5.0, 3.0, 1.0])}))
        best_f, best_P = brute_force_oracle(obj, budget=500, seed=0)
        assert best_f == pytest.approx(5.0, abs=1e-8)
        assert abs(best_P[0, 0]) == pytest.approx(1.0, abs=1e-4)

    def test_linear_reaches_trace_norm(self):
        rng = np.random.default_rng(3)
        D = rng.standard_normal((4, 2))
        obj = ComposedObjective(4, 2, (AtomicTerm.linear(D),), outer_sum(1),
                                field_recipe="composition",
                                alignment=PolarAlignment(),
                                nepv_monotone=True)
        best_f, _ = brute_force_oracle(obj, budget=60, seed=0)
        assert best_f == pytest.approx(trace_norm(D), abs=1e-8)

    def test_circle_sweep_matches_solver(self):
        A = np.diag([2.0, 1.0])
        D = np.array([[0.0], [1.0]])
        obj = build(ProblemSpec("quad_lin2", 2, 1, {"A": A, "D": D}))
        best_f, _ = brute_force_oracle(obj, budget=62832, seed=0)
        rep = npdo_scf(obj, random_stiefel(2, 1, 0))
        assert rep.f_final <= best_f + 1e-9
        assert rep.f_final == pytest.approx(best_f, abs=1e-6)

    def test_size_cap(self):
        obj = build(ProblemSpec("sep", 10, 1, {"A": make_psd(10, 4)}))
        with pytest.raises(SizeTooLargeForOracle):
            brute_force_oracle(obj, budget=10)

    @pytest.mark.parametrize("k, budget", [(2, 0), (1, -5), (1, 0)])
    def test_budget_below_one_rejected(self, k, budget):
        obj = build(ProblemSpec("sep", 3, k, {"A": np.diag([5.0, 3.0, 1.0])}))
        with pytest.raises(ValueError, match="budget"):
            brute_force_oracle(obj, budget=budget)


def synthetic_report(fs, sigma=1.0, angle=1.0, eps=0.5):
    recs = [IterationRecord(i, f, eps_kkt=eps, eps_sym=0.0, eps_nepv=eps,
                            sigma_min=sigma, gap=sigma, eta=0.0,
                            step_angle=angle)
            for i, f in enumerate(fs[1:])]
    return SolveReport(point=np.eye(2), f_final=fs[-1], f_initial=fs[0],
                       converged=True, stop_reason="converged",
                       iterations=recs)


class TestSeriesAudit:
    def test_one_step_trace_sums_near_zero(self):
        obj = build(ProblemSpec("sep", 5, 2, {"A": make_psd(5, 5, 0.2)}))
        rep = nepv_scf(obj, random_stiefel(5, 2, 0))
        out = series_audit(rep, "nepv")
        assert out["ok"]

    def test_bounded_on_long_mbsub_trace(self):
        n, k = 20, 2
        rng = np.random.default_rng(6)
        obj = build(ProblemSpec("mbsub", n, k, {
            "A": make_psd(n, 60), "D": rng.standard_normal((n, k))}))
        rep = npdo_scf(obj, random_stiefel(n, k, 1))
        assert rep.converged
        out = series_audit(rep, "npdo")
        assert out["ok"]
        assert out["sum_angles"] <= out["bound"]
        assert out["sum_residuals"] <= out["bound"]

    def test_oscillating_trace_fails(self):
        # Negative control: an oscillating f must trip both the
        # monotonicity check and the partial-sum bound.
        fs = [0.0] + [1.0 if i % 2 == 0 else 0.2 for i in range(10)]
        rep = synthetic_report(fs)
        out = series_audit(rep, "npdo")
        assert not out["ok"]
        assert not out["monotone"]
        assert out["sum_angles"] > out["bound"]
        mono = monotonicity_audit(rep)
        assert not mono["ok"]
        assert mono["worst_violation"] > 0.5

    def test_rejects_unknown_framework(self):
        with pytest.raises(ValueError):
            series_audit(synthetic_report([0.0, 1.0]), "foo")


class TestThetaStepAudit:
    def run_family(self, theta, seed, n=8, k=2):
        rng = np.random.default_rng(seed)
        mats = {"B": make_psd(n, seed + 1, 1.0)}
        if theta == 1.0:
            mats["A"] = make_psd(n, seed + 2)
            fam, kw = "olda", {}
        elif theta == 0.5:
            mats["D"] = rng.standard_normal((n, k))
            fam, kw = "occa", {}
        else:
            mats["A"] = make_psd(n, seed + 2)
            mats["D"] = rng.standard_normal((n, k))
            fam, kw = "theta_tr", {"theta": theta}
        obj = build(ProblemSpec(fam, n, k, mats, **kw))
        rep = nepv_scf(obj, random_stiefel(n, k, seed))
        return obj, rep

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_ratio_families_pass(self, theta):
        for seed in range(3):
            obj, rep = self.run_family(theta, seed)
            td = obj.theta_data
            out = theta_step_audit(rep, td.B, td.D, td.theta)
            assert out["ok"], out

    def test_theta_zero_reduces_to_plain_gain_bound(self):
        # theta = 0 via the ratio family is the additive subproblem.
        n, k = 7, 2
        rng = np.random.default_rng(9)
        obj = build(ProblemSpec("theta_tr", n, k, {
            "A": make_psd(n, 90), "B": make_psd(n, 91, 1.0),
            "D": rng.standard_normal((n, k))}, theta=0.0))
        rep = nepv_scf(obj, random_stiefel(n, k, 2))
        out = theta_step_audit(rep, obj.theta_data.B, obj.theta_data.D, 0.0)
        assert out["ok"]
        assert out["worst_slack"] >= -1e-8

    def test_olda_d_term_vanishes(self):
        obj, rep = self.run_family(1.0, 4)
        assert all(abs(r.d_trace_norm) <= 1e-12 for r in rep.iterations)

    def test_non_ratio_trace_rejected(self):
        obj = build(ProblemSpec("sep", 5, 2, {"A": make_psd(5, 11, 0.3)}))
        rep = nepv_scf(obj, random_stiefel(5, 2, 0))
        with pytest.raises(ValueError, match="ratio"):
            theta_step_audit(rep, np.eye(5), np.zeros((5, 2)), 0.5)
