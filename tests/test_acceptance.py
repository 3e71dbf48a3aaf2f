"""Acceptance suite: one test per criterion, one printed line per criterion.

Each criterion pins its tolerance here; nothing is deferred to calibration.
The shared solver runs (criteria 4, 5, 8) are produced once per session.
"""

import numpy as np
import pytest

import stiefelscf as ss
from stiefelscf import cli
from stiefelscf.alignment import PolarAlignment
from stiefelscf.kernels import polar_factor, random_stiefel, sym_part, trace_norm
from stiefelscf.npdo import IterationRecord, SolveReport
from stiefelscf.objective import AtomicTerm, ComposedObjective, outer_sum

MONOTONE_SLACK = 1e-12
RESIDUAL_TOL = 1e-8
MAX_ITER = 5000


def make_psd(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T / n + shift * np.eye(n)


def make_sym(n, seed):
    return sym_part(np.random.default_rng(seed).standard_normal((n, n)))


def ok(num, name):
    print(f"ACCEPTANCE {num:>2}: PASS  {name}")


# --------------------------------------------------------------------------
# Shared instance suite for criteria 4, 5 and 8.
# --------------------------------------------------------------------------

def _suite_instances():
    """(name, objective, solver names) for every guaranteed family/solver."""
    out = []

    def add(name, obj, solvers):
        out.append((name, obj, solvers))

    rng = np.random.default_rng(1234)

    n, k = 20, 3
    add("mbsub-psd", ss.build(ss.ProblemSpec("mbsub", n, k, {
        "A": make_psd(n, 10), "D": rng.standard_normal((n, k))})),
        ("npdo", "npdo-locg", "nepv", "nepv-locg"))

    n, k = 16, 2
    add("mbsub-indefinite", ss.build(ss.ProblemSpec("mbsub", n, k, {
        "A": make_sym(n, 11), "D": rng.standard_normal((n, k))})),
        ("nepv", "nepv-locg"))

    n, k = 14, 4
    add("sumct", ss.build(ss.ProblemSpec("sumct", n, k, {
        "A_list": [make_psd(n, 12), make_psd(n, 13)],
        "D_list": [rng.standard_normal((n, 2)), rng.standard_normal((n, 2))]},
        blocks=((0, 1), (2, 3)))),
        ("npdo", "npdo-locg", "nepv"))

    n, k = 10, 2
    for theta in (0.0, 0.3, 0.5, 1.0):
        mats = {"A": make_psd(n, 14, 0.3), "B": make_psd(n, 15, 1.0),
                "D": 0.5 * rng.standard_normal((n, k))}
        solvers = ("nepv", "nepv-locg") if theta in (0.0, 1.0) else ("nepv",)
        add(f"theta-{theta}", ss.build(ss.ProblemSpec(
            "theta_tr", n, k, mats, theta=theta)), solvers)

    add("occa", ss.build(ss.ProblemSpec("occa", n, k, {
        "B": make_psd(n, 16, 1.0), "D": rng.standard_normal((n, k))})),
        ("nepv", "nepv-locg"))

    add("olda", ss.build(ss.ProblemSpec("olda", n, k, {
        "A": make_psd(n, 17), "B": make_psd(n, 18, 1.0)})),
        ("nepv", "nepv-locg"))

    add("umds", ss.build(ss.ProblemSpec("umds", n, k, {
        "A_list": [make_psd(n, 19), make_psd(n, 20)]})),
        ("npdo", "nepv"))

    add("trcp", ss.build(ss.ProblemSpec("trcp", n, k, {
        "A_list": [make_psd(n, 21), make_psd(n, 22)]},
        phi="quad_penalty", phi_weight=0.5)),
        ("npdo", "nepv"))

    n, k = 8, 2
    add("dft", ss.build(ss.ProblemSpec("dft", n, k, {
        "A": make_psd(n, 23)}, phi="quad_penalty", phi_weight=0.25)),
        ("npdo", "nepv"))

    n, k = 10, 2
    add("quad-lin2-psd", ss.build(ss.ProblemSpec("quad_lin2", n, k, {
        "A": make_psd(n, 24), "D": rng.standard_normal((n, k))})),
        ("npdo", "npdo-locg", "nepv"))

    add("quad-lin2-indefinite", ss.build(ss.ProblemSpec("quad_lin2", n, k, {
        "A": make_sym(n, 25), "D": rng.standard_normal((n, k))})),
        ("nepv", "nepv-locg"))

    return out


SOLVER_FNS = {
    "npdo": (ss.npdo_scf, ss.NpdoConfig),
    "npdo-locg": (ss.npdo_locg, ss.NpdoConfig),
    "nepv": (ss.nepv_scf, ss.NepvConfig),
    "nepv-locg": (ss.nepv_locg, ss.NepvConfig),
}


@pytest.fixture(scope="module")
def suite_runs():
    runs = []
    for name, obj, solvers in _suite_instances():
        for solver in solvers:
            fn, cfg_cls = SOLVER_FNS[solver]
            cfg = cfg_cls(tol=RESIDUAL_TOL, max_iter=MAX_ITER)
            rep = fn(obj, random_stiefel(obj.n, obj.k, 99), cfg)
            runs.append((name, solver, obj, rep))
    return runs


# --------------------------------------------------------------------------
# Criterion 1: gradient oracle for every atomic kind and every family.
# --------------------------------------------------------------------------

def _fd_error_at(obj, P, h=1e-6):
    G = obj.euclidean_grad(P)
    FD = np.zeros_like(G)
    for i in range(obj.n):
        for j in range(obj.k):
            E = np.zeros((obj.n, obj.k))
            E[i, j] = h
            FD[i, j] = (obj.value(P + E) - obj.value(P - E)) / (2 * h)
    return np.linalg.norm(FD - G) / max(1.0, np.linalg.norm(G))


def _atom_objectives(n=6, k=2):
    rng = np.random.default_rng(42)
    D = rng.standard_normal((n, k))
    A_psd = make_psd(n, 43, 0.4)
    A_ind = make_sym(n, 44)
    for m in (1, 2, 3):
        for s in (1.0, 2.0, 1.5):
            align = PolarAlignment(D) if s > 1.0 else PolarAlignment(blocks=())
            yield f"linear-m{m}-s{s}", ComposedObjective(
                n, k, (AtomicTerm.linear(D, m=m, s=s),), outer_sum(1),
                alignment=align), s > 1.0
    for m in (1, 2):
        for s in (1.0, 2.0, 1.5):
            A = A_ind if (m == 1 and s == 1.0) else A_psd
            yield f"quadratic-m{m}-s{s}", ComposedObjective(
                n, k, (AtomicTerm.quadratic(A, m=m, s=s),), outer_sum(1)), False


def _family_objectives(n=7, k=2, seed=0):
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((n, k))
    A = make_psd(n, seed + 1)
    B = make_psd(n, seed + 2, 1.0)
    yield "sep", ss.build(ss.ProblemSpec("sep", n, k, {"A": A}))
    yield "mbsub", ss.build(ss.ProblemSpec("mbsub", n, k, {"A": A, "D": D}))
    yield "mbsub-ind", ss.build(ss.ProblemSpec("mbsub", n, k,
                                               {"A": make_sym(n, 3), "D": D}))
    yield "sumct", ss.build(ss.ProblemSpec("sumct", n, k, {
        "A_list": [A, make_psd(n, seed + 3)],
        "D_list": [D[:, :1], D[:, 1:]]}, blocks=((0,), (1,))))
    for theta in (0.0, 0.3, 0.5, 1.0):
        yield f"theta-{theta}", ss.build(ss.ProblemSpec(
            "theta_tr", n, k, {"A": A, "B": B, "D": D}, theta=theta))
    yield "olda", ss.build(ss.ProblemSpec("olda", n, k, {"A": A, "B": B}))
    yield "occa", ss.build(ss.ProblemSpec("occa", n, k, {"B": B, "D": D}))
    yield "theta-sq", ss.build(ss.ProblemSpec(
        "theta_tr_sq", n, k, {"A": A, "B": B, "D": D}, theta=0.25))
    yield "umds", ss.build(ss.ProblemSpec("umds", n, k,
                                          {"A_list": [A, make_psd(n, seed + 4)]}))
    yield "trcp", ss.build(ss.ProblemSpec("trcp", n, k,
                                          {"A_list": [A, make_psd(n, seed + 5)]},
                                          phi="quad_penalty", phi_weight=0.5))
    yield "dft", ss.build(ss.ProblemSpec("dft", n, k, {"A": A},
                                         phi="quad_penalty", phi_weight=0.25))
    yield "quad-lin2", ss.build(ss.ProblemSpec("quad_lin2", n, k,
                                               {"A": A, "D": D}))
    yield "procrustes", ss.build_procrustes_ls(
        rng.standard_normal((n + 2, n)), rng.standard_normal((n + 2, k)))


def feasible_start(obj, P):
    # The start a solve takes from P: P brought into the feasible subset.
    return ss.npdo_scf(obj, P, ss.NpdoConfig(max_iter=0)).point


def test_criterion_1_gradient_oracle():
    for name, obj, needs_feasible in _atom_objectives():
        for t in range(20):
            P = random_stiefel(obj.n, obj.k, 500 + t)
            if needs_feasible:
                P = feasible_start(obj, P)
            assert _fd_error_at(obj, P) <= 1e-6, name
    for name, obj in _family_objectives():
        assert ss.gradient_check(obj, trials=20, seed=7) <= 1e-6, name
    ok(1, "analytic gradients match central differences (1e-6)")


# --------------------------------------------------------------------------
# Criterion 2: Euler identities tr(P'grad) = s m f and 2 s m f.
# --------------------------------------------------------------------------

def test_criterion_2_euler_identities():
    n, k = 6, 2
    rng = np.random.default_rng(2)
    D = rng.standard_normal((n, k))
    A = make_psd(n, 52, 0.4)
    for m in (1, 2, 3):
        for s in (1.0, 2.0, 1.5):
            term = AtomicTerm.linear(D, m=m, s=s)
            obj = ComposedObjective(n, k, (term,), outer_sum(1),
                                    alignment=PolarAlignment(D))
            for t in range(100):
                P = random_stiefel(n, k, 900 + t)
                if s != 1.0:
                    P = feasible_start(obj, P)
                val = ss.eval_atomic(term, P)
                lhs = float(np.trace(P.T @ ss.grad_atomic(term, P)))
                assert lhs == pytest.approx(s * m * val, rel=1e-10, abs=1e-10)
    for m in (1, 2):
        for s in (1.0, 2.0, 1.5):
            term = AtomicTerm.quadratic(A, m=m, s=s)
            for t in range(100):
                P = random_stiefel(n, k, 1900 + t)
                val = ss.eval_atomic(term, P)
                lhs = float(np.trace(P.T @ ss.grad_atomic(term, P)))
                assert lhs == pytest.approx(2 * s * m * val, rel=1e-10, abs=1e-10)
    ok(2, "Euler identities hold to 1e-10")


# --------------------------------------------------------------------------
# Criterion 3: closed-form one-step convergence.
# --------------------------------------------------------------------------

def test_criterion_3_one_step_closed_forms():
    rng = np.random.default_rng(3)
    D = rng.standard_normal((9, 3))
    lin = ComposedObjective(9, 3, (AtomicTerm.linear(D),), outer_sum(1),
                            alignment=ss.PolarAlignment(),
                            npdo_monotone=True)
    rep = ss.npdo_scf(lin, random_stiefel(9, 3, 0))
    assert rep.converged and rep.num_iterations == 1
    assert abs(rep.f_final - trace_norm(D)) <= 1e-10

    A = make_psd(8, 53, 0.2)
    sep = ss.build(ss.ProblemSpec("sep", 8, 3, {"A": A}))
    rep = ss.nepv_scf(sep, random_stiefel(8, 3, 1))
    w = np.sort(np.linalg.eigvalsh(A))[::-1]
    assert rep.converged and rep.num_iterations == 1
    assert abs(rep.f_final - w[:3].sum()) <= 1e-10
    ok(3, "one-step closed forms reach ||D||_tr and S_k(A) (1e-10)")


# --------------------------------------------------------------------------
# Criteria 4, 5, 8 on the shared instance suite.
# --------------------------------------------------------------------------

def test_criterion_4_monotonicity(suite_runs):
    for name, solver, obj, rep in suite_runs:
        fs = [rep.f_initial] + [r.f for r in rep.iterations]
        for a, b in zip(fs, fs[1:]):
            assert b >= a - MONOTONE_SLACK * max(1.0, abs(a)), (
                f"{name}/{solver}: {a} -> {b}")
    ok(4, "every SCF and LOCG step ascends (1e-12 slack)")


def test_criterion_5_convergence_and_certificates(suite_runs):
    for name, solver, obj, rep in suite_runs:
        label = f"{name}/{solver}"
        assert rep.converged and rep.num_iterations <= MAX_ITER, label
        c = (ss.npdo_certificates if solver.startswith("npdo")
             else ss.nepv_certificates)(obj, rep.point)
        if solver.startswith("npdo"):
            assert c["lambda_min_of_multiplier"] >= -1e-8 * max(
                c["multiplier_norm"], 1e-300), label
            assert c["eps_sym"] <= 1e-8, label
        else:
            assert c["omega_vs_topk_max_dev"] <= 1e-6 * max(
                c["field_norm"], 1e-300), label
            assert c["mismatch_asymmetry"] <= 1e-6, label
        if "alignment_psd_margin" in c:
            assert c["alignment_psd_margin"] >= -1e-8 * max(
                c["alignment_matrix_norm"], 1.0), label
    ok(5, "all instances converge (<=1e-8) with exit certificates")


def test_criterion_8_series_audit(suite_runs):
    audited = 0
    for name, solver, obj, rep in suite_runs:
        if solver not in ("npdo", "nepv"):
            continue
        out = ss.series_audit(rep, solver)
        assert out["ok"], f"{name}/{solver}: {out}"
        assert out["sum_angles"] <= out["bound"]
        assert out["sum_residuals"] <= out["bound"]
        audited += 1
    assert audited >= 10
    ok(8, "weighted series bounded by 2(f_final - f_0) + 1e-8")


# --------------------------------------------------------------------------
# Criterion 6: multi-start solver best vs brute-force oracle.
# --------------------------------------------------------------------------

def _oracle_instances(n=4, k=1):
    for i in range(10):
        rng = np.random.default_rng(3000 + i)
        yield "mbsub", ss.build(ss.ProblemSpec("mbsub", n, k, {
            "A": make_sym(n, 600 + i), "D": rng.standard_normal((n, k))}))
        yield "quad-lin2", ss.build(ss.ProblemSpec("quad_lin2", n, k, {
            "A": make_psd(n, 700 + i), "D": rng.standard_normal((n, k))}))
        yield "procrustes", ss.build_procrustes_ls(
            rng.standard_normal((n + 1, n)), rng.standard_normal((n + 1, k)))


def test_criterion_6_oracle_agreement():
    cfg = ss.NepvConfig(tol=1e-9, max_iter=600)
    for name, obj in _oracle_instances():
        oracle_f, _ = ss.brute_force_oracle(obj, budget=2000, seed=0)
        best = -np.inf
        for r in range(100):
            rep = ss.nepv_scf(obj, random_stiefel(obj.n, obj.k, r), cfg)
            best = max(best, rep.f_final)
        assert abs(best - oracle_f) <= 1e-6, (name, best, oracle_f)
    ok(6, "multi-start best within 1e-6 of brute-force oracle")


# --------------------------------------------------------------------------
# Criterion 7: per-step ratio-ascent inequality audit.
# --------------------------------------------------------------------------

def test_criterion_7_theta_step_audit():
    n, k = 8, 2
    for theta in (0.0, 0.5, 1.0):
        for seed in range(5):
            rng = np.random.default_rng(4000 + seed)
            obj = ss.build(ss.ProblemSpec("theta_tr", n, k, {
                "A": make_psd(n, 800 + seed, 0.3),
                "B": make_psd(n, 900 + seed, 1.0),
                "D": 0.5 * rng.standard_normal((n, k))}, theta=theta))
            rep = ss.nepv_scf(obj, random_stiefel(n, k, seed))
            out = ss.theta_step_audit(rep, obj.theta_data.B,
                                      obj.theta_data.D, theta)
            assert out["worst_slack"] >= -1e-8, (theta, seed, out)
    ok(7, "refined ratio-ascent inequality holds per step (-1e-8)")


# --------------------------------------------------------------------------
# Criterion 9: subspace acceleration beats plain SCF on a slow instance.
# --------------------------------------------------------------------------

def test_criterion_9_locg_acceleration():
    n, k = 50, 2
    vals = np.concatenate([[1.5, 1.0], np.linspace(0.99, 0.01, n - 2)])
    Q, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((n, n)))
    A = sym_part(Q @ np.diag(vals) @ Q.T)
    P0 = random_stiefel(n, k, 6)

    sep = ss.build(ss.ProblemSpec("sep", n, k, {"A": A}))
    plain = ss.npdo_scf(sep, P0)
    fast = ss.npdo_locg(sep, P0)
    assert plain.converged and fast.converged
    assert fast.num_iterations < plain.num_iterations

    # The eigenvector solver resolves the plain eigenvalue objective in one
    # shot (its composition field 2A does not depend on P), so its
    # head-to-head uses the generic P-dependent field, which belongs to sep
    # written as a sum of one-column traces tr(p_j'Ap_j).
    sep_gen = ComposedObjective(
        n, k, tuple(AtomicTerm.quadratic(A, cols=(j,)) for j in range(k)),
        outer_sum(k), nepv_monotone=True)
    plain_n = ss.nepv_scf(sep_gen, P0)
    fast_n = ss.nepv_locg(sep_gen, P0)
    assert plain_n.converged and fast_n.converged
    assert fast_n.num_iterations < plain_n.num_iterations
    for rep in (plain, fast, plain_n, fast_n):
        assert rep.f_final == pytest.approx(2.5, abs=1e-6)
    ok(9, "subspace acceleration uses strictly fewer outer iterations")


# --------------------------------------------------------------------------
# Criterion 10: metric lifting round trip.
# --------------------------------------------------------------------------

def test_criterion_10_metric_lifting():
    n, k = 8, 2
    M = make_psd(n, 60, 1.0)
    obj = ss.build(ss.ProblemSpec("mbsub", n, k, {
        "A": make_psd(n, 61), "D": np.random.default_rng(62).standard_normal((n, k))}))
    lifted, lift = ss.lift_m_orthogonal(obj, M)
    rep = ss.nepv_scf(lifted, random_stiefel(n, k, 0),
                      ss.NepvConfig(tol=1e-9))
    assert rep.converged
    P = lift.backward(rep.point)
    assert ss.m_orthogonality_drift(P, M) <= 1e-10
    assert ss.generalized_kkt_residual(obj, M, P) <= 1e-7
    ok(10, "metric lifting preserves P'MP = I (1e-10), residual <= 1e-7")


# --------------------------------------------------------------------------
# Criterion 11: least-squares identity and the square closed form.
# --------------------------------------------------------------------------

def test_criterion_11_procrustes_identity():
    rng = np.random.default_rng(70)
    C = rng.standard_normal((9, 6))
    B = rng.standard_normal((9, 2))
    obj = ss.build_procrustes_ls(C, B)
    offset = np.linalg.norm(B) ** 2

    def check(i, P):
        lhs = np.linalg.norm(C @ P - B) ** 2 + obj.value(P)
        assert abs(lhs - offset) <= 1e-9 * max(1.0, abs(offset))

    rep = ss.nepv_scf(obj, random_stiefel(6, 2, 0), callback=check)
    assert rep.converged and rep.iterations

    # Square case: the orthogonal fit has the polar-factor closed form.
    C4 = rng.standard_normal((4, 4))
    B4 = rng.standard_normal((4, 4))
    obj4 = ss.build_procrustes_ls(C4, B4)
    best = np.inf
    for r in range(5):
        rep4 = ss.nepv_scf(obj4, random_stiefel(4, 4, r))
        best = min(best, np.linalg.norm(C4 @ rep4.point - B4))
    P_star = polar_factor(C4.T @ B4).orthogonal_factor
    closed = np.linalg.norm(C4 @ P_star - B4)
    assert best == pytest.approx(closed, abs=1e-6)
    ok(11, "least-squares identity exact per iterate; square closed form met")


# --------------------------------------------------------------------------
# Criterion 12: negative control.
# --------------------------------------------------------------------------

def test_criterion_12_negative_control():
    fs = [0.0] + [1.0 if i % 2 == 0 else 0.2 for i in range(10)]
    recs = [IterationRecord(i, f, eps_kkt=0.5, eps_sym=0.0, eps_nepv=0.5,
                            sigma_min=1.0, gap=1.0, step_angle=1.0)
            for i, f in enumerate(fs[1:])]
    rep = SolveReport(point=np.eye(2), f_final=fs[-1], f_initial=fs[0],
                      converged=True, stop_reason="converged", iterations=recs)
    for framework in ("npdo", "nepv"):
        out = ss.series_audit(rep, framework)
        assert not out["ok"]
        assert not out["monotone"]
        assert out["sum_angles"] > out["bound"]
    mono = ss.monotonicity_audit(rep)
    assert not mono["ok"] and mono["worst_violation"] > 0.0
    assert cli.exit_code(converged=True, audits_ok=False) == cli.EXIT_AUDIT == 3
    ok(12, "oscillating trace fails the audits (exit 3)")
