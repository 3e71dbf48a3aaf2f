"""The shared SCF loop: each step function equals iteration 0 of its solver,
the steps' stop rules, the report as the only channel, the products one
iteration forms, and ascent."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelscf import objective
from stiefelscf.kernels import random_stiefel
from stiefelscf.nepv import NepvConfig, nepv_locg, nepv_scf, nepv_scf_step
from stiefelscf.npdo import (
    MONOTONE_SLACK,
    STAGNATION_LIMIT,
    NpdoConfig,
    _Step,
    npdo_locg,
    npdo_scf,
    npdo_scf_step,
    project_feasible,
)
from stiefelscf.problems import FAMILIES as CATALOG
from stiefelscf.problems import ProblemSpec, build


def make_psd(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T / n + shift * np.eye(n)


def family_spec(family, n=9, k=3):
    rng = np.random.default_rng(40)
    A, D = make_psd(n, 41), rng.standard_normal((n, k))
    if family == "sep":
        return ProblemSpec(family, n, k, {"A": A})
    if family in ("mbsub", "quad_lin2"):
        return ProblemSpec(family, n, k, {"A": A, "D": D})
    if family == "sumct":
        return ProblemSpec(family, n, k, {
            "A_list": [A, make_psd(n, 42)],
            "D_list": [D[:, :2], D[:, 2:]]}, blocks=((0, 1), (2,)))
    if family == "occa":
        return ProblemSpec(family, n, k, {"B": make_psd(n, 43, 1.0), "D": D})
    return ProblemSpec(family, n, k, {"A": A, "B": make_psd(n, 43, 1.0),
                                      "D": D}, theta=0.3)


FAMILIES = ["sep", "mbsub", "sumct", "quad_lin2", "occa", "theta_tr"]
ROUTES = {
    "npdo": (npdo_scf_step, npdo_scf, NpdoConfig),
    "nepv": (nepv_scf_step, nepv_scf, NepvConfig),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("family", FAMILIES)
def test_step_is_iteration_zero(family, route):
    step_fn, solve, cfg_cls = ROUTES[route]
    obj = build(family_spec(family))
    P = project_feasible(obj, random_stiefel(obj.n, obj.k, 5))
    P_next, rec = step_fn(obj, P)
    report = solve(obj, P, cfg_cls(max_iter=1))
    assert report.num_iterations == 1
    assert np.array_equal(P_next, report.point)
    assert rec == report.iterations[0]


def test_only_flat_steps_count_as_stagnant():
    falling = _Step()
    f = 1e6
    for _ in range(STAGNATION_LIMIT):
        assert falling.done(f, f - 1.0) is None
        f -= 1.0
    flat = _Step()
    reasons = [flat.done(1.0, 1.0) for _ in range(STAGNATION_LIMIT)]
    assert reasons == [None] * (STAGNATION_LIMIT - 1) + ["stagnated"]


def report_only_case(case):
    # A budget-exhausting solve, a field with lambda_k = lambda_{k+1}, and a
    # ratio whose numerator tr(P'AP + P'D) is negative on the whole manifold.
    if case == "budget":
        return build(family_spec("mbsub")), NpdoConfig(tol=1e-15, max_iter=2)
    if case == "gap":
        A = np.diag([3.0, 1.0, 1.0, 0.0])
        return build(ProblemSpec("sep", 4, 2, {"A": A})), NpdoConfig(max_iter=3)
    n = 6
    D = 0.01 * np.random.default_rng(50).standard_normal((n, 2))
    B = np.eye(n) + 1e-3 * make_psd(n, 51)
    A = -np.diag(np.arange(1.0, n + 1))
    obj = build(ProblemSpec("theta_tr", n, 2, {"A": A, "B": B, "D": D},
                            theta=0.5))
    return obj, NpdoConfig(max_iter=5)


@pytest.mark.parametrize("case", ["budget", "gap", "sign"])
def test_solves_report_without_warnings(case):
    # What a solve knows about its budget, the eigenvalue gap and the ratio
    # sign condition reaches the caller through the report alone.
    obj, cfg = report_only_case(case)
    P0 = random_stiefel(obj.n, obj.k, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = {solve.__name__: solve(obj, P0, cfg)
                   for solve in (npdo_scf, npdo_locg, nepv_scf, nepv_locg)}
        steps = {step.__name__: step(obj, project_feasible(obj, P0))[1]
                 for step in (npdo_scf_step, nepv_scf_step)}
    if case == "budget":
        for report in reports.values():
            assert report.stop_reason == "max_iter" and not report.converged
    eigen_records = reports["nepv_scf"].iterations + [steps["nepv_scf_step"]]
    flag = {"gap": "gap_degenerate", "sign": "sign_violated"}.get(case)
    if flag is not None:
        assert all(getattr(rec, flag) for rec in eigen_records)
    for name in ("npdo_scf", "npdo_locg"):
        assert not any(rec.gap_degenerate or rec.sign_violated
                       for rec in reports[name].iterations)


def test_locg_records_carry_the_inner_flags():
    # On range([P, grad]) = R^4 the reduced field has eigenvalues 3, 1, 1, 0,
    # so the inner solve's record is degenerate; the outer record says so.
    obj = build(ProblemSpec("sep", 4, 2, {"A": np.diag([3.0, 1.0, 1.0, 0.0])}))
    report = nepv_locg(obj, random_stiefel(4, 2, 0))
    assert report.converged and report.iterations
    assert report.iterations[0].gap_degenerate
    assert not report.iterations[0].sign_violated


@pytest.mark.parametrize("solve", [nepv_scf, nepv_locg])
def test_no_full_decomposition_of_the_field(solve, monkeypatch):
    # The eigenvector step needs only the top k+1 eigenpairs of the n x n
    # field, and the exit certificates only its eigenvalues: no full eigh,
    # SVD or spectral norm of an n x n matrix during a solve.
    n = 60
    obj = build(family_spec("mbsub", n=n, k=3))
    full = []

    def counting(name, real, spectral_only=False):
        def wrapper(a, *args, **kwargs):
            ord_ = args[0] if args else kwargs.get("ord")
            if np.shape(a) == (n, n) and (not spectral_only or ord_ == 2):
                full.append(name)
            return real(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, counting(
            name, getattr(np.linalg, name), spectral_only=name == "norm"))
    report = solve(obj, random_stiefel(n, 3, 5), NepvConfig())
    assert report.converged and report.num_iterations >= 1
    assert full == []


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("family", ["sep", "mbsub"])
def test_one_product_per_quadratic_term_per_iteration(family, route,
                                                       monkeypatch):
    # Every full-size A P product of a solve, counted at the one helper
    # that forms them: one per iteration (the evaluation at the new point,
    # which the next residual, step and alignment reuse), plus at most two
    # at the start (feasibility test and projection) and none for the exit
    # certificates.
    obj = build(family_spec(family, n=30, k=3))
    quad = sum(t.kind == "quadratic" for t in obj.terms)
    products = []
    real = objective._atom

    def counting(term, P_i):
        if term.kind == "quadratic" and term.matrix.shape[0] == obj.n:
            products.append(term)
        return real(term, P_i)

    monkeypatch.setattr(objective, "_atom", counting)
    _, solve, cfg_cls = ROUTES[route]
    report = solve(obj, random_stiefel(obj.n, obj.k, 5), cfg_cls())
    iters = report.num_iterations
    assert report.converged and iters >= 1
    assert quad * iters <= len(products) <= quad * (iters + 2)


def random_catalog_spec(family, n, k, rng, theta):
    def psd(shift=0.0):
        G = rng.standard_normal((n, n))
        return G @ G.T / n + shift * np.eye(n)

    D = rng.standard_normal((n, k))
    if family in ("sep", "dft"):
        extra = {} if family == "sep" else dict(phi="quad_penalty",
                                                 phi_weight=0.25)
        return ProblemSpec(family, n, k, {"A": psd()}, **extra)
    if family in ("mbsub", "quad_lin2"):
        return ProblemSpec(family, n, k, {"A": psd(), "D": D})
    if family == "sumct":
        blocks = ((0,), tuple(range(1, k))) if k > 1 else ((0,),)
        return ProblemSpec(family, n, k, {
            "A_list": [psd() for _ in blocks],
            "D_list": [D[:, list(b)] for b in blocks]}, blocks=blocks)
    if family in ("umds", "trcp"):
        extra = {} if family == "umds" else dict(phi="quad_penalty",
                                                 phi_weight=0.5)
        return ProblemSpec(family, n, k, {"A_list": [psd(), psd()]}, **extra)
    if family == "procrustes":
        return ProblemSpec(family, n, k, {
            "C": rng.standard_normal((n + 3, n)),
            "B": rng.standard_normal((n + 3, k))})
    if family == "olda":
        return ProblemSpec(family, n, k, {"A": psd(), "B": psd(1.0)})
    if family == "occa":
        return ProblemSpec(family, n, k, {"B": psd(1.0), "D": D})
    if family == "theta_tr_sq":
        theta *= 0.5
    return ProblemSpec(family, n, k, {"A": psd(0.3), "B": psd(1.0),
                                      "D": 0.5 * D}, theta=theta)


@pytest.mark.parametrize("family", CATALOG)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 20),
       k=st.integers(1, 3), theta=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_declared_ascent_holds_on_random_psd_instances(family, seed, n, k,
                                                       theta):
    # Every route a family declares monotone records a non-decreasing f,
    # from the projected start on, within MONOTONE_SLACK.
    rng = np.random.default_rng(seed)
    obj = build(random_catalog_spec(family, n, k, rng, theta))
    P0 = random_stiefel(n, k, seed)
    for route, declared in (("npdo", obj.npdo_monotone),
                            ("nepv", obj.nepv_monotone)):
        if not declared:
            continue
        _, solve, cfg_cls = ROUTES[route]
        report = solve(obj, P0, cfg_cls(max_iter=300))
        fs = [report.f_initial] + [r.f for r in report.iterations]
        for i, (f, f_next) in enumerate(zip(fs, fs[1:])):
            assert f_next >= f - MONOTONE_SLACK * max(1.0, abs(f)), (
                f"{family}/{route} step {i}: {f!r} -> {f_next!r}")
