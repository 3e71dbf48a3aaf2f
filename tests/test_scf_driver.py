"""The shared SCF loop: a one-iteration solve is iteration 0 of a longer one,
the steps' stop rules, the report as the only channel, the products one
iteration forms, ascent as a stop reason that holds with or without
``python -O``, and the structural transforms the subspace step and metric
lifting rest on."""

import ast
import dataclasses
import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelscf import kernels, nepv, npdo, objective
from stiefelscf.alignment import _aligned
from stiefelscf.kernels import orthonormalize_against, random_stiefel
from stiefelscf.nepv import (
    NepvConfig,
    nepv_certificates,
    nepv_locg,
    nepv_residual,
    nepv_scf,
)
from stiefelscf.npdo import (
    MONOTONE_SLACK,
    STAGNATION_LIMIT,
    NpdoConfig,
    _scf,
    kkt_residuals,
    npdo_locg,
    npdo_scf,
)
from stiefelscf.objective import PointEvaluation
from stiefelscf.problems import FAMILIES as CATALOG
from stiefelscf.problems import ProblemSpec, build, lift_m_orthogonal

SRC = Path(__file__).resolve().parent.parent / "src"


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
ROUTES = {"npdo": (npdo_scf, NpdoConfig), "nepv": (nepv_scf, NepvConfig)}
ACCELERATED = {"npdo": npdo_locg, "nepv": nepv_locg}


def one_step(solve, obj, P):
    # The landed point and record of one plain step from a feasible P: a
    # one-iteration solve with a tolerance no residual meets.
    report = solve(obj, P, NpdoConfig(tol=1e-300, max_iter=1))
    return report.point, report.iterations[0]


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("family", FAMILIES)
def test_step_is_iteration_zero(family, route):
    # A one-iteration solve, which the tests here take as one step, lands
    # where iteration 0 of a longer solve from the same start lands, with
    # the same record: the budget does not change the first step.
    solve, cfg_cls = ROUTES[route]
    obj = build(family_spec(family))
    P0 = random_stiefel(obj.n, obj.k, 5)
    landed = []
    longer = solve(obj, P0, cfg_cls(max_iter=3),
                   lambda i, P: landed.append(P))
    report = solve(obj, P0, cfg_cls(max_iter=1))
    assert report.num_iterations == 1 and longer.num_iterations >= 1
    assert np.array_equal(report.point, landed[0])
    assert report.iterations[0] == longer.iterations[0]


class _Scripted:
    # A step kind that never meets tol and records a scripted f on each
    # step, staying at the point it was handed.
    name, monotone = "scripted", False

    def __init__(self, fs):
        self.fs = iter(fs)

    def residual(self, at):
        return 1.0, None

    def step(self, at, f, res, ctx):
        return at, {"f": next(self.fs)}


def test_only_flat_steps_count_as_stagnant():
    # The driver counts consecutive flat steps: falling steps never stop a
    # solve, and STAGNATION_LIMIT flat ones in a row stop it "stagnated",
    # a falling step in between starting the count again.
    obj = build(family_spec("sep"))
    P0 = random_stiefel(obj.n, obj.k, 0)
    f0 = npdo_scf(obj, P0, NpdoConfig(max_iter=0)).f_initial
    budget = NpdoConfig(max_iter=3 * STAGNATION_LIMIT)
    falling = _scf(obj, P0, budget, _Scripted(
        f0 - 1.0 - i for i in range(3 * STAGNATION_LIMIT)))
    assert falling.stop_reason == "max_iter"
    assert falling.num_iterations == 3 * STAGNATION_LIMIT
    flat = _scf(obj, P0, budget, _Scripted([f0] * (3 * STAGNATION_LIMIT)))
    assert flat.stop_reason == "stagnated" and not flat.converged
    assert flat.num_iterations == STAGNATION_LIMIT
    broken = [f0] * (STAGNATION_LIMIT - 1) + [f0 - 1.0] * (
        2 * STAGNATION_LIMIT + 1)
    restarted = _scf(obj, P0, budget, _Scripted(broken))
    assert restarted.stop_reason == "stagnated"
    assert restarted.num_iterations == 2 * STAGNATION_LIMIT


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
    if case == "budget":
        for report in reports.values():
            assert report.stop_reason == "max_iter" and not report.converged
    eigen_records = reports["nepv_scf"].iterations
    assert eigen_records
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


def library_nodes():
    # Every AST node of the library's modules, with its module's path.
    for path in sorted((SRC / "stiefelscf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def test_no_check_vanishes_under_python_O():
    # `python -O` strips assert statements and `if __debug__` blocks, so a
    # check written that way would make -O select a second program.
    found = [f"{path.name}:{node.lineno}" for path, node in library_nodes()
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert found == []


def test_library_raises_no_warnings():
    # A guarantee is declared by the objective's monotone flags and a solve
    # reports through its SolveReport, so no library code imports warnings.
    found = []
    for path, node in library_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if (any(m.split(".")[0] == "warnings" for m in modules)
                or isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "warnings"):
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


# sep with A = diag(3, 1, 1, -5), k = 1, declared monotone for the polar
# route although A is indefinite: from P0 the first polar step descends
# from -4.280 to -4.725.  The script collects each outcome in `out`, so that
# a `python -O` process can run it too.
DESCENT_SCRIPT = """
import dataclasses
import numpy as np
from stiefelscf.npdo import npdo_locg, npdo_scf
from stiefelscf.problems import ProblemSpec, build
obj = build(ProblemSpec("sep", 4, 1, {"A": np.diag([3.0, 1.0, 1.0, -5.0])}))
obj = dataclasses.replace(obj, npdo_monotone=True)
P0 = np.array([[0.3], [0.0], [0.0], [0.954]])
P0 /= np.linalg.norm(P0)
out = {}
for solve in (npdo_scf, npdo_locg):
    rep = solve(obj, P0)
    out[solve.__name__] = [rep.stop_reason, rep.converged, rep.f_initial,
                           rep.f_final,
                           [r.ascent_violated for r in rep.iterations]]
"""


def test_declared_ascent_failure_is_a_stop_reason_with_or_without_O():
    # Each solver returns the point it descended to, flagged and
    # unconverged, and nothing raises; a `python -O` process agrees.
    namespace = {}
    exec(DESCENT_SCRIPT, namespace)
    out = namespace["out"]
    for name in ("npdo_scf", "npdo_locg"):
        stop, converged, f0, f, flags = out[name]
        assert stop == "ascent_violated" and not converged, name
        assert flags == [True] and f < f0, name
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         DESCENT_SCRIPT + "import json; print(json.dumps(out))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == out


def test_composition_field_solve_forms_the_gradient_once(monkeypatch):
    # The eigenvector route needs the gradient of a composition-field
    # objective only for its exit certificate field_identity: a solve and
    # the certificates at its point form it once.
    obj = build(family_spec("mbsub", n=30, k=3))
    assert obj.field_recipe == "composition"
    calls = []
    real = objective._atom_grad

    def counting(term, *args):
        calls.append(term.kind)
        return real(term, *args)

    monkeypatch.setattr(objective, "_atom_grad", counting)
    report = nepv_scf(obj, random_stiefel(obj.n, obj.k, 5))
    certs = nepv_certificates(obj, report.point)
    assert report.converged and report.num_iterations > 1
    assert len(calls) <= len(obj.terms)
    assert certs["field_identity"] <= objective.FIELD_IDENTITY_TOL


@pytest.mark.parametrize("solve", [nepv_scf, nepv_locg])
def test_no_full_decomposition_of_the_field(solve, monkeypatch):
    # The eigenvector step needs only the top k+1 eigenpairs of the n x n
    # field, and a solve computes no exit certificates: no full eigh,
    # eigvalsh, SVD or spectral norm of an n x n matrix during a solve.
    # SVDs are counted both in numpy and at the package's LAPACK binding.
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

    for name in ("eigh", "eigvalsh", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, counting(
            name, getattr(np.linalg, name), spectral_only=name == "norm"))
    monkeypatch.setattr(kernels, "_gesdd", counting("gesdd", kernels._gesdd))
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
    # at the start (feasibility test and projection).
    obj = build(family_spec(family, n=30, k=3))
    quad = sum(t.kind == "quadratic" for t in obj.terms)
    products = []
    real = objective._atom

    def counting(term, P_i):
        if term.kind == "quadratic" and term.matrix.shape[0] == obj.n:
            products.append(term)
        return real(term, P_i)

    monkeypatch.setattr(objective, "_atom", counting)
    solve, cfg_cls = ROUTES[route]
    report = solve(obj, random_stiefel(obj.n, obj.k, 5), cfg_cls())
    iters = report.num_iterations
    assert report.converged and iters >= 1
    assert quad * iters <= len(products) <= quad * (iters + 2)


@pytest.mark.parametrize("family", ["sep", "mbsub"])
def test_one_gradient_svd_per_residual(family, monkeypatch):
    # A plain polar step decomposes nothing but its gradient: one thin SVD
    # of it per residual, at the package's LAPACK binding, so
    # num_iterations + 1 in a converged solve, and no eigh or eigvalsh
    # after the start.  The subspace step's inner steps take one SVD of the
    # reduced gradient each.
    obj = build(family_spec(family, n=30, k=3))
    grads, events, inner = [], [], []
    grad = objective.PointEvaluation.euclidean_grad.func
    recorded = functools.cached_property(
        lambda at: grads.append(grad(at)) or grads[-1])
    recorded.__set_name__(objective.PointEvaluation, "euclidean_grad")
    monkeypatch.setattr(objective.PointEvaluation, "euclidean_grad", recorded)

    def gesdd(a, *args, **kwargs):
        if any(a is G for G in grads):
            events.append(("svd", len(a)))
        return real_gesdd(a, *args, **kwargs)

    def start(*args):
        evaluation = real_start(*args)
        events.append(("started", 0))
        return evaluation

    def inner_solve(*args):
        report = real_scf(*args)
        inner.append(report)
        return report

    real_gesdd, real_start, real_scf = (
        kernels._gesdd, npdo._feasible_start, npdo.npdo_scf)
    monkeypatch.setattr(kernels, "_gesdd", gesdd)
    monkeypatch.setattr(npdo, "_feasible_start", start)
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _real=real, **kw: (
            events.append(("eig", 0)) or _real(*a, **kw)))

    def residuals(report):
        return report.num_iterations + (report.stop_reason == "converged")

    P0 = random_stiefel(obj.n, obj.k, 5)
    report = npdo_scf(obj, P0)
    assert report.converged and report.num_iterations >= 1
    assert events.count(("svd", obj.n)) == len(
        [e for e in events if e[0] == "svd"]) == residuals(report)
    assert ("eig", 0) not in events[events.index(("started", 0)):]

    events.clear()
    monkeypatch.setattr(npdo, "npdo_scf", inner_solve)
    report = npdo_locg(obj, P0)
    assert report.converged
    reduced = [rows for kind, rows in events if kind == "svd" and rows < obj.n]
    assert events.count(("svd", obj.n)) == residuals(report)
    assert len(reduced) == sum(residuals(r) for r in inner)
    assert sum(r.num_iterations for r in inner) == sum(
        rec.inner_iters for rec in report.iterations)


@pytest.mark.parametrize("solve", [npdo_scf, npdo_locg, nepv_scf])
def test_the_start_takes_no_spectrum(solve, monkeypatch):
    # The start is aligned as every iterate is, with no membership test
    # first: no eigvalsh and no spectral norm of the alignment matrix.
    obj = build(family_spec("mbsub", n=30, k=3))
    events, inside = [], []
    real_start = npdo._feasible_start
    eigvalsh, norm = np.linalg.eigvalsh, np.linalg.norm

    def start(*args):
        inside.append(True)
        try:
            return real_start(*args)
        finally:
            inside.pop()

    def counted_eigvalsh(*args, **kwargs):
        if inside:
            events.append("eigvalsh")
        return eigvalsh(*args, **kwargs)

    def counted_norm(x, ord=None, *args, **kwargs):
        if inside and ord == 2:
            events.append("norm2")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(npdo, "_feasible_start", start)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    report = solve(obj, random_stiefel(obj.n, obj.k, 5), NpdoConfig(max_iter=3))
    assert report.num_iterations >= 1
    assert events == []


def test_every_svd_goes_through_the_binding(monkeypatch):
    # The solvers and canonical_sin_theta take every SVD from the dgesdd
    # binding kernels._svd, the warm Ritz solve's start basis and the
    # subspace step's orthonormal bases included.
    def refuse(*args, **kwargs):
        raise AssertionError("an SVD outside kernels._svd")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(scipy.linalg, "svdvals", refuse)
    warm, ritz = [], nepv.ritz_top_k
    monkeypatch.setattr(nepv, "ritz_top_k", lambda *a, **kw: (
        warm.append(ritz(*a, **kw)) or warm[-1]))
    n = nepv.WARM_MIN_N + 20
    obj = build(family_spec("mbsub", n=n, k=3))
    P0 = random_stiefel(n, 3, 5)
    assert nepv_scf(obj, P0, NepvConfig(max_iter=20)).num_iterations >= 1
    assert any(pairs is not None for pairs in warm)
    for solve in (npdo_locg, nepv_locg):
        report = solve(obj, P0, NpdoConfig(max_iter=20))
        assert sum(rec.inner_iters for rec in report.iterations) >= 1
    dist2, dist_f = kernels.canonical_sin_theta(P0, random_stiefel(n, 3, 6))
    assert 0.0 < dist2 <= dist_f


# Catalog families whose alignment rule rotates: a fixed D, scriptD or
# per-block drivers.
ROTATING = ["mbsub", "quad_lin2", "sumct", "theta_tr", "occa", "theta_tr_sq",
            "procrustes"]


@pytest.mark.parametrize("family", ROTATING)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12),
       k=st.integers(1, 3), theta=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_the_start_is_aligned_like_every_iterate(family, seed, n, k, theta):
    # A solve that takes no step returns its start after one alignment,
    # bit for bit, on both routes, plain or accelerated; aligning that
    # point again moves it and f by rounding only.
    rng = np.random.default_rng(seed)
    obj = build(random_catalog_spec(family, n, k, rng, theta))
    assert obj.alignment.blocks != ()
    P0 = random_stiefel(n, k, seed)
    start = _aligned(obj.alignment, P0, obj.at(P0))
    cfg = NpdoConfig(max_iter=0)
    for solve in (npdo_scf, npdo_locg, nepv_scf, nepv_locg):
        P = solve(obj, P0, cfg).point
        assert np.array_equal(P, start), solve.__name__
        again = solve(obj, P, cfg)
        assert np.linalg.norm(again.point - P) <= 1e-12, solve.__name__
        f = obj.value(P)
        assert abs(again.f_final - f) <= MONOTONE_SLACK * max(1.0, abs(f))


class _Counted(np.ndarray):
    # A term matrix that logs every matrix product it takes part in, A X or
    # X A, wherever in the package it is formed, as the operand it was (0
    # for A X, 1 for X A) and the shapes of both operands; results are plain
    # arrays.
    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _Counted.log.append((next(i for i, x in enumerate(inputs)
                                      if isinstance(x, _Counted)),
                                 *(np.shape(x) for x in inputs)))
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs),
                                      **kwargs)


def _counted(obj):
    # obj with its quadratic term matrices viewed as _Counted.
    return dataclasses.replace(obj, terms=tuple(
        dataclasses.replace(t, matrix=t.matrix.view(_Counted))
        if t.kind == "quadratic" else t for t in obj.terms))


@pytest.mark.parametrize("route", sorted(ACCELERATED))
@pytest.mark.parametrize("family", ["sep", "mbsub", "sumct", "theta_tr"])
def test_one_product_block_per_quadratic_term_per_outer_step(family, route,
                                                              monkeypatch):
    # Every full-size product with a term matrix of a *_locg solve: one
    # block per quadratic term per outer step (for A W, or for A P_hat where
    # the step lands on the plain step), a second only in a step whose try
    # of the plain landing fails, plus at most two at the start, and none in
    # the landing, which evaluates the new point from (A W) Z or takes the
    # evaluation at P_hat.  A solve on a route the family does not declare
    # (theta_tr on the polar route) converges nowhere near, so it runs a
    # short budget out.
    obj = _counted(build(family_spec(family, n=30, k=3)))
    declared = getattr(obj, f"{route}_monotone")
    quad = sum(t.kind == "quadratic" for t in obj.terms)
    log = []
    monkeypatch.setattr(_Counted, "log", log)
    in_landing, per_step, solved = [], [], []
    real = npdo._landing
    real_step = npdo._SubspaceStep.step
    real_solve = npdo._SubspaceStep._solve_over_subspace

    def landing(at, landed):
        before = len(log)
        out = real(at, landed)
        landed.value  # what the step reads of the landed point
        if at.obj is obj:  # an outer step, not one of an inner solve
            in_landing.append(len(log) - before)
        return out

    def solve_over_subspace(self, *args):
        solved.append(True)
        return real_solve(self, *args)

    def step(self, *args):
        before, tried, solves = len(log), self.try_plain, len(solved)
        out = real_step(self, *args)
        failed = tried and len(solved) > solves
        per_step.append((len(log) - before, quad * (1 + failed)))
        return out

    monkeypatch.setattr(npdo, "_landing", landing)
    monkeypatch.setattr(npdo._SubspaceStep, "_solve_over_subspace",
                        solve_over_subspace)
    monkeypatch.setattr(npdo._SubspaceStep, "step", step)
    _, cfg_cls = ROUTES[route]
    cfg = cfg_cls() if declared else cfg_cls(max_iter=10)
    report = ACCELERATED[route](obj, random_stiefel(obj.n, obj.k, 5), cfg)
    iters = report.num_iterations
    if declared:
        assert report.converged and iters >= 1
    else:
        assert report.stop_reason == "max_iter" and iters == 10
    assert in_landing == [0] * iters
    assert len(per_step) == iters
    assert all(formed == expected for formed, expected in per_step)
    in_steps = sum(formed for formed, _ in per_step)
    assert in_steps <= len(log) <= in_steps + 2 * quad


def test_a_locg_solve_whose_inner_solves_never_step_forms_the_plain_products(
        monkeypatch):
    # mbsub at n = 30 with a dominant D: no inner solve of npdo_locg takes a
    # step, so each outer step lands on the plain step's iterate and forms
    # what a plain step forms, and npdo_scf and npdo_locg form the same
    # term-matrix products.
    spec = family_spec("mbsub", n=30, k=3)
    spec.matrices["D"] = 10.0 * spec.matrices["D"]
    obj = _counted(build(spec))
    P0 = random_stiefel(obj.n, obj.k, 5)
    logs = []
    for solve in (npdo_scf, npdo_locg):
        log = []
        monkeypatch.setattr(_Counted, "log", log)
        report = solve(obj, P0, NpdoConfig())
        assert report.converged and report.num_iterations > 1
        logs.append(log)
    assert all(rec.inner_iters == 0 for rec in report.iterations)
    assert logs[0] and logs[1] == logs[0]


@pytest.mark.parametrize("solve", [npdo_scf, npdo_locg, nepv_scf, nepv_locg])
@pytest.mark.parametrize("family", ["sep", "mbsub", "sumct", "theta_tr"])
def test_every_product_with_a_term_matrix_is_formed_as_xa(family, solve,
                                                           monkeypatch):
    # The package forms A X for a term matrix A in row panels A[i:i+r] @ X
    # of at most PANEL_MNK multiply-adds each (``kernels._thin_matmul``).
    # With PANEL_MNK shrunk to 600 at n = 30, every full-size product of a
    # solve, whose width runs from 1 column (a sumct block) to 4k = 12 (a
    # *_locg basis), takes several panels: in each the term matrix is the
    # left operand, the panel has fewer than n rows, and it keeps to the
    # bound; the panels of a solve cover whole products.
    obj = _counted(build(family_spec(family, n=30, k=3)))
    log = []
    monkeypatch.setattr(_Counted, "log", log)
    monkeypatch.setattr(kernels, "PANEL_MNK", 600)
    cfg_cls = NpdoConfig if solve.__module__ == npdo.__name__ else NepvConfig
    report = solve(obj, random_stiefel(obj.n, obj.k, 5), cfg_cls())
    assert report.num_iterations >= 1
    assert log
    for operand, (rows, inner), (inner_x, cols) in log:
        assert operand == 0 and inner == inner_x == obj.n
        assert rows < obj.n and rows * inner * cols <= 600
    assert sum(rows for _, (rows, _), _ in log) % obj.n == 0


def _landed(obj, at, W, Z):
    # The evaluation at W Z from the products (A W) Z, as the subspace step
    # lands.
    AW = at.basis_products(W)
    return AW, PointEvaluation(obj, W @ Z, [
        None if X is None else X @ t.select(Z) for t, X in zip(obj.terms, AW)])


# trcp with one indefinite A_j under each nonlinear preset.  Its
# quad_penalty partials can be negative, yet NEPv ascent for a convex phi of
# quadratic traces does not depend on their sign; NPDo, which needs every
# A_j >= 0, is not declared.
INDEFINITE_TRCP = ("trcp-indefinite-quad_penalty", "trcp-indefinite-logsumexp")


def random_catalog_spec(family, n, k, rng, theta):
    def psd(shift=0.0):
        G = rng.standard_normal((n, n))
        return G @ G.T / n + shift * np.eye(n)

    D = rng.standard_normal((n, k))
    if family in INDEFINITE_TRCP:
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        S = (Q * np.linspace(-1.0, 1.0, n)) @ Q.T
        return ProblemSpec("trcp", n, k, {"A_list": [psd(), 0.5 * (S + S.T)]},
                           phi=family.rsplit("-", 1)[1], phi_weight=0.5)
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


# A solve tests its residual on the evaluation it carries, the check below
# on a fresh one; 1% of tol absorbs the rounding between the two.
RESIDUAL_MARGIN = 1.01


def converged_means_the_residual_met_tol(obj, report, cfg, route):
    # A converged report's point meets tol in its route's plain residual,
    # and the inner iterations of a *_locg solve total at most max_iter.
    P = report.point
    res = sum(kkt_residuals(obj, P)) if route == "npdo" else nepv_residual(
        obj, P)
    assert not report.converged or res <= RESIDUAL_MARGIN * cfg.tol, (
        f"{report.solver} converged at residual {res:.3g}")
    assert sum(rec.inner_iters or 0 for rec in report.iterations) \
        <= cfg.max_iter


def undeclared_locg_case(case):
    # Two objectives the polar route does not declare, where npdo_locg once
    # reported "converged" far from a stationary point: theta_tr at n=30
    # (plain residual 0.62 after 52 outer steps) and a random procrustes
    # (after 1 outer step at f = -17.79; nepv_scf reaches 3.178).
    if case == "theta_tr":
        return build(family_spec("theta_tr", n=30, k=3)), random_stiefel(
            30, 3, 5)
    rng = np.random.default_rng(3)
    C, B = rng.standard_normal((8, 6)), rng.standard_normal((8, 1))
    return (build(ProblemSpec("procrustes", 6, 1, {"C": C, "B": B})),
            random_stiefel(6, 1, 0))


@pytest.mark.parametrize("case", ["theta_tr", "procrustes"])
def test_locg_converges_only_where_the_plain_residual_meets_tol(case):
    obj, P0 = undeclared_locg_case(case)
    assert not obj.npdo_monotone
    cfg = NpdoConfig(max_iter=200)
    report = npdo_locg(obj, P0, cfg)
    converged_means_the_residual_met_tol(obj, report, cfg, "npdo")
    assert report.stop_reason == "max_iter"
    assert sum(rec.inner_iters for rec in report.iterations) == cfg.max_iter


@pytest.mark.parametrize("family", CATALOG + INDEFINITE_TRCP)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 10),
       k=st.integers(1, 3), theta=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_locg_converged_means_the_plain_residual_met_tol(family, seed, n, k,
                                                         theta):
    # On either route, declared or not, a *_locg solve says "converged"
    # only where its plain residual meets tol, and its inner iterations
    # stay within max_iter.
    rng = np.random.default_rng(seed)
    obj = build(random_catalog_spec(family, n, k, rng, theta))
    P0 = random_stiefel(n, k, seed)
    for route, solve in ACCELERATED.items():
        cfg = ROUTES[route][1](max_iter=20)
        converged_means_the_residual_met_tol(obj, solve(obj, P0, cfg), cfg,
                                             route)


@pytest.mark.parametrize("family", CATALOG + INDEFINITE_TRCP)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 20),
       k=st.integers(1, 3), theta=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_declared_ascent_holds_on_random_psd_instances(family, seed, n, k,
                                                       theta):
    # Every solver of a route a family declares monotone, plain or
    # accelerated, records a non-decreasing f, from the aligned start on,
    # within MONOTONE_SLACK, and so never stops for a violated ascent.
    rng = np.random.default_rng(seed)
    obj = build(random_catalog_spec(family, n, k, rng, theta))
    if family in INDEFINITE_TRCP:
        assert obj.nepv_monotone and not obj.npdo_monotone
    P0 = random_stiefel(n, k, seed)
    for route, declared in (("npdo", obj.npdo_monotone),
                            ("nepv", obj.nepv_monotone)):
        if not declared:
            continue
        solve, cfg_cls = ROUTES[route]
        for solver in (solve, ACCELERATED[route]):
            report = solver(obj, P0, cfg_cls(max_iter=300))
            name = solver.__name__
            assert report.stop_reason != "ascent_violated", f"{family}/{name}"
            fs = [report.f_initial] + [r.f for r in report.iterations]
            for i, (f, f_next) in enumerate(zip(fs, fs[1:])):
                assert f_next >= f - MONOTONE_SLACK * max(1.0, abs(f)), (
                    f"{family}/{name} step {i}: {f!r} -> {f_next!r}")


@pytest.mark.parametrize("family", CATALOG + INDEFINITE_TRCP)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 30),
       k=st.integers(1, 3), theta=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_locg_steps_gain_at_least_the_plain_step(family, seed, n, k, theta):
    # The subspace step starts its inner solve at the plain step's iterate,
    # so on a route the family declares monotone each outer step gains at
    # least what the plain step gains from the same P.
    rng = np.random.default_rng(seed)
    obj = build(random_catalog_spec(family, n, k, rng, theta))
    P0 = random_stiefel(n, k, seed)
    for route, declared in (("npdo", obj.npdo_monotone),
                            ("nepv", obj.nepv_monotone)):
        if not declared:
            continue
        solve, cfg_cls = ROUTES[route]
        landed = []
        report = ACCELERATED[route](obj, P0, cfg_cls(max_iter=30),
                                    lambda i, P: landed.append(P))
        starts = [solve(obj, P0, cfg_cls(max_iter=0)).point] + landed
        fs = [report.f_initial] + [r.f for r in report.iterations]
        for i, (P, f, f_next) in enumerate(zip(starts, fs, fs[1:])):
            _, plain = one_step(solve, obj, P)
            slack = MONOTONE_SLACK * max(1.0, abs(f))
            assert f_next - f >= plain.f - f - slack, (
                f"{family}/{route}-locg step {i}: gain {f_next - f!r} < "
                f"plain gain {plain.f - f!r}")


STEP_KINDS = {"npdo": npdo._PolarStep, "nepv": nepv._EigenStep}


@pytest.mark.parametrize("family", CATALOG + INDEFINITE_TRCP)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 16),
       k=st.integers(1, 3), extra=st.integers(0, 6),
       theta=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_the_plain_landing_bound_holds_over_any_basis(family, seed, n, k,
                                                      extra, theta):
    # Each step kind's bound at P_hat, the plain step's iterate, is at least
    # its residual of the reduced problem over W = [P_hat, orth(random)] Q,
    # Q orthogonal, at Z0 = W'P_hat, so W Z0 = P_hat: the residual the inner
    # solve of a subspace step tests first.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    obj = build(random_catalog_spec(family, n, k, rng, theta))
    for route, kind in STEP_KINDS.items():
        P_hat, _ = one_step(ROUTES[route][0], obj, random_stiefel(n, k, seed))
        W = np.hstack([P_hat, orthonormalize_against(
            P_hat, rng.standard_normal((n, min(extra, n - k))))])
        W = W @ random_stiefel(W.shape[1], W.shape[1], seed + 1)
        reduced = obj.transform(W)
        res, _ = kind(reduced).residual(reduced.at(W.T @ P_hat))
        bound = kind(obj).bound(obj.at(P_hat))
        assert res <= bound * (1 + 1e-12) + 1e-14, (
            f"{family}/{route}: residual {res!r} > bound {bound!r}")


@pytest.mark.parametrize("family", CATALOG + INDEFINITE_TRCP)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 20),
       k=st.integers(1, 3), theta=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_the_plain_landing_is_exact(family, seed, n, k, theta):
    # A subspace step that lands on P_hat ends where its inner solve would
    # have ended: with the bound forced to inf, so that every step runs the
    # inner solve, a *_locg solve of a declared route stops for the same
    # reason after as many outer steps, with the same inner iteration count
    # in every record and f_final within 1e-12 relative.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    obj = build(random_catalog_spec(family, n, k, rng, theta))
    P0 = random_stiefel(n, k, seed)
    for route, kind in STEP_KINDS.items():
        if not getattr(obj, f"{route}_monotone"):
            continue
        cfg = ROUTES[route][1](max_iter=300)
        landed = ACCELERATED[route](obj, P0, cfg)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kind, "bound", lambda self, at: np.inf)
            solved = ACCELERATED[route](obj, P0, cfg)
        assert landed.stop_reason == solved.stop_reason, f"{family}/{route}"
        assert [rec.inner_iters for rec in landed.iterations] == [
            rec.inner_iters for rec in solved.iterations], f"{family}/{route}"
        assert abs(landed.f_final - solved.f_final) <= 1e-12 * max(
            1.0, abs(solved.f_final)), f"{family}/{route}"


@pytest.mark.parametrize("family", CATALOG + INDEFINITE_TRCP)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 16),
       k=st.integers(1, 3), extra=st.integers(0, 6),
       theta=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_carried_products_match_fresh_ones(family, seed, n, k, extra, theta):
    # For W = [P, W_extra] orthonormal: the reduced problem built from the
    # products A W of basis_products is transform(W), and the point W Z
    # evaluated from (A W) Z is obj.at(W Z), both within 1e-12 relative.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    obj = build(random_catalog_spec(family, n, k, rng, theta))
    P = random_stiefel(n, k, seed)
    W = np.hstack([P, orthonormalize_against(
        P, rng.standard_normal((n, min(extra, n - k))))])
    Z = random_stiefel(W.shape[1], k, seed + 1)
    at = obj.at(P)
    AW, landed = _landed(obj, at, W, Z)
    for given_t, formed_t in zip(obj.transform(W, AW).terms,
                                 obj.transform(W).terms):
        assert close(given_t.matrix, formed_t.matrix)
    fresh = obj.at(W @ Z)
    assert close(landed.value, fresh.value)
    assert close(landed.euclidean_grad, fresh.euclidean_grad)
    assert close(landed.field.H, fresh.field.H)
    assert close(landed.field.mismatch, fresh.field.mismatch)


@pytest.mark.parametrize("family", CATALOG + INDEFINITE_TRCP)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 16),
       k=st.integers(1, 3), extra=st.integers(0, 6),
       theta=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_quadratic_term_matrices_are_exactly_symmetric(family, seed, n, k,
                                                       extra, theta):
    # The gradient 2 A P and the field's part 2 c A hold only for A == A':
    # every quadratic matrix the package builds is exactly symmetric, from
    # build, both ways of transform and metric lifting.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    obj = build(random_catalog_spec(family, n, k, rng, theta))
    P = random_stiefel(n, k, seed)
    W = np.hstack([P, orthonormalize_against(
        P, rng.standard_normal((n, min(extra, n - k))))])
    G = rng.standard_normal((n, n))
    lifted, _ = lift_m_orthogonal(obj, G @ G.T / n + np.eye(n))
    for made in (obj, obj.transform(W),
                 obj.transform(W, obj.at(P).basis_products(W)), lifted):
        for t in made.terms:
            if t.kind == "quadratic":
                assert np.array_equal(t.matrix, t.matrix.T)


@pytest.mark.parametrize("family", ["sep", "mbsub"])
def test_carried_products_stay_close_over_a_long_solve(family, monkeypatch):
    # No outer step recomputes A P: with the plain landing's bound forced to
    # inf, each step runs its inner solve and lands with (A W) Z from the
    # A P it carried in.  After 250 outer steps the carried products still
    # match a fresh A P within 1e-12 relative.  A slow spectrum (relative
    # gap 1e-3) and an unreachable tolerance keep the solve going; over 200
    # of its inner solves take no step, so without the forced bound most
    # steps would land on P_hat with fresh products.
    n, k = 50, 2
    vals = np.concatenate([[1.5, 1.0], np.linspace(0.999, 0.01, n - 2)])
    rng = np.random.default_rng(10)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = 0.5 * ((Q * vals) @ Q.T + ((Q * vals) @ Q.T).T)
    mats = {"A": A} if family == "sep" else {
        "A": A, "D": 1e-3 * rng.standard_normal((n, k))}
    obj = build(ProblemSpec(family, n, k, mats))
    landed = []
    real = npdo._landing

    def landing(at, evaluation):
        if at.obj is obj:  # an outer step, not one of an inner solve
            landed.append(evaluation)
        return real(at, evaluation)

    monkeypatch.setattr(npdo, "_landing", landing)
    monkeypatch.setattr(npdo._PolarStep, "bound", lambda self, at: np.inf)
    report = npdo_locg(obj, random_stiefel(n, k, 6),
                       NpdoConfig(tol=1e-300, max_iter=250))
    assert report.stop_reason == "max_iter" and len(landed) == 250
    at = landed[-1]
    assert np.array_equal(at.P, report.point)
    X = at.atom(0)[0]
    assert close(X, A @ at.P)
    assert abs(at.value - obj.at(at.P).value) <= 1e-12 * abs(at.value)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("angle", [1e-7, 1e-4, 0.3])
def test_step_angle_is_the_sine_distance_to_the_landed_point(route, angle):
    # step_angle is ||Q_perp' P_next||_F, Q_perp an orthonormal complement of
    # range(P), to rounding even at small angles, where 1 - sigma^2 of the
    # cosines would lose about half the digits.  P is the top-k eigenbasis
    # of A with its first column turned by `angle`.
    n, k = 12, 3
    rng = np.random.default_rng(7)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    obj = build(ProblemSpec("sep", n, k, {
        "A": (U * np.arange(n, 0, -1.0)) @ U.T}))
    P = U[:, :k].copy()
    P[:, 0] = np.cos(angle) * U[:, 0] + np.sin(angle) * U[:, k]
    P_next, rec = one_step(ROUTES[route][0], obj, P)
    Q_perp = np.linalg.qr(P, mode="complete")[0][:, k:]
    assert rec.step_angle == pytest.approx(
        np.linalg.norm(Q_perp.T @ P_next), rel=0, abs=1e-13)


def close(a, b, rel=1e-12):
    return np.linalg.norm(a - b) <= rel * max(1.0, np.linalg.norm(b))


@pytest.mark.parametrize("family", CATALOG)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12),
       k=st.integers(1, 3), extra=st.integers(0, 4),
       theta=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_transform_and_lift_round_trip(family, seed, n, k, extra, theta):
    # g = f o T for an orthonormal T carries value, gradient and field:
    # g(Z) = f(TZ), grad g(Z) = T' grad f(TZ), H_g(Z) = T' H_f(TZ) T.  The
    # metric lifting is the transform by R^-1, with M = R'R: the lifted
    # objective at RP equals f(P) for an M-orthonormal P.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    obj = build(random_catalog_spec(family, n, k, rng, theta))
    m = min(n, k + extra)
    T = random_stiefel(n, m, seed)
    Z = random_stiefel(m, k, seed + 1)
    g, TZ = obj.transform(T), T @ Z
    assert close(g.value(Z), obj.value(TZ))
    assert close(g.euclidean_grad(Z), T.T @ obj.euclidean_grad(TZ))
    assert close(g.field(Z).H, T.T @ obj.field(TZ).H @ T)

    M = np.eye(n) + make_psd(n, seed % 1000)
    lifted, lift = lift_m_orthogonal(obj, M)
    P = lift.backward(random_stiefel(n, k, seed + 2))
    assert np.linalg.norm(P.T @ M @ P - np.eye(k)) <= 1e-12 * n
    assert close(lifted.value(lift.forward(P)), obj.value(P))
