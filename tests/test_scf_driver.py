"""The shared SCF loop: each step function equals iteration 0 of its solver,
the steps' stop rules, the report as the only channel, the products one
iteration forms, ascent as a stop reason that holds with or without
``python -O``, and the structural transforms the subspace step and metric
lifting rest on."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelscf import npdo, objective
from stiefelscf.kernels import orthonormalize_against, random_stiefel
from stiefelscf.nepv import (
    NepvConfig,
    nepv_certificates,
    nepv_locg,
    nepv_scf,
    nepv_scf_step,
)
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
ROUTES = {
    "npdo": (npdo_scf_step, npdo_scf, NpdoConfig),
    "nepv": (nepv_scf_step, nepv_scf, NepvConfig),
}
ACCELERATED = {"npdo": npdo_locg, "nepv": nepv_locg}


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
from stiefelscf.npdo import npdo_locg, npdo_scf, npdo_scf_step
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
_, rec = npdo_scf_step(obj, P0)
out["npdo_scf_step"] = [rec.ascent_violated, rec.f]
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
    assert out["npdo_scf_step"] == [True, out["npdo_scf"][3]]
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
    _, solve, cfg_cls = ROUTES[route]
    report = solve(obj, random_stiefel(obj.n, obj.k, 5), cfg_cls())
    iters = report.num_iterations
    assert report.converged and iters >= 1
    assert quad * iters <= len(products) <= quad * (iters + 2)


class _Counted(np.ndarray):
    # A term matrix that logs every matrix product it takes part in, A X or
    # X A, wherever in the package it is formed, as the operand it was (0
    # for A X, 1 for X A); results are plain arrays.
    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _Counted.log.append(next(i for i, x in enumerate(inputs)
                                     if isinstance(x, _Counted)))
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
    # block per quadratic term per outer step (for A W), plus at most two at
    # the start, and none in the landing, which evaluates the new point from
    # (A W) Z.
    obj = _counted(build(family_spec(family, n=30, k=3)))
    quad = sum(t.kind == "quadratic" for t in obj.terms)
    log = []
    monkeypatch.setattr(_Counted, "log", log)
    in_landing = []
    real = npdo._landing

    def landing(at, *args):
        before = len(log)
        out = real(at, *args)
        out[0].value  # what the step reads of the landed point
        if at.obj is obj:  # an outer step, not one of an inner solve
            in_landing.append(len(log) - before)
        return out

    monkeypatch.setattr(npdo, "_landing", landing)
    _, _, cfg_cls = ROUTES[route]
    report = ACCELERATED[route](obj, random_stiefel(obj.n, obj.k, 5), cfg_cls())
    iters = report.num_iterations
    assert report.converged and iters >= 1
    assert in_landing == [0] * iters
    assert quad * iters <= len(log) <= quad * (iters + 2)


@pytest.mark.parametrize("solve", [npdo_scf, npdo_locg, nepv_scf, nepv_locg])
@pytest.mark.parametrize("family", ["sep", "mbsub", "sumct", "theta_tr"])
def test_every_product_with_a_term_matrix_is_formed_as_xa(family, solve,
                                                           monkeypatch):
    # The package forms A X for a term matrix A as (X'A)', the layout that
    # runs faster on BLAS for a thin X: in every full-size product of a
    # solve the term matrix is the right operand.
    obj = _counted(build(family_spec(family, n=30, k=3)))
    log = []
    monkeypatch.setattr(_Counted, "log", log)
    cfg_cls = NpdoConfig if solve.__module__ == npdo.__name__ else NepvConfig
    report = solve(obj, random_stiefel(obj.n, obj.k, 5), cfg_cls())
    assert report.num_iterations >= 1
    assert log and set(log) == {1}


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


@pytest.mark.parametrize("family", CATALOG + INDEFINITE_TRCP)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 20),
       k=st.integers(1, 3), theta=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_declared_ascent_holds_on_random_psd_instances(family, seed, n, k,
                                                       theta):
    # Every solver of a route a family declares monotone, plain or
    # accelerated, records a non-decreasing f, from the projected start on,
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
        _, solve, cfg_cls = ROUTES[route]
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
        step, _, cfg_cls = ROUTES[route]
        landed = []
        report = ACCELERATED[route](obj, P0, cfg_cls(max_iter=30),
                                    lambda i, P: landed.append(P))
        starts = [project_feasible(obj, P0)] + landed
        fs = [report.f_initial] + [r.f for r in report.iterations]
        for i, (P, f, f_next) in enumerate(zip(starts, fs, fs[1:])):
            _, plain = step(obj, P)
            slack = MONOTONE_SLACK * max(1.0, abs(f))
            assert f_next - f >= plain.f - f - slack, (
                f"{family}/{route}-locg step {i}: gain {f_next - f!r} < "
                f"plain gain {plain.f - f!r}")


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
    # A X is formed as (X'A)', which is A X only for A == A' bit for bit:
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
    # No outer step recomputes A P: each lands with (A W) Z from the A P it
    # carried in.  After 250 outer steps the carried products still match a
    # fresh A P within 1e-12 relative.  A slow spectrum (relative gap 1e-3)
    # and an unreachable tolerance keep the solve going.
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

    def landing(at, *args):
        out = real(at, *args)
        if at.obj is obj:  # an outer step, not one of an inner solve
            landed.append(out[0])
        return out

    monkeypatch.setattr(npdo, "_landing", landing)
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
    P_next, rec = ROUTES[route][0](obj, P)
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
