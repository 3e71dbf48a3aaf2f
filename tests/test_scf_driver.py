"""The shared SCF loop: each step function equals iteration 0 of its solver,
and the steps' stop rules."""

import numpy as np
import pytest

from stiefelscf.kernels import random_stiefel
from stiefelscf.nepv import NepvConfig, nepv_scf, nepv_scf_step
from stiefelscf.npdo import (
    STAGNATION_LIMIT,
    NpdoConfig,
    _Step,
    npdo_scf,
    npdo_scf_step,
    project_feasible,
)
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


@pytest.mark.filterwarnings("ignore:.*iteration budget")
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
