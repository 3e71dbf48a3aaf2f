"""Self-tests of the benchmark, on tiny instances.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from perfbench import gate, harness
from perfbench.tracing import Patches
from perfbench.workloads import WORKLOADS, make_pool

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COUNT_SUFFIXES = (".calls", "_iters", ".quad_products_per_iter")


def _invoke(*args, python=(sys.executable,)):
    return subprocess.run([*python, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@functools.lru_cache(maxsize=None)
def tiny_run(workload, seed, trace, repeat=0):
    out = _invoke("--workload", workload, "--seed", str(seed),
                  "--seconds", "0.01", "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_unit(workload, trace):
    res = tiny_run(workload, 0, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in res["metrics"].items()}
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_for_a_seed_and_a_second_seed_runs(workload):
    first = tiny_run(workload, 0, 1)["metrics"]
    again = tiny_run(workload, 0, 1, repeat=1)["metrics"]
    counts = [name for name in first if name.endswith(COUNT_SUFFIXES)]
    assert len(counts) > 26
    assert {n: first[n]["value"] for n in counts} == {
        n: again[n]["value"] for n in counts}
    other = tiny_run(workload, 1, 1)
    assert other["correct"] is True


def test_refuses_optimized_python():
    out = _invoke("--workload", "desk-catalog", "--tiny",
                  python=(sys.executable, "-O"))
    assert out.returncode != 0 and out.stdout == ""


def test_stops_without_result_when_program_source_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "eigen-route", "--tiny"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout == ""


# -- negative control --------------------------------------------------------

@pytest.fixture()
def polar_runner(tmp_path):
    ss = harness.import_program()
    pool = make_pool(WORKLOADS["polar-route"], 0, True,
                     ss.kernels.random_stiefel)
    runner = harness.Runner(ss, WORKLOADS["polar-route"], pool, tmp_path)
    runner.load_set(0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield runner


def _first_sep_solve(runner):
    for s, i, j, inst, solver in runner.pairs(0):
        if inst.family == "sep" and solver == "npdo":
            return (s, i, j, inst, solver)
    raise AssertionError("no sep/npdo pair")


def test_gate_passes_a_real_solve_and_fails_fabricated_ones(polar_runner):
    s, i, j, inst, solver = _first_sep_solve(polar_runner)
    _, report, check = polar_runner.solve(s, i, j, inst, solver)
    assert check() is None
    obj, spec = polar_runner.objs[i], polar_runner.specs[s][i]
    off = dataclasses.replace(report, point=report.point * (1 + 1e-6))
    shifted = dataclasses.replace(
        report, f_final=report.f_final * (1 + 1e-6))
    for bad in (off, shifted):
        assert gate.check_library(polar_runner.cli, inst, obj, spec, solver,
                                  bad) is not None


def _procrustes_case():
    ss = harness.import_program()
    pool = make_pool(WORKLOADS["eigen-route"], 3, True,
                     ss.kernels.random_stiefel)
    inst = next(x for x in pool[0] if x.family == "procrustes")
    obj = ss.problems.build(ss.problems.ProblemSpec(**inst.spec_kwargs()))
    return inst, ss.nepv.nepv_scf(obj, inst.start, ss.NepvConfig(tol=1e-8))


def test_procrustes_identity_catches_a_shifted_value():
    inst, report = _procrustes_case()
    assert gate.check_point(inst, report) is None
    bad = dataclasses.replace(report, f_final=report.f_final + 1e-3)
    assert gate.check_point(inst, bad) is not None


@pytest.mark.parametrize("corruption", ["off_manifold", "raises"])
def test_solve_loop_counts_fabricated_results_as_failed(polar_runner,
                                                        corruption):
    # npdo_locg solves its reduced problems with npdo_scf, so every
    # polar-route pair runs the corrupted solver.
    ss = polar_runner.ss
    original = ss.npdo.npdo_scf

    def bad_solver(obj, P0, cfg):
        report = original(obj, P0, cfg)
        if corruption == "raises":
            raise FloatingPointError("fabricated failure")
        return dataclasses.replace(report, point=2.0 * report.point)

    patches = Patches()
    patches.replace(original, bad_solver)
    try:
        loop = harness.timed_loop(polar_runner, 0.0, 1)
    finally:
        patches.restore()
    assert loop.passed == 0
    assert len(loop.seconds) == len(list(polar_runner.pairs(0)))
    assert all(t == float("inf") for t in loop.seconds + loop.units)


# -- seeds and the reference kernel -------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeds_change_the_matrices_but_not_the_problem(workload):
    # Each seed rotates the canonical instance so that its canonical start
    # lands on the seed's start point: the matrices differ, f at the start
    # point does not.  dft only has its basis permuted, with signs.
    ss = harness.import_program()

    def start_values(seed):
        pool = make_pool(WORKLOADS[workload], seed, True,
                         ss.kernels.random_stiefel)
        out = []
        for inst in pool[0]:
            obj = ss.problems.build(
                ss.problems.ProblemSpec(**inst.spec_kwargs()))
            first = next(iter(inst.matrices.values()))
            out.append((inst.family,
                        first[0] if isinstance(first, list) else first,
                        obj.value(inst.start)))
        return out

    for (fam, m0, f0), (_, m1, f1) in zip(start_values(0), start_values(1)):
        assert not np.allclose(m0, m1)
        if fam == "dft":
            assert np.allclose(np.sort(np.abs(m0), axis=None),
                               np.sort(np.abs(m1), axis=None))
        else:
            assert f1 == pytest.approx(f0, rel=1e-10, abs=1e-12)


class _SteadyReference:
    def run(self):
        return 0.004


def test_solve_units_are_wall_time_over_reference_time(polar_runner):
    loop = harness.timed_loop(polar_runner, 0.0, 1, _SteadyReference())
    assert loop.passed == len(loop.seconds) > 0
    assert loop.units == pytest.approx([t / 0.004 for t in loop.seconds])
