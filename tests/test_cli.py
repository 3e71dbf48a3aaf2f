import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelscf import cli
from stiefelscf.cli import (
    EXIT_AUDIT,
    EXIT_INPUT,
    EXIT_MAXITER,
    EXIT_OK,
    TRACE_HEADER,
    load_problem,
    main,
)
from stiefelscf.kernels import random_stiefel
from stiefelscf.nepv import nepv_certificates, nepv_scf
from stiefelscf.npdo import (
    IterationRecord,
    NpdoConfig,
    SolveReport,
    npdo_certificates,
)
from stiefelscf.objective import FIELD_IDENTITY_TOL
from stiefelscf.problems import FAMILIES, OUTER_PRESETS, build


def make_psd(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T / n + shift * np.eye(n)


def write_problem(path, doc):
    path.write_text(json.dumps(doc))
    return path


# Valid n = 3 documents; the malformed-field tests replace one top-level
# field of one of them.
VALID_DOCS = {
    "sep": {"family": "sep", "n": 3, "k": 2,
            "matrices": {"A": [[5.0, 0, 0], [0, 3.0, 0], [0, 0, 1.0]]}},
    "trcp": {"family": "trcp", "n": 3, "k": 2, "phi": "quad_penalty",
             "phi_weight": 0.5,
             "matrices": {"A_list": [[[2.0, 0, 0], [0, 1.0, 0], [0, 0, 0.5]],
                                     [[1.0, 0.5, 0], [0.5, 1.0, 0], [0, 0, 1.0]]]}},
    "sumct": {"family": "sumct", "n": 3, "k": 2, "blocks": [[0], [1]],
              "matrices": {"A_list": [[[2.0, 0, 0], [0, 1.0, 0], [0, 0, 0.5]],
                                      [[1.0, 0, 0], [0, 3.0, 0], [0, 0, 2.0]]],
                           "D_list": [[[1.0], [0.0], [0.5]],
                                      [[0.0], [1.0], [0.0]]]}},
    "theta_tr": {"family": "theta_tr", "n": 3, "k": 2, "theta": 0.5,
                 "matrices": {"A": [[2.0, 0, 0], [0, 1.0, 0], [0, 0, 0.5]],
                              "B": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
                              "D": [[1.0, 0], [0, 1.0], [0, 0]]}},
}


def replace_field(path, doc, key, raw):
    # Write doc with field ``key`` replaced by the JSON text ``raw``, so
    # literals such as 1e400 reach the parser as written.
    path.write_text(json.dumps(dict(doc, **{key: "@@"})).replace('"@@"', raw))
    return path


@pytest.fixture
def sep_file(tmp_path):
    return write_problem(tmp_path / "sep.json", {
        "family": "sep", "n": 3, "k": 2,
        "matrices": {"A": [[5.0, 0, 0], [0, 3.0, 0], [0, 0, 1.0]]},
    })


@pytest.fixture
def theta_file(tmp_path):
    n, k = 8, 2
    D = np.random.default_rng(2).standard_normal((n, k))
    return write_problem(tmp_path / "theta.json", {
        "family": "theta_tr", "n": n, "k": k, "theta": 0.3,
        "matrices": {"A": make_psd(n, 3).tolist(),
                     "B": make_psd(n, 4, 1.0).tolist(), "D": D.tolist()},
    })


@pytest.fixture
def overflow_file(tmp_path):
    # Finite, valid input whose solve overflows to non-finite values.
    return write_problem(tmp_path / "overflow.json", {
        "family": "umds", "n": 4, "k": 2,
        "matrices": {"A_list": [(1e160 * np.eye(4)).tolist()]},
    })


@pytest.fixture
def mbsub_file(tmp_path):
    n, k = 10, 2
    A = make_psd(n, 0)
    D = np.random.default_rng(1).standard_normal((n, k))
    return write_problem(tmp_path / "mbsub.json", {
        "family": "mbsub", "n": n, "k": k,
        "matrices": {"A": A.tolist(), "D": D.tolist()},
    })


class TestLoadProblem:
    def test_missing_field_named(self, tmp_path):
        p = write_problem(tmp_path / "bad.json", {"family": "sep", "n": 3})
        with pytest.raises(cli.ProblemFileError, match="'k'"):
            load_problem(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(cli.ProblemFileError, match="invalid JSON"):
            load_problem(p)

    def test_bad_matrix_named(self, tmp_path):
        p = write_problem(tmp_path / "bad.json", {
            "family": "sep", "n": 2, "k": 1,
            "matrices": {"A": [["x", 0], [0, 1]]}})
        with pytest.raises(cli.ProblemFileError, match="'A'"):
            load_problem(p)

    def test_roundtrip(self, sep_file):
        spec = load_problem(sep_file)
        assert spec.family == "sep" and spec.n == 3 and spec.k == 2

    @pytest.mark.parametrize("doc, key, raw", [
        ("sep", "n", "1e400"),
        ("sep", "k", "1e400"),
        ("sep", "n", "3.5"),
        ("sep", "k", "true"),
        ("sep", "k", '"2"'),
        ("sumct", "blocks", "[[1e400]]"),
        ("sumct", "blocks", "[[0.5], [1]]"),
        ("trcp", "phi_weight", "null"),
        ("trcp", "phi_weight", "[1]"),
        ("trcp", "phi_weight", "{}"),
        ("trcp", "phi_weight", '"abc"'),
        ("trcp", "phi_weight", "1e400"),
        ("trcp", "phi_weight", "true"),
        ("trcp", "phi", "[1]"),
        ("trcp", "phi", "1"),
        ("sep", "phi", "null"),
        ("theta_tr", "theta", "true"),
        ("theta_tr", "theta", "false"),
        ("theta_tr", "theta", '"0.5"'),
        ("trcp", "phi_weight", '"0.5"'),
    ])
    def test_malformed_field_exits_one_naming_it(self, tmp_path, capsys,
                                                 doc, key, raw):
        p = replace_field(tmp_path / "bad.json", VALID_DOCS[doc], key, raw)
        assert main(["run", "--problem", str(p)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert repr(key) in err


class TestRun:
    def test_sep_one_iteration_exit_zero(self, sep_file, tmp_path):
        trace = tmp_path / "trace.csv"
        report = tmp_path / "report.json"
        code = main(["run", "--problem", str(sep_file), "--solver", "nepv",
                     "--tol", "1e-8", "--trace", str(trace),
                     "--report", str(report)])
        assert code == EXIT_OK
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 2  # one-iteration trace
        doc = json.loads(report.read_text())
        assert set(doc) >= {"problem", "solver", "converged", "iters",
                            "f_final", "certificates", "diagnostics"}
        assert doc["converged"] is True
        assert doc["iters"] == 1
        assert doc["f_final"] == pytest.approx(8.0)

    def test_trace_writes_non_finite_cells_as_their_repr(self, tmp_path):
        # Python floats and numpy scalars alike: "inf", "-inf", "nan", and
        # an empty cell for a field the solver does not fill.
        recs = [IterationRecord(0, f=np.float64(np.inf), eps_kkt=-np.inf,
                                eps_sym=float("nan"), sigma_min=np.float64(2.0),
                                eta=np.float64(-np.inf), step_angle=np.nan)]
        report = SolveReport(point=np.eye(2), f_final=np.inf, f_initial=0.0,
                             converged=False, stop_reason="max_iter",
                             iterations=recs)
        trace = tmp_path / "trace.csv"
        cli.write_trace(trace, report)
        assert trace.read_text() == (
            TRACE_HEADER + "\n0,inf,-inf,nan,,2.0,-inf,nan,\n")

    def test_bad_file_exit_one(self, tmp_path, capsys):
        p = write_problem(tmp_path / "bad.json", {"family": "nope", "n": 2, "k": 1})
        assert main(["run", "--problem", str(p)]) == EXIT_INPUT
        assert "nope" in capsys.readouterr().err

    def test_custom_family_exit_one(self, tmp_path, capsys):
        p = write_problem(tmp_path / "custom.json",
                          {"family": "custom", "n": 2, "k": 1})
        assert main(["run", "--problem", str(p)]) == EXIT_INPUT
        assert "custom" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["run", "--problem", str(tmp_path / "absent.json")]) == EXIT_INPUT

    def test_locg_with_audits(self, mbsub_file, tmp_path):
        report = tmp_path / "r.json"
        code = main(["run", "--problem", str(mbsub_file), "--solver",
                     "npdo-locg", "--seed", "3", "--audit", "certs",
                     "--report", str(report)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["diagnostics"]["monotone"]["ok"] is True
        assert doc["diagnostics"]["certificates_ok"] is True

    @pytest.mark.parametrize("solver", sorted(cli.SOLVERS))
    def test_certs_audit_reuses_the_report_certificates(
            self, mbsub_file, tmp_path, monkeypatch, solver):
        # The audit checks the certificates the report carries: one
        # certificate call per problem.
        calls = []
        for name in ("npdo_certificates", "nepv_certificates"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda obj, P, real=real: (
                calls.append(real) or real(obj, P)))
        report = tmp_path / "r.json"
        code = main(["run", "--problem", str(mbsub_file), "--solver", solver,
                     "--audit", "certs", "--report", str(report)])
        assert code == EXIT_OK
        assert len(calls) == 1
        assert json.loads(report.read_text())["diagnostics"]["certificates_ok"]

    @pytest.mark.parametrize("solver", sorted(cli.SOLVERS))
    def test_report_counts_the_inner_iterations(self, mbsub_file, tmp_path,
                                                monkeypatch, solver):
        # diagnostics.inner_iters totals the inner iterations of a *_locg
        # solve's records; a plain solve has none.
        reports = []
        real = cli.SOLVERS[solver]
        monkeypatch.setitem(cli.SOLVERS, solver, lambda *a: (
            reports.append(real(*a)) or reports[-1]))
        report = tmp_path / "r.json"
        assert main(["run", "--problem", str(mbsub_file), "--solver", solver,
                     "--report", str(report)]) == EXIT_OK
        inner = [rec.inner_iters for rec in reports[0].iterations]
        count = json.loads(report.read_text())["diagnostics"]["inner_iters"]
        if solver.endswith("locg"):
            assert count == sum(inner) > 0
        else:
            assert count == 0 and set(inner) == {None}

    def test_full_audit_suite(self, mbsub_file):
        code = main(["run", "--problem", str(mbsub_file), "--solver", "nepv",
                     "--audit", "all"])
        assert code == EXIT_OK

    def test_max_iter_exit_two(self, mbsub_file):
        code = main(["run", "--problem", str(mbsub_file), "--solver", "npdo",
                     "--max-iter", "2", "--tol", "1e-12"])
        assert code == EXIT_MAXITER

    def test_negative_max_iter_exits_one(self, sep_file, capsys):
        # Before, -3 ran no step and exited 2 as if the budget had run out.
        code = main(["run", "--problem", str(sep_file), "--max-iter", "-3"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: max_iter must be >= 0\n"

    @pytest.mark.parametrize("solver", sorted(cli.SOLVERS))
    def test_report_certificates_are_those_of_the_returned_point(
            self, mbsub_file, tmp_path, monkeypatch, solver):
        # The report carries the route's certificate function evaluated at
        # the point the solver returned.
        solve, solved = cli.SOLVERS[solver], []

        def keeping(obj, P0, cfg):
            solved.append((obj, solve(obj, P0, cfg)))
            return solved[-1][1]

        monkeypatch.setitem(cli.SOLVERS, solver, keeping)
        report = tmp_path / "report.json"
        assert main(["run", "--problem", str(mbsub_file), "--solver", solver,
                     "--report", str(report)]) == EXIT_OK
        (obj, rep), = solved
        certify = (npdo_certificates if solver.startswith("npdo")
                   else nepv_certificates)
        assert json.loads(report.read_text())["certificates"] == certify(
            obj, rep.point)

    def test_report_is_strict_json(self, tmp_path):
        # At n = k the eigenvector route's gap is infinite; the report holds
        # it as the string "inf", not the non-standard literal Infinity.
        p = write_problem(tmp_path / "square.json", dict(VALID_DOCS["sep"], k=3))
        report = tmp_path / "report.json"
        assert main(["run", "--problem", str(p), "--solver", "nepv",
                     "--report", str(report)]) == EXIT_OK

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(report.read_text(), parse_constant=refuse)
        assert doc["certificates"]["gap"] == "inf"

    def test_unwritable_trace_exits_one(self, sep_file, tmp_path, capsys):
        trace = tmp_path / "missing" / "t.csv"
        assert main(["run", "--problem", str(sep_file),
                     "--trace", str(trace)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: cannot write {trace}: No such file or directory\n"

    def test_procrustes_residual_is_that_of_the_solved_point(self, tmp_path):
        rng = np.random.default_rng(5)
        C = rng.standard_normal((7, 4))
        B = rng.standard_normal((7, 2))
        p = write_problem(tmp_path / "procrustes.json", {
            "family": "procrustes", "n": 4, "k": 2,
            "matrices": {"C": C.tolist(), "B": B.tolist()}})
        report = tmp_path / "report.json"
        assert main(["run", "--problem", str(p), "--solver", "nepv",
                     "--seed", "4", "--report", str(report)]) == EXIT_OK
        doc = json.loads(report.read_text())
        rep = nepv_scf(build(load_problem(p)), random_stiefel(4, 2, 4),
                       NpdoConfig(tol=1e-8, max_iter=5000))
        residual = doc["diagnostics"]["procrustes_residual"]
        assert residual == np.linalg.norm(C @ rep.point - B)
        assert residual ** 2 + doc["f_final"] == pytest.approx(
            np.linalg.norm(B) ** 2, rel=1e-9)

    def test_zero_max_iter_certifies_the_start(self, sep_file, tmp_path):
        report = tmp_path / "report.json"
        code = main(["run", "--problem", str(sep_file), "--max-iter", "0",
                     "--report", str(report)])
        assert code == EXIT_MAXITER
        doc = json.loads(report.read_text())
        assert doc["iters"] == 0 and doc["certificates"]["eps_nepv"] > 0

    def test_negative_seed_exits_one(self, sep_file, capsys):
        code = main(["run", "--problem", str(sep_file), "--seed", "-1"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: seed must be >= 0\n"

    def test_oracle_flag(self, tmp_path):
        p = write_problem(tmp_path / "tiny.json", {
            "family": "sep", "n": 3, "k": 1,
            "matrices": {"A": [[5.0, 0, 0], [0, 3.0, 0], [0, 0, 1.0]]}})
        report = tmp_path / "r.json"
        code = main(["run", "--problem", str(p), "--oracle", "200",
                     "--report", str(report)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["diagnostics"]["oracle_gap"] == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_nonpositive_oracle_exits_one(self, tmp_path, capsys, budget):
        # The oracle runs after the solve's error handling, so a bad budget
        # must be caught with the other settings, before any problem is read.
        p = write_problem(tmp_path / "tiny.json", {
            "family": "sep", "n": 2, "k": 1,
            "matrices": {"A": [[2.0, 0], [0, 1.0]]}})
        code = main(["run", "--problem", str(p), "--oracle", budget])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: oracle budget must be >= 1\n"

    def test_oracle_too_large_exit_one(self, mbsub_file):
        code = main(["run", "--problem", str(mbsub_file), "--oracle", "10"])
        assert code == EXIT_INPUT

    def test_theta_audit_on_non_ratio_exit_one(self, sep_file):
        code = main(["run", "--problem", str(sep_file), "--audit", "theta"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("solver", ["npdo", "npdo-locg", "nepv-locg"])
    def test_audit_all_skips_theta_without_plain_nepv(self, theta_file,
                                                      tmp_path, solver):
        report = tmp_path / "r.json"
        # The polar route has no ascent guarantee on ratio problems and may
        # not converge; a short budget is enough to reach the audits.
        code = main(["run", "--problem", str(theta_file), "--solver", solver,
                     "--max-iter", "20", "--audit", "all",
                     "--report", str(report)])
        assert code in (EXIT_OK, EXIT_MAXITER, EXIT_AUDIT)
        diag = json.loads(report.read_text())["diagnostics"]
        # The series bound, like the theta bound, covers plain steps only.
        assert "theta_step" not in diag
        assert ("series" in diag) == (solver == "npdo")

    @pytest.mark.parametrize("solver", ["npdo-locg", "nepv-locg"])
    def test_series_audit_without_plain_solver_exit_one(self, mbsub_file,
                                                        capsys, solver):
        # The summability bound holds for plain steps only; nepv-locg's
        # outer records carry no gap, so the audit would weigh every term 0
        # and pass whatever the trace.
        code = main(["run", "--problem", str(mbsub_file), "--solver", solver,
                     "--audit", "series"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: series audit needs --solver npdo or nepv\n")

    @pytest.mark.parametrize("solver", ["npdo", "npdo-locg", "nepv-locg"])
    def test_theta_audit_without_plain_nepv_exit_one(self, theta_file, capsys,
                                                     solver):
        code = main(["run", "--problem", str(theta_file), "--solver", solver,
                     "--max-iter", "20", "--audit", "theta"])
        assert code == EXIT_INPUT
        assert "error: theta audit needs --solver nepv" in capsys.readouterr().err

    def test_theta_audit_with_plain_nepv(self, theta_file, tmp_path):
        report = tmp_path / "r.json"
        code = main(["run", "--problem", str(theta_file), "--solver", "nepv",
                     "--audit", "all", "--report", str(report)])
        assert code == EXIT_OK
        diag = json.loads(report.read_text())["diagnostics"]
        assert diag["theta_step"]["ok"] is True

    def test_reproducible_bit_for_bit(self, mbsub_file, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for t in (t1, t2):
            code = main(["run", "--problem", str(mbsub_file), "--solver",
                         "nepv", "--seed", "11", "--trace", str(t)])
            assert code == EXIT_OK
        assert t1.read_bytes() == t2.read_bytes()

    # The trace columns each solver fills; the others stay empty.
    FILLED = {
        "npdo": {"f", "eps_kkt", "eps_sym", "gap_or_sigmamin", "eta",
                 "step_angle"},
        "npdo-locg": {"f", "eps_kkt", "eps_sym", "gap_or_sigmamin", "eta",
                      "step_angle"},
        "nepv": {"f", "eps_nepv", "gap_or_sigmamin", "eta", "step_angle",
                 "m_asymmetry"},
        "nepv-locg": {"f", "eps_nepv", "eta", "step_angle"},
    }

    @pytest.mark.parametrize("solver", sorted(FILLED))
    def test_trace_columns_per_solver(self, mbsub_file, tmp_path, solver):
        trace = tmp_path / "t.csv"
        code = main(["run", "--problem", str(mbsub_file), "--solver", solver,
                     "--trace", str(trace)])
        assert code == EXIT_OK
        header, *rows = trace.read_text().splitlines()
        names = header.split(",")[1:]
        assert rows
        for row in rows:
            cells = dict(zip(names, row.split(",")[1:]))
            assert {c for c, v in cells.items() if v} == self.FILLED[solver]

    def test_failed_solve_exits_one(self, overflow_file, capsys):
        code = main(["run", "--problem", str(overflow_file), "--solver", "npdo"])
        assert code == EXIT_INPUT
        assert "error: solve failed:" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["npdo", "nepv"])
    def test_failed_solve_prints_only_the_error(self, overflow_file, solver):
        # A real process, so warnings reach stderr as a user sees them.
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-m", "stiefelscf", "run", "--problem",
             str(overflow_file), "--solver", solver],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=120)
        assert out.returncode == EXIT_INPUT
        assert out.stderr.startswith("error: solve failed:")
        assert out.stderr.count("\n") == 1, out.stderr

    @pytest.mark.parametrize("family, solver", [
        ("trcp", "npdo"), ("trcp", "nepv"), ("dft", "nepv")])
    def test_negative_phi_weight_exits_one(self, tmp_path, capsys, family,
                                           solver):
        # A negative weight makes the outer concave; such a solve used to
        # end in an "ascent violated" AssertionError traceback.
        n = 20
        matrices = ({"A_list": [make_psd(n, 7).tolist(),
                                make_psd(n, 8).tolist()]}
                    if family == "trcp" else {"A": make_psd(n, 7).tolist()})
        p = write_problem(tmp_path / "neg.json", {
            "family": family, "n": n, "k": 3, "phi": "quad_penalty",
            "phi_weight": -1, "matrices": matrices})
        assert main(["run", "--problem", str(p), "--solver", solver]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "phi_weight" in err

    def test_empty_sumct_block_exits_one(self, tmp_path, capsys):
        # An empty block with a matching (n, 0) D: the error names blocks.
        doc = dict(VALID_DOCS["sumct"], blocks=[[], [0, 1]])
        doc["matrices"] = dict(doc["matrices"], D_list=[
            [[], [], []], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.0]]])
        p = write_problem(tmp_path / "sumct.json", doc)
        assert main(["run", "--problem", str(p)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: sumct: blocks must partition")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("family", ["theta_tr", "theta_tr_sq"])
    def test_ratio_without_numerator_exits_one(self, tmp_path, capsys,
                                               family):
        # Only B: the numerator used to be zero at every point, and the run
        # reported "converged, f = 0" with exit 0.
        p = write_problem(tmp_path / "ratio.json", {
            "family": family, "n": 4, "k": 2, "theta": 0.25,
            "matrices": {"B": make_psd(4, 4, 1.0).tolist()}})
        assert main(["run", "--problem", str(p)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'A' or 'D'" in err

    @pytest.mark.parametrize("family, phi", [
        ("umds", "sum"), ("trcp", "sum"), ("trcp", "quad_penalty"),
        ("trcp", "logsumexp")])
    @pytest.mark.parametrize("A_list, named", [
        ([], "nonempty A_list"),
        ([[[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], [[1.0, 0], [0, 1.0]]],
         "'A_list[1]' has shape (2, 2)")], ids=["empty", "wrong-order"])
    def test_bad_a_list_exits_one(self, tmp_path, capsys, family, phi,
                                  A_list, named):
        # An empty list used to solve an objective with no terms ("converged,
        # f = 0", or a failed solve); a wrong-order matrix is named.
        p = write_problem(tmp_path / "a.json", {
            "family": family, "n": 3, "k": 2, "phi": phi,
            "matrices": {"A_list": A_list}})
        assert main(["run", "--problem", str(p)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err

    @pytest.mark.parametrize("scale", [1e-20, 1e-170])
    def test_asymmetric_matrix_below_unit_scale_exits_one(self, tmp_path,
                                                         capsys, scale):
        # The symmetry test is relative: a wrong matrix at a small data
        # scale is refused as at any other.
        A = scale * np.array([[1.0, 1.0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        p = write_problem(tmp_path / "a.json", {
            "family": "sep", "n": 3, "k": 2, "matrices": {"A": A.tolist()}})
        assert main(["run", "--problem", str(p)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "A is not symmetric" in err

    @pytest.mark.parametrize("solver, declared", [
        ("npdo", False), ("npdo-locg", False), ("nepv", True),
        ("nepv-locg", True)])
    def test_report_carries_the_declared_ascent(self, tmp_path, solver,
                                                declared):
        # An indefinite A loses the polar route's guarantee only; the report,
        # not a warning, says which route still carries it.
        p = write_problem(tmp_path / "sep.json", {
            "family": "sep", "n": 3, "k": 1,
            "matrices": {"A": [[2.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]]}})
        report = tmp_path / "r.json"
        main(["run", "--problem", str(p), "--solver", solver,
              "--report", str(report)])
        doc = json.loads(report.read_text())
        assert doc["diagnostics"]["declared_ascent"] is declared

    def test_nonpositive_tol_exits_one(self, sep_file, capsys):
        # An infinite tol would report the start point as converged.
        for tol in ("0", "inf"):
            code = main(["run", "--problem", str(sep_file), "--tol", tol])
            assert code == EXIT_INPUT
            assert (capsys.readouterr().err
                    == "error: tol must be positive and finite\n")

    def test_seed_changes_start(self, mbsub_file, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--problem", str(mbsub_file), "--seed", "1", "--trace", str(t1)])
        main(["run", "--problem", str(mbsub_file), "--seed", "2", "--trace", str(t2)])
        assert t1.read_bytes() != t2.read_bytes()

    def test_each_call_parses_its_own_arguments(self, sep_file, monkeypatch):
        # The parser is built once and kept; no value of one call carries
        # into the next, an omitted --seed included.
        seen = []
        monkeypatch.setattr(cli, "run_one", lambda args: seen.append(
            vars(args).copy()) or EXIT_OK)
        for argv in (["--seed", "7", "--solver", "npdo", "--tol", "1e-3"],
                     ["--seed", "3"], [], ["--seed", "7"]):
            assert main(["run", "--problem", str(sep_file), *argv]) == EXIT_OK
        assert [(a["seed"], a["solver"], a["tol"]) for a in seen] == [
            (7, "npdo", 1e-3), (3, "nepv", 1e-8), (0, "nepv", 1e-8),
            (7, "nepv", 1e-8)]
        assert cli.build_parser() is cli.build_parser()


class TestBatch:
    def test_runs_directory(self, tmp_path):
        d = tmp_path / "batch"
        d.mkdir()
        for i, fam in enumerate(["sep", "sep"]):
            write_problem(d / f"p{i}.json", {
                "family": fam, "n": 4, "k": 2,
                "matrices": {"A": make_psd(4, i, 0.5).tolist()}})
        code = main(["run", "--batch", str(d)])
        assert code == EXIT_OK
        assert (d / "p0_trace.csv").exists()
        assert (d / "p1_report.json").exists()

    def test_failed_solve_does_not_stop_the_batch(self, tmp_path, capsys):
        d = tmp_path / "batch"
        d.mkdir()
        write_problem(d / "good.json", {
            "family": "sep", "n": 4, "k": 2,
            "matrices": {"A": make_psd(4, 0, 0.5).tolist()}})
        write_problem(d / "overflow.json", {
            "family": "umds", "n": 4, "k": 2,
            "matrices": {"A_list": [(1e160 * np.eye(4)).tolist()]}})
        code = main(["run", "--batch", str(d), "--solver", "npdo"])
        assert code == EXIT_INPUT
        assert json.loads((d / "good_report.json").read_text())["converged"]
        assert not (d / "overflow_report.json").exists()
        assert "error: solve failed:" in capsys.readouterr().err

    def test_malformed_file_does_not_stop_the_batch(self, tmp_path, capsys):
        d = tmp_path / "batch"
        d.mkdir()
        write_problem(d / "good.json", VALID_DOCS["sep"])
        replace_field(d / "bad.json", VALID_DOCS["trcp"], "phi_weight", "null")
        assert main(["run", "--batch", str(d)]) == EXIT_INPUT
        assert json.loads((d / "good_report.json").read_text())["converged"]
        assert (d / "good_trace.csv").exists()
        assert not (d / "bad_report.json").exists()
        err = capsys.readouterr().err
        assert err == "error: field 'phi_weight' must be a finite number\n"

    def test_any_solver_exception_ends_that_problem_only(self, tmp_path,
                                                         capsys, monkeypatch):
        d = tmp_path / "batch"
        d.mkdir()
        for name, n in (("good", 3), ("bad", 4)):
            write_problem(d / f"{name}.json", {
                "family": "sep", "n": n, "k": 2,
                "matrices": {"A": make_psd(n, n, 0.5).tolist()}})
        solve = cli.SOLVERS["nepv"]

        def fragile(obj, P0, cfg):
            if obj.n == 4:
                raise RuntimeError("injected")
            return solve(obj, P0, cfg)

        monkeypatch.setitem(cli.SOLVERS, "nepv", fragile)
        assert main(["run", "--batch", str(d)]) == EXIT_INPUT
        assert json.loads((d / "good_report.json").read_text())["converged"]
        assert (d / "good_trace.csv").exists()
        assert not (d / "bad_report.json").exists()
        assert capsys.readouterr().err == "error: solve failed: injected\n"

    def test_unwritable_report_ends_that_problem_only(self, tmp_path, capsys):
        d = tmp_path / "batch"
        d.mkdir()
        for name in ("a", "c"):
            write_problem(d / f"{name}.json", VALID_DOCS["sep"])
        (d / "a_report.json").mkdir()
        assert main(["run", "--batch", str(d)]) == EXIT_INPUT
        assert json.loads((d / "c_report.json").read_text())["converged"]
        assert (d / "c_trace.csv").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: cannot write {d / 'a_report.json'}: Is a directory\n"

    def test_leaves_warning_filters_alone(self, tmp_path):
        # Worker threads must not install or restore process-wide filters.
        d = tmp_path / "batch"
        d.mkdir()
        for i in range(6):
            write_problem(d / f"p{i}.json", {
                "family": "sep", "n": 4, "k": 2,
                "matrices": {"A": make_psd(4, i, 0.5).tolist()}})
        before = list(warnings.filters)
        for _ in range(3):
            assert main(["run", "--batch", str(d)]) == EXIT_OK
            assert warnings.filters == before

    def test_negative_seed_writes_nothing(self, tmp_path, capsys):
        d = tmp_path / "batch"
        d.mkdir()
        for i in range(3):
            write_problem(d / f"p{i}.json", VALID_DOCS["sep"])
        assert main(["run", "--batch", str(d), "--seed", "-1"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert sorted(p.name for p in d.iterdir()) == [
            "p0.json", "p1.json", "p2.json"]

    def test_nonpositive_oracle_writes_nothing(self, tmp_path, capsys):
        d = tmp_path / "batch"
        d.mkdir()
        for i in range(3):
            write_problem(d / f"p{i}.json", VALID_DOCS["sep"])
        assert main(["run", "--batch", str(d), "--oracle", "0"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: oracle budget must be >= 1\n"
        assert sorted(p.name for p in d.iterdir()) == [
            "p0.json", "p1.json", "p2.json"]

    def test_empty_directory_exit_one(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["run", "--batch", str(d)]) == EXIT_INPUT


JSON_VALUES = st.one_of(
    st.just("null"), st.just("true"), st.just("false"), st.just("1e400"),
    st.integers(-3, 6).map(str), st.integers(10**18, 10**400).map(str),
    st.text(max_size=4).map(json.dumps),
    st.lists(st.integers(-2, 4), max_size=3).map(json.dumps),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 4),
                    max_size=2).map(json.dumps))


@pytest.mark.parametrize("name", sorted(VALID_DOCS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_one_malformed_field_exits_cleanly(name, data):
    # One top-level field replaced by an arbitrary JSON value: the CLI
    # returns an exit code, and an input error is one "error:" line.
    doc = VALID_DOCS[name]
    key = data.draw(st.sampled_from(sorted(doc)), label="field")
    raw = data.draw(JSON_VALUES, label="value")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        p = replace_field(Path(tmp) / "doc.json", doc, key, raw)
        with contextlib.redirect_stderr(err):
            code = main(["run", "--problem", str(p)])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_MAXITER, EXIT_AUDIT)
    if code == EXIT_INPUT:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, text


def catalog_document(family, n, k, rng, indefinite):
    # A problem file of ``family`` at order n with random matrices; with
    # ``indefinite`` the quadratic matrices are indefinite, which may cost
    # the family its declared guarantee but never makes the file invalid.
    def quad(shift=0.0):
        G = rng.standard_normal((n, n))
        if indefinite and not shift:
            return (0.5 * (G + G.T)).tolist()
        return (G @ G.T / n + shift * np.eye(n)).tolist()

    def lin(cols=k):
        return rng.standard_normal((n, cols)).tolist()

    split = [list(range(k))] if k == 1 else [list(range(k // 2)),
                                             list(range(k // 2, k))]
    mats = {
        "sep": lambda: {"A": quad()},
        "mbsub": lambda: {"A": quad(), "D": lin()},
        "sumct": lambda: {"A_list": [quad() for _ in split],
                          "D_list": [lin(len(b)) for b in split]},
        "theta_tr": lambda: {"A": quad(), "B": quad(1.0), "D": lin()},
        "olda": lambda: {"A": quad(), "B": quad(1.0)},
        "occa": lambda: {"B": quad(1.0), "D": lin()},
        "theta_tr_sq": lambda: {"A": quad(), "B": quad(1.0), "D": lin()},
        "umds": lambda: {"A_list": [quad(), quad()]},
        "trcp": lambda: {"A_list": [quad(), quad()]},
        "dft": lambda: {"A": quad()},
        "quad_lin2": lambda: {"A": quad(), "D": lin()},
        "procrustes": lambda: {"C": rng.standard_normal((n + 2, n)).tolist(),
                               "B": rng.standard_normal((n + 2, k)).tolist()},
    }[family]()
    doc = {"family": family, "n": n, "k": k, "matrices": mats}
    if family == "sumct":
        doc["blocks"] = split
    if family in ("theta_tr", "theta_tr_sq"):
        doc["theta"] = float(rng.uniform(0.0, 1.0 if family == "theta_tr" else 0.5))
    return doc


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILIES), phi=st.sampled_from(OUTER_PRESETS),
       weight=st.sampled_from([-1.5, -1e-3, 0.0, 1e-3, 1.5]),
       solver=st.sampled_from(sorted(cli.SOLVERS)), n=st.integers(2, 6),
       data=st.data(), seed=st.integers(0, 2**32 - 1),
       indefinite=st.booleans())
def test_every_catalog_problem_exits_cleanly(family, phi, weight, solver, n,
                                             data, seed, indefinite):
    # Over family x phi preset x sign of phi_weight x solver, the CLI
    # returns an exit code and never raises; an input error or failed
    # solve is one "error:" line.
    k = data.draw(st.integers(1, n), label="k")
    doc = catalog_document(family, n, k, np.random.default_rng(seed),
                           indefinite)
    doc.update(phi=phi, phi_weight=weight)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        p = write_problem(Path(tmp) / "doc.json", doc)
        with contextlib.redirect_stderr(err):
            code = main(["run", "--problem", str(p), "--solver", solver,
                         "--max-iter", "500", "--audit", "certs"])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_MAXITER, EXIT_AUDIT)
    if weight < 0:
        assert code == EXIT_INPUT and "phi_weight" in err.getvalue()
    if code == EXIT_INPUT:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, text


class TestNegativeControl:
    def oscillating_report(self):
        fs = [0.0] + [1.0 if i % 2 == 0 else 0.2 for i in range(10)]
        recs = [IterationRecord(i, f, eps_kkt=0.5, eps_sym=0.0, eps_nepv=0.5,
                                sigma_min=1.0, gap=1.0, step_angle=1.0)
                for i, f in enumerate(fs[1:])]
        return SolveReport(point=np.eye(3, 2), f_final=fs[-1], f_initial=fs[0],
                           converged=True, stop_reason="converged",
                           iterations=recs)

    def test_exit_code_mapping(self):
        assert cli.exit_code(True, True) == EXIT_OK
        assert cli.exit_code(False, True) == EXIT_MAXITER
        assert cli.exit_code(True, False) == EXIT_AUDIT

    def test_oscillating_trace_exits_three(self, sep_file, monkeypatch):
        # Wire a stub solver that returns the oscillating trace and check the
        # full CLI path maps the failed audits to exit code 3.
        rep = self.oscillating_report()
        monkeypatch.setitem(cli.SOLVERS, "nepv", lambda obj, P0, cfg: rep)
        code = main(["run", "--problem", str(sep_file), "--solver", "nepv",
                     "--audit", "series"])
        assert code == EXIT_AUDIT

    def test_ascent_violation_exits_three_with_outputs(self, sep_file,
                                                        tmp_path, monkeypatch):
        # A solve stopped by a violated declared ascent exits 3 without any
        # audit requested, and still writes its trace and report.
        rep = SolveReport(
            point=np.eye(3, 2), f_final=0.5, f_initial=1.0, converged=False,
            stop_reason="ascent_violated",
            iterations=[IterationRecord(0, 0.5, eps_kkt=0.1, eps_sym=0.0,
                                        ascent_violated=True)])
        monkeypatch.setitem(cli.SOLVERS, "npdo", lambda obj, P0, cfg: rep)
        trace, report = tmp_path / "t.csv", tmp_path / "r.json"
        code = main(["run", "--problem", str(sep_file), "--solver", "npdo",
                     "--trace", str(trace), "--report", str(report)])
        assert code == EXIT_AUDIT
        assert trace.read_text().splitlines()[1].startswith("0,0.5,0.1,")
        doc = json.loads(report.read_text())
        assert doc["converged"] is False
        assert doc["diagnostics"]["stop_reason"] == "ascent_violated"

    def test_certs_audit_checks_the_field_identity(self, mbsub_file,
                                                    monkeypatch):
        obj = build(load_problem(mbsub_file))
        rep = nepv_scf(obj, random_stiefel(obj.n, obj.k, 0))
        certs = nepv_certificates(obj, rep.point)
        assert 0.0 <= certs["field_identity"] <= FIELD_IDENTITY_TOL
        assert cli.run_audits({"certs"}, obj, rep, None, "nepv")[1]
        certs["field_identity"] = 10 * FIELD_IDENTITY_TOL
        monkeypatch.setattr(cli, "nepv_certificates", lambda obj, P: certs)
        diag, ok = cli.run_audits({"certs"}, obj, rep, None, "nepv")
        assert not ok and diag["certificates_ok"] is False
