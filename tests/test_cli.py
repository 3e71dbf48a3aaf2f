import json

import numpy as np
import pytest

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
from stiefelscf.npdo import IterationRecord, SolveReport


def make_psd(n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T / n + shift * np.eye(n)


def write_problem(path, doc):
    path.write_text(json.dumps(doc))
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

    def test_full_audit_suite(self, mbsub_file):
        code = main(["run", "--problem", str(mbsub_file), "--solver", "nepv",
                     "--audit", "all"])
        assert code == EXIT_OK

    def test_max_iter_exit_two(self, mbsub_file):
        code = main(["run", "--problem", str(mbsub_file), "--solver", "npdo",
                     "--max-iter", "2", "--tol", "1e-12"])
        assert code == EXIT_MAXITER

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
        assert "theta_step" not in diag and "series" in diag

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failed_solve_exits_one(self, overflow_file, capsys):
        code = main(["run", "--problem", str(overflow_file), "--solver", "npdo"])
        assert code == EXIT_INPUT
        assert "error: solve failed:" in capsys.readouterr().err

    def test_seed_changes_start(self, mbsub_file, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--problem", str(mbsub_file), "--seed", "1", "--trace", str(t1)])
        main(["run", "--problem", str(mbsub_file), "--seed", "2", "--trace", str(t2)])
        assert t1.read_bytes() != t2.read_bytes()


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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

    def test_empty_directory_exit_one(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["run", "--batch", str(d)]) == EXIT_INPUT


class TestNegativeControl:
    def oscillating_report(self):
        fs = [0.0] + [1.0 if i % 2 == 0 else 0.2 for i in range(10)]
        recs = [IterationRecord(i, f, eps_kkt=0.5, eps_sym=0.0, eps_nepv=0.5,
                                sigma_min=1.0, gap=1.0, step_angle=1.0)
                for i, f in enumerate(fs[1:])]
        return SolveReport(point=np.eye(2), f_final=fs[-1], f_initial=fs[0],
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
        monkeypatch.setitem(cli.SOLVERS, "nepv",
                            (lambda obj, P0, cfg: rep, cli.SOLVERS["nepv"][1]))
        code = main(["run", "--problem", str(sep_file), "--solver", "nepv",
                     "--audit", "series"])
        assert code == EXIT_AUDIT
