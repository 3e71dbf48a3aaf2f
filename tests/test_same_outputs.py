"""``tools/same_outputs.py`` compares two program trees pair by pair on the
benchmark's instances."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _copy(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _tool():
    spec = importlib.util.spec_from_file_location(
        "_same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_same_tree_gives_no_differences(capsys):
    assert _tool().main([str(SRC), str(SRC), "--tiny"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 of 52 (instance, solver) pairs differ"]


def test_a_changed_inner_tolerance_shows_in_the_locg_pairs(tmp_path, capsys):
    copy = _copy(tmp_path)
    npdo = copy / "stiefelscf" / "npdo.py"
    text = npdo.read_text()
    assert text.count("\nINNER_TOL_FRACTION = 0.25\n") == 1
    npdo.write_text(text.replace("\nINNER_TOL_FRACTION = 0.25\n",
                                 "\nINNER_TOL_FRACTION = 0.1\n"))
    assert _tool().main([str(SRC), str(copy), "--tiny"]) == 1
    lines = capsys.readouterr().out.splitlines()
    differing = [line.split()[1] for line in lines
                 if line.startswith("differs: ")]
    assert differing
    assert all(key.endswith("-locg") for key in differing)
    assert lines[-1] == f"{len(differing)} of 52 (instance, solver) pairs differ"
    # With --rtol each differing pair says whether its inner iteration
    # count, which the tolerance moves, still matches.
    assert _tool().main([str(SRC), str(copy), "--tiny", "--rtol", "1e-10"]) == 1
    described = [line.split("; ")[-1] for line in
                 capsys.readouterr().out.splitlines()
                 if line.startswith("    exit code")]
    assert len(described) == len(differing)
    assert "inner iterations DIFFERS" in described
    assert set(described) <= {"inner iterations same",
                              "inner iterations DIFFERS"}


def test_a_changed_report_layout_shows_in_every_pair(tmp_path, capsys):
    # The same values written with another indent: the report text differs.
    copy = _copy(tmp_path)
    cli = copy / "stiefelscf" / "cli.py"
    text = cli.read_text()
    assert text.count("indent=2") == 1
    cli.write_text(text.replace("indent=2", "indent=1"))
    assert _tool().main([str(SRC), str(copy), "--tiny"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 53
    assert all(line.startswith("differs: ") and line.endswith(" (report)")
               for line in lines[:-1])
    assert lines[-1] == "52 of 52 (instance, solver) pairs differ"


def test_a_perturbed_f_is_the_same_within_rtol(tmp_path, capsys):
    # f written 1e-14 relative off, in the trace and in the report: a byte
    # difference, within rtol 1e-12.  The closing line names the trace
    # column and the report key that moved, and nothing else.
    copy = _copy(tmp_path)
    cli = copy / "stiefelscf" / "cli.py"
    text = cli.read_text()
    edits = (("_fmt(rec.f)", "_fmt(rec.f * (1 + 1e-14))"),
             ('"f_final": report.f_final,',
              '"f_final": report.f_final * (1 + 1e-14),'))
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    cli.write_text(text)
    tool = _tool()
    assert tool.main([str(SRC), str(copy), "--tiny"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith(" pairs differ")
    assert tool.main([str(SRC), str(copy), "--tiny", "--rtol", "1e-12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("0 of 52 (instance, solver) pairs differ "
                                "beyond rtol 1e-12; ")
    assert lines[-1] == "differing trace columns: f; report keys: f_final"
    described = [line for line in lines if line.startswith("    exit code")]
    assert described
    assert all(line == "    exit code same; stop reason same; iterations "
               "same; inner iterations same" for line in described)
    assert tool.main([str(SRC), str(copy), "--tiny", "--rtol", "1e-16"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert not lines[-2].startswith("0 of ")
    assert lines[-1] == "differing trace columns: f; report keys: f_final"


def test_false_convergence_is_counted_on_each_side(tmp_path, capsys):
    # A copy whose solves stop at 100 x tol says "converged" where the
    # certificate residual exceeds the benchmark's tolerance: the tool lists
    # those pairs on the new side and none on the old.
    copy = _copy(tmp_path)
    npdo = copy / "stiefelscf" / "npdo.py"
    text = npdo.read_text()
    assert text.count("if res <= cfg.tol:") == 1
    npdo.write_text(text.replace("if res <= cfg.tol:",
                                 "if res <= 100 * cfg.tol:"))
    assert _tool().main([str(SRC), str(copy), "--tiny"]) == 1
    lines = capsys.readouterr().out.splitlines()
    false = [line.split()[3] for line in lines
             if line.startswith("falsely converged (")]
    assert not any(line.startswith("falsely converged (old)")
                   for line in lines)
    assert false
    assert f"0 old, {len(false)} new pairs say converged above 1.01 x tol " \
           "1e-08" in lines
