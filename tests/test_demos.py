"""Smoke test: every demo script and the README's quick start run to
completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
           OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def test_demos_found():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    out = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=ENV,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_readme_quick_start_runs():
    # The quick start documents the public API; run its python block as
    # written, so the two cannot drift apart.
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
