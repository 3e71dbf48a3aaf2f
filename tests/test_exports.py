"""Every name a ``stiefelscf`` module lists in ``__all__`` exists, so a name
left behind after a deletion fails here rather than at a user's import; and
importing the package loads only what it uses."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stiefelscf

MODULES = ["stiefelscf"] + [
    f"stiefelscf.{info.name}"
    for info in pkgutil.iter_modules(stiefelscf.__path__)
    if info.name != "__main__"]


def test_the_modules_with_all_are_found():
    with_all = {name for name in MODULES
                if hasattr(importlib.import_module(name), "__all__")}
    assert {"stiefelscf.objective", "stiefelscf.problems"} <= with_all


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def test_import_leaves_scipy_special_out():
    # scipy.special would add about 46 ms to every import of the package;
    # the logsumexp preset is written in numpy instead.
    code = ("import sys, stiefelscf, stiefelscf.cli\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.special')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(stiefelscf.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
