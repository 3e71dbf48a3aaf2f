"""Every layer the benchmark traces is a function of the program.

The benchmark's tracer wraps the functions named in ``perfbench.tracing``'s
``TRACED`` table and reports a missing one only as a "not traced" line, so a
rename or a move in ``src/stiefelscf`` would silently drop that layer from
the per-layer metrics.  This test fails instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stiefelscf"


def _traced():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


TRACED = _traced()


def test_traced_table_is_not_empty():
    assert TRACED


@pytest.mark.parametrize("module, attr", TRACED,
                         ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_layer_resolves_to_a_program_function(module, attr):
    home = importlib.import_module(f"stiefelscf.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        fn = vars(getattr(home, cls_name)).get(meth)
    else:
        fn = getattr(home, attr, None)
    assert inspect.isfunction(fn), f"stiefelscf.{module}.{attr} is not a function"
    assert Path(inspect.getsourcefile(fn)).resolve().parent == PACKAGE
