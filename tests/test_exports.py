"""Every name a ``stiefelscf`` module lists in ``__all__`` exists, so a name
left behind after a deletion fails here rather than at a user's import."""

import importlib
import pkgutil

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
