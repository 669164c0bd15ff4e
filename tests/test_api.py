"""Public API lists: every module's ``__all__`` resolves and star-imports."""

import importlib
import pkgutil

import pytest

import qmlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(qmlab.__path__))


def test_modules_found():
    assert {"grid", "symbols", "quasimodes", "wavelets", "propagator"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    mod = importlib.import_module(f"qmlab.{name}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"qmlab.{name}.__all__ names undefined {missing}"
    ns = {}
    exec(f"from qmlab.{name} import *", ns)
    assert set(exported) <= set(ns)
