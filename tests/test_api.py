"""Public API lists: every module's ``__all__`` resolves and star-imports."""

import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_listed(name):
    # the converse: a public function or class a module defines is in its __all__,
    # so reading __all__ shows the whole public surface
    mod = importlib.import_module(f"qmlab.{name}")
    defined = [n for n, obj in vars(mod).items()
               if not n.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == mod.__name__]
    unlisted = sorted(set(defined) - set(mod.__all__))
    assert not unlisted, f"qmlab.{name} defines public names outside __all__: {unlisted}"
