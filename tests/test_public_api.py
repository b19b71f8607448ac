"""Every package export resolves.

A name left in ``__all__`` after its import is deleted breaks only
``from repro.x import *``, which nothing else in the suite runs.  This
imports every module under ``repro`` and checks each ``__all__`` entry
names a real attribute, once.
"""

import importlib
import pkgutil

import pytest

import repro


def _module_names():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        # ``python -m`` entry points run the linter on import
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        names.append(info.name)
    return sorted(names)


MODULES = _module_names()


def test_walk_finds_the_packages():
    assert "repro.core" in MODULES
    assert "repro.simulation.failures" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(set(exported)) == len(exported), sorted(
        n for n in set(exported) if exported.count(n) > 1
    )
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
