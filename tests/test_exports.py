"""Every name a module exports through ``__all__`` exists, and the package
imports nothing beyond the standard library, numpy and scipy.

A stale ``__all__`` entry breaks only ``from module import *``, which no
other test runs.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import eulerfourier

MODULES = ["eulerfourier"] + [
    f"eulerfourier.{info.name}" for info in pkgutil.iter_modules(eulerfourier.__path__)
]


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert not missing, f"{modname}.__all__ names missing attributes: {missing}"


def test_the_package_imports_only_the_stdlib_numpy_and_scipy():
    # every import statement, the lazy ones inside functions included: a
    # runtime dependency (jsonschema was one) cannot creep back unnoticed
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "eulerfourier"}
    found = set()
    for path in sorted(Path(eulerfourier.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert {"numpy", "scipy"} <= {top for _, top in found}
    assert sorted((name, top) for name, top in found if top not in allowed) == []
