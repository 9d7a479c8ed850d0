"""Every name a module exports through ``__all__`` exists.

A stale ``__all__`` entry breaks only ``from module import *``, which no
other test runs.
"""

import importlib
import pkgutil

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
