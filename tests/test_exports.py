"""Every name a module exports in ``__all__`` exists.

Tools that walk ``__all__`` (``from moonshine.lattice import *``, or a
tracer wrapping each public callable) fail on a stale entry left behind by
a deletion, so each entry must resolve.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import moonshine

MODULES = ["moonshine"] + [
    f"moonshine.{info.name}"
    for info in pkgutil.iter_modules(moonshine.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{module_name} declares no __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
