"""Every name a module exports resolves, so a retired name cannot linger
in an export list."""

import importlib
import pkgutil

import pytest

import cuspquot

MODULES = ["cuspquot"] + [
    f"cuspquot.{info.name}" for info in pkgutil.iter_modules(cuspquot.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []
