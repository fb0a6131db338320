"""Every exported name resolves, so a deleted function cannot leave a stale
entry in ``__all__`` behind."""

import importlib
import pkgutil

import pytest

import spectralfactors

MODULES = ["spectralfactors"] + [
    f"spectralfactors.{info.name}"
    for info in pkgutil.iter_modules(spectralfactors.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(module, name)] == []
