"""Tests for the package's exported names."""

import importlib
import pkgutil

import pytest

import cartsel

# __main__ runs the command line when imported, so it is not scanned.
MODULES = ["cartsel"] + [
    f"cartsel.{info.name}"
    for info in pkgutil.iter_modules(cartsel.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
