"""Every name a slag3 module exports in __all__ resolves on the module."""

import importlib

import pytest

MODULES = ["ambient", "cubics", "gallery", "geometry", "integrate",
           "structure_laws"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"slag3.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
