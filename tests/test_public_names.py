"""Every name a slag3 module exports in __all__ resolves on the module, and
every exported function and exception class is named in another test
module."""

import importlib
import inspect
import pathlib
import re

import pytest

MODULES = ["ambient", "cubics", "gallery", "geometry", "integrate",
           "structure_laws"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"slag3.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing


TESTS = pathlib.Path(__file__).resolve().parent


def _named_in_other_tests():
    """The identifiers that the other test modules mention."""
    words = set()
    for path in TESTS.glob("test_*.py"):
        if path.name != pathlib.Path(__file__).name:
            words.update(re.findall(r"\w+", path.read_text()))
    return words


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_function_and_error_is_named_in_a_test(name):
    # a public entry point, function or exception class, that no other
    # test module names has no direct test
    module = importlib.import_module(f"slag3.{name}")
    named = _named_in_other_tests()
    untested = [n for n in module.__all__
                if (inspect.isfunction(getattr(module, n))
                    or (inspect.isclass(getattr(module, n))
                        and issubclass(getattr(module, n), BaseException)))
                and n not in named]
    assert not untested, untested
