"""Keep the docstring examples honest."""

import doctest
import importlib
import pkgutil

import pytest

import nk

MODULES = ["nk"] + [f"nk.{m.name}" for m in pkgutil.iter_modules(nk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failures, tested = doctest.testmod(importlib.import_module(name))
    assert failures == 0
    if name in ("nk.rings", "nk.linalg"):
        assert tested > 0
