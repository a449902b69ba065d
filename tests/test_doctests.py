"""The `>>>` examples in the package's docstrings run as part of the suite."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import ncgeo

MODULES = sorted(
    ["ncgeo"] + [f"ncgeo.{info.name}" for info in pkgutil.iter_modules(ncgeo.__path__)]
)


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_examples_exist():
    # the suite would pass vacuously if the examples moved out of reach
    attempted = sum(doctest.testmod(importlib.import_module(n)).attempted for n in MODULES)
    assert attempted >= 5
