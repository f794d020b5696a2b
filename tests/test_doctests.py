from __future__ import annotations

import doctest
import importlib

import pytest

MODULES = [
    "fatdiag.algebra",
    "fatdiag.combinatorics",
    "fatdiag.permgroup",
    "fatdiag.spaces",
    "fatdiag.eulerchar",
    "fatdiag.invariants",
    "fatdiag.fundgroup",
    "fatdiag.strata",
    "fatdiag.graphconf",
    "fatdiag.jsonread",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0
