"""Run the docstring examples of every module of kzeta and kzeta.arith."""

import doctest
import importlib
import pkgutil

import pytest

import kzeta
import kzeta.arith

# The package, then its modules, kzeta.arith among them.  kzeta.__main__ runs
# the command line when imported, and holds no examples.
MODULES = ["kzeta"] + sorted(
    info.name
    for package in (kzeta, kzeta.arith)
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
    if info.name != "kzeta.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, "%d of %d examples failed in %s" % (
        result.failed,
        result.attempted,
        name,
    )
