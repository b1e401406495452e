"""Run the usage examples embedded in the package docstrings."""
import doctest

import pytest

import catbij.bijections
import catbij.dyck
import catbij.permutations
import catbij.polynomials
import catbij.tableaux
import catbij.verification

MODULES = [
    catbij.permutations,
    catbij.dyck,
    catbij.bijections,
    catbij.tableaux,
    catbij.polynomials,
    catbij.verification,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
