"""Run the usage examples embedded in the package docstrings and the README."""
import doctest
from pathlib import Path

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


def test_readme_quick_start():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
