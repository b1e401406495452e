"""Run the usage examples embedded in the package docstrings and the README."""
import doctest
import re
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


def test_readme_lists_the_default_bars():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("with their default size bars:", 1)[1].split("`all` runs", 1)[0]
    listed = {name: int(bar) for name, bar in re.findall(r"`([a-z-]+)` (\d+)", paragraph)}
    assert listed == {name: bar for name, (_, bar) in catbij.verification.SUITES.items()}
