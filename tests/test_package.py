"""The package surface and start-up: ``import catbij`` runs no library
module, each command loads only the modules it touches, and the public names
resolve on first use."""
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import catbij
from catbij import cli, verification

SRC = str(Path(catbij.__file__).resolve().parents[1])
LIBRARY = ("errors", "permutations", "dyck", "bijections", "tableaux", "polynomials",
           "verification")

# Runs ``python -m catbij <argv>`` through runpy, as ``-m`` does, then prints
# the exit code and the catbij modules that ran; ``type`` reads a lazy
# module without loading it.
PROBE = """\
import contextlib, io, runpy, sys, types
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("catbij", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(code)
print(" ".join(sorted(name for name, module in sys.modules.items()
                      if name.startswith("catbij") and type(module) is types.ModuleType)))
print(" ".join(sorted(name for name, module in sys.modules.items()
                      if name.startswith("catbij") and type(module) is not types.ModuleType)))
"""

#: what ``from catbij import *`` has always bound
STAR_NAMES = {
    "CeilingExceeded", "DEFAULT_MAX_N", "DescentData", "DyckPath", "KdResult", "MultiPoly",
    "NegativeExponent", "NoAssignment", "NonBinaryCharacter", "NotAvoiding132", "NotAvoiding231",
    "NotAvoiding312", "NotAvoiding321", "PathError", "PathStats", "PathSums", "PatternViolation",
    "PermStats", "Permutation", "PrefixViolation", "StandardTableau", "TruncatedSeries",
    "UnbalancedCounts", "ValleySet", "a_poly", "a_poly_via_paths", "area", "avoider_poly",
    "avoiders_with_stats", "avoids", "beta", "bijections", "bounce", "cat_qt", "contains",
    "contains_naive", "descent_data", "descent_run_before", "dyck", "enumerate_avoiders",
    "enumerate_dyck", "errors", "evacuation", "from_valleys", "heights", "identity", "inverse",
    "inverse_rsk", "j_involution", "kappa", "kappa_factored", "kd_search", "macmahon_q_catalan",
    "macmahon_q_catalan_quotient", "parse_path", "parse_permutation", "parse_tableau",
    "path_poly", "path_stats", "paths_with_stats", "perm_stats", "permutations", "phi",
    "phi_inv", "polynomials", "psi_perm", "q_binomial", "qt_swap", "reconstruct_231", "reflect",
    "reverse", "rsk", "standard_tableaux", "t_to_q_inverse_shifted", "tableau_descents",
    "tableaux", "trio_132_213", "tristat_gf", "valley_complement", "valleys",
    "verify_gf_identity",
}


def python(*args):
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)


def modules_after(*argv):
    """(exit code, modules run, modules still lazy) of a fresh
    ``python -m catbij argv``, with the names after ``catbij.``."""
    result = python("-c", PROBE, *argv)
    assert result.stderr == ""
    code, ran, lazy = result.stdout.split("\n")[:3]
    short = lambda names: {name.removeprefix("catbij.") for name in names.split()}
    return int(code), short(ran), short(lazy)


class TestStartup:
    def test_help_loads_no_library_module_but_errors(self):
        code, ran, lazy = modules_after("--help")
        assert code == 0
        assert ran == {"catbij", "cli", "errors"}
        assert lazy == set(LIBRARY) - {"errors"}

    @pytest.mark.parametrize("argv,loaded,unloaded", [
        (("enumerate", "avoiders:231", "3"), {"permutations"}, {"dyck"}),
        (("poly", "a", "3"), {"permutations", "dyck", "polynomials"},
         {"verification", "tableaux"}),
    ], ids=["enumerate", "poly"])
    def test_a_command_loads_what_it_touches(self, argv, loaded, unloaded):
        code, ran, lazy = modules_after(*argv)
        assert code == 0
        assert loaded <= ran and unloaded <= lazy
        assert ran | lazy >= {"catbij", "cli", *LIBRARY}

    def test_cli_as_main_warns_nothing(self):
        # a lazily registered cli would make runpy warn that it is in sys.modules
        result = python("-W", "error", "-m", "catbij.cli", "--help")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("usage: catbij")

    def test_verify_help_lists_the_suites_in_order(self):
        assert cli._SUITE_NAMES == tuple(verification.SUITES)


class TestSurface:
    def test_star_import_binds_the_public_names_and_six_modules(self):
        namespace = {}
        exec("from catbij import *", namespace)
        assert set(namespace) - {"__builtins__"} == STAR_NAMES

    def test_dir_lists_every_public_name(self):
        assert STAR_NAMES <= set(dir(catbij))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'catbij' has no attribute 'nope'$"):
            catbij.nope

    def test_names_are_forwarded_not_bound(self):
        # a name bound here would keep whatever the module held at first read
        assert catbij.phi is catbij.bijections.phi
        assert "phi" not in vars(catbij)

    def test_every_library_module_is_registered(self):
        for short in LIBRARY:
            assert isinstance(sys.modules[f"catbij.{short}"], types.ModuleType)
            assert getattr(catbij, short) is sys.modules[f"catbij.{short}"]
        assert catbij.DEFAULT_MAX_N == catbij.permutations.DEFAULT_MAX_N == 12
