"""Catalan-object bijections, statistics, and polynomial identities.

The package is organized around two value types, ``Permutation`` and
``DyckPath``, the bijections between their pattern classes, standard Young
tableaux with evacuation, and exact polynomials in a, q, t built from the
resulting statistics.  See the README for the command-line interface.

Importing the package runs no library module.  Each of the seven sits in
``sys.modules`` from the start as a lazy module (``importlib.util.LazyLoader``)
and is compiled and run on the first read of one of its attributes, so a
command loads only the modules it touches.  The public names below resolve
through the module ``__getattr__`` of PEP 562, which forwards every lookup
to the owning module and binds nothing here.
"""

__version__ = "0.1.0"

#: the public names of each library module
_EXPORTS = {
    "errors": (
        "DEFAULT_MAX_N", "CeilingExceeded", "NegativeExponent", "NoAssignment",
        "NonBinaryCharacter", "NotAvoiding132", "NotAvoiding231", "NotAvoiding312",
        "NotAvoiding321", "PathError", "PatternViolation", "PrefixViolation", "UnbalancedCounts",
    ),
    "permutations": (
        "DescentData", "PermStats", "Permutation", "avoiders_with_stats", "avoids", "contains",
        "contains_naive", "descent_data", "descent_run_before", "enumerate_avoiders", "identity",
        "inverse", "parse_permutation", "perm_stats", "reconstruct_231", "reverse",
    ),
    "dyck": (
        "DyckPath", "PathStats", "PathSums", "ValleySet", "area", "bounce", "enumerate_dyck",
        "from_valleys", "parse_path", "path_stats", "paths_with_stats", "reflect",
        "valley_complement", "valleys",
    ),
    "bijections": (
        "beta", "heights", "kappa", "kappa_factored", "phi", "phi_inv", "psi_perm",
        "trio_132_213",
    ),
    "tableaux": (
        "StandardTableau", "evacuation", "inverse_rsk", "j_involution", "parse_tableau", "rsk",
        "standard_tableaux", "tableau_descents",
    ),
    "polynomials": (
        "KdResult", "MultiPoly", "TruncatedSeries", "a_poly", "a_poly_via_paths", "avoider_poly",
        "cat_qt", "kd_search", "macmahon_q_catalan", "macmahon_q_catalan_quotient", "path_poly",
        "q_binomial", "qt_swap", "t_to_q_inverse_shifted", "tristat_gf", "verify_gf_identity",
    ),
    "verification": (),
}


def _register() -> dict:
    """Put each library module in sys.modules, and here as an attribute,
    without running it (the lazy-import recipe of the importlib docs);
    returns each public name's module."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    home = {}
    for short, names in _EXPORTS.items():
        spec = find_spec(f"{__name__}.{short}")
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[short] = module
        home.update(dict.fromkeys(names, module))
    return home


_HOME = _register()
#: what ``from catbij import *`` binds: the public names and the six
#: modules they come from
__all__ = [*_HOME, *(short for short, names in _EXPORTS.items() if names)]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
