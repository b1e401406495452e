"""Catalan-object bijections, statistics, and polynomial identities.

The package is organized around two value types, ``Permutation`` and
``DyckPath``, the bijections between their pattern classes, standard Young
tableaux with evacuation, and exact polynomials in a, q, t built from the
resulting statistics.  See the README for the command-line interface.
"""

from .errors import (
    CeilingExceeded, NegativeExponent, NoAssignment, NonBinaryCharacter, NotAvoiding132,
    NotAvoiding231, NotAvoiding312, NotAvoiding321, PathError, PatternViolation,
    PrefixViolation, UnbalancedCounts,
)
from .permutations import (
    DEFAULT_MAX_N, DescentData, PermStats, Permutation, avoiders_with_stats, avoids, contains,
    contains_naive, descent_data, descent_run_before, enumerate_avoiders, identity, inverse,
    parse_permutation, perm_stats, reconstruct_231, reverse,
)
from .dyck import (
    DyckPath, PathStats, PathSums, ValleySet, area, bounce, enumerate_dyck, from_valleys,
    parse_path, path_stats, paths_with_stats, reflect, valley_complement, valleys,
)
from .bijections import (
    beta, heights, kappa, kappa_factored, phi, phi_inv, psi_perm, trio_132_213,
)
from .tableaux import (
    StandardTableau, evacuation, inverse_rsk, j_involution, parse_tableau, rsk,
    standard_tableaux, tableau_descents,
)
from .polynomials import (
    KdResult, MultiPoly, TruncatedSeries, a_poly, a_poly_via_paths, avoider_poly, cat_qt,
    kd_search, macmahon_q_catalan, macmahon_q_catalan_quotient, path_poly, q_binomial, qt_swap,
    t_to_q_inverse_shifted, tristat_gf, verify_gf_identity,
)

__version__ = "0.1.0"
