"""Acceptance criteria, one test per criterion.

Every check is exact (integer or polynomial equality); each test also
enforces the stated wall-clock budget and prints one PASS line, so
``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""
import time
from contextlib import contextmanager
from math import comb

from catbij import (
    MultiPoly,
    Permutation,
    a_poly,
    a_poly_via_paths,
    area,
    cat_qt,
    descent_data,
    enumerate_avoiders,
    enumerate_dyck,
    kd_search,
    macmahon_q_catalan,
    macmahon_q_catalan_quotient,
    parse_path,
    path_stats,
    perm_stats,
    phi,
    phi_inv,
    qt_swap,
    t_to_q_inverse_shifted,
    tristat_gf,
    valley_complement,
    verify_gf_identity,
)
from catbij.bijections import kappa
from catbij.verification import run_suite
from conftest import CATALAN, FIGURE_PAIRS


@contextmanager
def budget(number, description, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {number} took {elapsed:.2f}s, budget {seconds}s"
    print(f"PASS criterion {number:2d} [{elapsed:6.2f}s < {seconds:2.0f}s] {description}")


def assert_suite(checks):
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"


def test_criterion_01_golden_examples():
    with budget(1, "golden examples: phi, kappa, all figure pairs", 1):
        sigma = Permutation((6, 2, 1, 5, 4, 3))
        D = phi(sigma)
        assert str(D) == "010010110101"
        s = perm_stats(sigma)
        assert (s.maj, s.imaj) == (12, 13)
        assert path_stats(D).maj == 25
        assert str(kappa(Permutation((3, 4, 5, 1, 2, 6)))) == "000011100111"
        for word, path in FIGURE_PAIRS:
            assert str(phi(Permutation(word))) == path


def test_criterion_02_bijectivity():
    with budget(2, "phi bijective with round-trips, n<=9", 10):
        for n in range(1, 10):
            images = set()
            count = 0
            for p in enumerate_avoiders(n, 231):
                D = phi(p)
                count += 1
                images.add(D)
                assert phi_inv(D) == p
            assert count == CATALAN[n]
            assert len(images) == CATALAN[n]
            for D in enumerate_dyck(n):
                assert phi(phi_inv(D)) == D


def test_criterion_03_statistic_transport():
    with budget(3, "maj additivity and maj1/maj0 transport, n<=9", 10):
        for n in range(1, 10):
            for p in enumerate_avoiders(n, 231):
                s = perm_stats(p)
                ps = path_stats(phi(p))
                assert ps.maj == s.maj + s.imaj
                assert ps.maj1 == s.maj
                assert ps.maj0 == s.imaj


def test_criterion_04_lemma_suite():
    with budget(4, "descent-geometry lemmas hold exhaustively, n<=8", 10):
        assert_suite(run_suite("lemmas", n_max=8))
        witness = Permutation((2, 4, 1, 3))
        d = descent_data(witness)
        assert len(d.des) == 1 and len(d.ides) == 2


def test_criterion_05_polynomial_goldens():
    with budget(5, "a_poly(1..4), cat_qt(4), and their difference", 1):
        def p_of(terms):
            return MultiPoly({(0, eq, et): c for (eq, et), c in terms.items()})

        assert a_poly(1) == MultiPoly.one()
        assert a_poly(2) == p_of({(1, 0): 1, (0, 1): 1})
        assert a_poly(3) == p_of(
            {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (1, 1): 1}
        )
        a4 = p_of(
            {
                (6, 0): 1, (5, 1): 1, (4, 2): 1, (3, 3): 2, (2, 4): 1,
                (1, 5): 1, (0, 6): 1, (4, 1): 1, (3, 2): 1, (2, 3): 1,
                (1, 4): 1, (3, 1): 1, (1, 3): 1,
            }
        )
        cat4 = p_of(
            {
                (6, 0): 1, (5, 1): 1, (4, 2): 1, (3, 3): 1, (2, 4): 1,
                (1, 5): 1, (0, 6): 1, (4, 1): 1, (3, 2): 1, (2, 3): 1,
                (1, 4): 1, (3, 1): 1, (2, 2): 1, (1, 3): 1,
            }
        )
        assert a_poly(4) == a4
        assert cat_qt(4) == cat4
        assert a4 - cat4 == p_of({(3, 3): 1, (2, 2): -1})


def test_criterion_06_symmetry():
    with budget(6, "A_n and Cat_n symmetric in q,t, n<=8", 30):
        for n in range(1, 9):
            a = a_poly(n)
            c = cat_qt(n)
            assert qt_swap(a) == a
            assert qt_swap(c) == c
            assert a == a_poly_via_paths(n)


def test_criterion_07_specializations():
    with budget(7, "shifted Laurent specializations all agree, n<=8", 30):
        for n in range(1, 9):
            mac = macmahon_q_catalan(n)
            assert mac == macmahon_q_catalan_quotient(n)
            assert mac == t_to_q_inverse_shifted(a_poly(n), n)
            assert mac == t_to_q_inverse_shifted(cat_qt(n), n)


def test_criterion_08_generating_function():
    with budget(8, "expansion-of-1 residuals vanish through z^6", 5):
        residuals = verify_gf_identity(6)
        assert len(residuals) == 7
        for r in residuals:
            assert r.is_zero


def test_criterion_09_kappa_factorization():
    with budget(9, "kappa factorization and valley characterization, n<=8", 10):
        assert_suite(run_suite("kappa-factorization", n_max=8))


def test_criterion_10_inv_area_bridge():
    with budget(10, "inv(w) = area(complement(phi(w))), n<=8", 10):
        for n in range(1, 9):
            for p in enumerate_avoiders(n, 231):
                got = area(valley_complement(phi(p)))
                assert got == perm_stats(p).inv


def test_criterion_11_tristatistic_identities():
    with budget(11, "tristatistic pair identities (231/312, 132/213, 123/321), n<=7", 30):
        for n in range(1, 8):
            for plain, complemented in ((231, 312), (132, 213), (123, 321)):
                assert tristat_gf(n, plain, "plain") == tristat_gf(
                    n, complemented, "complemented"
                )
        # the 132/213 identity survives setting a=1
        def drop_a(p):
            out = {}
            for (ea, eq, et), c in p.terms():
                key = (0, eq, et)
                out[key] = out.get(key, 0) + c
            return MultiPoly(out)

        for n in range(1, 8):
            assert drop_a(tristat_gf(n, 132, "plain")) == drop_a(
                tristat_gf(n, 213, "complemented")
            )


def test_criterion_12_tableaux():
    with budget(12, "RSK round-trip, descent transport, j involution, n<=7", 30):
        assert_suite(run_suite("rsk-j", n_max=7))


def test_criterion_13_shift_assignments():
    with budget(13, "kd_search: two assignments at n=4, existence n<=8", 60):
        result = kd_search(4)
        assert result.exhaustive
        assert len(result.assignments) == 2
        nonzero = sorted(
            tuple(sorted((str(D), k) for D, k in a.items() if k))
            for a in result.assignments
        )
        assert nonzero == [(("00011101", 1),), (("01010011", 1),)]
        for n in range(1, 9):
            found = kd_search(n, all_assignments=False)
            assert len(found.assignments) == 1
            assert all(k >= 0 for k in found.assignments[0].values())


def test_criterion_14_complement_swap():
    with budget(14, "valley complement swaps 01010011 and 00011101", 1):
        a, b = parse_path("01010011"), parse_path("00011101")
        assert valley_complement(a) == b
        assert valley_complement(b) == a
