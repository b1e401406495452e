import pytest
from hypothesis import given
from hypothesis import strategies as st

from catbij import (
    MultiPoly,
    NegativeExponent,
    NoAssignment,
    TruncatedSeries,
    a_poly,
    a_poly_via_paths,
    area,
    avoider_poly,
    bounce,
    cat_qt,
    kd_search,
    macmahon_q_catalan,
    macmahon_q_catalan_quotient,
    path_poly,
    path_stats,
    q_binomial,
    qt_swap,
    t_to_q_inverse_shifted,
    tristat_gf,
    verify_gf_identity,
)
from catbij.polynomials import A, Q, T
from conftest import CATALAN

_exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
_polys = st.dictionaries(_exponents, st.integers(-5, 5), max_size=5).map(MultiPoly)


def p_of(terms):
    """Build a MultiPoly from {(eq, et): coef} with no a-variable."""
    return MultiPoly({(0, eq, et): c for (eq, et), c in terms.items()})


# frozen from the displayed values
A_GOLDEN = {
    1: p_of({(0, 0): 1}),
    2: p_of({(1, 0): 1, (0, 1): 1}),
    3: p_of({(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (1, 1): 1}),
    4: p_of(
        {
            (6, 0): 1, (5, 1): 1, (4, 2): 1, (3, 3): 2, (2, 4): 1, (1, 5): 1,
            (0, 6): 1, (4, 1): 1, (3, 2): 1, (2, 3): 1, (1, 4): 1, (3, 1): 1,
            (1, 3): 1,
        }
    ),
}
CAT4_GOLDEN = p_of(
    {
        (6, 0): 1, (5, 1): 1, (4, 2): 1, (3, 3): 1, (2, 4): 1, (1, 5): 1,
        (0, 6): 1, (4, 1): 1, (3, 2): 1, (2, 3): 1, (1, 4): 1, (3, 1): 1,
        (2, 2): 1, (1, 3): 1,
    }
)


class TestMultiPoly:
    def test_text_form(self):
        assert str(MultiPoly.zero()) == "0"
        assert str(MultiPoly.one()) == "1"
        assert str(Q + T) == "q + t"
        assert str(Q * Q * T * 2 - MultiPoly.one()) == "2*q^2*t - 1"
        assert str(MultiPoly.term(-1, a=1, q=3)) == "-a*q^3"

    def test_canonical_order_is_descending_lex(self):
        p = MultiPoly({(0, 3, 3): 1, (0, 2, 1): 1, (1, 0, 0): 1})
        assert [k for k, _ in p.terms()] == [(1, 0, 0), (0, 3, 3), (0, 2, 1)]
        assert str(p) == "a + q^3*t^3 + q^2*t"

    def test_json_round_trip(self):
        p = A_GOLDEN[4]
        assert MultiPoly.from_json(p.to_json()) == p

    def test_zero_coefficients_dropped(self):
        assert (Q - Q).is_zero
        assert MultiPoly({(0, 1, 0): 0}) == MultiPoly.zero()

    def test_negative_exponents_rejected(self):
        with pytest.raises(NegativeExponent):
            MultiPoly({(0, -1, 0): 1})

    @given(_polys, _polys, st.integers(-3, 3))
    def test_arithmetic_results_are_canonical(self, p, q, k):
        # arithmetic skips the exponent check; the public constructor keeps it
        for result in (p + q, -p, p - q, p * q, k * p):
            assert result == MultiPoly(dict(result.terms()))
            assert all(coef for _, coef in result.terms())
        for key in ((-1, 0, 0), (0, 0, -2)):
            with pytest.raises(NegativeExponent):
                MultiPoly({key: 1})

    def test_pow_and_evaluate(self):
        p = (Q + T) ** 2
        assert p == Q * Q + 2 * Q * T + T * T
        assert p.evaluate(q=2, t=3) == 25

    @given(_polys, _polys)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(_polys, _polys, _polys)
    def test_associativity_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(_polys)
    def test_identities(self, p):
        assert p + MultiPoly.zero() == p
        assert p * MultiPoly.one() == p
        assert p - p == MultiPoly.zero()

    @given(_polys)
    def test_qt_swap_is_involution(self, p):
        assert qt_swap(qt_swap(p)) == p


class TestQBinomial:
    def test_golden_4_2(self):
        assert q_binomial(4, 2) == p_of({(0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1, (4, 0): 1})

    def test_edges(self):
        for k in range(7):
            assert q_binomial(k, 0) == MultiPoly.one()
            assert q_binomial(k, k) == MultiPoly.one()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            q_binomial(3, 4)
        with pytest.raises(ValueError):
            q_binomial(3, -1)

    def test_box_partition_oracle(self):
        # [k, l]_q counts partitions inside an l x (k-l) box by size
        def box_counts(rows, width):
            counts = [0] * (rows * width + 1)

            def rec(row, cap, total):
                if row == rows:
                    counts[total] += 1
                    return
                for part in range(cap + 1):
                    rec(row + 1, part, total + part)

            rec(0, width, 0)
            return counts

        for k in range(0, 8):
            for l in range(0, k + 1):
                want = MultiPoly(
                    {(0, e, 0): c for e, c in enumerate(box_counts(l, k - l)) if c}
                )
                assert q_binomial(k, l) == want


class TestExactDivision:
    def test_quotient_route(self):
        for n in range(1, 8):
            assert macmahon_q_catalan_quotient(n) == macmahon_q_catalan(n)

    def test_quotient_rejects_n_below_one(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be at least 1"):
                macmahon_q_catalan_quotient(n)


class TestPolynomialZoo:
    def test_a_poly_goldens(self):
        for n, want in A_GOLDEN.items():
            assert a_poly(n) == want
        for n in (0, -1):
            with pytest.raises(ValueError):
                a_poly(n)

    def test_cat_goldens(self):
        assert cat_qt(1) == MultiPoly.one()
        assert cat_qt(4) == CAT4_GOLDEN
        assert a_poly(4) - cat_qt(4) == p_of({(3, 3): 1, (2, 2): -1})

    def test_counts_at_one(self):
        for n in range(1, 8):
            assert a_poly(n).evaluate() == CATALAN[n]
            assert cat_qt(n).evaluate() == CATALAN[n]

    def test_two_routes_agree(self):
        for n in range(1, 10):
            shift = n * (n - 1) // 2
            oracle = avoider_poly(n, 231, lambda s: (0, s.maj, shift - s.imaj))
            assert a_poly(n) == oracle == a_poly_via_paths(n)

    @pytest.mark.parametrize(
        "route,key",
        [
            (cat_qt, lambda D: (0, area(D), bounce(D))),
            (macmahon_q_catalan, lambda D: (0, path_stats(D).maj, 0)),
        ],
        ids=["cat", "macmahon"],
    )
    def test_closed_route_matches_path_oracle(self, route, key):
        for n in range(1, 10):
            assert route(n) == path_poly(n, key)

    def test_closed_routes_at_14_enumerate_nothing(self, monkeypatch):
        import catbij.polynomials as polynomials

        def no_stream(*args, **kwargs):
            raise AssertionError("a closed route enumerated")

        monkeypatch.setattr(polynomials, "enumerate_dyck", no_stream)
        monkeypatch.setattr(polynomials, "enumerate_avoiders", no_stream)
        n = 14
        a, cat = a_poly(n, max_n=n), cat_qt(n, max_n=n)
        assert qt_swap(a) == a
        assert qt_swap(cat) == cat
        assert cat.evaluate() == 2674440  # the Catalan number C_14
        mac = macmahon_q_catalan(n, max_n=n)
        assert t_to_q_inverse_shifted(a, n) == mac == macmahon_q_catalan_quotient(n)
        assert t_to_q_inverse_shifted(cat, n) == mac

    def test_macmahon_small(self):
        assert macmahon_q_catalan(1) == MultiPoly.one()
        assert macmahon_q_catalan(2) == p_of({(0, 0): 1, (2, 0): 1})

    def test_symmetry(self):
        for n in range(1, 7):
            assert qt_swap(a_poly(n)) == a_poly(n)
            assert qt_swap(cat_qt(n)) == cat_qt(n)


class TestSpecialize:
    def test_golden_shift(self):
        assert t_to_q_inverse_shifted(Q + T, 2) == p_of({(2, 0): 1, (0, 0): 1})

    def test_constant(self):
        assert qt_swap(MultiPoly.one()) == MultiPoly.one()
        assert t_to_q_inverse_shifted(MultiPoly.one(), 3) == p_of({(3, 0): 1})

    def test_negative_exponent_raises(self):
        with pytest.raises(NegativeExponent):
            t_to_q_inverse_shifted(MultiPoly.term(1, t=5), 2)

    def test_shifted_laurent_matches_macmahon(self):
        for n in range(1, 7):
            mac = macmahon_q_catalan(n)
            assert t_to_q_inverse_shifted(a_poly(n), n) == mac
            assert t_to_q_inverse_shifted(cat_qt(n), n) == mac


class TestTristat:
    def test_n1_trivial(self):
        for pattern in (231, 312, 132, 213, 123, 321):
            assert tristat_gf(1, pattern) == MultiPoly.one()

    @pytest.mark.parametrize("plain,complemented", [(231, 312), (132, 213), (123, 321)])
    def test_pair_identities(self, plain, complemented):
        for n in range(1, 7):
            assert tristat_gf(n, plain, "plain") == tristat_gf(n, complemented, "complemented")

    @pytest.mark.parametrize("orientation", ["plain", "complemented"])
    @pytest.mark.parametrize("pattern", [231, 312, 132, 213])
    def test_valley_route_matches_avoider_oracle(self, pattern, orientation):
        for n in range(1, 9):
            shift = n * (n - 1) // 2

            def key(s):
                if orientation == "plain":
                    return (s.des, s.maj, s.imaj)
                return (n - 1 - s.des, shift - s.maj, shift - s.imaj)

            assert tristat_gf(n, pattern, orientation) == avoider_poly(n, pattern, key)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match=r"^pattern must be one of \[123, 132, 213, 231, 312, 321\]$"):
            tristat_gf(3, 2413)
        with pytest.raises(ValueError, match=r"^pattern must be a permutation like 231, got 999$"):
            tristat_gf(3, 999)
        with pytest.raises(ValueError):
            tristat_gf(3, 231, "sideways")


class TestSeriesIdentity:
    def test_series_type_validates(self):
        with pytest.raises(ValueError):
            TruncatedSeries(2, (MultiPoly.one(),))

    def test_q_binomial_theorem(self):
        # sum_j (-1)^j q^j [m+j, j]_q z^j inverts prod_(i=1..m+1) (1 + q^i z)
        for N in range(7):
            one = TruncatedSeries.monomial(MultiPoly.one(), 0, N)
            for m in range(6):
                product = TruncatedSeries(N, tuple(
                    MultiPoly.term((-1) ** j, q=j) * q_binomial(m + j, j) for j in range(N + 1)))
                for i in range(1, m + 2):
                    product = product * (one + TruncatedSeries.monomial(MultiPoly.term(1, q=i), 1, N))
                assert product.coeffs == one.coeffs

    def test_order_zero(self):
        assert [str(r) for r in verify_gf_identity(0)] == ["0"]

    def test_residuals_vanish(self):
        assert all(r.is_zero for r in verify_gf_identity(5))

    def test_harness_detects_perturbation(self):
        # exact residual texts, so the FAIL detail of `verify gf-identity` cannot drift
        def tweaked(at, poly):
            return lambda n: poly if n == at else a_poly(n)

        residuals = verify_gf_identity(3, numerator=tweaked(2, Q + 2 * T))
        assert [str(r) for r in residuals] == [
            "0",
            "t",
            "-q^2*t - q*t - t^3 - t^2",
            "q^4*t + q^3*t + q^2*t^3 + q^2*t^2 + q^2*t + q*t^3 + q*t^2 + t^5 + t^4 + t^3",
        ]
        residuals = verify_gf_identity(3, numerator=tweaked(3, A * Q))
        assert [str(r) for r in residuals] == [
            "0",
            "0",
            "a*q - q^3 - q^2*t - q*t^2 - q*t - t^3",
            "-a*q^4 - a*q^3 - a*q^2 - a*q*t^3 - a*q*t^2 - a*q*t + q^6 + q^5*t + q^5 + q^4*t^2"
            " + 2*q^4*t + q^4 + 2*q^3*t^3 + 2*q^3*t^2 + 3*q^3*t + q^2*t^4 + 2*q^2*t^3"
            " + 2*q^2*t^2 + q^2*t + q*t^5 + 2*q*t^4 + 3*q*t^3 + q*t^2 + t^6 + t^5 + t^4",
        ]

    def test_two_series_products_per_summand(self, monkeypatch):
        calls = []
        product = TruncatedSeries.__mul__

        def counted(self, other):
            calls.append(self.order)
            return product(self, other)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
        for N in range(6):
            calls.clear()
            assert all(r.is_zero for r in verify_gf_identity(N))
            assert len(calls) == 2 * (N + 1)


def _backtracked_assignments(n: int) -> list[dict]:
    """Oracle for ``kd_search``: every shift assignment at n, by plain
    backtracking over the target monomials each path reaches with some
    k >= 0, most constrained path first, in kd_search's order."""
    from math import comb

    from catbij import enumerate_dyck, polynomials

    capacity = {(eq, et): c for (_, eq, et), c in polynomials.cat_qt(n).terms()}
    paths = list(enumerate_dyck(n))
    options = {}
    for D in paths:
        s = path_stats(D)
        reach = ((m, s.maj1 - m[0]) for m in capacity)
        options[D] = [(m, k) for m, k in reach if k >= 0 and m[1] == comb(n, 2) - s.maj0 - k]
    order = sorted(paths, key=lambda D: len(options[D]))
    chosen: dict = {}

    def walk(i):
        if i == len(order):
            if not any(capacity.values()):  # every target copy is used
                yield dict(chosen)
            return
        for mono, k in options[order[i]]:
            if capacity[mono]:
                capacity[mono] -= 1
                chosen[order[i]] = k
                yield from walk(i + 1)
                capacity[mono] += 1

    return sorted(walk(0), key=lambda a: [a[D] for D in paths])


def _with_surplus(monkeypatch, extra):
    """Make cat_qt(n) carry the additional monomial extra(n)."""
    from catbij import polynomials

    plain = polynomials.cat_qt
    monkeypatch.setattr(polynomials, "cat_qt", lambda n, max_n=12: plain(n, max_n) + extra(n))


class TestKdSearch:
    def test_n3_unique_all_zero(self):
        result = kd_search(3)
        assert result.exhaustive
        assert len(result.assignments) == 1
        assert set(result.assignments[0].values()) == {0}

    def test_n4_exactly_two(self):
        result = kd_search(4)
        assert result.exhaustive
        nonzero = sorted(
            {str(D): k for D, k in a.items() if k}.popitem()
            for a in result.assignments
        )
        assert nonzero == [("00011101", 1), ("01010011", 1)]

    def test_all_assignments_equal_the_backtracked_oracle(self):
        counts = []
        for n in range(1, 6):
            found = kd_search(n).assignments
            assert list(found) == _backtracked_assignments(n)
            counts.append(len(found))
        assert counts == [1, 1, 1, 2, 4608]

    def test_assignments_are_valid(self):
        from collections import Counter
        from math import comb

        from catbij import enumerate_dyck

        # the single assignment; the oracle test covers every one for n <= 5
        for n in range(1, 11):
            (assignment,) = kd_search(n, all_assignments=False).assignments
            shift = comb(n, 2)
            target = {(eq, et): c for (_, eq, et), c in cat_qt(n).terms()}
            paths = list(enumerate_dyck(n))
            assert list(assignment) == paths and min(assignment.values()) >= 0
            got = Counter()
            for D, s in zip(paths, map(path_stats, paths)):
                k = assignment[D]
                got[s.maj1 - k, shift - s.maj0 - k] += 1
            assert dict(got) == target

    def test_options_are_diagonal_prefixes(self):
        # The sorted matching is exact because of this nesting.
        from math import comb

        from catbij import enumerate_dyck
        from catbij.polynomials import _diagonals

        for n in range(1, 9):
            target = sorted((eq, et) for (_, eq, et), _ in cat_qt(n).terms())
            paths, diagonals = _diagonals(n, max_n=12)
            assert paths == list(enumerate_dyck(n))
            for D in paths:
                s = path_stats(D)
                diagonal = [m for m in target if m[0] - m[1] == s.maj - comb(n, 2)]
                fits = [m for m in diagonal if 0 <= s.maj1 - m[0] == comb(n, 2) - s.maj0 - m[1]]
                assert fits == diagonal[: len(fits)]
                assert all(alpha > s.maj1 for alpha, _ in diagonal[len(fits):])
            lex = {D: i for i, D in enumerate(paths)}
            placed = sorted(lex[D] for members, _ in diagonals for _, D in members)
            assert placed == list(range(len(paths)))
            for members, alphas in diagonals:
                assert [(maj1, lex[D]) for maj1, D in members] == sorted((maj1, lex[D]) for maj1, D in members)
                assert alphas == sorted(alphas) and len(members) == len(alphas)

    def test_single_assignment_is_among_all(self):
        for n in range(1, 6):
            single = kd_search(n, all_assignments=False).assignments[0]
            assert single in kd_search(n).assignments

    def test_exhaustive_search_rejects_n_above_five(self):
        with pytest.raises(ValueError, match="limited to n <= 5, got n=6"):
            kd_search(6, all_assignments=True)

    def test_single_mode(self):
        result = kd_search(6, all_assignments=False)
        assert not result.exhaustive
        assert len(result.assignments) == 1

    def test_json_form(self):
        import json

        data = json.loads(kd_search(4).to_json())
        assert data["n"] == 4 and data["exhaustive"] is True
        assert len(data["assignments"]) == 2
        for assignment in data["assignments"]:
            assert len(assignment) == 14
            assert sum(assignment.values()) == 1
        assert data["assignments"][0]["01010011"] == 1
        assert data["assignments"][1]["00011101"] == 1

    def test_no_assignment_raises(self, monkeypatch):
        # The top monomial of a diagonal moves up it, past every path's maj1:
        # the counts still agree, but the last path has nowhere to go.
        from catbij import polynomials

        plain = polynomials.cat_qt

        def raised(n, max_n=12):
            p = plain(n, max_n)
            (_, a, b), _ = max(p.terms(), key=lambda term: term[0][1])
            return p - MultiPoly.term(1, q=a, t=b) + MultiPoly.term(1, q=a + 1, t=b + 1)

        monkeypatch.setattr(polynomials, "cat_qt", raised)
        for n in range(2, 6):
            for exhaustive in (True, False):
                with pytest.raises(NoAssignment, match=f"n={n}: no target monomial is left for path"):
                    kd_search(n, all_assignments=exhaustive)
            assert _backtracked_assignments(n) == []

    @pytest.mark.parametrize(
        "extra",
        [lambda n: MultiPoly.term(1, q=n * (n - 1) // 2), lambda n: MultiPoly.term(1, t=n * n)],
        ids=["diagonal-with-paths", "diagonal-without-paths"],
    )
    def test_surplus_target_raises(self, monkeypatch, extra):
        _with_surplus(monkeypatch, extra)
        for n in range(1, 8):
            for exhaustive in (True, False)[n > 5:]:
                with pytest.raises(NoAssignment, match=f"n={n}: diagonal maj=.* paths and"):
                    kd_search(n, all_assignments=exhaustive)
        assert all(_backtracked_assignments(n) == [] for n in range(1, 5))

    @pytest.mark.parametrize(
        "extra",
        [lambda n: MultiPoly.term(1, q=n * (n - 1) // 2), lambda n: MultiPoly.term(1, t=n * n)],
        ids=["diagonal-with-paths", "diagonal-without-paths"],
    )
    def test_surplus_target_fails_verify(self, monkeypatch, capsys, extra):
        from catbij import cli

        _with_surplus(monkeypatch, extra)
        assert cli.main(["verify", "kd", "6"]) == 1
        out, err = capsys.readouterr()
        assert "FAIL  a shift assignment exists for every n<=6  [counterexample: raised NoAssignment: n=1: " in out
        assert err == ""
