import copy
import inspect
import itertools
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbij import (
    CeilingExceeded,
    DescentData,
    DyckPath,
    KdResult,
    MultiPoly,
    PathStats,
    PathSums,
    PermStats,
    Permutation,
    StandardTableau,
    TruncatedSeries,
    ValleySet,
    avoider_poly,
    avoiders_with_stats,
    avoids,
    contains,
    contains_naive,
    descent_data,
    descent_run_before,
    enumerate_avoiders,
    identity,
    inverse,
    parse_permutation,
    perm_stats,
    reconstruct_231,
    reverse,
    tableau_descents,
    tristat_gf,
)
from catbij.permutations import _MASK_SETS, _descents, _extension, _inverse_word, _mask_set, _pattern_word
from catbij.verification import Check
from conftest import CATALAN, FIGURE_PAIRS, all_perms, permutations_st

SIGMA = Permutation((6, 2, 1, 5, 4, 3))


def brute_inversions(word):
    return sum(1 for i, j in itertools.combinations(range(len(word)), 2) if word[i] > word[j])


def position_of_value(word):
    return tuple(word.index(v) + 1 for v in range(1, len(word) + 1))


def naive_avoiders(pattern, top):
    """(n, the avoiders of S_n in lex order) for n = 1..top, by the naive scan.

    Each word of S_n is one (n-1)-word with its values >= v shifted up,
    followed by v.  A word whose first n-1 letters contain the pattern
    contains it, so the scan need only see the extensions of the previous
    avoiders."""
    want = [()]
    for n in range(1, top + 1):
        extended = (tuple(x + (x >= v) for x in u) + (v,) for u in want for v in range(1, n + 1))
        want = sorted(w for w in extended if not contains_naive(w, pattern))
        yield n, want


class TestConstruction:
    def test_parse_with_and_without_brackets(self):
        assert parse_permutation("[6,2,1,5,4,3]") == SIGMA
        assert parse_permutation("6, 2, 1, 5, 4, 3") == SIGMA
        assert str(SIGMA) == "[6,2,1,5,4,3]"

    def test_str_is_the_bracketed_comma_join(self):
        for w in [(1,), (2, 1), tuple(range(12, 0, -1)), (10, 3, 1, 2, 11, 4, 5, 6, 7, 8, 9, 12)]:
            assert str(Permutation(w)) == "[" + ",".join(map(str, w)) + "]"

    @pytest.mark.parametrize("bad", [(), (0, 1), (1, 1), (1, 3), (2,)])
    def test_rejects_non_permutations(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_permutation("[1,2,x]")


class TestDescentData:
    def test_running_example(self):
        d = descent_data(SIGMA)
        assert d.des == {1, 2, 4, 5}
        assert d.asc == {3, 6}
        assert d.ides == {1, 3, 4, 5}
        assert d.iasc == {2, 6}

    def test_identity_has_no_descents(self):
        d = descent_data(identity(4))
        assert d.des == set()
        assert d.asc == {1, 2, 3, 4}
        assert d.ides == set()

    def test_witness_2413(self):
        d = descent_data(Permutation((2, 4, 1, 3)))
        assert d.des == {2}
        assert d.ides == {1, 3}

    def test_degenerate_single_element(self):
        d = descent_data(identity(1))
        assert d.des == set() and d.asc == {1}

    def test_matches_the_two_pass_oracle(self):
        # descents of the word and of its inverse word, ascents by complement
        # in {1..n-1} with n added
        for n in range(1, 9):
            full = frozenset(range(1, n))
            for w in itertools.permutations(range(1, n + 1)):
                des, ides = _descents(w), _descents(_inverse_word(w))
                assert descent_data(Permutation(w)) == (des, (full - des) | {n}, ides, (full - ides) | {n})

    def test_long_words_past_the_mask_table(self):
        # masks wider than the table's 13 bits: the descending word of length
        # 64 and 7i mod 41 for i = 1..40, against the two-pass oracle, and a
        # one-row and a one-column tableau of 40 cells
        for w in (tuple(range(64, 0, -1)), tuple(7 * i % 41 for i in range(1, 41))):
            n = len(w)
            full = frozenset(range(1, n))
            des, ides = _descents(w), _descents(_inverse_word(w))
            assert descent_data(Permutation(w)) == (des, (full - des) | {n}, ides, (full - ides) | {n})
        assert tableau_descents(StandardTableau((tuple(range(1, 41)),))) == set()
        assert tableau_descents(StandardTableau(tuple((v,) for v in range(1, 41)))) == set(range(1, 40))
        table = _mask_set.cache_info()
        assert table.currsize <= table.maxsize == _MASK_SETS

    @given(permutations_st())
    def test_last_position_always_an_ascent(self, p):
        d = descent_data(p)
        assert p.n in d.asc and p.n in d.iasc
        assert d.asc == (set(range(1, p.n)) - d.des) | {p.n}


class TestStats:
    def test_running_example(self):
        s = perm_stats(SIGMA)
        assert (s.maj, s.imaj) == (12, 13)
        assert s.inv == brute_inversions(SIGMA.word) == 9

    def test_identity(self):
        s = perm_stats(identity(5))
        assert (s.maj, s.imaj, s.inv) == (0, 0, 0)

    def test_one_pass_matches_oracles_exhaustively(self):
        for n in range(1, 8):
            for p in all_perms(n):
                s, d = perm_stats(p), descent_data(p)
                assert (s.des, s.asc) == (len(d.des), len(d.asc))
                assert (s.maj, s.imaj) == (sum(d.des), sum(d.ides))
                assert s.inv == brute_inversions(p.word)

    @given(permutations_st())
    def test_inverse_swaps_maj_imaj(self, p):
        s, si = perm_stats(p), perm_stats(inverse(p))
        assert (s.maj, s.imaj) == (si.imaj, si.maj)


class TestInverseAndReverse:
    def test_inverse_golden(self):
        assert inverse(SIGMA).word == position_of_value(SIGMA.word) == (3, 2, 6, 5, 4, 1)
        assert inverse(Permutation((2, 3, 1))).word == (3, 1, 2)
        assert inverse(identity(4)) == identity(4)

    def test_reverse_golden(self):
        assert reverse(SIGMA).word == (3, 4, 5, 1, 2, 6)
        assert reverse(identity(4)).word == (4, 3, 2, 1)

    @given(permutations_st(max_n=12))
    def test_involutions(self, p):
        assert inverse(inverse(p)) == p
        assert reverse(reverse(p)) == p

    @given(permutations_st(max_n=12))
    def test_reverse_descent_formulas(self, p):
        n = p.n
        d, dr = descent_data(p), descent_data(reverse(p))
        full = set(range(1, n))
        assert dr.des == full - {n - i for i in d.des}
        assert dr.ides == full - d.ides


class TestPatterns:
    def test_goldens(self):
        assert avoids(SIGMA, (2, 3, 1))
        assert not avoids(Permutation((2, 3, 1)), (2, 3, 1))
        assert avoids(Permutation((1, 4, 2, 3)), (2, 3, 1))

    def test_pattern_longer_than_word(self):
        assert avoids(Permutation((2, 1)), (2, 3, 1))

    @pytest.mark.parametrize("pattern", [132, 231, 312, 213, 123, 321, 1, 12, 21, 1342, 2413, 24153])
    def test_fast_equals_naive_exhaustively(self, pattern):
        for n in range(1, 8):
            for p in all_perms(n):
                assert contains(p, pattern) == contains_naive(p, pattern)

    @given(permutations_st(max_n=9), st.sampled_from([132, 231, 312, 213, 123, 321]))
    @settings(max_examples=300)
    def test_fast_equals_naive_random(self, p, pattern):
        assert contains(p, pattern) == contains_naive(p, pattern)

    @given(st.lists(st.integers(-10**12, 10**12), max_size=9, unique=True),
           st.sampled_from([132, 231, 312, 213, 123, 321, 1, 12, 21, 1342, 2413, 24153]))
    def test_fast_accepts_any_distinct_values(self, word, pattern):
        assert contains(word, pattern) == contains_naive(word, pattern)

    @pytest.mark.parametrize("word,found", [((2, 1, 0), True), ((1, 0, 2), False),
                                            ((-1, -2, -3), True), ((0, 3, 2), False)])
    def test_values_below_one_are_ranked(self, word, found):
        assert contains(word, 321) is found
        assert contains_naive(word, 321) is found

    @pytest.mark.parametrize("word", [[1, 1], (2, 1, 2), [1.5, 2], (1, "2"), [None], 7, (True, 1)], ids=repr)
    @pytest.mark.parametrize("check", [contains, contains_naive, avoids])
    def test_words_outside_the_contract_are_named(self, check, word):
        # the recognizer and its oracle share one reading of a word: ints,
        # a bool as 0 or 1, all distinct; anything else raises, named as given
        message = f"word must be distinct integers, got {word!r}"
        for pattern in (21, 12, 2413):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check(word, pattern)

    @pytest.mark.parametrize("check", [contains, contains_naive])
    def test_bools_are_read_as_ints(self, check):
        assert check((True, 0), 21) and not check([False, 2, True], 123)
        assert check([False, 2, True], 132)

    def test_longer_patterns_use_naive_definition(self):
        assert contains(Permutation((2, 4, 1, 3)), (1, 2)) is True
        assert avoids(Permutation((3, 2, 1)), (1, 2))
        assert contains(Permutation((1, 3, 2, 4)), (1, 3, 2, 4))
        assert avoids(Permutation((4, 3, 2, 1)), (1, 2, 3, 4))


# Every library function that takes a pattern, applied to one pattern.
_PATTERN_USES = {
    "contains": lambda pattern: [contains(p, pattern) for p in all_perms(4)],
    "contains_naive": lambda pattern: [contains_naive(p, pattern) for p in all_perms(4)],
    "avoids": lambda pattern: [avoids(p, pattern) for p in all_perms(4)],
    "enumerate_avoiders": lambda pattern: list(enumerate_avoiders(5, pattern)),
    "avoider_poly": lambda pattern: avoider_poly(5, pattern, lambda s: (s.des, s.maj, s.imaj)),
    "tristat_gf": lambda pattern: tristat_gf(5, pattern),
}
_PATTERN_FORMS = [231, "231", (2, 3, 1), Permutation((2, 3, 1))]


class TestPatternForms:
    @pytest.mark.parametrize("use", list(_PATTERN_USES))
    def test_every_form_gives_the_same_result(self, use):
        results = [_PATTERN_USES[use](pattern) for pattern in _PATTERN_FORMS]
        assert all(result == results[0] for result in results)

    @pytest.mark.parametrize("pattern", ["01", "0231", "11", 999, (1, 1)], ids=repr)
    @pytest.mark.parametrize("use", list(_PATTERN_USES))
    def test_a_non_permutation_is_named_as_given(self, use, pattern):
        message = f"pattern must be a permutation like 231, got {pattern!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _PATTERN_USES[use](pattern)

    @pytest.mark.parametrize("pattern", ["x", "", "2 3 1", "²³¹", -231], ids=repr)
    def test_non_digits_are_named_as_given(self, pattern):
        message = f"pattern must be digits like 231, got {pattern!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _pattern_word(pattern)

    @pytest.mark.parametrize("pattern", _PATTERN_FORMS, ids=repr)
    def test_one_permutation_per_parse(self, monkeypatch, pattern):
        # a Permutation was checked when it was built, so it is not parsed again
        built = []
        post_init = Permutation.__post_init__
        monkeypatch.setattr(Permutation, "__post_init__", lambda p: built.append(post_init(p)))
        assert _pattern_word(pattern) == (2, 3, 1)
        assert len(built) == (0 if isinstance(pattern, Permutation) else 1)

    def test_pattern_is_parsed_before_the_size(self):
        with pytest.raises(ValueError, match="pattern must be"):
            enumerate_avoiders(0, "11")
        with pytest.raises(ValueError, match="pattern must be"):
            enumerate_avoiders(13, "x")


class TestEnumeration:
    def test_n4_231_matches_figure(self):
        got = [p.word for p in enumerate_avoiders(4, 231)]
        assert got == sorted(w for w, _ in FIGURE_PAIRS)

    def test_single_element(self):
        assert [p.word for p in enumerate_avoiders(1, 231)] == [(1,)]

    @pytest.mark.parametrize("pattern", [132, 231, 312, 213, 123, 321])
    def test_catalan_counts(self, pattern):
        for n in range(1, 8):
            assert sum(1 for _ in enumerate_avoiders(n, pattern)) == CATALAN[n]

    def test_n10_312_count(self):
        assert sum(1 for _ in enumerate_avoiders(10, 312)) == 16796

    @pytest.mark.parametrize(
        "pattern",
        [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1), (2, 4, 1, 3), (1, 3, 4, 2),
         (2, 4, 1, 5, 3), (1,), (1, 2), (2, 1)],
        ids=lambda pattern: "".join(map(str, pattern)),
    )
    def test_stream_is_the_lex_filter_of_the_oracle(self, pattern):
        # every pattern walks by its extension mask: length 3 reads
        # _EXTENSIONS, every other length tests the copies a new value would end
        top = {3: 8, 4: 7, 5: 7}.get(len(pattern), 6)
        for n, want in naive_avoiders(pattern, top):
            assert [p.word for p in enumerate_avoiders(n, pattern)] == want

    @pytest.mark.parametrize(
        "pattern",
        [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1), (1, 3, 4, 2), (2, 4, 1, 3),
         (2, 4, 1, 5, 3), (1,), (1, 2), (2, 1)],
        ids=lambda pattern: "".join(map(str, pattern)),
    )
    def test_extension_mask_is_the_set_of_values_an_avoider_puts_next(self, pattern):
        # every prefix of an avoider, with the values that avoiders put after
        # it; past length 3 the mask also keeps the values that lead only to
        # dead ends, so it holds every free value that ends no copy
        for n, avoiders in naive_avoiders(pattern, 7):
            nexts: dict[tuple, set] = {}
            for w in avoiders:
                for k in range(n):
                    nexts.setdefault(w[:k], set()).add(w[k])
            full = (2 << n) - 2
            for prefix, values in nexts.items():
                if len(pattern) != 3:
                    values = {v for v in range(1, n + 1)
                              if v not in prefix and not contains_naive((*prefix, v), pattern)}
                used = sum(1 << x for x in prefix)
                assert _extension(pattern, prefix)(used, full ^ used) == sum(1 << v for v in values), prefix

    @pytest.mark.parametrize("pattern", [123, 132, 213, 231, 312, 321])
    def test_length_3_pattern_builds_one_permutation_per_avoider(self, monkeypatch, pattern):
        # plus one for the pattern's parse; the last value is never a candidate
        built = []
        post_init = Permutation.__post_init__
        monkeypatch.setattr(Permutation, "__post_init__", lambda p: built.append(post_init(p)))
        assert sum(1 for _ in enumerate_avoiders(7, pattern)) == CATALAN[7]
        assert len(built) == CATALAN[7] + 1

    def test_longer_pattern_builds_one_permutation_per_avoider(self, monkeypatch):
        # plus one for the pattern's parse; the candidate tests build none
        built = []
        post_init = Permutation.__post_init__
        monkeypatch.setattr(Permutation, "__post_init__", lambda p: built.append(post_init(p)))
        assert sum(1 for _ in enumerate_avoiders(7, 2413)) == 2740
        assert len(built) == 2741

    def test_every_emitted_permutation_avoids(self):
        for p in enumerate_avoiders(6, 132):
            assert avoids(p, (1, 3, 2))

    def test_lexicographic_and_duplicate_free(self):
        words = [p.word for p in enumerate_avoiders(6, 231)]
        assert words == sorted(set(words))

    @pytest.mark.parametrize("pattern", [123, 132, 213, 231, 312, 321, 2413, 1, 12, 21])
    def test_carried_stats_are_perm_stats(self, pattern):
        # the leaf appends the one free value (at n = 1 with no value before
        # it); length 3 reads its masks from _EXTENSIONS, the rest scans
        top = 9 if 100 < pattern < 1000 else 7
        for n in range(1, top + 1):
            rows = list(avoiders_with_stats(n, pattern))
            assert [p for p, _ in rows] == list(enumerate_avoiders(n, pattern))
            assert all(type(s) is PermStats and s == perm_stats(p) for p, s in rows)

    @pytest.mark.parametrize("stream", [enumerate_avoiders, avoiders_with_stats])
    @pytest.mark.parametrize("n,pattern,error", [
        (0, 231, ValueError), (13, 231, CeilingExceeded), (3, "x", ValueError), (3, 11, ValueError),
    ])
    def test_bad_input_raises_at_the_call(self, stream, n, pattern, error):
        # before the first next(), yet the stream is a generator
        with pytest.raises(error):
            stream(n, pattern)
        assert inspect.isgenerator(stream(3, 231))

    def test_ceiling(self):
        with pytest.raises(CeilingExceeded):
            enumerate_avoiders(13, 231)
        # raising the ceiling unlocks the call
        stream = enumerate_avoiders(13, 231, max_n=13)
        assert next(stream).word == tuple(range(1, 14))


class TestDescentRunBefore:
    def test_goldens(self):
        assert descent_run_before(SIGMA, 3) == 2
        assert descent_run_before(SIGMA, 6) == 2
        assert descent_run_before(identity(5), 2) == 0

    def test_error_on_descent_position(self):
        with pytest.raises(ValueError):
            descent_run_before(SIGMA, 1)

    def test_matches_descent_data_oracle(self):
        # j - 1 minus the previous ascent, read off the four descent sets
        for n in range(1, 8):
            for p in all_perms(n):
                asc = descent_data(p).asc
                for j in range(-1, n + 3):
                    if j in asc:
                        prev = max((a for a in asc if a < j), default=0)
                        assert descent_run_before(p, j) == j - 1 - prev
                    else:
                        with pytest.raises(ValueError) as err:
                            descent_run_before(p, j)
                        assert str(err.value) == f"position {j} is not an ascent of {p}"


class TestRecords:
    """The plain records are named tuples: fixed fields, dataclass-style
    repr, value equality and hashing, and no assignment."""

    RECORDS = [
        (PermStats(1, 2, 3, 4, 5), dict(des=1, asc=2, maj=3, imaj=4, inv=5),
         "PermStats(des=1, asc=2, maj=3, imaj=4, inv=5)"),
        (DescentData(frozenset({1}), frozenset({2}), frozenset(), frozenset({2})),
         dict(des=frozenset({1}), asc=frozenset({2}), ides=frozenset(), iasc=frozenset({2})),
         "DescentData(des=frozenset({1}), asc=frozenset({2}), ides=frozenset(), iasc=frozenset({2}))"),
        (PathStats(frozenset({2}), 2, 1, 1), dict(des=frozenset({2}), maj=2, maj0=1, maj1=1),
         "PathStats(des=frozenset({2}), maj=2, maj0=1, maj1=1)"),
        (PathSums(2, 1, 1, 3), dict(maj=2, maj0=1, maj1=1, area=3), "PathSums(maj=2, maj0=1, maj1=1, area=3)"),
        (KdResult(3, (), True), dict(n=3, assignments=(), exhaustive=True),
         "KdResult(n=3, assignments=(), exhaustive=True)"),
        (Check("c", False, "counterexample: x"), dict(name="c", passed=False, detail="counterexample: x"),
         "Check(name='c', passed=False, detail='counterexample: x')"),
    ]

    @pytest.mark.parametrize("record,fields,text", RECORDS, ids=[type(r).__name__ for r, *_ in RECORDS])
    def test_contract(self, record, fields, text):
        assert record._fields == tuple(fields)
        assert repr(record) == text
        twin = type(record)(**fields)
        assert twin == record and hash(twin) == hash(record)
        assert record == tuple(fields.values())
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_check_defaults(self):
        assert Check._field_defaults == {"detail": ""}
        assert Check("c", True) == Check(name="c", passed=True, detail="")

    def test_library_values(self):
        assert perm_stats(SIGMA) == PermStats(des=4, asc=2, maj=12, imaj=13, inv=9)
        des, asc, ides, iasc = descent_data(SIGMA)
        assert (des, asc, ides, iasc) == ({1, 2, 4, 5}, {3, 6}, {1, 3, 4, 5}, {2, 6})


class TestValueTypes:
    """The value types that validate are slotted and immutable, with the
    dataclass-style repr, equality within one class and the hash of the
    field tuple; copies and pickles rebuild through the constructor."""

    VALUES = [
        (Permutation((2, 1, 3)), dict(word=(2, 1, 3)), "Permutation(word=(2, 1, 3))"),
        (DyckPath((0, 0, 1, 1)), dict(steps=(0, 0, 1, 1)), "DyckPath(steps=(0, 0, 1, 1))"),
        (ValleySet(4, (1, 2), (2, 3)), dict(n=4, xs=(1, 2), ys=(2, 3)),
         "ValleySet(n=4, xs=(1, 2), ys=(2, 3))"),
        (StandardTableau(((1, 3), (2, 4))), dict(rows=((1, 3), (2, 4))),
         "StandardTableau(rows=((1, 3), (2, 4)))"),
        (TruncatedSeries(1, (MultiPoly.one(), MultiPoly.term(2, q=1))),
         dict(order=1, coeffs=(MultiPoly.one(), MultiPoly.term(2, q=1))),
         "TruncatedSeries(order=1, coeffs=(MultiPoly(1), MultiPoly(2*q)))"),
    ]
    IDS = [type(v).__name__ for v, *_ in VALUES]

    @pytest.mark.parametrize("value,fields,text", VALUES, ids=IDS)
    def test_contract(self, value, fields, text):
        assert repr(value) == text
        twin = type(value)(**fields)
        assert twin == value and not twin != value
        assert hash(twin) == hash(value) == hash(tuple(fields.values()))
        assert type(value)(*fields.values()) == value
        assert value != tuple(fields.values())
        assert value.__eq__(tuple(fields.values())) is NotImplemented
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) == fields[name]
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("build,message", [
        (lambda: Permutation((1.0, 2.0)), "permutation entries must be integers: (1.0, 2.0)"),
        (lambda: Permutation(("1",)), "permutation entries must be integers: ('1',)"),
        (lambda: StandardTableau(((1.0, 2.0),)), "tableau entries must be integers: ((1.0, 2.0),)"),
        (lambda: TruncatedSeries(1.0, (MultiPoly.one(), MultiPoly.one())),
         "series order must be an integer: 1.0"),
    ], ids=["Permutation-float", "Permutation-str", "StandardTableau", "TruncatedSeries"])
    def test_non_integers_rejected(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_bools_are_stored_as_ints(self):
        p = Permutation((2, True))
        assert p == Permutation((2, 1)) and str(p) == "[2,1]"
        assert [type(v) for v in p.word] == [int, int]
        assert str(Permutation((True,))) == "[1]"
        T = StandardTableau(((True, 2),))
        assert T == StandardTableau(((1, 2),)) and type(T.rows[0][0]) is int
        series = TruncatedSeries(True, (MultiPoly.one(), MultiPoly.one()))
        assert type(series.order) is int and series.order == 1

    def test_multipoly_refuses_assignment_and_deletion(self):
        p = MultiPoly.one()
        with pytest.raises(AttributeError):
            p._terms = {}
        with pytest.raises(AttributeError):
            del p._terms
        assert p == MultiPoly.one()

    def test_not_equal_to_its_word(self):
        assert Permutation((1,)) != (1,)
        assert (1,) != Permutation((1,))
        assert DyckPath((0, 1)) != StandardTableau(((1,),))

    @pytest.mark.parametrize("value,fields,text", VALUES, ids=IDS)
    def test_constructor_runs_post_init_once(self, monkeypatch, value, fields, text):
        cls = type(value)
        post_init, calls = cls.__dict__["__post_init__"], []
        monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(post_init(self)))
        # copies and pickles rebuild through the public constructor
        for build in (lambda: cls(**fields), lambda: cls(*fields.values()), lambda: copy.copy(value),
                      lambda: copy.deepcopy(value), lambda: pickle.loads(pickle.dumps(value))):
            calls.clear()
            build()
            assert calls == [None]

    @pytest.mark.parametrize(
        "value",
        [v for v, *_ in VALUES] + [MultiPoly({(1, 2, 0): 3, (0, 0, 1): -1})],
        ids=IDS + ["MultiPoly"],
    )
    def test_copy_and_pickle_round_trip(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value and repr(twin) == repr(value) and hash(twin) == hash(value)


class TestReconstruct:
    def test_running_example(self):
        assert reconstruct_231(6, {1, 2, 4, 5}, {1, 3, 4, 5}) == SIGMA

    def test_empty_descents_give_identity(self):
        assert reconstruct_231(5, set(), set()) == identity(5)

    def test_brute_force_oracle_n4(self):
        # scan S_4(231) for the descent data, then compare
        matches = [
            p
            for p in enumerate_avoiders(4, 231)
            if descent_data(p).des == {1} and descent_data(p).ides == {3}
        ]
        assert matches == [Permutation((4, 1, 2, 3))]
        assert reconstruct_231(4, {1}, {3}) == Permutation((4, 1, 2, 3))

    def test_round_trip_exhaustive(self):
        for n in range(1, 10):
            for p in enumerate_avoiders(n, 231):
                d = descent_data(p)
                assert reconstruct_231(n, d.des, d.ides) == p

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different sizes"):
            reconstruct_231(4, {1}, {1, 3})

    def test_elementwise_condition_rejected(self):
        with pytest.raises(ValueError, match="elementwise"):
            reconstruct_231(3, {2}, {1})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="1..n-1"):
            reconstruct_231(3, {3}, {3})

    @pytest.mark.parametrize("n", [0, -2])
    def test_size_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            reconstruct_231(n, (), ())


class TestClassInvariants:
    def test_ides_determined_by_descent_values_on_231(self):
        for n in range(1, 10):
            for p in enumerate_avoiders(n, 231):
                d = descent_data(p)
                assert d.ides == {p.word[i - 1] - 1 for i in d.des}

    @pytest.mark.parametrize("pattern", [132, 231, 312, 213])
    def test_descent_count_matches_inverse(self, pattern):
        for n in range(1, 7):
            for p in enumerate_avoiders(n, pattern):
                d = descent_data(p)
                assert len(d.des) == len(d.ides)

    def test_ascent_tail_bound_on_231(self):
        for n in range(1, 7):
            for p in enumerate_avoiders(n, 231):
                for j in descent_data(p).asc:
                    assert all(p.word[k] > p.word[j - 1] for k in range(j, n))

    def test_ascent_inequality_on_231(self):
        for n in range(1, 8):
            for p in enumerate_avoiders(n, 231):
                for j in descent_data(p).asc:
                    assert j >= p.word[j - 1] + descent_run_before(p, j)

    def test_elementwise_des_ides_on_231(self):
        for n in range(1, 8):
            for p in enumerate_avoiders(n, 231):
                d = descent_data(p)
                assert all(i <= j for i, j in zip(sorted(d.des), sorted(d.ides)))
