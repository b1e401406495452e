import inspect
import itertools
import re

import pytest

from catbij import (
    CeilingExceeded,
    DyckPath,
    NonBinaryCharacter,
    PathStats,
    PathSums,
    PrefixViolation,
    UnbalancedCounts,
    ValleySet,
    area,
    bounce,
    enumerate_dyck,
    from_valleys,
    parse_path,
    path_stats,
    paths_with_stats,
    reflect,
    valley_complement,
    valleys,
)
from conftest import CATALAN, FIGURE_PAIRS

RUNNING = parse_path("01 001 011 01 01")


def validator_oracle(steps):
    """DyckPath's step checks with a generator for the binary test and a
    signed height sum, the oracle for its counting checks: the same classes
    and messages, in the same order.  Only ints (bools among them) count as
    steps; a float 0.0 or 1.0 is not one."""
    if any(not isinstance(s, int) or s not in (0, 1) for s in steps):
        raise NonBinaryCharacter(f"steps must be 0 or 1: {steps}")
    if not steps:
        raise UnbalancedCounts("empty step word")
    zeros = steps.count(0)
    ones = len(steps) - zeros
    if zeros != ones:
        raise UnbalancedCounts(f"{zeros} north vs {ones} east steps")
    height = 0
    for i, s in enumerate(steps, start=1):
        height += 1 if s == 0 else -1
        if height < 0:
            raise PrefixViolation(f"prefix of length {i} dips below the diagonal")


def check_outcome(check, steps):
    """None if check(steps) accepts, else the exception's class and message."""
    try:
        check(steps)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def area_oracle(D):
    """Grid oracle: count cells fully above the diagonal and below the path,
    column by column (independent of the north-step formula used by area)."""
    heights, norths = [], 0
    for s in D.steps:
        if s == 0:
            norths += 1
        else:
            heights.append(norths)
    return sum(max(0, h - (x + 1)) for x, h in enumerate(heights))


def bounce_oracle(D):
    """Grid oracle: walk the bounce path, north from each touch point until
    D starts an east step there, then east to the diagonal, and sum n - a
    over the touch points (a, a) with 0 < a < n."""
    n = D.n
    x = y = 0
    east_from = set()  # the lattice points D leaves by an east step
    for s in D.steps:
        if s == 0:
            y += 1
        else:
            east_from.add((x, y))
            x += 1
    a = total = 0
    while a < n:
        h = a
        while (a, h) not in east_from:
            h += 1
        a = h
        if a < n:
            total += n - a
    return total


class TestParsing:
    def test_blanks_are_grouping_only(self):
        assert RUNNING.n == 6
        assert str(RUNNING) == "010010110101"
        assert parse_path("000111") == DyckPath((0, 0, 0, 1, 1, 1))

    def test_east_before_north(self):
        with pytest.raises(PrefixViolation):
            parse_path("10")

    def test_prefix_dips_midway(self):
        with pytest.raises(PrefixViolation):
            parse_path("0110")

    def test_unbalanced(self):
        with pytest.raises(UnbalancedCounts):
            parse_path("0100")
        with pytest.raises(UnbalancedCounts):
            parse_path("")

    def test_non_binary(self):
        with pytest.raises(NonBinaryCharacter):
            parse_path("0x01")
        with pytest.raises(NonBinaryCharacter):
            DyckPath((0, 2))

    def test_checks_match_oracle_on_every_short_word(self):
        words = [(), (2,), (0, 2), (0, 1, 2, 1), (1, 0, 5), (-1, 0), ("0", "1"),
                 (0.5, 0.5), (True, False), (False, True), (0.0, 1.0)]
        for length in range(1, 11):
            words.extend(itertools.product((0, 1), repeat=length))
        accepted = 0
        for steps in words:
            want = check_outcome(validator_oracle, steps)
            assert check_outcome(DyckPath, steps) == want, steps
            if want is None:
                accepted += 1
                assert all(type(s) is int for s in DyckPath(steps).steps), steps
        # 1 + 2 + 5 + 14 + 42 Dyck words of length 2..10, plus (False, True),
        # stored as (0, 1)
        assert accepted == 64 + 1
        assert DyckPath((False, True)).steps == (0, 1)


class TestStats:
    def test_running_example(self):
        s = path_stats(RUNNING)
        assert s.des == {2, 5, 8, 10}
        assert s.maj == 25
        assert (s.maj0, s.maj1) == (13, 12)

    def test_single_peak_has_no_descents(self):
        s = path_stats(parse_path("000111"))
        assert s.des == set() and s.maj == s.maj0 == s.maj1 == 0

    def test_prefix_count_oracle(self):
        # a descent is each "10" in the word, at the position of its 1;
        # maj0 and maj1 count the 0s and 1s up to that position
        for n in range(1, 9):
            for D in enumerate_dyck(n):
                word = str(D)
                des = [i for i in range(1, 2 * n) if word[i - 1 : i + 1] == "10"]
                s = path_stats(D)
                assert s.des == set(des)
                assert s.maj == sum(des)
                assert s.maj0 == sum(word[:i].count("0") for i in des)
                assert s.maj1 == sum(word[:i].count("1") for i in des)

    def test_valley_oracle(self):
        # des, maj0 and maj1 read off the (x, y) of the valleys, for n <= 10;
        # path_stats reads them so, and test_prefix_count_oracle reads the word
        for n in range(1, 11):
            for D in enumerate_dyck(n):
                v = valleys(D)
                des = [x + y for x, y in zip(v.xs, v.ys)]
                assert path_stats(D) == PathStats(
                    des=frozenset(des), maj=sum(des), maj0=sum(v.ys), maj1=sum(v.xs)
                )

    def test_split_partitions_maj(self):
        for n in range(1, 9):
            for D in enumerate_dyck(n):
                s = path_stats(D)
                assert s.maj0 + s.maj1 == s.maj


class TestValleys:
    def test_running_example(self):
        v = valleys(RUNNING)
        assert v.xs == (1, 2, 4, 5)
        assert v.ys == (1, 3, 4, 5)

    def test_single_peak_has_none(self):
        v = valleys(parse_path("00001111"))
        assert v.xs == () and v.ys == ()

    def test_diagonal_valley(self):
        v = valleys(parse_path("0101"))
        assert (v.xs, v.ys) == ((1,), (1,))

    def test_from_valleys_goldens(self):
        assert str(from_valleys(ValleySet(6, (1, 2, 4, 5), (1, 3, 4, 5)))) == "010010110101"
        assert str(from_valleys(ValleySet(4, (), ()))) == "00001111"
        assert str(from_valleys(ValleySet(4, (3,), (3,)))) == "00011101"

    def test_round_trips(self):
        for n in range(1, 9):
            for D in enumerate_dyck(n):
                assert from_valleys(valleys(D)) == D

    def test_invalid_valley_sets(self):
        with pytest.raises(ValueError, match="elementwise"):
            ValleySet(4, (2,), (1,))
        with pytest.raises(ValueError, match="strictly increase"):
            ValleySet(4, (1, 1), (2, 3))
        with pytest.raises(ValueError, match=r"\|xs\| != \|ys\|"):
            ValleySet(4, (1,), (1, 2))
        with pytest.raises(ValueError, match="1..3"):
            ValleySet(4, (4,), (4,))

    @pytest.mark.parametrize("n,xs,ys,message", [
        (4, (1.0,), (1,), "n and coordinates must be integers: n=4, xs=(1.0,), ys=(1,)"),
        (0, (1.5,), (), "n and coordinates must be integers: n=0, xs=(1.5,), ys=()"),
        (0, (), (), "semilength must be at least 1"),
        # |xs| != |ys| comes before the range and the order of either
        (4, (5, 5), (1,), "|xs| != |ys|: (5, 5) vs (1,)"),
        # a bad range comes before a bad order
        (4, (4, 2), (1, 3), "coordinates must lie in 1..3: (4, 2)"),
        (4, (2, 0), (1, 3), "coordinates must lie in 1..3: (2, 0)"),
        (1, (1,), (1,), "coordinates must lie in 1..0: (1,)"),
        # xs is checked before ys
        (4, (2, 1), (5, 5), "coordinates must strictly increase: (2, 1)"),
        (4, (1, 1), (3, 3), "coordinates must strictly increase: (1, 1)"),
        (4, (1, 2), (0, 3), "coordinates must lie in 1..3: (0, 3)"),
        (4, (1, 2), (3, 3), "coordinates must strictly increase: (3, 3)"),
        # the elementwise test comes last
        (4, (2, 3), (1, 3), "need xs[l] <= ys[l] elementwise (path above diagonal): (2, 3) vs (1, 3)"),
        (4, (2,), (1,), "need xs[l] <= ys[l] elementwise (path above diagonal): (2,) vs (1,)"),
    ])
    def test_invalid_valley_set_messages(self, n, xs, ys, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ValleySet(n, xs, ys)

    def test_position_sum_is_maj(self):
        for n in range(1, 9):
            for D in enumerate_dyck(n):
                v = valleys(D)
                assert path_stats(D).maj == sum(v.xs) + sum(v.ys)

    def test_json_round_trip(self):
        v = valleys(RUNNING)
        assert ValleySet.from_json(v.to_json()) == v

    @pytest.mark.parametrize("text,bad", [
        ('{"n": 4, "xs": [1.5], "ys": [2]}', "1.5"),
        ('{"n": 4, "xs": [1], "ys": ["2"]}', "'2'"),
        ('{"n": 4.0, "xs": [1], "ys": [2]}', "4.0"),
        ('{"n": null, "xs": [], "ys": []}', "None"),
    ])
    def test_from_json_rejects_non_integers(self, text, bad):
        with pytest.raises(ValueError, match="must be integers") as info:
            ValleySet.from_json(text)
        assert bad in str(info.value)

    @pytest.mark.parametrize("text,message", [
        ('{"n": 3}', "valley set lacks the field 'xs'"),
        ('{"n": 3, "xs": []}', "valley set lacks the field 'ys'"),
        ('{"xs": [], "ys": []}', "valley set lacks the field 'n'"),
        ("[3, [], []]", "valley set must be a JSON object, got list"),
        ('{"n": 3, "xs": 1, "ys": [2]}', "valley set field 'xs' must be an array, got int"),
        ('{"n": 3, "xs": [1], "ys": "2"}', "valley set field 'ys' must be an array, got str"),
    ])
    def test_from_json_rejects_wrong_shapes(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ValleySet.from_json(text)

    def test_bools_are_stored_as_ints(self):
        v = ValleySet.from_json('{"n": 3, "xs": [true], "ys": [2]}')
        assert v == ValleySet(3, (1,), (2,))
        assert v.to_json() == '{"n": 3, "xs": [1], "ys": [2]}'


class TestAreaBounce:
    def test_extremes(self):
        for n in range(1, 7):
            steep = DyckPath((0,) * n + (1,) * n)
            saw = DyckPath((0, 1) * n)
            assert area(steep) == n * (n - 1) // 2
            assert bounce(steep) == 0
            assert area(saw) == 0
            assert bounce(saw) == n * (n - 1) // 2

    def test_running_example_area(self):
        assert area(RUNNING) == area_oracle(RUNNING) == 2

    def test_area_matches_grid_oracle(self):
        for n in range(1, 7):
            for D in enumerate_dyck(n):
                assert area(D) == area_oracle(D)

    def test_bounce_matches_grid_oracle(self):
        for n in range(1, 9):
            for D in enumerate_dyck(n):
                assert bounce(D) == bounce_oracle(D), str(D)


class TestInvolutions:
    def test_complement_swaps_special_pair(self):
        a, b = parse_path("01010011"), parse_path("00011101")
        assert valley_complement(a) == b
        assert valley_complement(b) == a

    def test_complement_extremes(self):
        n = 5
        steep = DyckPath((0,) * n + (1,) * n)
        assert valley_complement(steep) == DyckPath((0, 1) * n)
        assert valley_complement(DyckPath((0, 1) * n)) == steep

    def test_complement_is_involution(self):
        for D in enumerate_dyck(6):
            assert valley_complement(valley_complement(D)) == D

    def test_reflect_fixes_single_peak(self):
        steep = DyckPath((0,) * 5 + (1,) * 5)
        assert reflect(steep) == steep

    def test_reflect_is_involution_and_maps_valleys(self):
        # oracle: each valley (x, y) goes to (n-y, n-x)
        for n in range(1, 9):
            for D in enumerate_dyck(n):
                v = valleys(D)
                want = sorted((n - y, n - x) for x, y in zip(v.xs, v.ys))
                image = valleys(reflect(D))
                assert list(zip(image.xs, image.ys)) == want
                assert reflect(reflect(D)) == D

    def test_reflect_commutes_with_complement(self):
        for D in enumerate_dyck(6):
            assert reflect(valley_complement(D)) == valley_complement(reflect(D))


class TestEnumeration:
    def test_n4_is_figure_right_column(self):
        got = [str(D) for D in enumerate_dyck(4)]
        assert got == sorted(path for _, path in FIGURE_PAIRS)

    def test_n1(self):
        assert [str(D) for D in enumerate_dyck(1)] == ["01"]

    def test_counts(self):
        for n in range(1, 9):
            assert sum(1 for _ in enumerate_dyck(n)) == CATALAN[n]

    def test_n10_count(self):
        assert sum(1 for _ in enumerate_dyck(10)) == 16796

    def test_lex_order_no_duplicates(self):
        for n in range(1, 10):
            words = [str(D) for D in enumerate_dyck(n)]
            assert words == sorted(set(words))

    def test_ceiling(self):
        with pytest.raises(CeilingExceeded):
            enumerate_dyck(13)
        assert next(enumerate_dyck(13, max_n=13)).n == 13

    def test_carried_sums_are_path_stats_and_area(self):
        for n in range(1, 11):
            rows = list(paths_with_stats(n))
            assert [D for D, _ in rows] == list(enumerate_dyck(n))
            for D, sums in rows:
                s = path_stats(D)
                assert sums == PathSums(s.maj, s.maj0, s.maj1, area(D))
                assert type(sums) is PathSums

    def test_walk_yields_what_the_checking_constructor_builds(self):
        # the walk builds its paths unchecked; stdout depends on their hash
        # through set order, so the steps must be the ints DyckPath stores
        for n in range(1, 10):
            for D, _ in paths_with_stats(n):
                assert type(D.steps) is tuple
                assert all(type(s) is int and s in (0, 1) for s in D.steps)
                assert D == DyckPath(D.steps)

    @pytest.mark.parametrize("stream", [enumerate_dyck, paths_with_stats])
    @pytest.mark.parametrize("n,error", [(0, ValueError), (13, CeilingExceeded)])
    def test_bad_size_raises_at_the_call(self, stream, n, error):
        # before the first next(), yet the stream is a generator
        with pytest.raises(error):
            stream(n)
        assert inspect.isgenerator(stream(3))
