import pytest

from catbij import (
    NotAvoiding321,
    Permutation,
    StandardTableau,
    avoids,
    descent_data,
    enumerate_avoiders,
    evacuation,
    identity,
    inverse_rsk,
    j_involution,
    parse_tableau,
    rsk,
    standard_tableaux,
    tableau_descents,
)
from catbij.verification import run_suite
from conftest import all_perms

# number of standard Young tableaux with n cells (= involutions of S_n)
INVOLUTION_COUNTS = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620]


class TestStandardTableau:
    def test_text_form_round_trip(self):
        T = parse_tableau("[[1,3],[2,4]]")
        assert T.rows == ((1, 3), (2, 4))
        assert str(T) == "[[1,3],[2,4]]"
        assert T.shape == (2, 2)

    @pytest.mark.parametrize(
        "rows",
        [
            ((1, 2), (2,)),        # duplicate entry
            ((2, 3), (1,)),        # column decreases
            ((1,), (2, 3)),        # shape increases
            ((3, 1), (2,)),        # row decreases
            ((1, 2, 4),),          # entries not 1..n
        ],
    )
    def test_invalid_rejected(self, rows):
        with pytest.raises(ValueError):
            StandardTableau(rows)

    @pytest.mark.parametrize("text", ["[1,2]", "null", "[[1,2],3]", '{"ab": 1}'])
    def test_parse_rejects_json_that_is_not_rows(self, text):
        with pytest.raises(ValueError, match="tableau entries must be integers"):
            parse_tableau(text)


class TestTrustedConstructor:
    """The tableaux built by rsk, evacuation and standard_tableaux skip
    validation; each must equal, and hash like, its validated twin."""

    @staticmethod
    def assert_validated_twin(T):
        twin = StandardTableau(T.rows)
        assert T == twin
        assert hash(T) == hash(twin)

    def test_rsk(self):
        # all of S_n up to the cap of the RSK checks in `verify rsk-j`
        for n in range(1, 8):
            for p in all_perms(n):
                for T in rsk(p):
                    self.assert_validated_twin(T)

    def test_standard_tableaux_and_evacuation(self):
        for n in range(1, 8):
            for T in standard_tableaux(n):
                self.assert_validated_twin(T)
                self.assert_validated_twin(evacuation(T))

    def test_rsk_j_suite_validates_only_the_evacuation_row(self, monkeypatch):
        # the evacuation row (n <= 6 here) checks each tableau of the stream
        # and its image once; rsk, evacuation and j validate nothing
        calls = []
        validate = StandardTableau.__post_init__

        def counting(self):
            calls.append(1)
            validate(self)

        monkeypatch.setattr(StandardTableau, "__post_init__", counting)
        assert all(c.passed for c in run_suite("rsk-j", 5))
        assert len(calls) == 2 * sum(INVOLUTION_COUNTS[1:7])


class TestRsk:
    def test_identity_gives_single_row(self):
        P, Q = rsk(identity(4))
        assert P.rows == Q.rows == ((1, 2, 3, 4),)

    def test_decreasing_gives_single_column(self):
        P, Q = rsk(Permutation((2, 1)))
        assert P.rows == Q.rows == ((1,), (2,))

    def test_hand_worked_example(self):
        P, Q = rsk(Permutation((2, 4, 1, 3)))
        assert P.rows == ((1, 3), (2, 4))
        assert Q.rows == ((1, 2), (3, 4))

    def test_round_trip(self):
        for n in range(1, 7):
            for p in all_perms(n):
                assert inverse_rsk(*rsk(p)) == p

    def test_descent_transport(self):
        for n in range(1, 7):
            for p in all_perms(n):
                P, Q = rsk(p)
                d = descent_data(p)
                assert tableau_descents(Q) == d.des
                assert tableau_descents(P) == d.ides

    def test_avoidance_is_two_rows(self):
        for n in range(1, 7):
            for p in all_perms(n):
                P, Q = rsk(p)
                assert P.shape == Q.shape
                assert (len(P.shape) <= 2) == avoids(p, (3, 2, 1))

    def test_inverse_rsk_rejects_shape_mismatch(self):
        P, _ = rsk(Permutation((2, 1, 3)))
        _, Q = rsk(Permutation((1, 2, 3)))
        with pytest.raises(ValueError, match="shapes differ"):
            inverse_rsk(P, Q)


class TestDescents:
    def test_single_row(self):
        assert tableau_descents(parse_tableau("[[1,2,3]]")) == set()

    def test_single_column(self):
        assert tableau_descents(StandardTableau(((1,), (2,), (3,)))) == {1, 2}

    def test_two_by_two(self):
        assert tableau_descents(parse_tableau("[[1,3],[2,4]]")) == {1, 3}

    def test_matches_the_dict_oracle(self):
        for n in range(1, 10):
            for T in standard_tableaux(n):
                row_of = {v: r for r, row in enumerate(T.rows) for v in row}
                assert tableau_descents(T) == {i for i in range(1, n) if row_of[i + 1] > row_of[i]}


def jeu_de_taquin_evacuation(T):
    """Oracle: repeatedly delete the minimum, slide the hole to a corner by
    jeu de taquin, and record n, n-1, ... at the vacated corners."""
    rows = [list(r) for r in T.rows]
    out: list[list[int]] = [[0] * len(r) for r in T.rows]
    for k in range(T.n, 0, -1):
        r = c = 0
        while True:
            right = rows[r][c + 1] if c + 1 < len(rows[r]) else None
            below = (
                rows[r + 1][c]
                if r + 1 < len(rows) and c < len(rows[r + 1])
                else None
            )
            if right is None and below is None:
                break
            if below is None or (right is not None and right < below):
                rows[r][c] = right
                c += 1
            else:
                rows[r][c] = below
                r += 1
        rows[r].pop()
        if not rows[r]:
            rows.pop()
        out[r][c] = k
    return StandardTableau(tuple(map(tuple, out)))


class TestEvacuation:
    def test_equals_the_jeu_de_taquin_oracle(self):
        tableaux = [T for n in range(1, 10) for T in standard_tableaux(n)]
        assert len(tableaux) == sum(INVOLUTION_COUNTS[1:10]) == 3735
        for T in tableaux:
            assert evacuation(T) == jeu_de_taquin_evacuation(T)

    def test_inserts_the_reverse_complemented_reading_word(self):
        # evacuation runs rsk's insertion loop on the word itself
        for n in range(1, 10):
            for T in standard_tableaux(n):
                word = tuple(n + 1 - v for row in T.rows for v in reversed(row))
                assert evacuation(T) == rsk(Permutation(word))[0]

    def test_single_row_and_column_fixed(self):
        row = parse_tableau("[[1,2,3,4]]")
        col = StandardTableau(((1,), (2,), (3,)))
        assert evacuation(row) == row
        assert evacuation(col) == col

    def test_two_by_two_fixed(self):
        T = parse_tableau("[[1,2],[3,4]]")
        assert evacuation(T) == T

    def test_involution_shape_descents(self):
        for n in range(1, 8):
            for T in standard_tableaux(n):
                image = evacuation(T)
                assert image.shape == T.shape
                assert evacuation(image) == T
                assert tableau_descents(image) == {n - i for i in tableau_descents(T)}

    def test_conjugates_rsk_with_reverse_complement(self):
        # rsk(reverse-complement of w) = (evacuation(P), evacuation(Q))
        for n in range(1, 7):
            for p in all_perms(n):
                P, Q = rsk(p)
                rc = Permutation(tuple(n + 1 - v for v in reversed(p.word)))
                RP, RQ = rsk(rc)
                assert RP == evacuation(P)
                assert RQ == evacuation(Q)


def recursive_standard_tableaux(n):
    """Oracle: the same stream by recursion, placing 1, 2, ..., n at every
    addable corner in row order."""
    rows = []

    def walk(k):
        if k > n:
            yield StandardTableau(tuple(tuple(r) for r in rows))
            return
        for r in range(len(rows) + 1):
            if r < len(rows):
                if r > 0 and len(rows[r]) >= len(rows[r - 1]):
                    continue
                rows[r].append(k)
                yield from walk(k + 1)
                rows[r].pop()
            else:
                rows.append([k])
                yield from walk(k + 1)
                rows.pop()

    return walk(1)


class TestEnumerateTableaux:
    def test_order_equals_the_recursive_oracle(self):
        for n in range(1, 9):
            assert list(standard_tableaux(n)) == list(recursive_standard_tableaux(n))

    def test_deep_stream_starts_with_one_row(self):
        # far deeper than the recursion limit
        assert next(standard_tableaux(2000)).rows == (tuple(range(1, 2001)),)

    def test_counts(self):
        for n in range(1, 9):
            assert sum(1 for _ in standard_tableaux(n)) == INVOLUTION_COUNTS[n]

    def test_all_valid_and_distinct(self):
        seen = set(standard_tableaux(5))
        assert len(seen) == INVOLUTION_COUNTS[5]

    def test_n_below_one_is_rejected_on_call(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be at least 1"):
                standard_tableaux(n)


class TestJInvolution:
    def test_identity_fixed(self):
        assert j_involution(identity(5)) == identity(5)

    def test_rejects_non_avoider(self):
        with pytest.raises(NotAvoiding321):
            j_involution(Permutation((3, 2, 1)))

    def test_involution_and_descents(self):
        for n in range(1, 9):
            for p in enumerate_avoiders(n, 321):
                image = j_involution(p)
                assert avoids(image, (3, 2, 1))
                assert j_involution(image) == p
                d, di = descent_data(p), descent_data(image)
                assert di.des == d.des
                assert di.ides == {n - j for j in d.ides}
