import pytest

from catbij import (
    NotAvoiding132,
    NotAvoiding231,
    NotAvoiding312,
    NotAvoiding321,
    Permutation,
    ValleySet,
    area,
    avoids,
    beta,
    descent_data,
    enumerate_avoiders,
    enumerate_dyck,
    from_valleys,
    heights,
    identity,
    inverse,
    inverse_rsk,
    j_involution,
    kappa,
    kappa_factored,
    parse_path,
    parse_permutation,
    path_stats,
    perm_stats,
    phi,
    phi_inv,
    psi_perm,
    reflect,
    reverse,
    rsk,
    trio_132_213,
    valley_complement,
    valleys,
)
from conftest import CATALAN, FIGURE_PAIRS, all_perms

SIGMA = Permutation((6, 2, 1, 5, 4, 3))


class TestPhi:
    def test_running_example(self):
        D = phi(SIGMA)
        assert str(D) == "010010110101"
        s = perm_stats(SIGMA)
        assert path_stats(D).maj == 25 == s.maj + s.imaj

    def test_figure_pairs(self):
        for word, path in FIGURE_PAIRS:
            assert str(phi(Permutation(word))) == path
            assert phi_inv(parse_path(path)) == Permutation(word)

    def test_rejects_non_avoider(self):
        with pytest.raises(NotAvoiding231):
            phi(Permutation((2, 3, 1)))

    def test_valley_transport(self):
        for n in range(1, 8):
            for p in enumerate_avoiders(n, 231):
                d = descent_data(p)
                v = valleys(phi(p))
                assert set(v.xs) == d.des and set(v.ys) == d.ides

    def test_matches_the_valley_set_route(self):
        # phi builds its steps from (Des, iDes) without a ValleySet
        for n in range(1, 10):
            for p in enumerate_avoiders(n, 231):
                d = descent_data(p)
                assert phi(p) == from_valleys(ValleySet(n, tuple(sorted(d.des)), tuple(sorted(d.ides))))

    def test_bijection_counts_and_roundtrips(self):
        for n in range(1, 8):
            images = set()
            for p in enumerate_avoiders(n, 231):
                D = phi(p)
                images.add(D)
                assert phi_inv(D) == p
            assert len(images) == CATALAN[n]
            for D in enumerate_dyck(n):
                assert phi(phi_inv(D)) == D

    def test_maj_split_transport(self):
        for n in range(1, 8):
            for p in enumerate_avoiders(n, 231):
                s = perm_stats(p)
                ps = path_stats(phi(p))
                assert (ps.maj1, ps.maj0) == (s.maj, s.imaj)


class TestPhiInv:
    def test_goldens(self):
        assert phi_inv(parse_path("010010110101")) == SIGMA
        assert phi_inv(parse_path("00001111")) == identity(4)
        assert phi_inv(parse_path("00011101")) == Permutation((1, 2, 4, 3))


class TestPsiPerm:
    def test_golden(self):
        image = psi_perm(SIGMA)
        assert image == Permutation((1, 4, 2, 3, 5, 6))
        d = descent_data(image)
        assert d.des == {2} and d.ides == {3}

    def test_identity_maps_to_reversal(self):
        assert psi_perm(identity(5)) == Permutation((5, 4, 3, 2, 1))

    def test_involution_and_statistics(self):
        for n in range(1, 7):
            c = n * (n - 1) // 2
            for p in enumerate_avoiders(n, 231):
                image = psi_perm(p)
                assert psi_perm(image) == p
                s, si = perm_stats(p), perm_stats(image)
                assert si.des == n - 1 - s.des
                assert s.maj == c - si.imaj
                assert s.imaj == c - si.maj

    def test_matches_path_level_complement(self):
        for n in range(1, 7):
            for p in enumerate_avoiders(n, 231):
                assert phi(psi_perm(p)) == valley_complement(
                    phi(p)
                )

    def test_rejects_non_avoider(self):
        with pytest.raises(NotAvoiding231):
            psi_perm(Permutation((2, 3, 1)))


class TestHeights:
    def test_goldens(self):
        assert heights(Permutation((3, 4, 5, 1, 2, 6))) == (3, 2, 1, 2, 1, 0)
        assert heights(Permutation((1, 2, 3))) == (2, 1, 0)
        assert heights(Permutation((3, 2, 1))) == (0, 0, 0)

    def test_matches_definition_on_all_of_s_n(self):
        for n in range(1, 9):
            for p in all_perms(n):
                w = p.word
                assert heights(p) == tuple(sum(1 for x in w[i + 1:] if x > w[i]) for i in range(n))

    def test_drop_positions_are_ascents(self):
        for n in range(1, 7):
            for p in all_perms(n):
                hs = heights(p)
                asc = descent_data(p).asc
                for i in range(1, n):
                    assert (hs[i] < hs[i - 1]) == (i in asc)

    def test_criterion_detects_132(self):
        for n in range(1, 7):
            for p in all_perms(n):
                crit = all(b >= a - 1 for a, b in zip(heights(p), heights(p)[1:]))
                assert crit == avoids(p, (1, 3, 2))


class TestKappa:
    def test_golden(self):
        assert str(kappa(parse_permutation("[3,4,5,1,2,6]"))) == "000011100111"

    def test_small(self):
        assert str(kappa(Permutation((1, 2)))) == "0011"
        assert str(kappa(Permutation((2, 1)))) == "0101"

    def test_rejects_non_avoider(self):
        with pytest.raises(NotAvoiding132):
            kappa(Permutation((1, 3, 2)))
        with pytest.raises(NotAvoiding132):
            kappa_factored(Permutation((1, 3, 2)))

    def test_factorization_golden(self):
        p = parse_permutation("[3,4,5,1,2,6]")
        assert kappa_factored(p) == kappa(p)

    def test_identity_goes_to_single_peak(self):
        assert str(kappa(identity(4))) == "00001111"
        assert str(kappa_factored(identity(4))) == "00001111"

    def test_factorization_exhaustive(self):
        for n in range(1, 8):
            for p in enumerate_avoiders(n, 132):
                assert kappa(p) == kappa_factored(p)

    def test_valley_characterization(self):
        for n in range(1, 7):
            for p in enumerate_avoiders(n, 132):
                d = descent_data(p)
                hs = heights(p)
                v = valleys(kappa(p))
                assert set(v.xs) == d.des
                assert set(v.ys) == {i + hs[i - 1] for i in d.des}
                assert set(v.ys) == {n - j for j in d.ides}
                assert d.ides == {n - i - hs[i - 1] for i in d.des}


class TestBeta:
    def test_inv_to_area_golden(self):
        # the running example avoids 231, so feed its inverse to beta
        tau = inverse(SIGMA)
        assert avoids(tau, (3, 1, 2))
        assert area(beta(tau)) == perm_stats(tau).inv == 9
        assert beta(tau) == valley_complement(phi(SIGMA))

    def test_identity(self):
        assert str(beta(identity(4))) == "01010101"
        assert area(beta(identity(4))) == 0

    def test_rejects_non_avoider(self):
        with pytest.raises(NotAvoiding312):
            beta(Permutation((3, 1, 2)))

    def test_inv_equals_area_exhaustive(self):
        for n in range(1, 7):
            for p in enumerate_avoiders(n, 231):
                assert perm_stats(p).inv == area(valley_complement(phi(p)))
            for p in enumerate_avoiders(n, 312):
                assert area(beta(p)) == perm_stats(p).inv


class TestTrio:
    def test_golden(self):
        assert trio_132_213(Permutation((1, 2))) == Permutation((2, 1))

    def test_rejects_non_avoider(self):
        with pytest.raises(NotAvoiding132):
            trio_132_213(Permutation((1, 3, 2)))

    def test_statistics_and_bijectivity(self):
        for n in range(1, 7):
            c = n * (n - 1) // 2
            images = set()
            for p in enumerate_avoiders(n, 132):
                image = trio_132_213(p)
                images.add(image)
                s, si = perm_stats(p), perm_stats(image)
                assert si.des == n - 1 - s.des
                assert si.maj == c - s.maj
                assert si.imaj == c - s.imaj
            assert images == set(enumerate_avoiders(n, 213))


PRECONDITIONS = [
    (phi, NotAvoiding231),
    (psi_perm, NotAvoiding231),
    (kappa, NotAvoiding132),
    (kappa_factored, NotAvoiding132),
    (trio_132_213, NotAvoiding132),
    (beta, NotAvoiding312),
    (j_involution, NotAvoiding321),
]


class TestPreconditions:
    @pytest.mark.parametrize(
        "bijection, violation", PRECONDITIONS, ids=[f.__name__ for f, _ in PRECONDITIONS]
    )
    def test_sweep(self, bijection, violation):
        # a non-member raises exactly its typed error, never a bare
        # ValueError from a half-built object or an AssertionError
        for n in range(1, 7):
            for p in all_perms(n):
                if avoids(p, violation.pattern):
                    bijection(p)
                    continue
                with pytest.raises(violation) as caught:
                    bijection(p)
                assert type(caught.value) is violation
                assert str(caught.value) == str(violation(p.word))



def _s1_to_s7():
    return (p for n in range(1, 8) for p in all_perms(n))


def _avoiders_to_9(pattern):
    return lambda: (p for n in range(1, 10) for p in enumerate_avoiders(n, pattern))


def _paths_to_9():
    return (D for n in range(1, 10) for D in enumerate_dyck(n))


#: each map that builds its value unchecked, by ``_of``, and its domain
TRUSTED = {
    "inverse": (inverse, _s1_to_s7),
    "reverse": (reverse, _s1_to_s7),
    "inverse_rsk": (lambda p: inverse_rsk(*rsk(p)), _s1_to_s7),
    "phi_inv": (phi_inv, _paths_to_9),
    "psi_perm": (psi_perm, _avoiders_to_9(231)),
    "kappa": (kappa, _avoiders_to_9(132)),
    "valleys": (valleys, _paths_to_9),
    "from_valleys": (lambda D: from_valleys(valleys(D)), _paths_to_9),
    "valley_complement": (valley_complement, _paths_to_9),
    "reflect": (reflect, _paths_to_9),
}


class TestTrustedConstruction:
    @pytest.mark.parametrize("name", TRUSTED)
    def test_rebuilds_through_the_checking_constructor(self, name):
        # the value, rebuilt through __init__, passes the checks and comes
        # out equal; a list field where the constructor stores a tuple
        # would compare unequal
        image, domain = TRUSTED[name]
        for x in domain():
            y = image(x)
            cls, fields = y.__reduce__()
            assert y == cls(*fields)
