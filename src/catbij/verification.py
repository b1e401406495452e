"""Named check suites over exhaustively enumerated objects.

A suite is a table of laws, and each row is ``(name, bar, domain, test)``:
``domain(n)`` yields the objects of size n, and ``test(n, x)`` returns None
when the law holds at ``x`` and the counterexample text when it does not.
One driver, ``_run``, walks n = 1..bar and each domain in its own order,
once for all the rows that share that bar and domain.  Each object goes to
every such row that has not failed yet, so a row's first failure is its
smallest counterexample (ascending n, lex within n), and the walk stops
when all of them have failed.  A test that raises an ``Exception`` fails
its row at that object, with ``raised <Type>: <message>`` as the
counterexample; ``KeyboardInterrupt`` still ends the run.  Checks come
back in row order.  What rows derive from one object (RSK pair, heights,
descent data, phi image) sits behind a one-slot ``_memo`` that the suite
builds when it runs; it is keyed by identity, as the rows of a group get
the very same object.  The domains S_n and the avoiders of each class are
built once per ``run_suite`` call into one table, ``_perm_tables``, which
``verify all`` shares among its suites.  A row may carry a fifth field, the
note a passing check prints.  Three helpers build rows:

- ``_holds`` turns a predicate into a test that reports ``str(x)``;
- ``_per_n`` checks one identity per size on the domain ``(n,)`` and reports
  ``n=<n>``;
- ``_fact`` checks a fixed fact once, as a row with bar 1.

The CLI's ``verify`` command prints the checks as a PASS/FAIL table, and the
acceptance tests assert on them directly.
"""
from __future__ import annotations

import functools
import itertools
from contextvars import ContextVar
from math import comb
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import bijections, dyck, permutations, polynomials, tableaux
from .errors import DEFAULT_MAX_N, CeilingExceeded, NotAvoiding321
from .permutations import Permutation

Test = Callable[[int, Any], "str | None"]


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _run(rows: Iterable[tuple]) -> list[Check]:
    """The driver: rows that share a bar and a domain walk it together."""
    rows = list(rows)
    groups: dict[tuple, list[tuple[int, Test]]] = {}
    for i, (_, bar, domain, test, *_) in enumerate(rows):
        groups.setdefault((bar, domain), []).append((i, test))
    first: dict[int, str] = {}  # row index -> its smallest counterexample
    for (bar, domain), live in groups.items():
        failed = len(first)
        for n, x in ((n, x) for n in range(1, bar + 1) for x in domain(n)):
            for i, test in live:
                try:
                    failure = test(n, x)
                except Exception as exc:  # a row that raises fails at this object
                    failure = f"raised {type(exc).__name__}: {exc}"
                if failure is not None:
                    first[i] = failure
            if len(first) > failed:  # some rows failed at x; the rest walk on
                live = [row for row in live if row[0] not in first]
                if not live:
                    break
                failed = len(first)
    return [Check(name, False, f"counterexample: {first[i]}") if i in first else Check(name, True, *note)
            for i, (name, _, _, _, *note) in enumerate(rows)]


def _memo(f: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """f behind a one-slot memo keyed by identity.  One slot is enough:
    ``_run`` hands the same object to every row of a group in turn, so a
    hit needs no hash and no equality test, and a miss only calls the pure
    f again.  A suite applies this when it runs, so each memo goes with the
    suite's run."""
    last_x = last = object()  # no argument is this object

    def memo(x):
        nonlocal last_x, last
        if x is not last_x:
            last = f(x)
            last_x = x
        return last

    return memo


def _holds(law: Callable[[int, Any], bool]) -> Test:
    return lambda n, x: None if law(n, x) else str(x)


def _size(n: int) -> tuple[int]:
    return (n,)


def _per_n(name: str, bar: int, holds: Callable[[int], bool]) -> tuple:
    return (name, bar, _size, lambda n, _: None if holds(n) else f"n={n}")


def _fact(name: str, failure: Callable[[], str | None], *note: str) -> tuple:
    return (name, 1, _size, lambda n, _: failure(), *note)


#: the length-3 patterns the rows name, parsed once
_123, _132, _231, _312, _321 = map(Permutation, ((1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)))

#: the last n at which a check ranges over all of S_n (5,040 permutations)
_ALL_PERMS_MAX_N = 7

#: the last n at which a run keeps the avoiders of a class (Cat_9 = 4,862);
#: a larger n is walked fresh by each domain.  ``verify all 10`` peaked at
#: 31.9-32.0 MiB RSS with this cap, 26.3 MiB with no avoider tables and
#: 46.5 MiB with no cap (2-vCPU Xeon VM, Python 3.11.7, started from a
#: ``python -S`` parent that reads the peak from ``os.wait4``)
_AVOIDERS_MAX_N = 9

#: the domains walked so far, kept by ``run_suite`` for the length of its
#: call: S_n under the key n, at most S_1..S_7 (5,913 permutations), and the
#: avoiders of size n of a pattern under the key (pattern word, n), for
#: n <= _AVOIDERS_MAX_N (6,917 per class)
_perm_tables: ContextVar[dict[Any, tuple[Permutation, ...]]] = ContextVar("_perm_tables")


def _shared(key, build: Callable[[], Iterable[Permutation]]) -> Iterator[Permutation]:
    """The run's entry under ``key``, built on its first use."""
    table = _perm_tables.get({})
    if key not in table:
        table[key] = tuple(build())
    return iter(table[key])


def _all_perms(n: int) -> Iterator[Permutation]:
    return _shared(n, lambda: map(Permutation, itertools.permutations(range(1, n + 1))))


def _avoiders(pattern, max_n: int) -> Callable[[int], Iterator[Permutation]]:
    """The domain of the avoiders of ``pattern``.  Up to _AVOIDERS_MAX_N,
    the first use of a size in a run walks ``enumerate_avoiders`` into the
    run's table, and every later use, from any suite, reads that entry."""
    word = permutations._pattern_word(pattern)

    def domain(n: int) -> Iterator[Permutation]:
        walk = functools.partial(permutations.enumerate_avoiders, n, pattern, max_n=max_n)
        return walk() if n > _AVOIDERS_MAX_N else _shared((word, n), walk)

    return domain


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------

def suite_phi(n_max: int) -> list[Check]:
    avoiders = _avoiders(_231, n_max)
    stats = _memo(permutations.perm_stats)

    phi = _memo(bijections.phi)

    @_memo
    def image_stats(p: Permutation) -> dyck.PathStats:
        return dyck.path_stats(phi(p))

    def bijects(n: int, _) -> str | None:
        count, images = 0, set()
        for p in avoiders(n):
            D = phi(p)
            count += 1
            images.add(D)
            if bijections.phi_inv(D) != p:
                return f"round-trip fails at {p}"
        if count != _catalan(n) or len(images) != _catalan(n):
            return f"n={n}: {count} avoiders, {len(images)} images, want {_catalan(n)}"
        paths = dyck.enumerate_dyck(n, max_n=n_max)
        return next((f"path round-trip fails at {D}" for D in paths if phi(bijections.phi_inv(D)) != D), None)

    def maj_additive(n: int, p: Permutation) -> bool:
        s = stats(p)
        return image_stats(p).maj == s.maj + s.imaj

    def valley_transport(n: int, p: Permutation) -> bool:
        d = permutations.descent_data(p)
        v = dyck.valleys(phi(p))
        return set(v.xs) == d.des and set(v.ys) == d.ides

    def split_transport(n: int, p: Permutation) -> bool:
        s, ps = stats(p), image_stats(p)
        return ps.maj1 == s.maj and ps.maj0 == s.imaj

    return _run([
        (f"phi bijects 231-avoiders onto Dyck paths, n<={n_max}", n_max, _size, bijects),
        (f"maj(phi(w)) = maj(w) + imaj(w), n<={n_max}", n_max, avoiders, _holds(maj_additive)),
        (f"valley sets of phi(w) are (Des, iDes), n<={n_max}", n_max, avoiders, _holds(valley_transport)),
        (f"(maj1, maj0) of phi(w) is (maj, imaj), n<={n_max}", n_max, avoiders, _holds(split_transport)),
    ])


# ---------------------------------------------------------------------------
# descent-geometry lemmas on 231-avoiders
# ---------------------------------------------------------------------------

def suite_lemmas(n_max: int) -> list[Check]:
    avoiders = _avoiders(_231, n_max)
    descent_data = _memo(permutations.descent_data)

    def ides_from_values(n: int, p: Permutation) -> bool:
        d = descent_data(p)
        return d.ides == {p.word[i - 1] - 1 for i in d.des}

    def pattern_major(_) -> Iterator[tuple]:
        # pattern-major: every n for one pattern before the next, so the row runs once, at bar 1
        patterns = ((1, 3, 2), (2, 3, 1), (3, 1, 2), (2, 1, 3))
        domains = [(pat, _avoiders(pat, n_max)) for pat in patterns]
        sizes = range(1, n_max + 1)
        return ((pat, p) for pat, domain in domains for n in sizes for p in domain(n))

    def des_counts_match(_, pair: tuple) -> str | None:
        pattern, p = pair
        d = descent_data(p)
        return None if len(d.des) == len(d.ides) else f"{p} avoiding {pattern}"

    def witness_123() -> str | None:
        w = Permutation((2, 4, 1, 3))
        d = descent_data(w)
        if permutations.avoids(w, _123) and d.des == {2} and d.ides == {1, 3}:
            return None
        return f"witness broke: Des={sorted(d.des)}, iDes={sorted(d.ides)}"

    def ascents_bound_tail(n: int, p: Permutation) -> str | None:
        asc = descent_data(p).asc
        return next((f"{p}, ascent {j}" for j in asc if any(v < p.word[j - 1] for v in p.word[j:])), None)

    def ascent_inequality(n: int, p: Permutation) -> str | None:
        asc = descent_data(p).asc
        run = permutations.descent_run_before
        return next((f"{p}, ascent {j}" for j in asc if j < p.word[j - 1] + run(p, j)), None)

    def consecutive_ascents(n: int, p: Permutation) -> str | None:
        asc = sorted(descent_data(p).asc)
        pairs = zip(asc, asc[1:])
        return next((f"{p}, ascents {a},{b}" for a, b in pairs if a < p.word[b - 1] - 1), None)

    def elementwise(n: int, p: Permutation) -> bool:
        d = descent_data(p)
        return all(i <= j for i, j in zip(sorted(d.des), sorted(d.ides)))

    def reconstructs(n: int, p: Permutation) -> bool:
        d = descent_data(p)
        return permutations.reconstruct_231(n, d.des, d.ides) == p

    return _run([
        (f"iDes = {{w_i - 1 : i in Des}} on 231-avoiders, n<={n_max}", n_max, avoiders,
         _holds(ides_from_values)),
        (f"|Des| = |iDes| on 132/231/312/213-avoiders, n<={n_max}", 1, pattern_major, des_counts_match),
        _fact("witness [2,4,1,3]: 123-avoiding, |Des|=1 but |iDes|=2", witness_123),
        (f"values after an ascent exceed it (231), n<={n_max}", n_max, avoiders, ascents_bound_tail),
        (f"j >= w_j + run-before-j at ascents (231), n<={n_max}", n_max, avoiders, ascent_inequality),
        (f"consecutive ascents: j_l >= w(j_l+1) - 1 (231), n<={n_max}", n_max, avoiders,
         consecutive_ascents),
        (f"sorted Des <= iDes elementwise (231), n<={n_max}", n_max, avoiders, _holds(elementwise)),
        (f"reconstruct_231 round-trips descent data, n<={n_max}", n_max, avoiders, _holds(reconstructs)),
    ])


# ---------------------------------------------------------------------------
# kappa and its factorization
# ---------------------------------------------------------------------------

def suite_kappa(n_max: int) -> list[Check]:
    avoiders = _avoiders(_132, n_max)
    heights_bar = min(n_max, _ALL_PERMS_MAX_N)
    descent_data = _memo(permutations.descent_data)
    heights = _memo(bijections.heights)

    kappa = _memo(bijections.kappa)

    def factorization(n: int, p: Permutation) -> bool:
        return kappa(p) == bijections.kappa_factored(p)

    def set_x(n: int, p: Permutation) -> bool:
        return set(dyck.valleys(kappa(p)).xs) == descent_data(p).des

    def set_y(n: int, p: Permutation) -> bool:
        return set(dyck.valleys(kappa(p)).ys) == {n - j for j in descent_data(p).ides}

    def ides_from_heights(n: int, p: Permutation) -> bool:
        hs = heights(p)
        d = descent_data(p)
        return d.ides == {n - i - hs[i - 1] for i in d.des}

    def drops_at_ascents(n: int, p: Permutation) -> str | None:
        hs = heights(p)
        asc = descent_data(p).asc
        drops = (i for i in range(1, n) if (hs[i] < hs[i - 1]) != (i in asc))
        return next((f"{p}, position {i}" for i in drops), None)

    def height_criterion(n: int, p: Permutation) -> bool:
        hs = heights(p)
        return all(b >= a - 1 for a, b in zip(hs, hs[1:])) == permutations.avoids(p, _132)

    return _run([
        (f"kappa equals reflect o complement o phi o reverse, n<={n_max}", n_max, avoiders,
         _holds(factorization)),
        (f"Set_X(kappa(w)) = Des(w) on 132-avoiders, n<={n_max}", n_max, avoiders, _holds(set_x)),
        (f"Set_Y(kappa(w)) = {{n-j : j in iDes}} on 132-avoiders, n<={n_max}", n_max, avoiders,
         _holds(set_y)),
        (f"iDes = {{n-i-h_i : i in Des}} on 132-avoiders, n<={n_max}", n_max, avoiders,
         _holds(ides_from_heights)),
        (f"h drops exactly at ascents, all permutations, n<={heights_bar}", heights_bar, _all_perms,
         drops_at_ascents),
        (f"132-avoidance iff h_(i+1) >= h_i - 1, all permutations, n<={heights_bar}", heights_bar,
         _all_perms, _holds(height_criterion)),
    ])


# ---------------------------------------------------------------------------
# inversion number vs area
# ---------------------------------------------------------------------------

def suite_inv_area(n_max: int) -> list[Check]:
    def bridge(n: int, p: Permutation) -> bool:
        image = dyck.valley_complement(bijections.phi(p))
        return dyck.area(image) == permutations.perm_stats(p).inv

    def beta_carries_inv(n: int, p: Permutation) -> bool:
        return dyck.area(bijections.beta(p)) == permutations.perm_stats(p).inv

    return _run([
        (f"inv(w) = area(complement(phi(w))) on 231-avoiders, n<={n_max}", n_max,
         _avoiders(_231, n_max), _holds(bridge)),
        (f"area(beta(w)) = inv(w) on 312-avoiders, n<={n_max}", n_max,
         _avoiders(_312, n_max), _holds(beta_carries_inv)),
    ])


# ---------------------------------------------------------------------------
# polynomial symmetry and specializations
# ---------------------------------------------------------------------------

def suite_symmetry(n_max: int) -> list[Check]:
    a = _memo(polynomials.a_poly)
    cat = _memo(polynomials.cat_qt)

    def a_via_avoiders(n: int) -> polynomials.MultiPoly:
        shift = comb(n, 2)
        return polynomials.avoider_poly(n, 231, lambda s: (0, s.maj, shift - s.imaj), max_n=n_max)

    def symmetric(p: polynomials.MultiPoly) -> bool:
        return polynomials.qt_swap(p) == p

    def specializations(n: int) -> bool:
        mac = polynomials.macmahon_q_catalan(n)
        quot = polynomials.macmahon_q_catalan_quotient(n)
        a_shift = polynomials.t_to_q_inverse_shifted(a(n), n)
        cat_shift = polynomials.t_to_q_inverse_shifted(cat(n), n)
        return mac == quot == a_shift == cat_shift

    return _run([
        _per_n(f"A_n(q,t) = A_n(t,q), n<={n_max}", n_max, lambda n: symmetric(a(n))),
        _per_n(f"Cat_n(q,t) = Cat_n(t,q), n<={n_max}", n_max, lambda n: symmetric(cat(n))),
        _per_n(f"permutation and path routes to A_n agree, n<={n_max}", n_max,
               lambda n: a(n) == a_via_avoiders(n) == polynomials.a_poly_via_paths(n, max_n=n_max)),
        _per_n(f"q^C(n,2) A_n(q,1/q) = maj q-Catalan = binomial quotient = "
               f"q^C(n,2) Cat_n(q,1/q), n<={n_max}", n_max, specializations),
        _per_n(f"Cat_n(1,1) is the Catalan number, n<={n_max}", n_max,
               lambda n: cat(n).evaluate() == _catalan(n)),
    ])


# ---------------------------------------------------------------------------
# generating-function identity
# ---------------------------------------------------------------------------

def suite_gf(n_max: int) -> list[Check]:
    def residual() -> str | None:
        res = polynomials.verify_gf_identity(n_max)
        return next((f"order {k}: {poly}" for k, poly in enumerate(res) if not poly.is_zero), None)

    return _run([_fact(f"expansion-of-1 residuals vanish through z^{n_max}", residual)])


# ---------------------------------------------------------------------------
# tristatistic identities
# ---------------------------------------------------------------------------

def _drop_a(p: polynomials.MultiPoly) -> polynomials.MultiPoly:
    """Specialize a = 1 by collapsing the a-exponent."""
    return polynomials._term_map(p, lambda _, eq, et: (0, eq, et))


def suite_tristat(n_max: int) -> list[Check]:
    @functools.cache  # two rows compare with 213; the cache goes with the suite's run
    def enumerated(n: int, pattern: int) -> polynomials.MultiPoly:
        """The complemented form by enumeration: the oracle of both sides."""
        plain = polynomials.avoider_poly(n, pattern, lambda s: (s.des, s.maj, s.imaj), max_n=n_max)
        return polynomials._complemented(plain, n)

    def agree(plain: int, complemented: int) -> Callable[[int], bool]:
        return lambda n: (polynomials.tristat_gf(n, plain) == enumerated(n, complemented)
                          == polynomials.tristat_gf(n, complemented, "complemented"))

    return _run([
        *(_per_n(f"{a}-plain equals {b}-complemented, n<={n_max}", n_max, agree(a, b))
          for a, b in ((231, 312), (132, 213), (123, 321))),
        _per_n(f"132/213 identity survives a=1, n<={n_max}", n_max,
               lambda n: _drop_a(polynomials.tristat_gf(n, 132)) == _drop_a(enumerated(n, 213))),
    ])


# ---------------------------------------------------------------------------
# RSK and the evacuation involution
# ---------------------------------------------------------------------------

def suite_rsk_j(n_max: int) -> list[Check]:
    perms_bar = min(n_max, _ALL_PERMS_MAX_N)
    rsk = _memo(tableaux.rsk)

    def roundtrip(n: int, p: Permutation) -> bool:
        return tableaux.inverse_rsk(*rsk(p)) == p

    def descent_transport(n: int, p: Permutation) -> bool:
        P, Q = rsk(p)
        d = permutations.descent_data(p)
        return tableaux.tableau_descents(Q) == d.des and tableaux.tableau_descents(P) == d.ides

    def avoidance_is_two_rows(n: int, p: Permutation) -> bool:
        return (len(rsk(p)[0].rows) <= 2) == permutations.avoids(p, _321)

    def standard(T: tableaux.StandardTableau) -> bool:
        """T passes the public constructor's checks; the stream and
        evacuation build their tableaux without them."""
        try:
            return tableaux.StandardTableau(T.rows) == T
        except ValueError:
            return False

    def evacuation(n: int, T: tableaux.StandardTableau) -> str | None:
        image = tableaux.evacuation(T)
        if not standard(T):
            return f"not a standard tableau: {T}"
        if not standard(image):
            return f"image not a standard tableau: {T}"
        if image.shape != T.shape:
            return f"shape changed: {T}"
        if tableaux.evacuation(image) != T:
            return f"not an involution: {T}"
        if {n - i for i in tableaux.tableau_descents(T)} != tableaux.tableau_descents(image):
            return f"descents wrong: {T}"
        return None

    def j_props(n: int, p: Permutation) -> str | None:
        image = tableaux.j_involution(p)
        try:  # j checks that its argument avoids 321
            if tableaux.j_involution(image) != p:
                return f"not an involution: {p}"
        except NotAvoiding321:
            return f"image leaves the class: {p}"
        d, di = permutations.descent_data(p), permutations.descent_data(image)
        if di.des != d.des or di.ides != {n - j for j in d.ides}:
            return f"descent transport wrong: {p}"
        return None

    return _run([
        (f"inverse RSK round-trips all permutations, n<={perms_bar}", perms_bar, _all_perms,
         _holds(roundtrip)),
        (f"Des(w)=Des(Q) and iDes(w)=Des(P), n<={perms_bar}", perms_bar, _all_perms,
         _holds(descent_transport)),
        (f"321-avoidance iff at most two rows, n<={perms_bar}", perms_bar, _all_perms,
         _holds(avoidance_is_two_rows)),
        ("evacuation: involution, shape, descent complement (tableaux)", perms_bar + 1,
         tableaux.standard_tableaux, evacuation),
        (f"j: involution on 321-avoiders fixing Des, reversing iDes, n<={n_max}", n_max,
         _avoiders(_321, n_max), j_props),
    ])


# ---------------------------------------------------------------------------
# shift assignments
# ---------------------------------------------------------------------------

def suite_kd(n_max: int) -> list[Check]:
    def search(n: int, exhaustive: bool) -> polynomials.KdResult:
        return polynomials.kd_search(n, all_assignments=exhaustive, max_n=n_max)

    def exists(n: int, _) -> None:
        search(n, False)

    def unique_zero() -> str | None:
        found = search(3, True).assignments
        return f"got {len(found)} assignments" if len(found) != 1 or any(found[0].values()) else None

    def two_at_four() -> str | None:
        summaries = sorted(
            ",".join(f"{D}:{k}" for D, k in sorted(a.items(), key=lambda x: str(x[0])) if k)
            for a in search(4, True).assignments
        )
        return None if summaries == ["00011101:1", "01010011:1"] else f"got {summaries}"

    def complement_swaps() -> str | None:
        a, b = dyck.parse_path("01010011"), dyck.parse_path("00011101")
        if dyck.valley_complement(a) == b and dyck.valley_complement(b) == a:
            return None
        return "complement does not swap the two special paths"

    rows = [(f"a shift assignment exists for every n<={n_max}", n_max, _size, exists)]
    if n_max >= 3:
        rows.append(_fact("n=3: the all-zero assignment is unique", unique_zero))
    if n_max >= 4:
        rows.append(_fact("n=4: exactly two assignments (k=1 on 00011101 or on 01010011)", two_at_four,
                          "k=1 on 00011101, else 0; or k=1 on 01010011, else 0"))
        rows.append(_fact("valley complement swaps 01010011 and 00011101", complement_swaps))
    return _run(rows)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# name -> (suite, default bar); the only place a default bar is written
SUITES: dict[str, tuple[Callable[..., list[Check]], int]] = {
    "phi": (suite_phi, 9),
    "lemmas": (suite_lemmas, 8),
    "kappa-factorization": (suite_kappa, 8),
    "inv-area": (suite_inv_area, 8),
    "symmetry": (suite_symmetry, 8),
    "gf-identity": (suite_gf, 6),
    "tristat": (suite_tristat, 7),
    "rsk-j": (suite_rsk_j, 7),
    "kd": (suite_kd, 8),
}


def run_suite(name: str, n_max: int | None = None, max_n: int = DEFAULT_MAX_N) -> list[Check]:
    """Run one suite (or 'all') up to ``n_max``, or to each suite's default bar.

    Unknown names, a bar that is not an integer (a bool counts as 0 or 1)
    and a bar below 1 raise ValueError; a bar above the ceiling raises
    CeilingExceeded before any check runs, for 'all' before any suite
    runs.  A suite enumerates only up to its bar, so it passes
    the bar on as the ceiling of its streams.

    >>> [c.passed for c in run_suite("inv-area", 3)]
    [True, True]
    >>> run_suite("kd", 0)
    Traceback (most recent call last):
    ...
    ValueError: size bar must be at least 1, got 0
    """
    for suite in SUITES if name == "all" else (name,):
        if suite not in SUITES:
            known = ", ".join([*SUITES, "all"])
            raise ValueError(f"unknown suite {name!r}; choose from: {known}")
        bar = SUITES[suite][1] if n_max is None else permutations._integer(n_max, "size bar")
        if bar < 1:
            raise ValueError(f"size bar must be at least 1, got {bar}")
        if bar > max_n:
            raise CeilingExceeded(bar, max_n)
    token = _perm_tables.set(_perm_tables.get({}))  # "all" shares its table with each suite
    try:
        if name == "all":
            return [check for suite in SUITES for check in run_suite(suite, n_max=n_max, max_n=max_n)]
        return SUITES[name][0](bar)
    finally:
        _perm_tables.reset(token)
