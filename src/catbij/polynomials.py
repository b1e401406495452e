"""Exact sparse polynomials in a, q, t and the package's polynomial zoo.

``MultiPoly`` stores nonzero integer coefficients keyed by exponent triples
(e_a, e_q, e_t); all arithmetic is exact.  On top of it, each polynomial of
size n has a route, an oracle the tests check the route against, and the n
up to which they check it:

- ``a_poly``            -- sum over 231-avoiders of q^maj t^(C(n,2)-imaj);
                           valley DP; oracles ``avoider_poly`` and
                           ``a_poly_via_paths`` (``path_poly``), n <= 9,
- ``cat_qt``            -- sum over Dyck paths of q^area t^bounce;
                           Garsia-Haglund recursion; oracle ``path_poly``,
                           n <= 9,
- ``macmahon_q_catalan``-- sum over Dyck paths of q^maj; valley DP; oracle
                           ``path_poly``, n <= 9, and the quotient route via
                           the q-binomial coefficient,
- ``tristat_gf``        -- a^des q^maj t^imaj over a pattern class, plainly
                           or complemented; valley DP for 231, 312, 132 and
                           213, two-row tableau DP for 123 and 321
                           (Schensted's theorem); oracle ``avoider_poly``,
                           n <= 8,
- ``verify_gf_identity``-- truncated-series residuals of the expansion of 1
                           into the bistatistic summands, whose denominators
                           are q-binomials read from the Pascal table,
- ``kd_search``         -- nonnegative per-path shifts matching the
                           (maj1, C(n,2)-maj0) bistatistic onto cat_qt, by a
                           sorted matching on each diagonal alpha - beta.

Every route raises ValueError for n < 1 (``permutations._check_size``).  The
ceiling guards enumeration only: the oracles and ``kd_search`` raise
CeilingExceeded for n > max_n, and the closed routes, which enumerate
nothing, take no ceiling.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial
from itertools import product
from math import comb
from operator import index, itemgetter
from typing import Callable, Mapping, NamedTuple

import json

from .dyck import DyckPath, _json_fields, enumerate_dyck, path_stats, paths_with_stats
from .errors import NegativeExponent, NoAssignment
from .permutations import (
    DEFAULT_MAX_N,
    PermStats,
    _check_size,
    _Frozen,
    _pattern_word,
    avoiders_with_stats,
    perm_stats,  # the oracle of the carried sums; bench/test_bench.py reads this binding
)

Exponents = tuple[int, int, int]  # (e_a, e_q, e_t)


class MultiPoly(_Frozen):
    """Sparse polynomial in a, q, t with exact integer coefficients.

    Immutable; zero coefficients are never stored; equality, hashing and
    printing use the canonical descending-lex term order on (e_a, e_q, e_t).
    Exponents and coefficients are stored as ints (bools as 0/1), others raise
    ValueError.  Copies and pickles rebuild through the checking constructor.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        clean: dict[Exponents, int] = {}
        if terms:
            for key, coef in terms.items():
                try:
                    ea, eq, et = map(index, key)
                    coef = index(coef)
                except TypeError:
                    raise ValueError(f"exponents and coefficients must be integers: {key}: {coef!r}") from None
                if ea < 0 or eq < 0 or et < 0:
                    raise NegativeExponent(f"exponents must be nonnegative: {key}")
                if coef:
                    clean[(ea, eq, et)] = coef
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _of(cls, terms: dict[Exponents, int]) -> "MultiPoly":
        """Wrap an arithmetic result, dropping zero coefficients only.

        Sums and products of valid polynomials have no negative exponent, so
        the check of ``__init__`` is skipped.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms", {k: c for k, c in terms.items() if c})
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({(0, 0, 0): 1})

    @classmethod
    def term(cls, coef: int, a: int = 0, q: int = 0, t: int = 0) -> "MultiPoly":
        return cls({(a, q, t): coef})

    # -- inspection ---------------------------------------------------

    def terms(self) -> tuple[tuple[Exponents, int], ...]:
        """Terms in canonical order: descending lex on (e_a, e_q, e_t)."""
        return tuple(sorted(self._terms.items(), reverse=True))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def evaluate(self, a: int = 1, q: int = 1, t: int = 1) -> int:
        return sum(
            c * a**ea * q**eq * t**et for (ea, eq, et), c in self._terms.items()
        )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self._terms)
        for key, coef in other._terms.items():
            out[key] = out.get(key, 0) + coef
        return MultiPoly._of(out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly._of({k: other * c for k, c in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out: dict[Exponents, int] = {}
        for (a1, q1, t1), c1 in self._terms.items():
            for (a2, q2, t2), c2 in other._terms.items():
                key = (a1 + a2, q1 + q2, t1 + t2)
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly._of(out)

    __rmul__ = __mul__

    def __hash__(self) -> int:
        # the one field, a dict, does not hash: hash its terms in canonical order
        return hash(self.terms())

    # -- text and JSON forms -------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for (ea, eq, et), coef in self.terms():
            names = []
            for name, e in (("a", ea), ("q", eq), ("t", et)):
                if e == 1:
                    names.append(name)
                elif e > 1:
                    names.append(f"{name}^{e}")
            body = "*".join(names)
            mag = abs(coef)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            sign = "-" if coef < 0 else "+"
            pieces.append((sign, text))
        first_sign, first_text = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_text
        for sign, text in pieces[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    def to_json(self) -> str:
        return json.dumps(
            {
                "terms": [
                    {"a": ea, "q": eq, "t": et, "coef": c}
                    for (ea, eq, et), c in self.terms()
                ]
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MultiPoly":
        (terms,) = _json_fields(json.loads(text), "polynomial", ("terms",), ("terms",))
        poly: dict = {}
        for term in terms:
            a, q, t, coef = _json_fields(term, "polynomial term", ("a", "q", "t", "coef"))
            key = (a, q, t)
            # JSON gives ints and bools, or other types __init__ would reject;
            # some of those (arrays, objects) cannot even be dict keys
            if not all(isinstance(x, int) for x in (*key, coef)):
                raise ValueError(f"exponents and coefficients must be integers: {key}: {coef!r}")
            if key in poly:
                raise ValueError(f"polynomial has two terms with exponents {key}")
            poly[key] = coef
        return cls(poly)


#: The three variables, for building polynomials in code and tests.
A = MultiPoly.term(1, a=1)
Q = MultiPoly.term(1, q=1)
T = MultiPoly.term(1, t=1)


# ---------------------------------------------------------------------------
# q-analogs
# ---------------------------------------------------------------------------

def _pascal(m: int) -> list[list[MultiPoly]]:
    """Rows 0..m of Gaussian binomials, rows[k][l] = [k, l]_q, by the Pascal
    recurrence [k, l] = [k-1, l-1] + q^l [k-1, l]; no rational arithmetic."""
    rows = [[MultiPoly.one()]]
    for k in range(1, m + 1):
        prev = rows[-1]
        middle = (prev[l - 1] + MultiPoly.term(1, q=l) * prev[l] for l in range(1, k))
        rows.append([MultiPoly.one(), *middle, MultiPoly.one()])
    return rows


def q_binomial(k: int, l: int) -> MultiPoly:
    """Gaussian binomial coefficient [k, l]_q, read from the Pascal table.

    >>> str(q_binomial(4, 2))
    'q^4 + q^3 + 2*q^2 + q + 1'
    """
    if not 0 <= l <= k:
        raise ValueError(f"need 0 <= l <= k, got k={k}, l={l}")
    return _pascal(k)[k][l]


# ---------------------------------------------------------------------------
# the enumerative oracles
# ---------------------------------------------------------------------------

def path_poly(
    n: int,
    key: Callable[[DyckPath], Exponents],
    max_n: int = DEFAULT_MAX_N,
) -> MultiPoly:
    """Oracle: the sum over Dyck paths D of semilength n of the monomial
    with exponents key(D).

    >>> str(path_poly(3, lambda D: (0, path_stats(D).maj, 0)))
    'q^6 + q^4 + q^3 + q^2 + 1'
    """
    return MultiPoly(Counter(map(key, enumerate_dyck(n, max_n=max_n))))


def avoider_poly(
    n: int,
    pattern,
    key: Callable[[PermStats], Exponents],
    max_n: int = DEFAULT_MAX_N,
) -> MultiPoly:
    """Oracle: the sum over the pattern-avoiders w of size n of the monomial
    with exponents key(perm_stats(w)), read from the statistics that
    ``avoiders_with_stats`` carries.

    >>> str(avoider_poly(3, 231, lambda s: (s.des, s.maj, s.imaj)))
    'a^2*q^3*t^3 + a*q^2*t^2 + a*q*t^2 + a*q*t + 1'
    """
    rows = avoiders_with_stats(n, pattern, max_n=max_n)
    return MultiPoly(Counter(key(s) for _, s in rows))


# ---------------------------------------------------------------------------
# closed routes: the valley DP and the Garsia-Haglund recursion
# ---------------------------------------------------------------------------

def _term_map(p: MultiPoly, key: Callable[[int, int, int], Exponents]) -> MultiPoly:
    """p with each term moved to key(e_a, e_q, e_t); terms that land together add."""
    out: Counter = Counter()
    for exponents, c in p._terms.items():
        out[key(*exponents)] += c
    return MultiPoly(out)


def _valley_gf(n: int) -> MultiPoly:
    """Dyck paths counted by a^valleys q^(sum of x) t^(sum of y): by ``phi``,
    the (des, maj, imaj) polynomial of the 231-avoiders.

    A transfer DP over the state (norths i, easts j, last step was east).  A
    north step right after an east step closes a valley at x = j, y = i (the
    convention of ``dyck.valleys``), so it sends the key (k, X, Y) to
    (k + 1, X + j, Y + i).
    """
    _check_size(n)
    layer = {(0, 0, False): Counter({(0, 0, 0): 1})}
    for _ in range(2 * n):
        following: defaultdict[tuple[int, int, bool], Counter] = defaultdict(Counter)
        for (i, j, east), gf in layer.items():
            if i < n:
                north = following[i + 1, j, False]
                if east:
                    for (k, x, y), c in gf.items():
                        north[k + 1, x + j, y + i] += c
                else:
                    north.update(gf)
            if j < i:
                following[i, j + 1, True].update(gf)
        layer = following
    return MultiPoly._of(layer[n, n, True])  # counts: no exponent is negative


def a_poly(n: int) -> MultiPoly:
    """Bistatistic polynomial: sum over 231-avoiders of q^maj t^(C(n,2)-imaj).

    ``phi`` carries (maj, imaj) to (sum of x, sum of y) over the valleys, so
    this is a term map of the valley DP.

    >>> str(a_poly(2))
    'q + t'
    """
    return _term_map(_valley_gf(n), lambda k, x, y: (0, x, comb(n, 2) - y))


def a_poly_via_paths(n: int, max_n: int = DEFAULT_MAX_N) -> MultiPoly:
    """Oracle for ``a_poly``: sum over Dyck paths of q^maj1 t^(C(n,2)-maj0)."""
    return path_poly(n, lambda D: (0, (s := path_stats(D)).maj1, comb(n, 2) - s.maj0), max_n)


def cat_qt(n: int) -> MultiPoly:
    """q,t-Catalan polynomial: sum over Dyck paths of q^area t^bounce.

    Computed as the sum over k of F_(n,k), where F_(0,0) = 1, F_(m,0) = 0 for
    m >= 1 and

        F_(m,k) = t^(m-k) q^C(k,2) sum_(r=0..m-k) [r+k-1, r]_q F_(m-k,r)

    (Garsia and Haglund, "A proof of the q,t-Catalan positivity conjecture",
    Discrete Math. 256, 2002).

    >>> str(cat_qt(3))
    'q^3 + q^2*t + q*t^2 + q*t + t^3'
    """
    _check_size(n)
    binomial = _pascal(n - 1)
    F = [[MultiPoly.one()]]  # F[m][k]
    for m in range(1, n + 1):
        row = [MultiPoly.zero()]
        for k in range(1, m + 1):
            inner = MultiPoly.zero()
            for r in range(m - k + 1):
                inner = inner + binomial[r + k - 1][r] * F[m - k][r]
            row.append(MultiPoly.term(1, q=comb(k, 2), t=m - k) * inner)
        F.append(row)
    return sum(F[n], MultiPoly.zero())


def macmahon_q_catalan(n: int) -> MultiPoly:
    """Major-index q-Catalan: sum over Dyck paths of q^maj, the q = t
    specialization of the valley DP.

    >>> str(macmahon_q_catalan(3))
    'q^6 + q^4 + q^3 + q^2 + 1'
    """
    return _term_map(_valley_gf(n), lambda k, x, y: (0, x + y, 0))


def macmahon_q_catalan_quotient(n: int) -> MultiPoly:
    """Independent route: the quotient q_binomial(2n, n) / [n+1]_q, computed
    without division as q_binomial(2n, n) - q * q_binomial(2n, n+1).

    The two agree because q_binomial(2n, n+1) = q_binomial(2n, n) [n]_q /
    [n+1]_q and [n+1]_q - q [n]_q = 1 (Fuerlinger and Hofbauer, "q-Catalan
    numbers", J. Combin. Theory Ser. A 40, 1985).

    >>> str(macmahon_q_catalan_quotient(3))
    'q^6 + q^4 + q^3 + q^2 + 1'
    """
    _check_size(n)
    binomial = _pascal(2 * n)[2 * n]
    return binomial[n] - Q * binomial[n + 1]


def _two_row_gf(n: int) -> MultiPoly:
    """The 321-avoiders counted by a^des q^maj t^imaj, through two-row tableaux.

    By Schensted's theorem (Schensted, "Longest increasing and decreasing
    subsequences", Canad. J. Math. 13, 1961; Stanley, *Enumerative
    Combinatorics* vol. 2, ch. 7) RSK sends the 321-avoiders onto the pairs
    (P, Q) of standard tableaux of one shape (n - k, k), with Des(w) = Des(Q)
    and iDes(w) = Des(P).  So the sum is, over k, f_k(a, q) f_k(1, t), where
    f_k counts the tableaux of that shape by a^des q^maj.

    f_k comes from a DP over ballot words, with the state (row-2 length k,
    the last letter went to row 1).  Letter p + 1 may go to row 2 while
    2k < p; after letter p in row 1 it is a descent at p, which sends the key
    (d, m) to (d + 1, m + p).
    """
    _check_size(n)
    layer = {(0, False): Counter({(0, 0): 1})}
    for p in range(n):
        following: defaultdict[tuple[int, bool], Counter] = defaultdict(Counter)
        for (k, top), gf in layer.items():
            following[k, True].update(gf)
            if 2 * k < p:
                second = following[k + 1, False]
                if top:
                    for (d, m), c in gf.items():
                        second[d + 1, m + p] += c
                else:
                    second.update(gf)
        layer = following
    out: Counter = Counter()
    for k in range(n // 2 + 1):
        gf = layer[k, True] + layer[k, False]  # f_k: the tableaux of shape (n - k, k)
        imajs: Counter = Counter()
        for (_, m), c in gf.items():
            imajs[m] += c
        for (d, x), c in gf.items():
            for y, c2 in imajs.items():
                out[d, x, y] += c * c2
    return MultiPoly._of(out)  # counts: no exponent is negative


# each length-3 class as (closed count, term map of the count's keys, with n
# first): 312-avoiders are the inverses of 231-avoiders; kappa sends
# 132-avoiders to paths with (Des, iDes) = (X, {n - y}) where phi gives
# (X, Y); 213 is the reverse-complement of 132; 123-avoiders are the reverses
# of 321-avoiders.
_ROUTES: dict[tuple[int, ...],
              tuple[Callable[[int], MultiPoly], Callable[[int, int, int, int], Exponents]]] = {
    (2, 3, 1): (_valley_gf, lambda n, k, x, y: (k, x, y)),
    (3, 1, 2): (_valley_gf, lambda n, k, x, y: (k, y, x)),
    (1, 3, 2): (_valley_gf, lambda n, k, x, y: (k, x, n * k - y)),
    (2, 1, 3): (_valley_gf, lambda n, k, x, y: (k, n * k - x, y)),
    (3, 2, 1): (_two_row_gf, lambda n, d, x, y: (d, x, y)),
    (1, 2, 3): (_two_row_gf, lambda n, d, x, y: (n - 1 - d, comb(n, 2) - n * d + x, comb(n, 2) - y)),
}


def tristat_gf(n: int, pattern, orientation: str = "plain") -> MultiPoly:
    """Generating function of (des, maj, imaj) over a pattern class.

    plain:        sum of a^des q^maj t^imaj
    complemented: sum of a^(n-1-des) q^(C(n,2)-maj) t^(C(n,2)-imaj)

    Every class is closed and enumerates nothing.  The plain form of 231,
    312, 132 and 213 is a term map of the valley DP; 321 is the two-row
    tableau DP (Schensted's theorem) and 123, its reverses, a term map of it.
    The complemented form is a term map of the plain one.
    """
    word = _pattern_word(pattern)
    try:
        count, key = _ROUTES[word]
    except KeyError:
        raise ValueError("pattern must be one of [123, 132, 213, 231, 312, 321]") from None
    if orientation not in ("plain", "complemented"):
        raise ValueError(f"unknown orientation {orientation!r}")
    plain = _term_map(count(n), partial(key, n))
    return plain if orientation == "plain" else _complemented(plain, n)


def _complemented(p: MultiPoly, n: int) -> MultiPoly:
    """Each term a^d q^x t^y becomes a^(n-1-d) q^(C(n,2)-x) t^(C(n,2)-y)."""
    shift = comb(n, 2)
    return _term_map(p, lambda d, x, y: (n - 1 - d, shift - x, shift - y))


def qt_swap(p: MultiPoly) -> MultiPoly:
    """Exchange the q- and t-exponents of every term."""
    return _term_map(p, lambda ea, eq, et: (ea, et, eq))


def t_to_q_inverse_shifted(p: MultiPoly, n: int) -> MultiPoly:
    """q^C(n,2) * p(q, q^(-1)) as an honest polynomial: each term moves its
    t-exponent onto q as e_q + C(n,2) - e_t.  Raises NegativeExponent when
    the shift is insufficient."""
    shift = comb(n, 2)

    def onto_q(ea: int, eq: int, et: int) -> Exponents:
        if eq + shift < et:
            raise NegativeExponent(f"term with exponents (a={ea}, q={eq}, t={et}) needs"
                                   f" shift {et - eq} > C({n},2) = {shift}")
        return (ea, eq + shift - et, 0)

    return _term_map(p, onto_q)


# ---------------------------------------------------------------------------
# truncated series and the expansion-of-1 identity
# ---------------------------------------------------------------------------

class TruncatedSeries(_Frozen):
    """Power series in z with MultiPoly coefficients, truncated at z^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[MultiPoly, ...]):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        try:
            object.__setattr__(self, "order", index(self.order))
        except TypeError:
            raise ValueError(f"series order must be an integer: {self.order!r}") from None
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients, got {len(self.coeffs)}"
            )

    @classmethod
    def monomial(cls, poly: MultiPoly, power: int, order: int) -> "TruncatedSeries":
        """The series poly * z^power (zero if power exceeds the order)."""
        coeffs = [MultiPoly.zero()] * (order + 1)
        if 0 <= power <= order:
            coeffs[power] = poly
        return cls(order, tuple(coeffs))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.order != other.order:
            raise ValueError("series orders differ")
        return TruncatedSeries(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.order != other.order:
            raise ValueError("series orders differ")
        out = [MultiPoly.zero()] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.order, tuple(out))


def verify_gf_identity(N: int) -> list[MultiPoly]:
    """Residuals, per order of z, of the expansion of 1 into bistatistic
    summands, with numerator a_poly:

        sum_{m >= 0} a_poly(m+1) z^m / prod_{i=1..m+1} (1+q^i z)(1+t^i z)

    truncated at z^N, minus 1.  Every residual is the zero polynomial; the
    return value lists them for orders 0..N.

    Note the index offset: the m-th summand carries a_poly(m+1), paired
    with denominator exponents up to m+1.  Each denominator is read off the
    Pascal table by the q-binomial theorem (Andrews, *The Theory of
    Partitions*, 1976, Thm 3.3):

        [z^j] prod_{i=1..m+1} 1/(1+q^i z) = (-1)^j q^j [m+j, j]_q,

    and its t-half is the q <-> t swap, so a summand costs two series products.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    binomial = _pascal(2 * N)
    total = TruncatedSeries.monomial(MultiPoly.zero(), 0, N)
    for m in range(N + 1):
        q_half = tuple(MultiPoly.term((-1) ** j, q=j) * binomial[m + j][j] for j in range(N + 1))
        t_half = tuple(map(qt_swap, q_half))
        summand = TruncatedSeries.monomial(a_poly(m + 1), m, N)
        total = total + summand * TruncatedSeries(N, q_half) * TruncatedSeries(N, t_half)
    residuals = list(total.coeffs)
    residuals[0] = residuals[0] - MultiPoly.one()
    return residuals


# ---------------------------------------------------------------------------
# shift-assignment search (bistatistic onto cat_qt)
# ---------------------------------------------------------------------------

class KdResult(NamedTuple):
    """Outcome of ``kd_search``: each assignment maps every Dyck path of
    semilength n to a nonnegative shift k so that the multiset of
    (maj1 - k, C(n,2) - maj0 - k) pairs equals the monomials of cat_qt(n).
    ``exhaustive`` tells whether ``assignments`` is the complete set."""

    n: int
    assignments: tuple[dict[DyckPath, int], ...]
    exhaustive: bool

    def to_json(self) -> str:
        """Assignments as JSON objects mapping path word to shift."""
        return json.dumps(
            {
                "n": self.n,
                "exhaustive": self.exhaustive,
                "assignments": [
                    {str(D): k for D, k in sorted(a.items(), key=lambda x: str(x[0]))}
                    for a in self.assignments
                ],
            }
        )


def _diagonals(n: int, max_n: int) -> tuple[list[DyckPath], list[tuple[list, list[int]]]]:
    """The paths in lex order and, per diagonal maj = alpha - beta + C(n,2),
    its paths as (maj1, path) sorted stably by maj1 with the ascending alphas
    of its cat_qt(n) monomial copies.  Unequal counts raise NoAssignment."""
    shift = comb(n, 2)
    rows = list(paths_with_stats(n, max_n=max_n))  # the ceiling applies before cat_qt runs
    alphas: defaultdict[int, list[int]] = defaultdict(list)
    for (_, alpha, beta), c in reversed(cat_qt(n).terms()):
        alphas[alpha - beta + shift] += [alpha] * c
    members: defaultdict[int, list[tuple[int, DyckPath]]] = defaultdict(list)
    for D, s in rows:
        members[s.maj].append((s.maj1, D))
    for d in sorted(members.keys() | alphas.keys()):
        if len(members[d]) != len(alphas[d]):
            raise NoAssignment(f"n={n}: diagonal maj={d} holds {len(members[d])} paths"
                               f" and {len(alphas[d])} target monomials")
    return [D for D, _ in rows], [(sorted(members[d], key=itemgetter(0)), alphas[d]) for d in members]


def _arrangements(members: list[tuple[int, DyckPath]], alphas: list[int]) -> list[dict[DyckPath, int]]:
    """Every distinct shift map giving each path of one diagonal an alpha <=
    its maj1.  Taken in ascending maj1, no partial map is a dead end."""
    partial = [({}, tuple(alphas))]
    for maj1, D in members:
        partial = [
            ({**shifts, D: maj1 - a}, left[:i] + left[i + 1:])
            for shifts, left in partial
            for i, a in enumerate(left)
            if a <= maj1 and (i == 0 or a != left[i - 1])
        ]
    return [shifts for shifts, _ in partial]


def kd_search(
    n: int,
    all_assignments: bool | None = None,
    max_n: int = DEFAULT_MAX_N,
) -> KdResult:
    """Find nonnegative shifts k_D aligning the (maj1, C(n,2)-maj0) pairs of
    all Dyck paths with the monomial multiset of cat_qt(n).

    A path fits a target monomial (alpha, beta) exactly when alpha - beta =
    maj - C(n,2) and alpha <= maj1, which forces its shift maj1 - alpha, so
    its fitting monomials are a prefix of its diagonal sorted by alpha.  On
    each diagonal, with as many paths as copies, the paths sorted by maj1
    are zipped with the copies sorted by alpha: by Hall's theorem on the
    nested prefixes an assignment exists iff every copy fits its path, else
    NoAssignment is raised.  The complete set (the default for n <= 5, see
    ``exhaustive``) is the product over the diagonals of their distinct
    arrangements; from n = 6 on it is too large to list, so asking for it
    there raises ValueError at once.

    >>> len(kd_search(4).assignments)
    2
    >>> kd_search(7, all_assignments=False).exhaustive
    False
    """
    if all_assignments is None:
        all_assignments = n <= 5
    if all_assignments and n > 5:
        raise ValueError(f"exhaustive kd search is limited to n <= 5, got n={n}; "
                         "pass all_assignments=False for one assignment")
    paths, diagonals = _diagonals(n, max_n)
    chosen = dict.fromkeys(paths, 0)
    for members, alphas in diagonals:
        for (maj1, D), alpha in zip(members, alphas):
            if alpha > maj1:
                raise NoAssignment(f"n={n}: no target monomial is left for path {D}")
            chosen[D] = maj1 - alpha
    if not all_assignments:
        return KdResult(n=n, assignments=(chosen,), exhaustive=False)
    found = []
    for parts in product(*(_arrangements(*diagonal) for diagonal in diagonals)):
        merged = chosen.copy()  # copies and updates reuse the stored key hashes
        for part in parts:
            merged.update(part)
        found.append(merged)
    found.sort(key=lambda a: tuple(a.values()))  # the shifts in lex order of the paths
    return KdResult(n=n, assignments=tuple(found), exhaustive=True)
