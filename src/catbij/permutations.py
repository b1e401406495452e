"""Permutations of {1..n} with descent statistics and pattern avoidance.

Conventions used throughout the package:

- Permutations are words in one-line notation on the values {1..n}; positions
  and values are both 1-based.
- A position ``i < n`` is a descent of ``w`` if ``w[i] > w[i+1]``; every other
  position is an ascent, and the last position ``n`` ALWAYS counts as an
  ascent.  This deviates from the common convention (where ``n`` is neither)
  and is load-bearing: every descent block is followed by an ascent.
- ``ides``/``imaj`` are the descent set / major index of the inverse.

Pattern containment has one test for the six patterns of length 3, the ban
mask ``_bans``: appending v bans the later values u that would close an
occurrence (x, v, u) with an earlier x, one interval read in O(1) from the
bit mask of the earlier values.  ``contains`` and the avoider stream both use
it; the naive subsequence scan ``contains_naive`` works for any pattern
length and remains the oracle.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CeilingExceeded

#: Default ceiling for exhaustive enumeration (Cat_12 = 208012 objects).
DEFAULT_MAX_N = 12


def _check_size(n: int, max_n: int | None = None) -> None:
    """The size rule of every sized stream and closed route, applied before
    any work: n < 1 raises ValueError and n above the ceiling max_n, when
    one is given, raises CeilingExceeded(n, max_n).

    The verify suites keep their own rule, worded for size bars:
    ``verification.run_suite`` raises "size bar must be at least 1" and
    CeilingExceeded(max_n + 1, max_n), because the stderr of ``catbij
    verify`` is fixed output.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if max_n is not None and n > max_n:
        raise CeilingExceeded(n, max_n)


class _Frozen:
    """The cold methods of the slotted value types.

    A subclass names its fields, in order, in ``__slots__``; its
    ``__init__`` sets each one with ``object.__setattr__`` and then calls
    ``self.__post_init__()``, and it writes out its own ``__eq__`` (same
    class only) and ``__hash__`` (the hash of the field tuple).  This base
    refuses assignment and deletion, prints ``Type(field=value, ...)`` and
    copies and pickles through the public constructor.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Permutation(_Frozen):
    """An immutable permutation of {1..n} in one-line notation.

    >>> Permutation((2, 1, 3)).n
    3
    >>> str(Permutation((6, 2, 1, 5, 4, 3)))
    '[6,2,1,5,4,3]'
    """

    __slots__ = ("word",)

    def __init__(self, word: tuple[int, ...]):
        object.__setattr__(self, "word", word)
        self.__post_init__()

    def __post_init__(self):
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        n = len(word)
        if n < 1:
            raise ValueError("permutation must have length at least 1")
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {list(word)}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.word == other.word
        return NotImplemented

    def __hash__(self):
        return hash((self.word,))

    @property
    def n(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.word)) + "]"

    def __iter__(self):
        return iter(self.word)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, with or without the square brackets.

    >>> parse_permutation("[6,2,1,5,4,3]").word
    (6, 2, 1, 5, 4, 3)
    >>> parse_permutation("2, 1") == Permutation((2, 1))
    True
    """
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    try:
        word = tuple(int(part) for part in body.split(","))
    except ValueError:
        raise ValueError(f"cannot parse permutation from {text!r}") from None
    return Permutation(word)


class DescentData(NamedTuple):
    """The four descent/ascent sets of a permutation.

    ``asc`` and ``iasc`` always contain ``n`` (see module docstring).
    """

    des: frozenset[int]
    asc: frozenset[int]
    ides: frozenset[int]
    iasc: frozenset[int]


class PermStats(NamedTuple):
    des: int
    asc: int
    maj: int
    imaj: int
    inv: int


def _descents(word: Sequence[int]) -> frozenset[int]:
    return frozenset(i for i in range(1, len(word)) if word[i - 1] > word[i])


def _inverse_word(word: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(word)
    for i, v in enumerate(word, start=1):
        inv[v - 1] = i
    return tuple(inv)


def inverse(p: Permutation) -> Permutation:
    """The group inverse: value v sits at position p^-1(v).

    >>> inverse(Permutation((2, 3, 1))).word
    (3, 1, 2)
    """
    return Permutation(_inverse_word(p.word))


def reverse(p: Permutation) -> Permutation:
    """The reversal involution [w_1,...,w_n] -> [w_n,...,w_1]."""
    return Permutation(p.word[::-1])


def descent_data(p: Permutation) -> DescentData:
    """All four descent/ascent sets, with n counted as an ascent.

    >>> d = descent_data(Permutation((6, 2, 1, 5, 4, 3)))
    >>> sorted(d.des), sorted(d.ides)
    ([1, 2, 4, 5], [1, 3, 4, 5])
    """
    n = p.n
    des = _descents(p.word)
    ides = _descents(_inverse_word(p.word))
    full = frozenset(range(1, n))
    asc = (full - des) | {n}
    iasc = (full - ides) | {n}
    return DescentData(des=des, asc=asc, ides=ides, iasc=iasc)


def perm_stats(p: Permutation) -> PermStats:
    """Descent counts, major indices and the inversion number, in one pass.

    >>> perm_stats(Permutation((6, 2, 1, 5, 4, 3)))
    PermStats(des=4, asc=2, maj=12, imaj=13, inv=9)
    """
    w = p.word
    des = maj = imaj = inv = seen = prev = 0
    for i, v in enumerate(w):
        if v < prev:
            des += 1
            maj += i
        prev = v
        above = seen >> v  # bit j set iff v + j came earlier
        inv += above.bit_count()
        if above & 2:  # v + 1 came before v: v is a descent of the inverse
            imaj += v
        seen |= 1 << v
    return PermStats(des=des, asc=len(w) - des, maj=maj, imaj=imaj, inv=inv)


# ---------------------------------------------------------------------------
# pattern containment
# ---------------------------------------------------------------------------

def _pattern_word(pattern) -> tuple[int, ...]:
    """The word of a pattern given as a Permutation, a sequence of values, or
    its digits as an int or a string: 231, "231" and (2, 3, 1) give (2, 3, 1)."""
    word = pattern
    if isinstance(pattern, (int, str)):
        if not ((text := str(pattern)).isascii() and text.isdigit()):
            raise ValueError(f"pattern must be digits like 231, got {pattern!r}")
        word = map(int, text)
    try:
        return Permutation(tuple(word)).word
    except ValueError:
        raise ValueError(f"pattern must be a permutation like 231, got {pattern!r}") from None


def _bans(pattern: tuple[int, ...], used: int, v: int) -> int:
    """The values banned after v by the length-3 pattern (a, b, c).

    ``used`` has bit x set for each value x placed before v.  The result has
    bit u set iff some earlier x makes (x, v, u) an occurrence; it is one
    interval, and negative when it is unbounded above:

    123: u > v if some x < v      321: u < v if some x > v
    132: min(x < v) < u < v       312: v < u < max(x > v)
    231: u < max(x < v)           213: u > min(x > v)

    >>> bin(_bans((2, 3, 1), 0b0100, 5)), _bans((2, 3, 1), 0b1000, 2)
    ('0b10', 0)
    """
    a, b, c = pattern
    if a < b:
        below = used & ((1 << v) - 1)
        if not below:
            return 0
        if c > b:
            return -(2 << v)
        if c > a:
            return (1 << v) - ((below & -below) << 1)
        return (1 << (below.bit_length() - 1)) - 2
    above = used >> (v + 1)
    if not above:
        return 0
    if c < b:
        return (1 << v) - 2
    if c < a:
        return (1 << (used.bit_length() - 1)) - (2 << v)
    return -((above & -above) << (v + 2))


def contains_naive(p: Permutation | Sequence[int], pattern) -> bool:
    """Oracle: scan all length-k subsequences for an order-isomorphic copy."""
    word = p.word if isinstance(p, Permutation) else tuple(p)
    pat = _pattern_word(pattern)
    k = len(pat)
    if k > len(word):
        return False
    rank = tuple(sorted(range(k), key=lambda i: pat[i]))
    for sub in itertools.combinations(word, k):
        # sub matches pat iff sorting sub's positions by value gives rank
        if tuple(sorted(range(k), key=lambda i: sub[i])) == rank:
            return True
    return False


def contains(p: Permutation | Sequence[int], pattern) -> bool:
    """True iff some subsequence of p is order-isomorphic to the pattern.

    A length-3 pattern is found in one pass: the word contains it iff some
    value arrives already banned by an earlier one.  The values may be any
    distinct integers; values outside 1..n are first replaced by their
    ranks.  Longer patterns use the naive scan.
    """
    word = p.word if isinstance(p, Permutation) else tuple(p)
    pat = _pattern_word(pattern)
    if len(pat) != 3:
        return contains_naive(word, pat)
    if word and (min(word) < 1 or max(word) > len(word)):
        rank = {x: r for r, x in enumerate(sorted(word), start=1)}
        word = [rank[x] for x in word]
    used = banned = 0
    for v in word:
        if banned >> v & 1:
            return True
        banned |= _bans(pat, used, v)
        used |= 1 << v
    return False


def avoids(p: Permutation | Sequence[int], pattern) -> bool:
    """True iff p contains no copy of the pattern.

    >>> avoids(Permutation((6, 2, 1, 5, 4, 3)), (2, 3, 1))
    True
    >>> avoids(Permutation((2, 3, 1)), (2, 3, 1))
    False
    """
    return not contains(p, pattern)


def _require_avoids(p: Permutation, violation: type) -> None:
    """Raise violation(p.word) if p contains violation.pattern."""
    if not avoids(p, violation.pattern):
        raise violation(p.word)


def enumerate_avoiders(
    n: int,
    pattern,
    max_n: int = DEFAULT_MAX_N,
) -> Iterator[Permutation]:
    """Stream all pattern-avoiding permutations of {1..n} in lex order.

    Depth-first generation over avoiding prefixes, each extended only by the
    values that complete no occurrence; containment is monotone under
    extension, so the stream is exhaustive and duplicate-free.  The walk is a
    loop: position k resumes after ``tried[k]``, the last value tried there,
    and a position with no value left backtracks.

    For a length-3 pattern ``banned[k]`` is the union of the bans of the
    first k values.  Bans only grow, so a prefix that bans a still-free value
    has no avoiding completion: pruning it is exact, and it keeps every free
    value unbanned, so each candidate costs one mask test and the last free
    value is yielded at depth n - 1 without a test.  Other patterns
    test v only against the copies it would end, as the prefix avoids: the
    shorter subsequences of the prefix followed by v.  A bad pattern is
    reported before a bad size.
    """
    pat = _pattern_word(pattern)
    _check_size(n, max_n)
    masked = len(pat) == 3
    places = range(len(pat))
    rank = tuple(sorted(places, key=pat.__getitem__))
    leaf = n - 1 if masked else n  # the depth at which the walk yields

    def walk() -> Iterator[Permutation]:
        prefix: list[int] = []
        full = free = (2 << n) - 2
        banned = [0] * (n + 1)
        tried = [0] * (n + 1)
        while True:
            k = len(prefix)
            if k < leaf:
                rest = free & -(2 << tried[k])
            else:
                # a masked walk appends the one free value, unbanned
                yield Permutation((*prefix, free.bit_length() - 1) if masked else tuple(prefix))
                rest = 0
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                if masked:
                    ban = banned[k] | _bans(pat, full ^ free, v)
                    if not ban & (free ^ bit):
                        break
                elif not any(tuple(sorted(places, key=(*head, v).__getitem__)) == rank
                             for head in itertools.combinations(prefix, len(pat) - 1)):
                    ban = 0
                    break
            else:
                if not prefix:
                    return
                tried[k] = 0
                free |= 1 << prefix.pop()
                continue
            tried[k] = v
            banned[k + 1] = ban
            prefix.append(v)
            free ^= bit

    return walk()


# ---------------------------------------------------------------------------
# 231-avoiders: descent-block geometry and reconstruction
# ---------------------------------------------------------------------------

def descent_run_before(p: Permutation, j: int) -> int:
    """Length of the maximal descent run immediately left of the ascent j.

    Equals ``j - 1 - j'`` where ``j'`` is the previous ascent (0 if none).

    >>> descent_run_before(Permutation((6, 2, 1, 5, 4, 3)), 3)
    2
    """
    w = p.word
    if not (0 < j < len(w) and w[j - 1] < w[j] or j == len(w)):
        raise ValueError(f"position {j} is not an ascent of {p}")
    prev = j - 1
    while prev and w[prev - 1] > w[prev]:
        prev -= 1
    return j - 1 - prev


def reconstruct_231(n: int, des: Iterable[int], ides: Iterable[int]) -> Permutation:
    """Rebuild the unique 231-avoider with the given descent sets.

    The values placed on descents are forced to {i+1 : i in ides}; the
    remaining values go to the ascents in increasing order; then each descent,
    scanned right to left, takes the smallest still-unused value exceeding its
    right neighbour.

    Raises ValueError when no 231-avoider has this descent data, i.e. when
    the sets have different sizes or fail the sorted elementwise condition
    des[l] <= ides[l].

    >>> reconstruct_231(6, {1, 2, 4, 5}, {1, 3, 4, 5}).word
    (6, 2, 1, 5, 4, 3)
    """
    des_sorted = sorted(set(des))
    ides_sorted = sorted(set(ides))
    if len(des_sorted) != len(ides_sorted):
        raise ValueError(
            f"descent sets have different sizes: {des_sorted} vs {ides_sorted}"
        )
    if any(i < 1 or i > n - 1 for i in des_sorted + ides_sorted):
        raise ValueError("descent positions must lie in 1..n-1")
    if any(i > i_ for i, i_ in zip(des_sorted, ides_sorted)):
        raise ValueError(
            f"no 231-avoider: need des[l] <= ides[l] elementwise, "
            f"got {des_sorted} vs {ides_sorted}"
        )

    word = [0] * (n + 1)  # 1-based
    descent_values = {i + 1 for i in ides_sorted}
    ascent_values = sorted(set(range(1, n + 1)) - descent_values)
    ascents = sorted(set(range(1, n + 1)) - set(des_sorted))
    for pos, val in zip(ascents, ascent_values):
        word[pos] = val

    unused = sorted(descent_values)
    for pos in reversed(des_sorted):
        right = word[pos + 1]
        picks = [v for v in unused if v > right]
        # The elementwise condition guarantees a pick exists; running dry
        # would be an implementation bug, not bad input.
        assert picks, (n, des_sorted, ides_sorted)
        unused.remove(picks[0])
        word[pos] = picks[0]

    result = Permutation(tuple(word[1:]))
    assert _descents(result.word) == set(des_sorted)
    assert _descents(_inverse_word(result.word)) == set(ides_sorted)
    return result
