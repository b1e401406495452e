"""Permutations of {1..n} with descent statistics and pattern avoidance.

Conventions used throughout the package:

- Permutations are words in one-line notation on the values {1..n}; positions
  and values are both 1-based.
- A position ``i < n`` is a descent of ``w`` if ``w[i] > w[i+1]``; every other
  position is an ascent, and the last position ``n`` ALWAYS counts as an
  ascent.  This deviates from the common convention (where ``n`` is neither)
  and is load-bearing: every descent block is followed by an ascent.
- ``ides``/``imaj`` are the descent set / major index of the inverse.

Pattern containment has one rule for every pattern, the extension mask
``_extension(pattern, word)(used, free)``.  Given the bit masks of the
placed and the free values of a prefix of ``word`` that some avoider
extends, it holds every free value that some avoider puts next and no free
value that ends a copy of the pattern.  A length-3 pattern reads it in O(1)
from ``_EXTENSIONS``, where it holds exactly the values avoiders put next:

    123: v < min(used), or v = max(free)
    321: v > max(used), or v = min(free)
    132: v < min(used), or the least free v > min(used)
    312: v > max(used), or the greatest free v < max(used)
    231: the lowest run of consecutive free values
    213: the highest run of consecutive free values

Any other pattern keeps exactly the free values that end no copy.  A free
v ends a copy iff some head, a subsequence of the prefix order-isomorphic
to ``pattern[:-1]``, has v strictly between its ``below``-th and
``(below + 1)``-th smallest values, where ``below`` counts the letters of
``pattern[:-1]`` under ``pattern[-1]`` and 0 and n + 1 stand in for missing
neighbours; each head is tested once.  The table above holds no value this
rule bans, and drops the values that lead only to dead ends as well.
``contains`` and the avoider stream both use the mask; the naive scan
``contains_naive`` is the oracle.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from operator import attrgetter, index
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DEFAULT_MAX_N, CeilingExceeded, NotAvoiding132, NotAvoiding231, NotAvoiding312, NotAvoiding321,
)


def _integer(value: int, name: str = "n") -> int:
    """``value`` read by the integer rule: a bool counts as 0 or 1, and any
    other non-integer raises ValueError naming ``name`` and the value."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer: {value!r}") from None


def _check_size(n: int, max_n: int | None = None) -> int:
    """The size rule of every sized stream and polynomial route, applied
    before any work; returns n as an int.  n is read by the integer rule (a
    bool counts as 0 or 1, and any other non-integer raises ValueError),
    n < 1 raises ValueError and n above the ceiling max_n, when one is given,
    raises CeilingExceeded(n, max_n).  The ceiling bounds enumeration, so the
    closed routes, which enumerate nothing, give none.

    The verify suites word the rule for size bars: ``verification.run_suite``
    raises "size bar must be an integer", "size bar must be at least 1" and
    CeilingExceeded(bar, max_n).
    """
    n = _integer(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if max_n is not None and n > max_n:
        raise CeilingExceeded(n, max_n)
    return n


class _Frozen:
    """The value-type contract of the slotted value types.

    A subclass names its fields, in order, in ``__slots__``, and its
    ``__init__`` sets each one with ``object.__setattr__`` and then calls
    ``self.__post_init__()``.  This base gives equality (same class only,
    equal fields) and the hash of the field tuple, refuses assignment and
    deletion, prints ``Type(field=value, ...)`` and copies and pickles
    through the public constructor.  Every subclass stores its integer
    fields as ints: a bool becomes 0 or 1, and any other non-integer raises
    ValueError.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # built once per class: _read returns the bare value of a one-field
        # type and the field tuple of any other, _astuple always the tuple
        get = attrgetter(*cls.__slots__)
        cls._read = staticmethod(get)
        cls._astuple = staticmethod(get if len(cls.__slots__) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._read(self) == self._read(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple(self)


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

    @classmethod
    def _of(cls, word: tuple[int, ...]) -> "Permutation":
        """Wrap a tuple of ints that is a permutation of 1..n by
        construction, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "word", word)
        return p

    def __post_init__(self):
        try:
            word = tuple(map(index, self.word))
        except TypeError:
            raise ValueError(f"permutation entries must be integers: {self.word!r}") from None
        object.__setattr__(self, "word", word)
        n = len(word)
        if n < 1:
            raise ValueError("permutation must have length at least 1")
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {list(word)}")

    @property
    def n(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return str(list(self.word)).replace(" ", "")

    def __iter__(self):
        return iter(self.word)


def identity(n: int) -> Permutation:
    """The identity of S_n; n follows the size rule of ``_check_size``."""
    return Permutation(tuple(range(1, _check_size(n) + 1)))


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
    """Des of a word by a plain scan; the oracle of ``descent_data``."""
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
    return Permutation._of(_inverse_word(p.word))


def reverse(p: Permutation) -> Permutation:
    """The reversal involution [w_1,...,w_n] -> [w_n,...,w_1]."""
    return Permutation._of(p.word[::-1])


#: the bound of the mask-to-set table: every mask of the bits 1..12, the
#: default ceiling, fits, and longer words evict the least recently used sets
_MASK_SETS = 1 << 13


@lru_cache(maxsize=_MASK_SETS)
def _mask_set(mask: int) -> frozenset[int]:
    """The set of the bits of ``mask``; each set is built once and shared."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _descent_masks(word: Sequence[int]) -> tuple[int, int]:
    """Des and iDes of a permutation word as bit masks, in one pass."""
    des = ides = seen = prev = 0
    for i, v in enumerate(word):
        if v < prev:
            des |= 1 << i
        prev = v
        if seen >> v & 2:  # v + 1 came before v: v is a descent of the inverse
            ides |= 1 << v
        seen |= 1 << v
    return des, ides


def descent_data(p: Permutation) -> DescentData:
    """All four descent/ascent sets, with n counted as an ascent.

    The sets come from one table keyed by bit mask, so they are shared and
    immutable: two calls may return the same frozenset objects.

    >>> d = descent_data(Permutation((6, 2, 1, 5, 4, 3)))
    >>> sorted(d.des), sorted(d.ides)
    ([1, 2, 4, 5], [1, 3, 4, 5])
    """
    w = p.word
    des, ides = _descent_masks(w)
    full = (2 << len(w)) - 2
    return tuple.__new__(DescentData, (_mask_set(des), _mask_set(full ^ des),
                                       _mask_set(ides), _mask_set(full ^ ides)))


def perm_stats(p: Permutation) -> PermStats:
    """Descent counts and major indices read off the sets of
    ``descent_data``, and the inversion number in one pass.

    >>> perm_stats(Permutation((6, 2, 1, 5, 4, 3)))
    PermStats(des=4, asc=2, maj=12, imaj=13, inv=9)
    """
    d = descent_data(p)
    inv = seen = 0
    for v in p.word:
        inv += (seen >> v).bit_count()  # the values above v that came earlier
        seen |= 1 << v
    return PermStats(des=len(d.des), asc=len(d.asc), maj=sum(d.des), imaj=sum(d.ides), inv=inv)


# ---------------------------------------------------------------------------
# pattern containment
# ---------------------------------------------------------------------------

def _pattern_word(pattern) -> tuple[int, ...]:
    """The word of a pattern given as a Permutation, a sequence of values, or
    its digits as an int or a string: 231, "231" and (2, 3, 1) give (2, 3, 1)."""
    if isinstance(pattern, Permutation):
        return pattern.word
    word = pattern
    if isinstance(pattern, (int, str)):
        if not ((text := str(pattern)).isascii() and text.isdigit()):
            raise ValueError(f"pattern must be digits like 231, got {pattern!r}")
        word = map(int, text)
    try:
        return Permutation(tuple(word)).word
    except ValueError:
        raise ValueError(f"pattern must be a permutation like 231, got {pattern!r}") from None


def _ext_132(used: int, free: int) -> int:
    below = free & ((used & -used) - 1)
    above = free ^ below
    return below | above & -above


def _ext_312(used: int, free: int) -> int:
    above = free & -(1 << used.bit_length())
    below = free ^ above
    return above | 1 << below.bit_length() >> 1


#: the extension masks of the module docstring
_EXTENSIONS = {
    (1, 2, 3): lambda used, free: free & ((used & -used) - 1) | 1 << free.bit_length() >> 1,
    (3, 2, 1): lambda used, free: free & -(1 << used.bit_length()) | free & -free,
    (1, 3, 2): _ext_132,
    (3, 1, 2): _ext_312,
    (2, 3, 1): lambda used, free: free & ~(free + (free & -free)),
    (2, 1, 3): lambda used, free: free & -(1 << (used & (1 << free.bit_length() >> 1) - 1).bit_length()),
}


def _extension(pat: tuple[int, ...], word: Sequence[int]) -> Callable[[int, int], int]:
    """The module docstring's extension mask for the pattern word ``pat``,
    as a function of (used, free): ``used`` marks the first
    ``used.bit_count()`` letters of ``word`` and ``free`` the values not
    among them.

    A length-3 pattern reads its ``_EXTENSIONS`` entry.  Any other tests
    each head, a subsequence of the prefix as long as ``pat[:-1]``, once: a
    head with the shape of ``pat[:-1]`` bans the free values strictly
    between its ``below``-th and ``(below + 1)``-th smallest values, where
    ``below`` counts the letters of ``pat[:-1]`` under ``pat[-1]`` and 0
    and the top value n + 1 stand in for the missing neighbours.  ``word``
    is read at each call, so a list may grow between calls.
    """
    extend = _EXTENSIONS.get(pat)
    if extend is not None:
        return extend
    head = pat[:-1]
    rank = sorted(range(len(head)), key=head.__getitem__)  # head's places, by value
    below = sum(x < pat[-1] for x in head)

    def scan(used: int, free: int) -> int:
        top = (used | free).bit_length()
        banned = 0
        for letters in itertools.combinations(word[:used.bit_count()], len(head)):
            values = sorted(letters)
            if values == [*map(letters.__getitem__, rank)]:  # the shape of pat[:-1]
                values = [0, *values, top]
                banned |= (1 << values[below + 1]) - (2 << values[below])
        return free & ~banned

    return scan


def _word(p: Permutation | Sequence[int]) -> tuple[int, ...]:
    """The word of a Permutation as it is; any other input's entries as
    ints (a bool becomes 0 or 1), which must be distinct.  Any other input
    raises ValueError naming it."""
    if isinstance(p, Permutation):
        return p.word
    try:
        word = tuple(map(index, p))
        if len(set(word)) == len(word):
            return word
    except TypeError:
        pass
    raise ValueError(f"word must be distinct integers, got {p!r}")


def contains_naive(p: Permutation | Sequence[int], pattern) -> bool:
    """Oracle: scan all length-k subsequences for an order-isomorphic copy."""
    word = _word(p)
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

    The word is read in one pass: it avoids the pattern iff every value lies
    in the extension mask of the values before it.  The values may be any
    distinct integers: a Permutation's word is read as it is, and other
    values outside 1..n are first replaced by their ranks.
    """
    word = _word(p)
    pat = _pattern_word(pattern)
    if not isinstance(p, Permutation) and word and (min(word) < 1 or max(word) > len(word)):
        rank = {x: r for r, x in enumerate(sorted(word), start=1)}
        word = [rank[x] for x in word]
    extend = _extension(pat, word)
    used, free = 0, (2 << len(word)) - 2
    for v in word:
        bit = 1 << v
        if not extend(used, free) & bit:
            return True
        used |= bit
        free ^= bit
    return False


def avoids(p: Permutation | Sequence[int], pattern) -> bool:
    """True iff p contains no copy of the pattern.

    >>> avoids(Permutation((6, 2, 1, 5, 4, 3)), (2, 3, 1))
    True
    >>> avoids(Permutation((2, 3, 1)), (2, 3, 1))
    False
    """
    return not contains(p, pattern)


#: the pattern of each violation the maps raise, parsed once
_VIOLATION_PATTERNS = {violation: Permutation(violation.pattern)
                       for violation in (NotAvoiding132, NotAvoiding231, NotAvoiding312, NotAvoiding321)}


def _require_avoids(p: Permutation, violation: type) -> None:
    """Raise violation(p.word) if p contains violation.pattern."""
    if not avoids(p, _VIOLATION_PATTERNS[violation]):
        raise violation(p.word)


def _avoider_rows(
    n: int,
    pattern,
    max_n: int = DEFAULT_MAX_N,
) -> Iterator[tuple[tuple[int, ...], tuple[int, int, int, int]]]:
    """The avoider walk: every pattern-avoiding permutation of {1..n} in lex
    order, as its word with its (des, maj, imaj, inv).  The words are
    permutations by construction and are not checked; the public streams
    and the CLI's ``enumerate avoiders`` are projections of these rows.

    Depth-first generation over avoiding prefixes, each extended only by the
    values that complete no occurrence; containment is monotone under
    extension, so the stream is exhaustive and duplicate-free.  The walk is a
    loop: position k resumes after ``tried[k]``, the last value tried there,
    and a position with no value left backtracks.

    ``masks[k]`` is the extension mask of the first k values (see
    ``_extension``): the walk tries no value that ends a copy, and for a
    length-3 pattern no branch dies.  At depth n - 1 the one free value
    ends an avoider iff ``masks[n - 1]`` holds it, as a length-3 mask
    always does.  A bad pattern is reported before a bad size, both at the
    call and not at the first ``next()``.

    ``sums[k]`` holds (des, maj, imaj, inv) of the first k values, so a row's
    statistics cost one step from its parent prefix, taken as in
    ``perm_stats`` (the oracle), and not a pass over the word.
    """
    pat = _pattern_word(pattern)
    n = _check_size(n, max_n)

    def walk() -> Iterator[tuple[tuple[int, ...], tuple[int, int, int, int]]]:
        prefix: list[int] = []
        extend = _extension(pat, prefix)
        full = free = (2 << n) - 2
        masks = [extend(0, full)] * n
        tried = [0] * n
        sums = [(0, 0, 0, 0)] * n
        while True:
            k = len(prefix)
            rest = masks[k] & -(2 << tried[k])
            if rest:
                bit = rest & -rest
                v = bit.bit_length() - 1
                des, maj, imaj, inv = sums[k]
                if k and v < prefix[-1]:
                    des += 1
                    maj += k
                used = full ^ free
                above = used >> v  # bit j set iff v + j came earlier
                if above & 2:
                    imaj += v
                inv += above.bit_count()
                if k < n - 1:
                    sums[k + 1] = (des, maj, imaj, inv)
                    tried[k] = v
                    prefix.append(v)
                    free ^= bit
                    masks[k + 1] = extend(used | bit, free)
                    continue
                # v is the one free value, and it ends no copy
                yield (*prefix, v), (des, maj, imaj, inv)
            if not prefix:
                return
            tried[k] = 0
            free |= 1 << prefix.pop()

    return walk()


def _avoider_stats(
    n: int,
    pattern,
    max_n: int = DEFAULT_MAX_N,
) -> Iterator[tuple[tuple[int, ...], PermStats]]:
    """The rows of ``_avoider_rows`` with their sums as ``PermStats``."""
    new = tuple.__new__  # builds PermStats without its keyword-parsing __new__
    return ((w, new(PermStats, (des, len(w) - des, maj, imaj, inv)))
            for w, (des, maj, imaj, inv) in _avoider_rows(n, pattern, max_n))


def avoiders_with_stats(
    n: int,
    pattern,
    max_n: int = DEFAULT_MAX_N,
) -> Iterator[tuple[Permutation, PermStats]]:
    """Stream all pattern-avoiding permutations of {1..n} in lex order, each
    built by the checking constructor, with its ``perm_stats`` carried by
    the walk.  A bad pattern or size raises here, not at the first
    ``next()``.

    >>> [(str(p), s.inv) for p, s in avoiders_with_stats(3, 231)][-2:]
    [('[3,1,2]', 2), ('[3,2,1]', 3)]
    """
    return ((Permutation(w), s) for w, s in _avoider_stats(n, pattern, max_n))


def enumerate_avoiders(
    n: int,
    pattern,
    max_n: int = DEFAULT_MAX_N,
) -> Iterator[Permutation]:
    """Every pattern-avoiding permutation of {1..n} in lex order, each built
    by the checking constructor.  A bad pattern or size raises here, not at
    the first ``next()``.

    >>> [str(p) for p in enumerate_avoiders(3, 231)]
    ['[1,2,3]', '[1,3,2]', '[2,1,3]', '[3,1,2]', '[3,2,1]']
    """
    return (Permutation(w) for w, _ in _avoider_rows(n, pattern, max_n))


# ---------------------------------------------------------------------------
# 231-avoiders: descent-block geometry and reconstruction
# ---------------------------------------------------------------------------

def descent_run_before(p: Permutation, j: int) -> int:
    """Length of the maximal descent run immediately left of the ascent j.

    Equals ``j - 1 - j'`` where ``j'`` is the previous ascent (0 if none).

    >>> descent_run_before(Permutation((6, 2, 1, 5, 4, 3)), 3)
    2
    """
    w, j = p.word, _integer(j, "j")
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

    Raises ValueError when n < 1 or no 231-avoider has this descent data,
    i.e. when the sets have different sizes or fail the sorted elementwise
    condition des[l] <= ides[l].  The ascents and the descents take disjoint
    values that cover 1..n, so the word is a permutation by construction and
    is built unchecked; the two descent sets are asserted.

    >>> reconstruct_231(6, {1, 2, 4, 5}, {1, 3, 4, 5}).word
    (6, 2, 1, 5, 4, 3)
    """
    n = _check_size(n)
    des_sorted = sorted({_integer(i, "descent position") for i in des})
    ides_sorted = sorted({_integer(i, "descent position") for i in ides})
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

    result = Permutation._of(tuple(word[1:]))
    des_mask, ides_mask = _descent_masks(result.word)
    assert _mask_set(des_mask) == set(des_sorted)
    assert _mask_set(ides_mask) == set(ides_sorted)
    return result
