"""Dyck paths and their statistics.

A Dyck path of semilength n is a word of n 0's (north steps) and n 1's (east
steps) in which every prefix has at least as many 0's as 1's; drawn as a
lattice path from (0,0) to (n,n) it stays weakly above the diagonal.
Positions are 1-based.

A descent of the path is a position i with steps (1, 0) at (i, i+1) — a
valley of the lattice path.  The valley's coordinates are those of the
lattice point right after its east step, and the x- and y-coordinate sets
determine the path (``valleys`` / ``from_valleys`` below).
"""
from __future__ import annotations

import json
from operator import add, ge, gt, index
from typing import Iterator, NamedTuple

from .errors import DEFAULT_MAX_N, NonBinaryCharacter, PrefixViolation, UnbalancedCounts
from .permutations import _check_size, _Frozen

NORTH = 0
EAST = 1
_LETTERS = bytes.maketrans(b"\0\1", b"01")  # step value -> its digit


class DyckPath(_Frozen):
    """An immutable Dyck path; ``steps`` holds 0 = north, 1 = east.

    >>> DyckPath((0, 1, 0, 1)).n
    2
    >>> str(DyckPath((0, 0, 1, 1)))
    '0011'
    """

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[int, ...]):
        object.__setattr__(self, "steps", steps)
        self.__post_init__()

    @classmethod
    def _of(cls, steps: tuple[int, ...]) -> "DyckPath":
        """Wrap int 0/1 steps, a Dyck word by construction, unchecked."""
        path = object.__new__(cls)
        object.__setattr__(path, "steps", steps)
        return path

    def __post_init__(self):
        steps = tuple(self.steps)
        try:
            # stores bools and other int-likes as plain ints; floats,
            # strings and ints outside 0..255 raise here
            word = bytes(steps)
        except (TypeError, ValueError):
            raise NonBinaryCharacter(f"steps must be 0 or 1: {steps}") from None
        object.__setattr__(self, "steps", tuple(word))
        zeros = word.count(NORTH)
        ones = word.count(EAST)
        if zeros + ones != len(word):
            raise NonBinaryCharacter(f"steps must be 0 or 1: {steps}")
        if not word:
            raise UnbalancedCounts("empty step word")
        if zeros != ones:
            raise UnbalancedCounts(f"{zeros} north vs {ones} east steps")
        height = 0
        for i, s in enumerate(word, start=1):
            if s == NORTH:
                height += 1
            elif height:
                height -= 1
            else:
                raise PrefixViolation(f"prefix of length {i} dips below the diagonal")

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    def __str__(self) -> str:
        return bytes(self.steps).translate(_LETTERS).decode()


def parse_path(text: str) -> DyckPath:
    """Parse a 0/1 word; blanks are allowed as visual grouping and ignored.

    >>> parse_path("01 001 011 01 01").n
    6
    """
    cleaned = []
    for ch in text:
        if ch in " \t":
            continue
        if ch not in "01":
            raise NonBinaryCharacter(f"unexpected character {ch!r} in path text")
        cleaned.append(int(ch))
    return DyckPath(tuple(cleaned))


class PathStats(NamedTuple):
    des: frozenset[int]
    maj: int
    maj0: int
    maj1: int


def path_stats(D: DyckPath) -> PathStats:
    """Descent positions, their sum, and the per-letter prefix-count splits.

    Each valley (x, y) of ``valleys`` is the descent at x + y, with x 1's and
    y 0's among the letters before it, so maj1 = sum(x) and maj0 = sum(y).
    """
    v = valleys(D)
    maj0, maj1 = sum(v.ys), sum(v.xs)
    return PathStats(frozenset(map(add, v.xs, v.ys)), maj0 + maj1, maj0, maj1)


class ValleySet(_Frozen):
    """The x- and y-coordinates of a path's valleys, strictly increasing.

    The invariants (equal lengths, entries in 1..n-1, elementwise
    xs[l] <= ys[l]) characterize the valley sets of Dyck paths of
    semilength n, so ``from_valleys`` is total on valid instances.  All
    fields are stored as ints (bools as 0/1), others raise ValueError.
    """

    __slots__ = ("n", "xs", "ys")

    def __init__(self, n: int, xs: tuple[int, ...], ys: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        self.__post_init__()

    @classmethod
    def _of(cls, n: int, xs: tuple[int, ...], ys: tuple[int, ...]) -> "ValleySet":
        """Wrap int coordinates that meet the invariants by construction,
        unchecked."""
        v = object.__new__(cls)
        object.__setattr__(v, "n", n)
        object.__setattr__(v, "xs", xs)
        object.__setattr__(v, "ys", ys)
        return v

    def __post_init__(self):
        n, xs, ys = self.n, tuple(self.xs), tuple(self.ys)
        try:
            n, xs, ys = index(n), tuple(map(index, xs)), tuple(map(index, ys))
        except TypeError:
            raise ValueError(f"n and coordinates must be integers: n={n!r}, xs={xs}, ys={ys}") from None
        for name, value in (("n", n), ("xs", xs), ("ys", ys)):
            object.__setattr__(self, name, value)
        if n < 1:
            raise ValueError("semilength must be at least 1")
        if len(xs) != len(ys):
            raise ValueError(f"|xs| != |ys|: {xs} vs {ys}")
        for seq in (xs, ys):
            if seq and (min(seq) < 1 or max(seq) > n - 1):
                raise ValueError(f"coordinates must lie in 1..{n - 1}: {seq}")
            if any(map(ge, seq, seq[1:])):
                raise ValueError(f"coordinates must strictly increase: {seq}")
        if any(map(gt, xs, ys)):
            raise ValueError(f"need xs[l] <= ys[l] elementwise (path above diagonal): {xs} vs {ys}")

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "xs": list(self.xs), "ys": list(self.ys)})

    @classmethod
    def from_json(cls, text: str) -> "ValleySet":
        n, xs, ys = _json_fields(json.loads(text), "valley set", ("n", "xs", "ys"), ("xs", "ys"))
        return cls(n=n, xs=tuple(xs), ys=tuple(ys))


def _json_fields(data, what: str, names: tuple[str, ...], arrays: tuple[str, ...] = ()) -> list:
    """The named fields of a parsed JSON object, for the ``from_json``
    readers.  A document that is not an object, lacks a field, or holds
    something other than an array in a field named in ``arrays`` raises
    ValueError naming it.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    for name in names:
        if name not in data:
            raise ValueError(f"{what} lacks the field {name!r}")
        if name in arrays and not isinstance(data[name], list):
            raise ValueError(f"{what} field {name!r} must be an array, got {type(data[name]).__name__}")
    return [data[name] for name in names]


def valleys(D: DyckPath) -> ValleySet:
    """Valley coordinates: after i steps with x east and y north, the valley
    at descent position i sits at (x, y).  The valleys of a Dyck path meet
    the invariants of ``ValleySet``, so it is built unchecked.

    >>> v = valleys(parse_path("010010110101"))
    >>> v.xs, v.ys
    ((1, 2, 4, 5), (1, 3, 4, 5))
    """
    steps = D.steps
    xs, ys = [], []
    easts = 0
    for i, s in enumerate(steps[:-1], start=1):
        easts += s
        if s == EAST and steps[i] == NORTH:
            xs.append(easts)
            ys.append(i - easts)
    return ValleySet._of(D.n, tuple(xs), tuple(ys))


def _valley_steps(n: int, xs, ys) -> tuple[int, ...]:
    """North runs of sizes y_1, y_2-y_1, ..., n-y_k alternating with east runs x_1, ..., n-x_k."""
    steps: list[int] = []
    prev_x = prev_y = 0
    for x, y in zip(xs, ys):
        steps += [NORTH] * (y - prev_y) + [EAST] * (x - prev_x)
        prev_x, prev_y = x, y
    steps += [NORTH] * (n - prev_y) + [EAST] * (n - prev_x)
    return tuple(steps)


def from_valleys(v: ValleySet) -> DyckPath:
    """The unique path with the given valleys (see ``_valley_steps``); the
    invariants of ``ValleySet`` make it a Dyck word, built unchecked."""
    return DyckPath._of(_valley_steps(v.n, v.xs, v.ys))


def area(D: DyckPath) -> int:
    """Number of complete unit cells strictly between the path and diagonal.

    Computed as the sum over north steps of (k-1) - e_k, where e_k counts the
    east steps before the k-th north step.
    """
    total = easts = norths = 0
    for s in D.steps:
        if s == NORTH:
            total += norths - easts
            norths += 1
        else:
            easts += 1
    return total


def bounce(D: DyckPath) -> int:
    """Bounce statistic of the path.

    The bounce path starts at (0,0), travels north to the height at which the
    next east step of D begins, then east to the diagonal, and repeats from
    each touch point (a, a); from there the next peak height is the number of
    north steps of D preceding its (a+1)-th east step.  The statistic sums
    n - a over the interior touch points 0 < a < n.
    """
    n = D.n
    norths_before_east = []
    norths = 0
    for s in D.steps:
        if s == NORTH:
            norths += 1
        else:
            norths_before_east.append(norths)
    total = 0
    a = 0
    while a < n:
        a = norths_before_east[a]
        if a < n:
            total += n - a
    return total


def valley_complement(D: DyckPath) -> DyckPath:
    """The involution replacing the valley sets (X, Y) by their complements
    in {1..n-1}, swapped: X' = complement of Y, Y' = complement of X.

    The image is a valid valley set, built unchecked.  X' and Y' are
    increasing, in 1..n-1, and of one length, n - 1 - |X|.  For such
    sequences, xs[l] <= ys[l] for all l says that each {1..t} holds at
    least as many x's as y's; X' and Y' hold t minus the y's and t minus
    the x's there, so X' dominates Y' in the same way.

    >>> str(valley_complement(parse_path("01010011")))
    '00011101'
    """
    v = valleys(D)
    old_xs, old_ys = set(v.xs), set(v.ys)
    full = range(1, D.n)
    xs = tuple(i for i in full if i not in old_ys)
    ys = tuple(i for i in full if i not in old_xs)
    return from_valleys(ValleySet._of(D.n, xs, ys))


def reflect(D: DyckPath) -> DyckPath:
    """Reflection along the antidiagonal: reverse the word and swap the step
    letters.  An involution that maps each valley (x, y) to (n-y, n-x); the
    image of a Dyck word is one, built unchecked."""
    return DyckPath._of(tuple(1 - s for s in reversed(D.steps)))


class PathSums(NamedTuple):
    """The sums the path stream carries: maj, maj0 and maj1 as in
    ``path_stats``, and the area."""

    maj: int
    maj0: int
    maj1: int
    area: int


def paths_with_stats(n: int, max_n: int = DEFAULT_MAX_N) -> Iterator[tuple[DyckPath, PathSums]]:
    """Stream all Dyck paths of semilength n in lex order of the step word,
    each with its maj, maj0, maj1 and area.

    A depth-first walk over the prefixes that some Dyck path extends (a
    generating tree, after West): a prefix of k steps with norths north and
    easts east steps has a north child while norths < n and an east child
    while easts < norths.  The walk keeps an explicit stack of (k, last
    step, norths, easts, maj, maj1, area) and pushes the east child first,
    so the north child pops first and the paths come in lex order.  A north
    step adds the height it starts at, norths - easts, to the area; after an
    east step it also closes the valley at (easts, norths), the descent at
    k (as in ``valleys``).  The paths are Dyck words by construction and
    built unchecked, by ``DyckPath._of``; the checking ``DyckPath`` is their
    oracle, and ``path_stats`` and ``area`` that of the sums.

    >>> [(str(D), s.maj, s.area) for D, s in paths_with_stats(2)]
    [('0011', 0, 1), ('0101', 2, 0)]
    """
    n = _check_size(n, max_n)

    def walk() -> Iterator[tuple[DyckPath, PathSums]]:
        steps = [NORTH] * (2 * n)  # steps[k - 1] is written by each pop at length k
        new = tuple.__new__  # builds PathSums without its keyword-parsing __new__
        stack = [(1, NORTH, 1, 0, 0, 0, 0)]
        pop, push = stack.pop, stack.append
        while stack:
            k, last, norths, easts, maj, maj1, area_ = pop()
            steps[k - 1] = last
            if k == 2 * n:
                yield DyckPath._of(tuple(steps)), new(PathSums, (maj, maj - maj1, maj1, area_))
                continue
            if easts < norths:
                push((k + 1, EAST, norths, easts + 1, maj, maj1, area_))
            if norths < n:
                if last == EAST:  # the valley at (easts, norths)
                    maj += k
                    maj1 += easts
                push((k + 1, NORTH, norths + 1, easts, maj, maj1, area_ + norths - easts))

    return walk()


def enumerate_dyck(n: int, max_n: int = DEFAULT_MAX_N) -> Iterator[DyckPath]:
    """The paths of ``paths_with_stats``: every Dyck path of semilength n in
    lex order of the step word.  A bad size raises here, not at the first
    ``next()``."""
    return (D for D, _ in paths_with_stats(n, max_n))
