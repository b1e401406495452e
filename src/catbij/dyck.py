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
from typing import Iterator, NamedTuple

from .errors import (
    NonBinaryCharacter,
    PrefixViolation,
    UnbalancedCounts,
)
from .permutations import DEFAULT_MAX_N, _check_size, _Frozen

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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.steps == other.steps
        return NotImplemented

    def __hash__(self):
        return hash((self.steps,))

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

    maj0 (resp. maj1) sums, over all descents i, the number of 0's (resp.
    1's) among the first i letters: the y (resp. x) of the valley at i.
    """
    steps = D.steps
    des = []
    maj1 = easts = 0
    for i, s in enumerate(steps[:-1], start=1):
        if s == EAST:
            easts += 1
            if steps[i] == NORTH:
                des.append(i)
                maj1 += easts
    maj = sum(des)
    return PathStats(frozenset(des), maj, maj - maj1, maj1)


class ValleySet(_Frozen):
    """The x- and y-coordinates of a path's valleys, strictly increasing.

    The invariants (equal lengths, entries in 1..n-1, elementwise
    xs[l] <= ys[l]) characterize the valley sets of Dyck paths of
    semilength n, so ``from_valleys`` is total on valid instances.
    """

    __slots__ = ("n", "xs", "ys")

    def __init__(self, n: int, xs: tuple[int, ...], ys: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(self.xs))
        object.__setattr__(self, "ys", tuple(self.ys))
        if self.n < 1:
            raise ValueError("semilength must be at least 1")
        if len(self.xs) != len(self.ys):
            raise ValueError(f"|xs| != |ys|: {self.xs} vs {self.ys}")
        for seq in (self.xs, self.ys):
            if any(not 1 <= v <= self.n - 1 for v in seq):
                raise ValueError(f"coordinates must lie in 1..{self.n - 1}: {seq}")
            if any(a >= b for a, b in zip(seq, seq[1:])):
                raise ValueError(f"coordinates must strictly increase: {seq}")
        if any(x > y for x, y in zip(self.xs, self.ys)):
            raise ValueError(
                f"need xs[l] <= ys[l] elementwise (path above diagonal): "
                f"{self.xs} vs {self.ys}"
            )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.xs, self.ys) == (other.n, other.xs, other.ys)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.xs, self.ys))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "xs": list(self.xs), "ys": list(self.ys)})

    @classmethod
    def from_json(cls, text: str) -> "ValleySet":
        data = json.loads(text)
        return cls(n=data["n"], xs=tuple(data["xs"]), ys=tuple(data["ys"]))


def valleys(D: DyckPath) -> ValleySet:
    """Valley coordinates: after i steps with x east and y north, the valley
    at descent position i sits at (x, y).

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
    return ValleySet(n=D.n, xs=xs, ys=ys)


def from_valleys(v: ValleySet) -> DyckPath:
    """The unique path with the given valleys: alternate north runs of sizes
    y_1, y_2-y_1, ..., n-y_k with east runs x_1, x_2-x_1, ..., n-x_k.
    """
    n = v.n
    steps: list[int] = []
    prev_x = prev_y = 0
    for x, y in zip(v.xs, v.ys):
        steps.extend([NORTH] * (y - prev_y))
        steps.extend([EAST] * (x - prev_x))
        prev_x, prev_y = x, y
    steps.extend([NORTH] * (n - prev_y))
    steps.extend([EAST] * (n - prev_x))
    return DyckPath(tuple(steps))


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

    >>> str(valley_complement(parse_path("01010011")))
    '00011101'
    """
    v = valleys(D)
    old_xs, old_ys = set(v.xs), set(v.ys)
    full = range(1, D.n)
    xs = tuple(i for i in full if i not in old_ys)
    ys = tuple(i for i in full if i not in old_xs)
    return from_valleys(ValleySet(n=D.n, xs=xs, ys=ys))


def reflect(D: DyckPath) -> DyckPath:
    """Reflection along the antidiagonal: reverse the word and swap the step
    letters.  An involution that maps each valley (x, y) to (n-y, n-x)."""
    return DyckPath(tuple(1 - s for s in reversed(D.steps)))


def enumerate_dyck(n: int, max_n: int = DEFAULT_MAX_N) -> Iterator[DyckPath]:
    """Stream all Dyck paths of semilength n in lex order of the step word.
    A successor makes the rightmost north step that starts above the diagonal
    an east step, then puts the remaining north steps before the east steps."""
    _check_size(n, max_n)

    def walk() -> Iterator[DyckPath]:
        steps = (NORTH,) * n + (EAST,) * n
        while True:
            yield DyckPath(steps)
            # scan right to left; the north step at j starts at height ones - zeros - 1
            zeros = ones = 0
            for j in range(2 * n - 1, 0, -1):
                if steps[j] == EAST:
                    ones += 1
                elif ones - zeros > 1:
                    break
                else:
                    zeros += 1
            else:
                return
            steps = steps[:j] + (EAST,) + (NORTH,) * (zeros + 1) + (EAST,) * (ones - 1)

    return walk()
