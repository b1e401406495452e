"""Standard Young tableaux: row insertion, evacuation, and the induced
involution on 321-avoiding permutations.

Row insertion (``rsk``) sends a permutation to a pair (P, Q) of standard
tableaux of equal shape; descents transport as Des(w) = Des(Q) and
iDes(w) = Des(P), and w avoids 321 exactly when the shape has at most two
rows.  ``evacuation`` (shape-preserving, complement-reversing the descent
set) inserts a reverse-complemented reading word; conjugating the P-side
by it yields ``j_involution`` on 321-avoiders.

The tableaux that ``rsk``, ``evacuation`` and ``standard_tableaux`` build are
valid by construction and skip the checks of the public constructor; the
evacuation check of ``verify rsk-j`` puts each tableau of the stream and its
image through those checks once.  ``inverse_rsk`` places each entry of P
once, so its permutation, and with it the image of ``j_involution``, is
built unchecked too; ``verify rsk-j`` compares the round trip with the
permutation it started from.
"""
from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from operator import ge, index
from typing import Iterator

from .errors import NotAvoiding321
from .permutations import Permutation, _check_size, _Frozen, _mask_set, _require_avoids


class StandardTableau(_Frozen):
    """Rows of a standard Young tableau: entries 1..n placed so that rows
    and columns strictly increase and row lengths weakly decrease."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    @classmethod
    def _of(cls, rows) -> "StandardTableau":
        """Wrap rows that are a standard tableau by construction, skipping
        the checks of ``__post_init__``."""
        tableau = object.__new__(cls)
        object.__setattr__(tableau, "rows", tuple(map(tuple, rows)))
        return tableau

    def __post_init__(self):
        try:
            rows = tuple(tuple(map(index, r)) for r in self.rows)
        except TypeError:
            raise ValueError(f"tableau entries must be integers: {self.rows!r}") from None
        object.__setattr__(self, "rows", rows)
        if not rows or any(not r for r in rows):
            raise ValueError("tableau rows must be nonempty")
        n = sum(len(r) for r in rows)
        if sorted(v for r in rows for v in r) != list(range(1, n + 1)):
            raise ValueError(f"entries must be exactly 1..{n}")
        for r in rows:
            if any(map(ge, r, r[1:])):
                raise ValueError(f"row not strictly increasing: {r}")
        for upper, lower in zip(rows, rows[1:]):
            if len(lower) > len(upper):
                raise ValueError("row lengths must weakly decrease")
            if any(map(ge, upper, lower)):  # map stops at the shorter row, lower
                raise ValueError("columns must strictly increase")

    @property
    def n(self) -> int:
        return sum(map(len, self.rows))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.rows))

    def __str__(self) -> str:
        return json.dumps([list(r) for r in self.rows], separators=(",", ":"))


def parse_tableau(text: str) -> StandardTableau:
    """Parse the JSON text form, e.g. ``[[1,3],[2,4]]``; text that is not a
    JSON list of lists of integers raises ValueError, as a bad tableau does."""
    return StandardTableau(json.loads(text))


def _insert(word) -> tuple[list[list[int]], list[list[int]]]:
    """The rows of P and Q that row insertion of ``word`` builds."""
    prows: list[list[int]] = []
    qrows: list[list[int]] = []
    for pos, value in enumerate(word, start=1):
        cur = value
        r = 0
        while True:
            if r == len(prows):
                prows.append([cur])
                qrows.append([pos])
                break
            row = prows[r]
            idx = bisect_right(row, cur)
            if idx == len(row):
                row.append(cur)
                qrows[r].append(pos)
                break
            cur, row[idx] = row[idx], cur
            r += 1
    return prows, qrows


def rsk(p: Permutation) -> tuple[StandardTableau, StandardTableau]:
    """Row insertion: P by bumping, Q recording where each cell appeared.

    >>> P, Q = rsk(Permutation((2, 4, 1, 3)))
    >>> P.rows, Q.rows
    (((1, 3), (2, 4)), ((1, 2), (3, 4)))
    """
    return tuple(map(StandardTableau._of, _insert(p.word)))


def inverse_rsk(P: StandardTableau, Q: StandardTableau) -> Permutation:
    """Recover the permutation from an equal-shape tableau pair by reverse
    bumping, driven by Q's entries from largest to smallest.

    The largest entry k left in the standard tableau Q ends its row, so
    reverse bumping starts at the end of P's row ``row_of[k]``.  The word
    takes each entry of P once, so it is a permutation by construction,
    built unchecked.
    """
    if P.shape != Q.shape:
        raise ValueError(f"shapes differ: {P.shape} vs {Q.shape}")
    prows = [list(r) for r in P.rows]
    n = sum(map(len, prows))
    row_of = [0] * (n + 1)  # row_of[v]: the row of Q holding entry v
    for r, row in enumerate(Q.rows):
        for v in row:
            row_of[v] = r
    word = [0] * n
    for k in range(n, 0, -1):
        r = row_of[k]
        out = prows[r].pop()
        if not prows[r]:
            prows.pop()
        for rr in range(r - 1, -1, -1):
            row = prows[rr]
            idx = bisect_left(row, out) - 1
            out, row[idx] = row[idx], out
        word[k - 1] = out
    return Permutation._of(tuple(word))


def tableau_descents(T: StandardTableau) -> frozenset[int]:
    """Entries i whose successor i+1 sits in a strictly lower row, as a set
    shared through the mask table of ``descent_data``.

    The rows are read from the bottom up: ``below`` masks the entries of the
    rows already read, so an entry i of the current row is a descent exactly
    when bit i + 1 of ``below`` is set.
    """
    des = below = 0
    for row in reversed(T.rows):
        entries = 0
        for v in row:
            entries |= 1 << v
        des |= entries & below >> 1
        below |= entries
    return _mask_set(des)


def evacuation(T: StandardTableau) -> StandardTableau:
    """Schuetzenberger evacuation, a shape-preserving involution with
    Des(evacuation(T)) = {n - i : i in Des(T)}.

    T's row reading word (rows from the bottom up, each left to right)
    inserts to T.  By Schuetzenberger's theorem, if w inserts to (P, Q),
    its reverse-complement inserts to (evac P, evac Q) ("Quelques remarques
    sur une construction de Schensted", Math. Scand. 12, 1963).

    >>> evacuation(parse_tableau("[[1,2],[3]]")).rows
    ((1, 3), (2,))
    """
    n = T.n
    return StandardTableau._of(_insert(n + 1 - v for row in T.rows for v in reversed(row))[0])


def j_involution(p: Permutation) -> Permutation:
    """The involution on 321-avoiders obtained by evacuating the insertion
    tableau: w -> (P, Q) -> (evacuation(P), Q) -> image.

    Keeps Des fixed and maps iDes to {n - j : j in iDes}; the image avoids
    321 because evacuation preserves the (at most two-row) shape.

    >>> j_involution(Permutation((2, 3, 1))).word
    (1, 3, 2)
    """
    _require_avoids(p, NotAvoiding321)
    P, Q = rsk(p)
    return inverse_rsk(evacuation(P), Q)


def standard_tableaux(n: int) -> Iterator[StandardTableau]:
    """All standard Young tableaux with n cells, any shape, in lex order of
    the row word (the rows of 1, 2, ..., n).

    The walk is a loop: ``placed`` holds the rows of 1..k, entry k + 1 goes
    to the first row from ``r`` on that has room (a new row always has),
    and when no row is left the last entry comes out and tries the next row.
    """
    n = _check_size(n)

    def walk() -> Iterator[StandardTableau]:
        rows: list[list[int]] = []
        placed: list[int] = []
        r = 0
        while True:
            k = len(placed) + 1
            if k <= n and r <= len(rows):
                if r == len(rows):
                    rows.append([k])
                elif r == 0 or len(rows[r]) < len(rows[r - 1]):
                    rows[r].append(k)
                else:
                    r += 1
                    continue
                placed.append(r)
                r = 0
                continue
            if k > n:
                yield StandardTableau._of(rows)
            if not placed:
                return
            r = placed.pop()
            rows[r].pop()
            if not rows[r]:
                rows.pop()
            r += 1

    return walk()
