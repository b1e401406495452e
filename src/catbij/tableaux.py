"""Standard Young tableaux: row insertion, evacuation, and the induced
involution on 321-avoiding permutations.

Row insertion (``rsk``) sends a permutation to a pair (P, Q) of standard
tableaux of equal shape; descents transport as Des(w) = Des(Q) and
iDes(w) = Des(P), and w avoids 321 exactly when the shape has at most two
rows.  ``evacuation`` is the shape-preserving involution on standard
tableaux that complement-reverses the descent set; conjugating the P-side
by it yields ``j_involution`` on 321-avoiders.

The tableaux that ``rsk``, ``evacuation`` and ``standard_tableaux`` build are
valid by construction and skip the checks of the public constructor; the
evacuation check of ``verify rsk-j`` puts each tableau of the stream and its
image through those checks once.
"""
from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from typing import Iterator

from .errors import NotAvoiding321
from .permutations import Permutation, _check_size, _Frozen, _require_avoids


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
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows or any(not r for r in rows):
            raise ValueError("tableau rows must be nonempty")
        n = sum(len(r) for r in rows)
        if sorted(v for r in rows for v in r) != list(range(1, n + 1)):
            raise ValueError(f"entries must be exactly 1..{n}")
        for r in rows:
            if any(a >= b for a, b in zip(r, r[1:])):
                raise ValueError(f"row not strictly increasing: {r}")
        for upper, lower in zip(rows, rows[1:]):
            if len(lower) > len(upper):
                raise ValueError("row lengths must weakly decrease")
            if any(upper[c] >= lower[c] for c in range(len(lower))):
                raise ValueError("columns must strictly increase")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.rows,))

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    def __str__(self) -> str:
        return json.dumps([list(r) for r in self.rows], separators=(",", ":"))


def parse_tableau(text: str) -> StandardTableau:
    """Parse the JSON text form, e.g. ``[[1,3],[2,4]]``."""
    rows = json.loads(text)
    return StandardTableau(tuple(tuple(r) for r in rows))


def rsk(p: Permutation) -> tuple[StandardTableau, StandardTableau]:
    """Row insertion: P by bumping, Q recording where each cell appeared.

    >>> P, Q = rsk(Permutation((2, 4, 1, 3)))
    >>> P.rows, Q.rows
    (((1, 3), (2, 4)), ((1, 2), (3, 4)))
    """
    prows: list[list[int]] = []
    qrows: list[list[int]] = []
    for pos, value in enumerate(p.word, start=1):
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
    return StandardTableau._of(prows), StandardTableau._of(qrows)


def inverse_rsk(P: StandardTableau, Q: StandardTableau) -> Permutation:
    """Recover the permutation from an equal-shape tableau pair by reverse
    bumping, driven by Q's entries from largest to smallest."""
    if P.shape != Q.shape:
        raise ValueError(f"shapes differ: {P.shape} vs {Q.shape}")
    n = P.n
    prows = [list(r) for r in P.rows]
    cell = {}
    for r, row in enumerate(Q.rows):
        for c, v in enumerate(row):
            cell[v] = (r, c)
    word = [0] * n
    for k in range(n, 0, -1):
        r, c = cell[k]
        assert c == len(prows[r]) - 1, "Q entry positions must peel corners"
        out = prows[r].pop()
        if not prows[r]:
            prows.pop()
        for rr in range(r - 1, -1, -1):
            row = prows[rr]
            idx = bisect_left(row, out) - 1
            out, row[idx] = row[idx], out
        word[k - 1] = out
    return Permutation(tuple(word))


def tableau_descents(T: StandardTableau) -> frozenset[int]:
    """Entries i whose successor i+1 sits in a strictly lower row."""
    row_of = {}
    for r, row in enumerate(T.rows):
        for v in row:
            row_of[v] = r
    return frozenset(i for i in range(1, T.n) if row_of[i + 1] > row_of[i])


def evacuation(T: StandardTableau) -> StandardTableau:
    """Schuetzenberger evacuation: repeatedly delete the minimum, slide the
    hole to a corner by jeu de taquin, and record n, n-1, ... at the vacated
    corners.  A shape-preserving involution with
    Des(evacuation(T)) = {n - i : i in Des(T)}.

    >>> evacuation(parse_tableau("[[1,2],[3,4]]")).rows
    ((1, 2), (3, 4))
    """
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
    return StandardTableau._of(out)


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
    _check_size(n)

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
