"""Bijections between pattern-avoiding permutations and Dyck paths.

The central map ``phi`` sends a 231-avoider to the Dyck path whose valley
x-coordinates are its descent set and whose valley y-coordinates are the
descent set of its inverse; it is a bijection onto all Dyck paths and adds
the two major indices: maj(phi(w)) = maj(w) + imaj(w).

Around it live:

- ``psi_perm``   -- the complementing involution on 231-avoiders,
- ``kappa``      -- the height-profile bijection from 132-avoiders,
                    which factors as reflect o valley_complement o phi o reverse,
- ``beta``       -- valley_complement o phi o inverse on 312-avoiders, which
                    carries the inversion number to the area statistic,
- ``trio_132_213`` -- the bijection S_n(132) -> S_n(213) complementing the
                    (des, maj, imaj) triple.

Every map checks that its input lies in its pattern class and raises the
typed error from ``catbij.errors`` when it does not.  The images that are
valid by construction (``phi_inv``, ``psi_perm``, ``kappa``) are built
unchecked.  ``phi`` builds its path through the checking ``DyckPath``: the
steps are a Dyck word only by the lemma that sorted Des <= iDes elementwise
on 231-avoiders, which ``verify lemmas`` checks.
"""
from __future__ import annotations

from .dyck import DyckPath, _valley_steps, reflect, valley_complement, valleys
from .errors import NotAvoiding132, NotAvoiding231, NotAvoiding312
from .permutations import (
    Permutation,
    _require_avoids,
    descent_data,
    inverse,
    reconstruct_231,
    reverse,
)


def phi(p: Permutation) -> DyckPath:
    """Map a 231-avoider to the Dyck path with valleys (Des, iDes).

    >>> str(phi(Permutation((6, 2, 1, 5, 4, 3))))
    '010010110101'
    """
    _require_avoids(p, NotAvoiding231)
    d = descent_data(p)
    return DyckPath(_valley_steps(p.n, sorted(d.des), sorted(d.ides)))


def phi_inv(D: DyckPath) -> Permutation:
    """Inverse of ``phi``: rebuild the 231-avoider from the valley sets.

    Total on Dyck paths: valley sets always satisfy the elementwise
    condition that makes the reconstruction succeed.
    """
    v = valleys(D)
    return reconstruct_231(D.n, v.xs, v.ys)


def psi_perm(p: Permutation) -> Permutation:
    """The involution on 231-avoiders complementing both descent sets:
    the image has Des = {1..n-1} minus iDes(p) and iDes = {1..n-1} minus Des(p).

    Sends (des, maj, imaj) to (n-1-des, C(n,2)-imaj, C(n,2)-maj).
    """
    _require_avoids(p, NotAvoiding231)
    d = descent_data(p)
    full = set(range(1, p.n))
    return reconstruct_231(p.n, full - d.ides, full - d.des)


def heights(p: Permutation) -> tuple[int, ...]:
    """h_i = number of later positions carrying a larger value.

    >>> heights(Permutation((3, 4, 5, 1, 2, 6)))
    (3, 2, 1, 2, 1, 0)
    """
    hs = []
    later = 0  # bit v set iff v comes after the current position
    for v in reversed(p.word):
        hs.append((later >> v).bit_count())
        later |= 1 << v
    return tuple(reversed(hs))


def kappa(p: Permutation) -> DyckPath:
    """Height-profile bijection from 132-avoiders to Dyck paths.

    Reading the word left to right, adjoin the north steps needed to reach
    height h_i + 1, then one east step down to height h_i.  The input avoids
    132 exactly when consecutive heights satisfy h[i+1] >= h[i] - 1, which is
    what makes the construction valid; violations raise NotAvoiding132.
    Past that test each climb is at least 0 and the climbs add up to
    h_n + n = n, so the word is a Dyck word, built unchecked.
    """
    hs = heights(p)
    if any(b < a - 1 for a, b in zip(hs, hs[1:])):
        raise NotAvoiding132(p.word)
    steps: list[int] = []
    height = 0
    for h in hs:
        climb = h + 1 - height
        steps.extend([0] * climb)
        steps.append(1)
        height = h
    return DyckPath._of(tuple(steps))


def kappa_factored(p: Permutation) -> DyckPath:
    """``kappa`` computed through the factorization
    reflect o valley_complement o phi o reverse; agrees with ``kappa``
    on every 132-avoider.
    """
    _require_avoids(p, NotAvoiding132)
    return reflect(valley_complement(phi(reverse(p))))


def beta(p: Permutation) -> DyckPath:
    """valley_complement o phi o inverse, defined on 312-avoiders (whose
    inverses avoid 231).  Carries the inversion number to the area statistic:
    area(beta(p)) = inv(p).
    """
    _require_avoids(p, NotAvoiding312)
    return valley_complement(phi(inverse(p)))


def trio_132_213(p: Permutation) -> Permutation:
    """Bijection S_n(132) -> S_n(213) given by reverse, then psi_perm, then
    inverse, then reverse; sends (des, maj, imaj) to
    (n-1-des, C(n,2)-maj, C(n,2)-imaj).
    """
    _require_avoids(p, NotAvoiding132)
    return reverse(inverse(psi_perm(reverse(p))))
