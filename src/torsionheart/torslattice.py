"""The lattice of torsion classes: enumeration, Hasse covers, brick labels.

Over a tau-tilting finite algebra, which every algebra with a complete
universe is, the torsion classes are exactly the classes T(S) = perp(S^perp)
of the semibricks S, the sets of pairwise Hom-orthogonal bricks, and S is
the set of labels of the down-covers of T(S) (Asai, "Semibricks", IMRN
2020).  The down-cover of T(S) labelled B in S is T(S) intersect perp(B)
(Demonet-Iyama-Reading-Reiten-Thomas, "Lattice theory of torsion classes").
So the lattice is read off the Hom table alone: no torsion closure, Fac
table or Ext middle is taken.  That the labels incident to a cotilting class
are the heart simples of its pair is a property the verify suites test;
this module reads no heart.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import cached
from .krull import is_brick
from .torsion import TorsionPair, pair_from_torsion_class
from .universe import IndecUniverse, bit_indices, popcount


class Cover(namedtuple("Cover", "upper lower label_index")):
    """The cover classes[upper] > classes[lower] of a TorsLattice, labelled
    by the brick of universe index label_index."""
    __slots__ = ()


class TorsLattice(namedtuple("TorsLattice", "universe classes covers")):
    """The torsion classes of a universe as bitsets, sorted by (popcount,
    value), and the Covers between them."""
    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.classes)

    def class_index(self, bits: int) -> int:
        try:
            return self.classes.index(bits)
        except ValueError:
            raise ValueError("torsion class not present in the lattice") from None

    def pair_of(self, idx: int) -> TorsionPair:
        bits = self.classes[idx]
        return cached(self.universe, ("pair_of", bits),
                      lambda: pair_from_torsion_class(bits, self.universe))

    def covers_of(self, idx: int):
        """(down covers with idx on top, up covers with idx at bottom)."""
        down = [c for c in self.covers if c.upper == idx]
        up = [c for c in self.covers if c.lower == idx]
        return down, up


def enumerate_torsion_classes(u: IndecUniverse) -> TorsLattice:
    """All torsion classes T(S), one per semibrick S, with the covers
    T(S) > T(S) intersect perp(B) labelled by B, for B in S.  The semibricks
    are the independent sets of the Hom-orthogonality graph on the bricks,
    each grown only by later bricks orthogonal to all of it, so each is met
    once."""
    u.require_complete()
    bricks = sum(1 << i for i in range(u.n) if is_brick(u.indecs[i]))
    down: dict[int, list[tuple[int, int]]] = {}
    todo = [(0, bricks)]
    while todo:
        semibrick, allowed = todo.pop()
        t = u.perp(u.perp(semibrick, ext=False, right=True),
                   ext=False, right=False)
        if t in down:
            raise AssertionError(f"two semibricks generate {bit_indices(t)}")
        down[t] = [(t & u.perp(1 << b, ext=False, right=False), b)
                   for b in bit_indices(semibrick)]
        for b in bit_indices(allowed):
            orthogonal = (u.perp(1 << b, ext=False, right=True)
                          & u.perp(1 << b, ext=False, right=False))
            todo.append((semibrick | 1 << b,
                         allowed & orthogonal & ~((2 << b) - 1)))
    classes = sorted(down, key=lambda b: (popcount(b), b))
    index = {bits: i for i, bits in enumerate(classes)}
    return TorsLattice(u, classes, sorted(
        (Cover(index[upper], index[lower], label)
         for upper, covers in down.items() for lower, label in covers),
        key=lambda c: (c.upper, c.lower)))
