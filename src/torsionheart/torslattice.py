"""The lattice of torsion classes: enumeration, Hasse covers, brick labels.

The lattice is searched upward from the zero class: the up-covers of a class
T are the inclusion-minimal joins of T with one indecomposable outside it, the
mutation step of tau-tilting theory (Adachi-Iyama-Reiten), so the Hasse
diagram comes out of the search with no separate cover computation.  A cover
T > U is labelled by the brick B with T intersect U^perp = Filt(B)
(Demonet-Iyama-Reading-Reiten-Thomas, "Lattice theory of torsion classes";
Asai, "Semibricks"), read off the Hom table.  That the labels incident to a
cotilting class are the heart simples of its pair is a property the verify
suites test; this module reads no heart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import cached
from .krull import is_brick
from .torsion import TorsionPair, pair_from_torsion_class, torsion_closure
from .universe import IndecUniverse, bit_indices, popcount


@dataclass(frozen=True)
class Cover:
    upper: int          # index into TorsLattice.classes
    lower: int
    label_index: int    # universe index of the labelling brick


@dataclass
class TorsLattice:
    universe: IndecUniverse
    classes: list[int]               # bitsets, sorted by (popcount, value)
    covers: list[Cover]

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
    """All torsion classes, searched upward from 0 by joins, with Hasse covers.

    Each class T found is joined with every indecomposable x outside it.
    Every class strictly above T contains some join T v x, so the up-covers
    of T are exactly the inclusion-minimal joins; every class is reached
    from 0 along covers.  This takes one closure per (class, x not in T)."""
    u.require_complete()
    up_covers: dict[int, list[int]] = {}
    todo = [0]
    while todo:
        t = todo.pop()
        if t in up_covers:
            continue
        joins = {torsion_closure(1 << x, u, closed=t)
                 for x in range(u.n) if not t >> x & 1}
        up_covers[t] = [j for j in joins
                        if not any(k != j and k & ~j == 0 for k in joins)]
        todo.extend(up_covers[t])
    classes = sorted(up_covers, key=lambda b: (popcount(b), b))
    index = {bits: i for i, bits in enumerate(classes)}
    edges = sorted((index[upper], index[lower])
                   for lower, uppers in up_covers.items() for upper in uppers)
    return TorsLattice(u, classes, [
        Cover(upper=i, lower=j,
              label_index=_cover_label(u, classes[i], classes[j]))
        for i, j in edges])


def _cover_label(u: IndecUniverse, upper_bits: int, lower_bits: int) -> int:
    """The brick B of the cover upper > lower: upper intersect lower^perp is
    Filt(B), and every other indecomposable there has a B-filtration of
    length at least two, so B is its one member of least total dimension."""
    filt = bit_indices(upper_bits & u.perp(lower_bits, ext=False, right=True))
    least = min((u.indecs[i].total_dim for i in filt), default=0)
    candidates = [i for i in filt if u.indecs[i].total_dim == least]
    if len(candidates) != 1:
        raise AssertionError(
            f"cover label not unique: {candidates} for "
            f"{bit_indices(upper_bits)} > {bit_indices(lower_bits)}"
        )
    label = candidates[0]
    if not is_brick(u.indecs[label]):
        raise AssertionError("cover label is not a brick")
    return label
