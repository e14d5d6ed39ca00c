"""The lattice of torsion classes: enumeration, Hasse covers, brick labels.

The lattice is searched upward from the zero class: the up-covers of a class
T are the inclusion-minimal joins of T with one indecomposable outside it, the
mutation step of tau-tilting theory (Adachi-Iyama-Reiten), so the Hasse
diagram comes out of the search with no separate cover computation.  A cover
T > U is labelled by the unique torsion almost torsion-free module S of the
pair attached to T with U = T intersect perp(S); the correspondence between
labels incident to a cotilting class and its heart simples is a tested
property, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import cached
from .exceptions import ResourceLimitError
from .heart import heart_simples
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
    if u.n > u.algebra.caps.lattice_indec_cap:
        raise ResourceLimitError(
            f"lattice scan gate: {u.n} indecomposables exceed the cap"
        )
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
    lattice = TorsLattice(u, classes, [])
    index = {bits: i for i, bits in enumerate(classes)}
    edges = sorted((index[upper], index[lower])
                   for lower, uppers in up_covers.items() for upper in uppers)
    lattice.covers.extend(
        Cover(upper=i, lower=j,
              label_index=_cover_label(lattice, classes[i], classes[j]))
        for i, j in edges)
    return lattice


def _cover_label(lattice: TorsLattice, upper_bits: int, lower_bits: int) -> int:
    """The unique torsion almost torsion-free module S of the upper pair with
    lower = upper intersect perp(S)."""
    u = lattice.universe
    pair = lattice.pair_of(lattice.class_index(upper_bits))
    candidates = []
    for simple in heart_simples(pair):
        if not simple.shifted:
            continue
        s = simple.index
        perp = 0
        for x in range(u.n):
            if u.hom_table[x][s] == 0:
                perp |= 1 << x
        if upper_bits & perp == lower_bits:
            candidates.append(s)
    if len(candidates) != 1:
        raise AssertionError(
            f"cover label not unique: {candidates} for "
            f"{bit_indices(upper_bits)} > {bit_indices(lower_bits)}"
        )
    label = candidates[0]
    if not is_brick(u.indecs[label]):
        raise AssertionError("cover label is not a brick")
    return label


@dataclass(frozen=True)
class IncidenceReport:
    torsion_class_index: int
    down_labels: tuple[int, ...]          # labels of covers leaving the class
    up_labels: tuple[int, ...]            # labels of covers arriving from above
    shifted_simples: tuple[int, ...]      # torsion almost torsion-free indices
    plain_simples: tuple[int, ...]        # torsion-free almost torsion indices

    @property
    def ok(self) -> bool:
        return (sorted(self.down_labels) == sorted(self.shifted_simples)
                and sorted(self.up_labels) == sorted(self.plain_simples))


def incident_arrows_vs_heart(pair: TorsionPair, lattice: TorsLattice) -> IncidenceReport:
    """Compare the multiset of Hasse labels incident to the torsion class with
    the heart simples of the pair: arrows going down from the class carry the
    shifted simples, arrows coming down into the class carry the plain ones."""
    idx = lattice.class_index(pair.torsion_bits)
    down, up = lattice.covers_of(idx)
    simples = heart_simples(pair)
    return IncidenceReport(
        torsion_class_index=idx,
        down_labels=tuple(sorted(c.label_index for c in down)),
        up_labels=tuple(sorted(c.label_index for c in up)),
        shifted_simples=tuple(sorted(s.index for s in simples if s.shifted)),
        plain_simples=tuple(sorted(s.index for s in simples if not s.shifted)),
    )
