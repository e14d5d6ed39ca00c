"""Torsion pairs over a complete universe of indecomposables.

Classes are bitsets over universe indices.  The smallest torsion class
holding a set G of members is perp(G^perp), the members with no nonzero map
to any member that G maps to zero (Assem-Simson-Skowronski VI.1), so on a
complete universe the closure is two reads of the Hom table
(`IndecUniverse.perp`).  The tests hold it to the literal Filt(Fac(add G))
fixpoint over quotients and Ext middles (`tests/oracles.py`).

Closure under submodules, of a torsion-free class and of a hereditary
torsion class, is a per-member test: Cogen(add X) of each member X lies in
the class (`submodule_closed`).  Cogen(add X) is read off the member Hom
spaces by a joint rank (`cogenerated_bits`), so no submodule is ever listed
here; the literal scans are the oracles'.  Closure of a torsion-free class
under extensions reads the Ext middles between its members
(`ext_middle_union_bits`); the split middle of two members is never read,
since it adds only the two members.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg
from .algebra import cached
from .homology import hom_space
from .modules import Module
from .universe import IndecUniverse, bit_indices


def cogenerated_bits(u: IndecUniverse, g_bits: int) -> int:
    """Bitset of the members Y in Cogen(add G), for G the members in g_bits.
    At every vertex v the maps Y -> G must have zero joint kernel on Y_v:
    their stacked matrices have rank dim Y_v.  Hom from Y to a sum of
    members is the sum of the member spaces, which the closure has cached,
    so no Hom space of a sum is built, and a Y with no nonzero map is
    skipped through `perp`."""
    p = u.algebra.field.p
    gens = u.members(g_bits)
    bits = 0
    for i in bit_indices(u.all_bits & ~u.perp(g_bits, ext=False, right=False)):
        y = u.indecs[i]
        basis = [f for g in gens for f in hom_space(y, g).basis]
        if all(linalg.rank(linalg.hconcat([f.maps[v] for f in basis], d),
                           p) == d
               for v, d in enumerate(y.dims) if d):
            bits |= 1 << i
    return bits


def cogenerated_by(u: IndecUniverse, i: int) -> int:
    """Cogen(add X_i); cached.  It holds every summand of every submodule
    of X_i and lies in the torsion-free class X_i cogenerates."""
    return cached(u, ("cogenerated_by", i),
                  lambda: cogenerated_bits(u, 1 << i))


def submodule_closed(u: IndecUniverse, bits: int) -> bool:
    """The class is closed under submodules, read per member as Cogen(add
    X) inside it.  Cogen(add X) holds every submodule of X, and a submodule
    of X^n is filtered by submodules of X, so on an extension-closed class
    this is the literal test on every submodule of every member."""
    return all(cogenerated_by(u, i) & ~bits == 0
               for i in bit_indices(bits))


def ext_middle_union_bits(u: IndecUniverse, i: int, j: int) -> int:
    """Members in the non-split middles of Ext^1(X_i, X_j); the split
    middle X_j + X_i adds only i and j."""
    return cached(u, ("ext_middle_union_bits", i, j),
                  lambda: _union(u.ext_middles((i,), (j,))))


def _union(bitsets) -> int:
    out = 0
    for bits in bitsets:
        out |= bits
    return out


class TorsionPair(namedtuple("TorsionPair",
                             "universe torsion_bits torsion_free_bits")):
    __slots__ = ()

    def is_torsion(self, m: Module) -> bool:
        return self.universe.in_class(m, self.torsion_bits)

    def is_torsion_free(self, m: Module) -> bool:
        return self.universe.in_class(m, self.torsion_free_bits)

    def __repr__(self):
        return (f"TorsionPair(T={sorted(bit_indices(self.torsion_bits))}, "
                f"F={sorted(bit_indices(self.torsion_free_bits))})")


def torsion_closure(bits: int, u: IndecUniverse) -> int:
    """Smallest torsion class containing the members flagged by bits:
    perp(G^perp) for G those members."""
    u.require_complete()
    return u.perp(u.perp(bits, ext=False, right=True), ext=False, right=False)


def is_torsion_class(u: IndecUniverse, bits: int) -> bool:
    return torsion_closure(bits, u) == bits


def pair_from_torsion_class(t_bits: int, u: IndecUniverse) -> TorsionPair:
    """The pair (T, T^{perp_0}); raises when T is not closed."""
    u.require_complete()
    if not is_torsion_class(u, t_bits):
        raise ValueError("the given class is not closed under quotients and "
                         "extensions")
    pair = TorsionPair(u, t_bits, u.perp(t_bits, ext=False, right=True))
    _validate_pair(pair)
    return pair


def _validate_pair(pair: TorsionPair):
    u = pair.universe
    for t in bit_indices(pair.torsion_bits):
        for f in bit_indices(pair.torsion_free_bits):
            if u.hom_table[t][f]:
                raise AssertionError("Hom(T, F) != 0 in a torsion pair")
    if not submodule_closed(u, pair.torsion_free_bits):
        raise AssertionError("torsion-free class not closed under submodules")
    for i in bit_indices(pair.torsion_free_bits):
        for j in bit_indices(pair.torsion_free_bits):
            if ext_middle_union_bits(u, i, j) & ~pair.torsion_free_bits:
                raise AssertionError("torsion-free class not closed under extensions")


def is_hereditary(pair: TorsionPair) -> bool:
    """Torsion class closed under submodules."""
    return submodule_closed(pair.universe, pair.torsion_bits)
