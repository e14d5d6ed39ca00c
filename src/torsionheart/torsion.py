"""Torsion pairs over a complete universe of indecomposables.

Classes are bitsets over universe indices.  The torsion class generated by a
set S of members is Filt(Fac(add S)) (Adachi-Iyama-Reiten, Compositio 150,
2014), so the closure operator iterates two per-member tables: Fac(add X)
of each member X, read off the member Hom spaces by a joint rank
(`generated_bits`), and the members in the middle terms of the non-split
extensions between X and its Ext^1 partners, the members Y with Ext^1(X, Y)
or Ext^1(Y, X) nonzero, read through the universe (`perp`, `ext_middles`).
Only such a pair has a non-split middle, and any finite filtration is built
from two-step extensions, so the fixpoint is the torsion class; the tests
discharge the closure axioms against arbitrary members by the brute-force
oracles.  The split middle of two members is never read: every caller unions
the table into a set that holds both members already.

Closure under submodules, of a torsion-free class and of a hereditary
torsion class, is the dual per-member test: Cogen(add X) of each member X
lies in the class (`submodule_closed`).  Fac and Cogen of a member share one
cached body (`generated_by`), so no submodule or quotient is ever listed
here; the literal scans are the oracles' (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import cached
from .homology import hom_space
from .modules import Module
from .universe import IndecUniverse, bit_indices


def generated_bits(u: IndecUniverse, g_bits: int, fac: bool) -> int:
    """Bitset of the members Y in Fac(add G) when fac, else in Cogen(add G),
    for G the members in g_bits.  At every vertex v, the maps G -> Y must be
    jointly onto Y_v when fac, and the maps Y -> G must have zero joint
    kernel on Y_v otherwise: either way their stacked matrices have rank
    dim Y_v.  Hom between Y and a sum of members is the sum of the member
    spaces, which the closure has cached, so no Hom space of a sum is built,
    and a Y with no nonzero map is skipped through `perp`."""
    p = u.algebra.field.p
    gens = u.members(g_bits)
    bits = 0
    for i in bit_indices(u.all_bits & ~u.perp(g_bits, ext=False, right=fac)):
        y = u.indecs[i]
        basis = [f for g in gens
                 for f in (hom_space(g, y) if fac else hom_space(y, g)).basis]
        if all(linalg.rank([row for f in basis for row in f.maps[v]] if fac
                           else linalg.hconcat([f.maps[v] for f in basis], d),
                           p) == d
               for v, d in enumerate(y.dims) if d):
            bits |= 1 << i
    return bits


def generated_by(u: IndecUniverse, i: int, fac: bool) -> int:
    """Fac(add X_i) when fac, else Cogen(add X_i); cached.  It holds every
    summand of every quotient (submodule) of X_i and lies in the torsion
    (torsion-free) class of X_i."""
    return cached(u, ("generated_by", i, fac),
                  lambda: generated_bits(u, 1 << i, fac))


def submodule_closed(u: IndecUniverse, bits: int) -> bool:
    """The class is closed under submodules, read per member as Cogen(add
    X) inside it.  Cogen(add X) holds every submodule of X, and a submodule
    of X^n is filtered by submodules of X, so on an extension-closed class
    this is the literal test on every submodule of every member."""
    return all(generated_by(u, i, fac=False) & ~bits == 0
               for i in bit_indices(bits))


def ext_middle_union_bits(u: IndecUniverse, i: int, j: int) -> int:
    """Members in the non-split middles of Ext^1(X_i, X_j); the split
    middle X_j + X_i adds only i and j."""
    return cached(u, ("ext_middle_union_bits", i, j),
                  lambda: _union(u.ext_middles((i,), (j,))))


def ext_partners(u: IndecUniverse, i: int) -> list[tuple[int, int]]:
    """(j, members in the non-split middles of Ext^1(X_i, X_j) and of
    Ext^1(X_j, X_i)) for every member j with one of them nonzero, i itself
    included when Ext^1(X_i, X_i) is nonzero; cached."""
    def compute():
        split = u.perp(1 << i, True, True) & u.perp(1 << i, True, False)
        return [(j, ext_middle_union_bits(u, i, j)
                 | ext_middle_union_bits(u, j, i))
                for j in bit_indices(u.all_bits & ~split)]
    return cached(u, ("ext_partners", i), compute)


def _union(bitsets) -> int:
    out = 0
    for bits in bitsets:
        out |= bits
    return out


@dataclass(frozen=True)
class TorsionPair:
    universe: IndecUniverse
    torsion_bits: int
    torsion_free_bits: int

    def is_torsion(self, m: Module) -> bool:
        return self.universe.in_class(m, self.torsion_bits)

    def is_torsion_free(self, m: Module) -> bool:
        return self.universe.in_class(m, self.torsion_free_bits)

    def __repr__(self):
        return (f"TorsionPair(T={sorted(bit_indices(self.torsion_bits))}, "
                f"F={sorted(bit_indices(self.torsion_free_bits))})")


def torsion_closure(bits: int, u: IndecUniverse, closed: int = 0) -> int:
    """Smallest torsion class containing the members flagged by bits and
    `closed`, which must already be a torsion class."""
    u.require_complete()
    return _close(u, closed, bits & ~closed)


def _close(u: IndecUniverse, closed: int, new: int) -> int:
    """Worklist fixpoint: each member outside `closed` reads Fac(add X) once
    and the Ext middles with those of its Ext^1 partners that are done,
    itself included, once; pairs inside `closed` are skipped since it is
    already closed, and a pair with Ext^1 zero both ways has no non-split
    middle."""
    bits = closed | new
    done = closed
    todo = bit_indices(new)
    while todo:
        i = todo.pop()
        done |= 1 << i
        found = generated_by(u, i, fac=True)
        for j, middles in ext_partners(u, i):
            if done >> j & 1:
                found |= middles
        found &= ~bits
        bits |= found
        todo.extend(bit_indices(found))
    return bits


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
