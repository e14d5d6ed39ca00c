"""Torsion pairs over a complete universe of indecomposables.

Classes are bitsets over universe indices.  The closure operator iterates two
precomputed tables, indecomposable summands of quotients of single members and
of middle terms of non-split extensions between pairs of members, both read
through the universe (`summand_bitset`, `ext_middles`); iterated to a
fixpoint this generates the torsion class (any finite filtration is built
from two-step extensions), and the tests discharge the closure axioms against
arbitrary members by the brute-force oracles.  The split middle of two
members is never read: every caller unions the table into a set that holds
both members already.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import cached
from .modules import Module
from .universe import IndecUniverse, bit_indices


def quotient_summand_bits(u: IndecUniverse, i: int) -> int:
    return cached(u, ("quotient_summand_bits", i), lambda: _union(
        u.summand_bitset(quot) for quot, _ in u.all_quotients(u.indecs[i])))


def submodule_summand_bits(u: IndecUniverse, i: int) -> int:
    return cached(u, ("submodule_summand_bits", i), lambda: _union(
        u.summand_bitset(sub) for sub, _ in u.all_submodules(u.indecs[i])))


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
    """Worklist fixpoint: each member outside `closed` reads its quotient
    summands once and the Ext middles with every earlier member once; pairs
    inside `closed` are skipped since it is already closed."""
    bits = closed | new
    done = bit_indices(closed)
    todo = bit_indices(new)
    while todo:
        i = todo.pop()
        found = quotient_summand_bits(u, i) | ext_middle_union_bits(u, i, i)
        for j in done:
            found |= ext_middle_union_bits(u, i, j) | ext_middle_union_bits(u, j, i)
        done.append(i)
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
    for i in bit_indices(pair.torsion_free_bits):
        if submodule_summand_bits(u, i) & ~pair.torsion_free_bits:
            raise AssertionError("torsion-free class not closed under submodules")
        for j in bit_indices(pair.torsion_free_bits):
            if ext_middle_union_bits(u, i, j) & ~pair.torsion_free_bits:
                raise AssertionError("torsion-free class not closed under extensions")


def is_hereditary(pair: TorsionPair) -> bool:
    """Torsion class closed under submodules (checked by the oracle)."""
    u = pair.universe
    return all(
        submodule_summand_bits(u, i) & ~pair.torsion_bits == 0
        for i in bit_indices(pair.torsion_bits)
    )
