import random
from itertools import combinations

import pytest

from torsionheart import modules as mo
from torsionheart import torsion as to
from torsionheart.algebra import parse_algebra
from torsionheart.torslattice import enumerate_torsion_classes
from torsionheart.universe import bit_indices, enumerate_indecomposables

from conftest import FIXTURES, module_by_dims
from oracles import (
    fac_bits, full_round_closure, quotient_summands, submodule_summands,
    torsion_part,
)


@pytest.fixture(scope="module")
def idx(a2_universe):
    u = a2_universe
    return {
        "S1": u.index_of(module_by_dims(u, (1, 0))),
        "S2": u.index_of(module_by_dims(u, (0, 1))),
        "P1": u.index_of(module_by_dims(u, (1, 1))),
    }


def bits(idx, *names):
    out = 0
    for n in names:
        out |= 1 << idx[n]
    return out


def test_torsion_closures_a2(a2_universe, idx):
    u = a2_universe
    p1 = module_by_dims(u, (1, 1))
    s1 = module_by_dims(u, (1, 0))
    assert to.torsion_closure(u.summand_bitset(p1), u) == bits(idx, "P1", "S1")
    assert to.torsion_closure(u.summand_bitset(s1), u) == bits(idx, "S1")
    assert to.torsion_closure(0, u) == 0


def test_all_torsion_classes_a2(a2_universe, idx):
    u = a2_universe
    classes = set()
    for r in range(u.n + 1):
        for sub in combinations(range(u.n), r):
            classes.add(to.torsion_closure(sum(1 << i for i in sub), u))
    expected = {
        0, bits(idx, "S1"), bits(idx, "S2"), bits(idx, "S1", "P1"),
        bits(idx, "S1", "S2", "P1"),
    }
    assert classes == expected


def test_closure_operator_properties(a2_universe):
    # extensive, monotone, idempotent over all subsets
    u = a2_universe
    subsets = range(1 << u.n)
    closures = {s: to.torsion_closure(s, u) for s in subsets}
    for s in subsets:
        assert closures[s] & ~closures[s] == 0
        assert s & ~closures[s] == 0  # extensive
        assert closures[closures[s]] == closures[s]  # idempotent
        for t in subsets:
            if s & ~t == 0:
                assert closures[s] & ~closures[t] == 0  # monotone


def test_closure_under_pair_sum_extensions(a2_universe):
    # scanning extensions between sums of <= 2 members adds nothing beyond
    # the single-member fixpoint
    u = a2_universe
    for s in range(1 << u.n):
        closed = to.torsion_closure(s, u)
        members = bit_indices(closed)
        bags = [(i,) for i in members] + [(i, i) for i in members] + [
            (i, j) for i in members for j in members if i < j
        ]
        for right in bags:
            for left in bags:
                for mid_bits in u.ext_middles(right, left):
                    assert mid_bits & ~closed == 0


def test_pair_from_torsion_class(a2_universe, idx):
    pair = to.pair_from_torsion_class(bits(idx, "S1"), a2_universe)
    assert pair.torsion_free_bits == bits(idx, "S2", "P1")
    pair0 = to.pair_from_torsion_class(0, a2_universe)
    assert pair0.torsion_free_bits == a2_universe.all_bits
    pair_all = to.pair_from_torsion_class(a2_universe.all_bits, a2_universe)
    assert pair_all.torsion_free_bits == 0
    with pytest.raises(ValueError):
        to.pair_from_torsion_class(bits(idx, "P1"), a2_universe)  # not closed


def test_torsion_part_a2(a2_universe, idx):
    u = a2_universe
    pair = to.pair_from_torsion_class(bits(idx, "S1"), u)
    p1 = module_by_dims(u, (1, 1))
    t, incl, ses = torsion_part(p1, pair)
    assert t.is_zero()
    assert ses.validate()
    s1 = module_by_dims(u, (1, 0))
    t2, _, _ = torsion_part(s1, pair)
    assert t2.dims == (1, 0)
    both = mo.direct_sum([p1, s1])
    t3, _, ses3 = torsion_part(both, pair)
    assert t3.dims == (1, 0)
    assert ses3.right.dims == (1, 1)


def test_torsion_part_idempotent(a2_universe, idx):
    u = a2_universe
    pair = to.pair_from_torsion_class(bits(idx, "S1"), u)
    for m in list(u.indecs) + [mo.direct_sum(list(u.indecs))]:
        t, _, _ = torsion_part(m, pair)
        if not t.is_zero():
            tt, _, _ = torsion_part(t, pair)
            assert tt.dims == t.dims
        quot = torsion_part(m, pair)[2].right
        if not quot.is_zero():
            tq, _, _ = torsion_part(quot, pair)
            assert tq.is_zero()


def test_canonical_sequence_unique(a2_universe, idx):
    # the canonical SES is the unique submodule with torsion left part and
    # torsion-free quotient
    u = a2_universe
    pair = to.pair_from_torsion_class(bits(idx, "S1"), u)
    for m in u.indecs:
        t, _, _ = torsion_part(m, pair)
        count = 0
        for sub, incl in u.all_submodules(m):
            if not u.in_class(sub, pair.torsion_bits):
                continue
            quot = mo.cokernel(incl)[0]
            if u.in_class(quot, pair.torsion_free_bits):
                count += 1
                assert sub.dims == t.dims
        assert count == 1


def test_is_hereditary(a2_universe, idx):
    u = a2_universe
    assert to.is_hereditary(to.pair_from_torsion_class(bits(idx, "S1"), u))
    assert to.is_hereditary(to.pair_from_torsion_class(0, u))
    # the class {S1, P1} is not closed under submodules (S2 sits in P1)
    pair = to.pair_from_torsion_class(bits(idx, "S1", "P1"), u)
    assert not to.is_hereditary(pair)


def test_hereditary_on_a3(a3_universe):
    u = a3_universe
    p1 = module_by_dims(u, (1, 1, 1))
    t_bits = to.torsion_closure(u.summand_bitset(p1), u)
    pair = to.pair_from_torsion_class(t_bits, u)
    # the submodule (0,1,1) of P(1) leaves the closure of {P(1)}
    assert not to.is_hereditary(pair)


def test_all_subset_closures_are_torsion_classes_a3(a3_universe):
    # exhaustive over the 64 subsets: every closure validates as a pair and
    # every universe member gets a canonical sequence
    u = a3_universe
    seen = set()
    for s in range(1 << u.n):
        seen.add(to.torsion_closure(s, u))
    assert len(seen) == 14
    for bits in seen:
        pair = to.pair_from_torsion_class(bits, u)
        for m in u.indecs:
            t, _, ses = torsion_part(m, pair)
            assert ses.validate()


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4", "loop", "square"])
def test_perp_matches_the_table_loops(name):
    # on every torsion class T: T^perp is F and perp(F) is T by Hom, and
    # both Ext perpendicular classes equal nested loops over the Ext table;
    # submodule closure read as Cogen(add X) inside the class, which
    # `is_hereditary` and the F check of `_validate_pair` read, equals the
    # literal check on every submodule of every member
    alg = parse_algebra((FIXTURES / f"{name}.quiver").read_text())
    u = enumerate_indecomposables(alg, (2,) * alg.quiver.n)
    subs = submodule_summands(u)

    def literal(bits):
        return all(subs[i] & ~bits == 0 for i in bit_indices(bits))

    def loop(table, bits, right):
        return sum(1 << x for x in range(u.n) if all(
            (table[b][x] if right else table[x][b]) == 0
            for b in bit_indices(bits)))

    for t in enumerate_torsion_classes(u).classes:
        f = loop(u.hom_table, t, True)
        assert u.perp(t, ext=False, right=True) == f
        assert u.perp(f, ext=False, right=False) == t
        for bits in (t, f):
            for right in (True, False):
                assert u.perp(bits, ext=True, right=right) == \
                    loop(u.ext_table, bits, right)
        pair = to.pair_from_torsion_class(t, u)
        assert to.is_hereditary(pair) == literal(t)
        assert to.submodule_closed(u, f) == literal(f)


def _fixture_universe(name):
    alg = parse_algebra((FIXTURES / f"{name}.quiver").read_text())
    return enumerate_indecomposables(alg, (2,) * alg.quiver.n)


_NAMES = ["a2", "a3", "a4", "d4", "loop", "square"]


@pytest.mark.parametrize("name, fac", [
    *(pytest.param(name, True, id=name) for name in _NAMES),
    *(pytest.param(name, False, id=f"{name}-cogen") for name in _NAMES)])
def test_fac_lies_between_quotient_summands_and_the_closure(name, fac):
    # Fac(add X) holds the summands of every quotient of X and lies in the
    # torsion class X generates; on D4 exactly one member generates more
    # than the summands of its quotients: (1,1,1,2), whose three arms span
    # the three lines of F_2^2, has no quotient (1,1,1,1), but its square
    # maps onto one.  Dually, Cogen(add X) holds the summands of every
    # submodule of X and lies in the torsion-free class X cogenerates,
    # ((perp_0 X)^perp_0); on D4 exactly one member cogenerates more than
    # the summands of its submodules: (1,1,1,2) is too big to be a
    # submodule of (1,1,1,1), but embeds in its square.  Fac is the join
    # search oracle's table, Cogen the package's
    u = _fixture_universe(name)
    pieces = quotient_summands(u) if fac else submodule_summands(u)
    strict = []
    for i in range(u.n):
        generated = (fac_bits(u, 1 << i) if fac
                     else to.cogenerated_by(u, i))
        closure = (to.torsion_closure(1 << i, u) if fac else u.perp(
            u.perp(1 << i, ext=False, right=False), ext=False, right=True))
        assert pieces[i] & ~generated == 0
        assert generated & ~closure == 0
        if generated != pieces[i]:
            strict.append(i)
    assert len(strict) == (1 if name == "d4" else 0)


@pytest.mark.parametrize("name", ["a2", "a3", "loop", "a4", "d4", "square"])
def test_closure_matches_full_rounds(name):
    # the closure perp(G^perp) against full rounds over literal quotients and
    # every pair: every subset of a2, a3 and loop (whose simple has a
    # self-extension), 300 seeded random subsets of the others
    u = _fixture_universe(name)
    quots = quotient_summands(u)
    if name in ("a2", "a3", "loop"):
        subsets = range(1 << u.n)
    else:
        rng = random.Random(18)
        subsets = [rng.getrandbits(u.n) for _ in range(300)]
    for bits in subsets:
        assert to.torsion_closure(bits, u) == full_round_closure(u, bits, quots)
