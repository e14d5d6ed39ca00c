"""Theorem-level cross-checks on the whole pipeline, where n is the number of
vertices:

- every torsion class has exactly n covers, counting those above and below
  it: the Hasse diagram is n-regular (Adachi-Iyama-Reiten, mutation of
  support tau-tilting pairs);
- every cotilting pair has exactly n heart simples, and its cotilting module
  C has exactly n indecomposable summands: the heart of a finitely generated
  cotilting module is a length category with n simples
  (Happel-Reiten-Smalo);
- the dims of those n simples form a Z-basis of Z^n, since their classes
  span K_0 of the derived category;
- the simples give the pair back: T = perp(S_T^perp) for the shifted
  simples S_T and F = (perp S_F)^perp for the unshifted ones S_F (Asai,
  "Semibricks", IMRN 2020).  The heart detection reads Ext middles, the
  two perps only the Hom table;
- each simple is paired with its own envelope: for every summand C_i of
  C, dim C_i = sum_j eps_j (dim Hom(C_i, E_j) / dim End S_j) dim S_j, with
  E_j the heart injective envelope of the simple S_j and eps_j = -1 for a
  shifted simple, since [S[-1]] = -[S] in K_0.  Hom_H(-, E_j) is exact on
  the heart, dim Hom_H(X, E_j) = [X : S_j] dim End S_j, and C_i and E_j lie
  in F, where Hom_H is Hom_A (the Cartan identity);
- over a Dynkin quiver the member dims are the positive roots, the x != 0
  with Tits form 1 (Gabriel), found here without any module.

Each count reads the whole universe, so a member missing from the closure
breaks it.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from torsionheart.algebra import parse_algebra
from torsionheart.heart import classify_neg_isolated, heart_simples
from torsionheart.universe import bit_indices, popcount
from torsionheart.verify import build_context

from conftest import FIXTURES, universe_of

# (fixture, bound); None is the CLI's default bound of 2 at every vertex
CASES = [("a2", None), ("a3", None), ("d4", None), ("loop", None),
         ("square", (1, 1, 1, 1)), ("a4", None), ("d5", None),
         ("nakayama", None)]


@pytest.fixture(scope="module", params=CASES, ids=[name for name, _ in CASES])
def ctx(request):
    name, bound = request.param
    text = (FIXTURES / f"{name}.quiver").read_text()
    n = parse_algebra(text).quiver.n
    return build_context(universe_of(text, bound or (2,) * n))


def test_hasse_diagram_is_regular(ctx):
    n = ctx.universe.algebra.quiver.n
    degree = Counter()
    for cover in ctx.lattice.covers:
        degree[cover.upper] += 1
        degree[cover.lower] += 1
    assert [degree[i] for i in range(ctx.lattice.n)] == [n] * ctx.lattice.n


def test_cotilting_pairs_have_n_heart_simples(ctx):
    n = ctx.universe.algebra.quiver.n
    assert ctx.cotilting_pairs
    for data in ctx.cotilting_pairs:
        assert len(heart_simples(data.pair)) == n, data.pair
        assert popcount(data.add_c_bits) == n, data.pair


def test_heart_simples_are_a_basis_of_k0(ctx):
    n = ctx.universe.algebra.quiver.n
    for data in ctx.cotilting_pairs:
        dims = [s.module.dims for s in heart_simples(data.pair)]
        assert len(dims) == n, data.pair
        assert abs(round(np.linalg.det(np.array(dims)))) == 1, data.pair


def test_heart_simples_give_back_the_pair(ctx):
    u = ctx.universe
    for data in ctx.cotilting_pairs:
        simples = heart_simples(data.pair)
        shifted = sum(1 << s.index for s in simples if s.shifted)
        plain = sum(1 << s.index for s in simples if not s.shifted)
        assert u.perp(u.perp(shifted, ext=False, right=True),
                      ext=False, right=False) == data.pair.torsion_bits
        assert u.perp(u.perp(plain, ext=False, right=False),
                      ext=False, right=True) == data.pair.torsion_free_bits


def _cartan_misses(u, data, pairing) -> list[int]:
    """The summands C_i of C at which the Cartan identity fails, for a
    pairing of each heart simple with a member as its envelope."""
    misses = []
    for i in bit_indices(data.add_c_bits):
        total = [Fraction(0)] * len(u.indecs[i].dims)
        for simple, e in pairing:
            s = simple.index
            times = (-1 if simple.shifted else 1) * Fraction(
                u.hom_table[i][e], u.hom_table[s][s])
            total = [t + times * d for t, d in zip(total, simple.module.dims)]
        if total != list(u.indecs[i].dims):
            misses.append(i)
    return misses


def _pairings(ctx):
    """(cotilting data, [(simple, envelope index)]) for every cotilting pair,
    through the heart sequences of its simples."""
    for data in ctx.cotilting_pairs:
        criticals, specials = classify_neg_isolated(data)
        yield data, [(seq.simple, seq.envelope_index)
                     for seq in criticals + specials]


def test_cartan_identity(ctx):
    for data, pairing in _pairings(ctx):
        assert _cartan_misses(ctx.universe, data, pairing) == [], data.pair


def test_cartan_identity_fails_with_two_envelopes_swapped(ctx):
    # every swap of the envelopes of two simples breaks the identity at some
    # summand of C, so the identity checks the pairing, not only the
    # envelope set; loop, with one vertex, has no two simples to swap
    swaps = 0
    for data, pairing in _pairings(ctx):
        for a, b in combinations(range(len(pairing)), 2):
            swapped = list(pairing)
            swapped[a] = (pairing[a][0], pairing[b][1])
            swapped[b] = (pairing[b][0], pairing[a][1])
            assert _cartan_misses(ctx.universe, data, swapped), \
                (data.pair, a, b)
            swaps += 1
    assert swaps or ctx.universe.algebra.quiver.n == 1


@pytest.mark.parametrize("name, bound, n_roots", [
    ("a3", 2, 6), ("a4", 2, 10), ("d4", 2, 12), ("d5", 2, 20), ("e6", 3, 36),
    ("e7", 4, 63)],
    ids=["a3", "a4", "d4", "d5", "e6", "e7"])
def test_member_dims_are_the_positive_roots(name, bound, n_roots):
    # q(x) = sum_v x_v^2 - sum over arrows s -> t of x_s x_t; every root of
    # these quivers fits the bound
    text = (FIXTURES / f"{name}.quiver").read_text()
    quiver = parse_algebra(text).quiver
    roots = [x for x in product(range(bound + 1), repeat=quiver.n)
             if any(x) and sum(v * v for v in x) - sum(
                 x[a.source] * x[a.target] for a in quiver.arrows) == 1]
    u = universe_of(text, (bound,) * quiver.n)
    assert len(roots) == n_roots
    assert sorted(m.dims for m in u.indecs) == sorted(roots)
