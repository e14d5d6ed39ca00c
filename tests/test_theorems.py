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
- over a Dynkin quiver the member dims are the positive roots, the x != 0
  with Tits form 1 (Gabriel), found here without any module.

Each count reads the whole universe, so a member missing from the closure
breaks it.
"""

from collections import Counter
from itertools import product

import numpy as np
import pytest

from torsionheart.algebra import parse_algebra
from torsionheart.heart import heart_simples
from torsionheart.universe import popcount
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


@pytest.mark.parametrize("name, bound, n_roots", [
    ("a3", 2, 6), ("a4", 2, 10), ("d4", 2, 12), ("d5", 2, 20), ("e6", 3, 36)],
    ids=["a3", "a4", "d4", "d5", "e6"])
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
