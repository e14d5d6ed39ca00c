"""Theorem-level cross-checks on the whole pipeline, where n is the number of
vertices:

- every torsion class has exactly n covers, counting those above and below
  it: the Hasse diagram is n-regular (Adachi-Iyama-Reiten, mutation of
  support tau-tilting pairs);
- every cotilting pair has exactly n heart simples, and its cotilting module
  C has exactly n indecomposable summands: the heart of a finitely generated
  cotilting module is a length category with n simples
  (Happel-Reiten-Smalo).

Each count reads the whole universe, so a member missing from the closure
breaks it.
"""

from collections import Counter

import pytest

from torsionheart.algebra import parse_algebra
from torsionheart.heart import heart_simples
from torsionheart.universe import enumerate_indecomposables, popcount
from torsionheart.verify import build_context

from conftest import FIXTURES

# (fixture, bound); None is the CLI's default bound of 2 at every vertex
CASES = [("a2", None), ("a3", None), ("d4", None), ("loop", None),
         ("square", (1, 1, 1, 1)), ("a4", None)]


@pytest.fixture(scope="module", params=CASES, ids=[name for name, _ in CASES])
def ctx(request):
    name, bound = request.param
    algebra = parse_algebra((FIXTURES / f"{name}.quiver").read_text())
    u = enumerate_indecomposables(algebra, bound or (2,) * algebra.quiver.n)
    return build_context(u)


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
