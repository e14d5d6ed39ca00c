"""The universe reads a module as members off its Hom vector; these tests
hold that reading to the Krull-Schmidt one it replaced.

On a complete universe, M is the sum of the members X_j with multiplicities
x, where hom_table @ x = [dim Hom(X_i, M)]_i (Auslander; Bongartz).  The
oracle's bounded Ext scan reads its middles through the same universe, so a
wrong Hom-vector reading would mislead the fast criteria and the oracle
alike.  The differential tests below compare it with a `decompose` +
`is_isomorphic` reading on every module the closure decomposes (the AR
translates of members and the Ext middles between them), on the kernel,
image and cokernel of every nonzero map between two members, and on every
non-split Ext middle between a member and a sum of at most two members.
The property test reads random sums of members in a random basis.
"""

import random
import re
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionheart import linalg
from torsionheart import universe as un
from torsionheart.algebra import parse_algebra
from torsionheart.cli import EXIT_INTERNAL, main
from torsionheart.exceptions import IncompleteUniverseError
from torsionheart.heart import _sum_bags
from torsionheart.homology import ext1, hom_space
from torsionheart.modules import Module, cokernel, kernel

from conftest import FIXTURES
from oracles import (
    decompose_reading, image, inverse, nonsplit_classes, sum_module,
)

# (fixture, bound); None is the CLI's default bound of 2 at every vertex
CASES = [("a2", None), ("a3", None), ("d4", None), ("loop", None),
         ("square", (1, 1, 1, 1)), ("a4", None)]
NAMES = [name for name, _ in CASES]


@cache
def _closure(name):
    """A fresh universe, and every module its closure decomposed with the
    decomposition it got."""
    bound = dict(CASES)[name]
    algebra = parse_algebra((FIXTURES / f"{name}.quiver").read_text())
    visited = []
    real = un.decompose

    def recorded(m):
        pieces = real(m)
        visited.append((m, pieces))
        return pieces

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(un, "decompose", recorded)
        u = un.enumerate_indecomposables(
            algebra, bound or (2,) * algebra.quiver.n)
    assert u.complete
    return u, visited


@pytest.mark.parametrize("name", NAMES)
def test_reading_matches_decompose_on_the_closure(name):
    u, visited = _closure(name)
    assert visited
    for m, pieces in visited:
        assert u.summands(m) == decompose_reading(u, m, pieces), m.dims


@pytest.mark.parametrize("name", NAMES)
def test_reading_matches_decompose_on_maps(name):
    u, _ = _closure(name)
    seen = set()
    for x in u.indecs:
        for y in u.indecs:
            for f in hom_space(x, y).elements(nonzero=True):
                for m, _ in (kernel(f), image(f), cokernel(f)):
                    if m.key not in seen:
                        seen.add(m.key)
                        assert u.summands(m) == decompose_reading(u, m), \
                            (x.dims, y.dims, m.dims)
    assert seen


@pytest.mark.parametrize("name", NAMES)
def test_reading_matches_decompose_on_ext_middles(name):
    u, _ = _closure(name)
    seen = set()
    for i in range(u.n):
        for bag, _ in _sum_bags(u):
            for right, left in (((i,), bag), (bag, (i,))):
                if not any(u.ext_table[r][l] for r in right for l in left):
                    continue
                space = ext1(sum_module(u, right), sum_module(u, left))
                for _, ses in nonsplit_classes(space):
                    m = ses.middle
                    if m.key not in seen:
                        seen.add(m.key)
                        assert u.summands(m) == decompose_reading(u, m), \
                            (right, left, m.dims)
    assert seen


@pytest.mark.parametrize("name", NAMES)
def test_hom_inverse(name):
    u, _ = _closure(name)
    den, inverse = u.hom_inverse()
    assert den > 0
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)]
            for row in u.hom_table] == [[den * (i == j) for j in range(u.n)]
                                        for i in range(u.n)]


def _random_invertible(d, p, rng):
    while True:
        g = tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(d))
        if inverse(g, p) is not None:
            return g


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(NAMES), seed=st.integers(0, 2 ** 32 - 1),
       size=st.integers(1, 3))
def test_reading_is_basis_free(name, seed, size):
    # a random bag of members in a random basis at every vertex is read as
    # the bag
    u, _ = _closure(name)
    rng = random.Random(seed)
    bag = sorted(rng.randrange(u.n) for _ in range(size))
    m = sum_module(u, tuple(bag))
    algebra = m.algebra
    p = algebra.field.p
    basis = [_random_invertible(d, p, rng) for d in m.dims]
    inv = [inverse(g, p) for g in basis]
    maps = [linalg.matmul(linalg.matmul(basis[a.source], x, p, m.dims[a.target]),
                          inv[a.target], p, m.dims[a.target])
            for a, x in zip(algebra.quiver.arrows, m.maps)]
    moved = Module(algebra, m.dims, maps)
    assert u.summands(moved) == dict(Counter(bag))


def test_incomplete_universe_reads_nothing():
    algebra = parse_algebra((FIXTURES / "a2.quiver").read_text())
    u = un.enumerate_indecomposables(algebra, (1, 0))
    assert not u.complete
    with pytest.raises(IncompleteUniverseError):
        u.summands(u.indecs[0])


@pytest.mark.parametrize("vector, message", [
    # H^-1 [0, 1, 0] = (1, 1, -1): a negative multiplicity
    ([0, 1, 0], "Hom vector of dims (1, 0) is not a sum of members"),
    # the Hom vector of M0 = S2, read for a module of the dims of S1
    ([1, 0, 0], "members read off the Hom vector of dims (1, 0) sum to "
                "dims (0, 1)"),
])
def test_a_reading_that_fails_its_check_is_an_internal_error(
        a2, monkeypatch, vector, message):
    # a universe of its own: readings are cached, and a shared universe may
    # already hold the true reading of S1
    u = un.enumerate_indecomposables(a2, (2, 2))
    monkeypatch.setattr(un, "hom_dims_into", lambda sources, m: vector)
    s1 = u.indecs[1]
    assert s1.dims == (1, 0)
    with pytest.raises(AssertionError, match=rf"^{re.escape(message)}$"):
        u.summands(s1)


def test_a_failed_reading_exits_internal(monkeypatch, capsys):
    # never a silent fallback to decompose: the CLI reports the reading
    monkeypatch.setattr(un, "hom_dims_into",
                        lambda sources, m: [0] * len(sources))
    code = main(["heart", str(FIXTURES / "a2.quiver"), "--gens", "1.0"])
    assert code == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith(
        "internal error: members read off the Hom vector of dims")
