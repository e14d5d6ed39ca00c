"""Differential tests of the modules the package cuts out of a map with
`modules.kernel` and `modules.cokernel`, each against the body it replaced,
kept in tests/oracles.py as the reference: the preimage of a simple torsion
Q in the cover of E(Q) against the pullback, the essentiality test read off
the cokernel against the intersection of row spaces, the split by an
idempotent against its row-level body, and the listed quotients against
the quotients by the rows of each inclusion."""

from functools import cache

import pytest

from torsionheart import heart as he
from torsionheart import krull as kr
from torsionheart import universe as un
from torsionheart.algebra import parse_algebra
from torsionheart.cotilting import special_cover
from torsionheart.exceptions import ResourceLimitError
from torsionheart.homology import injective_envelope
from torsionheart.modules import (
    block_morphism, direct_sum, identity_morphism, injective_module, kernel,
    quotient_by_rows,
)
from torsionheart.torsion import is_hereditary
from torsionheart.universe import bit_indices
from torsionheart.verify import build_context

from conftest import FIXTURES, universe_of
from oracles import (
    intersection_essentiality, literal_isomorphism, pullback,
    row_split_by_idempotent,
)
from test_universe import CLOSURE_CASES

NAMES = ["a2", "a3", "d4", "loop", "square", "nakayama"]


def _universe(name):
    text = (FIXTURES / f"{name}.quiver").read_text()
    return universe_of(text, (2,) * parse_algebra(text).quiver.n)


@cache
def _context(name):
    return build_context(_universe(name))


@pytest.mark.parametrize("name", NAMES)
def test_preimage_is_the_pullback(name, monkeypatch):
    # the cover middle W of Q that hereditary_cover_check cuts as a kernel
    # is the pullback of the cover of E(Q) along the mono Q -> E(Q)
    ctx = _context(name)
    u = ctx.universe
    checked = 0
    for data in ctx.cotilting_pairs:
        if not is_hereditary(data.pair):
            continue
        for i in bit_indices(data.pair.torsion_bits):
            q = u.indecs[i]
            if q.total_dim != 1:
                continue
            cut = []
            monkeypatch.setattr(he, "kernel",
                                lambda f: cut.append(kernel(f)) or cut[-1])
            assert he.hereditary_cover_check(q, data).ok
            monkeypatch.undo()
            env = injective_envelope(q)
            w = pullback(special_cover(env.target, data).surject, env)[0]
            assert len(cut) == 1
            assert literal_isomorphism(cut[0][0], w) is not None, (i, data.pair)
            checked += 1
    assert checked == {"a2": 1, "a3": 4, "d4": 12, "loop": 0, "square": 12,
                       "nakayama": 0}[name]


@pytest.mark.parametrize("name", NAMES)
def test_essentiality_matches_the_intersection(name):
    # True on the injective envelope of every member and of every sum of two
    # members, and on each side the same gate beyond the submodule cap;
    # False on the inclusion of each member X into X + I(v)
    u = _universe(name)
    algebra = u.algebra
    for i in range(u.n):
        for bag in [[i], *([i, j] for j in range(i, u.n))]:
            env = injective_envelope(direct_sum([u.indecs[k] for k in bag],
                                                algebra))
            if env.target.total_dim > algebra.caps.submodule_dim_cap:
                for check in (he.essentiality_check,
                              intersection_essentiality):
                    with pytest.raises(ResourceLimitError):
                        check(env, u)
                continue
            assert he.essentiality_check(env, u), bag
            assert intersection_essentiality(env, u), bag
        x = u.indecs[i]
        for v in range(algebra.quiver.n):
            incl = block_morphism([x], [x, injective_module(algebra, v)],
                                  {(0, 0): identity_morphism(x)})
            assert not he.essentiality_check(incl, u), (i, v)
            assert not intersection_essentiality(incl, u), (i, v)


@pytest.mark.parametrize("text, field, bound", CLOSURE_CASES)
def test_split_by_idempotent_matches_the_row_split(text, field, bound,
                                                   monkeypatch):
    # every idempotent the closure splits by, one per summand beyond the
    # first of each module it decomposes, gives the halves and the
    # inclusions of the row-level split, matrix for matrix
    split, pieces = [], []
    find, decompose = kr.nontrivial_idempotent, un.decompose

    def spy(m):
        e = find(m)
        if e is not None:
            split.append((m, e))
        return e

    monkeypatch.setattr(kr, "nontrivial_idempotent", spy)
    monkeypatch.setattr(un, "decompose",
                        lambda m: pieces.append(decompose(m)) or pieces[-1])
    algebra = parse_algebra(text, field_override=field)
    un.enumerate_indecomposables(algebra, bound or (2,) * algebra.quiver.n)
    monkeypatch.undo()
    assert len(split) == sum(len(found) - 1 for found in pieces)
    for m, e in split:
        assert kr._split_by_idempotent(m, e) == row_split_by_idempotent(m, e)


@pytest.mark.parametrize("name", NAMES)
def test_quotients_are_the_quotients_by_rows(name):
    u = _universe(name)
    for m in u.indecs:
        assert u.all_quotients(m) == [quotient_by_rows(m, incl.maps)
                                      for _, incl in u.all_submodules(m)]
