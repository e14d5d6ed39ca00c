import pytest

from torsionheart import krull as kr
from torsionheart import modules as mo
from torsionheart import universe as un
from torsionheart.algebra import parse_algebra
from torsionheart.config import DEFAULT_CAPS
from torsionheart.exceptions import ResourceLimitError
from torsionheart.homology import hom_space
from torsionheart.universe import enumerate_indecomposables

from conftest import A2_TEXT, FIXTURES, standard_modules
from oracles import (
    all_pairs_closure, brute_is_indecomposable, has_section,
    literal_is_brick, literal_isomorphism,
)


@pytest.fixture(scope="module")
def a2():
    return parse_algebra(A2_TEXT)


@pytest.fixture(scope="module")
def std(a2):
    return standard_modules(a2)


def test_decompose_known_sum(a2, std):
    simples, projectives, _ = std
    m = mo.Module(a2, (2, 1), [[[1], [0]]])
    assert sorted(x.dims for x in kr.decompose(m)) == [(1, 0), (1, 1)]


def test_decompose_square(a2, std):
    _, projectives, _ = std
    mm = mo.direct_sum([projectives[0], projectives[0]])
    pieces = kr.decompose(mm)
    assert [x.dims for x in pieces] == [(1, 1), (1, 1)]
    assert kr.is_isomorphic(pieces[0], pieces[1])


def test_decompose_zero(a2):
    assert kr.decompose(mo.zero_module(a2)) == []


def test_decompose_idempotent(a2, std):
    simples, projectives, _ = std
    m = mo.Module(a2, (2, 1), [[[1], [0]]])
    for piece in kr.decompose(m):
        again = kr.decompose(piece)
        assert len(again) == 1
        assert kr.is_isomorphic(again[0], piece)


def test_decompose_iso_certificate(a2, std):
    m = mo.Module(a2, (2, 2), [[[1, 0], [0, 0]]])
    pieces = kr.decompose(m)
    # decompose checks its own glue map; the sum of the pieces is also
    # isomorphic to M by the literal definition
    assert literal_isomorphism(mo.direct_sum(pieces, a2), m) is not None
    assert sorted(x.total_dim for x in pieces) in ([1, 1, 2], [1, 3], [2, 2], [1, 1, 1, 1])
    total = sum(x.total_dim for x in pieces)
    assert total == 4


def test_indecomposability_matches_brute_oracle(a2):
    # every A2 representation with dims <= (2,2) over F_2
    from itertools import product
    for d1 in range(3):
        for d2 in range(3):
            if d1 + d2 == 0:
                continue
            for flat in product(range(2), repeat=d1 * d2):
                mat = [flat[i * d2:(i + 1) * d2] for i in range(d1)]
                m = mo.Module(a2, (d1, d2), [mat])
                assert kr.is_indecomposable(m) == brute_is_indecomposable(m)


def test_is_brick(a2, std):
    simples, projectives, _ = std
    assert kr.is_brick(projectives[0])
    assert kr.is_brick(simples[0])
    mm = mo.direct_sum([projectives[0], projectives[0]])
    assert not kr.is_brick(mm)
    with pytest.raises(ValueError):
        kr.is_brick(mo.zero_module(a2))


KRONECKER_F2 = "field 2\nvertices 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n"
# the second arrow of two regular Kronecker modules (I, C) over F_2: C the
# companion matrix of t^2 + t + 1, End = F_4, or a nilpotent Jordan block,
# End = F_2[eps]
COMPANION, JORDAN = [[0, 1], [1, 1]], [[0, 1], [0, 0]]


def _kronecker(second, caps=DEFAULT_CAPS):
    alg = parse_algebra(KRONECKER_F2, caps)
    return mo.Module(alg, (2, 2), [[[1, 0], [0, 1]], second])


def test_frobenius_brick_certificate():
    # companion matrix of t^2+t+1 acting on a 2-dim space at one vertex of a
    # relationless loop is not allowed (non-admissible), so exercise the
    # Frobenius path on a module with End = F_4 over the Kronecker-style
    # double arrow quiver instead
    m = _kronecker(COMPANION)
    assert hom_space(m, m).dim == 2  # End = F_4
    assert kr.is_indecomposable(m)
    assert kr.is_brick(m)


def test_not_brick_with_nilpotents():
    m = _kronecker(JORDAN)
    assert hom_space(m, m).dim == 2  # End = F_2[eps]
    assert kr.is_indecomposable(m)
    assert not kr.is_brick(m)


def _brick_cases():
    """Every member of seven fixture cases at the default bound, three sums
    over A2 and the two Kronecker modules."""
    cases = []
    for name, field in (("a2", None), ("a3", None), ("a3", 3), ("d4", None),
                        ("loop", None), ("square", None), ("nakayama", None)):
        algebra = parse_algebra((FIXTURES / f"{name}.quiver").read_text(),
                                field_override=field)
        cases += enumerate_indecomposables(
            algebra, (2,) * algebra.quiver.n).indecs
    a2 = parse_algebra(A2_TEXT)
    simples, projectives, _ = standard_modules(a2)
    s1, s2 = simples
    cases += [mo.direct_sum(summands, a2) for summands in (
        [projectives[0], projectives[0]], [s1, s2], [s1, s1, s2])]
    return cases + [_kronecker(COMPANION), _kronecker(JORDAN)]


def test_is_brick_matches_the_definition():
    # the Frobenius rank and fixed-space test against the definition: every
    # nonzero endomorphism is an isomorphism
    cases = _brick_cases()
    verdicts = [kr.is_brick(m) for m in cases]
    assert verdicts == [literal_is_brick(m) for m in cases]
    assert verdicts[-5:] == [False, False, False, True, False]


def test_idempotent_search_beyond_the_scan_cap():
    # beyond the cap the basis and the pairwise sums still split
    # S1 + S1 + S2, whose End has dimension 5; a local End over the cap has
    # no such witness, and the search stops at the scan gate
    caps = DEFAULT_CAPS._replace(scan_count_cap=2)
    a2 = parse_algebra(A2_TEXT, caps)
    s1, s2 = (mo.simple_module(a2, v) for v in (0, 1))
    m = mo.direct_sum([s1, s1, s2], a2)
    assert hom_space(m, m).dim == 5
    assert sorted(x.dims for x in kr.decompose(m)) == [(0, 1), (1, 0), (1, 0)]
    for second in (COMPANION, JORDAN):
        with pytest.raises(ResourceLimitError,
                           match=r"^hom scan of size 2\^2 exceeds cap$"):
            kr.is_indecomposable(_kronecker(second, caps))


def test_is_isomorphic(a2, std):
    simples, projectives, _ = std
    p1 = projectives[0]
    # another presentation of P(1) after base change (trivial over F_2 at
    # dims (1,1), so build (2,2) examples instead)
    m1 = mo.Module(a2, (2, 2), [[[1, 0], [0, 1]]])
    m2 = mo.Module(a2, (2, 2), [[[0, 1], [1, 0]]])
    # m1 and m2 are both P(1) + P(1), and m3 is P(1) + S(1) + S(2): sums,
    # which the exact test does not take, so compare them by the definition
    assert literal_isomorphism(m1, m2) is not None
    m3 = mo.Module(a2, (2, 2), [[[1, 0], [0, 0]]])
    assert literal_isomorphism(m1, m3) is None
    assert not kr.is_isomorphic(simples[0], simples[1])
    assert kr.is_isomorphic(mo.zero_module(a2), mo.zero_module(a2))


def test_hom_fingerprint_consistency(a2_universe=None):
    # isomorphic modules have equal hom dimensions against the universe
    from torsionheart.universe import enumerate_indecomposables
    from torsionheart.homology import hom_dim
    alg = parse_algebra(A2_TEXT)
    u = enumerate_indecomposables(alg, (2, 2))
    m1 = mo.Module(alg, (2, 2), [[[1, 0], [0, 1]]])
    m2 = mo.Module(alg, (2, 2), [[[0, 1], [1, 0]]])
    for x in u.indecs:
        assert hom_dim(m1, x) == hom_dim(m2, x)
        assert hom_dim(x, m1) == hom_dim(x, m2)


def test_every_epi_onto_projective_splits(a2, std):
    # solve for a section of each epi onto P(v)
    from torsionheart.homology import hom_space
    from torsionheart import linalg
    simples, projectives, _ = std
    p1 = projectives[0]
    src = mo.direct_sum([p1, simples[0]])
    h = hom_space(src, p1)
    for coeffs in linalg.vectors(h.dim, 2):
        f = h.from_coords(coeffs)
        if f.is_epi():
            assert has_section(f)


def test_split_without_roots_in_the_field():
    # Kronecker quiver over F_3, M = R(t^2+1) + R(t^2+t+2) with R(f) the
    # regular module (I, companion of f): End(M) = F_9 x F_9, and the minimal
    # polynomial (t^2+1)(t^2+t+2) of x = diag(C1, C2) has no root in F_3
    alg = parse_algebra(
        "field 3\nvertices 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n")
    c1 = [[0, 1], [2, 0]]  # t^2 + 1
    c2 = [[0, 1], [1, 2]]  # t^2 + t + 2
    one = [[1, 0], [0, 1]]
    r1 = mo.Module(alg, (2, 2), [one, c1])
    r2 = mo.Module(alg, (2, 2), [one, c2])
    m = mo.direct_sum([r1, r2], alg)
    diag = [row + [0, 0] for row in c1] + [[0, 0] + row for row in c2]
    x = mo.Morphism(m, m, [diag, diag])
    e = kr.split_idempotent(x, 3)
    assert e is not None and e.then(e) == e
    assert not e.is_zero() and e != mo.identity_morphism(m)
    assert kr.split_idempotent(mo.Morphism(r1, r1, [c1, c1]), 3) is None
    pieces = kr.decompose(m)
    assert [piece.dims for piece in pieces] == [(2, 2)] * 2
    assert not kr.is_isomorphic(pieces[0], pieces[1])


KRONECKER_F3 = "field 3\nvertices 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n"


def _agree(m, n) -> bool:
    """The exact and the literal isomorphism test agree on (M, N): both
    None, or both an isomorphism M -> N."""
    exact, literal = kr.isomorphism(m, n), literal_isomorphism(m, n)
    if exact is None or literal is None:
        return exact is None and literal is None
    return all(f.source == m and f.target == n and f.is_iso()
               for f in (exact, literal))


def test_isomorphism_agrees_with_the_definition_on_members():
    # every ordered pair of same-dims members; the Kronecker quiver over F_3
    # has seven pairwise non-isomorphic members of dims (2, 2) in the
    # all-pairs closure, whose Ext middles reach its regular modules
    universes = [all_pairs_closure(parse_algebra(KRONECKER_F3), (2, 2))[0]]
    for name, field in (("a2", None), ("a3", 3), ("d4", None), ("loop", None),
                        ("square", None), ("nakayama", None)):
        algebra = parse_algebra((FIXTURES / f"{name}.quiver").read_text(),
                                field_override=field)
        universes.append(
            enumerate_indecomposables(algebra, (2,) * algebra.quiver.n).indecs)
    pairs = [(x, y) for members in universes for x in members
             for y in members if x.dims == y.dims]
    assert (len(pairs), sum(x is not y for x, y in pairs)) == (111, 56)
    for x, y in pairs:
        assert _agree(x, y), (x.dims, x.key, y.key)
        assert kr.is_isomorphic(x, y) == (x is y)


@pytest.mark.parametrize("name", ["d4", "square"])
def test_isomorphism_agrees_with_the_definition_on_closure_pieces(
        name, monkeypatch):
    # every piece the closure decomposes, against every member
    algebra = parse_algebra((FIXTURES / f"{name}.quiver").read_text())
    pieces = []
    real = un.decompose

    def recorded(m):
        got = real(m)
        pieces.extend(got)
        return got

    monkeypatch.setattr(un, "decompose", recorded)
    u = enumerate_indecomposables(algebra, (2,) * algebra.quiver.n)
    assert u.complete and pieces
    for piece in pieces:
        for x in u.indecs:
            assert _agree(piece, x), (piece.dims, piece.key, x.key)
