import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionheart import homology as ho
from torsionheart import modules as mo
from torsionheart import universe as un
from torsionheart.algebra import parse_algebra
from torsionheart.config import DEFAULT_CAPS
from torsionheart.exceptions import IncompleteUniverseError, ResourceLimitError
from torsionheart.krull import decompose, is_isomorphic

from conftest import A2_TEXT, A3_TEXT, D4_TEXT, FIXTURES, module_by_dims
from oracles import (
    all_pairs_closure, brute_submodule_count, decompose_reading, inverse,
    literal_isomorphism, nonsplit_classes, scan_indecomposables,
    socle_quotients,
)


def test_a2_universe_frozen(a2_universe):
    assert sorted(m.dims for m in a2_universe.indecs) == [(0, 1), (1, 0), (1, 1)]
    assert a2_universe.complete


def test_a3_universe_frozen(a3_universe):
    # the six interval modules of the linear quiver
    assert sorted(m.dims for m in a3_universe.indecs) == [
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1),
    ]
    assert a3_universe.complete


def test_single_vertex_universe():
    alg = parse_algebra("field 2\nvertices v\n")
    u = un.enumerate_indecomposables(alg, (2,))
    assert len(u.indecs) == 1
    assert u.complete


def test_incomplete_bound_detected():
    alg = parse_algebra(A2_TEXT)
    u = un.enumerate_indecomposables(alg, (1, 0))
    assert [m.dims for m in u.indecs] == [(1, 0)]
    assert not u.complete
    assert u.witness
    with pytest.raises(IncompleteUniverseError):
        u.require_complete()


def test_dimension_bound_gate():
    alg = parse_algebra(A2_TEXT)
    with pytest.raises(ResourceLimitError):
        un.enumerate_indecomposables(alg, (9, 9))


def test_enumeration_deterministic(a2_universe):
    alg = parse_algebra(A2_TEXT)
    again = un.enumerate_indecomposables(alg, (2, 2))
    assert [m.dims for m in again.indecs] == [m.dims for m in a2_universe.indecs]
    for a, b in zip(again.indecs, a2_universe.indecs):
        assert a.maps == b.maps


def test_all_submodules_a2(a2_universe):
    p1 = module_by_dims(a2_universe, (1, 1))
    subs = a2_universe.all_submodules(p1)
    assert sorted(s.dims for s, _ in subs) == [(0, 0), (0, 1), (1, 1)]
    for s, incl in subs:
        assert incl.is_mono()
    s1 = module_by_dims(a2_universe, (1, 0))
    assert sorted(s.dims for s, _ in a2_universe.all_submodules(s1)) == [
        (0, 0), (1, 0)]
    z = mo.zero_module(a2_universe.algebra)
    assert [s.dims for s, _ in un.all_submodules(z)] == [(0, 0)]


def test_all_quotients_a2(a2_universe):
    p1 = module_by_dims(a2_universe, (1, 1))
    quots = a2_universe.all_quotients(p1)
    assert a2_universe.all_quotients(p1) is quots
    assert sorted(q.dims for q, _ in quots) == [(0, 0), (1, 0), (1, 1)]
    for q, proj in quots:
        assert proj.is_epi()


def test_submodule_count_matches_brute(a2_universe):
    for m in a2_universe.indecs:
        assert len(a2_universe.all_submodules(m)) == brute_submodule_count(m)
    # and on a decomposable with hom in both directions absent
    s1 = module_by_dims(a2_universe, (1, 0))
    s2 = module_by_dims(a2_universe, (0, 1))
    both = mo.direct_sum([s1, s2])
    assert len(un.all_submodules(both)) == brute_submodule_count(both)


def test_submodule_product_bound(a2_universe):
    # |sub(M + N)| >= |sub(M)| * |sub(N)|, equality iff no homs between them
    s1 = module_by_dims(a2_universe, (1, 0))
    s2 = module_by_dims(a2_universe, (0, 1))
    p1 = module_by_dims(a2_universe, (1, 1))
    pairs = [(s1, s2), (s1, p1), (s2, p1)]
    from torsionheart.homology import hom_dim
    for a, b in pairs:
        total = mo.direct_sum([a, b])
        na = len(un.all_submodules(a))
        nb = len(un.all_submodules(b))
        nt = len(un.all_submodules(total))
        assert nt >= na * nb
        if hom_dim(a, b) == 0 and hom_dim(b, a) == 0:
            assert nt == na * nb
        else:
            assert nt > na * nb


def test_submodule_dim_gate(a2_universe):
    big = mo.direct_sum([module_by_dims(a2_universe, (1, 1))] * 7)
    with pytest.raises(ResourceLimitError):
        un.all_submodules(big)


def test_index_and_bitset(a2_universe):
    u = a2_universe
    p1 = module_by_dims(u, (1, 1))
    s1 = module_by_dims(u, (1, 0))
    i_p1 = u.index_of(p1)
    i_s1 = u.index_of(s1)
    both = mo.direct_sum([p1, s1])
    assert u.summand_bitset(both) == (1 << i_p1) | (1 << i_s1)
    assert u.in_class(both, (1 << i_p1) | (1 << i_s1))
    assert not u.in_class(both, 1 << i_p1)
    assert u.summand_bitset(mo.zero_module(u.algebra)) == 0
    twice = mo.direct_sum([s1, s1, p1])
    assert u.summands(twice) == {i_s1: 2, i_p1: 1}
    assert u.summands(mo.zero_module(u.algebra)) == {}


def test_index_of_reads_members_only(a2_universe):
    u = a2_universe
    s1 = module_by_dims(u, (1, 0))
    assert u.index_of(s1) == u.indecs.index(s1)
    assert u.index_of(mo.zero_module(u.algebra)) is None
    # bitset 1 << index_of(S1), but not the dims of S1
    assert u.index_of(mo.direct_sum([s1, s1])) is None


def test_index_of_reads_a_new_basis_by_hom_vectors(d4_universe, monkeypatch):
    # a member in another basis at every vertex, under a key the closure
    # never read, is found without an isomorphism test
    from torsionheart import krull, linalg

    def refuse(m, n):
        raise AssertionError("is_isomorphic called")

    monkeypatch.setattr(krull, "is_isomorphic", refuse)
    monkeypatch.setattr(un, "is_isomorphic", refuse)
    u = d4_universe
    algebra = u.algebra
    p = algebra.field.p

    def change(d, row, col):
        """The identity with one more 1 at (row, col), both below d, or with
        rows 0 and 1 swapped when row == col."""
        if row == col:
            return tuple(linalg.eye(d)[r] for r in (1, 0, *range(2, d)))
        return tuple(tuple(int(r == c or (r, c) == (row, col))
                           for c in range(d)) for r in range(d))

    # two shears and a swap: the members of d4 are AR translates and Ext
    # middle pieces, and the closure read both shears of its member
    # (1, 1, 1, 2) as pieces of other results
    moved = []
    for i, m in enumerate(u.indecs):
        for row, col in ((0, 1), (1, 0), (0, 0)):
            g = [change(d, row, col) if d > 1 else linalg.eye(d)
                 for d in m.dims]
            inv = [inverse(x, p) for x in g]
            maps = [linalg.matmul(linalg.matmul(g[a.source], x, p,
                                                m.dims[a.target]),
                                  inv[a.target], p, m.dims[a.target])
                    for a, x in zip(algebra.quiver.arrows, m.maps)]
            copy = mo.Module(algebra, m.dims, maps)
            if ("summand_bitset", copy.key) not in u.memo:
                assert u.index_of(copy) == i
                moved.append(i)
    assert moved


def test_maximal_submodules(a2_universe):
    p1 = module_by_dims(a2_universe, (1, 1))
    i = a2_universe.index_of(p1)
    maxes = a2_universe.maximal_submodules(i)
    assert [m.dims for m in maxes] == [(0, 1)]
    s1 = module_by_dims(a2_universe, (1, 0))
    assert [m.dims for m in a2_universe.maximal_submodules(
        a2_universe.index_of(s1))] == [(0, 0)]


def test_simple_socle_quotients(a2_universe):
    p1 = module_by_dims(a2_universe, (1, 1))
    i = a2_universe.index_of(p1)
    quots = a2_universe.simple_socle_quotients(i)
    assert [q.dims for q in quots] == [(1, 0)]
    # the duals of the maximal submodules of D(X) are the quotients of X by
    # its socle lines, compared as iso classes: the two lists come in
    # another order on the member (1,1,1,2) of d4, and one quotient of the
    # member (1,2,3,2,1,1) of e6 has other matrices
    for name, bound in [("a2", 2), ("a3", 2), ("a4", 2), ("d4", 2),
                        ("d5", 2), ("loop", 2), ("square", 2), ("e6", 3)]:
        alg = parse_algebra((FIXTURES / f"{name}.quiver").read_text())
        u = un.enumerate_indecomposables(alg, (bound,) * alg.quiver.n)

        def iso_classes(mods):
            return sorted(sorted(u.summands(m).items()) for m in mods)

        for i, x in enumerate(u.indecs):
            assert iso_classes(u.simple_socle_quotients(i)) == \
                iso_classes(socle_quotients(x))


def test_ext_middles(a2_universe):
    # Ext^1(S1, S2) has one non-split class, with middle P1; Ext^1(S2, S1) = 0
    u = a2_universe
    s1 = u.index_of(module_by_dims(u, (1, 0)))
    s2 = u.index_of(module_by_dims(u, (0, 1)))
    p1 = u.index_of(module_by_dims(u, (1, 1)))
    assert u.ext_middles((s1,), (s2,)) == [1 << p1]
    assert u.ext_middles((s2,), (s1,)) == []


def test_ext_middles_check_the_cap_on_the_sum(monkeypatch):
    # Ext^1(S1, S2 + S2) has two blocks of dimension 1: each fits the cap
    # of 1, their sum does not, and nothing is realized before the raise
    from torsionheart import homology as ho
    alg = parse_algebra(A2_TEXT, DEFAULT_CAPS._replace(ext_dim_cap=1))
    u = un.enumerate_indecomposables(alg, (2, 2))
    s1 = u.index_of(module_by_dims(u, (1, 0)))
    s2 = u.index_of(module_by_dims(u, (0, 1)))

    def no_pushout(f, g):
        raise AssertionError("pushout before the cap check")

    monkeypatch.setattr(ho, "pushout", no_pushout)
    with pytest.raises(ResourceLimitError,
                       match=r"^ext scan of size 2\^2 exceeds cap$"):
        u.ext_middles((s1,), (s2, s2))


def test_empty_universe_completeness():
    # no module fits a zero bound: nothing escapes, but the simples are missing
    alg = parse_algebra(A2_TEXT)
    u = un.enumerate_indecomposables(alg, (0, 0))
    assert (u.indecs, u.complete, u.witness) == (
        (), False, "simple at vertex 0 outside")


def test_completeness_check_gates_the_ext_scan():
    # the closure lists the non-split classes of Ext^1(S1, S2) through the
    # scan gate, and scans no Hom space
    alg = parse_algebra(A2_TEXT, DEFAULT_CAPS._replace(scan_count_cap=1))
    with pytest.raises(ResourceLimitError,
                       match=r"^ext scan of size 2\^1 exceeds cap$"):
        un.enumerate_indecomposables(alg, (2, 2))


def test_closure_memo_is_bounded_by_the_universe():
    # A3 over F_3: what the closure caches on the algebra stays within a
    # few entries per pair of members
    alg = parse_algebra(A3_TEXT, field_override=3)
    u = un.enumerate_indecomposables(alg, (2, 2, 2))
    assert u.complete
    assert len(alg.memo) <= 3 * u.n ** 2
    assert [m.dims for m in u.indecs] == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1),
    ]
    assert list(map(list, u.hom_table)) == [
        [1, 0, 0, 1, 0, 1], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 0],
        [0, 1, 0, 1, 1, 1], [0, 0, 1, 0, 1, 0], [0, 0, 1, 0, 1, 1],
    ]
    assert list(map(list, u.ext_table)) == [
        [0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0], [1, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0],
    ]


def test_closure_decomposes_each_key_once(monkeypatch):
    keys = []

    def counted(m):
        keys.append(m.key)
        return decompose(m)

    monkeypatch.setattr(un, "decompose", counted)
    alg = parse_algebra(D4_TEXT)
    assert un.enumerate_indecomposables(alg, (2, 2, 2, 2)).complete
    assert keys and len(keys) == len(set(keys))


def test_indec_a3_f3_realizes_one_class_per_line(monkeypatch, capsys):
    # over F_3 each line of Ext^1 holds two classes, and the closure
    # realizes and decomposes only the first: 5 realizations and 7
    # decompositions on a3, against 10 and 12 class by class
    from torsionheart.cli import main
    realized, split = [], []
    middle = un.ext_middle

    def counted_middle(rights, lefts, blocks):
        realized.append(tuple(c for _, cs in sorted(blocks.items())
                              for c in cs))
        return middle(rights, lefts, blocks)

    def counted_decompose(m):
        split.append(m.key)
        return decompose(m)

    monkeypatch.setattr(un, "ext_middle", counted_middle)
    monkeypatch.setattr(un, "decompose", counted_decompose)
    assert main(["indec", str(FIXTURES / "a3.quiver"), "--field", "3"]) == 0
    capsys.readouterr()
    assert 0 < len(realized) <= 5
    assert all(next(c for c in coeffs if c) == 1 for coeffs in realized)
    assert 0 < len(split) <= 7


# Every bundled fixture at its default bound, and every incomplete bound of
# test_cli.py, as (fixture, field override, bound).  The Nakayama algebra's
# projectives are projective-injective with non-simple radicals, members
# at which the closure takes no AR translate.
SCAN_CASES = [
    ("a2", None, (2, 2)), ("a3", None, (2, 2, 2)), ("a3", 3, (2, 2, 2)),
    ("d4", None, (2, 2, 2, 2)), ("loop", None, (2,)),
    ("square", None, (2, 2, 2, 2)), ("square", None, (1, 1, 1, 1)),
    ("a2", None, (1, 0)), ("a2", None, (0, 0)), ("loop", None, (1,)),
    ("d4", None, (1, 1, 1, 1)), ("nakayama", None, (2, 2)),
    ("nakayama", None, (1, 1)),
]


@pytest.mark.parametrize("name, field, bound", SCAN_CASES)
def test_closure_matches_the_scan(name, field, bound):
    text = (FIXTURES / f"{name}.quiver").read_text()
    closed = un.enumerate_indecomposables(
        parse_algebra(text, field_override=field), bound).indecs
    scanned = scan_indecomposables(parse_algebra(text, field_override=field),
                                   bound)
    assert [m.dims for m in closed] == [m.dims for m in scanned]
    # members of equal dims may come in another order: on nakayama the
    # closure lists the member of dims (1, 1) on which x acts first, the
    # scan the one on which y acts
    assert all(sum(is_isomorphic(x, y) for y in scanned if y.dims == x.dims)
               == 1 for x in closed)


def test_scan_forgets_rejected_candidates():
    # A3 over F_3 tries thousands of candidates for six indecomposables; the
    # Hom spaces of the rejected ones must not stay in the algebra's memo.
    alg = parse_algebra(A3_TEXT, field_override=3)
    found = scan_indecomposables(alg, (2, 2, 2))
    assert len(found) == 6
    assert len(alg.memo) <= 3 * len(found) ** 2


def test_candidate_cap_checked_before_any_candidate(monkeypatch):
    # Over F_2 with bound (2, 2) only the last dimension vector (2, 2), with
    # 2^4 candidates, is over a cap of 8; no candidate may be built first.
    import oracles
    alg = parse_algebra(A2_TEXT)
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return mo.Module(*args, **kwargs)

    monkeypatch.setattr(oracles, "Module", counting)
    with pytest.raises(ResourceLimitError,
                       match=r"candidate scan at dims \(2, 2\) needs 2\^4"):
        scan_indecomposables(alg, (2, 2), candidate_cap=8)
    assert built == []


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 80))
def test_bit_indices_match_the_literal_loop(bits):
    expected, i, rest = [], 0, bits
    while rest:
        if rest & 1:
            expected.append(i)
        rest >>= 1
        i += 1
    assert un.bit_indices(bits) == expected


KRONECKER_F3 = "field 3\nvertices 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n"

# (quiver text, field override, bound): the closure realizes one class per
# line of Ext^1, so these run at odd primes, where a line holds p - 1
# classes; the Kronecker quiver's universes are incomplete
LINE_CASES = [
    pytest.param((FIXTURES / "a3.quiver").read_text(), 3, (2, 2, 2), id="a3-f3"),
    pytest.param((FIXTURES / "a3.quiver").read_text(), 5, (2, 2, 2), id="a3-f5"),
    pytest.param((FIXTURES / "d4.quiver").read_text(), 3, (2, 2, 2, 2),
                 id="d4-f3"),
    pytest.param((FIXTURES / "loop.quiver").read_text(), None, (2,), id="loop"),
    pytest.param((FIXTURES / "nakayama.quiver").read_text(), None, (2, 2),
                 id="nakayama"),
    pytest.param(KRONECKER_F3, None, (1, 1), id="kronecker-1-1"),
    pytest.param(KRONECKER_F3, None, (2, 2), id="kronecker-2-2"),
]


def _same_pieces(m, pieces) -> bool:
    """M has the given indecomposable pieces up to isomorphism, each
    isomorphism found by the literal scan of a Hom space."""
    rest = list(pieces)
    for piece in decompose(m):
        at = next((i for i, x in enumerate(rest) if x.dims == piece.dims
                   and literal_isomorphism(piece, x) is not None), None)
        if at is None:
            return False
        rest.pop(at)
    return not rest


@pytest.mark.parametrize("text, field, bound", LINE_CASES)
def test_every_class_of_a_line_has_the_middle_of_its_first(text, field, bound):
    # each class of every ordered pair of members is realized on its own:
    # the first class of its line in the scan order is the one with leading
    # coefficient 1, and the middle of every class decomposes into the
    # members of that first class's middle.  On a complete universe the
    # universe's Ext middles of each pair are the decomposition readings of
    # every class.  The Kronecker quiver's members come from the all-pairs
    # closure, which reaches its regular modules
    alg = parse_algebra(text, field_override=field)
    u = un.enumerate_indecomposables(alg, bound)
    members = u.indecs if u.complete else all_pairs_closure(alg, bound)[0]
    p = alg.field.p
    lines = 0
    for i, x in enumerate(members):
        for j, y in enumerate(members):
            space = ho.ext1(x, y)
            if not space.dim:
                continue
            first, readings = {}, []
            for coeffs, ses in nonsplit_classes(space):
                line = ho.ext_line(coeffs, p)
                if line not in first:
                    assert line == tuple(coeffs)
                    first[line] = decompose(ses.middle)
                    lines += 1
                else:
                    assert _same_pieces(ses.middle, first[line]), \
                        (i, j, coeffs)
                if u.complete:
                    readings.append(sum(1 << k for k in
                                        decompose_reading(u, ses.middle)))
            if u.complete:
                assert u.ext_middles((i,), (j,)) == readings, (i, j)
    assert lines


@pytest.mark.parametrize("text, field, bound", LINE_CASES[:5])
def test_mixed_classes_of_a_line_share_its_middle(text, field, bound):
    # the mixed classes of two sums of members are realized once per line
    # too: on every pair with two or more nonzero blocks, adding the split
    # middle back to the universe's list gives the multiset of the middles
    # of every class realized on the sums
    from collections import Counter
    from torsionheart.heart import _sum_bags
    from oracles import all_ext_classes, sum_module
    u = un.enumerate_indecomposables(
        parse_algebra(text, field_override=field), bound)
    assert u.complete
    bags = [bag for bag, _ in _sum_bags(u)]
    mixed = 0
    for right, left in [pair for i in range(u.n) for bag in bags
                        for pair in (((i,), bag), (bag, (i,)))]:
        if sum(1 for r in right for l in left if u.ext_table[r][l]) < 2:
            continue
        mixed += 1
        space = ho.ext1(sum_module(u, right), sum_module(u, left))
        every = Counter(u.summand_bitset(ses.middle)
                        for _, ses in all_ext_classes(space))
        split = sum(1 << x for x in set(right + left))
        assert Counter(u.ext_middles(right, left)) + Counter([split]) \
            == every, (right, left)
    assert mixed


# Every bundled fixture at the default bound of 2 but e7, a3 over F_3, the
# Kronecker quiver, and E6 at bound 3, which holds every positive root, as
# (quiver text, field override, bound).  E7 is left out for time: its
# all-pairs closure at bound 2 takes about 3 s, and its complete universe
# is checked against the positive roots in test_theorems.py
CLOSURE_CASES = [
    *(pytest.param((FIXTURES / f"{name}.quiver").read_text(), None, None,
                   id=name)
      for name in ("a2", "a3", "a4", "d4", "d5", "e6", "loop", "nakayama",
                   "square")),
    pytest.param((FIXTURES / "a3.quiver").read_text(), 3, None, id="a3-f3"),
    pytest.param(KRONECKER_F3, None, (1, 1), id="kronecker-1-1"),
    pytest.param(KRONECKER_F3, None, (2, 2), id="kronecker-2-2"),
    pytest.param((FIXTURES / "e6.quiver").read_text(), None, (3,) * 6,
                 id="e6-3"),
]


@pytest.mark.parametrize("text, field, bound", CLOSURE_CASES)
def test_ar_closure_matches_the_all_pairs_closure(text, field, bound):
    # the closure under AR sequences gives the verdict of the closure under
    # the Ext middles of every pair of members; its members are iso classes
    # of that closure's members, and on a complete universe all of them, in
    # the same order of dims.  On an incomplete one the all-pairs closure
    # may reach more, such as the regular Kronecker modules
    algebra = parse_algebra(text, field_override=field)
    bound = bound or (2,) * algebra.quiver.n
    u = un.enumerate_indecomposables(algebra, bound)
    members, witness = all_pairs_closure(
        parse_algebra(text, field_override=field), bound)
    assert u.complete == (witness is None)
    matched = [next((j for j, y in enumerate(members) if y.dims == x.dims
                     and literal_isomorphism(x, y) is not None), None)
               for x in u.indecs]
    assert None not in matched and len(set(matched)) == len(matched)
    if u.complete:
        assert [m.dims for m in u.indecs] == [m.dims for m in members]


@pytest.mark.parametrize("text, field, bound", CLOSURE_CASES)
def test_hom_ext_tables_match_recomputation(text, field, bound):
    # the Ext table is read off Hom dimensions; the literal Ext^1 spaces and
    # Hom spaces are the reference, complete universe or not
    algebra = parse_algebra(text, field_override=field)
    u = un.enumerate_indecomposables(algebra, bound or (2,) * algebra.quiver.n)
    assert u.hom_table == tuple(tuple(ho.hom_dim(x, y) for y in u.indecs)
                                for x in u.indecs)
    assert u.ext_table == tuple(tuple(ho.ext1(x, y).dim for y in u.indecs)
                                for x in u.indecs)


def _closure_ext_reads(monkeypatch, text, bound):
    """(universe, [(M, N) per Ext^1(M, N) built], [(M, N, class) per class
    realized], [tau M or tau^-1 M per translate taken]) of a closure run on
    a fresh algebra."""
    built, realized, translated = [], [], []
    init, middle = ho.Ext1Space.__init__, un.ext_middle

    def recorded_init(self, m, n):
        built.append((m, n))
        init(self, m, n)

    def recorded_middle(rights, lefts, blocks):
        [m], [n], [coeffs] = rights, lefts, blocks.values()
        realized.append((m.key, n.key, tuple(coeffs)))
        return middle(rights, lefts, blocks)

    def recorded(translate):
        def run(m):
            translated.append(translate(m))
            return translated[-1]
        return run

    monkeypatch.setattr(ho.Ext1Space, "__init__", recorded_init)
    monkeypatch.setattr(un, "ext_middle", recorded_middle)
    for name in ("ar_translate", "ar_translate_inverse"):
        monkeypatch.setattr(un, name, recorded(getattr(un, name)))
    u = un.enumerate_indecomposables(parse_algebra(text), bound)
    monkeypatch.undo()
    return u, built, realized, translated


AR_CASES = [
    pytest.param((FIXTURES / f"{name}.quiver").read_text(), bound, id=name)
    for name, bound in (("a3", (2,) * 3), ("d4", (2,) * 4), ("loop", (2,)),
                        ("square", (2,) * 4), ("nakayama", (2, 2)),
                        ("e6", (3,) * 6))]


@pytest.mark.parametrize("text, bound", AR_CASES)
def test_closure_builds_ext_only_of_ar_pairs(text, bound, monkeypatch):
    # the closure builds Ext^1(M, N) only for N = tau M: the pairs
    # (X, tau X) and (tau^-1 X, X) of its members, and building the
    # universe builds no Ext table
    _, built, _, _ = _closure_ext_reads(monkeypatch, text, bound)
    assert built
    assert all(not ho.is_projective(m) and is_isomorphic(ho.ar_translate(m), n)
               for m, n in built)


@pytest.mark.parametrize("text, bound", AR_CASES)
def test_closure_reads_each_ar_pair_once(text, bound, monkeypatch):
    # an AR pair is read from whichever side reaches it first: at most one
    # Ext^1 per member that is not projective, and no class realized twice
    u, built, realized, _ = _closure_ext_reads(monkeypatch, text, bound)
    assert len(built) <= sum(not ho.is_projective(x) for x in u.indecs)
    assert realized and len(realized) == len(set(realized))


@pytest.mark.parametrize("text, bound", AR_CASES)
def test_closure_takes_one_translate_per_ar_pair(text, bound, monkeypatch):
    # tau^-1 tau X = X: a translate read as a member gives the other side
    # of its AR pair, so every translate taken either opens an AR pair,
    # whose Ext^1 is built, or escapes the bound; on a complete universe
    # the AR pairs are the members that are not projective
    u, built, _, translated = _closure_ext_reads(monkeypatch, text, bound)
    escapes = sum(any(d > b for d, b in zip(t.dims, bound))
                  for t in translated)
    assert len(translated) == len(built) + escapes
    if u.complete:
        assert escapes == 0
        assert len(built) == sum(not ho.is_projective(x) for x in u.indecs)


@pytest.mark.parametrize("text, bound", AR_CASES)
def test_is_injective_matches_the_envelope(text, bound):
    # M is injective iff D(M) is projective, held to the literal reading:
    # the injective envelope of M is an isomorphism
    algebra = parse_algebra(text)
    u = un.enumerate_indecomposables(algebra, bound)
    n = algebra.quiver.n
    modules = [*u.indecs,
               *(mo.projective_module(algebra, v) for v in range(n)),
               *(mo.injective_module(algebra, v) for v in range(n)),
               *(mo.direct_sum([x, y]) for i, x in enumerate(u.indecs)
                 for y in u.indecs[i:])]
    verdicts = [ho.is_injective(m) for m in modules]
    assert verdicts == [ho.injective_envelope(m).is_iso() for m in modules]
    assert any(verdicts) and not all(verdicts)
