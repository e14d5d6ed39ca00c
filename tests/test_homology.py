import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionheart import homology as ho
from torsionheart import linalg
from torsionheart import modules as mo
from torsionheart.algebra import parse_algebra
from torsionheart.config import DEFAULT_CAPS
from torsionheart.exceptions import ResourceLimitError
from torsionheart.heart import essentiality_check
from torsionheart.universe import enumerate_indecomposables

from conftest import A2_TEXT, A3_TEXT, FIXTURES, standard_modules
from oracles import (
    all_ext_classes, brute_ext_dim_hereditary, constrained_morphism,
    ext_class_of, factor_over, fitting_idempotent, has_section,
    injective_dimension, is_left_approximation, is_left_minimal,
    is_right_approximation, is_right_minimal, literal_injective_module,
    literal_isomorphism, literal_presentation, literal_transpose,
    nonsplit_classes, pullback, realize, realize_cocycle, socle_envelope,
)


@pytest.fixture(scope="module")
def a2():
    return parse_algebra(A2_TEXT)


@pytest.fixture(scope="module")
def std(a2):
    return standard_modules(a2)


def test_hom_dims_a2(std):
    simples, projectives, _ = std
    s1, s2, p1 = simples[0], simples[1], projectives[0]
    # frozen from the full-scan oracle
    assert ho.hom_dim(p1, s1) == 1
    assert ho.hom_dim(p1, s2) == 0
    assert ho.hom_dim(s2, p1) == 1
    assert ho.hom_dim(s1, p1) == 0
    for x in (s1, s2, p1):
        assert ho.hom_dim(x, x) == 1


def test_hom_space_contains_identity(std):
    _, projectives, _ = std
    end = ho.hom_space(projectives[0], projectives[0])
    ident = mo.identity_morphism(projectives[0])
    assert any(b == ident for b in end.basis)


def test_ext_dims_match_euler_oracle(std):
    simples, projectives, injectives = std
    mods = [simples[0], simples[1], projectives[0]]
    for x in mods:
        for y in mods:
            assert ho.ext1(x, y).dim == brute_ext_dim_hereditary(x, y)
    # projective source kills ext
    for y in mods:
        assert ho.ext1(projectives[0], y).dim == 0
        assert ho.ext1(projectives[1], y).dim == 0


def test_ext_s1_s2_realization(std):
    simples, projectives, _ = std
    space = ho.ext1(simples[0], simples[1])
    assert space.dim == 1
    ses = realize(space, [1])
    assert ses.middle.dims == (1, 1)
    assert not has_section(ses.surject)
    assert ses.validate()
    split = realize(space, [0])
    assert has_section(split.surject)


def test_ext_round_trip_all_pairs_a2(std):
    simples, projectives, _ = std
    mods = [simples[0], simples[1], projectives[0]]
    for x in mods:
        for y in mods:
            space = ho.ext1(x, y)
            for coeffs, ses in all_ext_classes(space):
                back = ext_class_of(space, ses)
                assert back == tuple(coeffs)


def test_ext_round_trip_f3():
    alg = parse_algebra(A2_TEXT, field_override=3)
    simples, _, _ = standard_modules(alg)
    space = ho.ext1(simples[0], simples[1])
    assert space.dim == 1
    for c in range(3):
        ses = realize(space, [c])
        assert ext_class_of(space, ses) == (c,)


def test_ext_additive_in_cocycle():
    # on the 2-dimensional Ext^1(S1 + S1, S2) of A2 over F_2 and F_3, the
    # cocycle of a sum of classes is the sum of their cocycles, and the
    # class read back off the realized sum is the sum of the classes read
    # back
    for p in (2, 3):
        simples, _, _ = standard_modules(parse_algebra(A2_TEXT,
                                                       field_override=p))
        space = ho.ext1(mo.direct_sum([simples[0], simples[0]]), simples[1])
        assert space.dim == 2
        classes = list(linalg.vectors(2, p))
        read = {c: ext_class_of(space, realize(space, c)) for c in classes}
        for a in classes:
            for b in classes:
                total = tuple((x + y) % p for x, y in zip(a, b))
                assert space.cocycle(total) == \
                    space.cocycle(a).add(space.cocycle(b))
                assert read[total] == tuple(
                    (x + y) % p for x, y in zip(read[a], read[b]))


def test_ext_class_of_reads_through_coboundaries(d4_universe):
    # a cocycle that differs from the representative of a class by the
    # restriction to K of a map P0 -> N realizes the same class; on D4 some
    # such restrictions are nonzero off the pivots of the coboundaries, so
    # the class is read back only after reducing against them
    u = d4_universe
    checked = 0
    for m in u.indecs:
        for n in u.indecs:
            space = ho.ext1(m, n)
            for g in ho.hom_space(space.cover.source, n).basis:
                shift = space.incl.then(g)
                for coeffs in ho.ext_scan(u.algebra, space.dim):
                    ses = realize_cocycle(
                        space, space.cocycle(coeffs).add(shift))
                    assert ext_class_of(space, ses) == coeffs
                    checked += not shift.is_zero()
    assert checked


@pytest.mark.parametrize("name, field", [
    ("a2", None), ("a3", None), ("a3", 3), ("d4", None), ("loop", None),
    ("square", None), ("nakayama", None)])
def test_ext_middle_is_the_middle_of_the_realized_sequence(name, field):
    # the one body that builds Ext middles gives, on every nonzero class of
    # every ordered pair of members at bound 2, the middle of the realized
    # sequence, which is exact
    alg = parse_algebra((FIXTURES / f"{name}.quiver").read_text(),
                        field_override=field)
    u = enumerate_indecomposables(alg, (2,) * alg.quiver.n)
    classes = 0
    for m in u.indecs:
        for n in u.indecs:
            space = ho.ext1(m, n)
            for coeffs in ho.ext_scan(alg, space.dim):
                ses = realize(space, coeffs)
                assert ses.validate()
                assert ho.ext_middle([m], [n], {(0, 0): coeffs}) == ses.middle
                classes += 1
    assert classes


def test_nonhereditary_ext_self_extension():
    alg = parse_algebra("field 2\nvertices v\narrow x: v -> v\nrelation x*x\n")
    s = mo.simple_module(alg, 0)
    # the algebra itself is the nonsplit self-extension of the simple
    space = ho.ext1(s, s)
    assert space.dim == 1
    ses = realize(space, [1])
    assert ses.middle.dims == (2,)
    assert not has_section(ses.surject)


def test_pushout_pullback(std):
    simples, projectives, _ = std
    s1, s2, p1 = simples[0], simples[1], projectives[0]
    incl = ho.hom_space(s2, p1).basis[0]
    # pushout of the canonical SES along S2 -> 0 gives middle S1
    zero_map = mo.zero_morphism(s2, mo.zero_module(s2.algebra))
    w, from_p1, from_zero = ho.pushout(incl, zero_map)
    assert w.dims == (1, 0)
    assert from_p1.is_epi()
    # pushout along the identity keeps the middle
    w2, a, b = ho.pushout(incl, mo.identity_morphism(s2))
    assert w2.dims == p1.dims
    # pullback of projection along the inclusion of the image
    proj = mo.Morphism(p1, s1, [[[1]], [[]]])
    w3, to_p1, to_s1 = pullback(proj, mo.identity_morphism(s1))
    assert w3.dims == p1.dims


def test_pushout_universal_property(std):
    simples, projectives, _ = std
    s2, p1 = simples[1], projectives[0]
    incl = ho.hom_space(s2, p1).basis[0]
    w, leg_y, leg_z = ho.pushout(incl, mo.identity_morphism(s2))
    # cone: (p1 -> p1, s2 -> p1) commuting over s2; mediator must exist
    cone_y = mo.identity_morphism(p1)
    cone_z = incl
    # mediator h with leg_y.then(h) = cone_y and leg_z.then(h) = cone_z
    conditions = [
        (v, leg_y.maps[v], cone_y.maps[v])
        for v in range(p1.algebra.quiver.n)
    ] + [
        (v, leg_z.maps[v], cone_z.maps[v])
        for v in range(p1.algebra.quiver.n)
    ]
    h = constrained_morphism(w, p1, conditions)
    assert h is not None


def test_projective_cover_and_syzygy(std):
    simples, projectives, _ = std
    s1 = simples[0]
    k, incl, cover = ho.syzygy(s1)
    assert cover.source.dims == (1, 1)  # P(1)
    assert k.dims == (0, 1)             # S(2)
    assert ho.is_projective(projectives[0])
    assert not ho.is_projective(s1)


def test_injective_envelope_a2(std):
    simples, projectives, injectives = std
    s2 = simples[1]
    env = ho.injective_envelope(s2)
    assert env.target.dims == (1, 1)  # I(2) = P(1)
    assert env.is_mono()
    # envelope of an injective is an iso
    assert ho.injective_envelope(projectives[0]).is_iso()
    assert injective_dimension(s2) == 1
    assert injective_dimension(projectives[0]) == 0
    assert injective_dimension(simples[0]) == 0  # S(1) = I(1)


def test_injective_dimension_infinite_raises():
    from torsionheart.exceptions import ResourceLimitError
    alg = parse_algebra("field 2\nvertices v\narrow x: v -> v\nrelation x*x\n")
    s = mo.simple_module(alg, 0)
    with pytest.raises(ResourceLimitError):
        injective_dimension(s, cap=8)


def test_minimal_right_approx_a2(std):
    simples, projectives, _ = std
    s1, s2, p1 = simples[0], simples[1], projectives[0]
    f = ho.minimal_approx(s1, [s2, p1], "right")
    assert f.source.dims == (1, 1)
    assert f.is_epi()
    assert is_right_minimal(f)
    assert is_right_approximation(f, [s2, p1])
    # M inside add(gens): identity-like split epi
    g = ho.minimal_approx(p1, [s2, p1], "right")
    assert g.is_iso()
    # empty generators
    z = ho.minimal_approx(s1, [mo.zero_module(s1.algebra)], "right")
    assert z.source.is_zero()


def test_minimal_left_approx_a2(std):
    simples, projectives, _ = std
    s1, s2, p1 = simples[0], simples[1], projectives[0]
    f = ho.minimal_approx(s2, [p1], "left")
    assert f.target.dims == (1, 1)
    assert f.is_mono()
    assert is_left_minimal(f)
    assert is_left_approximation(f, [p1])
    g = ho.minimal_approx(p1, [s2, p1], "left")
    assert g.is_iso()
    z = ho.minimal_approx(s1, [], "left")
    assert z.target.is_zero()


def test_approximation_hom_surjectivity(std):
    # the induced map Hom(G, Y) -> Hom(G, M) is onto for every generator
    simples, projectives, _ = std
    s1, s2, p1 = simples[0], simples[1], projectives[0]
    f = ho.minimal_approx(s1, [s2, p1], "right")
    for g in (s2, p1):
        for b in ho.hom_space(g, s1).basis:
            assert factor_over(f, b) is not None


def test_right_minimality_certificate(std):
    # any h with h.then(f) == f is an isomorphism once minimized
    simples, projectives, _ = std
    s1, s2, p1 = simples[0], simples[1], projectives[0]
    f = ho.minimal_approx(s1, [s2, p1], "right")
    end = ho.hom_space(f.source, f.source)
    from torsionheart import linalg
    p = 2
    for coeffs in linalg.vectors(end.dim, p):
        h = end.from_coords(coeffs)
        if h.then(f) == f:
            assert h.is_iso()


def test_ar_translate_a2(std):
    simples, projectives, _ = std
    t = ho.ar_translate(simples[0])
    assert t.dims == (0, 1)
    with pytest.raises(ValueError):
        ho.ar_translate(projectives[0])
    with pytest.raises(ValueError):
        ho.ar_translate(simples[1])  # S(2) = P(2) projective


def test_ar_translate_a3():
    alg = parse_algebra(A3_TEXT)
    simples, projectives, _ = standard_modules(alg)
    t = ho.ar_translate(simples[0])
    assert t.dims == (0, 1, 0)  # knitting: tau S1 = S2
    t2 = ho.ar_translate(simples[1])
    assert t2.dims == (0, 0, 1)
    # inverse translate undoes it
    back = ho.ar_translate_inverse(t)
    assert back.dims == simples[0].dims


def test_ext_presentation_independence(std):
    # recompute Ext(S1, -) against a non-minimal presentation: adding a
    # projective summand to P0 must not change the dimension
    simples, projectives, _ = std
    s1, s2 = simples[0], simples[1]
    space = ho.ext1(s1, s2)
    p = 2
    # non-minimal: P0' = P(1) + P(2), K' = ker(P0' -> S1)
    p0 = mo.direct_sum([projectives[0], projectives[1]])
    cover = mo.Morphism(p0, s1, [[[1]], [[], []]])
    k, incl = mo.kernel(cover)
    hom_kn = ho.hom_space(k, s2)
    hom_p0n = ho.hom_space(p0, s2)
    from torsionheart import linalg
    coords = [hom_kn.coords_of(incl.then(g)) for g in hom_p0n.basis]
    dim = hom_kn.dim - linalg.rank(coords, p)
    assert dim == space.dim


def test_ar_translate_self_injective_loop():
    # over the square-zero loop the simple is periodic: tau(S) = S
    from torsionheart.krull import is_isomorphic
    alg = parse_algebra("field 2\nvertices v\narrow x: v -> v\nrelation x*x\n")
    s = mo.simple_module(alg, 0)
    assert is_isomorphic(ho.ar_translate(s), s)


def test_ext_round_trip_all_pairs_a3(a3_universe):
    for x in a3_universe.indecs:
        for y in a3_universe.indecs:
            space = ho.ext1(x, y)
            for coeffs, ses in all_ext_classes(space):
                assert list(ext_class_of(space, ses)) == list(coeffs)


def test_ext_round_trip_two_dimensional(a3_universe):
    # a two-dimensional class group: all four classes realize and classify
    from conftest import module_by_dims
    s1 = module_by_dims(a3_universe, (1, 0, 0))
    s2 = module_by_dims(a3_universe, (0, 1, 0))
    s3 = module_by_dims(a3_universe, (0, 0, 1))
    src = mo.direct_sum([s1, s2])
    tgt = mo.direct_sum([s2, s3])
    space = ho.ext1(src, tgt)
    assert space.dim == 2
    middles = set()
    for coeffs, ses in all_ext_classes(space):
        assert list(ext_class_of(space, ses)) == list(coeffs)
        middles.add(ses.middle.dims)
    assert (1, 2, 1) in middles


def test_approximation_twins_a3(a3_universe):
    # left and right approximations share one body; check each on every
    # indecomposable, and the left one against the right one of the duals
    gens = list(a3_universe.indecs)
    dual_gens = [mo.dual_module(g) for g in gens]
    for m in a3_universe.indecs:
        left = ho.minimal_approx(m, gens, "left")
        assert is_left_approximation(left, gens)
        assert is_left_minimal(left)
        right = ho.minimal_approx(m, gens, "right")
        assert is_right_approximation(right, gens)
        assert is_right_minimal(right)
        dual_right = ho.minimal_approx(mo.dual_module(m), dual_gens, "right")
        assert literal_isomorphism(mo.dual_module(left.target),
                                   dual_right.source) is not None


def test_memo_dies_with_its_algebra():
    # Hom and Ext spaces are memoized on their algebra, not in the process
    import gc
    import weakref

    def build():
        # labels no other test uses, so no other algebra shares its content key
        a = parse_algebra("field 2\nvertices gc1 gc2\narrow gc: gc1 -> gc2\n")
        simples, projectives, _ = standard_modules(a)
        assert ho.hom_space(projectives[0], simples[0]).dim == 1
        assert ho.ext1(simples[0], simples[1]).dim == 1
        return weakref.ref(a)

    ref = build()
    gc.collect()
    assert ref() is None


@pytest.fixture(scope="module")
def a3_f3_end():
    alg = parse_algebra(A3_TEXT, field_override=3)
    simples, projectives, _ = standard_modules(alg)
    m = mo.direct_sum(
        [projectives[0], projectives[0], projectives[1], simples[1]])
    end = ho.hom_space(m, m)
    assert end.dim == 9
    return end


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=9, max_size=9))
def test_fitting_idempotent_properties(a3_f3_end, coeffs):
    # M = P1 + P1 + P2 + S2 over A3/F_3: End(M) has nilpotent, invertible
    # and mixed elements
    m = a3_f3_end.source
    one = mo.identity_morphism(m)
    x = a3_f3_end.from_coords(coeffs)
    xn = one
    for _ in range(m.total_dim):
        xn = xn.then(x)
    e = fitting_idempotent(x)
    if e is None:
        assert xn.is_zero() or xn.is_iso()
        e = one if xn.is_iso() else mo.zero_morphism(m, m)
    assert e.then(e) == e
    assert e.then(x) == x.then(e)
    assert one.add(e.scale(-1)).then(xn).is_zero()
    for v in range(m.algebra.quiver.n):
        assert linalg.rank(xn.maps[v], 3) == linalg.rank(e.maps[v], 3)



def _two_dimensional_ext(**caps):
    # Ext^1(S1 + S2, S2 + S3) on A3 has two dimensions
    alg = parse_algebra(A3_TEXT, DEFAULT_CAPS._replace(**caps))
    s1, s2, s3 = standard_modules(alg)[0]
    return ho.ext1(mo.direct_sum([s1, s2]), mo.direct_sum([s2, s3]))


def test_nonsplit_classes_follow_the_zero_class():
    # every nonzero class once, in lexicographic order, and none splits
    space = _two_dimensional_ext()
    classes = [(tuple(int(c) for c in coeffs), ses)
               for coeffs, ses in nonsplit_classes(space)]
    assert [coeffs for coeffs, _ in classes] == [(0, 1), (1, 0), (1, 1)]
    for coeffs, ses in classes:
        assert ext_class_of(space, ses) == coeffs
        assert not has_section(ses.surject)


def test_class_scans_check_the_cap_first():
    space = _two_dimensional_ext(ext_dim_cap=1)
    with pytest.raises(ResourceLimitError):
        next(nonsplit_classes(space))


def _end_of_s1_s1_s2(caps):
    """End(S1 + S1 + S2) over A2: M_2(F_2) x F_2, of dimension 5."""
    alg = parse_algebra(A2_TEXT, caps)
    s1, s2 = mo.simple_module(alg, 0), mo.simple_module(alg, 1)
    m = mo.direct_sum([s1, s1, s2], alg)
    return alg, ho.hom_space(m, m)


def test_candidates_order_within_the_scan_cap():
    alg, end = _end_of_s1_s1_s2(DEFAULT_CAPS)
    assert end.dim == 5 and 2 ** 5 <= alg.caps.scan_count_cap
    basis = list(end.basis)
    pairs = [a.add(b) for i, a in enumerate(basis) for b in basis[i + 1:]]
    every = [end.from_coords(c) for c in linalg.vectors(5, 2) if any(c)]
    assert list(ho.candidates(end)) == basis + pairs + every


def test_candidates_order_beyond_the_scan_cap():
    # beyond the cap the basis and the pairwise sums come first, then the
    # scan gate refuses the elements; nothing else is tried
    alg, end = _end_of_s1_s1_s2(DEFAULT_CAPS._replace(scan_count_cap=1))
    basis = list(end.basis)
    pairs = [a.add(b) for i, a in enumerate(basis) for b in basis[i + 1:]]
    tried = []
    with pytest.raises(ResourceLimitError,
                       match=r"^hom scan of size 2\^5 exceeds cap$"):
        for x in ho.candidates(end):
            tried.append(x)
    assert tried == basis + pairs


def test_scan_gate_raises_before_any_vector():
    alg = parse_algebra(A2_TEXT, DEFAULT_CAPS._replace(scan_count_cap=8))
    assert list(ho.scan(alg, 3, "hom", nonzero=True)) == [
        v for v in linalg.vectors(3, 2) if any(v)]
    with pytest.raises(ResourceLimitError,
                       match=r"^ext scan of size 2\^4 exceeds cap$"):
        ho.scan(alg, 4, "ext")


@pytest.mark.parametrize(
    "name", ["a2", "a3", "a4", "d4", "d5", "e6", "loop", "square"])
def test_injective_module_is_dual_of_op_projective(name):
    # I(v) as D P(v) over the opposite algebra against the literal build on
    # paths ending at v: equal matrices, so equal module keys
    alg = parse_algebra((FIXTURES / f"{name}.quiver").read_text())
    for v in range(alg.quiver.n):
        assert mo.injective_module(alg, v) == literal_injective_module(alg, v)


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "d4", "loop", "square"])
def test_injective_envelope_matches_socle_envelope(name):
    # the dual of the projective cover of D(M) is an essential mono into the
    # hull that the socle construction builds
    alg = parse_algebra((FIXTURES / f"{name}.quiver").read_text())
    bound = (1,) * 4 if name == "square" else (2,) * alg.quiver.n
    u = enumerate_indecomposables(alg, bound)
    for m in u.indecs:
        env = ho.injective_envelope(m)
        assert env.source == m
        assert env.is_mono()
        assert env.target == socle_envelope(m).target
        assert essentiality_check(env, u)


@pytest.mark.parametrize("name, bound", [
    ("a2", 2), ("a3", 2), ("a4", 2), ("d4", 2), ("d5", 2), ("loop", 2),
    ("square", 2), ("nakayama", 2), ("e6", 3)])
def test_presentation_and_transpose_match_the_composed_build(name, bound):
    # the presentation read off the syzygy and the transpose built from
    # generator images equal the builds composed through the maps of the
    # sums, on each member M (for tau) and on D(M) over the opposite
    # algebra (for tau^-1)
    alg = parse_algebra((FIXTURES / f"{name}.quiver").read_text())
    u = enumerate_indecomposables(alg, (bound,) * alg.quiver.n)
    for x in u.indecs:
        for m in (x, mo.dual_module(x)):
            assert ho.presentation(m) == literal_presentation(m)
            assert ho.transpose(m) == literal_transpose(m)
