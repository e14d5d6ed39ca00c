import pytest

from torsionheart import cotilting as co
from torsionheart import torsion as to
from torsionheart.algebra import parse_algebra
from torsionheart.exceptions import NotCotiltingError
from torsionheart.torslattice import enumerate_torsion_classes
from torsionheart.universe import bit_indices, enumerate_indecomposables

from conftest import FIXTURES, module_by_dims
from oracles import injective_dimension, literal_isomorphism


def _bits(u, *dims_list):
    out = 0
    for dims in dims_list:
        out |= 1 << u.index_of(module_by_dims(u, dims))
    return out


@pytest.fixture(scope="module")
def a2_nontrivial(a2_universe):
    pair = to.pair_from_torsion_class(_bits(a2_universe, (1, 0)), a2_universe)
    return co.cotilting_from_pair(pair)


def test_a2_nontrivial_pair(a2_universe, a2_nontrivial):
    u = a2_universe
    data = a2_nontrivial
    assert data.add_c_bits == _bits(u, (0, 1), (1, 1))  # C = S2 + P1
    assert data.c_class_bits == data.pair.torsion_free_bits
    assert data.perp_class_bits == u.all_bits
    assert injective_dimension(data.cotilting) <= 1
    assert data.c0.dims == (2, 2)          # P1 + P1
    assert u.summand_bitset(data.c0) == _bits(u, (1, 1))
    assert data.c1.dims == (0, 1)          # S2
    assert data.injective_cover.validate()


def test_a2_trivial_pair(a2_universe):
    u = a2_universe
    pair = to.pair_from_torsion_class(0, u)
    data = co.cotilting_from_pair(pair)
    # C is the injective cogenerator S1 + P1
    assert data.add_c_bits == _bits(u, (1, 0), (1, 1))
    assert data.c1.is_zero()
    assert u.summand_bitset(data.c0) == data.add_c_bits


def test_a2_not_cotilting_cases(a2_universe):
    u = a2_universe
    with pytest.raises(NotCotiltingError) as info:
        co.cotilting_from_pair(
            to.pair_from_torsion_class(_bits(u, (0, 1)), u))
    assert "Cogen" in str(info.value)
    with pytest.raises(NotCotiltingError):
        co.cotilting_from_pair(
            to.pair_from_torsion_class(_bits(u, (1, 0), (1, 1)), u))
    with pytest.raises(NotCotiltingError):
        co.cotilting_from_pair(to.pair_from_torsion_class(u.all_bits, u))


def test_rejection_names_the_member(a3_universe):
    # the torsion class generated by P2 = (0,1,1) on A3 is not cotilting;
    # the reason names the member in perp(C) that C does not cogenerate
    u = a3_universe
    p2 = u.index_of(module_by_dims(u, (0, 1, 1)))
    pair = to.pair_from_torsion_class(to.torsion_closure(1 << p2, u), u)
    with pytest.raises(NotCotiltingError) as info:
        co.cotilting_from_pair(pair)
    assert info.value.reason == (f"Cogen(C) != perp(C) at M{p2} (0,1,1): "
                                 "in perp(C), not in Cogen(C)")


def test_cogen_equals_perp_tables(a2_universe, a2_nontrivial):
    # X in Cogen(C) iff Ext(X, C) = 0, for every indecomposable
    u = a2_universe
    data = a2_nontrivial
    cogen = to.cogenerated_bits(u, data.add_c_bits)
    for x in range(u.n):
        ext_vanishes = all(
            u.ext_table[x][i] == 0 for i in bit_indices(data.add_c_bits))
        assert bool((cogen >> x) & 1) == ext_vanishes


def test_special_cover_a2(a2_universe, a2_nontrivial):
    u = a2_universe
    data = a2_nontrivial
    s1 = module_by_dims(u, (1, 0))
    ses = co.special_cover(s1, data)
    assert (ses.left.dims, ses.middle.dims, ses.right.dims) == \
        ((0, 1), (1, 1), (1, 0))
    # member of the class: identity cover
    p1 = module_by_dims(u, (1, 1))
    ses2 = co.special_cover(p1, data)
    assert ses2.left.is_zero() and ses2.middle.dims == p1.dims
    # injective cogenerator: componentwise
    inj = co.injective_cogenerator(u.algebra)
    ses3 = co.special_cover(inj, data)
    assert ses3.middle.dims == (2, 2) and ses3.left.dims == (0, 1)


def test_special_cover_unique_up_to_iso(a2_universe, a2_nontrivial):
    # re-running with a permuted generator list gives an isomorphic cover
    from torsionheart.homology import kernel, minimal_approx
    u = a2_universe
    data = a2_nontrivial
    s1 = module_by_dims(u, (1, 0))
    gens = data.c_class_members()
    f1 = minimal_approx(s1, gens, "right")
    f2 = minimal_approx(s1, list(reversed(gens)), "right")
    assert literal_isomorphism(f1.source, f2.source) is not None
    assert literal_isomorphism(kernel(f1)[0], kernel(f2)[0]) is not None


def test_special_envelope_a2(a2_universe, a2_nontrivial):
    u = a2_universe
    data = a2_nontrivial
    s2 = module_by_dims(u, (0, 1))
    ses = co.special_envelope(s2, data)
    # perp class is everything, so the envelope is the identity
    assert ses.middle.dims == s2.dims and ses.right.is_zero()
    p1 = module_by_dims(u, (1, 1))
    ses2 = co.special_envelope(p1, data)
    assert ses2.middle.dims == p1.dims and ses2.right.is_zero()


def test_c0_c1(a2_universe, a2_nontrivial):
    c0, c1 = a2_nontrivial.c0, a2_nontrivial.c1
    assert c0.dims == (2, 2) and c1.dims == (0, 1)


def test_a3_worked_example(a3_universe):
    """Pair generated by S(1) on the linear three-vertex quiver: the
    cotilting module is S2 + [1,2] + P1, the perp class misses S3 and [2,3],
    and the envelope of the radical of P(1) is P1 + S2 with cokernel [1,2]."""
    u = a3_universe
    s1 = module_by_dims(u, (1, 0, 0))
    t_bits = to.torsion_closure(u.summand_bitset(s1), u)
    assert t_bits == 1 << u.index_of(s1)
    pair = to.pair_from_torsion_class(t_bits, u)
    data = co.cotilting_from_pair(pair)
    assert data.add_c_bits == _bits(u, (0, 1, 0), (1, 1, 0), (1, 1, 1))
    assert data.perp_class_bits == _bits(
        u, (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1))
    rad_p1 = module_by_dims(u, (0, 1, 1))
    ses = co.special_envelope(rad_p1, data)
    assert u.summand_bitset(ses.middle) == _bits(u, (1, 1, 1), (0, 1, 0))
    assert ses.middle.dims == (1, 2, 1)
    assert ses.right.dims == (1, 1, 0)


def test_minimal_cotilting_a2(a2_universe, a2_nontrivial):
    u = a2_universe
    data = a2_nontrivial
    envelopes = [module_by_dims(u, (1, 1)), module_by_dims(u, (0, 1))]
    tilde = co.minimal_cotilting(data, envelopes)
    assert u.summand_bitset(tilde) == data.add_c_bits


def test_minimal_cotilting_trivial_pair(a2_universe):
    u = a2_universe
    data = co.cotilting_from_pair(to.pair_from_torsion_class(0, u))
    envelopes = u.members(data.add_c_bits)
    tilde = co.minimal_cotilting(data, envelopes)
    assert u.summand_bitset(tilde) == data.add_c_bits


def test_a3_minimal_cotilting_matches_construction(a3_universe):
    from torsionheart.heart import classify_neg_isolated
    u = a3_universe
    s1 = module_by_dims(u, (1, 0, 0))
    pair = to.pair_from_torsion_class(to.torsion_closure(u.summand_bitset(s1), u), u)
    data = co.cotilting_from_pair(pair)
    criticals, specials = classify_neg_isolated(data)
    mods = [s.envelope for s in criticals] + [s.envelope for s in specials]
    tilde = co.minimal_cotilting(data, mods)
    assert u.summand_bitset(tilde) == data.add_c_bits


@pytest.mark.parametrize("fixture, bound", [
    ("a2", (2, 2)), ("a3", (2, 2, 2)), ("d4", (2, 2, 2, 2)), ("loop", (2,)),
    ("square", (1, 1, 1, 1))])
def test_ext_injectives_need_no_orthogonality_check(fixture, bound):
    """On every torsion pair (T, F), the Ext-injectives E of F (the members
    i of F with Ext^1(F, X_i) = 0) satisfy Ext^1(E, E) = 0 and
    F intersect perp(F) = E, so cotilting_from_pair checks neither."""
    u = enumerate_indecomposables(
        parse_algebra((FIXTURES / f"{fixture}.quiver").read_text()), bound)
    ext = u.ext_table
    lattice = enumerate_torsion_classes(u)
    for k in range(lattice.n):
        f = bit_indices(lattice.pair_of(k).torsion_free_bits)
        ext_inj = [i for i in f if all(ext[j][i] == 0 for j in f)]
        assert all(ext[i][j] == 0 for i in ext_inj for j in ext_inj)
        perp = [x for x in range(u.n) if all(ext[i][x] == 0 for i in f)]
        assert [x for x in f if x in perp] == ext_inj


@pytest.mark.parametrize("name", ["a2", "a3", "d4"])
def test_approximation_of_a_class_member_is_the_identity(name, request):
    # special_cover and special_envelope take the identity of a module
    # already in the class; the literal minimal approximation of every
    # member of the cotilting class (right) and of the perp class (left) is
    # an iso, so the long path builds the same sequence up to iso
    from torsionheart.homology import minimal_approx
    from torsionheart.modules import cokernel, kernel
    ctx = request.getfixturevalue(f"{name}_ctx")
    u = ctx.universe
    assert ctx.cotilting_pairs
    for data in ctx.cotilting_pairs:
        for i in bit_indices(data.c_class_bits):
            m = u.indecs[i]
            f = minimal_approx(m, data.c_class_members(), "right")
            assert f.is_iso(), (data.pair, i)
            ses = co.special_cover(m, data)
            assert ses.left.is_zero() and kernel(f)[0].is_zero()
            assert u.summands(ses.middle) == u.summands(f.source) == {i: 1}
        for i in bit_indices(data.perp_class_bits):
            m = u.indecs[i]
            f = minimal_approx(m, data.perp_members(), "left")
            assert f.is_iso(), (data.pair, i)
            ses = co.special_envelope(m, data)
            assert ses.right.is_zero() and cokernel(f)[0].is_zero()
            assert u.summands(ses.middle) == u.summands(f.target) == {i: 1}


@pytest.mark.parametrize("args", [
    ["a2.quiver"], ["a3.quiver"], ["d4.quiver"], ["loop.quiver"],
    ["square.quiver", "--dim-bound", "1,1,1,1"]])
def test_verify_approximations_are_minimal_without_splitting(args,
                                                             monkeypatch):
    # minimal_approx splits no idempotent off: every approximation a verify
    # run builds is minimal by the literal idempotent check, and the literal
    # minimization leaves its source (right) or target (left) as it is
    from torsionheart.cli import main
    from oracles import (
        is_left_approximation, is_left_minimal, is_right_approximation,
        is_right_minimal, minimize,
    )
    real = co.minimal_approx
    built = {}

    def recorded(m, gens, side):
        f = real(m, gens, side)
        built[m.key, tuple(g.key for g in gens), side] = f, gens
        return f

    monkeypatch.setattr(co, "minimal_approx", recorded)
    assert main(["verify", str(FIXTURES / args[0]), *args[1:]]) == 0
    assert built
    for (_, _, side), (f, gens) in built.items():
        if side == "right":
            assert is_right_approximation(f, gens) and is_right_minimal(f)
            assert minimize(f, side).source.dims == f.source.dims
        else:
            assert is_left_approximation(f, gens) and is_left_minimal(f)
            assert minimize(f, side).target.dims == f.target.dims


def test_approximation_over_a_larger_residue_field():
    # Kronecker quiver over F_3, R = R(t^2+1) the regular brick (I, companion
    # of t^2+1) with End(R) = F_9: Hom(R, R + R) has dimension 4 over F_3
    # but is generated by 2 maps over End(R), so the approximations of R + R
    # by R take exactly 2 copies, as the literal minimization does
    from torsionheart import modules as mo
    from torsionheart.homology import hom_space, minimal_approx
    from oracles import is_left_minimal, is_right_minimal, minimize
    alg = parse_algebra(
        "field 3\nvertices 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n")
    r = mo.Module(alg, (2, 2), [[[1, 0], [0, 1]], [[0, 1], [2, 0]]])
    m = mo.direct_sum([r, r], alg)
    assert hom_space(r, r).dim == 2 and hom_space(r, m).dim == 4
    right = minimal_approx(m, [r], "right")
    left = minimal_approx(m, [r], "left")
    assert right.source.dims == left.target.dims == (4, 4)
    assert right.is_iso() and left.is_iso()
    assert is_right_minimal(right) and is_left_minimal(left)
    assert minimize(right, "right").source.dims == (4, 4)


def test_verify_d4_reads_cogeneration_off_member_hom_spaces(monkeypatch):
    # Cogen(C) is read from Hom spaces between members: a verify run on d4
    # builds no Hom space for the joint-rank reading with an end outside the
    # universe
    from torsionheart import cli
    built, ends = [], []

    def recorded_universe(*args):
        built.append(enumerate_indecomposables(*args))
        return built[-1]

    def recorded_hom(m, n):
        ends.extend((m.key, n.key))
        return hom_space(m, n)

    hom_space = to.hom_space
    monkeypatch.setattr(cli, "enumerate_indecomposables", recorded_universe)
    monkeypatch.setattr(to, "hom_space", recorded_hom)
    assert cli.main(["verify", str(FIXTURES / "d4.quiver")]) == 0
    (u,) = built
    assert ends and set(ends) <= {x.key for x in u.indecs}
