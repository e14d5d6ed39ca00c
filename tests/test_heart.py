from collections import Counter
from itertools import combinations_with_replacement

import pytest

from torsionheart import cotilting as co
from torsionheart import heart as he
from torsionheart import modules as mo
from torsionheart import torsion as to
from torsionheart.algebra import parse_algebra
from torsionheart.config import DEFAULT_CAPS
from torsionheart.exceptions import ResourceLimitError
from torsionheart.homology import hom_space, injective_envelope
from torsionheart.universe import bit_indices, enumerate_indecomposables
from torsionheart.verify import build_context

from conftest import A3_TEXT, FIXTURES, module_by_dims, universe_of
from oracles import (
    all_ext_classes, factors_uniquely, left_almost_split, split_injective_scan,
    sum_module,
)


def _bits(u, *dims_list):
    out = 0
    for dims in dims_list:
        out |= 1 << u.index_of(module_by_dims(u, dims))
    return out


@pytest.fixture(scope="module")
def a2_data(a2_universe):
    pair = to.pair_from_torsion_class(_bits(a2_universe, (1, 0)), a2_universe)
    return co.cotilting_from_pair(pair)


def test_atf_a2(a2_universe, a2_data):
    u = a2_universe
    pair = a2_data.pair
    s1 = module_by_dims(u, (1, 0))
    for mode in ("fast", "oracle"):
        assert he.is_almost_torsion_free(s1, pair, mode)
    # a torsion-free module is trivially almost torsion-free: oracle mode
    # accepts any module, fast mode needs a universe member
    s2 = module_by_dims(u, (0, 1))
    assert he.is_almost_torsion_free(s2, pair, "oracle")
    with pytest.raises(ValueError):
        he.is_almost_torsion_free(mo.zero_module(u.algebra), pair)


def test_atf_fails_on_other_pair(a2_universe):
    # pair with torsion class {S1, P1}: ATF2 fails for S1 via the extension
    # with middle P1 (torsion) and kernel S2 (not torsion)
    u = a2_universe
    pair = to.pair_from_torsion_class(_bits(u, (1, 0), (1, 1)), u)
    s1 = module_by_dims(u, (1, 0))
    assert not he.is_almost_torsion_free(s1, pair, "fast")
    assert not he.is_almost_torsion_free(s1, pair, "oracle")
    # P1 is torsion almost torsion-free for that pair
    p1 = module_by_dims(u, (1, 1))
    assert he.is_almost_torsion_free(p1, pair, "fast")
    assert he.is_almost_torsion_free(p1, pair, "oracle")


def test_at_a2(a2_universe, a2_data):
    u = a2_universe
    pair = a2_data.pair
    p1 = module_by_dims(u, (1, 1))
    s2 = module_by_dims(u, (0, 1))
    for mode in ("fast", "oracle"):
        assert he.is_almost_torsion(p1, pair, mode)
        assert not he.is_almost_torsion(s2, pair, mode)
    # torsion module is trivially almost torsion
    s1 = module_by_dims(u, (1, 0))
    assert he.is_almost_torsion(s1, pair, "oracle")


def test_heart_simples_a2(a2_universe, a2_data):
    u = a2_universe
    simples = he.heart_simples(a2_data.pair)
    tagged = sorted((s.module.dims, s.shifted) for s in simples)
    assert tagged == [((1, 0), True), ((1, 1), False)]


def test_heart_simples_trivial_pair(a2_universe):
    u = a2_universe
    pair = to.pair_from_torsion_class(0, u)
    simples = he.heart_simples(pair)
    assert sorted(s.module.dims for s in simples) == [(0, 1), (1, 0)]
    assert all(not s.shifted for s in simples)


def test_heart_simples_all_torsion_pair(a2_universe):
    # torsion class everything: every simple module appears shifted
    u = a2_universe
    pair = to.pair_from_torsion_class(u.all_bits, u)
    simples = he.heart_simples(pair)
    assert sorted(s.module.dims for s in simples) == [(0, 1), (1, 0)]
    assert all(s.shifted for s in simples)


def test_left_almost_split_a2(a2_universe, a2_data):
    u = a2_universe
    data = a2_data
    s2 = module_by_dims(u, (0, 1))
    p1 = module_by_dims(u, (1, 1))
    incl = hom_space(s2, p1).basis[0]
    assert he.is_left_almost_split(incl, data.c_class_bits, u)
    assert he.is_strong_las(incl, data.c_class_bits, u)
    assert he.is_strong_las_fast(incl, data)
    assert he.strong_las_uniqueness_scan(incl, data.c_class_bits, u)
    # identity is a split mono: not left almost split
    assert not he.is_left_almost_split(
        mo.identity_morphism(p1), data.c_class_bits, u)
    # P1 -> 0 is strong left almost split in the class
    to_zero = mo.zero_morphism(p1, mo.zero_module(u.algebra))
    assert he.is_left_almost_split(to_zero, data.c_class_bits, u)
    assert he.is_strong_las(to_zero, data.c_class_bits, u)
    # S2 -> 0 is not: the inclusion into P1 does not factor through 0
    s2_to_zero = mo.zero_morphism(s2, mo.zero_module(u.algebra))
    assert not he.is_left_almost_split(s2_to_zero, data.c_class_bits, u)


def _simple(u, dims, shifted):
    m = module_by_dims(u, dims)
    return he.HeartSimple(m, u.index_of(m), shifted)


def test_sequences_a2(a2_universe, a2_data):
    u = a2_universe
    data = a2_data
    seq = he.heart_sequence(_simple(u, (1, 0), True), data)
    assert seq.sequence.left.dims == (0, 1)
    assert seq.sequence.middle.dims == (1, 1)
    assert seq.kind == "special"
    assert seq.envelope is seq.sequence.left
    assert seq.strong_las is seq.sequence.inject
    seq2 = he.heart_sequence(_simple(u, (1, 1), False), data)
    assert seq2.sequence.middle.dims == (1, 1)
    assert seq2.sequence.right.is_zero()
    assert seq2.kind == "critical"
    assert seq2.envelope is seq2.sequence.middle
    assert seq2.strong_las is seq2.sequence.surject
    # preconditions
    with pytest.raises(ValueError):
        he.heart_sequence(_simple(u, (0, 1), True), data)   # not torsion
    with pytest.raises(ValueError):
        he.heart_sequence(_simple(u, (1, 0), False), data)  # not torsion-free
    with pytest.raises(ValueError):
        he.heart_sequence(_simple(u, (0, 1), False), data)  # F, but not AT


def test_sequence_round_trip_a2(a2_universe, a2_data):
    # from the special sequence, the cokernel of the strong las mono is
    # torsion almost torsion-free and recovers the simple
    u = a2_universe
    data = a2_data
    s1 = module_by_dims(u, (1, 0))
    seq = he.heart_sequence(_simple(u, (1, 0), True), data)
    coker = mo.cokernel(seq.sequence.inject)[0]
    assert coker.dims == s1.dims
    assert he.is_almost_torsion_free(coker, data.pair, "oracle")


def test_classification_a2(a2_universe, a2_data):
    u = a2_universe
    criticals, specials = he.classify_neg_isolated(a2_data)
    assert [c.envelope.dims for c in criticals] == [(1, 1)]
    assert [s.envelope.dims for s in specials] == [(0, 1)]
    # exhausts the summands of C
    idxs = {c.envelope_index for c in criticals + specials}
    assert idxs == set(bit_indices(a2_data.add_c_bits))


def test_classification_trivial_pair(a2_universe):
    u = a2_universe
    data = co.cotilting_from_pair(to.pair_from_torsion_class(0, u))
    criticals, specials = he.classify_neg_isolated(data)
    assert specials == []
    assert sorted(c.envelope.dims for c in criticals) == [(1, 0), (1, 1)]


def test_split_injective_a2(a2_universe, a2_data):
    u = a2_universe
    data = a2_data
    p1 = module_by_dims(u, (1, 1))
    s2 = module_by_dims(u, (0, 1))
    assert he.is_split_injective(p1, data.c_class_bits, u)
    assert not he.is_split_injective(s2, data.c_class_bits, u)
    with pytest.raises(ValueError):
        he.is_split_injective(module_by_dims(u, (1, 0)), data.c_class_bits, u)


def test_split_injective_singleton_class(a2_universe):
    # class consisting of one brick: only split monos are available, but
    # {P1} misses the submodule S2 of P1, so the Ext criterion refuses it
    u = a2_universe
    p1 = module_by_dims(u, (1, 1))
    bits = 1 << u.index_of(p1)
    assert split_injective_scan(p1, bits, u)
    with pytest.raises(ValueError):
        he.is_split_injective(p1, bits, u)


def test_split_injective_scan_agrees(a2_universe, a2_data):
    # the literal bounded mono scan agrees with the ext criterion
    u = a2_universe
    data = a2_data
    for i in bit_indices(data.c_class_bits):
        m = u.indecs[i]
        assert he._indec_split_injective(i, data.c_class_bits, u) == \
            split_injective_scan(m, data.c_class_bits, u)


def test_embedding_into_criticals(a2_universe, a2_data):
    u = a2_universe
    criticals, _ = he.classify_neg_isolated(a2_data)
    crit_mods = [c.envelope for c in criticals]
    for i in bit_indices(a2_data.c_class_bits):
        witness = he.embedding_into_criticals(u.indecs[i], crit_mods)
        assert witness is not None
        assert witness.is_mono()
    # a torsion module is not cogenerated by the (torsion-free) criticals
    s1 = module_by_dims(u, (1, 0))
    assert he.embedding_into_criticals(s1, crit_mods) is None


def test_hereditary_cover_check_a2(a2_universe, a2_data):
    u = a2_universe
    s1 = module_by_dims(u, (1, 0))
    report = he.hereditary_cover_check(s1, a2_data)
    assert report.ok
    with pytest.raises(ValueError):
        he.hereditary_cover_check(module_by_dims(u, (0, 1)), a2_data)


def test_hereditary_cover_check_rejects_non_hereditary(a3_universe):
    u = a3_universe
    s2 = module_by_dims(u, (0, 1, 0))
    t_bits = to.torsion_closure(u.summand_bitset(s2), u)
    pair = to.pair_from_torsion_class(t_bits, u)
    data = co.cotilting_from_pair(pair)
    if to.is_hereditary(pair):
        report = he.hereditary_cover_check(s2, data)
        assert report.ok
    else:
        with pytest.raises(ValueError):
            he.hereditary_cover_check(s2, data)


def test_strong_las_dichotomy_exhaustive_a2(a2_universe, a2_data):
    # every strong las morphism between class members is mono or epi
    from torsionheart import linalg
    u = a2_universe
    data = a2_data
    members = u.members(data.c_class_bits)
    sums = members + [mo.direct_sum([a, b])
                      for a in members for b in members]
    for x in sums:
        for y in sums + [mo.zero_module(u.algebra)]:
            h = hom_space(x, y)
            for coeffs in linalg.vectors(h.dim, 2):
                f = h.from_coords(coeffs)
                if he.is_left_almost_split(f, data.c_class_bits, u) and \
                        he.is_strong_las(f, data.c_class_bits, u):
                    assert f.is_mono() or f.is_epi()


# (fixture, bound); None is the CLI's default bound of 2 at every vertex
LAS_CASES = [("a2", None), ("a3", None), ("d4", None), ("loop", None),
             ("square", (1, 1, 1, 1)), ("nakayama", None)]


@pytest.mark.parametrize("name, bound", LAS_CASES,
                         ids=[name for name, _ in LAS_CASES])
def test_las_verdicts_match_the_literal_definition(name, bound):
    # on every cotilting pair, the las and strong las verdicts read off one
    # row space per member agree with the literal definition, one
    # constrained solve per map: on the strong las map of every heart
    # sequence, on the identity of every class member, which is never las,
    # and on every basis map from a member to a member or a sum of two
    text = (FIXTURES / f"{name}.quiver").read_text()
    n = parse_algebra(text).quiver.n
    ctx = build_context(universe_of(text, bound or (2,) * n))
    u = ctx.universe
    verdicts = Counter()
    for data in ctx.cotilting_pairs:
        bits = data.c_class_bits
        members = u.members(bits)
        targets = members + [mo.direct_sum([a, b]) for a, b
                             in combinations_with_replacement(members, 2)]
        criticals, specials = he.classify_neg_isolated(data)
        sequence_maps = [seq.strong_las for seq in criticals + specials]
        identities = [mo.identity_morphism(m) for m in members]
        basis_maps = [b for x in members for y in targets
                      for b in hom_space(x, y).basis]
        for f in sequence_maps + identities + basis_maps:
            las = left_almost_split(f, bits, u)
            strong = las and factors_uniquely(f, bits, u)
            assert he.is_left_almost_split(f, bits, u) == las, (data.pair, f)
            assert he.is_strong_las(f, bits, u) == strong, (data.pair, f)
            assert he.strong_las_uniqueness_scan(f, bits, u) == strong
            verdicts[las, strong] += 1
        assert all(left_almost_split(f, bits, u) and factors_uniquely(
            f, bits, u) for f in sequence_maps)
        assert not any(left_almost_split(f, bits, u) for f in identities)
    assert verdicts[True, True] and verdicts[True, False] \
        and verdicts[False, False]


def test_essentiality_oracle(a2_universe):
    from torsionheart.homology import injective_envelope
    u = a2_universe
    s2 = module_by_dims(u, (0, 1))
    env = injective_envelope(s2)
    assert he.essentiality_check(env, u)
    # a non-essential mono: S2 -> P1 + S2 hitting only the second summand
    p1 = module_by_dims(u, (1, 1))
    inc = mo.block_morphism([s2], [p1, s2], {(0, 1): mo.identity_morphism(s2)})
    assert not he.essentiality_check(inc, u)


def test_essentiality_check_honours_the_algebra_caps():
    # the scan reads the caps the algebra was parsed with: I(3) on A3 is
    # three-dimensional, above a submodule cap of 1
    caps = DEFAULT_CAPS._replace(submodule_dim_cap=1)
    a = parse_algebra(A3_TEXT, caps)
    u = enumerate_indecomposables(a, (2, 2, 2))
    env = injective_envelope(mo.simple_module(a, 2))
    assert env.target.total_dim == 3
    with pytest.raises(ResourceLimitError):
        he.essentiality_check(env, u)


def test_fault_injection_oracle_mismatch(a2_ctx, monkeypatch):
    # corrupting the fast detector must surface as an oracle-mismatch failure
    # with a counterexample witness
    from torsionheart import verify as ve

    real = he.is_almost_torsion_free

    def corrupted(t, pair, mode="fast"):
        if mode == "fast":
            return not real(t, pair, "oracle")
        return real(t, pair, mode)

    monkeypatch.setattr(ve, "is_almost_torsion_free", corrupted)
    result = ve.suite_oracle_equivalence(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "ATF mismatch at M1 (1,0) for TorsionPair(T=[1], F=[0, 2]): "
               "fast False, oracle True")


def test_strong_las_disagreement_names_the_simple_and_verdicts(a2_ctx,
                                                               monkeypatch):
    # a fast strong-las verdict that disagrees with the two oracles must be
    # named with the simple, its pair and all three verdicts
    from torsionheart import verify as ve

    monkeypatch.setattr(ve, "is_strong_las_fast", lambda f, data: False)
    result = ve.suite_oracle_equivalence(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "strong-las disagreement on the critical sequence of M0 (0,1) "
               "for TorsionPair(T=[], F=[0, 1, 2]): fast False, linear True, "
               "uniqueness scan True")


def test_cogeneration_failure_names_the_member_and_pair(a2_ctx, monkeypatch):
    # a class member without an embedding into the criticals must be named
    # with its member and its pair
    from torsionheart import verify as ve

    monkeypatch.setattr(ve, "embedding_into_criticals",
                        lambda m, criticals: None)
    result = ve.suite_cogeneration(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "M0 (0,1) of TorsionPair(T=[], F=[0, 1, 2]) has no embedding "
               "into the criticals")


def test_hereditary_failure_names_the_simple_and_conditions(a2_ctx,
                                                            monkeypatch):
    # a failed pullback check must name the simple, its pair and the
    # conditions that fail
    from torsionheart import verify as ve

    check = ve.hereditary_cover_check
    monkeypatch.setattr(ve, "hereditary_cover_check", lambda q, data:
                        check(q, data)._replace(kernel_matches=False,
                                                kernel_indecomposable=False))
    result = ve.suite_hereditary_pullback(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "simple M1 (1,0) of TorsionPair(T=[1], F=[0, 2]) fails "
               "kernel_matches, kernel_indecomposable")


def test_c0_c1_failure_names_the_pair(a2_ctx, monkeypatch):
    # a critical whose envelope is not a summand of C0 must be named with
    # its member and its pair
    from torsionheart import verify as ve

    classified = ve.AnalysisContext.classified

    def misplaced(self, data):
        criticals, specials = classified(self, data)
        return ([seq._replace(envelope_index=0)
                 for seq in criticals], specials)

    monkeypatch.setattr(ve.AnalysisContext, "classified", misplaced)
    result = ve.suite_c0_c1_summands(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "critical envelope M0 (0,1) not a summand of C0 for "
               "TorsionPair(T=[], F=[0, 1, 2])")


def test_dichotomy_failure_names_the_pair_and_envelope(a2_ctx, monkeypatch):
    # a strong las morphism that is neither mono nor epi must be named with
    # its envelope member and its pair
    from torsionheart import verify as ve

    monkeypatch.setattr(he.HeartSequence, "strong_las", property(
        lambda seq: mo.zero_morphism(seq.envelope, seq.envelope)))
    result = ve.suite_dichotomy(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "strong las morphism of critical envelope M2 (1,1) neither "
               "mono nor epi for TorsionPair(T=[], F=[0, 1, 2])")


def _drop_first_critical(monkeypatch):
    from torsionheart import verify as ve

    classified = ve.AnalysisContext.classified

    def dropped(self, data):
        criticals, specials = classified(self, data)
        return criticals[1:], specials

    monkeypatch.setattr(ve.AnalysisContext, "classified", dropped)
    return ve


def test_intersecting_envelopes_name_the_member(a2_ctx, monkeypatch):
    # a special envelope that is also a critical one must be named
    from torsionheart import verify as ve

    classified = ve.AnalysisContext.classified

    def shared(self, data):
        criticals, specials = classified(self, data)
        if criticals and specials:
            specials = [specials[0]._replace(
                envelope_index=criticals[0].envelope_index)]
        return criticals, specials

    monkeypatch.setattr(ve.AnalysisContext, "classified", shared)
    result = ve.suite_dichotomy(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "E and M sets intersect at M2 (1,1) for pair "
               "TorsionPair(T=[1], F=[0, 2])")


def test_split_injectivity_failure_names_the_member(a2_ctx, monkeypatch):
    # the first summand of C0 that is not split injective must be named:
    # C0 is M1 + M2 for this pair, and only M2 fails
    from torsionheart import verify as ve

    u = a2_ctx.universe
    p1 = u.index_of(module_by_dims(u, (1, 1)))
    monkeypatch.setattr(ve, "is_split_injective", lambda m, bits, u:
                        not u.summand_bitset(m) >> p1 & 1)
    result = ve.suite_split_injectivity(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "C0 of TorsionPair(T=[], F=[0, 1, 2]) is not split injective "
               "at M2 (1,1)")


def test_envelope_set_failure_names_the_member(a2_ctx, monkeypatch):
    # a summand of C without an envelope must be named with its member
    ve = _drop_first_critical(monkeypatch)
    result = ve.suite_dichotomy(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "envelope set differs from the summands of C at M2 (1,1) for "
               "TorsionPair(T=[], F=[0, 1, 2])")


def test_add_c0_failure_names_the_member(a2_ctx, monkeypatch):
    # a summand of C0 that is no critical envelope must be named
    ve = _drop_first_critical(monkeypatch)
    result = ve.suite_split_injectivity(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "add(C0) differs from add(criticals) at M2 (1,1) for "
               "TorsionPair(T=[], F=[0, 1, 2])")


def test_minimal_cotilting_failure_names_the_member(a2_ctx, monkeypatch):
    # a minimal cotilting module missing a summand of C must name it
    from torsionheart import verify as ve

    monkeypatch.setattr(ve, "minimal_cotilting", lambda data, envelopes:
                        data.c0)
    result = ve.suite_minimal_cotilting(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "summands of the minimal cotilting module differ at M0 (0,1) "
               "for TorsionPair(T=[1], F=[0, 2])")


def test_non_brick_simple_names_the_member_and_pair(a2_ctx, monkeypatch):
    # a heart simple that is no brick must be named with its member and pair
    from torsionheart import verify as ve

    monkeypatch.setattr(ve, "is_brick", lambda m: False)
    result = ve.suite_brick_property(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "heart simple M0 (0,1) is not a brick for "
               "TorsionPair(T=[], F=[0, 1, 2])")


def test_non_iso_map_names_the_members_and_pair(a2_ctx, monkeypatch):
    # a nonzero non-iso map between torsion ATF simples must name both
    # members and the pair: here every Hom space holds the epi P1 -> S1
    from torsionheart import verify as ve
    from torsionheart.homology import HomSpace

    u = a2_ctx.universe
    p1, s1 = module_by_dims(u, (1, 1)), module_by_dims(u, (1, 0))
    epi = hom_space(p1, s1).basis[0]
    monkeypatch.setattr(ve, "hom_space", lambda m, n: HomSpace(m, n, (epi,)))
    result = ve.suite_brick_property(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "non-iso map between torsion ATF modules M1 (1,0) -> M1 (1,0) "
               "for TorsionPair(T=[1], F=[0, 2])")


def test_hom_between_distinct_simples_names_them(a3_ctx, monkeypatch):
    # a nonzero Hom between two distinct torsion ATF simples must name both
    # members and the pair: here Hom(a, b) is read as End(a)
    from torsionheart import verify as ve

    monkeypatch.setattr(ve, "hom_space", lambda m, n: hom_space(m, m))
    result = ve.suite_brick_property(a3_ctx)
    assert (result.passed, result.detail) == (
        False, "hom between distinct torsion ATF modules M1 (0,1,0) -> "
               "M2 (1,0,0) for TorsionPair(T=[1, 2, 4], F=[0, 3, 5])")


@pytest.mark.parametrize("detector, side", [
    ("is_almost_torsion_free", "torsion-ATF above"),
    ("is_almost_torsion", "torsion-free-AT below")])
def test_brick_label_failure_names_the_cover(a2_ctx, monkeypatch, detector,
                                             side):
    # a label that fails above or below its cover must be named with its
    # member and the cover, upper class first
    from torsionheart import verify as ve

    monkeypatch.setattr(ve, detector, lambda m, pair: False)
    result = ve.suite_brick_labels(a2_ctx)
    assert (result.passed, result.detail) == (
        False, "label M0 (0,1) of the cover TorsionPair(T=[0], F=[1]) -> "
               f"TorsionPair(T=[], F=[0, 1, 2]) not {side}")


def _envelope_replaced_by(monkeypatch, wrong):
    """Make the special cover and envelope of every heart simple S carry
    wrong(S) where the heart injective envelope belongs."""
    cover, envelope = he.special_cover, he.special_envelope
    monkeypatch.setattr(he, "special_cover", lambda s, data:
                        cover(s, data)._replace(left=wrong(s)))
    monkeypatch.setattr(he, "special_envelope", lambda s, data:
                        envelope(s, data)._replace(middle=wrong(s)))


def test_envelope_outside_add_c_is_an_internal_error(a2_universe, a2_data,
                                                     monkeypatch):
    # an envelope that is no member, or a member outside add(C), is never
    # stored as an index
    u = a2_universe
    outside = next(x for i, x in enumerate(u.indecs)
                   if not a2_data.add_c_bits >> i & 1)
    simples = he.heart_simples(a2_data.pair)
    assert simples
    for wrong in (lambda s: mo.direct_sum([s, s]), lambda s: outside):
        _envelope_replaced_by(monkeypatch, wrong)
        for simple in simples:
            with pytest.raises(AssertionError, match=r"^envelope module is "
                               r"not a member of add\(C\)$"):
                he.heart_sequence(simple, a2_data)


def test_envelope_outside_add_c_exits_internal(monkeypatch, capsys):
    from torsionheart.cli import EXIT_INTERNAL, main

    _envelope_replaced_by(monkeypatch, lambda s: mo.direct_sum([s, s]))
    code = main(["heart", str(FIXTURES / "a2.quiver"), "--gens", "1.0"])
    assert (code, capsys.readouterr().err) == (
        EXIT_INTERNAL,
        "internal error: envelope module is not a member of add(C)\n")


def _literal_atf(m, pair):
    """ATF1 and the bounded ATF2 scan for M, straight from the definitions:
    every proper submodule is torsion-free, and no non-split extension of M
    by a sum A of at most two members outside T has a torsion middle."""
    from torsionheart.homology import ext1
    u = pair.universe
    atf1 = all(sub.dims == m.dims or pair.is_torsion_free(sub)
               for sub, _ in u.all_submodules(m))
    atf2 = not any(
        any(coeffs) and pair.is_torsion(ses.middle)
        for bag, bits in he._sum_bags(u) if bits & ~pair.torsion_bits
        for coeffs, ses in all_ext_classes(ext1(m, sum_module(u, bag))))
    return atf1, atf2


def test_oracle_mode_on_non_member(a2_universe, a2_data):
    # oracle mode accepts modules outside the universe listing, and reads
    # their extensions as extensions of the bag of their summands
    s1 = module_by_dims(a2_universe, (1, 0))
    both = mo.direct_sum([s1, s1])
    assert not he.is_almost_torsion_free(both, a2_data.pair, "oracle")
    s2 = module_by_dims(a2_universe, (0, 1))
    twice = mo.direct_sum([s2, s2])
    atf1, atf2 = _literal_atf(twice, a2_data.pair)
    assert atf1     # so the Ext scan runs on the bag (S2, S2)
    assert he.is_almost_torsion_free(twice, a2_data.pair, "oracle") == atf2


def test_split_injective_scan_agrees_a3(a3_universe):
    # ext criterion vs literal bounded mono scan over a richer class
    u = a3_universe
    s1 = module_by_dims(u, (1, 0, 0))
    pair = to.pair_from_torsion_class(
        to.torsion_closure(u.summand_bitset(s1), u), u)
    data = co.cotilting_from_pair(pair)
    for i in bit_indices(data.c_class_bits):
        m = u.indecs[i]
        assert he._indec_split_injective(i, data.c_class_bits, u) == \
            split_injective_scan(m, data.c_class_bits, u)


@pytest.mark.parametrize("name", ["a2", "a3", "d4"])
def test_ext_middles_sum_plus_split_is_every_class(name, request):
    # Differential check of the block reading of Ext middles, of the skip
    # of the split class and of Ext^1 = 0 pairs: adding the split middle
    # back gives the multiset of the middles of every class realized on the
    # sums, for a member and a bag in both directions and, on a2 and a3,
    # for two bags of two members.
    from torsionheart.homology import ext1
    u = request.getfixturevalue(f"{name}_universe")
    bags = [bag for bag, _ in he._sum_bags(u)]
    pairs = [pair for i in range(u.n) for bag in bags
             for pair in (((i,), bag), (bag, (i,)))]
    if name != "d4":
        pairs += [(right, left) for right in bags for left in bags
                  if len(right) == len(left) == 2]
    for right, left in pairs:
        space = ext1(sum_module(u, right), sum_module(u, left))
        every = Counter(u.summand_bitset(ses.middle)
                        for _, ses in all_ext_classes(space))
        split = sum(1 << x for x in set(right + left))
        assert Counter(u.ext_middles(right, left)) + Counter([split]) \
            == every, (right, left)


def test_oracle_never_realizes_the_split_class(monkeypatch):
    # The oracle reads a class that is nonzero on one block of
    # Ext^1(+R_i, +L_j) off the middles of the pair of members, and never
    # realizes the split class: every class it realizes between two sums
    # has two or more nonzero blocks, and one between two members has its
    # one block nonzero.
    from torsionheart import universe as un
    from torsionheart import verify as ve
    # a fresh context, so that no oracle scan is served from the memo
    ctx = ve.build_context(
        un.enumerate_indecomposables(parse_algebra(A3_TEXT), (2, 2, 2)))
    middle = un.ext_middle
    calls = []

    def guarded_middle(rights, lefts, blocks):
        assert blocks and all(
            any(int(c) for c in coeffs) for coeffs in blocks.values()), \
            f"class with blocks {blocks} is split on a block"
        if len(rights) + len(lefts) > 2:
            assert len(blocks) >= 2, f"class with blocks {blocks} is not mixed"
            calls.append(blocks)
        return middle(rights, lefts, blocks)

    monkeypatch.setattr(un, "ext_middle", guarded_middle)
    assert ve.suite_oracle_equivalence(ctx).passed
    assert calls


def test_every_ext_class_is_realized_once(monkeypatch):
    # the completeness check, the lattice, the fast criteria and the oracle
    # all read Ext middles through the universe, which realizes each class
    # of each pair of modules, and each mixed class of each pair of sums of
    # members, once per run
    from torsionheart import universe as un
    from torsionheart.cli import main
    middle = un.ext_middle
    seen = Counter()

    def counted_middle(rights, lefts, blocks):
        seen[tuple(m.key for m in rights), tuple(m.key for m in lefts),
             tuple(sorted((at, tuple(c)) for at, c in blocks.items()))] += 1
        return middle(rights, lefts, blocks)

    monkeypatch.setattr(un, "ext_middle", counted_middle)
    assert main(["verify", str(FIXTURES / "a3.quiver")]) == 0
    assert seen and max(seen.values()) == 1


def test_verify_d4_realizes_no_ext_of_sums(monkeypatch):
    # Ext^1 between sums of members is read block by block: a verify run on
    # d4 builds no Ext^1 space of a sum, and its pushouts, 158 in all, are
    # the realizations of the classes of pairs of members and of the mixed
    # classes of the oracle
    from torsionheart import homology as ho
    from torsionheart.cli import main
    from torsionheart.krull import is_indecomposable
    init, pushout = ho.Ext1Space.__init__, ho.pushout
    ends, pushouts = [], []

    def recorded_init(self, m, n):
        ends.extend((m, n))
        init(self, m, n)

    def counted_pushout(f, g):
        pushouts.append(None)
        return pushout(f, g)

    monkeypatch.setattr(ho.Ext1Space, "__init__", recorded_init)
    monkeypatch.setattr(ho, "pushout", counted_pushout)
    assert main(["verify", str(FIXTURES / "d4.quiver")]) == 0
    assert ends and all(is_indecomposable(m) for m in ends)
    assert 0 < len(pushouts) <= 158


def test_verify_d4_builds_each_projective_once(monkeypatch):
    # P(v) is built once per vertex of each algebra, the presentation reads
    # the cached syzygy and the injective envelope is cached: a verify run
    # on d4 builds 8 projectives, 4 over the algebra and 4 over its
    # opposite, and at most 36 projective covers
    from torsionheart import homology as ho
    from torsionheart.cli import main
    bodies, covers = [], []
    body, cover = mo._projective_module, ho.projective_cover

    def counted_body(algebra, v):
        bodies.append((algebra.key, v))
        return body(algebra, v)

    def counted_cover(m):
        covers.append(m.key)
        return cover(m)

    monkeypatch.setattr(mo, "_projective_module", counted_body)
    monkeypatch.setattr(ho, "projective_cover", counted_cover)
    assert main(["verify", str(FIXTURES / "d4.quiver")]) == 0
    assert 0 < len(bodies) == len(set(bodies)) <= 8
    assert 0 < len(covers) <= 36


def test_verify_d4_computes_each_known_answer_once(monkeypatch):
    # a verify run on d4 asks each left almost split verdict, closure
    # decomposition, Hom-vector reading and member injective dimension
    # once, takes the identity as the approximation of a module already in
    # the class, and re-ranks in `_strip_components` only the generators a
    # trial removal touches.  Decompositions and readings are bounded
    # together: each identifies modules as members, one way or the other
    from torsionheart import homology as ho
    from torsionheart import linalg
    from torsionheart import universe as un
    from torsionheart.cli import main
    bodies, splits, readings, approxes, envelopes, ranks = (
        [], [], [], [], [], [])
    stripping = []

    def recorded(module, name, log, entry=lambda *args: None):
        real = getattr(module, name)

        def wrapped(*args):
            log.append(entry(*args))
            return real(*args)
        monkeypatch.setattr(module, name, wrapped)

    recorded(he, "_left_almost_split", bodies, lambda f, bits, u:
             (f.source.key, f.target.key, f.maps, bits))
    recorded(un, "decompose", splits, lambda m: m.key)
    recorded(un, "hom_dims_into", readings, lambda sources, m: m.key)
    recorded(co, "minimal_approx", approxes)
    recorded(co, "injective_envelope", envelopes)
    strip, rank = ho._strip_components, linalg.rank

    def marked_strip(*args):
        stripping.append(None)
        try:
            return strip(*args)
        finally:
            stripping.pop()

    def counted_rank(a, p):
        if stripping:
            ranks.append(None)
        return rank(a, p)

    monkeypatch.setattr(ho, "_strip_components", marked_strip)
    monkeypatch.setattr(linalg, "rank", counted_rank)
    assert main(["verify", str(FIXTURES / "d4.quiver")]) == 0
    assert 0 < len(bodies) == len(set(bodies)) <= 80
    assert 0 < len(splits) == len(set(splits))
    assert 0 < len(readings) == len(set(readings))
    assert len(splits) + len(readings) <= 228
    assert 0 < len(approxes) <= 68
    assert 0 < len(envelopes) <= 12
    assert 0 < len(ranks) <= 1140


def _listings(monkeypatch) -> list:
    """Keys of the modules whose submodules get listed, through the
    universe's scan or any name the heart holds for it."""
    from torsionheart import universe as un
    listed = []
    real = un.all_submodules

    def counted(m):
        listed.append(m.key)
        return real(m)

    for module in (un, he):
        monkeypatch.setattr(module, "all_submodules", counted, raising=False)
    return listed


def test_heart_d4_lists_no_submodule(monkeypatch, capsys):
    # without --oracle, heart reads closure under submodules as Cogen(add X)
    # inside the class, off member Hom spaces: no submodule is listed
    from torsionheart.cli import main
    listed = _listings(monkeypatch)
    assert main(["heart", str(FIXTURES / "d4.quiver"), "--gens", "1"]) == 0
    capsys.readouterr()
    assert listed == []


def test_verify_d4_lists_each_module_once(monkeypatch, capsys):
    # the essentiality oracle reads submodules through the universe's memo,
    # as the ATF/AT oracle does: the injective (1, 1, 1, 1), the envelope
    # of several cover middles, is listed once
    from torsionheart.cli import main
    listed = _listings(monkeypatch)
    assert main(["verify", str(FIXTURES / "d4.quiver")]) == 0
    capsys.readouterr()
    assert listed and len(listed) == len(set(listed))
