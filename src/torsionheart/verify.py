"""Property suites run by the CLI verify command and the acceptance tests.

Each suite returns (name, passed, detail); a failing suite carries a
counterexample witness in the detail string.  All suites are deterministic.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import cached
from .cotilting import (
    CotiltingData, cotilting_from_pair, member_name, minimal_cotilting,
)
from .exceptions import NotCotiltingError
from .heart import (
    classify_neg_isolated, embedding_into_criticals, heart_simples,
    hereditary_cover_check, is_almost_torsion, is_almost_torsion_free,
    is_split_injective, is_strong_las, is_strong_las_fast,
    strong_las_uniqueness_scan,
)
from .homology import hom_space
from .krull import is_brick
from .torsion import TorsionPair, is_hereditary
from .torslattice import TorsLattice, enumerate_torsion_classes
from .universe import IndecUniverse, bit_indices


class VerifyResult(namedtuple("VerifyResult", "name passed detail")):
    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


class AnalysisContext(namedtuple("AnalysisContext",
                                 "universe lattice cotilting_pairs")):
    """A universe, its TorsLattice and its list of CotiltingData."""
    __slots__ = ()

    def classified(self, data: CotiltingData):
        return cached(self.universe, ("classified", data.pair.torsion_bits),
                      lambda: classify_neg_isolated(data))


def build_context(universe: IndecUniverse) -> AnalysisContext:
    lattice = enumerate_torsion_classes(universe)
    pairs: list[CotiltingData] = []
    for i in range(lattice.n):
        try:
            pairs.append(cotilting_from_pair(lattice.pair_of(i)))
        except NotCotiltingError:
            continue
    return AnalysisContext(universe, lattice, pairs)


class IncidenceReport(namedtuple("IncidenceReport", (
        "torsion_class_index",
        "down_labels",          # labels of covers leaving the class
        "up_labels",            # labels of covers arriving from above
        "shifted_simples",      # torsion almost torsion-free indices
        "plain_simples",        # torsion-free almost torsion indices
))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (sorted(self.down_labels) == sorted(self.shifted_simples)
                and sorted(self.up_labels) == sorted(self.plain_simples))


def incident_arrows_vs_heart(pair: TorsionPair, lattice: TorsLattice) -> IncidenceReport:
    """Compare the multiset of Hasse labels incident to the torsion class with
    the heart simples of the pair: arrows going down from the class carry the
    shifted simples, arrows coming down into the class carry the plain ones."""
    idx = lattice.class_index(pair.torsion_bits)
    down, up = lattice.covers_of(idx)
    simples = heart_simples(pair)
    return IncidenceReport(
        torsion_class_index=idx,
        down_labels=tuple(sorted(c.label_index for c in down)),
        up_labels=tuple(sorted(c.label_index for c in up)),
        shifted_simples=tuple(sorted(s.index for s in simples if s.shifted)),
        plain_simples=tuple(sorted(s.index for s in simples if not s.shifted)),
    )


def suite_oracle_equivalence(ctx: AnalysisContext) -> VerifyResult:
    """fast ATF/AT verdicts match the literal-definition oracle everywhere,
    and the fast strong-las criterion matches the brute uniqueness scan."""
    u = ctx.universe
    checked = 0
    for data in ctx.cotilting_pairs:
        pair = data.pair
        for i, m in enumerate(u.indecs):
            for name, in_class, detect in (
                    ("ATF", pair.is_torsion, is_almost_torsion_free),
                    ("AT", pair.is_torsion_free, is_almost_torsion)):
                if not in_class(m):
                    continue
                fast, oracle = detect(m, pair, "fast"), detect(m, pair, "oracle")
                if fast != oracle:
                    return VerifyResult(
                        "oracle-equivalence", False,
                        f"{name} mismatch at {member_name(u, i)} for {pair}: "
                        f"fast {fast}, oracle {oracle}")
                checked += 1
        criticals, specials = ctx.classified(data)
        for seq in criticals + specials:
            f = seq.strong_las
            fast = is_strong_las_fast(f, data)
            linear = is_strong_las(f, data.c_class_bits, u)
            brute = strong_las_uniqueness_scan(f, data.c_class_bits, u)
            if not (fast == linear == brute):
                return VerifyResult(
                    "oracle-equivalence", False,
                    f"strong-las disagreement on the {seq.kind} sequence of "
                    f"{member_name(u, seq.simple.index)} for {pair}: fast "
                    f"{fast}, linear {linear}, uniqueness scan {brute}")
            checked += 1
    return VerifyResult("oracle-equivalence", True,
                        f"{checked} verdicts agree across "
                        f"{len(ctx.cotilting_pairs)} cotilting pairs")


def suite_brick_property(ctx: AnalysisContext) -> VerifyResult:
    """Heart simples are bricks; nonzero maps between two torsion almost
    torsion-free modules of one pair are isomorphisms."""
    u = ctx.universe
    checked = 0
    for data in ctx.cotilting_pairs:
        simples = heart_simples(data.pair)
        for s in simples:
            if not is_brick(s.module):
                return VerifyResult(
                    "brick-property", False,
                    f"heart simple {member_name(u, s.index)} is not a brick "
                    f"for {data.pair}")
            checked += 1
        shifted = [s for s in simples if s.shifted]
        for a in shifted:
            for b in shifted:
                h = hom_space(a.module, b.module)
                between = (f"{member_name(u, a.index)} -> "
                           f"{member_name(u, b.index)} for {data.pair}")
                for f in h.basis:
                    if not f.is_zero() and not f.is_iso():
                        return VerifyResult(
                            "brick-property", False,
                            f"non-iso map between torsion ATF modules "
                            f"{between}")
                if a.index != b.index and h.dim:
                    return VerifyResult(
                        "brick-property", False,
                        f"hom between distinct torsion ATF modules {between}")
    return VerifyResult("brick-property", True, f"{checked} heart simples checked")


def suite_dichotomy(ctx: AnalysisContext) -> VerifyResult:
    """Strong las morphisms are mono or epi; criticals and specials are
    disjoint and together exhaust the summands of the cotilting module."""
    for data in ctx.cotilting_pairs:
        criticals, specials = ctx.classified(data)
        for seq in criticals + specials:
            f = seq.strong_las
            if not (f.is_mono() or f.is_epi()):
                return VerifyResult(
                    "dichotomy", False,
                    f"strong las morphism of {seq.kind} envelope "
                    f"{member_name(ctx.universe, seq.envelope_index)} neither "
                    f"mono nor epi for {data.pair}")
        crit_idx = {s.envelope_index for s in criticals}
        spec_idx = {s.envelope_index for s in specials}
        if crit_idx & spec_idx:
            return VerifyResult(
                "dichotomy", False,
                f"E and M sets intersect at "
                f"{member_name(ctx.universe, min(crit_idx & spec_idx))} "
                f"for pair {data.pair}")
        differ = (crit_idx | spec_idx) ^ set(bit_indices(data.add_c_bits))
        if differ:
            return VerifyResult(
                "dichotomy", False,
                f"envelope set differs from the summands of C at "
                f"{member_name(ctx.universe, min(differ))} for {data.pair}")
    return VerifyResult("dichotomy", True,
                        f"{len(ctx.cotilting_pairs)} pairs checked")


def suite_c0_c1_summands(ctx: AnalysisContext) -> VerifyResult:
    """Criticals are summands of C0 and specials are summands of C1."""
    u = ctx.universe
    for data in ctx.cotilting_pairs:
        criticals, specials = ctx.classified(data)
        bits = {"C0": u.summand_bitset(data.c0),
                "C1": u.summand_bitset(data.c1)}
        for seq in criticals + specials:
            c = "C1" if seq.simple.shifted else "C0"
            if not (bits[c] >> seq.envelope_index) & 1:
                return VerifyResult(
                    "c0-c1-summands", False,
                    f"{seq.kind} envelope {member_name(u, seq.envelope_index)} "
                    f"not a summand of {c} for {data.pair}")
    return VerifyResult("c0-c1-summands", True,
                        f"{len(ctx.cotilting_pairs)} pairs checked")


def suite_split_injectivity(ctx: AnalysisContext) -> VerifyResult:
    """C0 is split injective in the cotilting class and add(C0) is exactly
    add of the criticals."""
    u = ctx.universe
    for data in ctx.cotilting_pairs:
        if not is_split_injective(data.c0, data.c_class_bits, u):
            bad = next(i for i in u.summands(data.c0) if not
                       is_split_injective(u.indecs[i], data.c_class_bits, u))
            return VerifyResult(
                "split-injectivity", False,
                f"C0 of {data.pair} is not split injective at "
                f"{member_name(u, bad)}")
        criticals, _ = ctx.classified(data)
        crit_bits = 0
        for seq in criticals:
            crit_bits |= 1 << seq.envelope_index
        differ = u.summand_bitset(data.c0) ^ crit_bits
        if differ:
            return VerifyResult(
                "split-injectivity", False,
                f"add(C0) differs from add(criticals) at "
                f"{member_name(u, bit_indices(differ)[0])} for {data.pair}")
    return VerifyResult("split-injectivity", True,
                        f"{len(ctx.cotilting_pairs)} pairs checked")


def suite_cogeneration(ctx: AnalysisContext) -> VerifyResult:
    """Every indecomposable of the cotilting class embeds into a sum of at
    most length-many criticals, with the witness mono verified."""
    u = ctx.universe
    count = 0
    for data in ctx.cotilting_pairs:
        criticals, _ = ctx.classified(data)
        crit_modules = [seq.envelope for seq in criticals]
        for i in bit_indices(data.c_class_bits):
            witness = embedding_into_criticals(u.indecs[i], crit_modules)
            if witness is None:
                return VerifyResult(
                    "cogeneration-by-criticals", False,
                    f"{member_name(u, i)} of {data.pair} has no embedding "
                    f"into the criticals")
            count += 1
    return VerifyResult("cogeneration-by-criticals", True,
                        f"{count} witness monomorphisms built")


def suite_hereditary_pullback(ctx: AnalysisContext) -> VerifyResult:
    """Pullback description of simple covers over hereditary cotilting pairs."""
    u = ctx.universe
    checked = 0
    for data in ctx.cotilting_pairs:
        if not is_hereditary(data.pair):
            continue
        for i in bit_indices(data.pair.torsion_bits):
            q = u.indecs[i]
            if q.total_dim != 1:
                continue
            report = hereditary_cover_check(q, data)
            if not report.ok:
                return VerifyResult(
                    "hereditary-pullback", False,
                    f"simple {member_name(u, i)} of {data.pair} fails "
                    f"{', '.join(report.failed)}")
            checked += 1
    return VerifyResult("hereditary-pullback", True,
                        f"{checked} simple covers verified")


def suite_brick_labels(ctx: AnalysisContext) -> VerifyResult:
    """Label incidence matches heart simples for every cotilting pair; labels
    are dually consistent (torsion ATF above, torsion-free AT below); the
    maximal class has one down-arrow per simple module."""
    u = ctx.universe
    lat = ctx.lattice
    for data in ctx.cotilting_pairs:
        report = incident_arrows_vs_heart(data.pair, lat)
        if not report.ok:
            return VerifyResult("brick-labels", False,
                                f"incidence mismatch at {data.pair}: {report}")
    for cover in lat.covers:
        label = u.indecs[cover.label_index]
        upper_pair = lat.pair_of(cover.upper)
        lower_pair = lat.pair_of(cover.lower)
        at = (f"label {member_name(u, cover.label_index)} of the cover "
              f"{upper_pair} -> {lower_pair}")
        if not (upper_pair.is_torsion(label)
                and is_almost_torsion_free(label, upper_pair)):
            return VerifyResult("brick-labels", False,
                                f"{at} not torsion-ATF above")
        if not (lower_pair.is_torsion_free(label)
                and is_almost_torsion(label, lower_pair)):
            return VerifyResult("brick-labels", False,
                                f"{at} not torsion-free-AT below")
    top = lat.class_index(u.all_bits)
    down, _ = lat.covers_of(top)
    # completeness requires every simple S(v) to be a member
    n_simples = u.algebra.quiver.n
    if len(down) != n_simples:
        return VerifyResult(
            "brick-labels", False,
            f"maximal class has {len(down)} covers, expected {n_simples}")
    return VerifyResult(
        "brick-labels", True,
        f"{len(lat.covers)} covers consistent, {len(ctx.cotilting_pairs)} "
        f"incidences match")


def suite_minimal_cotilting(ctx: AnalysisContext) -> VerifyResult:
    """The perp-envelope of the sum of all heart envelopes is a cotilting
    module equivalent to C whose summands are exactly those of C."""
    u = ctx.universe
    for data in ctx.cotilting_pairs:
        criticals, specials = ctx.classified(data)
        tilde = minimal_cotilting(
            data, [s.envelope for s in criticals + specials])
        differ = u.summand_bitset(tilde) ^ data.add_c_bits
        if differ:
            return VerifyResult(
                "minimal-cotilting", False,
                f"summands of the minimal cotilting module differ at "
                f"{member_name(u, bit_indices(differ)[0])} for {data.pair}")
    return VerifyResult("minimal-cotilting", True,
                        f"{len(ctx.cotilting_pairs)} pairs checked")


ALL_SUITES = [
    suite_oracle_equivalence,
    suite_brick_property,
    suite_dichotomy,
    suite_c0_c1_summands,
    suite_split_injectivity,
    suite_cogeneration,
    suite_hereditary_pullback,
    suite_brick_labels,
    suite_minimal_cotilting,
]


def run_all_suites(ctx: AnalysisContext) -> list[VerifyResult]:
    return [suite(ctx) for suite in ALL_SUITES]
