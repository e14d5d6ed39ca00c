"""Simple objects of the HRS-tilt heart and their injective envelopes.

The heart of the tilt of (T, F) is never materialized as complexes: the
simple objects are detected on the module level as the torsion almost
torsion-free modules (shifted) and the torsion-free almost torsion modules.

Each detection ships in two modes.  The fast criteria

  ATF1': every map from a torsion indecomposable into T is zero or onto,
  ATF2': no nonzero torsion-free indecomposable F admits an extension of T
         by F whose middle term is torsion,

and their duals are reductions obtained by pushing out along A -> A/t(A),
pulling back along t(B) -> B and splitting off indecomposable summands; the
oracle mode quantifies literally over all submodules, quotients, and bounded
extension scans, and the acceptance suite insists the two modes agree
everywhere.  One body, `_is_almost`, serves both detections in both modes:
the almost torsion conditions are the almost torsion-free ones with T and F,
submodules and quotients, and the two ends of Hom and Ext swapped.
Likewise one `heart_sequence` builds the special cover of a shifted simple and
the special envelope of an unshifted one.

The oracle's bounded ATF2 scan reads the middle of every non-split
extension of T by a sum A of at most two indecomposables, skipping every
torsion A.  The split class cannot witness a failure: its middle T + A
keeps the non-torsion summands of A.  Dually, the AT2 scan skips every
torsion-free B, so the split middle F + B is never torsion-free.

Every Ext middle, fast or oracle, is read through the universe as
`IndecUniverse.ext_middles` between two sums of members; a module M outside
the listing is read as the bag of its summands.  It reads a class by its
blocks in Ext^1(R_i, L_j): a class nonzero on one block has the middle of
that block's class plus the other members, read off the list of the pair
of members, and only a class nonzero on two or more blocks is realized,
once per universe.  The oracle still quantifies over every class of the sum:
it does not take over the ATF2' shortcut that an indecomposable F suffices.

The left almost split (las) tests read one image per class member T: the
composites of f: X -> Y with a basis of Hom(Y, T), `_precomposed`, span the
maps X -> T that factor through f.  f is a split mono iff the span for
T = X holds id_X; f is las iff it is not and every span holds each non-iso
X -> T; strong las iff, also, the composites are independent for every T.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from . import linalg
from .algebra import cached
from .cotilting import CotiltingData, special_cover, special_envelope
from .homology import hom_space, injective_envelope
from .modules import (
    Module, Morphism, assemble, cokernel, identity_morphism, kernel,
    unvec_morphism,
)
from .torsion import TorsionPair, is_hereditary, submodule_closed
from .universe import IndecUniverse, bit_indices


class HeartSimple(namedtuple("HeartSimple", "module index shifted")):
    """The member of universe index `index`; shifted when it is torsion ATF,
    a heart simple as S[-1]."""
    __slots__ = ()

    @property
    def kind(self) -> str:
        return ("torsion almost torsion-free, shifted" if self.shifted
                else "torsion-free almost torsion")


class HeartSequence(namedtuple("HeartSequence",
                               "simple sequence envelope_index")):
    """The special cover 0 -> N -> M -> S -> 0 of a shifted simple S, or the
    special envelope 0 -> S -> N -> M -> 0 of an unshifted one, as an SES.
    N is the heart injective envelope of the simple, the member of universe
    index envelope_index and a summand of C; its strong left almost split
    morphism is the mono of the cover, resp. the epi of the envelope."""
    __slots__ = ()

    @property
    def kind(self) -> str:
        return "special" if self.simple.shifted else "critical"

    @property
    def envelope(self) -> Module:
        ses = self.sequence
        return ses.left if self.simple.shifted else ses.middle

    @property
    def strong_las(self) -> Morphism:
        ses = self.sequence
        return ses.inject if self.simple.shifted else ses.surject


# -- almost torsion(-free) detection -------------------------------------------


def _sum_bags(u: IndecUniverse):
    """(bag, bits) over the nonzero sums of at most two members: the bag is
    the sorted tuple of their indices, bits the set of them."""
    for i in range(u.n):
        yield (i,), 1 << i
        yield (i, i), 1 << i
        for j in range(i + 1, u.n):
            yield (i, j), 1 << i | 1 << j


def _ext_scan_finds_witness(u: IndecUniverse, m: Module, m_on_right: bool,
                            class_bits: int) -> bool:
    """Bounded ATF2/AT2 scan: some extension between M and a sum A of at most
    two members with A outside add(class) has its middle term inside.

    M, a member or not, is read as the bag of its summands.  It is the right
    end (the quotient) of the extension when m_on_right, else the left end.
    Only the middles of non-split classes are read: the split middle is
    M + A, which lies outside add(class) because A does.  This needs no
    fast criterion, only the skip of every A inside add(class).
    """
    ends = tuple(i for i, mult in sorted(u.summands(m).items())
                 for _ in range(mult))
    for bag, bag_bits in _sum_bags(u):
        if bag_bits & ~class_bits == 0:
            continue
        if any(bits & ~class_bits == 0 for bits in u.ext_middles(
                *((ends, bag) if m_on_right else (bag, ends)))):
            return True
    return False


def _is_almost(m: Module, pair: TorsionPair, mode: str, torsion: bool) -> bool:
    """ATF1 + ATF2 for a torsion M (torsion=True), else AT1 + AT2.  The two
    are dual: T and F swap, submodules and quotients swap, and so do the
    two ends of every Hom and Ext."""
    if m.is_zero():
        raise ValueError("the zero module is neither almost torsion-free "
                         "nor almost torsion")
    u = pair.universe
    # own: the class of M; other: the class its proper pieces must lie in
    own, other = ((pair.torsion_bits, pair.torsion_free_bits) if torsion
                  else (pair.torsion_free_bits, pair.torsion_bits))
    if mode == "fast":
        idx = u.index_of(m)
        if idx is None:
            raise ValueError("fast mode needs a universe member")
        # ATF1': no nonzero non-surjective map from a torsion indecomposable,
        # i.e. none maps nonzero into a maximal submodule of T: each lies in
        # T^perp = F.  AT1': no nonzero non-injective map into a torsion-free
        # indecomposable, i.e. each quotient of F by a simple lies in
        # perp(F) = T.
        pieces = (u.maximal_submodules(idx) if torsion
                  else u.simple_socle_quotients(idx))
        if any(u.summand_bitset(piece) & ~other for piece in pieces):
            return False
        # ATF2': no extension of T by a torsion-free indecomposable with
        # torsion middle term; AT2': no extension of a torsion indecomposable
        # by F with torsion-free middle term
        for x in bit_indices(other):
            for middle_bits in u.ext_middles(
                    *(((idx,), (x,)) if torsion else ((x,), (idx,)))):
                if middle_bits & ~own == 0:
                    return False
        return True
    if mode != "oracle":
        raise ValueError(f"unknown mode {mode!r}")
    # ATF1, literally: every proper submodule of T is torsion-free; AT1:
    # every proper quotient of F is torsion
    for piece, _ in u.all_submodules(m) if torsion else u.all_quotients(m):
        if piece.dims != m.dims and u.summand_bitset(piece) & ~other:
            return False
    # ATF2/AT2, bounded scan: all extensions of T by (of F by) sums of at
    # most two indecomposables; a middle term in the class of M forces the
    # other end into it as well
    return not _ext_scan_finds_witness(u, m, torsion, own)


def is_almost_torsion_free(t: Module, pair: TorsionPair,
                           mode: str = "fast") -> bool:
    """ATF1 + ATF2 for the torsion pair; `mode` is 'fast' or 'oracle'."""
    return _is_almost(t, pair, mode, torsion=True)


def is_almost_torsion(f: Module, pair: TorsionPair, mode: str = "fast") -> bool:
    """AT1 + AT2 for the torsion pair; `mode` is 'fast' or 'oracle'."""
    return _is_almost(f, pair, mode, torsion=False)


def heart_simples(pair: TorsionPair, mode: str = "fast") -> list[HeartSimple]:
    """All simple objects of the heart: the torsion-free almost torsion
    members, then the torsion almost torsion-free ones (shifted)."""
    u = pair.universe
    return [HeartSimple(u.indecs[i], i, shifted)
            for shifted, bits, detect in (
                (False, pair.torsion_free_bits, is_almost_torsion),
                (True, pair.torsion_bits, is_almost_torsion_free))
            for i in bit_indices(bits) if detect(u.indecs[i], pair, mode)]


# -- left almost split morphisms -------------------------------------------------


def is_left_almost_split(f: Morphism, class_bits: int, u: IndecUniverse) -> bool:
    """f is not a split mono, and every non-split-mono out of its source into
    a class member factors through it.  Quantification over indecomposable
    targets suffices (sources with local endomorphism rings).  The verdict
    is cached on the universe: the fast criterion and both oracles ask it of
    the same map."""
    if not (u.in_class(f.source, class_bits)
            and u.in_class(f.target, class_bits)):
        raise ValueError("source and target must lie in the class")
    return cached(u, ("is_left_almost_split", f.source.key, f.target.key,
                      f.maps, class_bits),
                  lambda: _left_almost_split(f, class_bits, u))


def _precomposed(f: Morphism, target: Module) -> list[tuple[int, ...]]:
    """The vec rows of f.then(h) for h in the basis of Hom(f.target, target):
    they span the maps out of f.source that factor through f."""
    return [f.then(h).vec() for h in hom_space(f.target, target).basis]


def _left_almost_split(f: Morphism, class_bits: int, u: IndecUniverse) -> bool:
    x = f.source
    p = x.algebra.field.p
    # f is a split mono iff the identity of its source factors through it
    if linalg.in_row_space(identity_morphism(x).vec(),
                           *linalg.rref(_precomposed(f, x), p), p):
        return False
    for i in bit_indices(class_bits):
        target = u.indecs[i]
        hx = hom_space(x, target)
        if target.dims != x.dims:
            # no split monos are possible; the factorization condition is the
            # surjectivity of precomposition with f
            if hx.dim and linalg.rank(_precomposed(f, target), p) < hx.dim:
                return False
        else:
            # a split mono between equal dims is an isomorphism
            r, pivots = linalg.rref(_precomposed(f, target), p)
            for g in hx.elements():
                if not g.is_iso() and not linalg.in_row_space(
                        g.vec(), r, pivots, p):
                    return False
    return True


def is_strong_las(f: Morphism, class_bits: int, u: IndecUniverse) -> bool:
    """Left almost split with unique factorizations: the precomposition
    Hom(target, U) -> Hom(source, U) must be injective for every U in the
    class (uniqueness at g = 0 forces the kernel to vanish)."""
    p = f.source.algebra.field.p
    images = (_precomposed(f, u.indecs[i]) for i in bit_indices(class_bits))
    return is_left_almost_split(f, class_bits, u) and all(
        linalg.rank(rows, p) == len(rows) for rows in images)


def is_strong_las_fast(f: Morphism, data: CotiltingData) -> bool:
    """strong las in the cotilting class iff las and torsion cokernel."""
    u = data.universe
    if not is_left_almost_split(f, data.c_class_bits, u):
        return False
    return u.in_class(cokernel(f)[0], data.pair.torsion_bits)


def strong_las_uniqueness_scan(f: Morphism, class_bits: int,
                               u: IndecUniverse) -> bool:
    """Literal uniqueness oracle: for every class member and every non-split
    mono g out of the source, count the factorizations of g through f.
    The counting is batched: all composites f.then(h) are tabulated and each
    candidate g is looked up."""
    if not is_left_almost_split(f, class_bits, u):
        return False
    x = f.source
    p = x.algebra.field.p
    for i in bit_indices(class_bits):
        target = u.indecs[i]
        hx = hom_space(x, target)
        hy = hom_space(f.target, target)
        x_coords, y_coords = hx.coords(), hy.coords()
        amb = sum(a * b for a, b in zip(x.dims, target.dims))
        img_rows = _precomposed(f, target)
        counts = Counter(linalg.combination(c, img_rows, p, amb)
                         for c in y_coords)
        # with hx.dim == 0 the only g is 0, and it must factor uniquely
        basis_rows = hx.matrix()
        may_split = target.dims == x.dims
        for cvec in x_coords:
            gvec = linalg.combination(cvec, basis_rows, p, amb)
            if may_split and any(cvec) \
                    and unvec_morphism(x, target, gvec).is_iso():
                continue
            if counts.get(gvec, 0) != 1:
                return False
    return True


# -- the heart sequences ---------------------------------------------------------


def heart_sequence(simple: HeartSimple, data: CotiltingData) -> HeartSequence:
    """For a shifted (torsion almost torsion-free) simple S its special cover
    0 -> N -> M -> S -> 0, else (torsion-free almost torsion S) its special
    envelope 0 -> S -> N -> M -> 0.  N is the heart injective envelope of
    the simple, and the strong las morphism is strong left almost split in
    the cotilting class."""
    u = data.universe
    pair = data.pair
    s = simple.module
    if simple.shifted:
        if not pair.is_torsion(s):
            raise ValueError("expected a torsion module")
        if not is_almost_torsion_free(s, pair):
            raise ValueError("expected an almost torsion-free module")
        ses = special_cover(s, data)
    else:
        if not pair.is_torsion_free(s):
            raise ValueError("expected a torsion-free module")
        if not is_almost_torsion(s, pair):
            raise ValueError("expected an almost torsion module")
        ses = special_envelope(s, data)
    idx = u.index_of(ses.left if simple.shifted else ses.middle)
    if idx is None or not data.add_c_bits >> idx & 1:
        raise AssertionError("envelope module is not a member of add(C)")
    seq = HeartSequence(simple, ses, idx)
    if not is_strong_las_fast(seq.strong_las, data):
        raise AssertionError(
            f"{seq.kind} sequence map is not strong left almost split")
    return seq


def classify_neg_isolated(data: CotiltingData):
    """(criticals, specials): the heart sequences of the unshifted and of the
    shifted heart simples, sorted by the strong-las dichotomy.  Their
    envelope sets are disjoint and exhaust the indecomposable summands of
    the cotilting module; the callers that report this check it."""
    criticals: list[HeartSequence] = []
    specials: list[HeartSequence] = []
    for simple in heart_simples(data.pair):
        (specials if simple.shifted else criticals).append(
            heart_sequence(simple, data))
    return criticals, specials


# -- split injectivity --------------------------------------------------------------


def _indec_split_injective(idx: int, class_bits: int, u: IndecUniverse) -> bool:
    """Ext criterion for a submodule-closed class: the member is split
    injective iff no non-split extension by it has a middle term in the
    class."""
    return not any(middle_bits & ~class_bits == 0
                   for q in range(u.n)
                   for middle_bits in u.ext_middles((q,), (idx,)))


def is_split_injective(m: Module, class_bits: int, u: IndecUniverse) -> bool:
    """Every mono from M into a class member splits.  The class must be
    closed under submodules; this reduces to an exact Ext scan over
    indecomposable quotients."""
    if m.is_zero():
        return True
    if not u.in_class(m, class_bits):
        raise ValueError("module must lie in the class")
    if not submodule_closed(u, class_bits):
        raise ValueError("the class must be closed under submodules")
    return all(_indec_split_injective(idx, class_bits, u)
               for idx in u.summands(m))


# -- cogeneration by criticals --------------------------------------------------------


def embedding_into_criticals(m: Module, criticals: list[Module]):
    """A mono from M into a sum of at most length(M) critical modules, built
    greedily by cutting the joint kernel; None when impossible."""
    p = m.algebra.field.p
    q = m.algebra.quiver
    chosen: list[tuple[Module, Morphism]] = []

    def joint_kernel_dim(maps_list):
        total = 0
        for v in range(q.n):
            if m.dims[v] == 0:
                continue
            stacked = linalg.hconcat([f.maps[v] for _, f in maps_list],
                                     m.dims[v])
            total += m.dims[v] - linalg.rank(stacked, p)
        return total

    current = joint_kernel_dim(chosen)
    while current > 0:
        progressed = False
        for e in criticals:
            for f in hom_space(m, e).basis:
                cand = chosen + [(e, f)]
                d = joint_kernel_dim(cand)
                if d < current:
                    chosen, current, progressed = cand, d, True
                    break
            if progressed:
                break
        if not progressed:
            return None
    if len(chosen) > m.total_dim:
        raise AssertionError("witness uses more factors than the length bound")
    witness = assemble(m, chosen, "left")
    if not witness.is_mono():
        raise AssertionError("greedy embedding is not mono")
    return witness


# -- hereditary pullback check ------------------------------------------------------


class HereditaryCoverReport(namedtuple("HereditaryCoverReport", (
        "simple", "kernel_matches", "cover_matches_pullback",
        "envelope_of_cover_matches", "kernel_indecomposable"))):
    __slots__ = ()

    @property
    def failed(self) -> list[str]:
        """Names of the conditions, the fields after `simple`, that fail."""
        return [name for name in self._fields[1:] if not getattr(self, name)]

    @property
    def ok(self) -> bool:
        return not self.failed


def essentiality_check(f: Morphism, u: IndecUniverse) -> bool:
    """Every nonzero submodule U of the target meets the image (oracle scan
    of the submodules u lists, once per target).  U n im f is the kernel of
    U -> E -> E/im f, so U meets the image iff that map is not mono."""
    proj = cokernel(f)[1]
    return all(sub.is_zero() or not incl.then(proj).is_mono()
               for sub, incl in u.all_submodules(f.target))


def hereditary_cover_check(q: Module, data: CotiltingData) -> HereditaryCoverReport:
    """For a hereditary cotilting pair and a simple torsion Q: the cover of Q
    is the pullback of the cover of E(Q) along Q -> E(Q), with the same
    indecomposable kernel, and the cover middle of E(Q) is the injective
    envelope of the cover middle of Q.  Q -> E(Q) is mono, so the pullback
    is the preimage of Q in the cover middle of E(Q): the kernel of its map
    onto E(Q)/Q."""
    u = data.universe
    pair = data.pair
    if not is_hereditary(pair):
        raise ValueError("the torsion pair is not hereditary")
    if q.total_dim != 1 or not pair.is_torsion(q):
        raise ValueError("expected a simple torsion module")
    env = injective_envelope(q)
    cover_e = special_cover(env.target, data)
    w = kernel(cover_e.surject.then(cokernel(env)[1]))[0]
    cover_q = special_cover(q, data)
    kernel_matches = u.summands(cover_q.left) == u.summands(cover_e.left)
    cover_matches = u.summands(cover_q.middle) == u.summands(w)
    env_of_cover = injective_envelope(cover_q.middle)
    envelope_matches = (
        u.summands(env_of_cover.target) == u.summands(cover_e.middle)
        and essentiality_check(env_of_cover, u)
    )
    kernel_indec = u.index_of(cover_q.left) is not None
    return HereditaryCoverReport(
        simple=q,
        kernel_matches=kernel_matches,
        cover_matches_pullback=cover_matches,
        envelope_of_cover_matches=envelope_matches,
        kernel_indecomposable=kernel_indec,
    )
