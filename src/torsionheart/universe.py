"""Build every indecomposable under a dimension bound by generate-and-close;
the closure is also the certificate that the collection is closed under the
operations the torsion-theoretic layers need.

The closure starts from the simple, projective and injective modules that
fit the bound; a seed outside the bound is dropped.  An indecomposable
projective is some P(v), and members are taken up to isomorphism, so the
projective members are those of the fitting P(v) seeds and the injective
ones those of the fitting I(v): no member is tested for either.  Each
member X is dequeued once and gets its AR translates, tau X unless X is
projective and tau^-1 X unless X is injective, and, for each that fits the
bound, the middle of every non-split class of Ext^1(X, tau X), resp.
Ext^1(tau^-1 X, X): the AR pairs of X.  An AR translate of an
indecomposable is indecomposable, so it is read as one piece; an Ext
middle is decomposed, once per `Module.key`, into its indecomposable
pieces.  A piece that fits the bound and is new up to isomorphism becomes
a member, a piece outside the bound is an escape.  A piece is compared
only with the members of its dims, by `krull.is_isomorphic`, which needs no
search on an indecomposable: an isomorphism, if any, is a basis element of
the Hom space.  Since tau^-1 tau X = X = tau tau^-1 X
(Auslander-Reiten-Smalo, IV-V), a translate read as the member Y is also
the translate of Y on the other side, which is not computed again: each AR
pair of members is read once, with one translate, from whichever of its
two members reaches it first.  The universe is complete iff nothing
escapes and every simple is a member.

One class per line of Ext^1 is realized: the classes lambda xi, lambda a
nonzero scalar, have one middle term up to isomorphism, since the pushout
of xi along the isomorphism lambda id is lambda xi (`homology.ext_line`).
The closure realizes and decomposes the first class of each line in the
scan order, whose first nonzero coefficient is 1, and lists that reading
for every class of the line; the other classes come later in the order, so
every escape witness is that of the first class.

No map between members is read: its kernel, image and cokernel never leave
the bound, so none can be a witness.  With no escape, the members are
closed under AR neighbours at every member X that is not
projective-injective, since the AR sequences ending and starting at X are
classes of Ext^1(X, tau X) and Ext^1(tau^-1 X, X) (Auslander-Reiten-Smalo,
V.1).  A non-simple projective-injective P has only rad P and P/soc P as
neighbours, which the mesh through rad P/soc P joins, or both are simple
seeds; so every part of the AR quiver reaches a simple seed without passing
through P.  A finite component of the AR quiver of a connected algebra is
the whole quiver (Auslander), so a complete universe holds every
indecomposable within the bound; completeness is a certificate for
representation-finite algebras with a big enough bound, not a decision
procedure.

Members are listed by (total dimension, dims), stably.  The witness of an
incomplete universe is the escape met first in this order, by final member
indices: the Ext middles of i by j, class by class in scan order, the AR
translates of i, then a missing simple.

The universe is the one reader of modules and Ext classes as sums of
members: `summands` maps a module to the multiplicities of its members
(`summand_bitset` and `index_of` read it), and `ext_middles` lists the
middle terms of the non-split classes between two sums of members as member
bitsets, one entry per class, grouped by block.  `perp` reads the Hom and
Ext perpendicular classes of a set of members off the tables.  The heart,
torsion, cotilting, lattice and completeness layers ask these and never
decompose or compare modules themselves.  The closure leaves what it read
in their caches: the member bitset of every module it decomposed and the Ext
middles of every AR pair.  The Ext middles of any other pair of members
are read when first asked, one realization per line, each middle off its
Hom vector.  The Ext table is built when first read, which `tors` never
does, and off Hom dimensions alone: the minimal syzygy
0 -> K -> P0 -> X -> 0 gives dim Ext^1(X, Y) = dim Hom(K, Y)
- dim Hom(P0, Y) + dim Hom(X, Y), so it builds no Ext^1 space.

Ext^1 is additive, Ext^1(+R_i, +L_j) = + Ext^1(R_i, L_j), so `ext_middles`
of two sums never builds the Ext^1 space of a sum.  A class nonzero on one
block (i, j) is the pushout of a class of Ext^1(R_i, L_j) along a split
inclusion, and its middle is that class's middle plus the other members of
both bags (Auslander-Reiten-Smalo, Representation Theory of Artin
Algebras, I.5), read off the cached list of the pair of members.  Only a
class nonzero on two or more blocks is realized, from the block cocycle,
and only the first class of its line.  One body, `homology.ext_middle`,
builds every middle: of two sums, and of two members as one block.

The closure is the only place that decomposes a module or compares two by
`krull.is_isomorphic`, since completeness is not known while it runs.  On a
complete universe `summands` reads M off its Hom vector
h = [dim Hom(X_i, M)]_i instead.  A complete universe holds every
indecomposable, and over a representation-finite algebra the Hom vector
against all of them determines a module up to isomorphism
(M. Auslander, Contemp. Math. 13, 1982; K. Bongartz, Bull. LMS 21, 1989).
So the Hom table H, with H[i][j] = dim Hom(X_i, X_j), is invertible, and the
multiplicities of M are the solution x of H x = h.  The integer inverse of H
and every reading are cached, and each dim Hom(X_i, M) is one rank over F_p
from the projective presentation of X_i (`homology.hom_dims_into`).  Every
reading is checked: x must be integral and nonnegative, and the members it
names must add up to the dims of M.  A reading that fails a check is an
internal error; it never falls back to a decomposition.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from . import linalg
from .algebra import BoundQuiverAlgebra, cached
from .exceptions import IncompleteUniverseError, ResourceLimitError
from .homology import (
    ar_translate, ar_translate_inverse, ext1, ext_line, ext_middle, ext_scan,
    hom_dim, hom_dims_into, syzygy,
)
from .krull import decompose, is_isomorphic
from .modules import (
    Module, cokernel, dual_module, injective_module, projective_module,
    simple_module, submodule_from_rows,
)


class IndecUniverse:
    """The members X_i found under a dimension bound, and what is read off
    them; compares by identity."""

    def __init__(self, algebra: BoundQuiverAlgebra, dim_bound: tuple[int, ...],
                 indecs: tuple[Module, ...],
                 hom_table: tuple[tuple[int, ...], ...], complete: bool,
                 witness: str | None, memo: dict | None = None):
        self.algebra = algebra
        self.dim_bound = dim_bound
        self.indecs = indecs
        self.hom_table = hom_table      # [i][j] = dim Hom(X_i, X_j)
        self.complete = complete
        self.witness = witness
        self.memo = {} if memo is None else memo

    @property
    def n(self) -> int:
        return len(self.indecs)

    @property
    def all_bits(self) -> int:
        return (1 << self.n) - 1

    @property
    def ext_table(self) -> tuple[tuple[int, ...], ...]:
        """[i][j] = dim Ext^1(X_i, X_j), built on first read; cached.  The
        minimal syzygy 0 -> K -> P0 -> X_i -> 0 gives the exact sequence
        0 -> Hom(X_i, Y) -> Hom(P0, Y) -> Hom(K, Y) -> Ext^1(X_i, Y) -> 0,
        and Hom(P(w), Y) = Y_w, so dim Ext^1(X_i, Y) is dim Hom(K, Y) minus
        the dims Y_w over the top lifts (w, .) of X_i plus H[i][Y]: no Ext^1
        space is built."""
        def row(x: Module, homs: tuple[int, ...]) -> tuple[int, ...]:
            k = syzygy(x)[0]
            tops = [w for w, _ in x.top_lifts()]
            return tuple(hom_dim(k, y) - sum(y.dims[w] for w in tops) + h
                         for y, h in zip(self.indecs, homs))
        return cached(self, ("ext_table",), lambda: tuple(
            map(row, self.indecs, self.hom_table)))

    def require_complete(self):
        if not self.complete:
            raise IncompleteUniverseError(self.witness or "closure failed")

    # -- membership -----------------------------------------------------

    def index_of(self, m: Module):
        """Universe index of the iso class of M when M is a member, else None
        (the zero module included).  Read off `summand_bitset`, so it
        raises like `summands` on a module the closure never read."""
        bits = self.summand_bitset(m)
        i = bits.bit_length() - 1
        if bits and bits == 1 << i and self.indecs[i].dims == m.dims:
            return i
        return None

    def hom_inverse(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, G) with hom_table @ G == den * I: the integer inverse of the
        Hom table scaled by the lcm of its denominators; cached."""
        return cached(self, ("hom_inverse",),
                      lambda: _integer_inverse(self.hom_table))

    def summands(self, m: Module) -> dict[int, int]:
        """Multiplicity of each member among the indecomposable summands of
        M, by universe index; cached per `Module.key`, and the dict is
        shared, so callers do not change it.  Read off the Hom vector of M,
        with every reading checked: a reading that is not a sum of members
        is an internal error.

        Raises IncompleteUniverseError on an incomplete universe.
        """
        self.require_complete()

        def compute():
            counts: dict[int, int] = {}
            if m.is_zero():
                return counts
            den, inverse = self.hom_inverse()
            h = hom_dims_into(self.indecs, m)
            dims = [0] * len(m.dims)
            for i, row in enumerate(inverse):
                mult, rest = divmod(sum(a * b for a, b in zip(row, h)), den)
                if rest or mult < 0:
                    raise AssertionError(
                        f"Hom vector of dims {m.dims} is not a sum of members")
                if mult:
                    counts[i] = mult
                    dims = [d + mult * e
                            for d, e in zip(dims, self.indecs[i].dims)]
            if tuple(dims) != m.dims:
                raise AssertionError(
                    f"members read off the Hom vector of dims {m.dims} sum to "
                    f"dims {tuple(dims)}")
            return counts
        return cached(self, ("summands", m.key), compute)

    def summand_bitset(self, m: Module) -> int:
        """Bitset of the members that are summands of M; cached.  Raises
        like `summands`."""
        return cached(self, ("summand_bitset", m.key),
                      lambda: sum(1 << i for i in self.summands(m)))

    def in_class(self, m: Module, bits: int) -> bool:
        """Module lies in add of the members flagged by bits."""
        return self.summand_bitset(m) & ~bits == 0

    def members(self, bits: int) -> list[Module]:
        return [self.indecs[i] for i in bit_indices(bits)]

    def perp(self, bits: int, ext: bool, right: bool) -> int:
        """Members X with Hom (Ext^1 when ext) zero from every member in bits
        to X when right, else from X to each of them; per-member masks are
        cached."""
        table = self.ext_table if ext else self.hom_table
        out = self.all_bits
        for b in bit_indices(bits):
            out &= cached(self, ("perp", b, ext, right), lambda: sum(
                1 << x for x in range(self.n)
                if not (table[b][x] if right else table[x][b])))
        return out

    # -- oracles ----------------------------------------------------------

    def all_submodules(self, m: Module):
        return cached(self, ("all_submodules", m.key),
                      lambda: all_submodules(m))

    def all_quotients(self, m: Module):
        """Every quotient exactly once, as (module, projection): the cokernel
        of each listed inclusion; cached."""
        return cached(self, ("all_quotients", m.key), lambda: [
            cokernel(incl) for _, incl in self.all_submodules(m)])

    def maximal_submodules(self, i: int) -> list[Module]:
        return cached(self, ("maximal_submodules", i),
                      lambda: maximal_submodules(self.indecs[i]))

    def simple_socle_quotients(self, i: int) -> list[Module]:
        """Quotients of X_i by its simple submodules, as the duals of the
        maximal submodules of D(X_i) over the opposite algebra
        (Auslander-Reiten-Smalo, II.3); cached."""
        return cached(self, ("simple_socle_quotients", i), lambda: [
            dual_module(s)
            for s in maximal_submodules(dual_module(self.indecs[i]))])

    # -- extensions -----------------------------------------------------

    def ext_middles(self, right: tuple[int, ...],
                    left: tuple[int, ...]) -> list[int]:
        """Middle bitsets of the non-split classes of Ext^1 between the sums
        of two bags of members, one entry per class; cached.  The split
        middle is the sum of the two bags.  The closure lists the AR pairs
        of single members.  Any other pair of single members is read here
        on a complete universe: the first class of each line is realized
        and its middle read off its Hom vector (`summand_bitset`), in the
        scan order of Ext^1(X_i, X_j); on an incomplete universe it raises
        IncompleteUniverseError.

        Ext^1 is additive: a class is a tuple of block classes, one in
        Ext^1(R_i, L_j) for each pair of members.  The classes nonzero on
        one block (i, j) come first, block by block: the middle is E + the
        other members of both bags, with E the middle of the block class, so
        they are read off the cached list of the pair of members.  The
        classes nonzero on two or more blocks follow, in lexicographic order
        of their coefficients; the middle of the first class of each line is
        built from its block cocycle, and the others of the line share it.
        The caps are checked on the sum of the block dimensions before any
        entry is read."""
        def compute():
            if len(right) == len(left) == 1:
                self.require_complete()
                space = ext1(self.indecs[right[0]], self.indecs[left[0]])
                return per_line(
                    ext_scan(self.algebra, space.dim), space.p,
                    lambda c: self.summand_bitset(ext_middle(
                        [space.m], [space.n], {(0, 0): c})))
            blocks = [(i, j, self.ext_table[r][l])
                      for i, r in enumerate(right) for j, l in enumerate(left)]
            classes = ext_scan(self.algebra, sum(d for *_, d in blocks))
            out = []
            for i, j, d in blocks:
                if d:
                    others = sum({1 << x for at, x in enumerate(right + left)
                                  if at not in (i, len(right) + j)})
                    out += [bits | others for bits in
                            self.ext_middles((right[i],), (left[j],))]
            rights = [self.indecs[r] for r in right]
            lefts = [self.indecs[l] for l in left]

            def parts(coeffs) -> dict:
                got, at = {}, 0
                for i, j, d in blocks:
                    if any(coeffs[at:at + d]):
                        got[i, j] = coeffs[at:at + d]
                    at += d
                return got
            mixed = (c for c in classes if len(parts(c)) > 1)
            return out + per_line(mixed, self.algebra.field.p, lambda c:
                                  self.summand_bitset(ext_middle(
                                      rights, lefts, parts(c))))
        return cached(self, ("ext_middles", right, left), compute)


def bit_indices(bits: int) -> list[int]:
    """Indices of the set bits of a nonnegative int, ascending; one step per
    set bit, each taking the lowest."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def popcount(bits: int) -> int:
    return bin(bits).count("1")


def _integer_inverse(a) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, G) with a @ G == den * I and den > 0 least, for a square integer
    matrix a.  Fraction-free Gauss-Jordan elimination on Python ints
    (Bareiss): every division is exact, and the pivot of the last step is
    +-det a, with the right half of [a | I] turned into that pivot times the
    inverse."""
    n = len(a)
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        sel = next((r for r in range(k, n) if rows[r][k]), None)
        if sel is None:
            raise AssertionError("the Hom table of the universe is singular")
        rows[k], rows[sel] = rows[sel], rows[k]
        pivot = rows[k]
        for i, row in enumerate(rows):
            if i != k:
                c = row[k]
                rows[i] = [(pivot[k] * x - c * y) // prev
                           for x, y in zip(row, pivot)]
        prev = pivot[k]
    det = prev
    g = gcd(det, *(x for row in rows for x in row[n:]))
    sign = 1 if det > 0 else -1
    return (abs(det) // g,
            tuple(tuple(sign * x // g for x in row[n:]) for row in rows))


def enumerate_indecomposables(algebra: BoundQuiverAlgebra,
                              dim_bound) -> IndecUniverse:
    bound = tuple(int(b) for b in dim_bound)
    caps = algebra.caps
    if len(bound) != algebra.quiver.n:
        raise ValueError("dimension bound length does not match the vertex count")
    if any(b > caps.dim_bound_cap for b in bound):
        raise ResourceLimitError(
            f"dimension bound exceeds the per-vertex cap {caps.dim_bound_cap}"
        )
    found, witness, memo = completeness_check(algebra, bound)
    hom_table = tuple(tuple(hom_dim(x, y) for y in found) for x in found)
    return IndecUniverse(algebra, bound, found, hom_table,
                         complete=witness is None, witness=witness, memo=memo)


def completeness_check(algebra: BoundQuiverAlgebra, bound: tuple[int, ...]):
    """The closure of the seeds inside the bound under AR translates and
    the middles of AR pairs, as (members sorted by (total dim, dims),
    witness or None, universe memo entries).  Raises ResourceLimitError
    when the Ext space of an AR pair is over the scan cap."""
    found: list[Module] = []        # members, in the order they were found
    member_of: dict[str, int] = {}  # Module.key of a member or piece -> member
    pieces: dict[str, list] = {}    # Module.key -> [(member or None, dims)]
    escapes: list[tuple] = []       # (place, members, label, dims)
    middles: dict[tuple[int, int], list] = {}  # AR pair -> per-class reading

    def fits(m: Module) -> bool:
        return all(d <= b for d, b in zip(m.dims, bound))

    def member(piece: Module) -> int:
        idx = member_of.get(piece.key)
        if idx is None:
            idx = next((i for i, x in enumerate(found)
                        if x.dims == piece.dims and is_isomorphic(piece, x)),
                       len(found))
            if idx == len(found):
                found.append(piece)
            member_of[piece.key] = idx
        return idx

    def read(m: Module, place: tuple, ids: tuple) -> list:
        """Members of the summands of an Ext middle, None for a summand
        outside the bound; the first such summand is the step's escape, at
        `place` in the witness order once `ids` are final indices."""
        got = pieces.get(m.key)
        if got is None:
            got = pieces[m.key] = [
                (member(piece) if fits(piece) else None, piece.dims)
                for piece in decompose(m)]
        dims = next((d for idx, d in got if idx is None), None)
        if dims is not None:
            escapes.append((place, ids, "ext middle {} by {}", dims))
        return got

    # (side, k) once member k needs no translate on that side, tau (side 0)
    # or tau^-1 (side 1): an indecomposable projective (injective) is some
    # P(v) (I(v)), the member of a fitting seed; and an AR pair read from
    # one member is read at the other, since tau^-1 tau X = X = tau tau^-1 X
    done: set[tuple[int, int]] = set()
    for v in range(algebra.quiver.n):
        for make, side in ((simple_module, None), (projective_module, 0),
                           (injective_module, 1)):
            seed = make(algebra, v)
            if fits(seed):
                k = member(seed)
                if side is not None:
                    done.add((side, k))
    sides = ((ar_translate, "AR translate of {}"),
             (ar_translate_inverse, "inverse AR translate of {}"))
    for k, x in enumerate(found):   # found grows while it is read
        for side, (translate, label) in enumerate(sides):
            if (side, k) in done:
                continue
            # an AR translate of an indecomposable is indecomposable
            t = translate(x)
            if not fits(t):
                escapes.append(((1, side), (k,), label, t.dims))
                continue
            j = member(t)
            done.add((1 - side, j))
            a, b = (k, j) if side == 0 else (j, k)
            space = ext1(found[a], found[b])
            middles[a, b] = per_line(
                ext_scan(algebra, space.dim), space.p, lambda c: read(
                    ext_middle([found[a]], [found[b]], {(0, 0): c}),
                    (0, *c), (a, b)))

    order = sorted(range(len(found)),
                   key=lambda i: (found[i].total_dim, found[i].dims))
    rank = {old: new for new, old in enumerate(order)}
    witnesses = []
    for (kind, *rest), ids, label, dims in escapes:
        at = [rank[i] for i in ids]
        witnesses.append(((kind, *at, *rest), label.format(*at)
                          + f" has summand of dims {dims} outside"))
    witnesses += [((2, v), f"simple at vertex {v} outside")
                  for v, b in enumerate(bound) if not b]

    def bits(got) -> int | None:
        """Member bitset of a result, None when a summand escaped; a member
        repeated among the pieces sets its bit once."""
        if any(idx is None for idx, _ in got):
            return None
        return sum({1 << rank[idx] for idx, _ in got})

    memo: dict = {}
    for key, idx in member_of.items():
        memo["summand_bitset", key] = 1 << rank[idx]
    for key, got in pieces.items():
        if bits(got) is not None:
            memo["summand_bitset", key] = bits(got)
    for (a, b), got in middles.items():
        mids = [bits(mid) for mid in got]
        if None not in mids:
            memo["ext_middles", (rank[a],), (rank[b],)] = mids
    return (tuple(found[i] for i in order),
            min(witnesses)[1] if witnesses else None, memo)


def per_line(classes, p: int, read) -> list:
    """read(coeffs) for the first class of each line among nonzero classes
    of Ext^1 in scan order, listed once for every class of the line."""
    out, lines = [], {}
    for coeffs in classes:
        line = ext_line(coeffs, p)
        if line not in lines:
            lines[line] = read(coeffs)
        out.append(lines[line])
    return out


# -- brute-force oracles ------------------------------------------------------

def all_submodules(m: Module):
    """Every subrepresentation exactly once, as (module, inclusion)."""
    caps = m.algebra.caps
    if m.total_dim > caps.submodule_dim_cap:
        raise ResourceLimitError(
            f"submodule scan gate: total dim {m.total_dim} > "
            f"{caps.submodule_dim_cap}"
        )
    p = m.algebra.field.p
    q = m.algebra.quiver
    per_vertex = [list(linalg.subspace_bases(m.dims[v], p)) for v in range(q.n)]
    out = []
    for choice in product(*per_vertex):
        stable = True
        for ai, arrow in enumerate(q.arrows):
            v, w = arrow.source, arrow.target
            if not choice[v]:
                continue
            img = linalg.matmul(choice[v], m.maps[ai], p, m.dims[w])
            if linalg.solve_left(choice[w], img, p) is None:
                stable = False
                break
        if stable:
            out.append(submodule_from_rows(m, list(choice)))
    return out


def maximal_submodules(m: Module) -> list[Module]:
    """Maximal submodules = preimages of top hyperplanes at single vertices."""
    p = m.algebra.field.p
    q = m.algebra.quiver
    rad = m.radical_rows()
    lifts = m.top_lifts()
    out = []
    for v in range(q.n):
        lift_mat = tuple(linalg.eye(m.dims[v])[j] for u, j in lifts if u == v)
        t = len(lift_mat)
        if t == 0:
            continue
        for hyper in linalg.subspace_bases(t, p):
            if len(hyper) != t - 1:
                continue
            rows_v = rad[v] + linalg.matmul(hyper, lift_mat, p)
            rows = [
                linalg.eye(m.dims[w]) if w != v else rows_v
                for w in range(q.n)
            ]
            out.append(submodule_from_rows(m, rows)[0])
    return out
