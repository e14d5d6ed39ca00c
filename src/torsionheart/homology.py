"""Hom and Ext computations, extensions, approximations, envelopes.

Hom(M, N) is the nullspace of the intertwining equations, cached per pair.
No constrained system is solved: heart reads factoring through a map as one
row space, and tests/oracles.py keeps the constrained-intertwiner solver
(`factor_through`, `has_retraction`) as its reference.

Ext^1(M, N) is presented against the syzygy 0 -> K -> P0 -> M -> 0 of a
minimal projective cover: classes are morphisms K -> N modulo restrictions of
morphisms P0 -> N.  One body, `ext_middle`, builds every Ext middle: the
pushout of the syzygy inclusion along a cocycle, given block by block
between two direct sums (one block between two modules), without the Ext^1
space of the sums.  The tests keep the whole realized sequence as its
reference, and read the class back off it.  Maps between sums, there and in
the pushout, are placed blocks.  No pullback is taken: the one the heart
needs is along a mono, a preimage, read as a kernel.

Minimal right/left approximations are assembled from an irredundant set of
component maps between the generators and M.  Such a set is already minimal
(Nakayama, through Auslander's projectivization), so no idempotent is
searched for or split off; `minimal_approx` states the argument.

D turns the minimal projective cover of D(M) into the injective envelope of
M (Auslander-Reiten-Smalo, I.5), so both sides share one body.  M is
injective iff D(M) is projective, so `is_injective` builds no envelope: it
reads the cached syzygy of D(M), the one the inverse AR translate reads
through the transpose.

A projective cover sends the generator of each summand P(v) to a top lift
of M.  One cached minimal projective presentation P1 -> P0 -> M -> 0,
`presentation`, is read off the cached syzygy K -> P0, with no cover built
again: each component is the row of that inclusion at a top lift of K.  It
serves the transpose, and so both AR translates, and `hom_dims_into`, which
reads dim Hom(X, M) as dim Hom(P0, M) minus one rank.  Injective envelopes
are cached per module, as syzygies are.

The classes of a line {lambda xi : lambda != 0} of Ext^1 share one middle
term up to isomorphism, so scans build one middle per line, that of the
class `ext_line` returns.

Every exhaustive scan of the package passes one gate, `scan`, which raises
ResourceLimitError before any work beyond the scan cap; `candidates` is the
one order in which krull's idempotent search tries elements, and it ends in
that gate, so beyond the cap the search stops like every other scan.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, chain

from . import linalg
from .algebra import BoundQuiverAlgebra, cached
from .exceptions import ResourceLimitError
from .modules import (
    Module, Morphism, assemble, block_morphism, cokernel, direct_sum,
    dual_module, dual_morphism, from_generator, kernel, projective_module,
    unvec_morphism,
)


def _vec_offsets(m: Module, n: Module) -> list[int]:
    """Start of each vertex block of vec(f) for f: M -> N; its length last."""
    return list(accumulate((a * b for a, b in zip(m.dims, n.dims)), initial=0))


# -- the scan gate ---------------------------------------------------------------

def scan(algebra: BoundQuiverAlgebra, d: int, what: str, nonzero: bool = False):
    """Every vector of F_p^d, or every nonzero one, in lexicographic order.
    Raises ResourceLimitError when the space is over the scan cap, before
    any vector is produced."""
    p = algebra.field.p
    if p ** d > algebra.caps.scan_count_cap:
        raise ResourceLimitError(f"{what} scan of size {p}^{d} exceeds cap")
    if nonzero:
        return linalg.nonzero_vectors(d, p)
    return linalg.vectors(d, p)


class HomSpace(namedtuple("HomSpace", "source target basis")):
    """Hom(source, target), with a basis: a tuple of Morphisms."""
    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self):
        return tuple(f.vec() for f in self.basis)

    def coords_of(self, f: Morphism) -> tuple[int, ...]:
        p = self.source.algebra.field.p
        sol = linalg.solve_left(self.matrix(), (f.vec(),), p)
        if sol is None:
            raise ValueError("morphism is not in the hom space")
        return sol[0]

    def from_coords(self, coords) -> Morphism:
        p = self.source.algebra.field.p
        flat = linalg.combination(coords, self.matrix(), p,
                                  _vec_offsets(self.source, self.target)[-1])
        return unvec_morphism(self.source, self.target, flat)

    def coords(self, nonzero: bool = False):
        """Coordinates of every element, or of every nonzero one, through
        the scan gate."""
        return scan(self.source.algebra, self.dim, "hom", nonzero)

    def elements(self, nonzero: bool = False):
        """Every element, or every nonzero one, through the scan gate."""
        return map(self.from_coords, self.coords(nonzero))


def candidates(space: HomSpace):
    """Elements of the space for a search to try, in a fixed order: the
    basis, the pairwise sums, then every nonzero element through the scan
    gate, which raises ResourceLimitError beyond the scan cap."""
    basis = space.basis
    yield from basis
    for i, a in enumerate(basis):
        for b in basis[i + 1:]:
            yield a.add(b)
    yield from space.elements(nonzero=True)


def _hom_system(m: Module, n: Module) -> list[list[int]]:
    """Coefficient rows of the intertwining equations in vec(f): for each
    arrow a: v -> w, entry (i, j) of f_v @ N_a - M_a @ f_w."""
    q = m.algebra.quiver
    p = m.algebra.field.p
    offs = _vec_offsets(m, n)
    total = offs[-1]
    rows = []
    for ai, arrow in enumerate(q.arrows):
        v, w = arrow.source, arrow.target
        mv, nv, mw, nw = m.dims[v], n.dims[v], m.dims[w], n.dims[w]
        if mv * nw == 0:
            continue
        n_cols = linalg.transpose(n.maps[ai], nw)  # column j of N_a
        m_a = m.maps[ai]
        for i in range(mv):
            base = offs[v] + i * nv
            m_row = m_a[i]
            for j in range(nw):
                row = [0] * total
                row[base:base + nv] = n_cols[j]
                for k in range(mw):
                    c = m_row[k]
                    if c:
                        col = offs[w] + k * nw + j
                        row[col] = (row[col] - c) % p
                rows.append(row)
    return rows


def hom_space(m: Module, n: Module) -> HomSpace:
    return cached(m.algebra, ("hom_space", m.key, n.key),
                  lambda: _hom_space(m, n))


def _hom_space(m: Module, n: Module) -> HomSpace:
    p = m.algebra.field.p
    total = _vec_offsets(m, n)[-1]
    if total == 0:
        basis = ()
    else:
        basis = tuple(unvec_morphism(m, n, row) for row
                      in linalg.nullspace(_hom_system(m, n), p, total))
    return HomSpace(m, n, basis)


def hom_dim(m: Module, n: Module) -> int:
    return hom_space(m, n).dim


# -- short exact sequences ----------------------------------------------------

class SES(namedtuple("SES", "left middle right inject surject")):
    """0 -> left -> middle -> right -> 0, by the Morphisms inject and
    surject."""
    __slots__ = ()

    def validate(self) -> bool:
        if not (self.inject.is_mono() and self.surject.is_epi()
                and self.inject.then(self.surject).is_zero()):
            return False
        return all(
            self.middle.dims[v] == self.left.dims[v] + self.right.dims[v]
            for v in range(self.middle.algebra.quiver.n)
        )


def pushout(f: Morphism, g: Morphism):
    """Pushout of f: X -> Y and g: X -> Z; returns (W, from_Y, from_Z)."""
    y, z = f.target, g.target
    p = y.algebra.field.p
    w, proj = cokernel(block_morphism(
        [f.source], [y, z], {(0, 0): f, (0, 1): g.scale(p - 1)}))
    # the rows of proj at the block of Y, then those at the block of Z
    from_y = tuple(a[:d] for a, d in zip(proj.maps, y.dims))
    from_z = tuple(a[d:] for a, d in zip(proj.maps, y.dims))
    return (w, Morphism(y, w, from_y, check=False),
            Morphism(z, w, from_z, check=False))


# -- projective covers and syzygies --------------------------------------------

def projective_cover(m: Module) -> Morphism:
    """Minimal projective cover P -> M: one summand P(v) per top lift (v, j)
    of M, in the order of `Module.top_lifts`, sending its generator to e_j
    of M_v."""
    comps = [from_generator(m, v, linalg.eye(m.dims[v])[j])
             for v, j in m.top_lifts()]
    cover = assemble(m, [(c.source, c) for c in comps], "right")
    if not cover.is_epi():
        raise AssertionError("projective cover is not epi")
    return cover


def syzygy(m: Module):
    """(K, incl: K -> P0, cover: P0 -> M) for a minimal cover; cached."""
    return cached(m.algebra, ("syzygy", m.key), lambda: _syzygy(m))


def _syzygy(m: Module):
    cover = projective_cover(m)
    k, incl = kernel(cover)
    return (k, incl, cover)


def is_projective(m: Module) -> bool:
    return syzygy(m)[0].is_zero()


# -- Ext^1 ----------------------------------------------------------------------

class Ext1Space:
    """Ext^1(M, N) = Hom(K, N) / res Hom(P0, N) for the minimal syzygy of M.

    `ext_middle` builds the middle of one class from its cocycle; callers
    scan the nonzero classes through `ext_scan`, since the zero class has
    middle N + M by definition, and build one middle per line (`ext_line`).
    """

    def __init__(self, m: Module, n: Module):
        self.m = m
        self.n = n
        self.p = m.algebra.field.p
        self.k, self.incl, self.cover = syzygy(m)
        self.hom_kn = hom_space(self.k, n)
        hom_p0n = hom_space(self.cover.source, n)
        coords = [self.hom_kn.coords_of(self.incl.then(g)) for g in hom_p0n.basis]
        pivots = linalg.rref(coords, self.p)[1]
        self.rep_indices = [i for i in range(self.hom_kn.dim) if i not in pivots]

    @property
    def dim(self) -> int:
        return len(self.rep_indices)

    def cocycle(self, coeffs) -> Morphism:
        flat = [0] * self.hom_kn.dim
        for c, idx in zip(coeffs, self.rep_indices):
            flat[idx] = c % self.p
        return self.hom_kn.from_coords(flat)


def ext1(m: Module, n: Module) -> Ext1Space:
    return cached(m.algebra, ("ext1", m.key, n.key), lambda: Ext1Space(m, n))


def ext_scan(algebra: BoundQuiverAlgebra, d: int):
    """The coefficients of every nonzero class of a d-dimensional Ext^1, in
    lexicographic order.  Raises ResourceLimitError when d is over the Ext
    cap or p^d over the scan cap, before any class."""
    if d > algebra.caps.ext_dim_cap:
        raise ResourceLimitError(
            f"ext scan of size {algebra.field.p}^{d} exceeds cap")
    return scan(algebra, d, "ext", nonzero=True)


def ext_line(coeffs, p: int) -> tuple[int, ...]:
    """The class on the line {lambda xi : lambda != 0} of the nonzero class
    xi = coeffs whose first nonzero coefficient is 1.  Every class on the
    line has the same middle term up to isomorphism: the pushout of xi along
    lambda id_N is lambda xi, and lambda id_N is an isomorphism for
    lambda != 0.  In lexicographic order this class comes first on its
    line."""
    inverse = pow(next(c for c in coeffs if c), -1, p)
    return tuple(c * inverse % p for c in coeffs)


def ext_middle(rights: list[Module], lefts: list[Module],
               blocks: dict) -> Module:
    """The middle term of the class of Ext^1(+R_i, +L_j) whose block (i, j)
    is the class blocks[i, j] of ext1(R_i, L_j), zero where blocks has no
    entry.  Ext^1 is additive, and the sum of the minimal syzygies
    K_i -> P_i presents +R_i, so the middle is the pushout of that sum along
    the block cocycle +K_i -> +L_j.  An internal error unless +L_j embeds
    and the middle has the dims of both ends."""
    algebra = rights[0].algebra
    syzygies = [syzygy(r) for r in rights]
    ks = [k for k, _, _ in syzygies]
    incl = block_morphism(ks, [cover.source for _, _, cover in syzygies],
                          {(i, i): inc for i, (_, inc, _)
                           in enumerate(syzygies)}, algebra)
    cocycle = block_morphism(ks, lefts, {
        (i, j): ext1(rights[i], lefts[j]).cocycle(c)
        for (i, j), c in blocks.items()}, algebra)
    middle, _, from_lefts = pushout(incl, cocycle)
    ends = tuple(map(sum, zip(*(m.dims for m in rights + lefts))))
    if middle.dims != ends or not from_lefts.is_mono():
        raise AssertionError(f"Ext middle of dims {middle.dims} does not "
                             f"extend its ends, of dims {ends} together")
    return middle


# -- approximations ----------------------------------------------------------------

def _strip_components(m: Module, gens: list[Module], side: str):
    """Greedy pass: keep an irredundant set of component maps G_j -> M
    (side='right') or M -> G_j (side='left') whose Hom-images still cover
    every Hom(G_i, M), resp. Hom(M, G_i)."""
    right = side == "right"
    p = m.algebra.field.p

    def hom_m(g: Module) -> HomSpace:
        return hom_space(g, m) if right else hom_space(m, g)

    comps = [(g, b) for g in gens for b in hom_m(g).basis]
    if not comps:
        return comps
    blocks: list[list[tuple]] = []  # blocks[i][j]: rows for gen i, comp j
    full_dims = []
    for gi in gens:
        full_dims.append(hom_m(gi).dim)
        row_blocks = []
        for gj, bj in comps:
            if right:
                rows = tuple(h.then(bj).vec() for h in hom_space(gi, gj).basis)
            else:
                rows = tuple(bj.then(h).vec() for h in hom_space(gj, gi).basis)
            row_blocks.append(rows)
        blocks.append(row_blocks)

    # All components cover every Hom(G_i, M): the identity of G_i is in
    # End(G_i).  Dropping component j changes only the spans of the
    # generators i with a nonempty block (i, j), so only those are re-ranked.
    # A component kept here stays needed: dropping it failed already when
    # more components were left.
    keep = list(range(len(comps)))
    for j in reversed(range(len(comps))):
        trial = [k for k in keep if k != j]
        if all(linalg.rank(tuple(chain.from_iterable(
                   blocks[i][k] for k in trial)), p) == full_dim
               for i, full_dim in enumerate(full_dims)
               if full_dim and blocks[i][j]):
            keep = trial
    return [comps[j] for j in keep]


def minimal_approx(m: Module, gens: list[Module], side: str) -> Morphism:
    """Minimal add(gens)-approximation: right Y -> M (side='right') or left
    M -> Y (side='left').  The gens must be indecomposable and pairwise
    non-isomorphic (zero modules are skipped), as members of a universe are.

    No idempotent is split off.  Under Hom(G, -), G the sum of the gens,
    add(G) is equivalent to the projective modules over Gamma = End(G)
    (Auslander's projectivization; Auslander-Reiten-Smalo, Representation
    Theory of Artin Algebras, ch. II.2).  A component b: G_j -> M generates
    a quotient of the indecomposable projective Hom(G, G_j), whose top is
    simple because End(G_j) is local, whatever its residue field.  The kept
    components generate Hom(G, M) irredundantly, so by Nakayama their tops
    form a direct sum equal to the top of Hom(G, M): the assembled map is a
    projective cover, and so right minimal.  The left side is dual.
    tests/oracles.py keeps the literal idempotent-splitting minimization as
    the reference."""
    comps = _strip_components(m, [g for g in gens if not g.is_zero()], side)
    return assemble(m, comps, side)


# -- injective envelopes -------------------------------------------------------------

def injective_envelope(m: Module) -> Morphism:
    """Essential mono M -> E(M): the dual of the minimal projective cover
    of D(M) over the opposite algebra; cached."""
    return cached(m.algebra, ("injective_envelope", m.key),
                  lambda: _injective_envelope(m))


def _injective_envelope(m: Module) -> Morphism:
    env = dual_morphism(projective_cover(dual_module(m)))
    if not env.is_mono():
        raise AssertionError("injective envelope is not mono")
    return env


def is_injective(m: Module) -> bool:
    """M is injective iff D(M) is projective over the opposite algebra: no
    envelope is built, and the syzygy of D(M) is the cached one that
    `ar_translate_inverse` reads through `transpose`."""
    return is_projective(dual_module(m))


# -- transpose and AR translate --------------------------------------------------------

def presentation(m: Module):
    """A minimal projective presentation P1 -> P0 -> M -> 0, as (vertices of
    the summands of P0, vertices of those of P1, components): components[k][j]
    holds the path coordinates of the component P(v_k) -> P(w_j), an element
    on basis paths w_j -> v_k; cached."""
    return cached(m.algebra, ("presentation", m.key), lambda: _presentation(m))


def _presentation(m: Module):
    algebra = m.algebra
    k, incl, _ = syzygy(m)
    lifts1 = k.top_lifts()
    # P0 has one summand P(w) per top lift of M, in the order of the cover
    p0_vertices = [w for w, _ in m.top_lifts()]
    # the generator of P(v) goes to the top lift e_j of K_v, that is to row
    # j of the syzygy's inclusion at v, read block by block along the
    # summands P(w) of P0
    components = []
    for v, j in lifts1:
        row = iter(incl.maps[v][j])
        components.append(tuple(
            {bi: c for bi, c in zip(algebra.basis_paths_between(w, v), row)
             if c} for w in p0_vertices))
    return p0_vertices, [v for v, _ in lifts1], tuple(components)


def hom_dims_into(sources, m: Module) -> list[int]:
    """dim Hom(X, M) for each X in sources, each one rank from the
    presentation P1 -> P0 -> X -> 0: Hom(P(w), M) = M_w, so Hom(X, M) is the
    kernel of Hom(P0, M) -> Hom(P1, M), whose block (j, k) is the action on
    M of the component P(v_k) -> P(w_j).  The action of each basis path on
    M is computed once per call."""
    algebra = m.algebra
    p = algebra.field.p
    dims = m.dims
    actions: dict[int, tuple] = {}
    out = []
    for x in sources:
        p0_vertices, p1_vertices, components = presentation(x)
        rows = []
        for j, w in enumerate(p0_vertices):
            terms = []   # (column offset, coefficient, action)
            off = 0
            for comp, v in zip(components, p1_vertices):
                for bi, c in comp[j].items():
                    act = actions.get(bi)
                    if act is None:
                        act = actions[bi] = m.path_matrix(algebra.basis[bi])
                    terms.append((off, c, act))
                off += dims[v]
            for r in range(dims[w]):
                row = [0] * off
                for start, c, act in terms:
                    for s, e in enumerate(act[r], start):
                        row[s] += c * e
                rows.append([e % p for e in row])
        out.append(sum(dims[w] for w in p0_vertices) - linalg.rank(rows, p))
    return out


def transpose(m: Module) -> Module:
    """Tr M over the opposite algebra: the cokernel of the dual presentation
    (+) P_op(w_i) -> (+) P_op(v_j).  It sends the generator of P_op(w_i) to
    x_i, which joins block by block the reversals of the components
    P(v_j) -> P(w_i), each an element of P_op(v_j) at w_i."""
    algebra = m.algebra
    op = algebra.op()
    p = algebra.field.p
    p0_vertices, p1_vertices, components = presentation(m)
    p1 = direct_sum([projective_module(op, v) for v in p1_vertices], op)
    comps = []
    for i, w in enumerate(p0_vertices):
        x = []
        for comp, v in zip(components, p1_vertices):
            rev: dict[int, int] = {}
            for bi, c in comp[i].items():
                rpath = algebra.reverse_path(algebra.basis[bi])
                for bo, c2 in op.reduce_path(rpath).items():
                    rev[bo] = (rev.get(bo, 0) + c * c2) % p
            x.extend(rev.get(bo, 0) for bo in op.basis_paths_between(v, w))
        g = from_generator(p1, w, x)
        comps.append((g.source, g))
    return cokernel(assemble(p1, comps, "right"))[0]


def ar_translate(m: Module) -> Module:
    """tau M = D Tr M; raises on projective input."""
    if is_projective(m):
        raise ValueError("AR translate undefined for projective modules")
    return dual_module(transpose(m))


def ar_translate_inverse(m: Module) -> Module:
    """tau^{-1} M = Tr D M; raises on injective input."""
    if is_injective(m):
        raise ValueError("inverse AR translate undefined for injective modules")
    return transpose(dual_module(m))
