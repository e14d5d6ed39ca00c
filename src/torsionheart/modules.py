"""Modules as quiver representations and morphisms as intertwiner families.

Right modules are covariant representations: the matrix of an arrow a: v -> w
has shape (dim_v, dim_w) and acts on row vectors, x |-> x @ M_a.  A morphism
f: M -> N is a family of vertex matrices f_v of shape (dims_M[v], dims_N[v])
with f_v @ N_a == M_a @ f_w for every arrow a: v -> w.  Composition is written
left to right, matching path composition.

Every matrix is a tuple of row tuples of ints reduced mod p (see linalg),
so all values are immutable after construction.

Sums are placed blocks: `direct_sum` lays out block diagonal arrow
matrices, and `block_morphism` writes each block of a map between two sums
into place.  A map out of P(v) is determined by the image of the trivial
path at v, and `from_generator` builds it from that image; P(v) itself is
built once per vertex and cached on the algebra.

D = Hom(-, F_p) transposes every matrix into the opposite algebra, and the
injective side is its image of the projective one: I(v) = D P(v) over A^op
(Auslander-Reiten-Smalo, Representation Theory of Artin Algebras, II.3).
"""

from __future__ import annotations

import hashlib
from array import array
from itertools import accumulate, chain

from . import linalg
from .algebra import BoundQuiverAlgebra, Path, cached, path_target


def _matrices(maps, shapes, p: int):
    """maps as linalg matrices reduced mod p, checked against shapes."""
    if len(maps) != len(shapes):
        raise ValueError(f"expected {len(shapes)} matrices, got {len(maps)}")
    out = []
    for m, (r, c) in zip(maps, shapes):
        rows = tuple(tuple([int(x) % p for x in row]) for row in m)
        if len(rows) != r or any(len(row) != c for row in rows):
            raise ValueError(f"matrix is not of shape {r}x{c}")
        out.append(rows)
    return tuple(out)


class Module:
    """A representation: dims per vertex and one matrix per arrow.

    With check=False, dims and maps are taken as they are: ints, and one
    linalg matrix per arrow.  With check=True, nested sequences of ints are
    accepted and reduced mod p, and the shapes and the relations are
    verified.
    """

    __slots__ = ("algebra", "dims", "maps", "_key")

    def __init__(self, algebra: BoundQuiverAlgebra, dims, maps, check: bool = True):
        self.algebra = algebra
        if check:
            dims = tuple(int(d) for d in dims)
            maps = _matrices(maps, [(dims[a.source], dims[a.target])
                                    for a in algebra.quiver.arrows],
                             algebra.field.p)
        self.dims = tuple(dims)
        self.maps = tuple(maps)
        self._key = None
        if check and not self.satisfies_relations():
            raise ValueError("arrow maps violate a relation")

    # -- basics ----------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    @property
    def key(self) -> str:
        """SHA-1 of the algebra key, the dims and every arrow matrix as
        native int64 bytes in row-major order.  It keys the Hom and Ext
        memos, so it must not collide: a collision would serve a wrong
        cached space."""
        if self._key is None:
            h = hashlib.sha1()
            h.update(self.algebra.key.encode())
            h.update(repr(self.dims).encode())
            for m in self.maps:
                h.update(array("q", linalg.flatten(m)).tobytes())
            self._key = h.hexdigest()
        return self._key

    def __eq__(self, other):
        # algebras are compared by content: basis construction is
        # deterministic, so equal inputs give interchangeable instances
        return (
            isinstance(other, Module)
            and (self.algebra is other.algebra
                 or self.algebra.key == other.algebra.key)
            and self.dims == other.dims
            and self.maps == other.maps
        )

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Module(dims={self.dims})"

    def satisfies_relations(self) -> bool:
        p = self.algebra.field.p
        for rel in self.algebra.relations:
            src = rel[0][1][0]
            tgt = path_target(self.algebra.quiver, rel[0][1])
            acc = linalg.zeros(self.dims[src], self.dims[tgt])
            for coeff, path in rel:
                acc = linalg.add(acc, linalg.scale(coeff, self.path_matrix(path), p), p)
            if any(map(any, acc)):
                return False
        return True

    def path_matrix(self, path: Path):
        """Matrix of the right action of a path, shape (dim_src, dim_tgt)."""
        p = self.algebra.field.p
        arrows = self.algebra.quiver.arrows
        out = linalg.eye(self.dims[path[0]])
        for ai in path[1]:
            out = linalg.matmul(out, self.maps[ai], p, self.dims[arrows[ai].target])
        return out

    # -- structural submodules --------------------------------------------

    def radical_rows(self) -> list:
        """Per-vertex basis rows of rad M = sum of arrow images."""
        out = []
        p = self.algebra.field.p
        for w in range(self.algebra.quiver.n):
            mats = [
                self.maps[ai]
                for ai, arrow in enumerate(self.algebra.quiver.arrows)
                if arrow.target == w and self.maps[ai]
            ]
            out.append(linalg.sum_row_spaces(mats, p))
        return out

    def top_lifts(self) -> list[tuple[int, int]]:
        """(v, j) for each basis vector e_j of M_v outside the pivots of
        rad M: the lifts of a basis of the top M / rad M, by vertex."""
        p = self.algebra.field.p
        out = []
        for v, rad in enumerate(self.radical_rows()):
            _, pivots = linalg.rref(rad, p)
            out.extend((v, j) for j in range(self.dims[v]) if j not in pivots)
        return out


class Morphism:
    """Vertex matrices f_v of shape (dims_M[v], dims_N[v]); check as for
    Module, with the intertwining equations in place of the relations."""

    __slots__ = ("source", "target", "maps", "_vec")

    def __init__(self, source: Module, target: Module, maps, check: bool = True):
        self.source = source
        self.target = target
        if check:
            maps = _matrices(maps, list(zip(source.dims, target.dims)),
                             source.algebra.field.p)
        self.maps = tuple(maps)
        self._vec = None
        if check and not self.intertwines():
            raise ValueError("vertex maps do not intertwine the arrow actions")

    def intertwines(self) -> bool:
        p = self.source.algebra.field.p
        for ai, arrow in enumerate(self.source.algebra.quiver.arrows):
            v, w = arrow.source, arrow.target
            lhs = linalg.matmul(self.maps[v], self.target.maps[ai], p,
                                self.target.dims[w])
            rhs = linalg.matmul(self.source.maps[ai], self.maps[w], p,
                                self.target.dims[w])
            if lhs != rhs:
                return False
        return True

    def then(self, other: "Morphism") -> "Morphism":
        """self followed by other (left-to-right composition)."""
        if self.target is not other.source and self.target != other.source:
            raise ValueError("composition endpoint mismatch")
        p = self.source.algebra.field.p
        return Morphism(
            self.source,
            other.target,
            tuple(linalg.matmul(a, b, p, d) for a, b, d
                  in zip(self.maps, other.maps, other.target.dims)),
            check=False,
        )

    def add(self, other: "Morphism") -> "Morphism":
        p = self.source.algebra.field.p
        return Morphism(
            self.source, self.target,
            tuple(linalg.add(a, b, p) for a, b in zip(self.maps, other.maps)),
            check=False,
        )

    def scale(self, c: int) -> "Morphism":
        p = self.source.algebra.field.p
        return Morphism(
            self.source, self.target,
            tuple(linalg.scale(c % p, a, p) for a in self.maps), check=False,
        )

    def is_zero(self) -> bool:
        return not any(self.vec())

    def is_mono(self) -> bool:
        p = self.source.algebra.field.p
        return all(
            linalg.rank(m, p) == d for m, d in zip(self.maps, self.source.dims)
        )

    def is_epi(self) -> bool:
        p = self.source.algebra.field.p
        return all(
            linalg.rank(m, p) == d for m, d in zip(self.maps, self.target.dims)
        )

    def is_iso(self) -> bool:
        return self.source.dims == self.target.dims and self.is_mono()

    def vec(self) -> tuple[int, ...]:
        """All entries, vertex by vertex in row-major order."""
        if self._vec is None:
            self._vec = tuple(chain.from_iterable(chain.from_iterable(self.maps)))
        return self._vec

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and self.maps == other.maps
        )

    def __hash__(self):
        return hash((self.source.key, self.target.key, self.maps))

    def __repr__(self):
        return f"Morphism({self.source.dims} -> {self.target.dims})"


def unvec_morphism(source: Module, target: Module, flat) -> Morphism:
    """The morphism with entries flat (a tuple, as vec() returns)."""
    maps = []
    off = 0
    for r, c in zip(source.dims, target.dims):
        maps.append(linalg.reshape(flat[off:off + r * c], r, c))
        off += r * c
    return Morphism(source, target, tuple(maps), check=False)


def zero_module(algebra: BoundQuiverAlgebra) -> Module:
    return Module(algebra, (0,) * algebra.quiver.n,
                  ((),) * len(algebra.quiver.arrows), check=False)


def zero_morphism(source: Module, target: Module) -> Morphism:
    return Morphism(
        source, target,
        tuple(linalg.zeros(r, c) for r, c in zip(source.dims, target.dims)),
        check=False,
    )


def identity_morphism(m: Module) -> Morphism:
    return Morphism(m, m, tuple(linalg.eye(d) for d in m.dims), check=False)


# -- standard modules ------------------------------------------------------

def simple_module(algebra: BoundQuiverAlgebra, v: int) -> Module:
    dims = tuple(int(u == v) for u in range(algebra.quiver.n))
    maps = tuple(
        linalg.zeros(dims[a.source], dims[a.target]) for a in algebra.quiver.arrows
    )
    return Module(algebra, dims, maps, check=False)


def projective_module(algebra: BoundQuiverAlgebra, v: int) -> Module:
    """P(v) = e_v A: basis paths starting at v, arrows act by right
    concatenation; cached per vertex on the algebra."""
    return cached(algebra, ("projective_module", v),
                  lambda: _projective_module(algebra, v))


def _projective_module(algebra: BoundQuiverAlgebra, v: int) -> Module:
    q = algebra.quiver
    buckets = {w: algebra.basis_paths_between(v, w) for w in range(q.n)}
    pos = {w: {bi: k for k, bi in enumerate(buckets[w])} for w in range(q.n)}
    dims = [len(buckets[w]) for w in range(q.n)]
    maps = []
    for ai, arrow in enumerate(q.arrows):
        w, u = arrow.source, arrow.target
        m = [[0] * dims[u] for _ in range(dims[w])]
        for row, bi in enumerate(buckets[w]):
            path = algebra.basis[bi]
            extended = (path[0], path[1] + (ai,))
            if len(extended[1]) >= algebra.stabilized_length:
                continue
            for bj, coeff in algebra.reduce_path(extended).items():
                m[row][pos[u][bj]] = coeff
        maps.append(m)
    return Module(algebra, dims, maps)


def injective_module(algebra: BoundQuiverAlgebra, v: int) -> Module:
    """I(v) = D(A e_v) = D P(v) for P(v) over the opposite algebra: basis
    dual to paths ending at v."""
    return dual_module(projective_module(algebra.op(), v))


# -- sums and maps between sums -------------------------------------------

def _place(row_dims, col_dims, blocks: dict):
    """The matrix whose block (i, j) is blocks[i, j], of shape
    (row_dims[i], col_dims[j]), and zero where blocks has no entry."""
    rows = [[0] * sum(col_dims) for _ in range(sum(row_dims))]
    # lists, not tuples: tuple() of an iterator builds a fresh tuple that
    # is freed to the tuple free list, which then fills up and stays
    row_offs = list(accumulate(row_dims, initial=0))
    col_offs = list(accumulate(col_dims, initial=0))
    for (i, j), block in blocks.items():
        for r, row in enumerate(block, row_offs[i]):
            rows[r][col_offs[j]:col_offs[j] + len(row)] = row
    return tuple(map(tuple, rows))


def direct_sum(summands: list[Module], algebra=None) -> Module:
    """The direct sum, blocks in list order: every arrow matrix is block
    diagonal.  A single summand is returned as itself."""
    if len(summands) == 1:
        return summands[0]
    if not summands:
        if algebra is None:
            raise ValueError("empty direct sum needs the algebra")
        return zero_module(algebra)
    algebra = summands[0].algebra
    maps = tuple(
        _place([m.dims[a.source] for m in summands],
               [m.dims[a.target] for m in summands],
               {(i, i): m.maps[ai] for i, m in enumerate(summands)})
        for ai, a in enumerate(algebra.quiver.arrows))
    dims = tuple(map(sum, zip(*(m.dims for m in summands))))
    return Module(algebra, dims, maps, check=False)


def block_morphism(sources: list[Module], targets: list[Module],
                   blocks: dict, algebra=None) -> Morphism:
    """The map (+) sources -> (+) targets whose block (i, j) is the morphism
    blocks[i, j]: sources[i] -> targets[j], placed as it is, and zero where
    blocks has no entry."""
    source = direct_sum(sources, algebra)
    target = direct_sum(targets, algebra)
    maps = tuple(
        _place([s.dims[v] for s in sources], [t.dims[v] for t in targets],
               {ij: b.maps[v] for ij, b in blocks.items()})
        for v in range(source.algebra.quiver.n))
    return Morphism(source, target, maps, check=False)


def assemble(m: Module, comps, side: str) -> Morphism:
    """The sum of components (G_j, b_j) over the direct sum of the G_j:
    (+) G_j -> M for b_j: G_j -> M (side='right'), or M -> (+) G_j for
    b_j: M -> G_j (side='left')."""
    gens = [g for g, _ in comps]
    if side == "right":
        return block_morphism(gens, [m], {(j, 0): b for j, (_, b)
                                          in enumerate(comps)}, m.algebra)
    return block_morphism([m], gens, {(0, j): b for j, (_, b)
                                      in enumerate(comps)}, m.algebra)


def from_generator(m: Module, v: int, x) -> Morphism:
    """The map P(v) -> M that sends the trivial path at v to the row x of
    M_v, and so each basis path from v to x moved along it."""
    algebra = m.algebra
    p = algebra.field.p
    maps = [
        tuple(linalg.combination(x, m.path_matrix(algebra.basis[bi]), p,
                                 m.dims[w])
              for bi in algebra.basis_paths_between(v, w))
        for w in range(algebra.quiver.n)
    ]
    return Morphism(projective_module(algebra, v), m, maps)


# -- submodules, kernels, cokernels ------------------------------------------

def submodule_from_rows(parent: Module, rows: list):
    """Subrepresentation spanned per vertex by the given rows (must be
    arrow-stable).  Returns (module, inclusion)."""
    p = parent.algebra.field.p
    q = parent.algebra.quiver
    bases = tuple(linalg.row_space(r, p) if r else () for r in rows)
    dims = tuple(len(b) for b in bases)
    maps = []
    for ai, arrow in enumerate(q.arrows):
        v, w = arrow.source, arrow.target
        image = linalg.matmul(bases[v], parent.maps[ai], p, parent.dims[w])
        sol = linalg.solve_left(bases[w], image, p)
        if sol is None:
            raise ValueError("rows are not arrow-stable")
        maps.append(sol)
    sub = Module(parent.algebra, dims, tuple(maps), check=False)
    incl = Morphism(sub, parent, bases, check=False)
    return sub, incl


def kernel(f: Morphism):
    """(K, inclusion) with inclusion mono and inclusion.then(f) == 0."""
    p = f.source.algebra.field.p
    rows = [linalg.left_nullspace(m, p) for m in f.maps]
    return submodule_from_rows(f.source, rows)


def quotient_by_rows(parent: Module, rows: list):
    """(Q, projection) by the arrow-stable subspace spanned by rows."""
    p = parent.algebra.field.p
    q = parent.algebra.quiver
    projs = []
    survivors = []
    for v, r in enumerate(rows):
        basis, pivots = linalg.rref(r, p) if r else ((), [])
        basis = basis[: len(pivots)]
        d = parent.dims[v]
        free = [j for j in range(d) if j not in pivots]
        survivors.append(free)
        pr = []
        for unit in linalg.eye(d):
            resid = linalg.reduce_against(unit, basis, pivots, p)
            pr.append(tuple([resid[col] for col in free]))
        projs.append(tuple(pr))
    dims = tuple(len(s) for s in survivors)
    maps = []
    for ai, arrow in enumerate(q.arrows):
        v, w = arrow.source, arrow.target
        kept = tuple(parent.maps[ai][j] for j in survivors[v])
        maps.append(linalg.matmul(kept, projs[w], p, dims[w]))
    quot = Module(parent.algebra, dims, tuple(maps), check=False)
    proj = Morphism(parent, quot, tuple(projs), check=False)
    return quot, proj


def cokernel(f: Morphism):
    """(C, projection) with f.then(projection) == 0 and projection epi."""
    p = f.source.algebra.field.p
    rows = [linalg.row_space(m, p) for m in f.maps]
    return quotient_by_rows(f.target, rows)


# -- duality ---------------------------------------------------------------

def dual_module(m: Module) -> Module:
    """D(M) over the opposite algebra: transpose every arrow matrix."""
    maps = tuple(linalg.transpose(a, m.dims[arrow.target])
                 for a, arrow in zip(m.maps, m.algebra.quiver.arrows))
    return Module(m.algebra.op(), m.dims, maps, check=False)


def dual_morphism(f: Morphism) -> Morphism:
    """D(f): D(N) -> D(M) for f: M -> N: transpose every vertex map."""
    maps = tuple(linalg.transpose(a, d) for a, d in zip(f.maps, f.target.dims))
    return Morphism(dual_module(f.target), dual_module(f.source), maps,
                    check=False)
