"""Modules as quiver representations and morphisms as intertwiner families.

Right modules are covariant representations: the matrix of an arrow a: v -> w
has shape (dim_v, dim_w) and acts on row vectors, x |-> x @ M_a.  A morphism
f: M -> N is a family of vertex matrices f_v of shape (dims_M[v], dims_N[v])
with f_v @ N_a == M_a @ f_w for every arrow a: v -> w.  Composition is written
left to right, matching path composition.

All values are immutable after construction.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import linalg
from .algebra import BoundQuiverAlgebra, Path, path_target


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.int64)
    a.setflags(write=False)
    return a


class Module:
    __slots__ = ("algebra", "dims", "maps", "_key")

    def __init__(self, algebra: BoundQuiverAlgebra, dims, maps, check: bool = True):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        p = algebra.field.p
        frozen = []
        for ai, arrow in enumerate(algebra.quiver.arrows):
            m = np.asarray(maps[ai], dtype=np.int64) % p
            want = (self.dims[arrow.source], self.dims[arrow.target])
            if m.shape != want:
                m = m.reshape(want)
            frozen.append(_freeze(m))
        self.maps = tuple(frozen)
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
        if self._key is None:
            h = hashlib.sha1()
            h.update(self.algebra.key.encode())
            h.update(repr(self.dims).encode())
            for m in self.maps:
                h.update(m.tobytes())
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
            and all(np.array_equal(a, b) for a, b in zip(self.maps, other.maps))
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
                acc = (acc + coeff * self.path_matrix(path)) % p
            if acc.any():
                return False
        return True

    def path_matrix(self, path: Path) -> np.ndarray:
        """Matrix of the right action of a path, shape (dim_src, dim_tgt)."""
        p = self.algebra.field.p
        v = path[0]
        out = linalg.eye(self.dims[v])
        for ai in path[1]:
            out = linalg.matmul(out, self.maps[ai], p)
        return out

    # -- structural submodules --------------------------------------------

    def radical_rows(self) -> list[np.ndarray]:
        """Per-vertex basis rows of rad M = sum of arrow images."""
        out = []
        p = self.algebra.field.p
        for w in range(self.algebra.quiver.n):
            mats = [
                self.maps[ai]
                for ai, arrow in enumerate(self.algebra.quiver.arrows)
                if arrow.target == w and self.maps[ai].shape[0] > 0
            ]
            out.append(linalg.sum_row_spaces(mats, self.dims[w], p))
        return out

    def socle_rows(self) -> list[np.ndarray]:
        """Per-vertex basis rows of soc M = joint kernel of the arrows."""
        out = []
        p = self.algebra.field.p
        for v in range(self.algebra.quiver.n):
            blocks = [
                self.maps[ai]
                for ai, arrow in enumerate(self.algebra.quiver.arrows)
                if arrow.source == v
            ]
            if not blocks:
                out.append(linalg.eye(self.dims[v]))
                continue
            stacked = np.concatenate(blocks, axis=1)
            out.append(linalg.left_nullspace(stacked, p))
        return out


class Morphism:
    __slots__ = ("source", "target", "maps", "_key")

    def __init__(self, source: Module, target: Module, maps, check: bool = True):
        self.source = source
        self.target = target
        p = source.algebra.field.p
        frozen = []
        for v in range(source.algebra.quiver.n):
            m = np.asarray(maps[v], dtype=np.int64) % p
            want = (source.dims[v], target.dims[v])
            if m.shape != want:
                m = m.reshape(want)
            frozen.append(_freeze(m))
        self.maps = tuple(frozen)
        self._key = None
        if check and not self.intertwines():
            raise ValueError("vertex maps do not intertwine the arrow actions")

    def intertwines(self) -> bool:
        p = self.source.algebra.field.p
        for ai, arrow in enumerate(self.source.algebra.quiver.arrows):
            v, w = arrow.source, arrow.target
            lhs = linalg.matmul(self.maps[v], self.target.maps[ai], p)
            rhs = linalg.matmul(self.source.maps[ai], self.maps[w], p)
            if not np.array_equal(lhs, rhs):
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
            [linalg.matmul(a, b, p) for a, b in zip(self.maps, other.maps)],
            check=False,
        )

    def add(self, other: "Morphism") -> "Morphism":
        p = self.source.algebra.field.p
        return Morphism(
            self.source, self.target,
            [(a + b) % p for a, b in zip(self.maps, other.maps)], check=False,
        )

    def scale(self, c: int) -> "Morphism":
        p = self.source.algebra.field.p
        return Morphism(
            self.source, self.target, [(c * a) % p for a in self.maps], check=False,
        )

    def is_zero(self) -> bool:
        return all(not m.any() for m in self.maps)

    def is_mono(self) -> bool:
        p = self.source.algebra.field.p
        return all(
            linalg.rank(m, p) == m.shape[0] for m in self.maps
        )

    def is_epi(self) -> bool:
        p = self.source.algebra.field.p
        return all(
            linalg.rank(m, p) == m.shape[1] for m in self.maps
        )

    def is_iso(self) -> bool:
        return self.source.dims == self.target.dims and self.is_mono()

    def vec(self) -> np.ndarray:
        if not self.maps:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([m.reshape(-1) for m in self.maps])

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and all(np.array_equal(a, b) for a, b in zip(self.maps, other.maps))
        )

    def __hash__(self):
        return hash((self.source.key, self.target.key, bytes(self.vec().tobytes())))

    def __repr__(self):
        return f"Morphism({self.source.dims} -> {self.target.dims})"


def unvec_morphism(source: Module, target: Module, flat: np.ndarray) -> Morphism:
    maps = []
    off = 0
    for v in range(source.algebra.quiver.n):
        size = source.dims[v] * target.dims[v]
        maps.append(flat[off:off + size].reshape(source.dims[v], target.dims[v]))
        off += size
    return Morphism(source, target, maps, check=False)


def zero_module(algebra: BoundQuiverAlgebra) -> Module:
    n = algebra.quiver.n
    return Module(algebra, [0] * n,
                  [linalg.zeros(0, 0) for _ in algebra.quiver.arrows], check=False)


def zero_morphism(source: Module, target: Module) -> Morphism:
    return Morphism(
        source, target,
        [linalg.zeros(source.dims[v], target.dims[v])
         for v in range(source.algebra.quiver.n)],
        check=False,
    )


def identity_morphism(m: Module) -> Morphism:
    return Morphism(m, m, [linalg.eye(d) for d in m.dims], check=False)


# -- standard modules ------------------------------------------------------

def simple_module(algebra: BoundQuiverAlgebra, v: int) -> Module:
    dims = [1 if u == v else 0 for u in range(algebra.quiver.n)]
    maps = [
        linalg.zeros(dims[a.source], dims[a.target]) for a in algebra.quiver.arrows
    ]
    return Module(algebra, dims, maps, check=False)


def projective_module(algebra: BoundQuiverAlgebra, v: int) -> Module:
    """P(v) = e_v A: basis paths starting at v, arrows act by right concatenation."""
    q = algebra.quiver
    buckets = {w: algebra.basis_paths_between(v, w) for w in range(q.n)}
    pos = {w: {bi: k for k, bi in enumerate(buckets[w])} for w in range(q.n)}
    dims = [len(buckets[w]) for w in range(q.n)]
    maps = []
    for ai, arrow in enumerate(q.arrows):
        w, u = arrow.source, arrow.target
        m = linalg.zeros(dims[w], dims[u])
        for row, bi in enumerate(buckets[w]):
            path = algebra.basis[bi]
            extended = (path[0], path[1] + (ai,))
            if len(extended[1]) >= algebra.stabilized_length:
                continue
            for bj, coeff in algebra.reduce_path(extended).items():
                m[row, pos[u][bj]] = coeff
        maps.append(m)
    return Module(algebra, dims, maps)


def injective_module(algebra: BoundQuiverAlgebra, v: int) -> Module:
    """I(v) = D(A e_v): basis dual to paths ending at v, arrows act by the
    transpose of left concatenation."""
    q = algebra.quiver
    buckets = {w: algebra.basis_paths_between(w, v) for w in range(q.n)}
    pos = {w: {bi: k for k, bi in enumerate(buckets[w])} for w in range(q.n)}
    dims = [len(buckets[w]) for w in range(q.n)]
    maps = []
    for ai, arrow in enumerate(q.arrows):
        w, u = arrow.source, arrow.target
        # entry [i, j] = coefficient of (paths w->v)[i] in a * (paths u->v)[j]
        m = linalg.zeros(dims[w], dims[u])
        for col, bj in enumerate(buckets[u]):
            path = algebra.basis[bj]
            extended = (w, (ai,) + path[1])
            if len(extended[1]) >= algebra.stabilized_length:
                continue
            for bi, coeff in algebra.reduce_path(extended).items():
                m[pos[w][bi], col] = coeff
        maps.append(m)
    return Module(algebra, dims, maps)


def standard_modules(algebra: BoundQuiverAlgebra):
    """(simples, projectives, injectives), each indexed by vertex."""
    n = algebra.quiver.n
    return (
        [simple_module(algebra, v) for v in range(n)],
        [projective_module(algebra, v) for v in range(n)],
        [injective_module(algebra, v) for v in range(n)],
    )


# -- sums, kernels, cokernels ----------------------------------------------

def direct_sum(summands: list[Module], algebra=None):
    """Returns (sum, inclusions, projections); blocks in list order."""
    if not summands:
        if algebra is None:
            raise ValueError("empty direct sum needs the algebra")
        return zero_module(algebra), [], []
    algebra = summands[0].algebra
    q = algebra.quiver
    dims = [sum(m.dims[v] for m in summands) for v in range(q.n)]
    maps = []
    for ai in range(len(q.arrows)):
        blocks = [m.maps[ai] for m in summands]
        arrow = q.arrows[ai]
        big = linalg.zeros(dims[arrow.source], dims[arrow.target])
        ro = co = 0
        for b in blocks:
            big[ro:ro + b.shape[0], co:co + b.shape[1]] = b
            ro += b.shape[0]
            co += b.shape[1]
        maps.append(big)
    total = Module(algebra, dims, maps, check=False)
    inclusions, projections = [], []
    offsets = [0] * q.n
    for m in summands:
        inc = [linalg.zeros(m.dims[v], dims[v]) for v in range(q.n)]
        prj = [linalg.zeros(dims[v], m.dims[v]) for v in range(q.n)]
        for v in range(q.n):
            o = offsets[v]
            for i in range(m.dims[v]):
                inc[v][i, o + i] = 1
                prj[v][o + i, i] = 1
            offsets[v] += m.dims[v]
        inclusions.append(Morphism(m, total, inc, check=False))
        projections.append(Morphism(total, m, prj, check=False))
    return total, inclusions, projections


def submodule_from_rows(parent: Module, rows: list[np.ndarray]):
    """Subrepresentation spanned per vertex by the given rows (must be
    arrow-stable).  Returns (module, inclusion)."""
    p = parent.algebra.field.p
    q = parent.algebra.quiver
    bases = [linalg.row_space(r, p) if r.shape[0] else linalg.zeros(0, parent.dims[v])
             for v, r in enumerate(rows)]
    dims = [b.shape[0] for b in bases]
    maps = []
    for ai, arrow in enumerate(q.arrows):
        v, w = arrow.source, arrow.target
        image = linalg.matmul(bases[v], parent.maps[ai], p)
        sol = linalg.solve_left(bases[w], image, p)
        if sol is None:
            raise ValueError("rows are not arrow-stable")
        maps.append(sol)
    sub = Module(parent.algebra, dims, maps, check=False)
    incl = Morphism(sub, parent, bases, check=False)
    return sub, incl


def kernel(f: Morphism):
    """(K, inclusion) with inclusion mono and inclusion.then(f) == 0."""
    p = f.source.algebra.field.p
    rows = [linalg.left_nullspace(f.maps[v], p)
            for v in range(f.source.algebra.quiver.n)]
    return submodule_from_rows(f.source, rows)


def image(f: Morphism):
    """(Im, inclusion into target)."""
    p = f.source.algebra.field.p
    rows = [linalg.row_space(f.maps[v], p)
            for v in range(f.source.algebra.quiver.n)]
    return submodule_from_rows(f.target, rows)


def quotient_by_rows(parent: Module, rows: list[np.ndarray]):
    """(Q, projection) by the arrow-stable subspace spanned by rows."""
    p = parent.algebra.field.p
    q = parent.algebra.quiver
    reduced = [linalg.rref(r, p) if r.shape[0] else (linalg.zeros(0, parent.dims[v]), [])
               for v, r in enumerate(rows)]
    projs = []
    survivors = []
    for v in range(q.n):
        r, pivots = reduced[v]
        free = [j for j in range(parent.dims[v]) if j not in pivots]
        survivors.append(free)
        pr = linalg.zeros(parent.dims[v], len(free))
        for j in range(parent.dims[v]):
            resid = linalg.reduce_against(
                np.eye(parent.dims[v], dtype=np.int64)[j], r[: len(pivots)], pivots, p,
            )
            for k, col in enumerate(free):
                pr[j, k] = resid[col]
        projs.append(pr)
    dims = [len(s) for s in survivors]
    maps = []
    for ai, arrow in enumerate(q.arrows):
        v, w = arrow.source, arrow.target
        m = linalg.zeros(dims[v], dims[w])
        for k, j in enumerate(survivors[v]):
            row = linalg.matmul(
                np.eye(parent.dims[v], dtype=np.int64)[j:j + 1], parent.maps[ai], p,
            )
            m[k] = linalg.matmul(row, projs[w], p)[0]
        maps.append(m)
    quot = Module(parent.algebra, dims, maps, check=False)
    proj = Morphism(parent, quot, projs, check=False)
    return quot, proj


def cokernel(f: Morphism):
    """(C, projection) with f.then(projection) == 0 and projection epi."""
    p = f.source.algebra.field.p
    rows = [linalg.row_space(f.maps[v], p)
            for v in range(f.source.algebra.quiver.n)]
    return quotient_by_rows(f.target, rows)


def image_factorization(f: Morphism):
    """f = epi.then(mono) through the image. Returns (im, epi, mono)."""
    im, incl = image(f)
    p = f.source.algebra.field.p
    epi_maps = []
    for v in range(f.source.algebra.quiver.n):
        sol = linalg.solve_left(incl.maps[v], f.maps[v], p)
        if sol is None:
            raise AssertionError("image factorization failed")
        epi_maps.append(sol)
    return im, Morphism(f.source, im, epi_maps, check=False), incl


# -- duality ---------------------------------------------------------------

def dual_module(m: Module) -> Module:
    """D(M) over the opposite algebra: transpose every arrow matrix."""
    op = m.algebra.op()
    maps = [m.maps[ai].T.copy() for ai in range(len(op.quiver.arrows))]
    return Module(op, m.dims, maps, check=False)


def dual_morphism(f: Morphism) -> Morphism:
    """D is contravariant: D(f): D(target) -> D(source)."""
    return Morphism(
        dual_module(f.target), dual_module(f.source),
        [mv.T.copy() for mv in f.maps], check=False,
    )
