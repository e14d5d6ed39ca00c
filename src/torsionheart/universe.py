"""Enumerate all indecomposables under a dimension bound and certify that the
collection is closed under the operations the torsion-theoretic layers need.

The enumeration is a plain scan over arrow-matrix tuples in deterministic
lexicographic order, pruned by two exact decomposability filters (a detached
simple summand at a vertex, and a disconnected support graph) before the full
idempotent test.  Completeness is a certificate for representation-finite
algebras with a big enough bound, not a decision procedure.

The universe is the one reader of modules and Ext classes as sums of
members: `summands` maps a module to the multiplicities of its members, and
`ext_middles` lists the middle terms of the non-split classes between two
sums of members as member bitsets.  The heart, torsion and completeness
layers ask these two and never decompose a module themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import linalg
from .algebra import BoundQuiverAlgebra, cached, memo_mark, memo_rollback
from .exceptions import IncompleteUniverseError, ResourceLimitError
from .homology import (
    ar_translate, ar_translate_inverse, ext1, hom_dim, hom_space,
    is_injective, is_projective,
)
from .krull import decompose, is_indecomposable, is_isomorphic
from .modules import (
    Module, cokernel, direct_sum, image, kernel, quotient_by_rows,
    simple_module, submodule_from_rows,
)


def _dim_vectors(bound: tuple[int, ...]):
    """Nonzero dimension vectors <= bound in graded lexicographic order."""
    all_vecs = [v for v in product(*(range(b + 1) for b in bound)) if sum(v)]
    return sorted(all_vecs, key=lambda v: (sum(v), v))


def _support_connected(m: Module) -> bool:
    q = m.algebra.quiver
    supp = [v for v in range(q.n) if m.dims[v]]
    if len(supp) <= 1:
        return True
    parent = {v: v for v in supp}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ai, arrow in enumerate(q.arrows):
        if any(map(any, m.maps[ai])):
            a, b = find(arrow.source), find(arrow.target)
            parent[a] = b
    return len({find(v) for v in supp}) == 1


def _detached_simple(m: Module) -> bool:
    """True when some S(v) splits off: socle not inside the radical at v."""
    if m.total_dim <= 1:
        return False
    p = m.algebra.field.p
    rad = m.radical_rows()
    soc = m.socle_rows()
    for v in range(m.algebra.quiver.n):
        if not soc[v]:
            continue
        joint = rad[v] + soc[v]
        if linalg.rank(joint, p) > linalg.rank(rad[v], p):
            return True
    return False


@dataclass
class IndecUniverse:
    algebra: BoundQuiverAlgebra
    dim_bound: tuple[int, ...]
    indecs: tuple[Module, ...]
    hom_table: tuple[tuple[int, ...], ...]   # [i][j] = dim Hom(X_i, X_j)
    ext_table: tuple[tuple[int, ...], ...]   # [i][j] = dim Ext^1(X_i, X_j)
    complete: bool
    witness: str | None
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.indecs)

    @property
    def all_bits(self) -> int:
        return (1 << self.n) - 1

    def require_complete(self):
        if not self.complete:
            raise IncompleteUniverseError(self.witness or "closure failed")

    # -- membership -----------------------------------------------------

    def index_of(self, m: Module):
        """Universe index of the iso class of an indecomposable, or None."""
        if m.is_zero():
            return None
        return cached(self, ("index_of", m.key), lambda: next(
            (i for i, x in enumerate(self.indecs)
             if x.dims == m.dims and is_isomorphic(m, x)), None))

    def summands(self, m: Module) -> dict[int, int]:
        """Multiplicity of each member among the indecomposable summands of
        M, by universe index; uncached.

        Raises IncompleteUniverseError when a summand escapes the universe.
        """
        counts: dict[int, int] = {}
        if m.is_zero():
            return counts
        for piece, mult in decompose(m):
            idx = self.index_of(piece)
            if idx is None:
                raise IncompleteUniverseError(
                    f"summand of dims {piece.dims} outside")
            counts[idx] = counts.get(idx, 0) + mult
        return counts

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

    def sum_module(self, bag: tuple[int, ...]) -> Module:
        """The direct sum of the members of a bag, a sorted tuple of
        universe indices with repetition."""
        return direct_sum([self.indecs[i] for i in bag], self.algebra)[0]

    # -- oracles ----------------------------------------------------------

    def all_submodules(self, m: Module):
        return cached(self, ("all_submodules", m.key),
                      lambda: all_submodules(m))

    def maximal_submodules(self, i: int) -> list[Module]:
        return cached(self, ("maximal_submodules", i),
                      lambda: maximal_submodules(self.indecs[i]))

    def simple_socle_quotients(self, i: int) -> list[Module]:
        return cached(self, ("simple_socle_quotients", i),
                      lambda: simple_socle_quotients(self.indecs[i]))

    # -- extensions -----------------------------------------------------

    def nonsplit_middles(self, right: Module, left: Module) -> list[int]:
        """Middle bitsets of the non-split classes of Ext^1(right, left), in
        the order of nonsplit_classes; uncached."""
        return [self.summand_bitset(ses.middle)
                for _, ses in ext1(right, left).nonsplit_classes()]

    def ext_middles(self, right: tuple[int, ...],
                    left: tuple[int, ...]) -> list[int]:
        """nonsplit_middles of the sums of two bags of members; cached.  The
        split middle is the sum of the two bags.  Ext^1 is additive, so no
        class is non-split when Ext^1 vanishes between every pair of
        summands, and then no sum is built."""
        def compute():
            if not any(self.ext_table[r][l] for r in right for l in left):
                return []
            return self.nonsplit_middles(self.sum_module(right),
                                         self.sum_module(left))
        return cached(self, ("ext_middles", right, left), compute)


def bit_indices(bits: int) -> list[int]:
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return out


def popcount(bits: int) -> int:
    return bin(bits).count("1")


def enumerate_indecomposables(algebra: BoundQuiverAlgebra,
                              dim_bound,
                              check_completeness: bool = True) -> IndecUniverse:
    bound = tuple(int(b) for b in dim_bound)
    q = algebra.quiver
    caps = algebra.caps
    if len(bound) != q.n:
        raise ValueError("dimension bound length does not match the vertex count")
    if any(b > caps.dim_bound_cap for b in bound):
        raise ResourceLimitError(
            f"dimension bound exceeds the per-vertex cap {caps.dim_bound_cap}"
        )
    p = algebra.field.p
    found: list[Module] = []
    fingerprints: list[tuple] = []
    # Every dimension vector is checked against the cap before any scan.
    scans = []
    for dims in _dim_vectors(bound):
        shapes = [(dims[a.source], dims[a.target]) for a in q.arrows]
        entries = sum(r * c for r, c in shapes)
        if p ** entries > caps.candidate_cap:
            raise ResourceLimitError(
                f"candidate scan at dims {dims} needs {p}^{entries} tuples"
            )
        scans.append((dims, shapes, entries))
    simples = [simple_module(algebra, v) for v in range(q.n)]
    for dims, shapes, entries in scans:
        for flat in product(range(p), repeat=entries):
            maps = []
            off = 0
            for r, c in shapes:
                maps.append(linalg.reshape(flat[off:off + r * c], r, c))
                off += r * c
            cand = Module(algebra, dims, tuple(maps), check=False)
            if not cand.satisfies_relations():
                continue
            if not _support_connected(cand) or _detached_simple(cand):
                continue
            # A rejected candidate's Hom spaces would otherwise stay in the
            # algebra's memo for good.
            mark = memo_mark(algebra)
            if is_indecomposable(cand):
                fp = _fingerprint(cand, simples)
                if not any(fp == other_fp and is_isomorphic(cand, other)
                           for other, other_fp in zip(found, fingerprints)):
                    found.append(cand)
                    fingerprints.append(fp)
                    continue
            memo_rollback(algebra, mark)
    hom_table, ext_table = [], []
    for x in found:
        hom_row, ext_row = [], []
        for y in found:
            hom_row.append(hom_dim(x, y))
            ext_row.append(ext1(x, y).dim)
        hom_table.append(tuple(hom_row))
        ext_table.append(tuple(ext_row))
    universe = IndecUniverse(algebra, bound, tuple(found), tuple(hom_table),
                             tuple(ext_table), complete=False, witness=None)
    if check_completeness:
        ok, witness = completeness_check(universe)
        universe.complete = ok
        universe.witness = witness
    return universe


def _fingerprint(m: Module, simples: list[Module]) -> tuple:
    return (
        m.dims,
        hom_dim(m, m),
        tuple(hom_dim(m, s) for s in simples),
        tuple(hom_dim(s, m) for s in simples),
    )


def completeness_check(universe: IndecUniverse) -> tuple[bool, str | None]:
    """Closure of the universe under kernels, cokernels, images of all
    morphisms between members, middle-term summands of all Ext classes and
    AR translates where defined; every simple must be a member.  Raises
    ResourceLimitError when a Hom space between members is over the scan
    cap."""
    u = universe

    def check_member(m: Module, what: str):
        try:
            u.summands(m)
        except IncompleteUniverseError as exc:
            return f"{what} has {exc.witness}"
        return None

    for i, x in enumerate(u.indecs):
        for j, y in enumerate(u.indecs):
            for f in hom_space(x, y).elements(nonzero=True):
                for m, what in ((kernel(f)[0], f"kernel of map {i}->{j}"),
                                (image(f)[0], f"image of map {i}->{j}"),
                                (cokernel(f)[0], f"cokernel of map {i}->{j}")):
                    w = check_member(m, what)
                    if w:
                        return False, w
    # The split middle X_i + X_j is made of members, so only the non-split
    # classes can leave the universe.
    for i in range(u.n):
        for j in range(u.n):
            try:
                u.ext_middles((i,), (j,))
            except IncompleteUniverseError as exc:
                return False, f"ext middle {i} by {j} has {exc.witness}"
    for i, x in enumerate(u.indecs):
        if not is_projective(x):
            w = check_member(ar_translate(x), f"AR translate of {i}")
            if w:
                return False, w
        if not is_injective(x):
            w = check_member(ar_translate_inverse(x), f"inverse AR translate of {i}")
            if w:
                return False, w
    # without this, a universe with no members is vacuously closed
    for v in range(u.algebra.quiver.n):
        if u.index_of(simple_module(u.algebra, v)) is None:
            return False, f"simple at vertex {v} outside"
    return True, None


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


def all_quotients(m: Module):
    """Every quotient exactly once, as (module, projection)."""
    out = []
    for _, incl in all_submodules(m):
        rows = [incl.maps[v] for v in range(m.algebra.quiver.n)]
        out.append(quotient_by_rows(m, rows))
    return out


def maximal_submodules(m: Module) -> list[Module]:
    """Maximal submodules = preimages of top hyperplanes at single vertices."""
    p = m.algebra.field.p
    q = m.algebra.quiver
    rad = m.radical_rows()
    out = []
    for v in range(q.n):
        _, pivots = linalg.rref(rad[v], p)
        lifts = [j for j in range(m.dims[v]) if j not in pivots]
        t = len(lifts)
        if t == 0:
            continue
        lift_mat = tuple(linalg.eye(m.dims[v])[j] for j in lifts)
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


def simple_socle_quotients(m: Module) -> list[Module]:
    """Quotients M/S over all simple submodules S (lines in the socle)."""
    p = m.algebra.field.p
    q = m.algebra.quiver
    soc = m.socle_rows()
    out = []
    for v in range(q.n):
        s = len(soc[v])
        if s == 0:
            continue
        for line in linalg.subspace_bases(s, p):
            if len(line) != 1:
                continue
            rows = [() if w != v else linalg.matmul(line, soc[v], p)
                    for w in range(q.n)]
            out.append(quotient_by_rows(m, rows)[0])
    return out
