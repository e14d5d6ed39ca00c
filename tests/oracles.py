"""Independent brute-force oracles used to freeze expected values.

Everything here avoids the package's linear algebra paths on purpose: hom
dimensions come from full scans over all vertex-map tuples, subspaces from
closure-checked subsets of vectors, the Euler form gives Ext dimensions over
hereditary presentations, and indecomposability from full idempotent scans.
Only usable at tiny sizes.  numpy_rref is the elimination by numpy row
operations that linalg.rref replaced, kept as its reference.

Five checks here do use the package: scan_indecomposables lists the
indecomposables under a bound by the exhaustive arrow-matrix scan that the
universe's generate-and-close replaced, all_pairs_closure closes the seeds
under the Ext middles of every pair of members, as the universe did before
it read only AR sequences, join_search_lattice finds the
torsion classes by the join search over Filt(Fac) closures (Fac(add X) off
member Hom spaces, Ext middles of Ext^1 partners) that the semibrick
enumeration replaced, torsion_part builds the canonical sequence of a
torsion pair from the trace of the torsion class, and brick_labels labels
every Hasse cover by the unique torsion almost torsion-free heart simple of
its upper pair that cuts out the lower class.

The checkers at the end use it too.  They are the definitions the tests hold
the package's constructions to, and nothing in the package calls them:
approximation and minimality of a morphism, with the literal minimization
by idempotents that the package's approximations no longer need, split
epis and monos with the constrained-intertwiner solver that reads them
(the package reads factoring through a map as one row space), the literal
left almost split test and the uniqueness of factorizations, the
extension of a class with its surjection solved for and checked
exact (the package builds the middle alone), the class of a realized
extension, all classes of an Ext space, split
injectivity by the literal mono scan, injective dimension, the literal
I(v) on paths ending at v and the injective envelope built on the socle
that the package's duals of P(v) and of projective covers replaced, the
socle and the quotients by its lines that the dual maximal submodules
replaced, the image of a map, which no package path takes, the pullback,
the intersection of row spaces with the essentiality test read through it
and the split by an idempotent at row level, which the package reads as
kernels and cokernels, the summands
of literal submodules and quotients of members, the direct sum of a bag of
members, the Krull-Schmidt reading of a module as members that the
universe's Hom-vector reading replaced, and the literal isomorphism test
that reading the Hom basis of an indecomposable replaced.  The last are
the multiplication table of the path basis, the inclusions and projections
of a direct sum as identity slices, and the presentation and transpose
composed through them, with each map between projectives acting by left
multiplication: the package places blocks and builds each map out of a
projective from the image of its generator instead.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product

import numpy as np

from torsionheart import homology as ho
from torsionheart import linalg
from torsionheart.exceptions import ResourceLimitError
from torsionheart.krull import decompose, is_indecomposable, is_isomorphic
from torsionheart.algebra import cached, path_target
from torsionheart.modules import (
    Module, Morphism, block_morphism, cokernel, direct_sum, dual_morphism,
    identity_morphism, injective_module, kernel, projective_module,
    quotient_by_rows, simple_module, submodule_from_rows, unvec_morphism,
    zero_morphism,
)
from torsionheart.universe import bit_indices


def numpy_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns by numpy row operations."""
    m, n = a.shape
    r = a.copy() % p
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        sel = row + int(nz[0])
        if sel != row:
            r[[row, sel]] = r[[sel, row]]
        r[row] = (r[row] * pow(int(r[row, col]), p - 2, p)) % p
        col_vals = r[:, col].copy()
        col_vals[row] = 0
        other = np.nonzero(col_vals)[0]
        if other.size:
            r[other] = (r[other] - np.outer(col_vals[other], r[row])) % p
        pivots.append(col)
        row += 1
    return r, pivots


def arrow_arrays(m):
    """The arrow matrices of a module as numpy int64 arrays of their shapes."""
    return [np.array(a, dtype=np.int64).reshape(m.dims[arrow.source],
                                                m.dims[arrow.target])
            for a, arrow in zip(m.maps, m.algebra.quiver.arrows)]


def _all_matrices(rows: int, cols: int, p: int):
    for flat in product(range(p), repeat=rows * cols):
        yield np.array(flat, dtype=np.int64).reshape(rows, cols)


def brute_hom_count(m, n) -> int:
    """Number of intertwiner tuples (full scan); |Hom| = p^dim."""
    algebra = m.algebra
    p = algebra.field.p
    q = algebra.quiver
    spaces = [list(_all_matrices(m.dims[v], n.dims[v], p)) for v in range(q.n)]
    m_maps, n_maps = arrow_arrays(m), arrow_arrays(n)
    count = 0
    for choice in product(*spaces):
        ok = True
        for ai, arrow in enumerate(q.arrows):
            v, w = arrow.source, arrow.target
            lhs = (choice[v] @ n_maps[ai]) % p
            rhs = (m_maps[ai] @ choice[w]) % p
            if lhs.shape != rhs.shape or not np.array_equal(lhs, rhs):
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_hom_dim(m, n) -> int:
    count = brute_hom_count(m, n)
    p = m.algebra.field.p
    d = 0
    while p ** d < count:
        d += 1
    assert p ** d == count, "hom count is not a power of p"
    return d


def euler_form(quiver, d, e) -> int:
    """Euler form of a hereditary presentation (no relations)."""
    total = sum(dv * ev for dv, ev in zip(d, e))
    for a in quiver.arrows:
        total -= d[a.source] * e[a.target]
    return total


def brute_ext_dim_hereditary(m, n) -> int:
    """dim Ext^1 = dim Hom - <dim M, dim N> when the algebra has no relations."""
    assert not m.algebra.relations
    return brute_hom_dim(m, n) - euler_form(m.algebra.quiver, m.dims, n.dims)


def brute_subspaces(dim: int, p: int):
    """All subspaces of F_p^dim as frozensets of vectors, by subset closure."""
    vectors = [tuple(v) for v in product(range(p), repeat=dim)]
    out = set()
    for mask in range(1 << len(vectors)):
        subset = {vectors[i] for i in range(len(vectors)) if (mask >> i) & 1}
        if tuple([0] * dim) not in subset:
            continue
        closed = True
        for a in subset:
            for b in subset:
                s = tuple((x + y) % p for x, y in zip(a, b))
                if s not in subset:
                    closed = False
                    break
            if not closed:
                break
            for c in range(p):
                s = tuple((c * x) % p for x in a)
                if s not in subset:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            out.add(frozenset(subset))
    return out


def brute_submodule_count(m) -> int:
    """Subrepresentations counted as closure-checked vector-set tuples."""
    algebra = m.algebra
    p = algebra.field.p
    q = algebra.quiver
    per_vertex = [sorted(brute_subspaces(m.dims[v], p), key=sorted)
                  for v in range(q.n)]
    maps = arrow_arrays(m)
    count = 0
    for choice in product(*per_vertex):
        stable = True
        for ai, arrow in enumerate(q.arrows):
            v, w = arrow.source, arrow.target
            for vec in choice[v]:
                img = tuple(
                    int(x) % p
                    for x in (np.array(vec, dtype=np.int64) @ maps[ai]))
                if img not in choice[w]:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            count += 1
    return count


def brute_endomorphisms(m):
    """All endomorphism tuples (full scan)."""
    algebra = m.algebra
    p = algebra.field.p
    q = algebra.quiver
    spaces = [list(_all_matrices(m.dims[v], m.dims[v], p)) for v in range(q.n)]
    maps = arrow_arrays(m)
    out = []
    for choice in product(*spaces):
        ok = True
        for ai, arrow in enumerate(q.arrows):
            v, w = arrow.source, arrow.target
            if not np.array_equal((choice[v] @ maps[ai]) % p,
                                  (maps[ai] @ choice[w]) % p):
                ok = False
                break
        if ok:
            out.append(choice)
    return out


def brute_is_indecomposable(m) -> bool:
    """No idempotent endomorphism other than 0 and the identity."""
    if m.total_dim == 0:
        return False
    p = m.algebra.field.p
    n_vertices = m.algebra.quiver.n
    for endo in brute_endomorphisms(m):
        sq = tuple((endo[v] @ endo[v]) % p for v in range(n_vertices))
        if all(np.array_equal(sq[v], endo[v]) for v in range(n_vertices)):
            is_zero = all(not endo[v].any() for v in range(n_vertices))
            is_id = all(
                np.array_equal(endo[v], np.eye(m.dims[v], dtype=np.int64))
                for v in range(n_vertices))
            if not is_zero and not is_id:
                return False
    return True


def _dim_vectors(bound):
    """Nonzero dimension vectors <= bound in graded lexicographic order."""
    all_vecs = [v for v in product(*(range(b + 1) for b in bound)) if sum(v)]
    return sorted(all_vecs, key=lambda v: (sum(v), v))


def _support_connected(m) -> bool:
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
            parent[find(arrow.source)] = find(arrow.target)
    return len({find(v) for v in supp}) == 1


def _detached_simple(m) -> bool:
    """True when some S(v) splits off: socle not inside the radical at v."""
    if m.total_dim <= 1:
        return False
    p = m.algebra.field.p
    rad = m.radical_rows()
    soc = socle_rows(m)
    for v in range(m.algebra.quiver.n):
        if not soc[v]:
            continue
        joint = rad[v] + soc[v]
        if linalg.rank(joint, p) > linalg.rank(rad[v], p):
            return True
    return False


def _fingerprint(m, simples) -> tuple:
    return (
        m.dims,
        ho.hom_dim(m, m),
        tuple(ho.hom_dim(m, s) for s in simples),
        tuple(ho.hom_dim(s, m) for s in simples),
    )


def scan_indecomposables(algebra, bound, candidate_cap: int = 1 << 20):
    """Every indecomposable with dims <= bound, one per iso class, by a scan
    over all arrow-matrix tuples in graded lexicographic order of the
    dimension vectors.  Every dimension vector is checked against
    candidate_cap, the arrow-matrix tuples allowed per vector, before the
    first candidate is built.  The Hom spaces of a rejected candidate are
    dropped from the algebra's memo again."""
    q = algebra.quiver
    p = algebra.field.p
    scans = []
    for dims in _dim_vectors(bound):
        shapes = [(dims[a.source], dims[a.target]) for a in q.arrows]
        entries = sum(r * c for r, c in shapes)
        if p ** entries > candidate_cap:
            raise ResourceLimitError(
                f"candidate scan at dims {dims} needs {p}^{entries} tuples")
        scans.append((dims, shapes, entries))
    simples = [simple_module(algebra, v) for v in range(q.n)]
    found, fingerprints = [], []
    for dims, shapes, entries in scans:
        for flat in product(range(p), repeat=entries):
            maps, off = [], 0
            for r, c in shapes:
                maps.append(linalg.reshape(flat[off:off + r * c], r, c))
                off += r * c
            cand = Module(algebra, dims, tuple(maps), check=False)
            if not cand.satisfies_relations():
                continue
            if not _support_connected(cand) or _detached_simple(cand):
                continue
            # the memo only grows, so the entries since the mark are its
            # newest, and popitem drops them
            mark = len(algebra.memo)
            if is_indecomposable(cand):
                fp = _fingerprint(cand, simples)
                if not any(fp == other_fp and is_isomorphic(cand, other)
                           for other, other_fp in zip(found, fingerprints)):
                    found.append(cand)
                    fingerprints.append(fp)
                    continue
            while len(algebra.memo) > mark:
                algebra.memo.popitem()
    return found


def all_pairs_closure(algebra, bound):
    """The closure of the simples, projectives and injectives inside the
    bound under AR translates and the middles of every class of Ext^1
    between every two members, as (members sorted by (total dim, dims),
    witness or None), one class per line realized.  This is the closure the
    universe's AR-sequence closure replaced: it decomposes every result and
    compares each piece with the members of its dims.  It finds the same
    members on a complete universe; on an incomplete one it may find more,
    such as the regular modules of the Kronecker quiver, which no AR
    sequence from a seed reaches."""
    found, member_of, pieces, escapes = [], {}, {}, []
    p = algebra.field.p

    def fits(m):
        return all(d <= b for d, b in zip(m.dims, bound))

    def member(piece):
        idx = member_of.get(piece.key)
        if idx is None:
            idx = next((i for i, x in enumerate(found)
                        if x.dims == piece.dims and is_isomorphic(piece, x)),
                       len(found))
            if idx == len(found):
                found.append(piece)
            member_of[piece.key] = idx
        return idx

    def read(m, place, ids, label):
        got = pieces.get(m.key)
        if got is None:
            got = pieces[m.key] = [
                (member(piece) if fits(piece) else None, piece.dims)
                for piece in decompose(m)]
        dims = next((d for idx, d in got if idx is None), None)
        if dims is not None:
            escapes.append((place, ids, label, dims))

    for v in range(algebra.quiver.n):
        for make in (simple_module, projective_module, injective_module):
            seed = make(algebra, v)
            if fits(seed):
                member(seed)
    k = 0
    while k < len(found):
        x = found[k]
        if not ho.is_projective(x):
            read(ho.ar_translate(x), (1, 0), (k,), "AR translate of {}")
        if not ho.is_injective(x):
            read(ho.ar_translate_inverse(x), (1, 1), (k,),
                 "inverse AR translate of {}")
        for j in range(k + 1):
            for a, b in dict.fromkeys(((k, j), (j, k))):
                space = ho.ext1(found[a], found[b])
                lines = set()
                for n, coeffs in enumerate(ho.ext_scan(algebra, space.dim)):
                    line = ho.ext_line(coeffs, p)
                    if line not in lines:
                        lines.add(line)
                        read(realize(space, coeffs).middle, (0, n), (a, b),
                             "ext middle {} by {}")
        k += 1

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
    return (tuple(found[i] for i in order),
            min(witnesses)[1] if witnesses else None)


def quotient_summands(u) -> list[int]:
    """Per member X_i, the bitset of the summands of every quotient of X_i,
    read by listing the quotients."""
    return _piece_summands(u, u.all_quotients)


def submodule_summands(u) -> list[int]:
    """Per member X_i, the bitset of the summands of every submodule of
    X_i, read by listing the submodules."""
    return _piece_summands(u, u.all_submodules)


def _piece_summands(u, listing) -> list[int]:
    out = []
    for x in u.indecs:
        bits = 0
        for piece, _ in listing(x):
            bits |= u.summand_bitset(piece)
        out.append(bits)
    return out


def full_round_closure(u, bits: int, quots: list[int]) -> int:
    """The smallest set of members holding bits that is closed under the
    summands of quotients of its members (quots, from `quotient_summands`)
    and the middles of the extensions between every pair of its members, by
    full rounds until nothing changes."""
    from torsionheart.torsion import ext_middle_union_bits

    while True:
        members = [i for i in range(u.n) if bits >> i & 1]
        new = bits
        for i in members:
            new |= quots[i]
            for j in members:
                new |= ext_middle_union_bits(u, i, j)
        if new == bits:
            return bits
        bits = new


def subset_scan_lattice(u):
    """Torsion classes and brick-labelled Hasse covers by the literal scan.

    Every one of the 2^n subsets is closed by `full_round_closure`; a cover
    is a pair of classes with no class strictly between, labelled by the
    unique brick of upper intersect lower^perp (Hom from every lower member
    vanishes).  Returns the classes sorted by (size, value) and the sorted
    (upper, lower, label) triples."""
    from torsionheart.krull import is_brick

    quots = quotient_summands(u)
    found = {full_round_closure(u, bits, quots) for bits in range(1 << u.n)}
    classes = sorted(found, key=lambda b: (bin(b).count("1"), b))
    covers = []
    for a, upper in enumerate(classes):
        for b, lower in enumerate(classes):
            if lower == upper or lower & ~upper:
                continue
            if any(k not in (upper, lower) and lower & ~k == 0
                   and k & ~upper == 0 for k in classes):
                continue
            bricks = [
                x for x in range(u.n)
                if upper >> x & 1 and not lower >> x & 1
                and all(u.hom_table[t][x] == 0
                        for t in range(u.n) if lower >> t & 1)
                and is_brick(u.indecs[x])
            ]
            assert len(bricks) == 1, f"cover {a} > {b} has bricks {bricks}"
            covers.append((a, b, bricks[0]))
    return classes, covers


def fac_bits(u, g_bits: int) -> int:
    """Bitset of the members Y in Fac(add G), for G the members in g_bits: at
    every vertex v the maps G -> Y are jointly onto Y_v, so their stacked
    matrices have rank dim Y_v.  Every member is tried; no perpendicular
    class is read."""
    p = u.algebra.field.p
    gens = u.members(g_bits)
    bits = 0
    for i, y in enumerate(u.indecs):
        basis = [f for g in gens for f in ho.hom_space(g, y).basis]
        if all(linalg.rank([row for f in basis for row in f.maps[v]], p) == d
               for v, d in enumerate(y.dims) if d):
            bits |= 1 << i
    return bits


def ext_partners(u, i: int) -> list[tuple[int, int]]:
    """(j, members in the non-split middles of Ext^1(X_i, X_j) and of
    Ext^1(X_j, X_i)) for every member j with one of them nonzero, i itself
    included when Ext^1(X_i, X_i) is nonzero, read off the Ext table;
    cached."""
    from torsionheart.torsion import ext_middle_union_bits

    return cached(u, ("oracle_ext_partners", i), lambda: [
        (j, ext_middle_union_bits(u, i, j) | ext_middle_union_bits(u, j, i))
        for j in range(u.n) if u.ext_table[i][j] or u.ext_table[j][i]])


def join_closure(u, bits: int, closed: int = 0) -> int:
    """Smallest torsion class holding the members in bits and the torsion
    class `closed`, as Filt(Fac): a worklist fixpoint where each member X
    outside `closed` reads Fac(add X) once and the Ext middles with those of
    its Ext^1 partners that are done, itself included, once.  Pairs inside
    `closed` are skipped since it is already closed, a pair with Ext^1 zero
    both ways has no non-split middle, and any finite filtration is built
    from two-step extensions."""
    bits |= closed
    done = closed
    todo = bit_indices(bits & ~closed)
    while todo:
        i = todo.pop()
        done |= 1 << i
        found = cached(u, ("oracle_fac", i), lambda: fac_bits(u, 1 << i))
        for j, middles in ext_partners(u, i):
            if done >> j & 1:
                found |= middles
        found &= ~bits
        bits |= found
        todo.extend(bit_indices(found))
    return bits


def join_search_lattice(u):
    """Torsion classes and brick-labelled Hasse covers by the join search.

    Each class T found is joined (`join_closure`) with every member x
    outside it.  Every class strictly above T contains some join T v x, so
    the up-covers of T are exactly the inclusion-minimal joins, and every
    class is reached from 0 along covers.  A cover upper > lower is labelled
    by the brick B with upper intersect lower^perp = Filt(B): every other
    member there has a B-filtration of length at least two, so B is its one
    member of least total dimension.  Returns what `subset_scan_lattice`
    returns."""
    from torsionheart.krull import is_brick

    up_covers: dict[int, list[int]] = {}
    todo = [0]
    while todo:
        t = todo.pop()
        if t in up_covers:
            continue
        joins = {join_closure(u, 1 << x, closed=t)
                 for x in range(u.n) if not t >> x & 1}
        up_covers[t] = [j for j in joins
                        if not any(k != j and k & ~j == 0 for k in joins)]
        todo.extend(up_covers[t])
    classes = sorted(up_covers, key=lambda b: (bin(b).count("1"), b))
    index = {bits: i for i, bits in enumerate(classes)}
    covers = []
    for a, b in sorted((index[upper], index[lower])
                       for lower, uppers in up_covers.items()
                       for upper in uppers):
        upper, lower = classes[a], classes[b]
        filt = [x for x in bit_indices(upper)
                if all(u.hom_table[t][x] == 0 for t in bit_indices(lower))]
        least = min(u.indecs[x].total_dim for x in filt)
        labels = [x for x in filt if u.indecs[x].total_dim == least]
        assert len(labels) == 1, f"cover {a} > {b} has labels {labels}"
        assert is_brick(u.indecs[labels[0]]), f"cover {a} > {b}: not a brick"
        covers.append((a, b, labels[0]))
    return classes, covers


def torsion_part(x, pair):
    """(t(X), inclusion, canonical SES 0 -> t(X) -> X -> X/t(X) -> 0), with
    t(X) the trace of the torsion class in X."""
    from torsionheart import linalg
    from torsionheart.homology import SES, hom_space
    from torsionheart.modules import cokernel, submodule_from_rows
    from torsionheart.universe import bit_indices

    u = pair.universe
    p = x.algebra.field.p
    mats = [[] for _ in range(x.algebra.quiver.n)]
    for t in bit_indices(pair.torsion_bits):
        for f in hom_space(u.indecs[t], x).basis:
            for v in range(x.algebra.quiver.n):
                mats[v].append(f.maps[v])
    rows = [
        linalg.sum_row_spaces(mats[v], p)
        for v in range(x.algebra.quiver.n)
    ]
    t_x, incl = submodule_from_rows(x, rows)
    quot, proj = cokernel(incl)
    if not u.in_class(t_x, pair.torsion_bits):
        raise AssertionError("trace is not torsion")
    if not u.in_class(quot, pair.torsion_free_bits):
        raise AssertionError("canonical quotient is not torsion-free")
    return t_x, incl, SES(t_x, x, quot, incl, proj)


def brick_labels(lattice):
    """Every Hasse label by its first definition: the unique shifted heart
    simple S (torsion almost torsion-free) of the upper pair with
    lower = upper intersect perp(S), perp(S) the members X with
    Hom(X, S) = 0.  The pair's torsion-free class is read off the Hom table
    literally."""
    from torsionheart.heart import heart_simples
    from torsionheart.torsion import TorsionPair
    from torsionheart.torslattice import Cover

    u = lattice.universe
    out = []
    for cover in lattice.covers:
        upper = lattice.classes[cover.upper]
        lower = lattice.classes[cover.lower]
        free = 0
        for x in range(u.n):
            if all(u.hom_table[t][x] == 0 for t in bit_indices(upper)):
                free |= 1 << x
        labels = []
        for simple in heart_simples(TorsionPair(u, upper, free)):
            if not simple.shifted:
                continue
            perp = 0
            for x in range(u.n):
                if u.hom_table[x][simple.index] == 0:
                    perp |= 1 << x
            if upper & perp == lower:
                labels.append(simple.index)
        if len(labels) != 1:
            raise AssertionError(
                f"cover {cover.upper} > {cover.lower} has labels {labels}")
        out.append(Cover(cover.upper, cover.lower, labels[0]))
    return out


# -- checkers of the package's constructions --------------------------------


def _affine_solve(rows, rhs, p: int, n: int):
    """One x with rows @ x == rhs (free coordinates zero), or None."""
    if n == 0:
        return () if not any(rhs) else None
    r, pivots = linalg.rref([row + [c] for row, c in zip(rows, rhs)], p)
    if pivots and pivots[-1] == n:
        return None
    x = [0] * n
    for ri, col in zip(r, pivots):
        x[col] = ri[n]
    return tuple(x)


def constrained_morphism(source: Module, target: Module, conditions):
    """One intertwiner f: source -> target with L @ f_v == rhs for each
    condition (v, L, rhs).  Returns None when unsolvable; free coordinates
    are zeroed, so the result is deterministic."""
    p = source.algebra.field.p
    offs = ho._vec_offsets(source, target)
    total = offs[-1]
    rows = ho._hom_system(source, target)
    rhs = [0] * len(rows)
    for v, left, want in conditions:
        td = target.dims[v]
        # entry (i, j) of L @ f_v is sum_a L[i][a] f[a][j]
        for l_row in left:
            for j in range(td):
                row = [0] * total
                for a, la in enumerate(l_row):
                    row[offs[v] + a * td + j] = la
                rows.append(row)
        rhs.extend(linalg.flatten(want))
    sol = _affine_solve(rows, rhs, p, total)
    if sol is None:
        return None
    return unvec_morphism(source, target, sol)


def factor_through(f: Morphism, g: Morphism):
    """h: f.target -> g.target with g == f.then(h); None if impossible."""
    conditions = [
        (v, f.maps[v], g.maps[v])
        for v in range(f.source.algebra.quiver.n)
    ]
    return constrained_morphism(f.target, g.target, conditions)


def has_retraction(f: Morphism) -> bool:
    """True iff f: X -> Y is a split mono (some r with f.then(r) == id)."""
    return factor_through(f, identity_morphism(f.source)) is not None


def factor_over(f, g):
    """h: g.source -> f.source with g == h.then(f); None if impossible.
    The dual of factor_through: D(g) == D(f).then(D(h))."""
    h = factor_through(dual_morphism(f), dual_morphism(g))
    return None if h is None else dual_morphism(h)


def has_section(f) -> bool:
    """True iff f: X -> Y is a split epi."""
    return factor_over(f, identity_morphism(f.target)) is not None


def is_right_approximation(f, gens) -> bool:
    """Every map from add(gens) into f's target factors through f."""
    return all(factor_over(f, b) is not None
               for g in gens if not g.is_zero()
               for b in ho.hom_space(g, f.target).basis)


def is_left_approximation(f, gens) -> bool:
    """Every map from f's source into add(gens) factors through f."""
    return all(factor_through(f, b) is not None
               for g in gens if not g.is_zero()
               for b in ho.hom_space(f.source, g).basis)


def _annihilator(f: Morphism, side: str) -> list[Morphism]:
    """Basis of {u in End(Y) : u.then(f) == 0} (side='right', f: Y -> M) or
    {u in End(Y) : f.then(u) == 0} (side='left', f: M -> Y)."""
    y = f.source if side == "right" else f.target
    p = y.algebra.field.p
    end = ho.hom_space(y, y)
    if end.dim == 0:
        return []
    rows = [
        (u.then(f) if side == "right" else f.then(u)).vec()
        for u in end.basis
    ]
    if not rows[0]:
        return list(end.basis)
    ker = linalg.left_nullspace(rows, p)
    return [end.from_coords(c) for c in ker]


def fitting_idempotent(x: Morphism):
    """Projection onto im x^n along ker x^n for n >= dim Y (Fitting's lemma),
    or None when x is nilpotent or invertible."""
    y = x.source
    p = y.algebra.field.p
    xn = x
    for _ in range(y.total_dim.bit_length()):
        xn = xn.then(xn)
    if xn.is_zero() or xn.is_iso():
        return None
    maps = []
    for a in xn.maps:  # e = B^-1 diag(1, 0) B for B = [im a; ker a]
        im = linalg.row_space(a, p)
        inv = inverse(im + linalg.left_nullspace(a, p), p)
        k = len(im)
        maps.append(linalg.matmul(tuple(row[:k] for row in inv), im, p, len(a)))
    return Morphism(y, y, maps, check=False)


def _find_idempotent(basis: list[Morphism], p: int):
    """None when span(basis) generates a nilpotent algebra, else a nonzero
    idempotent inside the generated algebra."""
    if not basis:
        return None
    y = basis[0].source
    current = list(basis)
    prev_dim = None
    # The spans of B, B^2, B^3, ... (B = span(basis), a one-sided ideal of
    # End(Y)) form a descending chain of subspaces of End(Y), so they
    # stabilize after at most dim End(Y) shrinking steps; the loop stops at
    # the first span that does not shrink, or at zero.
    while True:
        vecs = [m.vec() for m in current if not m.is_zero()]
        if not vecs:
            return None
        span = linalg.row_space(vecs, p)
        current = [unvec_morphism(y, y, r) for r in span]
        if prev_dim == len(span):
            break
        prev_dim = len(span)
        current = [a.then(b) for a in basis for b in current]
    for x in ho.candidates(ho.HomSpace(y, y, tuple(current))):
        if x.is_iso():  # the identity lies in the algebra
            return identity_morphism(y)
        e = fitting_idempotent(x)
        if e is not None:
            return e
    if ho.scannable(y.algebra, len(current)):
        return None
    raise ResourceLimitError("idempotent search space too large")


def minimize(f: Morphism, side: str) -> Morphism:
    """Split off the source summands killed by f (side='right') or the
    target summands missed by f (side='left') until f is minimal: the
    literal minimization by idempotents, which homology.minimal_approx
    needs no longer."""
    right = side == "right"
    p = f.source.algebra.field.p
    while not (f.source if right else f.target).is_zero():
        e = _find_idempotent(_annihilator(f, side), p)
        if e is None:
            return f
        # ker e is a complement of the summand im e
        y = e.source
        rows = [linalg.left_nullspace(a, p) for a in e.maps]
        sub, incl = submodule_from_rows(y, rows)
        if right:
            f = incl.then(f)
            continue
        core_maps = []  # 1 - e, the projection onto ker e along im e
        for a, d, inc in zip(e.maps, y.dims, incl.maps):
            one_minus_e = linalg.add(linalg.eye(d),
                                     linalg.scale(p - 1, a, p), p)
            sol = linalg.solve_left(inc, one_minus_e, p)
            if sol is None:
                raise AssertionError("complement of the idempotent image failed")
            core_maps.append(sol)
        f = f.then(Morphism(y, sub, core_maps, check=False))
    return f


def is_right_minimal(f) -> bool:
    """No nonzero idempotent u of End(source) with u.then(f) == 0."""
    p = f.source.algebra.field.p
    return _find_idempotent(_annihilator(f, "right"), p) is None


def is_left_minimal(f) -> bool:
    """No nonzero idempotent u of End(target) with f.then(u) == 0."""
    p = f.source.algebra.field.p
    return _find_idempotent(_annihilator(f, "left"), p) is None


def solve_right(a, b, p: int, ncols_a: int, ncols_b: int):
    """One X with a @ X == b, or None; shape (ncols_a, ncols_b)."""
    xt = linalg.solve_left(linalg.transpose(a, ncols_a),
                           linalg.transpose(b, ncols_b), p)
    return None if xt is None else linalg.transpose(xt, ncols_a)


def inverse(a, p: int):
    """The inverse of a square matrix over F_p, or None."""
    n = len(a)
    if n and len(a[0]) != n:
        return None
    if n == 0:
        return ()
    x = linalg.solve_left(a, linalg.eye(n), p)
    if x is None or linalg.matmul(a, x, p) != linalg.eye(n):
        return None
    return x


def realize(space, coeffs):
    """The extension 0 -> N -> E -> M -> 0 in the given class of the
    Ext1Space Ext^1(M, N): the pushout of the syzygy inclusion along the
    cocycle, with the surjection onto M solved for and the sequence checked
    exact.  The package builds the middle alone (`homology.ext_middle`)."""
    return realize_cocycle(space, space.cocycle(coeffs))


def realize_cocycle(space, h):
    """The extension of the class of the cocycle h: K -> N of the
    Ext1Space, built as `realize` builds it."""
    w, from_p0, from_n = ho.pushout(space.incl, h)
    maps = []
    for v in range(space.m.algebra.quiver.n):
        dom = from_p0.maps[v] + from_n.maps[v]
        rhs = space.cover.maps[v] + linalg.zeros(space.n.dims[v], space.m.dims[v])
        sol = solve_right(dom, rhs, space.p, w.dims[v], space.m.dims[v])
        if sol is None:
            raise AssertionError("pushout mediator failed")
        maps.append(sol)
    surject = Morphism(w, space.m, maps)
    ses = ho.SES(space.n, w, space.m, from_n, surject)
    if not ses.validate():
        raise AssertionError("realized extension is not exact")
    return ses


def ext_class_of(space, ses) -> tuple[int, ...]:
    """Coordinates, in the representative basis of the Ext1Space
    Ext^1(M, N), of the class of 0 -> N -> E -> M -> 0."""
    p = space.p
    lift = factor_over(ses.surject, space.cover)
    if lift is None:
        raise AssertionError("projective lift along the epi failed")
    g = space.incl.then(lift)
    maps = []
    for v in range(space.k.algebra.quiver.n):
        sol = linalg.solve_left(ses.inject.maps[v], g.maps[v], p)
        if sol is None:
            raise AssertionError("cocycle does not land in the subobject")
        maps.append(sol)
    coords = space.hom_kn.coords_of(Morphism(space.k, space.n, maps))
    # the coboundaries: restrictions to K of the maps P0 -> N
    image = [space.hom_kn.coords_of(space.incl.then(b))
             for b in ho.hom_space(space.cover.source, space.n).basis]
    resid = linalg.reduce_against(coords, *linalg.rref(image, p), p)
    return tuple(resid[i] for i in space.rep_indices)


def nonsplit_classes(space):
    """(coeffs, SES) for every nonzero class of an Ext1Space, in
    lexicographic order of the coefficients, each realized on its own.  The
    caps are checked before any class is realized.  The package realizes
    one class per line and reads the others off it."""
    for coeffs in ho.ext_scan(space.m.algebra, space.dim):
        yield coeffs, realize(space, coeffs)


def all_ext_classes(space):
    """(coeffs, SES) for every class of an Ext1Space: the zero (split) class
    first, then nonsplit_classes(space) in its order."""
    zero = (0,) * space.dim
    yield zero, realize(space, zero)
    yield from nonsplit_classes(space)


def split_injective_scan(m, class_bits, u) -> bool:
    """Every mono from M into a sum of at most length(M) class members
    splits: the literal bounded scan, one irredundant tuple at a time, for
    any class; heart.is_split_injective reads Ext middles instead and needs
    a class closed under submodules."""
    members = [u.indecs[i] for i in bit_indices(class_bits)]
    for k in range(1, m.total_dim + 1):
        for tup in combinations_with_replacement(members, k):
            target = direct_sum(list(tup), m.algebra)
            for g in ho.hom_space(m, target).elements():
                if g.is_mono() and not has_retraction(g):
                    return False
    return True


def left_almost_split(f, class_bits, u) -> bool:
    """f is no split mono, and every map g out of its source into a class
    member is a split mono or factors through f: the literal definition,
    one constrained solve per map, with no shortcut for maps between equal
    dims.  heart.is_left_almost_split reads one row space per member
    instead."""
    if has_retraction(f):
        return False
    return all(g.is_mono() and has_retraction(g)
               or factor_through(f, g) is not None
               for i in bit_indices(class_bits)
               for g in ho.hom_space(f.source, u.indecs[i]).elements())


def factors_uniquely(f, class_bits, u) -> bool:
    """No nonzero map h out of f's target into a class member has
    f.then(h) == 0: factorizations through f are unique."""
    return not any(f.then(h).is_zero()
                   for i in bit_indices(class_bits)
                   for h in ho.hom_space(f.target, u.indecs[i]).elements(
                       nonzero=True))


def injective_dimension(m, cap: int = 64) -> int:
    """Length of the minimal injective coresolution of M, by iterated
    injective envelopes; raises once it exceeds cap."""
    x = m
    d = 0
    while not x.is_zero():
        env = ho.injective_envelope(x)
        if env.is_iso():
            return d
        x = cokernel(env)[0]
        d += 1
        if d > cap:
            raise ResourceLimitError(f"injective dimension exceeds {cap}")
    return d


def literal_injective_module(algebra, v):
    """I(v) = D(A e_v) built literally: basis dual to the paths ending at v,
    arrows acting by the transpose of left concatenation.  The package
    builds I(v) as the dual of a projective over the opposite algebra."""
    q = algebra.quiver
    buckets = {w: algebra.basis_paths_between(w, v) for w in range(q.n)}
    pos = {w: {bi: k for k, bi in enumerate(buckets[w])} for w in range(q.n)}
    dims = [len(buckets[w]) for w in range(q.n)]
    maps = []
    for ai, arrow in enumerate(q.arrows):
        w, u = arrow.source, arrow.target
        # entry [i, j] = coefficient of (paths w->v)[i] in a * (paths u->v)[j]
        m = [[0] * dims[u] for _ in range(dims[w])]
        for col, bj in enumerate(buckets[u]):
            path = algebra.basis[bj]
            extended = (w, (ai,) + path[1])
            if len(extended[1]) >= algebra.stabilized_length:
                continue
            for bi, coeff in algebra.reduce_path(extended).items():
                m[pos[w][bi]][col] = coeff
        maps.append(m)
    return Module(algebra, dims, maps)


def image(f: Morphism):
    """(Im, inclusion into target)."""
    p = f.source.algebra.field.p
    rows = [linalg.row_space(m, p) for m in f.maps]
    return submodule_from_rows(f.target, rows)


def pullback(f: Morphism, g: Morphism):
    """Pullback of f: X -> Z and g: Y -> Z; returns (W, to_X, to_Y)."""
    x, y = f.source, g.source
    p = x.algebra.field.p
    w, incl = kernel(block_morphism(
        [x, y], [f.target], {(0, 0): f, (1, 0): g.scale(p - 1)}))
    # the columns of incl at the block of X, then those at the block of Y
    to_x = tuple(tuple(r[:d] for r in a) for a, d in zip(incl.maps, x.dims))
    to_y = tuple(tuple(r[d:] for r in a) for a, d in zip(incl.maps, x.dims))
    return (w, Morphism(w, x, to_x, check=False),
            Morphism(w, y, to_y, check=False))


def intersect_row_spaces(a, b, p: int):
    """Canonical basis of rowspace(a) n rowspace(b)."""
    if not a or not b:
        return ()
    # y @ [a; -b] == 0  <=>  y[:ka] @ a == y[ka:] @ b, a point of the intersection
    ka = len(a)
    stacked = tuple(a) + tuple(tuple([-x % p for x in row]) for row in b)
    ker = linalg.left_nullspace(stacked, p)
    if not ker:
        return ()
    pts = linalg.matmul(tuple(k[:ka] for k in ker), a, p)
    return linalg.row_space(pts, p)


def intersection_essentiality(f: Morphism, u) -> bool:
    """Every nonzero submodule of the target meets the image, read by
    intersecting row spaces vertex by vertex."""
    p = f.source.algebra.field.p
    img_rows = [linalg.row_space(f.maps[v], p)
                for v in range(f.source.algebra.quiver.n)]
    for sub, incl in u.all_submodules(f.target):
        if sub.is_zero():
            continue
        if not any(intersect_row_spaces(incl.maps[v], img_rows[v], p)
                   for v in range(f.target.algebra.quiver.n)):
            return False
    return True


def row_split_by_idempotent(m: Module, e: Morphism):
    """M = ker(e) + im(e) with inclusion morphisms, from the left nullspace
    and the row space of e at each vertex."""
    p = m.algebra.field.p
    ker_rows = [linalg.left_nullspace(e.maps[v], p)
                for v in range(m.algebra.quiver.n)]
    im_rows = [linalg.row_space(e.maps[v], p)
               for v in range(m.algebra.quiver.n)]
    return submodule_from_rows(m, ker_rows), submodule_from_rows(m, im_rows)


def socle_rows(m) -> list:
    """Per-vertex basis rows of soc M = joint kernel of the arrows."""
    p = m.algebra.field.p
    out = []
    for v in range(m.algebra.quiver.n):
        blocks = [m.maps[ai]
                  for ai, arrow in enumerate(m.algebra.quiver.arrows)
                  if arrow.source == v]
        out.append(linalg.left_nullspace(linalg.hconcat(blocks, m.dims[v]), p)
                   if blocks else linalg.eye(m.dims[v]))
    return out


def socle_quotients(m) -> list:
    """Quotients M/S over all simple submodules S, one per line in the
    socle at each vertex.  The universe dualizes the maximal submodules of
    D(M) instead."""
    p = m.algebra.field.p
    soc = socle_rows(m)
    out = []
    for v in range(m.algebra.quiver.n):
        for line in linalg.subspace_bases(len(soc[v]), p):
            if len(line) == 1:
                rows = [() if w != v else linalg.matmul(line, soc[v], p)
                        for w in range(m.algebra.quiver.n)]
                out.append(quotient_by_rows(m, rows)[0])
    return out


def socle_envelope(m):
    """An injective envelope M -> E(M) built on the socle: one copy of I(v)
    per basis row of soc M at v, each row sent to the trivial path's dual
    vector of its copy, extended by solving for an intertwiner.  The package
    dualizes the projective cover of D(M) instead."""
    algebra = m.algebra
    soc = socle_rows(m)
    copies = [(v, row) for v in range(algebra.quiver.n) for row in soc[v]]
    summands = [literal_injective_module(algebra, v) for v, _ in copies]
    total, incs, _ = literal_sum_maps(summands, algebra)
    conditions = []
    for (v, row), inc in zip(copies, incs):
        bucket = algebra.basis_paths_between(v, v)
        triv = bucket.index(algebra.basis_index[(v, ())])
        conditions.append((v, (row,), (inc.maps[v][triv],)))
    f = constrained_morphism(m, total, conditions)
    if f is None or not f.is_mono():
        raise AssertionError("socle extension to the injective hull failed")
    return f


def sum_module(u, bag):
    """The direct sum of the members of a bag, a sorted tuple of universe
    indices with repetition."""
    return direct_sum([u.indecs[i] for i in bag], u.algebra)


def decompose_reading(u, m, pieces=None) -> dict[int, int]:
    """Multiplicity of each member of the universe among the summands of M,
    by Krull-Schmidt decomposition and an isomorphism test against the
    members of the same dims; pieces, when given, is decompose(m)."""
    counts: dict[int, int] = {}
    for piece in decompose(m) if pieces is None else pieces:
        idx = next(i for i, x in enumerate(u.indecs)
                   if x.dims == piece.dims and is_isomorphic(piece, x))
        counts[idx] = counts.get(idx, 0) + 1
    return counts


def literal_isomorphism(m: Module, n: Module):
    """An isomorphism M -> N, or None, by the definition: the first nonzero
    element of Hom(M, N), in the order of the scan gate, that is invertible,
    and the zero map between zero modules.  Any M, a sum or not."""
    if m.is_zero() and n.is_zero():
        return zero_morphism(m, n)
    return next((f for f in ho.hom_space(m, n).elements(nonzero=True)
                 if f.is_iso()), None)


def multiply_basis(algebra, i: int, j: int) -> dict[int, int]:
    """Basis coordinates of the product of basis paths i and j (traverse i,
    then j): their concatenation reduced, and zero when the endpoints do
    not match or the product dies."""
    a, b = algebra.basis[i], algebra.basis[j]
    if path_target(algebra.quiver, a) != b[0]:
        return {}
    return algebra.reduce_path((a[0], a[1] + b[1]))


def literal_sum_maps(summands, algebra):
    """(sum, inclusions, projections) of a direct sum, the maps as slices of
    identity matrices.  The package places the blocks of a map between sums
    instead of composing through these."""
    total = direct_sum(summands, algebra)
    incs, prjs = [], []
    offsets = [0] * algebra.quiver.n
    for m in summands:
        inc, prj = [], []
        for v in range(algebra.quiver.n):
            o, d, n = offsets[v], m.dims[v], total.dims[v]
            inc.append(linalg.eye(n)[o:o + d])
            prj.append(linalg.zeros(o, d) + linalg.eye(d)
                       + linalg.zeros(n - o - d, d))
            offsets[v] += d
        incs.append(Morphism(m, total, tuple(inc), check=False))
        prjs.append(Morphism(total, m, tuple(prj), check=False))
    return total, incs, prjs


def _path_coordinates(algebra, f: Morphism, v: int, w: int) -> dict[int, int]:
    """f: P(v) -> P(w) as an element on basis paths w -> v: the image of
    the trivial path at v, which determines f."""
    triv = algebra.basis_paths_between(v, v).index(algebra.basis_index[(v, ())])
    return {bi: c for bi, c in zip(algebra.basis_paths_between(w, v),
                                   f.maps[v][triv]) if c}


def literal_presentation(m):
    """presentation(m) composed literally from a projective cover of M, its
    kernel K and a cover of K, all built afresh: the cover of K, then the
    inclusion of K into P0, through the inclusions of the summands of P1 and
    the projections onto those of P0, each composite read at the generator.
    The package reads the rows of the cached syzygy's inclusion at the top
    lifts of K."""
    algebra = m.algebra
    k, incl = kernel(ho.projective_cover(m))
    d = ho.projective_cover(k).then(incl)
    p0_vertices = [w for w, _ in m.top_lifts()]
    p1_vertices = [v for v, _ in k.top_lifts()]
    _, p1_incs, _ = literal_sum_maps(
        [projective_module(algebra, v) for v in p1_vertices], algebra)
    _, _, p0_prjs = literal_sum_maps(
        [projective_module(algebra, w) for w in p0_vertices], algebra)
    components = tuple(
        tuple(_path_coordinates(algebra, inc.then(d).then(prj), v, w)
              for prj, w in zip(p0_prjs, p0_vertices))
        for inc, v in zip(p1_incs, p1_vertices))
    return p0_vertices, p1_vertices, components


def _left_mult_morphism(algebra, coeffs: dict[int, int], v: int, w: int):
    """P(v) -> P(w), left multiplication by an element supported on basis
    paths w -> v, through the multiplication table of the basis."""
    p = algebra.field.p
    maps = []
    for u in range(algebra.quiver.n):
        bucket_v = algebra.basis_paths_between(v, u)
        pos_w = {bi: k for k, bi
                 in enumerate(algebra.basis_paths_between(w, u))}
        mat = [[0] * len(pos_w) for _ in bucket_v]
        for i, bi in enumerate(bucket_v):
            for xj, c in coeffs.items():
                for bk, c2 in multiply_basis(algebra, xj, bi).items():
                    mat[i][pos_w[bk]] = (mat[i][pos_w[bk]] + c * c2) % p
        maps.append(mat)
    return Morphism(projective_module(algebra, v),
                    projective_module(algebra, w), maps)


def literal_transpose(m):
    """Tr M over the opposite algebra from literal_presentation: each
    reversed component acts by left multiplication P_op(w_i) -> P_op(v_j),
    and the blocks are added up through projections and inclusions.  The
    package sends the generator of each P_op(w_i) to its joined image."""
    algebra = m.algebra
    op = algebra.op()
    p = algebra.field.p
    p0_vertices, p1_vertices, components = literal_presentation(m)
    op_p1 = [projective_module(op, v) for v in p1_vertices]
    total0, _, prjs0 = literal_sum_maps(
        [projective_module(op, w) for w in p0_vertices], op)
    total1, incs1, _ = literal_sum_maps(op_p1, op)
    t_maps = [linalg.zeros(total0.dims[u], total1.dims[u])
              for u in range(op.quiver.n)]
    for j, vj in enumerate(p1_vertices):
        for i, wi in enumerate(p0_vertices):
            rev: dict[int, int] = {}
            for bi, c in components[j][i].items():
                rpath = algebra.reverse_path(algebra.basis[bi])
                for bo, c2 in op.reduce_path(rpath).items():
                    rev[bo] = (rev.get(bo, 0) + c * c2) % p
            comp_op = _left_mult_morphism(op, rev, wi, vj)
            for u in range(op.quiver.n):
                block = linalg.matmul(prjs0[i].maps[u], comp_op.maps[u], p,
                                      op_p1[j].dims[u])
                t_maps[u] = linalg.add(t_maps[u], linalg.matmul(
                    block, incs1[j].maps[u], p, total1.dims[u]), p)
    return cokernel(Morphism(total0, total1, t_maps))[0]
