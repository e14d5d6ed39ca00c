"""Krull-Schmidt decomposition, isomorphism testing and brick detection.

An endomorphism x with minimal polynomial mp splits by Berlekamp's method: a
non-constant g in the fixed space of t -> t^p on F_p[t]/mp gives u = g(x),
semisimple with eigenvalues in F_p, and 1 - (u - c)^(p-1) projects onto an
eigenspace.  A decomposable module always exposes such an x (a projection).
The search tries the candidates of `homology.candidates`: the basis, the
pairwise sums, then either every nonzero element, while p^dim stays within
the scan cap, or random draws seeded by the module key beyond it.  A search
that ends beyond the cap without a witness raises UndeterminedError rather
than guessing, unless End(M) is commutative, where a deterministic search
decides.  `decompose` splits by these idempotents until every piece is
indecomposable and returns the pieces, one per summand.

Isomorphism of indecomposables needs no search: End(M) is local
(Auslander-Reiten-Smalo, I.4 and II.2), so an isomorphism M -> N, if there
is one, is among the basis elements of Hom(M, N).

Brick detection is fully deterministic: a finite division ring is a field
(Wedderburn), so End(M) is a division ring iff it is commutative, has zero
nilradical, and the Frobenius fixed space ker(x -> x^p - x) is one
dimensional.  Both kernels are F_p-linear in the commutative case.
"""

from __future__ import annotations

from . import linalg
from .exceptions import UndeterminedError
from .homology import HomSpace, candidates, hom_space, scannable
from .modules import (
    Module, Morphism, assemble, identity_morphism, kernel, zero_morphism,
)


def operator_matrix(f: Morphism):
    """Block diagonal matrix of an endomorphism acting on the total space."""
    n = sum(f.source.dims)
    rows = []
    off = 0
    for d, block in zip(f.source.dims, f.maps):
        left, right = (0,) * off, (0,) * (n - off - d)
        rows.extend(left + row + right for row in block)
        off += d
    return tuple(rows)


def _mulmod(a: list[int], b: list[int], mp: list[int], p: int) -> list[int]:
    """a*b modulo the monic mp, as deg mp low-first coefficients."""
    d = len(mp) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        for j, mj in enumerate(mp):
            prod[k - d + j] -= c * mj
    return [c % p for c in (prod + [0] * d)[:d]]


def _berlekamp_matrix(mp: list[int], p: int) -> list[list[int]]:
    """Rows t^(ip) mod mp for i < deg mp: the matrix of g(t) -> g(t^p)."""
    t_p = [1]
    for bit in bin(p)[2:]:
        t_p = _mulmod(t_p, t_p, mp, p)
        if bit == "1":
            t_p = _mulmod(t_p, [0, 1], mp, p)
    rows = [[1] + [0] * (len(mp) - 2)]
    while len(rows) < len(mp) - 1:
        rows.append(_mulmod(rows[-1], t_p, mp, p))
    return rows


def _fixed_space(a, p: int):
    """Rows x with x @ a == x, for a square matrix a."""
    shifted = linalg.add(a, linalg.scale(p - 1, linalg.eye(len(a)), p), p)
    return linalg.left_nullspace(shifted, p)


def _eigen_projection(u: Morphism, p: int) -> Morphism:
    """1 - (u - c)^(p-1) for the first c in F_p where it is nonzero: for u
    with u^p = u, the projection onto the eigenspace of c."""
    ident = identity_morphism(u.source)
    for c in range(p):
        e = ident.add(_endo_power(u.add(ident.scale(-c)), p - 1).scale(-1))
        if not e.is_zero():
            return e
    raise AssertionError("an endomorphism with u^p = u has an eigenvalue")


def split_idempotent(x: Morphism, p: int):
    """A nontrivial idempotent in F_p[x], or None when the minimal
    polynomial of x is primary."""
    mp = linalg.minimal_polynomial(operator_matrix(x), p)
    fixed = _fixed_space(_berlekamp_matrix(mp, p), p)
    g = next((row for row in fixed if any(row[1:])), None)
    if g is None:
        return None
    u = Morphism(x.source, x.source,
                 tuple(linalg.poly_eval_matrix(g, a, p) for a in x.maps),
                 check=False)
    return _eigen_projection(u, p)


def nontrivial_idempotent(m: Module):
    """A nontrivial idempotent endomorphism, or None when End(M) is local.

    Raises UndeterminedError when neither a witness nor an exhaustive
    certificate is reachable within the caps.
    """
    if m.is_zero():
        return None
    p = m.algebra.field.p
    end = hom_space(m, m)
    if end.dim == 1:
        return None
    for x in candidates(end):
        e = split_idempotent(x, p)
        if e is not None:
            return e
    if scannable(m.algebra, end.dim):
        return None
    if _is_commutative(end):
        return _commutative_idempotent(end, m, p)
    raise UndeterminedError(
        "idempotent search exhausted its budget on a non-commutative "
        "endomorphism algebra"
    )


def _is_commutative(end: HomSpace) -> bool:
    for i, a in enumerate(end.basis):
        for b in end.basis[i + 1:]:
            if a.then(b) != b.then(a):
                return False
    return True


def _endo_power(f: Morphism, e: int) -> Morphism:
    result = identity_morphism(f.source)
    base = f
    while e:
        if e & 1:
            result = result.then(base)
        base = base.then(base)
        e >>= 1
    return result


def _frobenius_matrix(end: HomSpace, p: int):
    """Matrix of x -> x^p in basis coordinates (commutative End only)."""
    return tuple(end.coords_of(_endo_power(b, p)) for b in end.basis)


def _nilradical_dim(end: HomSpace, p: int) -> int:
    """Dimension of the nilradical of a commutative End via iterated Frobenius."""
    total = sum(end.source.dims)
    frob = _frobenius_matrix(end, p)
    power = linalg.eye(end.dim)
    steps = 1
    while p ** steps < max(total, 2):
        steps += 1
    for _ in range(steps):
        power = linalg.matmul(power, frob, p)
    return end.dim - linalg.rank(power, p)


def _commutative_idempotent(end: HomSpace, m: Module, p: int):
    """Deterministic idempotent search in a commutative End(M)."""
    fixed = _fixed_space(_frobenius_matrix(end, p), p)
    if len(fixed) <= 1:
        return None  # local: the fixed space is spanned by the identity
    id_coords = end.coords_of(identity_morphism(m))
    for row in fixed:
        if linalg.rank((id_coords, row), p) == 2:
            return _eigen_projection(end.from_coords(row), p)
    raise AssertionError("commutative split promised but not found")


def is_indecomposable(m: Module) -> bool:
    if m.is_zero():
        return False
    return nontrivial_idempotent(m) is None


def _split_by_idempotent(m: Module, e: Morphism):
    """M = ker(e) + im(e) with inclusion morphisms; im(e) = ker(1 - e), as e
    is idempotent."""
    return kernel(e), kernel(identity_morphism(m).add(e.scale(-1)))


def decompose(m: Module) -> list[Module]:
    """The indecomposable summands of M, one piece per summand, split off by
    idempotents; the glue map (+) pieces -> M is checked to be an
    isomorphism."""
    def parts(x: Module):
        """(indecomposable piece, inclusion into x) pairs."""
        if x.is_zero():
            return []
        e = nontrivial_idempotent(x)
        if e is None:
            return [(x, identity_morphism(x))]
        return [(piece, incl.then(into))
                for half, into in _split_by_idempotent(x, e)
                for piece, incl in parts(half)]

    found = parts(m)
    if not assemble(m, found, "right").is_iso():
        raise AssertionError("decomposition glue map is not an isomorphism")
    return [piece for piece, _ in found]


def is_brick(m: Module) -> bool:
    """True iff End(M) is a division ring; deterministic, no sampling."""
    if m.is_zero():
        raise ValueError("the zero module is not a brick")
    p = m.algebra.field.p
    end = hom_space(m, m)
    if end.dim == 1:
        return True
    if not _is_commutative(end):
        return False  # finite division rings are commutative
    if _nilradical_dim(end, p) > 0:
        return False
    return len(_fixed_space(_frobenius_matrix(end, p), p)) == 1


def isomorphism(m: Module, n: Module):
    """An isomorphism M -> N, or None, for an indecomposable M.

    End(M) is local, so when M and N are isomorphic the non-isomorphisms
    M -> N form a proper subspace of Hom(M, N) (the radical of End(M) moved
    along any isomorphism), and some basis element of Hom(M, N) lies outside
    it.  On a decomposable M the answer can be wrong: no basis element of
    End(P + P) need be invertible.
    """
    if m.dims != n.dims:
        return None
    if m.is_zero():
        return zero_morphism(m, n)
    return next((f for f in hom_space(m, n).basis if f.is_iso()), None)


def is_isomorphic(m: Module, n: Module) -> bool:
    return isomorphism(m, n) is not None
