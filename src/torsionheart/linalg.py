"""Dense exact linear algebra over a prime field F_p, on Python ints.

Conventions used throughout the package:

* a matrix is a tuple of row tuples of ints, every entry already reduced
  mod p; it is immutable, so matrices are shared freely and never copied,
* vectors are rows; a matrix A of shape (m, n) maps row vectors x of length m
  to x @ A of length n,
* a matrix with no rows is the empty tuple, whatever its column count; a
  function that may meet one takes the column count from an explicit `ncols`
  argument (callers read it from module dimensions),
* functions accept any sequence of row tuples (rref also row lists) and
  return tuples,
* every elimination goes through rref; rank, nullspace and solve_left
  back-substitute on its rows,
* "nullspace" always means the right nullspace {x column : A x = 0}, returned
  as rows N with A @ N.T == 0; the kernel of a row action x -> x @ A is the
  nullspace of A.T.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations, product

Matrix = tuple[tuple[int, ...], ...]


@cache
def zeros(m: int, n: int) -> Matrix:
    return ((0,) * n,) * m


@cache
def eye(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(a, ncols: int) -> Matrix:
    """a.T; ncols is the column count of a, read only when a has no rows."""
    return tuple(zip(*a)) if a else ((),) * ncols


def hconcat(blocks, nrows: int) -> Matrix:
    """The blocks side by side; each has nrows rows."""
    if not blocks:
        return ((),) * nrows
    return tuple(tuple(chain.from_iterable(rows)) for rows in zip(*blocks))


def flatten(a) -> tuple[int, ...]:
    """The entries of a in row-major order."""
    return tuple(chain.from_iterable(a))


def reshape(flat, m: int, n: int) -> Matrix:
    """The m x n matrix with the entries of the tuple flat in row-major order."""
    if n == 0:
        return ((),) * m
    return tuple(flat[i:i + n] for i in range(0, m * n, n))


def matmul(a, b, p: int, ncols: int | None = None) -> Matrix:
    """a @ b mod p; ncols is the column count of b, read only when b has no
    rows.  Zero entries of a are skipped, and a row of a with a single entry
    1 reuses the row of b it selects."""
    if not b:
        if a and a[0]:
            raise ValueError(f"shape mismatch {len(a)}x{len(a[0])} @ 0x{ncols}")
        if a and ncols is None:
            raise ValueError("column count of an empty factor is unknown")
        return zeros(len(a), ncols or 0)
    if a and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    n = len(b[0])
    if n == 0:
        return ((),) * len(a)
    zero = (0,) * n
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b):
            if x:
                if acc is None:
                    acc = brow if x == 1 else [x * y for y in brow]
                else:
                    acc = [s + x * y for s, y in zip(acc, brow)]
        if acc is None:
            out.append(zero)
        elif type(acc) is tuple:  # one term, coefficient 1: a row of b
            out.append(acc)
        else:
            out.append(tuple([s % p for s in acc]))
    return tuple(out)


def combination(coeffs, rows, p: int, n: int) -> tuple[int, ...]:
    """coeffs @ rows mod p, a row of length n."""
    acc = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            acc = [s + c * y for s, y in zip(acc, row)]
    return tuple([s % p for s in acc])


def add(a, b, p: int) -> Matrix:
    """a + b mod p, entrywise."""
    return tuple(tuple([(x + y) % p for x, y in zip(ra, rb)])
                 for ra, rb in zip(a, b))


def scale(c: int, a, p: int) -> Matrix:
    """c * a mod p, entrywise."""
    return tuple(tuple([c * x % p for x in row]) for row in a)


def rref(a, p: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form. Returns (R, pivot_columns).

    Gauss-Jordan elimination on lists of Python ints: nearly every input is
    small and sparse, where an array library's per-call overhead would
    dominate.  R has as many rows as a, zero rows last.
    """
    rows = list(a)
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        for sel in range(row, m):
            if rows[sel][col]:
                break
        else:
            continue
        prow = rows[sel]
        rows[sel] = rows[row]
        lead = prow[col]
        if lead != 1:
            inv = pow(lead, p - 2, p)
            prow = [x * inv % p for x in prow]
        rows[row] = prow
        for i, ri in enumerate(rows):
            c = ri[col]
            if c and i != row:
                rows[i] = [(x - c * y) % p for x, y in zip(ri, prow)]
        pivots.append(col)
        row += 1
    return tuple(map(tuple, rows)), pivots


def rank(a, p: int) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a, p)[1])


def reduce_against(v, r, pivots: list[int], p: int) -> tuple[int, ...]:
    """Residual of row v after eliminating along an rref basis (R, pivots)."""
    w = v
    for ri, col in zip(r, pivots):
        c = w[col]
        if c:
            w = [(x - c * y) % p for x, y in zip(w, ri)]
    return tuple(w)


def in_row_space(v, r, pivots: list[int], p: int) -> bool:
    return not any(reduce_against(v, r, pivots, p))


def nullspace(a, p: int, ncols: int | None = None) -> Matrix:
    """Rows spanning {x : a @ x == 0}; ncols is the column count of a, read
    only when a has no rows."""
    n = len(a[0]) if a else ncols
    if n == 0:
        return ()
    if not a:
        return eye(n)
    rows, pivots = rref(a, p)
    pivot_set = set(pivots)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = [0] * n
        v[j] = 1
        for ri, col in zip(rows, pivots):
            v[col] = -ri[j] % p
        basis.append(tuple(v))
    return tuple(basis)


def left_nullspace(a, p: int) -> Matrix:
    """Rows y with y @ a == 0."""
    if not a:
        return ()
    if not a[0]:
        return eye(len(a))
    return nullspace(tuple(zip(*a)), p)


def solve_left(a, b, p: int):
    """One X with X @ a == b, or None. Rows of b are expressed in rowspace(a)."""
    if a and b and len(a[0]) != len(b[0]):
        raise ValueError(
            f"shape mismatch solve_left {len(a)}x{len(a[0])} vs {len(b)}x{len(b[0])}")
    if not b:
        return ()
    m = len(a)
    n = len(b[0])
    # rref with transform: [a | I] so residual coefficients are tracked
    rows, pivots = rref([ai + ei for ai, ei in zip(a, eye(m))], p)
    pivots = [c for c in pivots if c < n]
    tail = [0] * m
    x = []
    for bi in b:
        w = list(bi) + tail
        for ri, col in zip(rows, pivots):
            c = w[col]
            if c:
                w = [(s - c * t) % p for s, t in zip(w, ri)]
        if any(w[:n]):
            return None
        x.append(tuple([-s % p for s in w[n:]]))
    return tuple(x)


def row_space(a, p: int) -> Matrix:
    """Canonical rref basis of the row space (zero rows dropped)."""
    r, pivots = rref(a, p)
    return r[: len(pivots)]


def sum_row_spaces(mats, p: int) -> Matrix:
    if not mats:
        return ()
    return row_space(tuple(chain.from_iterable(mats)), p)


def vectors(dim: int, p: int):
    """All row vectors of F_p^dim in lexicographic order (includes zero)."""
    return product(range(p), repeat=dim)


def nonzero_vectors(dim: int, p: int):
    for v in vectors(dim, p):
        if any(v):
            yield v


def subspace_bases(dim: int, p: int):
    """All subspaces of F_p^dim, each as its unique rref basis matrix.

    Enumerates by rank and pivot-column pattern; free entries sit strictly to
    the right of their pivot and outside pivot columns.
    """
    yield ()
    for r in range(1, dim + 1):
        for pivots in combinations(range(dim), r):
            free_pos = [
                (i, j)
                for i in range(r)
                for j in range(pivots[i] + 1, dim)
                if j not in pivots
            ]
            for vals in product(range(p), repeat=len(free_pos)):
                b = [[0] * dim for _ in range(r)]
                for i, c in enumerate(pivots):
                    b[i][c] = 1
                for (i, j), v in zip(free_pos, vals):
                    b[i][j] = v
                yield tuple(map(tuple, b))


def minimal_polynomial(a, p: int) -> list[int]:
    """Monic minimal polynomial of a square matrix, low-degree-first coefficients."""
    n = len(a)
    if n == 0:
        return [0, 1]  # t, by convention: the zero operator on the zero space
    power = eye(n)
    flat = [flatten(power)]
    while True:
        power = matmul(power, a, p)
        target = flatten(power)
        coeffs = solve_left(flat, (target,), p)
        if coeffs is not None:
            return [-c % p for c in coeffs[0]] + [1]
        flat.append(target)


def poly_eval_matrix(coeffs: list[int], a, p: int) -> Matrix:
    """Evaluate a polynomial (low-first coefficients) at a square matrix."""
    n = len(a)
    out = zeros(n, n)
    power = eye(n)
    for c in coeffs:
        if c % p:
            out = add(out, scale(c % p, power, p), p)
        power = matmul(power, a, p)
    return out
