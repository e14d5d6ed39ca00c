"""Dense exact linear algebra over a prime field F_p.

Conventions used throughout the package:

* vectors are rows; a matrix A of shape (m, n) maps row vectors x of length m
  to x @ A of length n,
* all arrays are numpy int64 reduced mod p after every operation,
* every elimination goes through rref, which reduces on lists of Python ints
  and converts back; rank, nullspace and solve_left back-substitute on the
  same lists,
* "nullspace" always means the right nullspace {x column : A x = 0}, returned
  as rows N with A @ N.T == 0; the kernel of a row action x -> x @ A is the
  nullspace of A.T.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return zeros(a.shape[0], b.shape[1])
    return (a @ b) % p


def inv_mod(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form. Returns (R, pivot_columns).

    Gauss-Jordan elimination on lists of Python ints: nearly every input is
    small and sparse, where numpy's per-call overhead would dominate.
    """
    m, n = a.shape
    rows = (a % p).tolist()
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
    return np.array(rows, dtype=np.int64).reshape(m, n), pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def reduce_against(v: np.ndarray, r: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Residual of row v after eliminating along an rref basis (R, pivots)."""
    w = v.copy() % p
    for i, col in enumerate(pivots):
        if w[col]:
            w = (w - w[col] * r[i]) % p
    return w


def in_row_space(v: np.ndarray, r: np.ndarray, pivots: list[int], p: int) -> bool:
    return not reduce_against(v, r, pivots, p).any()


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {x : a @ x == 0}; shape (dim, a.shape[1])."""
    m, n = a.shape
    if n == 0:
        return zeros(0, 0)
    if m == 0:
        return eye(n)
    r, pivots = rref(a, p)
    rows = r.tolist()
    pivot_set = set(pivots)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = [0] * n
        v[j] = 1
        for ri, col in zip(rows, pivots):
            v[col] = -ri[j] % p
        basis.append(v)
    return np.array(basis, dtype=np.int64).reshape(len(basis), n)


def left_nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Rows y with y @ a == 0."""
    return nullspace(a.T.copy(), p)


def solve_left(a: np.ndarray, b: np.ndarray, p: int):
    """One X with X @ a == b, or None. Rows of b are expressed in rowspace(a)."""
    m, n = a.shape
    k = b.shape[0]
    if b.shape[1] != n:
        raise ValueError(f"shape mismatch solve_left {a.shape} vs {b.shape}")
    # rref with transform: [a | I] so residual coefficients are tracked
    aug = np.concatenate([a % p, eye(m)], axis=1)
    r, pivots = rref(aug, p)
    rows = r.tolist()
    pivots = [c for c in pivots if c < n]
    x = []
    for bi in (b % p).tolist():
        w = bi + [0] * m
        for ri, col in zip(rows, pivots):
            c = w[col]
            if c:
                w = [(s - c * t) % p for s, t in zip(w, ri)]
        if any(w[:n]):
            return None
        x.append([-s % p for s in w[n:]])
    return np.array(x, dtype=np.int64).reshape(k, m)


def solve_right(a: np.ndarray, b: np.ndarray, p: int):
    """One X with a @ X == b, or None."""
    xt = solve_left(a.T.copy(), b.T.copy(), p)
    return None if xt is None else xt.T.copy()


def inverse(a: np.ndarray, p: int):
    n = a.shape[0]
    if a.shape[1] != n:
        return None
    if n == 0:
        return zeros(0, 0)
    x = solve_left(a, eye(n), p)
    if x is None or not np.array_equal(matmul(a, x, p), eye(n)):
        return None
    return x


def row_space(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical rref basis of the row space (zero rows dropped)."""
    r, pivots = rref(a, p)
    return r[: len(pivots)].copy()


def sum_row_spaces(mats: list[np.ndarray], n: int, p: int) -> np.ndarray:
    if not mats:
        return zeros(0, n)
    return row_space(np.concatenate(mats, axis=0), p)


def intersect_row_spaces(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of rowspace(a) n rowspace(b)."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return zeros(0, a.shape[1])
    # y @ [a; -b] == 0  <=>  y[:ka] @ a == y[ka:] @ b, a point of the intersection
    stacked = np.concatenate([a, (-b) % p], axis=0)
    ker = left_nullspace(stacked, p)
    ka = a.shape[0]
    if ker.shape[0] == 0:
        return zeros(0, a.shape[1])
    pts = matmul(ker[:, :ka], a, p)
    return row_space(pts, p)


def vectors(dim: int, p: int):
    """All row vectors of F_p^dim in lexicographic order (includes zero)."""
    for tup in product(range(p), repeat=dim):
        yield np.array(tup, dtype=np.int64)


def nonzero_vectors(dim: int, p: int):
    for v in vectors(dim, p):
        if v.any():
            yield v


def subspace_bases(dim: int, p: int):
    """All subspaces of F_p^dim, each as its unique rref basis matrix.

    Enumerates by rank and pivot-column pattern; free entries sit strictly to
    the right of their pivot and outside pivot columns.
    """
    yield zeros(0, dim)
    for r in range(1, dim + 1):
        for pivots in combinations(range(dim), r):
            free_pos = [
                (i, j)
                for i in range(r)
                for j in range(pivots[i] + 1, dim)
                if j not in pivots
            ]
            for vals in product(range(p), repeat=len(free_pos)):
                b = zeros(r, dim)
                for i, c in enumerate(pivots):
                    b[i, c] = 1
                for (i, j), v in zip(free_pos, vals):
                    b[i, j] = v
                yield b


def minimal_polynomial(a: np.ndarray, p: int) -> list[int]:
    """Monic minimal polynomial of a square matrix, low-degree-first coefficients."""
    n = a.shape[0]
    if n == 0:
        return [0, 1]  # t, by convention: the zero operator on the zero space
    power = eye(n)
    flat = [power.reshape(-1).copy()]
    while True:
        power = matmul(power, a, p)
        target = power.reshape(-1)
        stack = np.stack(flat, axis=0)
        coeffs = solve_left(stack, target.reshape(1, -1), p)
        if coeffs is not None:
            c = coeffs[0]
            poly = [(-int(c[i])) % p for i in range(len(flat))] + [1]
            return poly
        flat.append(target.copy())


def poly_eval_matrix(coeffs: list[int], a: np.ndarray, p: int) -> np.ndarray:
    """Evaluate a polynomial (low-first coefficients) at a square matrix."""
    n = a.shape[0]
    out = zeros(n, n)
    power = eye(n)
    for c in coeffs:
        if c % p:
            out = (out + (c % p) * power) % p
        power = matmul(power, a, p)
    return out
