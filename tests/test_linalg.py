import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionheart import linalg

from oracles import intersect_row_spaces, inverse, numpy_rref


def _reshape(flat, rows, cols):
    return tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows))


def _mul(x, a, p):
    """x @ a mod p, independently of linalg.matmul; a has at least one row."""
    return tuple(tuple(sum(s * t for s, t in zip(row, col)) % p
                       for col in zip(*a)) for row in x)


matrices_mod5 = st.builds(
    lambda flat, rows, cols: _reshape(
        (flat * (rows * cols + 1))[: rows * cols], rows, cols),
    st.lists(st.integers(0, 4), min_size=1, max_size=16),
    st.integers(1, 4),
    st.integers(1, 4),
)


@settings(max_examples=60, deadline=None)
@given(matrices_mod5)
def test_rref_idempotent_and_rank(a):
    p = 5
    r, pivots = linalg.rref(a, p)
    r2, pivots2 = linalg.rref(r, p)
    assert r == r2
    assert pivots == pivots2
    assert len(pivots) == linalg.rank(a, p)


@settings(max_examples=60, deadline=None)
@given(matrices_mod5)
def test_nullspace_annihilates(a):
    p = 5
    ns = linalg.nullspace(a, p)
    if ns:
        assert not any(map(any, _mul(a, linalg.transpose(ns, len(a[0])), p)))
    assert len(ns) == len(a[0]) - linalg.rank(a, p)


@settings(max_examples=60, deadline=None)
@given(matrices_mod5)
def test_left_nullspace(a):
    p = 5
    ns = linalg.left_nullspace(a, p)
    if ns:
        assert not any(map(any, _mul(ns, a, p)))


@settings(max_examples=40, deadline=None)
@given(matrices_mod5, matrices_mod5)
def test_solve_left_roundtrip(a, x):
    p = 5
    x = tuple((row + (0,) * len(a))[: len(a)] for row in x)
    b = _mul(x, a, p)
    sol = linalg.solve_left(a, b, p)
    assert sol is not None
    assert _mul(sol, a, p) == b


def test_solve_left_unsolvable():
    assert linalg.solve_left(((1, 0),), ((0, 1),), 2) is None


def test_inverse():
    a = ((1, 1), (0, 1))
    inv = inverse(a, 2)
    assert linalg.matmul(a, inv, 2) == linalg.eye(2)
    assert inverse(((1, 1), (1, 1)), 2) is None


def test_subspace_count_f2_dim2():
    # 1 + 3 + 1 subspaces of F_2^2
    assert sum(1 for _ in linalg.subspace_bases(2, 2)) == 5


def test_subspace_count_f3_dim2():
    # 1 + 4 + 1 subspaces of F_3^2
    assert sum(1 for _ in linalg.subspace_bases(2, 3)) == 6


def test_subspace_bases_unique():
    seen = set()
    for b in linalg.subspace_bases(3, 2):
        assert b not in seen
        seen.add(b)
    assert len(seen) == 1 + 7 + 7 + 1


def test_minimal_polynomial_nilpotent():
    a = ((0, 1), (0, 0))
    assert linalg.minimal_polynomial(a, 2) == [0, 0, 1]  # t^2


def test_minimal_polynomial_idempotent():
    a = ((1, 0), (0, 0))
    # t^2 - t = t^2 + t over F_2
    assert linalg.minimal_polynomial(a, 2) == [0, 1, 1]


def test_poly_eval():
    a = ((0, 1), (0, 0))
    out = linalg.poly_eval_matrix([1, 1], a, 2)  # 1 + t at a
    assert out == ((1, 1), (0, 1))


def test_intersect_row_spaces():
    a = ((1, 0, 0), (0, 1, 0))
    b = ((0, 1, 0), (0, 0, 1))
    inter = intersect_row_spaces(a, b, 2)
    assert inter == ((0, 1, 0),)


@st.composite
def _system(draw):
    """(p, a, b, n): shapes from 0x0 to 24x24, sparse or dense, often
    rank-deficient; the rows of b lie in the row space of a or are random.
    Entries are drawn in [-2p, 2p] and reduced mod p; n is the column count
    of a and b."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m, n, k = (draw(st.integers(0, 24)) for _ in range(3))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def entries(rows, cols):
        vals = rng.integers(-2 * p, 2 * p + 1, size=(rows, cols))
        return vals * (rng.random((rows, cols)) < density)

    a = entries(m, n)
    for i, j in rng.integers(0, m, size=(draw(st.integers(0, m // 2)), 2)):
        a[j] = -a[i]
    if draw(st.booleans()):
        b = (entries(k, m) @ a) % p
    else:
        b = entries(k, n)
    return p, _rows(a % p), _rows(b % p), n


def _rows(arr):
    return tuple(tuple(row) for row in arr.tolist())


def _rref_by_numpy(a, p):
    """numpy_rref on linalg's rows."""
    if not a:
        return (), []
    r, pivots = numpy_rref(np.array(a, dtype=np.int64), p)
    return _rows(r), pivots


def _on_both_paths(fn):
    """fn() evaluated with every rref on the numpy reference, then as is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rref", _rref_by_numpy)
        reference = fn()
    return reference, fn()


@settings(max_examples=100, deadline=None)
@given(_system())
def test_list_kernel_matches_numpy_kernel(system):
    p, a, b, n = system
    (r_np, piv_np), (r_list, piv_list) = _on_both_paths(
        lambda: linalg.rref(a, p))
    assert r_np == r_list
    assert piv_np == piv_list
    rank_np, rank_list = _on_both_paths(lambda: linalg.rank(a, p))
    assert rank_np == rank_list == len(piv_np)
    null_np, null_list = _on_both_paths(lambda: linalg.nullspace(a, p, n))
    assert null_np == null_list
    x_np, x_list = _on_both_paths(lambda: linalg.solve_left(a, b, p))
    assert (x_np is None) == (x_list is None)
    if x_np is not None:
        assert x_np == x_list
