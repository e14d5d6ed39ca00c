import importlib
import inspect
import pkgutil

import pytest

import torsionheart
from torsionheart.algebra import Arrow, PrimeField, Quiver, parse_algebra
from torsionheart.exceptions import AdmissibilityError, QuiverParseError

from conftest import A2_TEXT
from oracles import multiply_basis


def test_a2_path_basis():
    a = parse_algebra(A2_TEXT)
    # hand enumeration: e1, e2, a
    assert a.dim == 3
    lengths = sorted(len(path[1]) for path in a.basis)
    assert lengths == [0, 0, 1]


def test_single_vertex_is_the_field():
    a = parse_algebra("field 5\nvertices only\n")
    assert a.dim == 1
    assert a.basis == ((0, ()),)


def test_loop_with_square_zero():
    a = parse_algebra("field 3\nvertices v\narrow x: v -> v\nrelation x*x\n")
    # paths e, x survive; x^2 dies
    assert a.dim == 2
    assert multiply_basis(a, 1, 1) == {}


def test_loop_cube_zero():
    a = parse_algebra(
        "field 2\nvertices v\narrow x: v -> v\nrelation x*x*x\n")
    assert a.dim == 3
    # x * x = x^2, still a basis path
    prod = multiply_basis(a, 1, 1)
    assert prod == {2: 1}
    assert multiply_basis(a, 1, 2) == {}


def test_commutative_square_relation():
    text = """
    field 2
    vertices 1 2 3 4
    arrow a: 1 -> 2
    arrow b: 2 -> 4
    arrow c: 1 -> 3
    arrow d: 3 -> 4
    relation a*b - c*d
    """
    alg = parse_algebra(text)
    # paths: 4 trivial + 4 arrows + one diagonal class (ab = cd)
    assert alg.dim == 9


def test_multiplication_table_associative():
    a = parse_algebra(
        "field 2\nvertices v\narrow x: v -> v\nrelation x*x*x\n")
    p = a.field.p
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                left = {}
                for t, c in multiply_basis(a, i, j).items():
                    for s, c2 in multiply_basis(a, t, k).items():
                        left[s] = (left.get(s, 0) + c * c2) % p
                right = {}
                for t, c in multiply_basis(a, j, k).items():
                    for s, c2 in multiply_basis(a, i, t).items():
                        right[s] = (right.get(s, 0) + c * c2) % p
                left = {s: c for s, c in left.items() if c}
                right = {s: c for s, c in right.items() if c}
                assert left == right


def test_idempotents_sum_to_identity():
    a = parse_algebra(A2_TEXT)
    trivial = [i for i, path in enumerate(a.basis) if not path[1]]
    assert len(trivial) == len(a.quiver.vertices)
    # e_v * e_v = e_v and e_v * e_w = 0
    for i in trivial:
        assert multiply_basis(a, i, i) == {i: 1}
        for j in trivial:
            if i != j:
                assert multiply_basis(a, i, j) == {}


def test_unbounded_loop_rejected():
    with pytest.raises(AdmissibilityError):
        parse_algebra("field 2\nvertices v\narrow x: v -> v\n")


def test_short_relation_rejected():
    with pytest.raises(AdmissibilityError):
        parse_algebra(
            "field 2\nvertices 1 2\narrow a: 1 -> 2\nrelation a\n")


def test_parse_errors():
    with pytest.raises(QuiverParseError):
        parse_algebra("vertices 1 2\n")  # no field
    with pytest.raises(QuiverParseError):
        parse_algebra("field 2\n")  # no vertices
    with pytest.raises(QuiverParseError):
        parse_algebra("field 4\nvertices v\n")  # not prime
    with pytest.raises(QuiverParseError):
        parse_algebra("field 2\nvertices 1\narrow a: 1 -> 2\n")
    with pytest.raises(QuiverParseError):
        parse_algebra(
            "field 2\nvertices 1 2 3 4\narrow a: 1 -> 2\narrow b: 2 -> 3\n"
            "arrow c: 2 -> 4\nrelation a*b - a*c\n")  # terms not parallel


def test_quiver_rejects_an_undeclared_endpoint():
    # from a file the parser's own "endpoint not declared" check fires first
    with pytest.raises(QuiverParseError,
                       match="^arrow a has undeclared endpoint$"):
        Quiver(("1", "2"), (Arrow("a", 0, 5),))


def test_whitespace_and_comments_ignored():
    a = parse_algebra(
        "# header\n  field   2\nvertices   1   2\n arrow  a :  1 ->   2 # tail\n")
    assert a.dim == 3


def test_field_override():
    a = parse_algebra(A2_TEXT, field_override=7)
    assert a.field.p == 7


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(257)


def test_opposite_algebra_roundtrip():
    a = parse_algebra(A2_TEXT)
    op = a.op()
    assert op.dim == a.dim
    assert op.op() is a
    # the arrow is reversed
    assert op.quiver.arrows[0].source == a.quiver.arrows[0].target


def test_caps_enter_only_through_the_algebra():
    # every scan reads m.algebra.caps or u.algebra.caps; no other function
    # or method takes a caps parameter
    found = set()
    for info in pkgutil.iter_modules(torsionheart.__path__):
        mod = importlib.import_module(f"torsionheart.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{k}", v) for k, v in vars(obj).items()]
            for qualname, fn in members:
                fn = getattr(fn, "__func__", fn)
                if inspect.isfunction(fn) and \
                        "caps" in inspect.signature(fn).parameters:
                    found.add(f"{info.name}.{qualname}")
    assert found == {"algebra.parse_algebra", "algebra.BoundQuiverAlgebra.__init__"}
