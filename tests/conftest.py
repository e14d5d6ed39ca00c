import sys
from functools import cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from torsionheart.algebra import parse_algebra
from torsionheart.modules import (
    injective_module, projective_module, simple_module,
)
from torsionheart.universe import enumerate_indecomposables
from torsionheart.verify import build_context

FIXTURES = Path(__file__).parent.parent / "fixtures"

A2_TEXT = (FIXTURES / "a2.quiver").read_text()
A3_TEXT = (FIXTURES / "a3.quiver").read_text()
D4_TEXT = (FIXTURES / "d4.quiver").read_text()


@pytest.fixture(scope="session")
def a2():
    return parse_algebra(A2_TEXT)


@pytest.fixture(scope="session")
def a2_universe(a2):
    return enumerate_indecomposables(a2, (2, 2))


@pytest.fixture(scope="session")
def a2_named(a2_universe):
    """Universe members of A2 by name."""
    by_dims = {m.dims: (i, m) for i, m in enumerate(a2_universe.indecs)}
    return {
        "S1": by_dims[(1, 0)], "S2": by_dims[(0, 1)], "P1": by_dims[(1, 1)],
    }


@pytest.fixture(scope="session")
def a3():
    return parse_algebra(A3_TEXT)


@pytest.fixture(scope="session")
def a3_universe(a3):
    return enumerate_indecomposables(a3, (2, 2, 2))


@pytest.fixture(scope="session")
def d4():
    return parse_algebra(D4_TEXT)


@pytest.fixture(scope="session")
def d4_universe(d4):
    return enumerate_indecomposables(d4, (2, 2, 2, 2))


@pytest.fixture(scope="session")
def a2_ctx(a2_universe):
    return build_context(a2_universe)


@pytest.fixture(scope="session")
def a3_ctx(a3_universe):
    return build_context(a3_universe)


@pytest.fixture(scope="session")
def d4_ctx(d4_universe):
    return build_context(d4_universe)


@cache
def universe_of(text: str, bound: tuple[int, ...]):
    """The universe of the algebra in a quiver text at a bound, built once
    per test run for the tests that share it."""
    return enumerate_indecomposables(parse_algebra(text), bound)


def standard_modules(algebra):
    """(simples, projectives, injectives), each indexed by vertex."""
    vertices = range(algebra.quiver.n)
    makers = (simple_module, projective_module, injective_module)
    return tuple([make(algebra, v) for v in vertices] for make in makers)


def module_by_dims(universe, dims):
    matches = [m for m in universe.indecs if m.dims == tuple(dims)]
    assert len(matches) == 1, f"expected a unique module of dims {dims}"
    return matches[0]
