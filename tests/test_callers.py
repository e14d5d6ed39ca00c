"""No helper without a caller.

Every function and method defined in the package, apart from dunder methods,
must be referenced somewhere other than inside its own definition: in the
package, in scripts/, or as a target of the outside tracer
(perfbench/tracer.py's TARGETS, which wraps functions by name).  Checkers
that only the tests use live in tests/oracles.py, not in the package.

Three more guards read the package the same way: every local a function
binds is read (names starting with `_` are exempt), every exhaustive scan and
candidate search goes through the one scan gate in homology.py, and only
krull and the universe's closure call `krull.decompose`, `is_isomorphic` and
`is_indecomposable`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "torsionheart"


def _names(node) -> Counter:
    """Names a syntax tree reads, as variables or as attributes."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _tracer_targets() -> set[str]:
    """Every dotted part of the strings in the tracer's TARGETS and SUITES."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("TARGETS", "SUITES")
                for t in node.targets):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    out.update(sub.value.split("."))
    return out


def test_every_function_has_a_caller():
    trees = [ast.parse(f.read_text()) for f in sorted(PACKAGE.glob("*.py"))]
    scripts = [ast.parse(f.read_text())
               for f in sorted((ROOT / "scripts").glob("*.py"))]
    refs = sum((_names(t) for t in trees + scripts), Counter())
    targets = _tracer_targets()
    callerless = []
    for path, tree in zip(sorted(PACKAGE.glob("*.py")), trees):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") or name in targets:
                continue
            if refs[name] - _names(node)[name] == 0:
                callerless.append(f"{path.name}:{node.lineno} {name}")
    assert callerless == []


def _bound_names(func) -> dict[str, int]:
    """Names a function binds by assignment, unpacking or a for target,
    outside its nested functions, with the line of the first binding."""
    out: dict[str, int] = {}

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target])
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                targets = [child.target]
            else:
                targets = []
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                        out.setdefault(sub.id, sub.lineno)
            visit(child)

    visit(func)
    return out


def test_every_local_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # reads in nested functions count: closures read their free names
            read = {sub.id for sub in ast.walk(node)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            for name, line in _bound_names(node).items():
                if not name.startswith("_") and name not in read:
                    unread.append(f"{path.name}:{line} {node.name}: {name}")
    assert unread == []


def _readers(names: set[str]) -> dict[str, set[tuple[str, ...]]]:
    """For each name, the places in the package that read it, as an
    attribute or a variable: the module, then the chain of functions around
    the read, outermost first.  linalg.py, which defines the vector scans,
    is left out."""
    out = {name: set() for name in names}

    class Visitor(ast.NodeVisitor):
        def __init__(self, module: str):
            self.stack = [module]

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Attribute(self, node):
            if node.attr in names:
                out[node.attr].add(tuple(self.stack))
            self.generic_visit(node)

        def visit_Name(self, node):
            if node.id in names and isinstance(node.ctx, ast.Load):
                out[node.id].add(tuple(self.stack))

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "linalg.py":
            Visitor(path.name).visit(ast.parse(path.read_text()))
    return out


def test_one_scan_gate():
    """Every exhaustive scan and every candidate search goes through
    homology's gate: the scan cap is read only in `scannable`, the random
    tries only in `candidates`, and the vector scans are called only in
    `scan`."""
    readers = _readers({"scan_count_cap", "random_tries", "vectors",
                        "nonzero_vectors"})
    assert {name: {place[-1] for place in places}
            for name, places in readers.items()} == {
        "scan_count_cap": {"scannable"},
        "random_tries": {"candidates"},
        "vectors": {"scan"},
        "nonzero_vectors": {"scan"},
    }


def test_decompose_only_in_the_closure():
    """Outside krull, only the closure of the universe decomposes a module
    or tests modules for isomorphism or indecomposability: once the universe
    is complete, members are read off Hom vectors."""
    readers = _readers({"decompose", "is_isomorphic", "is_indecomposable"})
    outside = {name: {place[:2] for place in places
                      if place[0] != "krull.py"}
               for name, places in readers.items()}
    closure = {("universe.py", "completeness_check")}
    assert outside["decompose"] == closure
    assert outside["is_isomorphic"] <= closure
    assert outside["is_indecomposable"] <= closure
