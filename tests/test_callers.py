"""No helper without a caller.

Every function and method defined in the package, apart from dunder methods,
must be referenced somewhere other than inside its own definition: in the
package, in scripts/, or as a target of the outside tracer
(perfbench/tracer.py's TARGETS, which wraps functions by name).  Checkers
that only the tests use live in tests/oracles.py, not in the package.
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
