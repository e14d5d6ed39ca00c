"""No helper without a caller.

Every function and method defined in the package, apart from dunder methods,
must be referenced somewhere other than inside its own definition: in the
package, in scripts/, or as a target of the outside tracer
(perfbench/tracer.py's TARGETS, which wraps functions by name).  Checkers
that only the tests use live in tests/oracles.py, not in the package.

More guards read the package the same way: every local a function binds is
read (names starting with `_` are exempt), every exhaustive scan and
candidate search goes through the one scan gate in homology.py, only krull
and the universe's closure call `krull.decompose`, `is_isomorphic` and
`is_indecomposable`, the closure reads no map between members, only krull
searches for idempotents, only its idempotent search tries candidates
(isomorphism of indecomposables reads the Hom basis), every cache goes
through `algebra.cached`, perpendicular classes are read through
`IndecUniverse.perp`, the lattice reads no heart, takes no torsion
closure and has no gate, injective envelopes and socle quotients are built
as duals, not on socles, only the oracles list submodules or quotients,
direct sums are laid out once, by placing blocks, factoring through a map
is one row space with no constrained solver, the presentation builds
no cover of its own, the closure reads projective and injective members off
its seeds, the Ext table is read off Hom dimensions, no package code
realizes every class of an Ext^1 space, one body builds every Ext middle,
modules are cut out of maps by `kernel` and `cokernel`, every parameter
is read, and no module imports `dataclasses` or `typing`.  A read of a name counts
as a call only when the reading function binds no local of that name.
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


def _outside_reads(tree) -> Counter:
    """Names a syntax tree reads, as variables or as attributes, leaving out
    each read of a variable that the reading function, or a function around
    it, binds itself as a parameter or a local: such a read is of the local,
    not of a package function of that name."""
    out = Counter()

    def visit(node, bound):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            bound = bound | set(_bound_names(node)) | {
                a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id not in bound:
                out[child.id] += 1
            elif isinstance(child, ast.Attribute):
                out[child.attr] += 1
            visit(child, bound)

    visit(tree, frozenset())
    return out


def test_every_function_has_a_caller():
    trees = [ast.parse(f.read_text()) for f in sorted(PACKAGE.glob("*.py"))]
    scripts = [ast.parse(f.read_text())
               for f in sorted((ROOT / "scripts").glob("*.py"))]
    refs = sum((_outside_reads(t) for t in trees + scripts), Counter())
    targets = _tracer_targets()
    callerless = []
    for path, tree in zip(sorted(PACKAGE.glob("*.py")), trees):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") or name in targets:
                continue
            if refs[name] - _outside_reads(node)[name] == 0:
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


def test_every_parameter_is_read():
    """Every parameter of a package function or lambda is read in its body
    (`self`, `cls` and names starting with `_` are exempt)."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            read = {sub.id for sub in ast.walk(node)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if (arg is None or arg.arg in ("self", "cls")
                        or arg.arg.startswith("_") or arg.arg in read):
                    continue
                unread.append(f"{path.name}:{node.lineno} "
                              f"{getattr(node, 'name', 'lambda')}: {arg.arg}")
    assert unread == []


def _places(tree, module: str, match) -> set[tuple[str, ...]]:
    """The places in a syntax tree, as the module and the chain of functions
    around them, of every node for which match(node) holds."""
    out = set()

    def visit(node, stack):
        if match(node):
            out.add(stack)
        for child in ast.iter_child_nodes(node):
            visit(child, stack + (child.name,) if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else stack)

    visit(tree, (module,))
    return out


def _readers(names: set[str]) -> dict[str, set[tuple[str, ...]]]:
    """For each name, the places in the package that read it, as an
    attribute or a variable.  linalg.py, which defines the vector scans, is
    left out."""
    def reads(name):
        return lambda node: (
            isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Name) and node.id == name
            and isinstance(node.ctx, ast.Load))

    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "linalg.py"}
    return {name: set().union(*(_places(tree, module, reads(name))
                                for module, tree in trees.items()))
            for name in names}


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


def _callers(name: str) -> set[tuple[str, ...]]:
    """The places in the package that call a function of the given name,
    by its name or as an attribute."""
    def calls(node):
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == name
            or isinstance(node.func, ast.Attribute) and node.func.attr == name)

    return set().union(*(_places(ast.parse(path.read_text()), path.name, calls)
                         for path in sorted(PACKAGE.glob("*.py"))))


def test_isomorphism_reads_the_basis_alone():
    """Isomorphism of indecomposables needs no search: `candidates` is
    called in the package only by krull's idempotent search, and
    `krull.isomorphism` reads neither `candidates` nor `scannable` and
    raises nothing."""
    assert _callers("candidates") == {("krull.py", "nontrivial_idempotent")}
    readers = _readers({"candidates", "scannable"})
    isomorphism = ("krull.py", "isomorphism")
    assert not any(place[:2] == isomorphism
                   for places in readers.values() for place in places)
    raises = _places(ast.parse((PACKAGE / "krull.py").read_text()), "krull.py",
                     lambda node: isinstance(node, ast.Raise))
    assert not any(place[:2] == isomorphism for place in raises)


def test_closure_reads_no_map():
    """The closure certifies the universe from AR translates and Ext
    middles alone: `completeness_check` reads no element of a Hom space and
    takes no kernel, image or cokernel, and the package defines no image of
    a map (it lives in the oracles)."""
    readers = _readers({"elements", "kernel", "image", "cokernel"})
    closure = ("universe.py", "completeness_check")
    assert not any(place[:2] == closure
                   for places in readers.values() for place in places)
    assert not any(
        isinstance(node, ast.FunctionDef) and node.name == "image"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text())))


def test_idempotents_only_in_krull():
    """Only krull searches for and splits idempotents: approximations are
    minimal as assembled, so no idempotent search grows back on their
    path."""
    readers = _readers({"nontrivial_idempotent", "split_idempotent"})
    assert {name: {place[0] for place in places}
            for name, places in readers.items()} == {
        "nontrivial_idempotent": {"krull.py"},
        "split_idempotent": {"krull.py"},
    }


def _is_memo(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "memo"
            or isinstance(node, ast.Attribute) and node.attr == "memo")


def _writes_memo(node) -> bool:
    """A store or delete of memo[...], or a call of a mutating method of a
    memo dict."""
    if isinstance(node, ast.Subscript):
        return (isinstance(node.ctx, (ast.Store, ast.Del))
                and _is_memo(node.value))
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("setdefault", "update", "pop", "popitem",
                                   "clear", "__setitem__")
            and _is_memo(node.func.value))


def _names_functools_cache(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in ("cache", "lru_cache")
            or isinstance(node, ast.Attribute)
            and node.attr in ("cache", "lru_cache"))


def test_one_way_to_cache():
    """Every memo entry is written by `algebra.cached`, apart from the
    entries the closure leaves for the universe it builds; functools caches
    only the constant matrices of linalg."""
    writes, functools_caches = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        writes |= {place[:2] for place in _places(tree, path.name,
                                                   _writes_memo)}
        functools_caches |= _places(tree, path.name, _names_functools_cache)
    assert writes == {("algebra.py", "cached"),
                      ("universe.py", "completeness_check")}
    assert functools_caches <= {("linalg.py", "zeros"), ("linalg.py", "eye")}


def test_one_reader_of_perpendicular_classes():
    """Outside the universe, the Hom and Ext tables are read only by the
    `indec` report, the Hom(T, F) = 0 safety check of a torsion pair and
    the witness of a torsion-free class without Ext-injectives: every
    perpendicular class is read through `IndecUniverse.perp`."""
    readers = _readers({"hom_table", "ext_table"})
    assert {place[:2] for places in readers.values() for place in places
            if place[0] != "universe.py"} == {
        ("cli.py", "cmd_indec"), ("torsion.py", "_validate_pair"),
        ("cotilting.py", "cotilting_from_pair")}


def test_injective_side_is_the_dual():
    """The injective envelope is the dual of a projective cover, and the
    quotients by simple submodules are the duals of maximal submodules: no
    package code reads the socle (`socle_rows` lives in the oracles) or
    extends a map off it with the solver for constrained intertwiners
    (`constrained_morphism` lives there too)."""
    readers = _readers({"socle_rows", "constrained_morphism"})
    assert readers == {"socle_rows": set(), "constrained_morphism": set()}


def test_factoring_is_one_row_space():
    """Factoring through a map is read as one row space, the composites
    with a Hom basis: the package defines no constrained-intertwiner solver
    and no factorization or retraction by it (they live in the oracles)."""
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert defined.isdisjoint({"_affine_solve", "constrained_morphism",
                               "factor_through", "has_retraction"})


def test_submodule_scans_only_in_the_oracles():
    """Closure under quotients is read off the Hom table and closure under
    submodules off member Hom spaces (Cogen of each member): outside the
    universe, the literal
    submodule and quotient scans are read only by the oracle mode of the
    ATF/AT detection and by the essentiality oracle."""
    readers = _readers({"all_submodules", "all_quotients"})
    assert {place[:2] for places in readers.values() for place in places
            if place[0] != "universe.py"} == {
        ("heart.py", "_is_almost"), ("heart.py", "essentiality_check")}


def test_modules_are_cut_by_kernel_and_cokernel():
    """A module, or the meet of a submodule with an image, is cut out of a
    map by `kernel` or `cokernel`: outside modules.py the package builds a
    submodule from rows only in the universe's submodule listings and a
    quotient by rows nowhere, and it defines no pullback (one along a mono
    is a preimage) and no intersection of row spaces (they live in the
    oracles)."""
    readers = _readers({"submodule_from_rows", "quotient_by_rows"})
    outside = {name: {place[:2] for place in places
                      if place[0] != "modules.py"}
               for name, places in readers.items()}
    assert outside == {
        "submodule_from_rows": {("universe.py", "all_submodules"),
                                ("universe.py", "maximal_submodules")},
        "quotient_by_rows": set()}
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert defined.isdisjoint({"pullback", "intersect_row_spaces"})


def test_lattice_reads_no_heart():
    """The lattice labels its covers off the Hom table: torslattice imports
    nothing from the heart, cotilting or verify layers."""
    tree = ast.parse((PACKAGE / "torslattice.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert imported.isdisjoint({"heart", "cotilting", "verify"})


def test_lattice_takes_no_closure():
    """The lattice is read from semibricks off the Hom table: torslattice
    reads no `torsion_closure`, and the Filt(Fac) fixpoint, its Ext^1
    partner lists and the Fac table live in the oracles, so the package
    defines no `_close`, `ext_partners` or `fac_bits` and nothing reads a
    `fac` flag."""
    readers = _readers({"torsion_closure", "fac"})
    assert not any(place[0] == "torslattice.py"
                   for place in readers["torsion_closure"])
    assert readers["fac"] == set()
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert defined.isdisjoint({"_close", "ext_partners", "fac_bits",
                               "_cover_label"})


def test_no_lattice_gate():
    """The lattice has no member-count gate: nothing in the package, the
    scripts or the tests reads `lattice_indec_cap`."""
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "tests").glob("*.py")]
    assert not any(_names(ast.parse(f.read_text()))["lattice_indec_cap"]
                   for f in files)


def test_one_layout_of_sums():
    """Sums and maps between them are placed blocks, and a map out of a
    projective is built from the image of its generator: no package code
    indexes or unpacks what `direct_sum` returns, `zero_morphism` is read
    only by `krull.isomorphism`, outside modules.py only `hom_dims_into`
    moves elements along paths, and the left multiplication, the path
    coordinates and the basis multiplication table are gone."""
    def is_sum(node):
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "direct_sum"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == "direct_sum")

    def takes_apart(node):
        return (isinstance(node, ast.Subscript) and is_sum(node.value)
                or isinstance(node, ast.Assign) and is_sum(node.value)
                and isinstance(node.targets[0], (ast.Tuple, ast.List)))

    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert set().union(*(_places(tree, module, takes_apart)
                         for module, tree in trees.items())) == set()
    readers = _readers({"zero_morphism", "path_matrix"})
    assert {place[:2] for place in readers["zero_morphism"]} == {
        ("krull.py", "isomorphism")}
    assert {place[:2] for place in readers["path_matrix"]
            if place[0] != "modules.py"} == {("homology.py", "hom_dims_into")}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert defined.isdisjoint({"_left_mult_morphism", "_path_coordinates",
                               "multiply_basis", "path_concat"})


def test_each_closure_step_once():
    """The presentation reads the cached syzygy and its top lifts:
    `homology._presentation` calls neither `projective_cover` nor `kernel`.
    The closure realizes one Ext class per line, so no package code reads
    a scan that realizes every class (`nonsplit_classes` lives in the
    oracles)."""
    readers = _readers({"projective_cover", "kernel", "nonsplit_classes"})
    presentation = ("homology.py", "_presentation")
    assert not any(place[:2] == presentation
                   for name in ("projective_cover", "kernel")
                   for place in readers[name])
    assert readers["nonsplit_classes"] == set()


def test_closure_reads_ends_off_the_seeds():
    """A member is projective (injective) iff it is the member of a P(v)
    (I(v)) seed that fits the bound: `completeness_check` reads neither
    `is_projective` nor `is_injective`."""
    readers = _readers({"is_projective", "is_injective"})
    closure = ("universe.py", "completeness_check")
    assert not any(place[:2] == closure
                   for places in readers.values() for place in places)


def test_ext_table_reads_hom_dimensions():
    """The Ext table is read off the long exact Hom sequence of each
    member's syzygy: `IndecUniverse.ext_table` builds no Ext^1 space."""
    assert not any(place[:2] == ("universe.py", "ext_table")
                   for place in _readers({"ext1"})["ext1"])


def test_one_body_builds_ext_middles():
    """Every Ext middle is built by `homology.ext_middle`, a class between
    two members being its case of one block: it is the only package caller
    of `pushout`, and the realized sequence with its solved surjection
    (`realize`, `solve_right`) and the matrix inverse live in the
    oracles."""
    assert _callers("pushout") == {("homology.py", "ext_middle")}
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert defined.isdisjoint({"realize", "solve_right", "inverse"})


def test_no_dataclasses_or_typing():
    """Records are namedtuples and annotations stay strings, so no package
    module imports `dataclasses` or `typing`: at import, each takes
    milliseconds that no run needs (`dataclasses` brings `inspect`, `ast`,
    `dis` and `tokenize`)."""
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name.split(".")[0])
                             for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module.split(".")[0]))
    assert {place for place in imported
            if place[1] in ("dataclasses", "typing")} == set()
