"""Outside tracer: spans around calls into torsionheart's public functions.

`Tracer.install` wraps each function in TARGETS.  It rebinds the module
attribute, so module-internal calls through the module global are counted,
and every name that another torsionheart module bound with `from ... import`,
including entries of module-level lists such as `verify.ALL_SUITES`.

Each call records one span: the function, the span open when it started
(its parent), start and end, and a per-function tag (matrix size, Hom key,
mode or result size).  Spans are kept in flat arrays in memory and written
once, by `dump`, at the end of the run.  `layer_metrics` derives the
per-layer numbers from a span file: busy time counts each function's
outermost activations, self time subtracts the time of direct child spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

SUITES = (
    "suite_oracle_equivalence", "suite_brick_property", "suite_dichotomy",
    "suite_c0_c1_summands", "suite_split_injectivity", "suite_cogeneration",
    "suite_hereditary_pullback", "suite_brick_labels", "suite_minimal_cotilting",
)

# (module, attribute path, tag): the tag a span carries.
#   size      number of entries of the first (matrix) argument
#   pair      id of the (source key, target key) pair, for distinct counts
#   mode      0 for mode "fast", 1 for mode "oracle"
#   indecs    number of indecomposables in the returned universe
#   classes   number of classes in the returned lattice
#   returned  1 when the call returned, 0 when it raised
TARGETS = (
    ("linalg", "rref", "size"),
    ("homology", "hom_space", "pair"),
    ("homology", "ext1", "pair"),
    ("krull", "decompose", None),
    ("krull", "nontrivial_idempotent", None),
    ("krull", "is_isomorphic", None),
    ("krull", "is_indecomposable", None),
    ("universe", "IndecUniverse.summand_bitset", None),
    ("universe", "IndecUniverse.index_of", None),
    ("universe", "enumerate_indecomposables", "indecs"),
    ("universe", "completeness_check", None),
    ("torsion", "torsion_closure", None),
    ("torslattice", "enumerate_torsion_classes", "classes"),
    ("cotilting", "cotilting_from_pair", "returned"),
    ("heart", "heart_simples", "mode"),
    ("heart", "is_almost_torsion_free", "mode"),
    ("heart", "is_almost_torsion", "mode"),
    ("heart", "strong_las_uniqueness_scan", None),
    ("heart", "classify_neg_isolated", None),
    ("verify", "build_context", None),
    *(("verify", suite, None) for suite in SUITES),
    ("algebra", "parse_algebra", None),
)
IMPORTS = ("numpy", "sympy")
MAIN = "cli.main"
NAMES = tuple(f"{mod}.{path}" for mod, path, _ in TARGETS) \
    + tuple(f"import.{name}" for name in IMPORTS) + (MAIN,)
MODES = ("fast", "oracle")
SMALL_ENTRIES = 16

_BOTH = ("verify-d4", "indec-a3-f3")
_ALL = ("verify-d4", "indec-a3-f3", "tors-a5")
_D4 = ("verify-d4",)

# Per-layer metrics: (name, unit, better, end-to-end metric it should move,
# workloads where the move should show).
LAYER_METRICS = (
    ("linalg.rref.calls", "count", "lower", "wall_s", _ALL),
    ("linalg.rref.busy_s", "s", "lower", "wall_s", _ALL),
    ("linalg.rref.small_share", "ratio", "lower", "wall_s", _ALL),
    ("homology.hom_space.calls", "count", "lower", "wall_s peak_rss_mb", _BOTH),
    ("homology.hom_space.distinct", "count", "lower", "wall_s peak_rss_mb", _BOTH),
    ("homology.hom_space.busy_s", "s", "lower", "wall_s peak_rss_mb", _BOTH),
    ("homology.ext1.calls", "count", "lower", "wall_s", _D4),
    ("homology.ext1.distinct", "count", "lower", "wall_s", _D4),
    ("homology.ext1.busy_s", "s", "lower", "wall_s", _D4),
    *((f"krull.{fn}.{stat}", unit, "lower", "wall_s", _BOTH)
      for fn in ("decompose", "nontrivial_idempotent", "is_isomorphic",
                 "is_indecomposable")
      for stat, unit in (("calls", "count"), ("busy_s", "s"))),
    *((f"universe.IndecUniverse.{fn}.{stat}", unit, "lower", "wall_s", _D4)
      for fn in ("summand_bitset", "index_of")
      for stat, unit in (("calls", "count"), ("busy_s", "s"))),
    ("universe.enumerate_indecomposables.self_s", "s", "lower", "wall_s",
     ("indec-a3-f3",)),
    ("universe.scan.found_per_tried", "ratio", "higher", "wall_s",
     ("indec-a3-f3",)),
    ("universe.completeness_check.busy_s", "s", "lower", "wall_s", _ALL),
    ("torsion.torsion_closure.calls", "count", "lower", "wall_s", ("tors-a5",)),
    ("torsion.torsion_closure.busy_s", "s", "lower", "wall_s", ("tors-a5",)),
    ("torslattice.enumerate_torsion_classes.self_s", "s", "lower", "wall_s",
     ("tors-a5",)),
    ("torslattice.classes_per_closure", "ratio", "higher", "wall_s",
     ("tors-a5",)),
    ("cotilting.cotilting_from_pair.calls", "count", "lower", "wall_s", _D4),
    ("cotilting.cotilting_from_pair.busy_s", "s", "lower", "wall_s", _D4),
    ("cotilting.cotilting_from_pair.accepted_share", "ratio", "higher",
     "wall_s", _D4),
    # heart_simples runs in oracle mode only under `heart --oracle`, which no
    # workload runs (verify's oracles are the two is_almost_* functions), so
    # heart.heart_simples.oracle.busy_s is reported but stays 0.
    *((f"heart.{fn}.{mode}.busy_s", "s", "lower", "wall_s",
       () if (fn, mode) == ("heart_simples", "oracle") else _D4)
      for fn in ("heart_simples", "is_almost_torsion_free", "is_almost_torsion")
      for mode in MODES),
    ("heart.strong_las_uniqueness_scan.busy_s", "s", "lower", "wall_s", _D4),
    ("heart.classify_neg_isolated.busy_s", "s", "lower", "wall_s", _D4),
    ("verify.build_context.busy_s", "s", "lower", "wall_s", _D4),
    *((f"verify.{suite}.busy_s", "s", "lower", "wall_s", _D4) for suite in SUITES),
    ("algebra.parse_algebra.busy_s", "s", "lower", "setup_s", _ALL),
    ("import.numpy.busy_s", "s", "lower", "setup_s", _ALL),
    ("import.sympy.busy_s", "s", "lower", "setup_s", _ALL),
    ("trace.overhead_s", "s", "lower", "none: spans times the cost of one span", _ALL),
)


def _size_tagger(fn):
    def tag(args, kwargs):
        return getattr(args[0] if args else kwargs.get("a"), "size", 0)
    return tag


def _pair_tagger(fn):
    ids: dict[tuple[str, str], int] = {}

    def tag(args, kwargs):
        m, n = (args + tuple(kwargs.values()))[:2]
        return ids.setdefault((m.key, n.key), len(ids))
    return tag


def _mode_tagger(fn):
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index("mode")
    default = params[pos].default

    def tag(args, kwargs):
        mode = args[pos] if len(args) > pos else kwargs.get("mode", default)
        return MODES.index(mode)
    return tag


# Tags taken from the arguments before the call, and from the result after it.
BEFORE = {"size": _size_tagger, "pair": _pair_tagger, "mode": _mode_tagger}
AFTER = {"indecs": lambda out: len(out.indecs),
         "classes": lambda out: out.n,
         "returned": lambda out: 1}


class Tracer:
    def __init__(self):
        self.fids = array.array("H")
        self.parents = array.array("l")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.tags = array.array("q")
        self._stack = [-1]
        self.missing: list[str] = []

    def _open(self, fid: int, tag: int) -> int:
        i = len(self.fids)
        self.fids.append(fid)
        self.parents.append(self._stack[-1])
        self.tags.append(tag)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` (one of NAMES)."""
        i = self._open(NAMES.index(name), 0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def _wrap(self, fid: int, fn, kind):
        before = BEFORE[kind](fn) if kind in BEFORE else None
        after = AFTER.get(kind)
        tags, open_, close = self.tags, self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(fid, before(args, kwargs) if before else 0)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            if after:
                tags[i] = after(out)
            return out
        return traced

    def install(self):
        """Wrap every target; torsionheart.cli must already be imported."""
        package = [mod for name, mod in sys.modules.items()
                   if name == "torsionheart" or name.startswith("torsionheart.")]
        for fid, (mod_name, path, kind) in enumerate(TARGETS):
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(f"torsionheart.{mod_name}")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(NAMES[fid])
                continue
            wrapped = self._wrap(fid, fn, kind)
            setattr(owner, attr, wrapped)
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapped)
                    elif isinstance(value, list) and any(x is fn for x in value):
                        value[:] = [wrapped if x is fn else x for x in value]

    @staticmethod
    def span_cost() -> float:
        """Seconds a span adds to one call: a traced no-op against a plain
        one, each the best of five loops, in a scratch tracer so that this
        run's spans stay as they are.  Tags cost a little more."""
        calls = 20000

        def noop():
            return None

        def per_call(fn) -> float:
            best = float("inf")
            for _ in range(5):
                t = time.perf_counter()
                for _ in range(calls):
                    fn()
                best = min(best, time.perf_counter() - t)
            return best / calls
        return max(per_call(Tracer()._wrap(0, noop, None)) - per_call(noop), 0.0)

    def dump(self, path: str):
        header = {"names": NAMES, "spans": len(self.fids), "missing": self.missing}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fids, self.parents, self.starts, self.ends, self.tags):
                arr.tofile(fh)


def load(path: str):
    """(header, fids, parents, starts, ends, tags) from a span file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in "Hlddq":
            arr = array.array(code)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return (header, *arrays)


def layer_metrics(path: str) -> dict[str, float]:
    """Values of every LAYER_METRICS name except trace.overhead_s."""
    header, fids, parents, starts, ends, tags = load(path)
    names = header["names"]
    fid_of = {name: i for i, name in enumerate(names)}
    mode_fids = {fid_of[f"heart.{fn}"] for fn in
                 ("heart_simples", "is_almost_torsion_free", "is_almost_torsion")}

    def key(i: int) -> str:
        fid = fids[i]
        return f"{names[fid]}.{MODES[tags[i]]}" if fid in mode_fids else names[fid]

    rref, scan, lattice, indec, closure, pairs = (fid_of[n] for n in (
        "linalg.rref", "universe.enumerate_indecomposables",
        "torslattice.enumerate_torsion_classes", "krull.is_indecomposable",
        "torsion.torsion_closure", "cotilting.cotilting_from_pair"))
    distinct = {fid_of["homology.hom_space"]: set(), fid_of["homology.ext1"]: set()}

    n = len(fids)
    child_time = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child_time[parents[i]] += ends[i] - starts[i]
    calls, busy, self_s, active = Counter(), Counter(), Counter(), Counter()
    small = tried = closures = accepted = found = classes = 0
    stack: list[int] = []       # open spans, innermost last (spans are in start order)
    for i in range(n):
        while stack and stack[-1] != parents[i]:
            active[key(stack.pop())] -= 1
        fid, k = fids[i], key(i)
        dur = ends[i] - starts[i]
        calls[k] += 1
        if not active[k]:       # outermost activation of this function
            busy[k] += dur
        self_s[k] += dur - child_time[i]
        active[k] += 1
        stack.append(i)
        if fid == rref:
            small += tags[i] <= SMALL_ENTRIES
        elif fid in distinct:
            distinct[fid].add(tags[i])
        elif fid == indec and active[names[scan]]:
            tried += 1
        elif fid == closure and active[names[lattice]]:
            closures += 1
        elif fid == pairs:
            accepted += tags[i]
        elif fid == scan:
            found += tags[i]
        elif fid == lattice:
            classes += tags[i]

    out = {}
    for k in [name for i, name in enumerate(names) if i not in mode_fids] + [
            f"{names[i]}.{mode}" for i in mode_fids for mode in MODES]:
        out[f"{k}.calls"] = calls[k]
        out[f"{k}.busy_s"] = busy[k]
        out[f"{k}.self_s"] = self_s[k]
    for fid, seen in distinct.items():
        out[f"{names[fid]}.distinct"] = len(seen)
    out["linalg.rref.small_share"] = _share(small, calls[names[rref]])
    out["universe.scan.found_per_tried"] = _share(found, tried)
    out["torslattice.classes_per_closure"] = _share(classes, closures)
    out["cotilting.cotilting_from_pair.accepted_share"] = _share(
        accepted, calls[names[pairs]])
    return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0

