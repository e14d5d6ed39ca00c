"""Bound quiver algebras over prime fields.

A path is stored as (source_vertex_index, tuple_of_arrow_indices) and paths
compose left to right: p * q means "traverse p, then q".  The quotient basis
of kQ/I is computed by truncating the path algebra at increasing lengths L
and echelonizing the ideal span {trunc_L(u * r * v)} until every path of the
top length dies, which certifies R^L <= I and hence admissibility within the
cap.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple

from . import linalg
from .config import DEFAULT_CAPS, ResourceCaps
from .exceptions import AdmissibilityError, QuiverParseError

Path = tuple[int, tuple[int, ...]]  # (source vertex index, arrow indices)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField(namedtuple("PrimeField", "p")):
    __slots__ = ()

    def __new__(cls, p: int):
        if not (2 <= p <= 251) or not _is_prime(p):
            raise ValueError(f"field order must be a prime in [2, 251], got {p}")
        return super().__new__(cls, p)


class Arrow(namedtuple("Arrow", "name source target")):
    __slots__ = ()


class Quiver(namedtuple("Quiver", "vertices arrows")):
    __slots__ = ()

    def __new__(cls, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]):
        if len(set(vertices)) != len(vertices):
            raise QuiverParseError("duplicate vertex labels")
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise QuiverParseError("duplicate arrow names")
        n = len(vertices)
        for a in arrows:
            if not (0 <= a.source < n and 0 <= a.target < n):
                raise QuiverParseError(f"arrow {a.name} has undeclared endpoint")
        return super().__new__(cls, vertices, arrows)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def reversed(self) -> "Quiver":
        return Quiver(
            self.vertices,
            tuple(Arrow(a.name, a.target, a.source) for a in self.arrows),
        )


def path_target(quiver: Quiver, path: Path) -> int:
    v, arrows = path
    for a in arrows:
        v = quiver.arrows[a].target
    return v


_MISSING = object()


def cached(owner, key, compute):
    """owner.memo[key], computed by compute() on first use; None is stored
    like any other value.

    Every memo entry lives on the object that defines its key: the algebra
    for Hom and Ext spaces, syzygies, presentations and injective
    envelopes, keyed by module keys, and for the projective P(v) of each
    vertex; the universe for what depends on its members, keyed by universe
    indices, bitsets or the keys of the modules it classifies.  The package
    only inserts entries: it never replaces or deletes one."""
    got = owner.memo.get(key, _MISSING)
    if got is _MISSING:
        got = owner.memo[key] = compute()
    return got


# a relation is a list of (coefficient, Path); all paths parallel, length >= 2
Relation = list[tuple[int, Path]]


class BoundQuiverAlgebra:
    """kQ/I with a computed finite path basis and the reduction of every
    path to it."""

    def __init__(self, quiver: Quiver, field: PrimeField, relations: list[Relation],
                 caps: ResourceCaps = DEFAULT_CAPS):
        self.quiver = quiver
        self.field = field
        self.relations = relations
        self.caps = caps
        self._validate_relations()
        self._build_basis()
        self.memo: dict = {}
        self._op: BoundQuiverAlgebra | None = None
        self.key = self._content_key()

    # -- construction --------------------------------------------------

    def _validate_relations(self):
        q = self.quiver
        for rel in self.relations:
            if not rel:
                raise QuiverParseError("empty relation")
            src = rel[0][1][0]
            tgt = path_target(q, rel[0][1])
            for _, path in rel:
                if len(path[1]) < 2:
                    raise AdmissibilityError(
                        "relation involves a path of length < 2; ideal not admissible"
                    )
                for a_prev, a_next in zip(path[1], path[1][1:]):
                    if q.arrows[a_prev].target != q.arrows[a_next].source:
                        raise QuiverParseError("relation path is not composable")
                if path[0] != src or path_target(q, path) != tgt:
                    raise QuiverParseError("relation terms are not parallel paths")

    def _paths_up_to(self, length: int) -> list[Path]:
        q = self.quiver
        out: list[Path] = [(v, ()) for v in range(q.n)]
        frontier = list(out)
        for _ in range(length):
            new: list[Path] = []
            for path in frontier:
                tgt = path_target(q, path)
                for ai, arrow in enumerate(q.arrows):
                    if arrow.source == tgt:
                        new.append((path[0], path[1] + (ai,)))
            out.extend(new)
            frontier = new
            if len(out) > self.caps.path_count_cap:
                raise AdmissibilityError(
                    f"more than {self.caps.path_count_cap} paths below the length cap; "
                    "ideal does not look admissible"
                )
            if not frontier:
                break
        return out

    def _ideal_rows(self, paths: list[Path], index: dict[Path, int], length: int):
        """Span of trunc_L(u * r * v) over all relations r and paths u, v."""
        q = self.quiver
        p = self.field.p
        rows = []
        by_target: dict[int, list[Path]] = {}
        by_source: dict[int, list[Path]] = {}
        for path in paths:
            by_target.setdefault(path_target(q, path), []).append(path)
            by_source.setdefault(path[0], []).append(path)
        for rel in self.relations:
            rel_src = rel[0][1][0]
            rel_tgt = path_target(q, rel[0][1])
            min_len = min(len(path[1]) for _, path in rel)
            for u in by_target.get(rel_src, []):
                if len(u[1]) + min_len > length:
                    continue
                for v in by_source.get(rel_tgt, []):
                    if len(u[1]) + min_len + len(v[1]) > length:
                        continue
                    vec = [0] * len(paths)
                    hit = False
                    for coeff, mid in rel:
                        total = (u[0], u[1] + mid[1] + v[1])
                        if len(total[1]) <= length:
                            vec[index[total]] = (vec[index[total]] + coeff) % p
                            hit = True
                    if hit and any(vec):
                        rows.append(tuple(vec))
        return tuple(rows)

    def _build_basis(self):
        p = self.field.p
        min_rel = 2
        start = max([min_rel] + [max(len(path[1]) for _, path in rel) for rel in self.relations]) \
            if self.relations else min_rel
        for length in range(start, self.caps.length_cap + 1):
            # columns in reversed-graded order, so that longer paths are
            # preferred as pivots and the surviving (non pivot) paths are the
            # shortest representatives
            paths = sorted(self._paths_up_to(length),
                           key=lambda path: (-len(path[1]), path))
            index = {path: i for i, path in enumerate(paths)}
            ideal = self._ideal_rows(paths, index, length)
            r, pivots = linalg.rref(ideal, p)
            r = r[: len(pivots)]
            units = linalg.eye(len(paths))
            # the top-length paths come first; there are none at all when the
            # quiver is acyclic at this depth
            dead_top = all(
                linalg.in_row_space(units[i], r, pivots, p)
                for i, path in enumerate(paths) if len(path[1]) == length
            )
            if dead_top:
                self._finalize(paths, r, pivots, length)
                return
        raise AdmissibilityError(
            f"path basis did not stabilize below length {self.caps.length_cap}"
        )

    def _finalize(self, paths, rref_rows, pivots, length):
        """Basis and path reductions from the echelonized ideal, whose
        columns are the paths in reversed-graded order."""
        p = self.field.p
        pivot_set = set(pivots)
        self.stabilized_length = length
        self.basis: tuple[Path, ...] = tuple(sorted(
            (path for i, path in enumerate(paths) if i not in pivot_set),
            key=lambda path: (len(path[1]), path)))
        self.basis_index = {path: i for i, path in enumerate(self.basis)}
        self._reduction: dict[Path, dict[int, int]] = {}
        # precompute the reduction of every enumerated path to basis coordinates
        units = linalg.eye(len(paths))
        for i, path in enumerate(paths):
            resid = linalg.reduce_against(units[i], rref_rows, pivots, p)
            self._reduction[path] = {self.basis_index[paths[k]]: c
                                     for k, c in enumerate(resid) if c}

    def _content_key(self) -> str:
        h = hashlib.sha1()
        h.update(str(self.field.p).encode())
        h.update("|".join(self.quiver.vertices).encode())
        for a in self.quiver.arrows:
            h.update(f"{a.name}:{a.source}->{a.target};".encode())
        for rel in self.relations:
            for coeff, path in rel:
                h.update(f"{coeff}*{path};".encode())
        return h.hexdigest()

    # -- queries --------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_paths_between(self, src: int, tgt: int) -> list[int]:
        return [
            i for i, path in enumerate(self.basis)
            if path[0] == src and path_target(self.quiver, path) == tgt
        ]

    def reduce_path(self, path: Path) -> dict[int, int]:
        """Basis coordinates of an arbitrary path (zero dict if it dies)."""
        if len(path[1]) >= self.stabilized_length:
            return {}
        got = self._reduction.get(path)
        if got is not None:
            return got
        raise ValueError(f"path {path} outside the enumerated range")

    def op(self) -> "BoundQuiverAlgebra":
        """Opposite algebra: reversed arrows and reversed relation paths."""
        if self._op is None:
            rev_relations = [
                [(coeff, self.reverse_path(path)) for coeff, path in rel]
                for rel in self.relations
            ]
            self._op = BoundQuiverAlgebra(
                self.quiver.reversed(), self.field, rev_relations, self.caps
            )
            self._op._op = self
        return self._op

    def reverse_path(self, path: Path) -> Path:
        src = path_target(self.quiver, path)
        return (src, tuple(reversed(path[1])))

    def __repr__(self):
        return (
            f"BoundQuiverAlgebra(F_{self.field.p}, {len(self.quiver.vertices)} vertices, "
            f"{len(self.quiver.arrows)} arrows, dim {self.dim})"
        )


def parse_algebra(text: str, caps: ResourceCaps = DEFAULT_CAPS,
                  field_override: int | None = None) -> BoundQuiverAlgebra:
    """Parse the quiver file grammar.

    Lines: `field p`, `vertices v1 v2 ...`, `arrow name: src -> tgt`,
    `relation +p1*p2 - q1*q2 ...`; `#` starts a comment, whitespace is free.
    """
    p_val: int | None = None
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    raw_relations: list[tuple[int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        head = head.lower()
        rest = rest.strip()
        if head == "field":
            try:
                p_val = int(rest)
            except ValueError:
                raise QuiverParseError(f"line {lineno}: bad field order {rest!r}")
        elif head == "vertices":
            vertices.extend(rest.split())
        elif head == "arrow":
            if ":" not in rest or "->" not in rest:
                raise QuiverParseError(f"line {lineno}: arrow syntax is `arrow a: v -> w`")
            name, _, ends = rest.partition(":")
            src, _, tgt = ends.partition("->")
            arrows.append((name.strip(), src.strip(), tgt.strip()))  # resolved below
        elif head == "relation":
            raw_relations.append((lineno, rest))
        else:
            raise QuiverParseError(f"line {lineno}: unknown directive {head!r}")

    if field_override is not None:
        p_val = field_override
    if p_val is None:
        raise QuiverParseError("missing `field` directive")
    if not vertices:
        raise QuiverParseError("missing `vertices` directive")
    try:
        fp = PrimeField(p_val)
    except ValueError as exc:
        raise QuiverParseError(str(exc)) from None

    vtuple = tuple(vertices)
    vindex = {v: i for i, v in enumerate(vtuple)}
    resolved = []
    for name, src, tgt in arrows:
        if src not in vindex or tgt not in vindex:
            raise QuiverParseError(f"arrow {name}: endpoint not declared")
        if not name:
            raise QuiverParseError("arrow with empty name")
        resolved.append(Arrow(name, vindex[src], vindex[tgt]))
    quiver = Quiver(vtuple, tuple(resolved))
    arrow_index = {a.name: i for i, a in enumerate(quiver.arrows)}

    relations: list[Relation] = []
    for lineno, body in raw_relations:
        rel: Relation = []
        for term in _split_signed_terms(body, lineno):
            sign, path_text = term
            names = [t.strip() for t in path_text.split("*") if t.strip()]
            if not names:
                raise QuiverParseError(f"line {lineno}: empty path in relation")
            idxs = []
            for nm in names:
                if nm not in arrow_index:
                    raise QuiverParseError(f"line {lineno}: unknown arrow {nm!r}")
                idxs.append(arrow_index[nm])
            src = quiver.arrows[idxs[0]].source
            path: Path = (src, tuple(idxs))
            rel.append((sign % fp.p, path))
        relations.append(rel)

    return BoundQuiverAlgebra(quiver, fp, relations, caps)


def _split_signed_terms(body: str, lineno: int) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    current = []
    sign = 1
    started = False
    for ch in body:
        if ch in "+-":
            if started and "".join(current).strip():
                out.append((sign, "".join(current).strip()))
                current = []
            sign = 1 if ch == "+" else -1
            started = True
        else:
            current.append(ch)
            started = True
    if "".join(current).strip():
        out.append((sign, "".join(current).strip()))
    if not out:
        raise QuiverParseError(f"line {lineno}: empty relation body")
    return out
