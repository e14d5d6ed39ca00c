"""Command-line front end.

Subcommands:
  indec  <file>   list the universe of indecomposables with hom/ext tables
  heart  <file>   analyse the cotilting pair of a torsion class (--gens)
  tors   <file>   the lattice of torsion classes with brick-labelled covers
  verify <file>   run every property suite; nonzero exit on any failure

Exit codes: 0 success, 1 parse error, usage error or not cotilting,
2 resource limit, 3 incomplete universe, 4 undetermined (a capped search found
neither a witness nor a certificate), 5 a verify suite failed, 6 internal
error (a broken internal invariant).
Output is deterministic: identical input and flags produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import parse_algebra
from .config import DEFAULT_CAPS, ResourceCaps
from .cotilting import cotilting_from_pair, dims_str, minimal_cotilting
from .exceptions import (
    AdmissibilityError, IncompleteUniverseError, NotCotiltingError,
    QuiverParseError, ResourceLimitError, UndeterminedError,
)
from .heart import classify_neg_isolated, heart_simples
from .krull import is_brick
from .torsion import is_hereditary, pair_from_torsion_class, torsion_closure
from .torslattice import enumerate_torsion_classes
from .universe import IndecUniverse, bit_indices, enumerate_indecomposables
from .verify import build_context, run_all_suites

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_RESOURCE = 2
EXIT_INCOMPLETE = 3
EXIT_UNDETERMINED = 4
EXIT_VERIFY_FAIL = 5
EXIT_INTERNAL = 6


def module_ref(u: IndecUniverse, m) -> dict:
    """JSON reference for a module: universe summands plus dimensions."""
    return {"dims": list(m.dims), "totalDim": m.total_dim,
            "summands": {str(i): c for i, c in sorted(u.summands(m).items())}}


def universe_json(u: IndecUniverse) -> list[dict]:
    return [
        {
            "index": i,
            "dims": list(m.dims),
            "totalDim": m.total_dim,
            "brick": is_brick(m),
        }
        for i, m in enumerate(u.indecs)
    ]


def algebra_json(algebra) -> dict:
    return {
        "field": algebra.field.p,
        "vertices": list(algebra.quiver.vertices),
        "arrows": [
            {"name": a.name,
             "source": algebra.quiver.vertices[a.source],
             "target": algebra.quiver.vertices[a.target]}
            for a in algebra.quiver.arrows
        ],
        "dimension": algebra.dim,
    }


def _build_universe(args):
    with open(args.path, encoding="utf-8") as fh:
        text = fh.read()
    algebra = parse_algebra(text, _caps_from_args(args),
                            field_override=args.field)
    n = algebra.quiver.n
    if args.dim_bound is not None:
        bound = tuple(_int_tokens(args.dim_bound, ",", "--dim-bound",
                                  "comma separated integers"))
        if len(bound) != n:
            raise QuiverParseError(
                f"--dim-bound {args.dim_bound} has {len(bound)} entries, "
                f"the quiver has {n} vertices")
        if min(bound) < 0:
            raise QuiverParseError(
                f"--dim-bound {args.dim_bound}: entries must be nonnegative")
    else:
        bound = (2,) * n
    universe = enumerate_indecomposables(algebra, bound)
    return algebra, universe


def _int_tokens(text: str, sep: str, what: str, expected: str) -> list[int]:
    try:
        return [int(x) for x in text.split(sep)]
    except ValueError:
        raise QuiverParseError(
            f"{what} {text!r}: expected {expected}") from None


def _caps_from_args(args) -> ResourceCaps:
    # indec and tors list no submodule, so they take no --cap-submodule-dim
    submodule_cap = getattr(args, "cap_submodule_dim",
                            DEFAULT_CAPS.submodule_dim_cap)
    for flag, value in (("--cap-ext-dim", args.cap_ext_dim),
                        ("--cap-submodule-dim", submodule_cap)):
        if value < 0:
            raise QuiverParseError(f"{flag} {value}: must be nonnegative")
    return DEFAULT_CAPS._replace(ext_dim_cap=args.cap_ext_dim,
                                 submodule_dim_cap=submodule_cap)


def _emit(payload: dict, fmt: str, text_lines: list[str]):
    if fmt == "json":
        import json
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- indec ---------------------------------------------------------------------


def cmd_indec(args) -> int:
    algebra, u = _build_universe(args)
    u.require_complete()
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "algebra": algebra_json(algebra),
        "universe": universe_json(u),
        "dimBound": list(u.dim_bound),
        "complete": u.complete,
        "homTable": u.hom_table,
        "extTable": u.ext_table,
    }
    lines = [
        f"algebra over F_{algebra.field.p}: dim {algebra.dim}, "
        f"{len(u.indecs)} indecomposables (complete universe)",
    ]
    for i, m in enumerate(u.indecs):
        lines.append(f"  M{i} dims {dims_str(m.dims)} "
                     f"brick={'yes' if is_brick(m) else 'no'}")
    lines.append("hom table (rows map to columns):")
    for row in u.hom_table:
        lines.append("  " + " ".join(str(x) for x in row))
    lines.append("ext table:")
    for row in u.ext_table:
        lines.append("  " + " ".join(str(x) for x in row))
    _emit(payload, args.format, lines)
    return EXIT_OK


# -- heart ---------------------------------------------------------------------


def _parse_generators(u: IndecUniverse, tokens: str) -> int:
    """Generators as universe indices or dot-separated dim vectors."""
    if not tokens:
        return 0
    bits = 0
    for token in tokens.split(","):
        token = token.strip()
        if not token:
            continue
        values = _int_tokens(token, ".", "generator",
                             "a universe index or a dot-separated dim vector")
        if "." in token:
            matches = [i for i, m in enumerate(u.indecs)
                       if m.dims == tuple(values)]
            if len(matches) != 1:
                raise QuiverParseError(
                    f"dim vector {token} matches {len(matches)} modules; "
                    "use an index instead")
            bits |= 1 << matches[0]
        else:
            idx = values[0]
            if not (0 <= idx < u.n):
                raise QuiverParseError(f"generator index {idx} out of range")
            bits |= 1 << idx
    return bits


def ses_json(u: IndecUniverse, ses) -> dict:
    return {
        "left": module_ref(u, ses.left),
        "middle": module_ref(u, ses.middle),
        "right": module_ref(u, ses.right),
    }


def heart_report(u: IndecUniverse, t_bits: int,
                 oracle: bool = False) -> tuple[dict, list[str]]:
    pair = pair_from_torsion_class(torsion_closure(t_bits, u), u)
    data = cotilting_from_pair(pair)
    criticals, specials = classify_neg_isolated(data)
    simples = [seq.simple for seq in criticals + specials]
    tilde = minimal_cotilting(
        data, [s.envelope for s in criticals + specials])
    pair_json = {
        "torsion": sorted(bit_indices(pair.torsion_bits)),
        "torsionFree": sorted(bit_indices(pair.torsion_free_bits)),
        "hereditary": is_hereditary(pair),
    }
    sequences = []
    for seq in criticals + specials:
        sequences.append({
            "kind": seq.kind,
            "simple": {"index": seq.simple.index,
                       "dims": list(seq.simple.module.dims),
                       "shifted": seq.simple.shifted},
            "envelope": module_ref(u, seq.envelope),
            "sequence": ses_json(u, seq.sequence),
        })
    crit_idx = {s.envelope_index for s in criticals}
    spec_idx = {s.envelope_index for s in specials}
    checks = [
        {"name": "envelopes-disjoint", "passed": not crit_idx & spec_idx},
        {"name": "envelopes-exhaust-C",
         "passed": crit_idx | spec_idx == set(bit_indices(data.add_c_bits))},
    ]
    if oracle:
        oracle_simples = sorted(
            (s.index, s.shifted) for s in heart_simples(pair, mode="oracle"))
        fast_simples = sorted((s.index, s.shifted) for s in simples)
        checks.append({"name": "fast-oracle-agreement",
                       "passed": oracle_simples == fast_simples})
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "torsionPair": pair_json,
        "cotilting": {
            "C": module_ref(u, data.cotilting),
            "C0": module_ref(u, data.c0),
            "C1": module_ref(u, data.c1),
            "tildeC": module_ref(u, tilde),
        },
        "heartSimples": [
            {"index": s.index, "dims": list(s.module.dims),
             "shifted": s.shifted, "kind": s.kind}
            for s in simples
        ],
        "sequences": sequences,
        "classification": {
            "critical": sorted(s.envelope_index for s in criticals),
            "special": sorted(s.envelope_index for s in specials),
        },
        "checks": checks,
    }
    lines = [
        f"torsion pair: T = {pair_json['torsion']}, "
        f"F = {pair_json['torsionFree']}"
        + (" (hereditary)" if pair_json["hereditary"] else ""),
        f"cotilting module C: summands {sorted(bit_indices(data.add_c_bits))}",
        f"C0 dims {dims_str(data.c0.dims)}, C1 dims {dims_str(data.c1.dims)}, "
        f"minimal cotilting dims {dims_str(tilde.dims)}",
        "heart simples:",
    ]
    for s in simples:
        shift = "[-1]" if s.shifted else ""
        lines.append(f"  M{s.index}{shift} dims {dims_str(s.module.dims)} "
                     f"({s.kind})")
    lines.append("sequences:")
    for entry in sequences:
        seq = entry["sequence"]
        lines.append(
            f"  {entry['kind']}: 0 -> {dims_str(seq['left']['dims'])} -> "
            f"{dims_str(seq['middle']['dims'])} -> "
            f"{dims_str(seq['right']['dims'])} -> 0")
    lines.append(
        f"critical envelopes: {payload['classification']['critical']}, "
        f"special envelopes: {payload['classification']['special']}")
    return payload, lines


def cmd_heart(args) -> int:
    algebra, u = _build_universe(args)
    u.require_complete()
    t_bits = _parse_generators(u, args.gens or "")
    payload, lines = heart_report(u, t_bits, oracle=args.oracle)
    payload["algebra"] = algebra_json(algebra)
    payload["universe"] = universe_json(u)
    _emit(payload, args.format, lines)
    return EXIT_OK


# -- tors ----------------------------------------------------------------------


def lattice_dot(u: IndecUniverse, lattice) -> str:
    lines = ["digraph tors {"]
    for i, bits in enumerate(lattice.classes):
        members = ",".join(f"M{j}" for j in bit_indices(bits)) or "0"
        lines.append(f'  T{i} [label="{members}"];')
    for cover in lattice.covers:
        label = dims_str(u.indecs[cover.label_index].dims)
        lines.append(
            f'  T{cover.upper} -> T{cover.lower} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_tors(args) -> int:
    algebra, u = _build_universe(args)
    u.require_complete()
    lattice = enumerate_torsion_classes(u)
    if args.format == "dot":
        print(lattice_dot(u, lattice))
        return EXIT_OK
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "algebra": algebra_json(algebra),
        "universe": universe_json(u),
        "lattice": {
            "classes": [sorted(bit_indices(b)) for b in lattice.classes],
            "covers": [
                {"upper": c.upper, "lower": c.lower, "label": c.label_index}
                for c in lattice.covers
            ],
        },
    }
    lines = [f"{lattice.n} torsion classes, {len(lattice.covers)} covers"]
    for i, bits in enumerate(lattice.classes):
        lines.append(f"  T{i}: {sorted(bit_indices(bits))}")
    for c in lattice.covers:
        lines.append(f"  T{c.upper} > T{c.lower} labelled M{c.label_index} "
                     f"{dims_str(u.indecs[c.label_index].dims)}")
    _emit(payload, args.format, lines)
    return EXIT_OK


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    _, u = _build_universe(args)
    if not u.complete:
        print(f"FAIL universe-completeness: {u.witness}")
        return EXIT_INCOMPLETE
    print(f"PASS universe-completeness: {len(u.indecs)} indecomposables closed")
    ctx = build_context(u)
    print(f"PASS cotilting-detection: {len(ctx.cotilting_pairs)} cotilting "
          f"pairs among {ctx.lattice.n} torsion classes")
    results = run_all_suites(ctx)
    failed = False
    for result in results:
        print(result.line())
        failed = failed or not result.passed
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


# -- entry point ------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heart-simples",
        description="Simple objects of cotilting hearts over bound quiver "
                    "algebras, with brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # (name, handler, --format choices); each flag only where it is read
    for name, fn, formats in [("indec", cmd_indec, ["text", "json"]),
                              ("heart", cmd_heart, ["text", "json"]),
                              ("tors", cmd_tors, ["text", "json", "dot"]),
                              ("verify", cmd_verify, None)]:
        p = sub.add_parser(name)
        p.add_argument("path", help="quiver file")
        p.add_argument("--field", type=int, default=None,
                       help="override the field order")
        p.add_argument("--dim-bound", default=None,
                       help="comma separated per-vertex bound (default 2,...)")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--cap-ext-dim", type=int,
                       default=DEFAULT_CAPS.ext_dim_cap,
                       help="largest Ext^1 dimension whose classes are "
                            "scanned one by one")
        if name in ("heart", "verify"):
            p.add_argument("--cap-submodule-dim", type=int,
                           default=DEFAULT_CAPS.submodule_dim_cap,
                           help="largest total dimension of a module whose "
                                "submodules are scanned")
        if name == "heart":
            p.add_argument("--gens", default="",
                           help="torsion class generators: universe indices "
                                "or dot-separated dim vectors, comma list")
            p.add_argument("--oracle", action="store_true",
                           help="run detection in literal oracle mode as well")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:    # --help exits 0, a usage error 2
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (QuiverParseError, AdmissibilityError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotCotiltingError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except IncompleteUniverseError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INCOMPLETE
    except UndeterminedError as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except AssertionError as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"internal error: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
