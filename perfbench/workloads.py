"""Benchmark workloads: a seeded quiver generator and label-free output checks.

A workload is one `heart-simples` command on one generated quiver file.  The
seed relabels the quiver: it permutes the vertex order and the arrow listing.
Seed 0 keeps the quiver as written.  Each check reads only invariants of the
algebra (counts, sums and histograms over iso classes), so it accepts the
output for every relabelling and rejects a wrong count for any of them.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# (vertices, arrows as (name, source, target)); D4 and A3 are the quivers of
# fixtures/d4.quiver and fixtures/a3.quiver, A5 is the linear quiver 1 -> ... -> 5.
D4 = (("1", "2", "3", "4"), (("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4")))
A3 = (("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
A5 = (("1", "2", "3", "4", "5"),
      (("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "5")))


class OutputError(ValueError):
    """The stdout of a run does not have the expected shape."""


def _match(pattern: str, line: str) -> re.Match:
    m = re.fullmatch(pattern, line)
    if m is None:
        raise OutputError(f"unexpected line {line!r}")
    return m


def verify_invariants(stdout: str) -> dict:
    """Status and the integers of each `verify` line, keyed by suite name."""
    out = {}
    for line in stdout.splitlines():
        m = _match(r"(PASS|FAIL) ([\w-]+): (.*)", line)
        if m[2] in out:
            raise OutputError(f"suite {m[2]} reported twice")
        out[m[2]] = (m[1], [int(x) for x in re.findall(r"\d+", m[3])])
    return out


def indec_invariants(stdout: str) -> dict:
    """Field, algebra dimension, indecomposable count, bricks, and the sums
    of the Hom and Ext tables."""
    lines = stdout.splitlines()
    if not lines:
        raise OutputError("empty output")
    head = _match(r"algebra over F_(\d+): dim (\d+), (\d+) indecomposables "
                  r"\(complete universe\)", lines[0])
    n = int(head[3])
    modules = [_match(r"  M\d+ dims \(([\d,]+)\) brick=(yes|no)", line)
               for line in lines[1:1 + n]]
    rest = lines[1 + n:]
    if len(rest) != 2 * n + 2 or rest[0] != "hom table (rows map to columns):" \
            or rest[n + 1] != "ext table:":
        raise OutputError("hom/ext tables malformed")

    def table_sum(rows):
        return sum(int(x) for row in rows for x in _match(r"  ([\d ]+)", row)[1].split())

    return {
        "field": int(head[1]),
        "dim": int(head[2]),
        "indecomposables": n,
        "total_dims": sorted(sum(map(int, m[1].split(","))) for m in modules),
        "bricks": sum(m[2] == "yes" for m in modules),
        "hom_sum": table_sum(rest[1:n + 1]),
        "ext_sum": table_sum(rest[n + 2:]),
    }


def tors_invariants(stdout: str) -> dict:
    """Class and cover counts, the number of indecomposables (the size of the
    largest class), and histograms of class sizes and label dimensions."""
    lines = stdout.splitlines()
    if not lines:
        raise OutputError("empty output")
    head = _match(r"(\d+) torsion classes, (\d+) covers", lines[0])
    sizes, labels = Counter(), Counter()
    for line in lines[1:]:
        if line.startswith("  T") and ":" in line:
            members = _match(r"  T\d+: \[([\d, ]*)\]", line)[1]
            sizes[len(members.split(",")) if members else 0] += 1
        else:
            dims = _match(r"  T\d+ > T\d+ labelled M\d+ \(([\d,]+)\)", line)[1]
            labels[sum(map(int, dims.split(",")))] += 1
    return {
        "classes": int(head[1]),
        "covers": int(head[2]),
        "class_lines": sum(sizes.values()),
        "cover_lines": sum(labels.values()),
        "indecomposables": max(sizes, default=0),
        "class_sizes": sorted(sizes.items()),
        "label_total_dims": sorted(labels.items()),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    quiver: tuple
    field: int
    command: str
    flags: tuple[str, ...]
    invariants: Callable[[str], dict]
    expected: dict


# Expected invariants.  The headline counts are known values: D4 has 12
# indecomposables and 50 torsion classes (its clusters), linear A5 has 15
# indecomposables and Catalan C_6 = 132 torsion classes.  The other counts
# were recorded from the program before any optimisation, on seed 0, and
# hold for every relabelling.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "verify-d4", D4, 2, "verify", (), verify_invariants, {
                "universe-completeness": ("PASS", [12]),
                "cotilting-detection": ("PASS", [20, 50]),
                "oracle-equivalence": ("PASS", [317, 20]),
                "brick-property": ("PASS", [80]),
                "dichotomy": ("PASS", [20]),
                "c0-c1-summands": ("PASS", [20]),
                "split-injectivity": ("PASS", [20]),
                "cogeneration-by-criticals": ("PASS", [164]),
                "hereditary-pullback": ("PASS", [12]),
                "brick-labels": ("PASS", [100, 20]),
                "minimal-cotilting": ("PASS", [20]),
            }),
        Workload(
            "indec-a3-f3", A3, 3, "indec", (), indec_invariants, {
                "field": 3, "dim": 6, "indecomposables": 6,
                "total_dims": [1, 1, 1, 2, 2, 3], "bricks": 6,
                "hom_sum": 15, "ext_sum": 5,
            }),
        Workload(
            "tors-a5", A5, 2, "tors", ("--dim-bound", "1,1,1,1,1"),
            tors_invariants, {
                "classes": 132, "covers": 330, "class_lines": 132,
                "cover_lines": 330, "indecomposables": 15,
                "class_sizes": [(0, 1), (1, 5), (2, 10), (3, 14), (4, 17), (5, 16),
                                (6, 16), (7, 14), (8, 11), (9, 9), (10, 7),
                                (11, 5), (12, 3), (13, 2), (14, 1), (15, 1)],
                "label_total_dims": [(1, 210), (2, 56), (3, 30), (4, 20), (5, 14)],
            }),
    )
}


def quiver_text(workload: Workload, seed: int) -> str:
    """The quiver file the program receives for this workload and seed."""
    vertices, arrows = workload.quiver
    if seed:
        rng = random.Random(seed)
        vertices = rng.sample(vertices, len(vertices))
        arrows = rng.sample(arrows, len(arrows))
    lines = [f"# {workload.name}, seed {seed}",
             f"field {workload.field}",
             "vertices " + " ".join(vertices)]
    lines += [f"arrow {name}: {src} -> {tgt}" for name, src, tgt in arrows]
    return "\n".join(lines) + "\n"


def cli_args(workload: Workload, quiver_path: str) -> list[str]:
    return [workload.command, quiver_path, *workload.flags]


def check(workload: Workload, returncode: int, stdout: str) -> str | None:
    """None when the run is correct, else the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}, expected 0"
    try:
        got = workload.invariants(stdout)
    except OutputError as exc:
        return str(exc)
    if got != workload.expected:
        wrong = sorted(k for k in got.keys() | workload.expected.keys()
                       if got.get(k) != workload.expected.get(k))
        return "wrong " + ", ".join(
            f"{k}: {got.get(k)} (expected {workload.expected.get(k)})" for k in wrong)
    return None
