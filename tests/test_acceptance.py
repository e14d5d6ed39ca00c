"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria run at their stated tolerances (exact equality everywhere; runtime
budgets in seconds where given).  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

from torsionheart import cotilting as co
from torsionheart import heart as he
from torsionheart import torsion as to
from torsionheart.algebra import parse_algebra
from torsionheart.exceptions import NotCotiltingError
from torsionheart.universe import enumerate_indecomposables
from torsionheart.verify import (
    suite_brick_labels, suite_brick_property, suite_c0_c1_summands,
    suite_cogeneration, suite_dichotomy, suite_hereditary_pullback,
    suite_minimal_cotilting, suite_oracle_equivalence,
    suite_split_injectivity,
)

from conftest import A2_TEXT, module_by_dims
from oracles import literal_isomorphism

FIXTURES = Path(__file__).parent.parent / "fixtures"


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_a2_golden_suite():
    t0 = time.monotonic()
    algebra = parse_algebra(A2_TEXT)
    u = enumerate_indecomposables(algebra, (2, 2))
    assert len(u.indecs) == 3

    classes = set()
    for r in range(u.n + 1):
        for sub in combinations(range(u.n), r):
            classes.add(to.torsion_closure(sum(1 << i for i in sub), u))
    assert len(classes) == 5

    s1 = u.index_of(module_by_dims(u, (1, 0)))
    s2 = u.index_of(module_by_dims(u, (0, 1)))
    p1 = u.index_of(module_by_dims(u, (1, 1)))

    cotilting = {}
    for bits in sorted(classes):
        pair = to.pair_from_torsion_class(bits, u)
        try:
            cotilting[bits] = co.cotilting_from_pair(pair)
        except NotCotiltingError:
            pass
    assert set(cotilting) == {0, 1 << s1}

    data = cotilting[1 << s1]
    assert data.add_c_bits == (1 << s2) | (1 << p1)          # C = S2 + P1
    simples = he.heart_simples(data.pair)
    tagged = sorted((s.index, s.shifted) for s in simples)
    assert tagged == sorted([(p1, False), (s1, True)])       # {P1, S1[-1]}

    criticals, specials = he.classify_neg_isolated(data)
    assert [c.envelope_index for c in criticals] == [p1]     # E = {P1}
    assert [c.envelope_index for c in specials] == [s2]      # M = {S2}
    spec_seq = specials[0].sequence
    assert (spec_seq.left.dims, spec_seq.middle.dims, spec_seq.right.dims) \
        == ((0, 1), (1, 1), (1, 0))                          # 0->S2->P1->S1->0
    crit_seq = criticals[0].sequence
    assert (crit_seq.left.dims, crit_seq.middle.dims, crit_seq.right.dims) \
        == ((1, 1), (1, 1), (0, 0))                          # 0->P1->P1->0->0

    assert data.c0.dims == (2, 2)                            # C0 = P1 + P1
    assert u.summand_bitset(data.c0) == 1 << p1
    assert data.c1.dims == (0, 1)                            # C1 = S2
    tilde = co.minimal_cotilting(
        data, [c.envelope for c in criticals + specials])
    assert literal_isomorphism(tilde, data.cotilting) is not None  # tildeC = C

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"golden suite took {elapsed:.2f}s"
    report("criterion-01 a2-golden-suite", True, f"{elapsed:.2f}s")


def test_criterion_02_oracle_equivalence(a2_ctx, a3_ctx, d4_ctx):
    t0 = time.monotonic()
    for name, ctx in (("a2", a2_ctx), ("a3", a3_ctx), ("d4", d4_ctx)):
        result = suite_oracle_equivalence(ctx)
        report(f"criterion-02 oracle-equivalence[{name}]", result.passed,
               result.detail)
    elapsed = time.monotonic() - t0
    report("criterion-02 runtime", elapsed < 60.0, f"{elapsed:.1f}s < 60s")


def test_criterion_03_brick_property(a2_ctx, a3_ctx, d4_ctx):
    for name, ctx in (("a2", a2_ctx), ("a3", a3_ctx), ("d4", d4_ctx)):
        result = suite_brick_property(ctx)
        report(f"criterion-03 brick-property[{name}]", result.passed,
               result.detail)


def test_criterion_04_dichotomy(a2_ctx, a3_ctx, d4_ctx):
    for name, ctx in (("a2", a2_ctx), ("a3", a3_ctx), ("d4", d4_ctx)):
        result = suite_dichotomy(ctx)
        report(f"criterion-04 dichotomy[{name}]", result.passed, result.detail)


def test_criterion_05_c0_c1_summands(a2_ctx, a3_ctx, d4_ctx):
    for name, ctx in (("a2", a2_ctx), ("a3", a3_ctx), ("d4", d4_ctx)):
        result = suite_c0_c1_summands(ctx)
        report(f"criterion-05 c0-c1-summands[{name}]", result.passed,
               result.detail)


def test_criterion_06_split_injectivity(a2_ctx, a3_ctx, d4_ctx):
    for name, ctx in (("a2", a2_ctx), ("a3", a3_ctx), ("d4", d4_ctx)):
        result = suite_split_injectivity(ctx)
        report(f"criterion-06 split-injectivity[{name}]", result.passed,
               result.detail)


def test_criterion_07_cogeneration(a2_ctx, a3_ctx, d4_ctx):
    for name, ctx in (("a2", a2_ctx), ("a3", a3_ctx), ("d4", d4_ctx)):
        result = suite_cogeneration(ctx)
        report(f"criterion-07 cogeneration[{name}]", result.passed,
               result.detail)


def test_criterion_08_hereditary_pullback(a2_ctx, a3_ctx):
    t0 = time.monotonic()
    for name, ctx in (("a2", a2_ctx), ("a3", a3_ctx)):
        result = suite_hereditary_pullback(ctx)
        report(f"criterion-08 hereditary-pullback[{name}]", result.passed,
               result.detail)
    elapsed = time.monotonic() - t0
    report("criterion-08 runtime", elapsed < 30.0, f"{elapsed:.1f}s < 30s")


def test_criterion_09_brick_label_correspondence(a2_ctx, a3_ctx, d4_ctx):
    assert a3_ctx.lattice.n == 14
    report("criterion-09 a3-lattice-nodes", True, "14 torsion classes")
    for name, ctx in (("a2", a2_ctx), ("a3", a3_ctx), ("d4", d4_ctx)):
        result = suite_brick_labels(ctx)
        report(f"criterion-09 brick-labels[{name}]", result.passed,
               result.detail)


def test_criterion_10_determinism_and_budget():
    t0 = time.monotonic()
    outputs = {}
    for fixture in ("a2.quiver", "a3.quiver", "d4.quiver"):
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "torsionheart.cli", "verify",
                 str(FIXTURES / fixture)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            runs.append(proc.stdout)
        assert runs[0] == runs[1], f"verify output differs across runs ({fixture})"
        outputs[fixture] = runs[0]
    elapsed = time.monotonic() - t0
    report("criterion-10 determinism", True,
           "byte-identical verify output on all three fixtures")
    report("criterion-10 budget", elapsed < 300.0,
           f"two full verify runs in {elapsed:.0f}s < 300s")


def test_minimal_cotilting_suite(a2_ctx, a3_ctx, d4_ctx):
    # supporting check behind criterion 1's tildeC claim, on all fixtures
    for name, ctx in (("a2", a2_ctx), ("a3", a3_ctx), ("d4", d4_ctx)):
        result = suite_minimal_cotilting(ctx)
        report(f"supporting minimal-cotilting[{name}]", result.passed,
               result.detail)


def test_supporting_bound_square_full_verify():
    # beyond the three criteria fixtures: the whole pipeline on a bound
    # quiver algebra with a genuine relation (commutative square)
    proc = subprocess.run(
        [sys.executable, "-m", "torsionheart.cli", "verify",
         str(FIXTURES / "square.quiver"), "--dim-bound", "1,1,1,1"],
        capture_output=True, text=True,
    )
    report("supporting bound-square-verify", proc.returncode == 0,
           proc.stdout.splitlines()[1] if proc.returncode == 0 else proc.stdout)


def test_supporting_loop_algebra_full_verify():
    # self-injective non-hereditary case over F_3: one cotilting pair whose
    # heart is the module category again
    proc = subprocess.run(
        [sys.executable, "-m", "torsionheart.cli", "verify",
         str(FIXTURES / "loop.quiver")],
        capture_output=True, text=True,
    )
    report("supporting loop-verify", proc.returncode == 0,
           proc.stdout.splitlines()[1] if proc.returncode == 0 else proc.stdout)


def test_supporting_f3_pipeline():
    # the whole pipeline over an odd prime pins sign conventions everywhere
    from torsionheart.verify import build_context, run_all_suites
    alg = parse_algebra(A2_TEXT, field_override=3)
    u = enumerate_indecomposables(alg, (2, 2))
    assert sorted(m.dims for m in u.indecs) == [(0, 1), (1, 0), (1, 1)]
    ctx = build_context(u)
    assert len(ctx.cotilting_pairs) == 2
    for result in run_all_suites(ctx):
        report(f"supporting f3[{result.name}]", result.passed, result.detail)
