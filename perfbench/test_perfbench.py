"""Self-tests of the benchmark: generator, checks, tracer and BENCHMARK.json.

    python3 -m pytest perfbench        (from the repository root, ~1 minute)
"""

from __future__ import annotations

import array
import contextlib
import json
import os
import re
import shutil
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, check, quiver_text  # noqa: E402

A2 = os.path.join(ROOT, "fixtures", "a2.quiver")


@pytest.fixture(scope="module")
def runner():
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="test-", dir=os.path.join(HERE, "_work"))
    runner = run.Runner(ROOT, work)
    assert "error" not in runner.warm()
    yield runner
    shutil.rmtree(work)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(work))


def run_workload(runner, name: str, seed: int) -> dict:
    w = WORKLOADS[name]
    path = os.path.join(runner.work, f"{name}-{seed}.quiver")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(quiver_text(w, seed))
    result = runner.run(workloads.cli_args(w, path))
    assert "error" not in result, result["error"]
    return result


@pytest.fixture(scope="module")
def outputs(runner):
    """stdout of each workload at seed 0 and at a seed that relabels it."""
    return {(name, seed): run_workload(runner, name, seed)
            for name in WORKLOADS for seed in (0, 5)}


def test_generator_is_deterministic_and_only_relabels():
    for w in WORKLOADS.values():
        vertices, arrows = w.quiver
        for seed in range(6):
            text = quiver_text(w, seed)
            assert text == quiver_text(w, seed)
            lines = text.splitlines()
            assert lines[1] == f"field {w.field}"
            assert sorted(lines[2].split()[1:]) == sorted(vertices)
            assert sorted(lines[3:]) == sorted(f"arrow {n}: {s} -> {t}"
                                               for n, s, t in arrows)
        assert len({quiver_text(w, seed).split("\n", 1)[1] for seed in range(6)}) > 1


def test_seed_zero_is_the_fixture():
    for name, fixture in (("verify-d4", "d4"), ("indec-a3-f3", "a3")):
        with open(os.path.join(ROOT, "fixtures", f"{fixture}.quiver"), encoding="utf-8") as fh:
            want = [x for x in fh.read().splitlines()
                    if x.startswith(("vertices", "arrow"))]
        got = quiver_text(WORKLOADS[name], 0).splitlines()[2:]
        assert got == want


def test_relabelling_keeps_the_invariants(outputs):
    for name, w in WORKLOADS.items():
        assert quiver_text(w, 5) != quiver_text(w, 0)
        for seed in (0, 5):
            result = outputs[name, seed]
            assert check(w, result["returncode"], result["stdout"].decode()) is None
        assert w.invariants(outputs[name, 0]["stdout"].decode()) == \
            w.invariants(outputs[name, 5]["stdout"].decode())


def corruptions(stdout: str):
    """Copies of stdout with one number changed, one line dropped, one line
    duplicated, or a FAIL status."""
    lines = stdout.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if re.search(r"\d", line):
            yield "".join(lines[:i] + [re.sub(r"\d+", lambda m: str(int(m[0]) + 1),
                                              line, count=1)] + lines[i + 1:])
            break
    yield "".join(lines[:-1])
    yield "".join(lines[:1] + lines[1:2] * 2 + lines[2:])
    yield stdout.replace("PASS", "FAIL", 1)
    yield ""


def test_checker_rejects_corrupted_stdout_and_wrong_exit_code(outputs):
    for name, w in WORKLOADS.items():
        good = outputs[name, 0]["stdout"].decode()
        assert check(w, 0, good) is None
        for bad in corruptions(good):
            if bad != good:
                assert check(w, 0, bad) is not None, bad
        for code in (1, 2, 3):
            assert check(w, code, good) is not None


def test_tracer_is_transparent(runner):
    for command in ("verify", "tors", "indec"):
        plain = runner.run([command, A2])
        traced = runner.run([command, A2], spans=True)
        assert "error" not in plain and "error" not in traced
        assert plain["returncode"] == traced["returncode"] == 0
        assert plain["stdout"] == traced["stdout"]
        assert traced["missing"] == []
        assert traced["overhead_s"] > 0
    values = tracer.layer_metrics(traced["spans"])
    for name, *_ in tracer.LAYER_METRICS:
        assert name == "trace.overhead_s" or name in values


def test_layer_metrics_from_nested_spans(runner):
    """decompose [0, 10] > decompose [2, 6] > rref [3, 4] on a 4x4 matrix,
    then rref [11, 13] on a 5x5 matrix at the top level."""
    t = tracer.Tracer()
    dec, rref = (tracer.NAMES.index(n) for n in ("krull.decompose", "linalg.rref"))
    t.fids.extend([dec, dec, rref, rref])
    t.parents.extend([-1, 0, 1, -1])
    t.starts.extend([0.0, 2.0, 3.0, 11.0])
    t.ends.extend([10.0, 6.0, 4.0, 13.0])
    t.tags.extend([0, 0, 16, 25])
    path = os.path.join(runner.work, "synthetic.spans")
    t.dump(path)
    values = tracer.layer_metrics(path)
    assert values["krull.decompose.calls"] == 2
    assert values["krull.decompose.busy_s"] == 10.0       # outermost only
    assert values["krull.decompose.self_s"] == 6.0 + 3.0
    assert values["linalg.rref.calls"] == 2
    assert values["linalg.rref.busy_s"] == 3.0
    assert values["linalg.rref.small_share"] == 0.5


def test_span_file_round_trip(runner):
    t = tracer.Tracer()
    t.span("import.numpy", lambda: None)
    path = os.path.join(runner.work, "synthetic.spans")
    t.dump(path)
    header, fids, parents, starts, ends, tags = tracer.load(path)
    assert header["names"] == list(tracer.NAMES)
    assert list(fids) == [tracer.NAMES.index("import.numpy")]
    assert list(parents) == [-1] and ends[0] >= starts[0]
    assert isinstance(fids, array.array)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b}
                                  for n, u, b, *_ in tracer.LAYER_METRICS]
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
