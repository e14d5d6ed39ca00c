"""Benchmark for the heart-simples CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed generates the workload's quiver file;
each measured run is a fresh child process (perfbench/child.py) that imports
torsionheart from ./src and calls torsionheart.cli.main, one child at a time,
with BLAS/OpenMP threads pinned to 1.  A fresh process per run matters:
homology.py keeps module-global caches that a second in-process run would
find warm.  Every run's stdout is checked against the workload's invariants.
The first child of a run only imports torsionheart.cli and writes the
bytecode of every module it loads to a cache of the run's own, which the
other children read, so that no __pycache__ left in the tree counts.

--trace 0 repeats the workload and reports the medians of the end-to-end
metrics; setup_s is the time each child took to import torsionheart.cli,
with import-only children added when fewer than SETUP_SAMPLES ran.
--trace 1 repeats (untraced, traced) pairs, requires byte-identical stdout
within each pair, and reports the median per-layer metrics and the tracing
overhead, estimated by the traced child as its number of spans times the
cost of one span.  Both stop repeating when another repetition would end
more than S seconds after the run started, so a run takes about S seconds.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  fail_ratio is failed / attempted; a run fails on a wrong exit code,
a failed output check, a traced/untraced stdout mismatch or a timeout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9       # least number of import times behind setup_s
CHILD_TIMEOUT_S = 100     # keeps a run with one stuck child under three minutes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Runner:
    """Starts one child at a time in a scratch directory and collects results."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.count = 0
        # A fixed hash seed keeps the iteration order of string sets the same
        # in every run.  Bytecode lives under the run's own cache prefix, so no
        # __pycache__ in the tree is ever read: the warm child compiles every
        # module it imports into that prefix, and the measured children read
        # those fresh files and write none.
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
                        PYTHONPYCACHEPREFIX=os.path.join(work, "pycache"),
                        **{v: "1" for v in THREAD_VARS})
        # Children alternate between the CPUs, so that a run's samples do not
        # all share the load that other tenants put on one core.
        self.cpus = sorted(os.sched_getaffinity(0))

    def next_cpu(self) -> int:
        return self.cpus[self.count % len(self.cpus)]

    def warm(self) -> dict:
        """An import-only child that writes the bytecode the others read; it
        also brings the sources into the page cache."""
        env = {k: v for k, v in self.env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        return self.run(import_only=True, env=env)

    def run(self, cli_args=(), spans=False, import_only=False, cpu=None,
            env=None) -> dict:
        """The child's result dict, plus its stdout bytes and the spans path;
        `error` is set when the child did not finish normally."""
        cpu = self.next_cpu() if cpu is None else cpu
        self.count += 1
        base = os.path.join(self.work, f"child{self.count}")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), base + ".json",
               "--cpu", str(cpu)]
        if spans:
            cmd += ["--spans", base + ".spans"]
        if import_only:
            cmd.append("--import-only")
        cmd += ["--", *cli_args]
        with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
            try:
                proc = subprocess.run(cmd, stdout=out, stderr=err, cwd=self.root,
                                      env=env or self.env, timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return {"error": f"timeout after {CHILD_TIMEOUT_S} s"}
        if proc.returncode != 0 or not os.path.exists(base + ".json"):
            with open(base + ".err", encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            return {"error": f"child exited {proc.returncode}: {' '.join(tail)}"}
        with open(base + ".json", encoding="utf-8") as fh:
            result = json.load(fh)
        src = os.path.join(self.root, "src") + os.sep
        if not os.path.abspath(result["module"]).startswith(src):
            return {"error": f"imported torsionheart from {result['module']}"}
        with open(base + ".out", "rb") as fh:
            result["stdout"] = fh.read()
        result["spans"] = base + ".spans"
        return result


def checked(workload, result: dict) -> dict:
    if "error" not in result:
        reason = workloads.check(workload, result["returncode"],
                                 result["stdout"].decode("utf-8", "replace"))
        if reason:
            result["error"] = reason
    if "error" in result:
        print(f"run failed: {result['error']}", file=sys.stderr)
    return result


def repeat(step, start: float, seconds: float) -> list:
    """Call step() once, then again while another call is expected to end
    within `seconds` of `start`, so that a run keeps to its time budget."""
    results, took = [], []
    while True:
        t = time.perf_counter()
        results.append(step())
        took.append(time.perf_counter() - t)
        if time.perf_counter() + statistics.mean(took) > start + seconds:
            return results


def measure(runner: Runner, workload, cli_args, seconds: float):
    start = time.perf_counter()
    warm = runner.warm()
    runs = repeat(lambda: checked(workload, runner.run(cli_args)), start, seconds)
    extra = []
    while len(runs) + len(extra) < SETUP_SAMPLES:
        extra.append(runner.run(import_only=True))
    children = [warm, *runs, *extra]
    timed = [r for r in runs if "wall_s" in r]
    setup_ok = [r for r in runs + extra if "setup_s" in r]
    for name, group in (("wall_s", timed), ("setup_s", setup_ok)):
        print(f"{name} samples: " + " ".join(f"{r[name]:.4f}" for r in group))
    failed = sum("error" in r for r in children)
    metrics = {}
    if timed and setup_ok:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in timed), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in setup_ok), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
        }
    return len(children), failed, metrics


def trace_pair(runner: Runner, workload, cli_args):
    """(untraced, traced) runs on one CPU; the traced one fails unless its
    stdout is byte-identical to the untraced one."""
    cpu = runner.next_cpu()
    plain = checked(workload, runner.run(cli_args, cpu=cpu))
    traced = checked(workload, runner.run(cli_args, spans=True, cpu=cpu))
    if "error" not in plain and "error" not in traced \
            and traced["stdout"] != plain["stdout"]:
        traced["error"] = "traced stdout differs from untraced stdout"
        print(f"run failed: {traced['error']}", file=sys.stderr)
    return plain, traced


def trace(runner: Runner, workload, cli_args, seconds: float):
    start = time.perf_counter()
    warm = runner.warm()
    pairs = repeat(lambda: trace_pair(runner, workload, cli_args), start, seconds)
    samples = []
    for plain, traced in pairs:
        if "error" in plain or "error" in traced:
            continue
        if traced["missing"]:
            print(f"not traced (missing): {', '.join(traced['missing'])}",
                  file=sys.stderr)
        print(f"traced minus untraced wall_s: {traced['wall_s'] - plain['wall_s']:.4f}"
              f" (estimated overhead {traced['overhead_s']:.4f})")
        layer = tracer.layer_metrics(traced["spans"])
        layer["trace.overhead_s"] = traced["overhead_s"]
        samples.append(layer)
    failed = ("error" in warm) + sum(("error" in plain) + ("error" in traced)
                                     for plain, traced in pairs)
    metrics = {}
    if samples:
        metrics = {name: (statistics.median(s[name] for s in samples), unit)
                   for name, unit, *_ in tracer.LAYER_METRICS}
    return 1 + 2 * len(pairs), failed, metrics


def environment(root: str) -> dict:
    versions = {}
    for package in ("numpy", "sympy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **versions, "git_sha": git_sha(root)}


def git_sha(root: str):
    """HEAD of the checkout when it is a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "torsionheart", "cli.py")):
        print(f"perfbench: {root} has no src/torsionheart; run from the "
              "repository root", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        quiver = os.path.join(work, f"{workload.name}-{args.seed}.quiver")
        with open(quiver, "w", encoding="utf-8") as fh:
            fh.write(workloads.quiver_text(workload, args.seed))
        runner = Runner(root, work)
        cli_args = workloads.cli_args(workload, quiver)
        step = trace if args.trace else measure
        attempted, failed, metrics = step(runner, workload, cli_args, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)     # only when no other run is using it

    print("env " + json.dumps(environment(root), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed}: {attempted} runs, "
          f"{failed} failed, fail_ratio {failed / attempted:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
