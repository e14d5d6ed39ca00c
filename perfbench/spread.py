"""Run-to-run spread of the end-to-end metrics over seeds 1 to 10.

    python3 perfbench/spread.py [--out FILE]

Run from the repository root.  Calls perfbench/run.py once per seed and
workload of BENCHMARK.json, one at a time, interleaving the workloads within
each seed so that slow drift of the machine spreads over all of them.  For
every workload and end-to-end metric it prints the median, the quartiles and
the spread (Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.
It also makes one traced run per workload at the first seed.  With --out it
writes the summary, the environment of the runs and the per-layer metrics of
the traced runs as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = list(range(1, 11))


def main(argv=None) -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    names = [w["name"] for w in bench["workloads"]]

    def bench_run(w: str, seed: int, trace: int) -> dict:
        nonlocal env, failures
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(trace)]
        lines = subprocess.run(cmd, capture_output=True, text=True,
                               check=True).stdout.splitlines()
        env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
        result = json.loads(lines[-1])
        failures += result["failed"] + (not result["correct"])
        return result

    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in names}
    env, failures = None, 0
    for seed in SEEDS:
        for w in names:
            result = bench_run(w, seed, 0)
            for name, metric in result["metrics"].items():
                values[w][name].append(metric["value"])
            print(f"seed {seed} {w}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                flush=True)

    layers = {w: {k: v["value"] for k, v in bench_run(w, SEEDS[0], 1)["metrics"].items()}
              for w in names}
    summary = {"env": env, "seeds": SEEDS, "seconds": bench["run_seconds"],
               "failures": failures, "workloads": {}, "layers": layers}
    for w in names:
        summary["workloads"][w] = {}
        for m in bench["end_to_end"]:
            vals = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            row = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                   "bound": m["bound"], "values": vals}
            summary["workloads"][w][m["name"]] = row
            flag = "" if row["spread"] < m["bound"] / 3 else "  <-- above bound/3"
            print(f"{w:12} {m['name']:12} median {med:9.4f} {m['unit']:3} "
                  f"spread {row['spread']:.4f} (bound {m['bound']}){flag}")
    print(f"failures: {failures}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
