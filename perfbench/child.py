"""One measured run of heart-simples, in a fresh process.

    python3 child.py RESULT [--spans FILE] [--import-only] [--cpu N] -- CLI_ARGS...

Stdout belongs to the CLI.  The measurements go to RESULT as JSON: the time
to import torsionheart.cli, the wall time of cli.main, its exit code, the
peak RSS of this process and the file the package was imported from.  With
--spans the run is traced, the spans are written to FILE at the end and
RESULT also holds the estimated tracing overhead;
with --cpu the process runs on that CPU only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("--spans")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--cpu", type=int)
    split = sys.argv.index("--")
    args = parser.parse_args(sys.argv[1:split])
    cli_args = sys.argv[split + 1:]
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = None
    start = time.perf_counter()
    if args.spans:
        import importlib

        from tracer import IMPORTS, MAIN, Tracer
        tracer = Tracer()
        for name in IMPORTS:
            tracer.span(f"import.{name}", importlib.import_module, name)
    import torsionheart.cli as cli
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "module": cli.__file__}
    if not args.import_only:
        if tracer:
            tracer.install()
            start = time.perf_counter()
            code = tracer.span(MAIN, cli.main, cli_args)
        else:
            start = time.perf_counter()
            code = cli.main(cli_args)
        result["wall_s"] = time.perf_counter() - start
        result["returncode"] = code
        sys.stdout.flush()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.dump(args.spans)
        result["missing"] = tracer.missing
        result["overhead_s"] = len(tracer.fids) * tracer.span_cost()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
