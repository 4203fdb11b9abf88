"""One workload process: import flowbox from the checkout, call main once.

    python3 perfbench/child.py --result R.json [--setup-only]
        [--trace T.json --probe P.json] -- <flowbox argv>

Writes R.json with the monotonic time at which main was entered (the parent
knows when it started the process, so the difference is the set-up time),
main's wall time, its exit code and the peak resident set.  With --trace the
call runs under the tracer and T.json receives the spans, the counters and
the layer probes; --setup-only stops before main.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--probe")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.cli_argv[:1] == ["--"]:
        args.cli_argv = args.cli_argv[1:]
    return args


def run(argv) -> int:
    args = _args(argv)
    from flowbox.cli import main

    if args.trace:
        sys.path.insert(0, str(HERE))
        from probes import run_probe
        from tracer import Tracer

        tracer = Tracer()
        entered = time.monotonic()
        rc = tracer.run_main(main, args.cli_argv)
        wall = tracer.spans[0][2] - tracer.spans[0][1]
        if args.probe:
            tracer.probes = run_probe(json.loads(Path(args.probe).read_text()))
        Path(args.trace).write_text(json.dumps(tracer.dump()))
    elif args.setup_only:
        entered = time.monotonic()
        rc, wall = 0, 0.0
    else:
        entered = time.monotonic()
        t0 = time.perf_counter()
        rc = main(args.cli_argv)
        wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(
        {"entered": entered, "wall_s": wall, "rc": rc, "peak_rss_kb": peak_kb}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
