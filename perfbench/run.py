"""flowbox benchmark: four CLI workloads, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Every repeat is one fresh Python process
that imports flowbox from src/ and calls `flowbox.cli.main` once; the next
starts only after it has ended, and FLOWBOX_THREADS is removed from its
environment so the program runs as users run it.

--trace 0 repeats the workload until the next repeat would end after S
seconds (at least MIN_REPEATS times) and reports the medians of
  wall_s       seconds inside main(argv),
  setup_s      seconds from process start to entering main (also sampled by
               SETUP_PROBES extra processes that stop there),
  peak_rss_mb  peak resident set of the workload process.
--trace 1 runs one untraced and one traced repeat and reports the per-layer
metrics of layers.py; the difference of the two main() times is the tracing
overhead.

Every repeat's outputs are checked (see workloads.py); a repeat whose data
outputs differ in any byte from the first repeat's fails all its operations.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = Path(".perfbench-out")  # relative to ROOT, the workload's cwd
MIN_REPEATS = 2
SETUP_PROBES = 5
# a repeat that would end later than this after the start is not begun
HARD_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 150.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Repeat:
    def __init__(self, result: dict, spawned: float, elapsed: float,
                 stdout: str, failed: int, digest: str):
        self.rc = result.get("rc", -1)
        self.wall_s = result.get("wall_s", 0.0)
        self.setup_s = result["entered"] - spawned if "entered" in result else None
        self.peak_rss_mb = result.get("peak_rss_kb", 0) / 1024.0
        self.elapsed = elapsed
        self.stdout = stdout
        self.failed = failed
        self.digest = digest


def _spawn(child_args, run_dir: Path) -> tuple:
    """Start one workload process, wait for it; (result, spawn time, stdout)."""
    result_path = run_dir / "result.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env.pop("FLOWBOX_THREADS", None)
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path),
           *child_args]
    with open(run_dir / "stdout.txt", "wb") as out, \
            open(run_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        result = {}
    if proc.returncode != 0:
        result["rc"] = -1
    stdout = (run_dir / "stdout.txt").read_text(errors="replace")
    return result, spawned, stdout


def _digest(workload, out_dir: Path, stdout: str) -> str:
    h = hashlib.sha256()
    if workload.data_files:
        for name in workload.data_files:
            path = out_dir / name
            h.update(name.encode() + b"\0")
            h.update(path.read_bytes() if path.is_file() else b"<missing>")
    else:
        h.update(stdout.encode())
    return h.hexdigest()


def _output_bytes(workload, out_dir: Path, stdout: str) -> int:
    size = len(stdout.encode())
    for name in workload.data_files:
        path = out_dir / name
        if path.is_file():
            size += path.stat().st_size
    return size


def run_repeat(workload, inputs, run_dir: Path, extra=()) -> Repeat:
    out_dir = run_dir / "out"
    shutil.rmtree(ROOT / out_dir, ignore_errors=True)
    argv = list(inputs.argv)
    if workload.data_files:
        argv += ["--out", str(out_dir)]
    t0 = time.monotonic()
    result, spawned, stdout = _spawn([*extra, "--", *argv], ROOT / run_dir)
    elapsed = time.monotonic() - t0
    if "rc" not in result:
        failed = inputs.attempted
    else:
        failed = workload.check(ROOT / out_dir, stdout, inputs.attempted)
        if result["rc"] != 0 and failed == 0:
            failed = inputs.attempted
    digest = _digest(workload, ROOT / out_dir, stdout)
    return Repeat(result, spawned, elapsed, stdout, failed, digest)


def _prepare(workload, seed: int) -> tuple:
    run_dir = WORK_DIR / workload.name
    shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    (ROOT / run_dir / "in").mkdir(parents=True)
    inputs = workload.make_inputs(seed, run_dir / "in")
    return run_dir, inputs


def _counts(repeats, attempted: int) -> tuple:
    """(attempted, failed) over repeats; digest mismatches fail everything."""
    first = repeats[0].digest
    failed = 0
    for rep in repeats:
        failed += attempted if rep.digest != first else rep.failed
    return attempted * len(repeats), failed


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(workload, seed: int, seconds: float) -> dict:
    run_dir, inputs = _prepare(workload, seed)
    setups = []
    for _ in range(SETUP_PROBES):
        result, spawned, _ = _spawn(["--setup-only"], ROOT / run_dir)
        if "entered" in result:
            setups.append(result["entered"] - spawned)
    repeats = []
    start = time.monotonic()
    while True:
        repeats.append(run_repeat(workload, inputs, run_dir))
        elapsed = time.monotonic() - start
        longest = max(r.elapsed for r in repeats)
        if elapsed + longest > HARD_LIMIT_S:
            break
        if len(repeats) >= MIN_REPEATS and elapsed + longest > seconds:
            break
    setups += [r.setup_s for r in repeats if r.setup_s is not None]
    attempted, failed = _counts(repeats, inputs.attempted)
    samples = {
        "wall_s": [r.wall_s for r in repeats],
        "setup_s": setups,
        "peak_rss_mb": [r.peak_rss_mb for r in repeats],
    }
    for name, values in samples.items():
        q1, q3 = _quartiles(values)
        print(f"{workload.name}  {name} = {statistics.median(values):.6g}"
              f" {END_TO_END[name]}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    print(f"{workload.name}  fail_fraction = {failed / attempted:.6g}"
          f" 1  ({failed} of {attempted} operations)")
    metrics = {name: {"value": statistics.median(values), "unit": END_TO_END[name]}
               for name, values in samples.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measure_traced(workload, seed: int) -> dict:
    run_dir, inputs = _prepare(workload, seed)
    plain = run_repeat(workload, inputs, run_dir)
    probe = dict(inputs.probe)
    if probe["kind"] == "loss":
        probe["out_dir"] = str(run_dir / "out")
    (ROOT / run_dir / "probe.json").write_text(json.dumps(probe))
    trace_path = run_dir / "trace.json"
    traced = run_repeat(workload, inputs, run_dir,
                        extra=["--trace", str(trace_path),
                               "--probe", str(run_dir / "probe.json")])
    repeats = [plain, traced]
    attempted, failed = _counts(repeats, inputs.attempted)
    metrics = {}
    if traced.rc == 0:
        trace = json.loads((ROOT / trace_path).read_text())
        values = layer_metrics(
            trace, plain.wall_s,
            _output_bytes(workload, ROOT / run_dir / "out", traced.stdout))
        for name, unit in LAYER_METRICS.items():
            print(f"{workload.name}  {name} = {values[name]:.6g} {unit}")
            metrics[name] = {"value": values[name], "unit": unit}
    print(f"{workload.name}  fail_fraction = {failed / attempted:.6g}"
          f" 1  ({failed} of {attempted} operations)")
    return {"correct": failed == 0 and traced.rc == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "flowbox" / "cli.py").is_file():
        print(f"perfbench: no flowbox sources under {ROOT / 'src'};"
              " run from the root of a checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcome = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.trace:
            got = measure_traced(WORKLOADS[name], args.seed)
        else:
            got = measure(WORKLOADS[name], args.seed, args.seconds)
        outcome["correct"] = outcome["correct"] and got["correct"]
        outcome["attempted"] += got["attempted"]
        outcome["failed"] += got["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in got["metrics"].items():
            outcome["metrics"][prefix + key] = value
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
