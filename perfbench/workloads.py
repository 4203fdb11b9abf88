"""The four benchmark workloads.

Each workload turns a seed into the argv of one `flowbox.cli.main` call,
names the data outputs whose bytes must repeat exactly, checks those outputs
against an oracle and describes the points the traced run probes layer by
layer.  The seed only moves grid boxes by a few hundredths (and picks the
varfit start and the verify-all sample points), so every seed does about the
same amount of work, on inputs where no operation may fail.

Nothing here imports flowbox: the benchmark process only starts workload
processes and reads what they write.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
from pathlib import Path
from typing import Callable

SADDLE_SYSTEM = {"name": "saddle-json", "dim": 2, "components": ["-x1", "x2"]}
LINE_SURFACE = {"name": "line-json", "dim": 2, "param": ["1", "4*t1"],
                "level": "x1 - 1"}

# acceptance check 2: traced charts match the closed forms to 1e-6
CHART_TOL = 1e-6
# bound on minimal-set residuals used by test_kef and test_cli
RESIDUAL_TOL = 1e-5
# acceptance check 7: node-mean defects of the regular patch
NODE_TOL = 1e-2

VERIFY_SUITES = (
    "kpde-residuals",
    "real-form-identities",
    "unit-velocity",
    "flowbox-law",
    "chart-vs-refsol",
    "appendix-counterexample",
    "recurrence-audit",
)

# grid boxes the seed jitters; each end moves by at most JITTER
SADDLE_BOX = ((0.8, 2.0), (0.2, 1.2))
NODE_BOX = ((4.0, 6.0), (1.0, 3.0))
JITTER = 0.05
# points per layer probe of the crossing search
PROBE_POINTS = 8
RECURRENT_PROBE_POINTS = 4


def saddle_closed_form(x1: float, x2: float) -> tuple:
    """(h, m) of the saddle P = (-x1, x2) charted through {x1 = 1}, x2 = 4 h."""
    return x1 * x2 / 4.0, -math.log(x1)


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{int(seed)}")


def jittered_box(seed: int, base, salt: str) -> tuple:
    rng = _rng(seed, salt)
    return tuple(
        (lo + rng.uniform(-JITTER, JITTER), hi + rng.uniform(-JITTER, JITTER))
        for lo, hi in base
    )


def grid_spec(box, res: int) -> str:
    return ",".join(f"{lo:.6f}x{hi:.6f}x{res}" for lo, hi in box)


def grid_points(box, res: int) -> list:
    """Nodes of grid_spec(box, res), axis 1 outermost, up to rounding."""
    rounded = [(float(f"{lo:.6f}"), float(f"{hi:.6f}")) for lo, hi in box]
    axes = [[lo + (hi - lo) * k / (res - 1) for k in range(res)] for lo, hi in rounded]
    return [(a, b) for a in axes[0] for b in axes[1]]


def _read_rows(path: Path) -> list:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return []


@dataclasses.dataclass(frozen=True)
class Inputs:
    """Everything one seed fixes for a workload."""

    argv: list          # CLI arguments without --out
    attempted: int      # operations one main() call attempts
    probe: dict         # layer probe handed to the traced workload process


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable      # (seed, input_dir) -> Inputs
    data_files: tuple          # outputs that must be byte-identical; none
                               # means the command takes no --out and its
                               # stdout is the output
    check: Callable            # (out_dir, stdout, attempted) -> failed


# ---------------------------------------------------------------------------
# chart-saddle


def _chart_saddle_inputs(seed: int, input_dir: Path) -> Inputs:
    box = jittered_box(seed, SADDLE_BOX, "chart-saddle")
    pts = grid_points(box, 24)
    probe = _rng(seed, "chart-saddle-probe").sample(pts, PROBE_POINTS)
    return Inputs(
        argv=["chart-build", "--system", "hyperbolic-b", "--surface", "line-b",
              "--grid", grid_spec(box, 24)],
        attempted=len(pts),
        probe={"kind": "crossings", "system": "hyperbolic-b", "surface": "line-b",
               "points": [list(p) for p in probe]},
    )


def check_chart_saddle(out_dir: Path, stdout: str, attempted: int,
                       oracle=saddle_closed_form) -> int:
    """A grid point fails unless its status is ok and h, m match the oracle."""
    rows = _read_rows(out_dir / "chart_grid.csv")
    failed = max(attempted - len(rows), 0)
    for row in rows:
        if row.get("status") != "ok":
            failed += 1
            continue
        h, m = oracle(float(row["x1"]), float(row["x2"]))
        if abs(float(row["h1"]) - h) > CHART_TOL or abs(float(row["m"]) - m) > CHART_TOL:
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# minimal-set-json


def _minimal_set_inputs(seed: int, input_dir: Path) -> Inputs:
    box = jittered_box(seed, SADDLE_BOX, "minimal-set-json")
    pts = grid_points(box, 8)
    system_file = input_dir / "saddle.json"
    system_file.write_text(json.dumps(SADDLE_SYSTEM) + "\n")
    probe = _rng(seed, "minimal-set-json-probe").sample(pts, PROBE_POINTS)
    return Inputs(
        argv=["kef-check", "--minimal-set", "--system-file", str(system_file),
              "--surface", json.dumps(LINE_SURFACE), "--grid", grid_spec(box, 8)],
        attempted=2 * len(pts),  # two members, (h1 e^m, e^m)
        probe={"kind": "crossings", "system_json": SADDLE_SYSTEM,
               "surface_json": LINE_SURFACE, "points": [list(p) for p in probe]},
    )


def check_minimal_set(out_dir: Path, stdout: str, attempted: int) -> int:
    """A residual row fails unless its status is ok and |residual| <= 1e-5."""
    rows = _read_rows(out_dir / "kef_residuals.csv")
    failed = max(attempted - len(rows), 0)
    for row in rows:
        if row.get("status") != "ok":
            failed += 1
            continue
        if abs(complex(float(row["re"]), float(row["im"]))) > RESIDUAL_TOL:
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# varfit-node


def _varfit_inputs(seed: int, input_dir: Path) -> Inputs:
    box = jittered_box(seed, NODE_BOX, "varfit-node")
    return Inputs(
        argv=["varfit", "--system", "linear-ar", "--grid", grid_spec(box, 64),
              "--iterations", "5000", "--seed", str(int(seed))],
        attempted=1,
        probe={"kind": "loss", "system": "linear-ar"},
    )


def check_varfit(out_dir: Path, stdout: str, attempted: int) -> int:
    """Acceptance 7 on the regular patch: node-mean defects <= 1e-2, a
    non-increasing loss history and no elevated residual."""
    try:
        summary = json.loads((out_dir / "manifest.json").read_text())["summary"]
        with open(out_dir / "loss_history.csv", newline="") as fh:
            history = [float(r["total"]) for r in csv.DictReader(fh)]
    except (OSError, ValueError, KeyError):
        return attempted
    ok = (
        summary["iterations_run"] <= 5000
        and max(summary["node_mean_a"]) <= NODE_TOL
        and summary["node_mean_b"] <= NODE_TOL
        and not summary["elevated_residual"]
        and len(history) > 0
        and all(b <= a for a, b in zip(history, history[1:]))
    )
    return 0 if ok else attempted


# ---------------------------------------------------------------------------
# verify-all


def _verify_inputs(seed: int, input_dir: Path) -> Inputs:
    rng = _rng(seed, "verify-all-probe")
    taus = [rng.uniform(0.05, 0.95) for _ in range(RECURRENT_PROBE_POINTS)]
    # seg-x1-1 of the recurrence audit: {x1 = 1}, x2 = tau
    return Inputs(
        argv=["verify-all", "--seed", str(int(seed))],
        attempted=len(VERIFY_SUITES),
        probe={"kind": "crossings", "system": "rotation-c",
               "segment": [1.0, 0.0, 1.0], "horizon": 4.0 * math.pi,
               "points": [[1.0, t] for t in taus]},
    )


def check_verify(out_dir: Path, stdout: str, attempted: int) -> int:
    """A suite fails unless it prints PASS."""
    passed = set()
    for line in stdout.splitlines():
        verdict, _, rest = line.partition("  ")
        if verdict == "PASS":
            passed.add(rest.split(":", 1)[0])
    return sum(1 for name in VERIFY_SUITES if name not in passed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chart-saddle",
            why="576 chart points on built-in lambdas: crossing search with"
                " short single-crossing sweeps and bisection; no AST, kef or"
                " varfit, so integrator changes show and derivative ones do not",
            make_inputs=_chart_saddle_inputs,
            data_files=("chart_grid.csv",),
            check=check_chart_saddle,
        ),
        Workload(
            name="minimal-set-json",
            why="128 minimal-set residuals, 5 chart points each through fdiff,"
                " with every RHS and level value evaluated by the expression AST"
                " and a Gauss-Newton surface inverse; exact derivatives show here",
            make_inputs=_minimal_set_inputs,
            data_files=("kef_residuals.csv",),
            check=check_minimal_set,
        ),
        Workload(
            name="varfit-node",
            why="pure-numpy varfit stencils on a 64x64 grid for 5000 iterations;"
                " never touches odeint or chart, so integrator changes must not"
                " move it",
            make_inputs=_varfit_inputs,
            data_files=("fit_y.csv", "fit_y.csv.json", "fit_flowbox.csv",
                        "fit_flowbox.csv.json", "loss_history.csv"),
            check=check_varfit,
        ),
        Workload(
            name="verify-all",
            why="all seven closed-form suites: the only recurrence audit over"
                " full 4pi rotation sweeps, fixed-time flow, circle-a and the"
                " refsol oracle",
            make_inputs=_verify_inputs,
            data_files=(),
            check=check_verify,
        ),
    )
}
