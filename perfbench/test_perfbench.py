"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run small inputs in-process; the benchmark proper runs the full-size
workloads in their own processes.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import flowbox.chart  # noqa: E402
import flowbox.cli  # noqa: E402
import flowbox.dynsys  # noqa: E402
import flowbox.expressions  # noqa: E402
import flowbox.fdiff  # noqa: E402
import flowbox.kef  # noqa: E402
import flowbox.odeint  # noqa: E402
import flowbox.varfit  # noqa: E402
from layers import EXACT_COUNTS, LAYER_METRICS, layer_metrics  # noqa: E402
from run import END_TO_END, _counts  # noqa: E402
from tracer import AST_NODES, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    LINE_SURFACE, SADDLE_SYSTEM, VERIFY_SUITES, WORKLOADS, check_chart_saddle,
    check_verify, saddle_closed_form,
)

SMALL_CHART = ["chart-build", "--system", "hyperbolic-b", "--surface", "line-b",
               "--grid", "0.8x2x3,0.2x1.2x3"]
SMALL_FIT = ["varfit", "--system", "linear-ar", "--grid", "4x6x12,1x3x12",
             "--iterations", "60", "--seed", "0"]


def _small_minimal_set(tmp_path):
    system = tmp_path / "saddle.json"
    system.write_text(json.dumps(SADDLE_SYSTEM))
    return ["kef-check", "--minimal-set", "--system-file", str(system),
            "--surface", json.dumps(LINE_SURFACE), "--grid", "0.8x2x2,0.2x1.2x2"]


def _traced(argv, out_dir, capsys):
    tracer = Tracer()
    assert tracer.run_main(flowbox.cli.main, argv + ["--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    size = len(stdout.encode()) + sum(
        p.stat().st_size for p in out_dir.iterdir() if p.name != "manifest.json")
    return layer_metrics(tracer.dump(), 0.0, size)


def _bindings():
    """Every attribute the tracer may replace, with its current value."""
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "flowbox" or name.startswith("flowbox.")]
    owners += [flowbox.dynsys.VectorField]
    owners += [getattr(flowbox.expressions, n) for n in AST_NODES]
    return {(id(o), key): value for o in owners for key, value in list(vars(o).items())}


def test_traced_run_patches_every_binding_and_restores_it(tmp_path, capsys):
    before = _bindings()
    tracer = Tracer()
    seen = set()

    def main(argv):
        seen.update((owner.__name__, attr) for owner, attr, _ in tracer.patched)
        return flowbox.cli.main(argv)

    assert tracer.run_main(main, SMALL_CHART + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for site in [
        ("flowbox.chart", "find_crossings"), ("flowbox.odeint", "find_crossings"),
        ("flowbox.kef", "flowbox"), ("flowbox.chart", "flowbox"),
        ("flowbox.kef", "flow"), ("flowbox.cli", "flow"), ("flowbox.odeint", "flow"),
        ("flowbox.odeint", "fd_gradient"), ("flowbox.chart", "fd_gradient"),
        ("flowbox.kef", "fd_gradient"), ("flowbox.cli", "fd_gradient"),
        ("flowbox.kef", "fd_jacobian"), ("flowbox.kef", "kpde_residual"),
        ("VectorField", "eval"), ("flowbox.cli", "VERIFY_SUITES"),
    ]:
        assert site in seen, site
    assert not tracer.patched
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def test_counts_repeat_exactly_across_traced_runs(tmp_path, capsys):
    runs = []
    for attempt in ("a", "b"):
        merged = {}
        for tag, argv in (("chart", SMALL_CHART), ("fit", SMALL_FIT),
                          ("mset", _small_minimal_set(tmp_path))):
            out = tmp_path / f"{tag}-{attempt}"
            got = _traced(argv, out, capsys)
            merged.update({f"{tag}:{k}": got[k] for k in EXACT_COUNTS})
            if tag == "chart":
                assert got["expressions.evaluate_calls"] == 0
            if tag == "mset":
                assert got["kef.points_per_residual"] == 5
        runs.append(merged)
    # different out directories print paths of equal length
    assert runs[0] == runs[1]
    assert runs[0]["chart:dynsys.eval_calls"] > 0
    assert runs[0]["fit:varfit.diff_axis_calls"] > 0
    assert runs[0]["fit:varfit.iterations_run"] > 0


def test_wrong_closed_form_drives_failures(tmp_path, capsys):
    assert flowbox.cli.main(SMALL_CHART + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert check_chart_saddle(tmp_path, "", 9) == 0

    def wrong(x1, x2):
        h, m = saddle_closed_form(x1, x2)
        return h, m + 1e-5

    assert check_chart_saddle(tmp_path, "", 9, oracle=wrong) == 9
    assert check_chart_saddle(tmp_path, "", 10) == 1  # a missing row fails


def test_verify_check_counts_suites():
    stdout = "".join(f"PASS  {name}: fine\n" for name in VERIFY_SUITES[1:])
    assert check_verify(Path("."), stdout, len(VERIFY_SUITES)) == 1
    assert check_verify(Path("."), stdout.replace("PASS", "FAIL", 1), 7) == 2


def test_output_mismatch_fails_every_operation():
    class Rep:
        def __init__(self, digest, failed=0):
            self.digest, self.failed = digest, failed

    assert _counts([Rep("a"), Rep("a", 1), Rep("b")], 10) == (30, 11)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_follow_the_seed(workload, tmp_path):
    make = WORKLOADS[workload].make_inputs
    assert make(3, tmp_path) == make(3, tmp_path)
    assert make(3, tmp_path).argv != make(4, tmp_path).argv


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
