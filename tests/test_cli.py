import dataclasses
import gc
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from flowbox import chart as chart_mod
from flowbox import cli, odeint, verify
from flowbox.chart import build_chart, builtin_surface, evaluate_grid
from flowbox.cli import (
    EXIT_AUDIT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    main,
    parse_eigenvalue,
    parse_grid_spec,
)
from flowbox.dynsys import VectorField, builtin
from flowbox.odeint import RunStats
from flowbox.varfit import load_grid


# ---------------------------------------------------------------------------
# Argument parsing units


def test_parse_eigenvalue_forms():
    assert parse_eigenvalue("3") == 3 + 0j
    assert parse_eigenvalue("2i") == 2j
    assert parse_eigenvalue("i") == 1j
    assert parse_eigenvalue("-0.45+0.19i") == complex(-0.45, 0.19)
    assert parse_eigenvalue("1e-3") == complex(1e-3, 0.0)
    with pytest.raises(UsageError):
        parse_eigenvalue("eight")


def test_parse_grid_spec_trailing_resolution():
    box, shape = parse_grid_spec("4x6,1x3x64", dim=2)
    np.testing.assert_allclose(box, [[4.0, 6.0], [1.0, 3.0]])
    assert shape == (64, 64)


def test_parse_grid_spec_per_axis_resolution():
    box, shape = parse_grid_spec("4x6x32,1x3x64", dim=2)
    assert shape == (32, 64)
    box, shape = parse_grid_spec("0x1x9", dim=1)
    assert shape == (9,)


@pytest.mark.parametrize(
    "spec,dim",
    [
        ("4x6,1x3x64", 3),      # wrong axis count
        ("4x6,1x3", 2),         # no resolution anywhere
        ("4x6x32,1x3", 2),      # resolution not on the trailing axis
        ("4x6x32x9,1x3x9", 2),  # too many fields
        ("4xsix,1x3x9", 2),     # not a number
        ("4x6,1x3x0", 2),       # zero resolution
        ("nanx2x3,0.2x1.2x3", 2),  # non-finite bounds
        ("0.8xinfx3,0.2x1.2x3", 2),
        ("1x1x3,0.5x0.5x2", 2),  # lo == hi
        ("2x1x3,0x1x3", 2),      # lo > hi
    ],
)
def test_parse_grid_spec_rejects(spec, dim):
    with pytest.raises(UsageError):
        parse_grid_spec(spec, dim)


# ---------------------------------------------------------------------------
# systems-list


def test_systems_list_prints_table(capsys):
    assert main(["systems-list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "name" in out and "dim" in out
    for required in ("source-a", "hyperbolic-b", "rotation-c", "linear-ar"):
        assert required in out


def test_systems_list_filter(capsys):
    assert main(["systems-list", "--filter", "linear"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "linear-ar" in out
    assert "hyperbolic-b" not in out


def test_missing_subcommand_exits_usage():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == EXIT_USAGE


def test_unknown_system_is_usage_error(capsys):
    code = main(["varfit", "--system", "no-such", "--grid", "0x1x9,0x1x9"])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# chart-build


def test_chart_build_writes_grid_and_manifest(tmp_path, capsys):
    code = main([
        "chart-build", "--system", "hyperbolic-b", "--surface", "line-b",
        "--grid", "0.8x1.2x4,0.2x0.4x3", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    lines = (tmp_path / "chart_grid.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,h1,m,status"
    assert len(lines) == 1 + 12
    assert all(line.endswith(",ok") for line in lines[1:])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "chart-build"
    assert manifest["summary"]["ok_fraction"] == 1.0
    assert manifest["outputs"] == ["chart_grid.csv"]
    stats = manifest["summary"]["stats"]
    evaluate = stats["evaluate"]
    # the recurrence audit's orbits ride in the grid's search, seeds first
    seeds = cli.AUDIT_ORBITS
    assert evaluate["lanes"] == 2 * (manifest["summary"]["points"] + seeds)
    assert evaluate["crossings_refined"] == manifest["summary"]["points"]
    # one evaluation per lane to start, then twelve per attempted step,
    # three per bracketing step for its dense output and one per event for
    # its direction, here one step and one event per refined crossing and
    # one event per seed, which starts on S
    steps = evaluate["accepted_steps"] + evaluate["rejected_steps"]
    assert evaluate["rhs_evals"] == (evaluate["lanes"] + 12 * steps
                                     + 4 * evaluate["crossings_refined"] + seeds)
    assert stats["evaluate_rhs_evals_per_point"] == evaluate["rhs_evals"] / (12 + seeds)
    # the audit keeps only build_chart's transversality samples
    assert {k: v for k, v in stats["audit"].items() if v} == {
        "rhs_calls": 1, "rhs_evals": 64}
    assert set(manifest["timings"]) == {"audit_s", "evaluate_s", "write_s"}
    assert manifest["peak_rss_mb"] > 0.0
    assert "chart-build: 12/12 points ok" in capsys.readouterr().out


def test_chart_build_searches_its_audit_and_grid_in_one_batch(tmp_path, monkeypatch):
    # the recurrence audit's seeds ride first in the grid's one search;
    # --force adds none
    searched = []
    search = odeint.find_crossings_batch

    def counting(field, points, *args, **kwargs):
        searched.append(len(points))
        return search(field, points, *args, **kwargs)

    monkeypatch.setattr(chart_mod, "find_crossings_batch", counting)
    argv = CHART_ARGV["chart-build"]
    for extra, seeds in (([], cli.AUDIT_ORBITS), (["--force"], 0)):
        searched.clear()
        out = tmp_path / str(seeds)
        assert main(argv + extra + ["--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert searched == [summary["points"] + seeds]
        assert summary["stats"]["evaluate"]["lanes"] == 2 * (summary["points"] + seeds)
        assert summary["stats"]["audit"]["lanes"] == 0


def test_chart_build_writes_m_on_the_surface_as_zero(tmp_path):
    assert main(["chart-build", "--system", "hyperbolic-b", "--surface", "line-b",
                 "--grid", "0.5x1.5x3,0.5x1x2", "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "chart_grid.csv").read_text().splitlines()[1:]
    on_surface = [row.split(",") for row in rows if row.startswith("1,")]
    assert [row[3] for row in on_surface] == ["0", "0"]
    # 576 points, x1 = 1 on S among them, x1 <= 0 not in omega and x1 x2 >= 4
    # off the patch: every cell is the point's own value written as
    # format(v, ".17g"), and NaN where its chart fails
    out = tmp_path / "grid"
    assert main(["chart-build", "--system", "hyperbolic-b", "--surface", "line-b",
                 "--grid=-1x4.75x24,0.2x1.2x24", "--out", str(out)]) == EXIT_OK
    x1, x2 = np.meshgrid(np.linspace(-1.0, 4.75, 24), np.linspace(0.2, 1.2, 24),
                         indexing="ij")
    points = np.stack([x1.ravel(), x2.ravel()], axis=-1)
    chart = build_chart(builtin("hyperbolic-b"), builtin_surface("line-b"))
    z, status = evaluate_grid(chart, points)
    assert set(status) == {"ok", "not-in-omega", "off-patch"}
    assert np.count_nonzero(points[:, 0] == 1.0) == 24
    expected = ["x1,x2,h1,m,status"] + [
        ",".join([format(float(v), ".17g") for v in (*x, *zp)] + [label])
        for x, zp, label in zip(points, z, status)]
    assert (out / "chart_grid.csv").read_bytes() == "\n".join(expected + [""]).encode()
    rows = [row.split(",") for row in expected[1:]]
    assert {row[3] for row in rows if row[0] == "1"} == {"0"}
    assert {row[3] for row in rows if row[4] != "ok"} == {"nan"}


def test_chart_build_audit_blocks_recurrent_surface(tmp_path, capsys):
    code = main([
        "chart-build", "--system", "rotation-c", "--surface", "segment-c",
        "--grid", "0.5x1.5x3,0.5x1.5x3", "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_AUDIT
    assert "recurrent" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_chart_build_audit_refuses_a_degenerate_surface(tmp_path, capsys):
    flat = json.dumps({"name": "flat", "dim": 2, "param": ["1", "1"], "level": "x1 - 1"})
    code = main([
        "chart-build", "--system", "hyperbolic-b", "--surface", flat,
        "--grid", "0.9x1.1x2,0.2x0.3x2", "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_AUDIT
    assert "audit failure: flat: degenerate parameterization" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_chart_build_force_charts_no_point_on_a_degenerate_surface(tmp_path, capsys):
    # --force skips the audit that refuses this surface; its Gauss-Newton
    # inverse then fails every point instead of returning the seed tau
    flat = json.dumps({"name": "flat", "dim": 2, "param": ["1", "1"], "level": "x1 - 1"})
    code = main([
        "chart-build", "--force", "--system", "hyperbolic-b", "--surface", flat,
        "--grid", "0.9x1.1x2,0.2x0.3x2", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    assert "0/4 points ok" in capsys.readouterr().out
    rows = (tmp_path / "chart_grid.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:] for row in rows] == [["nan", "nan", "chart-error"]] * 4


def test_chart_build_audits_circle_seeds_within_rounding_of_the_surface(tmp_path):
    # the audit's seeds on circle-a have level -1.1e-16: one crossing each
    code = main([
        "chart-build", "--system", "source-a", "--surface", "circle-a",
        "--grid", "0.5x2x4,0.5x2x4", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK


def test_chart_build_audit_fails_on_orbits_leaving_an_expression_domain(tmp_path, capsys):
    spec = tmp_path / "sqrt.json"
    spec.write_text(json.dumps({"dim": 2, "components": ["1", "-x2 + 0*sqrt(2.5 - x1)"]}))
    argv = ["chart-build", "--system-file", str(spec), "--surface", "line-b",
            "--grid", "0.5x2x4,0.5x2x4"]
    assert main(argv + ["--out", str(tmp_path / "audited")]) == EXIT_AUDIT
    err = capsys.readouterr().err
    assert "16 of 16 seeded orbits" in err
    assert "sqrt of a negative value" in err
    assert not (tmp_path / "audited" / "chart_grid.csv").exists()

    assert main(argv + ["--out", str(tmp_path / "forced"), "--force"]) == EXIT_OK
    rows = (tmp_path / "forced" / "chart_grid.csv").read_text().splitlines()[1:]
    assert len(rows) == 16
    assert all(row.endswith(",domain-error") for row in rows)


def test_chart_build_force_skips_audits(tmp_path):
    code = main([
        "chart-build", "--system", "rotation-c", "--surface", "segment-c",
        "--grid", "0.5x1.5x3,0.5x1.5x3", "--out", str(tmp_path), "--force",
    ])
    assert code == EXIT_OK
    assert (tmp_path / "chart_grid.csv").exists()


def test_chart_build_requires_surface_and_grid(capsys):
    assert main(["chart-build", "--system", "hyperbolic-b"]) == EXIT_USAGE


CHART_ARGV = {
    "chart-build": ["chart-build", "--system", "hyperbolic-b", "--surface", "line-b",
                    "--grid", "0.9x1.1x2,0.2x0.3x2"],
    "kef-check": ["kef-check", "--system", "hyperbolic-b", "--minimal-set",
                  "--surface", "line-b", "--grid", "0.9x1.1x2,0.2x0.3x2"],
}


def test_chart_build_rejects_a_surface_of_another_dimension(tmp_path, capsys):
    code = main(["chart-build", "--system", "hyperbolic-b", "--surface", "point-1",
                 "--grid", "0.9x1.1x2,0.2x0.3x2", "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "surface point-1 has dim 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(CHART_ARGV))
@pytest.mark.parametrize("option, message", [
    ("--abs-tol=-1", "abs_tol must be positive and finite: -1.0"),
    ("--abs-tol=nan", "abs_tol must be positive and finite: nan"),
    ("--abs-tol=inf", "abs_tol must be positive and finite: inf"),
    ("--horizon=-3", "horizon must be positive and finite: -3.0"),
])
def test_charting_commands_reject_bad_integrator_options(command, option, message,
                                                         tmp_path, capsys):
    code = main(CHART_ARGV[command] + [option, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert f"flowbox: error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_charting_commands_record_the_integrator_options(tmp_path):
    recorded = {}
    for command, argv in CHART_ARGV.items():
        assert main(argv + ["--abs-tol", "1e-8", "--out", str(tmp_path / command)]) \
            == EXIT_OK
        args = json.loads((tmp_path / command / "manifest.json").read_text())["args"]
        recorded[command] = {k: args[k] for k in
                             ("surface", "force", "horizon", "abs_tol", "rel_tol")}
    assert recorded["chart-build"] == recorded["kef-check"] == {
        "surface": "line-b", "force": False, "horizon": 50.0,
        "abs_tol": 1e-8, "rel_tol": 1e-9}


# ---------------------------------------------------------------------------
# kef-check


def test_kef_check_expression_mode(tmp_path, capsys):
    code = main([
        "kef-check", "--system", "linear-ar",
        "--phi", "x1 + x2", "--lambda", "3",
        "--grid", "0.5x2x3,0.5x2x3", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    lines = (tmp_path / "kef_residuals.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,member,re,im,status"
    assert len(lines) == 1 + 9
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["summary"]["max_abs_residual"] < 1e-6
    assert "max |residual|" in capsys.readouterr().out


def test_kef_check_minimal_set_mode(tmp_path):
    code = main([
        "kef-check", "--system", "hyperbolic-b", "--minimal-set",
        "--surface", "line-b", "--grid", "0.9x1.1x3,0.2x0.3x3",
        "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    lines = (tmp_path / "kef_residuals.csv").read_text().splitlines()
    # two members, each swept over the 9 grid points
    assert len(lines) == 1 + 18
    members = {line.split(",")[2] for line in lines[1:]}
    assert members == {"h1*exp(m)", "exp(m)"}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["summary"]["max_abs_residual"] < 1e-5


def test_kef_check_writes_deterministic_stats(tmp_path):
    argv = ["kef-check", "--system", "hyperbolic-b", "--minimal-set",
            "--surface", "line-b", "--grid", "0.9x1.1x2,0.2x0.3x2"]
    stats = []
    for run in ("a", "b"):
        assert main(argv + ["--out", str(tmp_path / run)]) == EXIT_OK
        manifest = json.loads((tmp_path / run / "manifest.json").read_text())
        stats.append(manifest["summary"]["stats"])
        assert set(manifest["timings"]) == {"audit_s", "evaluate_s", "write_s"}
    assert stats[0] == stats[1]
    evaluate = stats[0]["evaluate"]
    # 4 grid points, each charted with its 4 stencil points: 20 chart points
    assert evaluate["lanes"] == 2 * 20
    assert evaluate["crossings_refined"] == 20
    assert stats[0]["evaluate_rhs_evals_per_point"] == evaluate["rhs_evals"] / 4


def test_kef_check_stats_have_chart_builds_shape(tmp_path):
    # both commands report an audit and an evaluate RunStats; no audit
    # integrates: chart-build's recurrence audit rides in its evaluate
    # search, kef-check runs none, so chart-build and --minimal-set count
    # only the field call of their transversality samples, and --phi
    # builds no chart and reads zeros
    grid = ["--grid", "0.9x1.1x2,0.2x0.3x2"]
    runs = {
        "chart": ["chart-build", "--system", "hyperbolic-b", "--surface", "line-b"],
        "minimal": ["kef-check", "--system", "hyperbolic-b", "--minimal-set",
                    "--surface", "line-b"],
        "phi": PHI_ARGV[:-2],
    }
    stats = {}
    for name, argv in runs.items():
        assert main(argv + grid + ["--out", str(tmp_path / name)]) == EXIT_OK
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        stats[name] = manifest["summary"]["stats"]
    fields = set(stats["chart"]["audit"])
    for name in ("minimal", "phi"):
        assert set(stats[name]["audit"]) == set(stats[name]["evaluate"]) == fields
    for name in ("chart", "minimal"):
        assert {k: v for k, v in stats[name]["audit"].items() if v} == {
            "rhs_calls": 1, "rhs_evals": 64}  # check_transversal's default samples
    assert not any(stats["phi"]["audit"].values())
    assert stats["minimal"]["evaluate"]["lanes"] > 0


@pytest.mark.parametrize("step", ["0", "-1e-5", "nan", "inf"])
def test_kef_check_rejects_bad_fd_step(step, tmp_path, capsys):
    code = main([
        "kef-check", "--system", "linear-ar", "--phi", "x1 + x2", "--lambda", "3",
        "--grid", "0.5x2x3,0.5x2x3", f"--fd-step={step}", "--out", str(tmp_path),
    ])
    assert code == EXIT_USAGE
    assert "--fd-step" in capsys.readouterr().err
    assert not (tmp_path / "kef_residuals.csv").exists()


def test_kef_check_needs_phi_or_minimal_set(capsys):
    code = main([
        "kef-check", "--system", "linear-ar", "--grid", "0x1x3,0x1x3",
    ])
    assert code == EXIT_USAGE
    assert "--phi" in capsys.readouterr().err


def test_kef_check_minimal_set_hash_follows_the_integrator_options(tmp_path):
    hashes = set()
    for abs_tol in ("1e-9", "1e-5"):
        out = tmp_path / abs_tol
        assert main(CHART_ARGV["kef-check"] + ["--abs-tol", abs_tol, "--out", str(out)]) \
            == EXIT_OK
        hashes.add(json.loads((out / "manifest.json").read_text())["config_hash"])
    assert len(hashes) == 2


def test_charting_commands_load_no_hashlib(tmp_path):
    # hashlib maps OpenSSL's libcrypto (about 3.3 MB resident); config_hash
    # is a CRC-32 from zlib, which numpy loads anyway.  Nor do they compile
    # varfit or refsol, which only varfit and verify-all run
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from flowbox.cli import main\n"
        "loaded = lambda: sorted({'hashlib', '_hashlib', 'flowbox.varfit',"
        " 'flowbox.refsol'} & set(sys.modules))\n"
        "print(loaded())\n"
        "assert main(json.loads(sys.argv[1])) == 0\n"
        "print(loaded())\n"
    )
    hashes = []
    runs = [CHART_ARGV["chart-build"]] * 2 + [CHART_ARGV["kef-check"]]
    for k, argv in enumerate(runs):
        out = tmp_path / str(k)
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argv + ["--out", str(out)])],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("[]", "[]")
        manifest = json.loads((out / "manifest.json").read_text())
        assert re.fullmatch("[0-9a-f]{8}", manifest["config_hash"])
        assert manifest["peak_rss_mb"] > 0.0
        hashes.append(manifest["config_hash"])
    # one argv, one fingerprint in every process; another command, another
    assert hashes[0] == hashes[1] != hashes[2]


@pytest.mark.parametrize("argv, message", [
    (["--minimal-set"], "--minimal-set needs --surface"),
    (["--phi", "x1 + x2"], "need --phi and --lambda"),
    (["--phi", "x1 +", "--lambda", "3"], "bad --phi"),
])
def test_kef_check_usage_error_writes_nothing(argv, message, tmp_path, capsys):
    code = main(["kef-check", "--system", "linear-ar", "--grid", "0.5x2x3,0.5x2x3",
                 "--out", str(tmp_path / "out")] + argv)
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _residual_rows(out):
    lines = (out / "kef_residuals.csv").read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def test_kef_check_phi_fails_only_the_rows_whose_stencil_leaves_the_domain(tmp_path):
    # ln(x1) raises on the whole stack; the rows with x1 <= 0 stand alone
    code = main(["kef-check", "--system", "linear-ar", "--phi", "ln(x1)*x2",
                 "--lambda", "1", "--grid=-0.5x1x4,0.5x2x2", "--out", str(tmp_path)])
    assert code == EXIT_OK
    rows = _residual_rows(tmp_path)
    assert [(r[0], r[5]) for r in rows[:4]] == [
        ("-0.5", "domain-error"), ("-0.5", "domain-error"),
        ("0", "domain-error"), ("0", "domain-error")]
    assert all(r[3:5] == ["nan", "nan"] for r in rows[:4])
    assert [r[3:] for r in rows[4:]] == [
        ["0.80685281963978961", "0", "ok"], ["-14.371890650560132", "0", "ok"],
        ["2.1250000000729581", "0", "ok"], ["1.0000000000343332", "0", "ok"]]


def test_kef_check_phi_fails_the_rows_where_the_field_raises(tmp_path):
    spec = tmp_path / "inverse.json"
    spec.write_text(json.dumps({"name": "inverse", "dim": 2,
                                "components": ["1/x1", "x2"]}))
    code = main(["kef-check", "--system-file", str(spec), "--phi", "x2",
                 "--lambda", "1", "--grid=-1x1x3,0.5x2x2", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    rows = _residual_rows(tmp_path / "out")
    # x2 and its stencil evaluate everywhere: the field at x = (0, .) raises
    assert [r[5] for r in rows] == ["ok", "ok", "domain-error", "domain-error", "ok", "ok"]
    assert [r[0] for r in rows if r[5] != "ok"] == ["0", "0"]


def test_kef_check_with_no_evaluable_point_writes_nan_rows(tmp_path, capsys):
    # ln(x1) raises at every point of a grid with x1 < 0
    code = main(["kef-check", "--system", "linear-ar", "--phi", "ln(x1)", "--lambda", "1",
                 "--grid=-2x-1x2,0.5x2x2", "--out", str(tmp_path)])
    assert code == EXIT_OK
    rows = _residual_rows(tmp_path)
    assert len(rows) == 4
    assert all(r[3:] == ["nan", "nan", "domain-error"] for r in rows)
    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    assert summary["evaluated"] == 0
    assert summary["max_abs_residual"] is None and summary["mean_abs_residual"] is None
    assert "kef-check: no evaluable points" in capsys.readouterr().out


PHI_ARGV = ["kef-check", "--system", "hyperbolic-b", "--phi", "x1*x2", "--lambda", "0",
            "--grid", "0.9x1.1x2,0.2x0.3x2"]


@pytest.mark.parametrize("option", [
    ["--surface", "line-b"],
    ["--force"],
    ["--horizon", "5"],
    ["--abs-tol", "nan"],
    ["--rel-tol", "1e-8"],
])
def test_kef_check_phi_mode_rejects_the_charting_options(option, tmp_path, capsys):
    # --phi never charts, so a charting option there would be silently ignored
    code = main(PHI_ARGV + option + ["--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert f"--phi mode does not take {option[0]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", [["--phi", "x1*x2"], ["--lambda", "0"]])
def test_kef_check_minimal_set_mode_rejects_phi_and_lambda(option, tmp_path, capsys):
    code = main(CHART_ARGV["kef-check"] + option + ["--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert f"--minimal-set mode does not take {option[0]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# varfit


def test_varfit_writes_grids_history_manifest(tmp_path, capsys):
    code = main([
        "varfit", "--system", "linear-ar", "--grid", "4x6x12,1x3x12",
        "--iterations", "60", "--seed", "0", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    for name in ("fit_y.csv", "fit_y.csv.json", "fit_flowbox.csv",
                 "fit_flowbox.csv.json", "loss_history.csv", "manifest.json"):
        assert (tmp_path / name).exists()

    grid = load_grid(tmp_path / "fit_y.csv")
    assert grid.shape == (12, 12)

    hist_lines = (tmp_path / "loss_history.csv").read_text().splitlines()
    assert hist_lines[0] == "iteration,total"
    assert hist_lines[1].startswith("1,")
    totals = [float(line.split(",")[1]) for line in hist_lines[1:]]
    assert all(b <= a for a, b in zip(totals, totals[1:]))

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    summary = manifest["summary"]
    assert len(hist_lines) - 1 <= summary["iterations_run"]
    assert len(summary["node_mean_a"]) == 2
    assert "elevated_residual" in summary
    assert set(summary["stats"]) == {
        "loss_evals", "gradients", "backtracks", "sweeps", "sweep_rounds",
        "line_moves"}
    assert summary["stats"]["gradients"] == summary["iterations_run"]
    # one record per level, whose work sums to the fit's
    levels = summary["levels"]
    assert [level["shape"] for level in levels] == [[9, 9], [12, 12]]
    for level in levels:
        assert set(level) == {"shape", "iterations", "total", "gain", "gain_tol",
                              "message", "missed", "stats"}
    assert levels[0]["gain"] is levels[0]["gain_tol"] is None
    assert not any(level["missed"] for level in levels)
    assert sum(level["iterations"] for level in levels) == summary["iterations_run"]
    assert summary["message"].startswith(levels[-1]["message"])
    assert levels[-1]["total"] == summary["total"]
    for key in summary["stats"]:
        assert sum(level["stats"][key] for level in levels) == summary["stats"][key]
    assert set(manifest["timings"]) == {"fit_s", "levels_s", "levels_sweep_s", "write_s"}
    levels_s = manifest["timings"]["levels_s"]
    assert len(levels_s) == len(levels)
    assert all(s >= 0.0 for s in levels_s) and sum(levels_s) <= manifest["timings"]["fit_s"]
    # each level's sweep seconds are part of its seconds, and stay out of
    # the deterministic summary
    sweep_s = manifest["timings"]["levels_sweep_s"]
    assert len(sweep_s) == len(levels_s)
    assert all(0.0 <= s <= level for s, level in zip(sweep_s, levels_s))
    assert not any("sweep_s" in key for key in summary)
    assert manifest["peak_rss_mb"] > 0.0
    assert manifest["seed"] == 0
    out = capsys.readouterr().out
    assert out.startswith("varfit:")
    assert f"after {summary['iterations_run']} of 60 iterations" in out


def test_varfit_diagnostic_on_missed_targets(tmp_path, capsys):
    # a single step on the awkward patch leaves the defect above tolerance
    code = main([
        "varfit", "--system", "linear-ar", "--grid", "2.5x3x12,2.5x3x12",
        "--iterations", "1", "--seed", "0", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "NOT converged" in captured.out
    assert "singular set" in captured.err


def test_varfit_diagnostic_names_the_gain_and_its_threshold(tmp_path, capsys):
    # across the singular line the final level spends its budget without
    # gaining the mesh-width ratio 23/12 of the 13 -> 24 ladder step; a
    # 9 -> 12 step is too short for the gain to tell the singular line
    # from discretization error
    code = main([
        "varfit", "--system", "linear-ar", "--grid", "2.5x3x24,2.5x3x24",
        "--iterations", "600", "--seed", "0", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    final = summary["levels"][-1]
    assert summary["elevated_residual"] and final["missed"]
    assert final["gain_tol"] == pytest.approx(23.0 / 12.0, rel=1e-12)
    assert "converged after 600 of 600 iterations" in captured.out
    assert (f"residual stuck across grid refinement at the 24x24 level (gain"
            f" {final['gain']:.3g} below the mesh-width ratio 1.92)"
            in captured.err)


def test_varfit_diagnostic_on_a_coarser_level_that_misses_its_gain(
        tmp_path, capsys, monkeypatch):
    # the 18x18 level of 9 -> 10 -> 18 -> 34, starved to one step, misses
    # its gain; the final level meets its own
    from flowbox import varfit
    real = varfit._descend

    def starved(objective, values, iters, target=0.0, enough=0.0):
        if objective.shape == (18, 18):
            iters = 1
        return real(objective, values, iters, target, enough)

    monkeypatch.setattr(varfit, "_descend", starved)
    code = main([
        "varfit", "--system", "linear-ar", "--grid", "4x6x34,1x3x34",
        "--iterations", "1000", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    assert summary["elevated_residual"]
    starved_level, final = summary["levels"][2:]
    assert starved_level["shape"] == [18, 18]
    assert starved_level["message"] == "iteration budget exhausted"
    assert starved_level["gain"] < starved_level["gain_tol"]
    assert starved_level["missed"]
    assert final["message"] == varfit.GAIN_MET
    assert final["gain"] >= final["gain_tol"] and not final["missed"]
    assert "at the 18x18 level" in summary["message"]
    assert ("residual stuck across grid refinement at the 18x18 level (gain"
            f" {starved_level['gain']:.3g} below the mesh-width ratio"
            f" {starved_level['gain_tol']:.3g})" in capsys.readouterr().err)


def test_varfit_diagnostic_on_a_target_stop(tmp_path, capsys):
    # a target far above the tolerance stops the fit after one step: the
    # diagnostic names the target, not a singular set
    code = main([
        "varfit", "--system", "linear-ar", "--grid", "4x6x9,1x3x9",
        "--iterations", "20", "--target", "1e9", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "NOT converged after 1 of 20 iterations" in captured.out
    assert "diagnostic: the fit stopped at --target 1e+09, above the node-mean" \
        " tolerance" in captured.err
    assert "singular set" not in captured.err
    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    assert summary["message"].startswith("node-mean targets met; ")
    assert not summary["converged"]
    # a one-level ladder gives no refinement gain to judge
    assert summary["elevated_residual"] is None
    assert "could not be judged on this 1-level ladder" in captured.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_varfit_numeric_failure_exit_code(tmp_path, capsys):
    spec = tmp_path / "hot.json"
    spec.write_text(json.dumps({
        "name": "hot",
        "dim": 2,
        "components": ["exp(x1)", "0"],
        "domain": [[-2000.0, 2000.0], [-5.0, 5.0]],
    }))
    code = main([
        "varfit", "--system-file", str(spec), "--grid", "700x1000x9,0x1x9",
        "--iterations", "5", "--out", str(tmp_path),
    ])
    assert code == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # refused before any arithmetic
@pytest.mark.parametrize("grid, message", [
    ("6x4x33,1x3x33", "box must have lo < hi on every axis"),
    ("1x1x9,1x3x9", "box must have lo < hi on every axis"),
    ("4x6x2,1x3x2", "need at least 3 nodes per axis"),
])
def test_varfit_refuses_a_bad_grid_before_fitting(grid, message, tmp_path, capsys):
    code = main(["varfit", "--system", "linear-ar", "--grid", grid,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert f"flowbox: error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_varfit_runs_are_byte_identical(tmp_path):
    argv = [
        "varfit", "--system", "linear-ar", "--grid", "4x6x12,1x3x12",
        "--iterations", "40", "--seed", "0",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out_a)]) == EXIT_OK
    assert main(argv + ["--out", str(out_b)]) == EXIT_OK
    for name in ("fit_y.csv", "fit_y.csv.json", "fit_flowbox.csv",
                 "fit_flowbox.csv.json", "loss_history.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    manifests = [json.loads((out / "manifest.json").read_text())
                 for out in (out_a, out_b)]
    assert manifests[0]["summary"] == manifests[1]["summary"]
    # the seconds stay out of the summary, one entry per level in timings
    for manifest in manifests:
        for key in ("levels_s", "levels_sweep_s"):
            assert len(manifest["timings"][key]) == len(manifest["summary"]["levels"])


def test_varfit_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the per-axis operators are BLAS products; one thread and the default
    # pool must sum them identically
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    # a varfit run loads no refsol, which only verify-all runs
    code = ("import sys\n"
            "from flowbox.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('flowbox.refsol' in sys.modules)\n"
            "sys.exit(code)\n")
    outs = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        out = tmp_path / f"threads-{threads.get('OPENBLAS_NUM_THREADS', 'default')}"
        done = subprocess.run(
            [sys.executable, "-c", code, "varfit", "--system", "linear-ar",
             "--grid", "4x6x16,1x3x16", "--iterations", "300", "--seed", "3",
             "--out", str(out)],
            capture_output=True, text=True, env={**env, **threads}, timeout=300,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.splitlines()[-1] == "False"
        outs.append(out)
    for name in ("fit_y.csv", "fit_y.csv.json", "fit_flowbox.csv",
                 "fit_flowbox.csv.json", "loss_history.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


REMOVED_FIT_FLAGS = ("--step-size", "--momentum", "--weight-a", "--weight-b")


@pytest.mark.parametrize("option", [
    "--momentum=1.5", "--target=-1", "--target=nan", "--step-size=nan",
    "--step-size=inf", "--weight-a=nan", "--weight-b=inf", "--iterations=0",
    "--seed=-1",
])
def test_varfit_rejects_bad_options(option, tmp_path, capsys):
    argv = [
        "varfit", "--system", "linear-ar", "--grid", "4x6x9,1x3x9",
        "--iterations", "5", option, "--out", str(tmp_path / "out"),
    ]
    flag = option.split("=")[0]
    if flag in REMOVED_FIT_FLAGS:
        # the descent knobs are varfit constants: the parser refuses the flag
        with pytest.raises(SystemExit) as err:
            main(argv)
        code, named = err.value.code, f"unrecognized arguments: {option}"
    else:
        # the error names the field the option sets
        code, named = main(argv), f"flowbox: error: {flag[2:]} "
    assert code == EXIT_USAGE
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_varfit_refuses_the_removed_descent_knobs(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["varfit", "--system", "linear-ar", "--grid", "4x6x9,1x3x9",
            "--iterations", "5", "--out", str(out)]
    # a value the old --momentum accepted
    with pytest.raises(SystemExit) as err:
        main(argv + ["--momentum", "0.5"])
    assert err.value.code == EXIT_USAGE
    assert "unrecognized arguments: --momentum 0.5" in capsys.readouterr().err
    assert not out.exists()
    # and a --config file that still names one
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"step_size": 1.0}))
    assert main(argv + ["--config", str(cfg_path)]) == EXIT_USAGE
    assert "unknown option 'step_size'" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as err:
        main(["varfit", "--help"])
    assert err.value.code == EXIT_OK
    usage = capsys.readouterr().out
    assert "--iterations" in usage and "--target" in usage
    assert not any(flag in usage for flag in REMOVED_FIT_FLAGS)


def test_chart_build_runs_are_byte_identical(tmp_path):
    argv = [
        "chart-build", "--system", "hyperbolic-b", "--surface", "line-b",
        "--grid", "0.8x1.2x4,0.2x0.4x3",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out_a)]) == EXIT_OK
    assert main(argv + ["--out", str(out_b)]) == EXIT_OK
    assert (out_a / "chart_grid.csv").read_bytes() == (out_b / "chart_grid.csv").read_bytes()


def test_chart_build_counts_batched_level_calls(tmp_path):
    # one surface level call per batched step and root iteration, not per lane
    argv = [
        "chart-build", "--system", "hyperbolic-b", "--surface", "line-b",
        "--grid", "0.8x2x24,0.2x1.2x24",
    ]
    counts = []
    for run in ("a", "b"):
        assert main(argv + ["--out", str(tmp_path / run)]) == EXIT_OK
        manifest = json.loads((tmp_path / run / "manifest.json").read_text())
        counts.append(manifest["summary"]["stats"]["evaluate"])
    assert counts[0] == counts[1]
    evaluate = counts[0]
    assert evaluate["level_evals"] / evaluate["level_calls"] > 100
    # three level rows per accepted step (the level and its rate along the
    # flow at the step's end) and a few per root iteration
    assert evaluate["level_evals"] <= 40000
    # each crossing's root find starts at the root of the cubic Hermite
    # through its step's end levels and rates
    assert evaluate["root_iterations"] < 5 * evaluate["crossings_refined"]
    # no orbit of the saddle turns back toward the line, so the crossing
    # search adds no bracket, no step and no field evaluation: the grid's
    # 8391 steps and 104148 rows, and the 16 audit orbits' 215 and 2628
    assert evaluate["accepted_steps"] == 8391 + 215
    assert evaluate["rhs_evals"] == 104148 + 2628


# ---------------------------------------------------------------------------
# config file merging


def test_config_file_supplies_defaults(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "system": "linear-ar",
        "grid": "4x6x10,1x3x10",
        "iterations": 30,
    }))
    code = main(["varfit", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["args"]["iterations"] == 30


def test_config_flag_wins_over_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "system": "linear-ar",
        "grid": "4x6x10,1x3x10",
        "iterations": 30,
    }))
    code = main([
        "varfit", "--config", str(cfg_path), "--iterations", "12",
        "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["args"]["iterations"] == 12


@pytest.mark.parametrize("argv, config", [
    (["varfit"], {"system": "linear-ar", "grid": "4x6x9,1x3x9", "iterations": 5,
                  "seed": 5}),
    (["verify-all", "--filter", "appendix"], {"seed": 5}),
])
def test_config_loses_to_an_explicit_zero(argv, config, tmp_path):
    # 0 is falsy, so a flag set to it must still be told apart from a default
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(argv + ["--config", str(cfg_path), "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["seed"] == 0


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"systm": "linear-ar"}))
    code = main(["varfit", "--config", str(cfg_path), "--grid", "0x1x9,0x1x9"])
    assert code == EXIT_USAGE
    assert "unknown option" in capsys.readouterr().err


def test_config_values_pass_through_option_types(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "system": "linear-ar", "grid": "4x6x9,1x3x9", "iterations": "5",
    }))
    assert main(["varfit", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["args"]["iterations"] == 5
    assert manifest["summary"]["iterations_run"] == 5


@pytest.mark.parametrize("command, config", [
    ("chart-build", {"system": "hyperbolic-b", "surface": "line-b",
                     "grid": "0.8x2x4,0.2x1.2x4", "horizon": "5 s"}),
    ("chart-build", {"system": "hyperbolic-b", "surface": "line-b",
                     "grid": "0.8x2x4,0.2x1.2x4", "force": "yes"}),
    ("kef-check", {"system": "hyperbolic-b", "grid": "0.8x2x4,0.2x1.2x4",
                   "phi": "x2", "eigenvalue": "1", "fd_step": [1e-5]}),
    ("varfit", {"system": "linear-ar", "grid": "4x6x9,1x3x9", "iterations": 5.5}),
    ("verify-all", {"seed": "first"}),
])
def test_config_rejects_values_of_the_wrong_type(command, config, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "flowbox: error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# verify-all


def test_verify_all_single_suite_with_report(tmp_path, capsys):
    code = main([
        "verify-all", "--filter", "appendix", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS  appendix-counterexample:" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert len(report["suites"]) == 1
    assert (tmp_path / "manifest.json").exists()


def test_verify_all_rejects_a_negative_seed(tmp_path, capsys):
    code = main(["verify-all", "--seed", "-1", "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--seed" in captured.err
    assert captured.out == ""  # no suite ran
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", ["--system", "--system-file"])
def test_verify_all_takes_no_system(option, tmp_path, capsys):
    # the suites fix their own systems, so the option would be ignored
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["verify-all", "--filter", "unit-vel", option, "linear-ar",
              "--out", str(out)])
    assert err.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {option}" in captured.err
    assert captured.out == ""  # no suite ran
    assert not out.exists()


def test_verify_all_writes_a_report_only_where_out_says(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify-all", "--filter", "appendix"]) == EXIT_OK
    assert not (tmp_path / "verify_report.json").exists()
    assert main(["verify-all", "--filter", "appendix", "--out", "."]) == EXIT_OK
    assert json.loads((tmp_path / "verify_report.json").read_text())["passed"] is True


def test_verify_all_runs_every_suite(tmp_path, capsys):
    assert main(["verify-all", "--out", str(tmp_path)]) == EXIT_OK
    names = [name for name, _ in cli.VERIFY_SUITES]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [f"PASS  {n}" for n in names]
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert [(r["suite"], len(r["metrics"]["worst_point"])) for r in report["suites"]] \
        == [(n, 2) for n in names]
    timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
    assert set(timings) == {f"{n}_s" for n in names} | {"cpu_s"}
    # every suite reports the work of its integrations, zeros where it has none
    stats = {r["suite"]: r["metrics"]["stats"] for r in report["suites"]}
    assert {tuple(s) for s in stats.values()} == {tuple(dataclasses.asdict(RunStats()))}
    closed_form = ("kpde-residuals", "real-form-identities", "unit-velocity")
    assert [n for n in names if not any(stats[n].values())] == list(closed_form)
    # flowbox-law at seed 0: 2 lanes per chart point, and 1 per pair flow in
    # one block of candidates per map
    assert stats["flowbox-law"]["lanes"] == 2 * 2 * 200 + 8 * 100
    # appendix-counterexample: 32 one-point flows along its orbit
    assert stats["appendix-counterexample"]["lanes"] == 32


def test_every_integrated_lane_is_reported(tmp_path, capsys, monkeypatch):
    # each lane an integration starts is counted in the RunStats a command
    # reports: none is added into a RunStats that a library call drops
    integrated = []
    integrate = odeint._integrate

    def counting(field, x0, *args, **kwargs):
        integrated.append(len(x0))
        return integrate(field, x0, *args, **kwargs)

    monkeypatch.setattr(odeint, "_integrate", counting)
    monkeypatch.setattr(cli, "_available_cpus", lambda: 1)  # suites in process
    runs = {
        "chart": ["chart-build", "--system", "hyperbolic-b", "--surface", "line-b",
                  "--grid", "0.8x1.2x4,0.2x0.4x3"],
        "minimal": ["kef-check", "--system", "hyperbolic-b", "--minimal-set",
                    "--surface", "line-b", "--grid", "0.9x1.1x2,0.2x0.3x2"],
    }
    for name, argv in runs.items():
        integrated.clear()
        assert main(argv + ["--out", str(tmp_path / name)]) == EXIT_OK
        stats = json.loads((tmp_path / name / "manifest.json").read_text())["summary"]["stats"]
        assert sum(integrated) == stats["audit"]["lanes"] + stats["evaluate"]["lanes"] > 0, name
    integrated.clear()
    assert main(["verify-all", "--out", str(tmp_path / "verify")]) == EXIT_OK
    report = json.loads((tmp_path / "verify" / "verify_report.json").read_text())
    assert sum(integrated) == sum(r["metrics"]["stats"]["lanes"] for r in report["suites"]) > 0


def _assert_every_field_row_is_reported(argv, out, monkeypatch):
    calls, rows = [], []
    eval_ = VectorField.eval

    def counting(self, x, check_domain=True):
        calls.append(1)
        rows.append(np.size(x) // self.dim)
        return eval_(self, x, check_domain)

    monkeypatch.setattr(VectorField, "eval", counting)
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    stats = json.loads((out / "manifest.json").read_text())["summary"]["stats"]
    assert len(calls) == stats["audit"]["rhs_calls"] + stats["evaluate"]["rhs_calls"]
    assert sum(rows) == stats["audit"]["rhs_evals"] + stats["evaluate"]["rhs_evals"]


def test_every_field_row_of_a_chart_build_is_reported(tmp_path, monkeypatch):
    # the transversality samples, the recurrence audit and the charted
    # points all add their field calls and rows into the manifest's stats
    _assert_every_field_row_is_reported(
        ["chart-build", "--system", "hyperbolic-b", "--surface", "line-b",
         "--grid", "0.8x1.2x4,0.2x0.4x3"], tmp_path, monkeypatch)


def test_every_field_row_of_a_minimal_set_kef_check_is_reported(tmp_path, monkeypatch):
    # the transversality samples, the charted stencil rows and the field at
    # the grid points all add their field calls and rows into the stats
    _assert_every_field_row_is_reported(
        ["kef-check", "--system", "hyperbolic-b", "--minimal-set", "--surface", "line-b",
         "--grid", "0.8x1.2x4,0.2x0.4x3"], tmp_path, monkeypatch)


@pytest.mark.parametrize("argv", [
    ["chart-build", "--grid", "0.5x2x4,0.5x2x4"],
    ["kef-check", "--minimal-set", "--grid", "1.5x3x4,0.5x2x4"],
], ids=lambda argv: argv[0])
def test_every_field_row_of_a_raising_call_is_reported(argv, tmp_path, monkeypatch):
    # the field raises beyond x1 = 2.5, so the search (and kef-check's field
    # call at the grid points) splits its calls down to the raising rows:
    # each split call's rows count again
    spec = tmp_path / "edge.json"
    spec.write_text(json.dumps({"dim": 2, "components": ["1", "-x2 + 0*sqrt(2.5 - x1)"]}))
    _assert_every_field_row_is_reported(
        [argv[0], "--force", "--system-file", str(spec), "--surface", "line-b", *argv[1:]],
        tmp_path / "out", monkeypatch)


@pytest.mark.parametrize("argv", [
    ["chart-build", "--surface", "line-b", "--grid", "0.8x2x3,0.2x1.2x3"],
    ["kef-check", "--minimal-set", "--surface", "line-b", "--grid", "0.8x2x3,0.2x1.2x3"],
    ["varfit", "--grid", "1x3x9,1x3x9", "--iterations", "10"],
], ids=lambda argv: argv[0])
def test_a_field_error_outside_the_lane_batch_is_a_numerical_failure(argv, tmp_path, capsys):
    # line-b's transversality samples and varfit's grid nodes reach x2 = 2,
    # where the field divides by zero outside any per-point batch
    spec = tmp_path / "pole.json"
    spec.write_text(json.dumps({"name": "pole", "dim": 2, "components": ["1/(x2-2)", "1"]}))
    code = main([argv[0], "--system-file", str(spec), *argv[1:],
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERIC
    assert "flowbox: numerical failure: division by zero" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_all_dispatches_the_slow_suites_longest_first(monkeypatch):
    dispatched = []

    def fork_workers(jobs, order, workers):
        dispatched.extend(jobs[k][0] for k in order)
        return {k: (True, "fine", {}, 0.0) for k in order}, [0] * workers

    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_fork_workers", fork_workers)
    jobs = [(name, fn, 0) for name, fn in cli.VERIFY_SUITES]
    cli._suite_outcomes(jobs)
    slow = list(verify.SLOW_SUITES)
    assert dispatched == slow + [n for n, _, _ in jobs if n not in slow]
    assert slow[-1] == "appendix-counterexample"


def test_verify_suite_names_match_benchmark(monkeypatch):
    # the benchmark counts verify-all suites by these names, in its own file
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as is
    spec.loader.exec_module(workloads)
    assert tuple(workloads.VERIFY_SUITES) == tuple(n for n, _ in cli.VERIFY_SUITES)


def test_verify_all_reports_failures(tmp_path, capsys, monkeypatch):
    def bad_suite(seed=0):
        return False, "synthetic failure", {}

    def crashing_suite(seed=0):
        raise RuntimeError("boom")

    monkeypatch.setattr(
        cli, "VERIFY_SUITES",
        (("bad", bad_suite), ("crash", crashing_suite)),
    )
    code = main(["verify-all", "--out", str(tmp_path)])
    assert code == EXIT_AUDIT
    out = capsys.readouterr().out
    assert "FAIL  bad: synthetic failure" in out
    assert "FAIL  crash: crashed: RuntimeError: boom" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is False


def test_verify_all_gives_each_suite_its_own_seed(capsys, monkeypatch):
    # suites may run in forked workers: each reports its seed on stdout
    def suite(name):
        return name, lambda seed=0: (True, f"seed {seed}", {})

    monkeypatch.setattr(cli, "VERIFY_SUITES", tuple(map(suite, ("ax", "b", "cx"))))
    assert main(["verify-all", "--filter", "x", "--seed", "7"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()[:-1]
    seeds = {line.split()[1].rstrip(":"): int(line.split()[-1]) for line in lines}
    assert seeds == {"ax": 7, "cx": 7 + 2 * cli.STREAM_STRIDE}


def test_verify_all_output_does_not_depend_on_the_worker_count(tmp_path, capsys,
                                                              monkeypatch):
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
        out = tmp_path / str(cpus)
        assert main(["verify-all", "--seed", "3", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        summary = manifest.pop("summary")
        assert summary.pop("workers") == cpus
        assert summary.pop("children_peak_rss_mb") >= 0.0
        assert manifest.pop("peak_rss_mb") > 0.0
        assert manifest.pop("timings")["cpu_s"] >= 0.0
        del manifest["started"], manifest["finished"]
        runs.append((capsys.readouterr().out,
                     (out / "verify_report.json").read_bytes(), summary, manifest))
    assert runs[0] == runs[1]


def _fine(seed=0):
    return True, "fine", {}


def _no_child_left():
    # sees every child of this process, forked by multiprocessing or not
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_all_survives_a_suite_that_kills_its_worker(tmp_path, capsys,
                                                          monkeypatch):
    def slow(seed=0):  # still running when its neighbour's worker dies
        time.sleep(0.2)
        return _fine()

    def dies(seed=0):
        os._exit(3)

    def killed(seed=0):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
    cases = [
        # one worker dies; its suite runs again alone and kills that one too
        ((("a", slow), ("dies", dies), ("b", _fine), ("c", _fine)),
         {"dies": "crashed: worker exited with code 3"}),
        # both workers die, leaving suites no worker took
        ((("a", slow), ("dies", dies), ("b", _fine), ("killed", killed),
          ("c", _fine), ("d", _fine)),
         {"dies": "crashed: worker exited with code 3",
          "killed": "crashed: worker exited with code -9"}),
    ]
    for suites, crashes in cases:
        monkeypatch.setattr(cli, "VERIFY_SUITES", suites)
        clock = time.perf_counter()
        code = main(["verify-all", "--out", str(tmp_path)])
        assert time.perf_counter() - clock < 30.0
        assert code == EXIT_AUDIT
        assert capsys.readouterr().out.splitlines() == [
            f"FAIL  {name}: {crashes[name]}" if name in crashes
            else f"PASS  {name}: fine" for name, _ in suites
        ] + ["verify-all: FAILURES present"]
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert [r["passed"] for r in report["suites"]] == [
            name not in crashes for name, _ in suites]
        _no_child_left()


def test_verify_all_leaves_no_process_behind(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
    monkeypatch.setattr(cli, "VERIFY_SUITES", (("a", _fine), ("b", _fine)))
    assert main(["verify-all"]) == EXIT_OK
    _no_child_left()
    assert gc.get_freeze_count() == 0  # repeated runs pin no garbage


def test_verify_all_imports_no_process_pool():
    # and it imports refsol, which the command line alone does not, before it
    # forks: the workers inherit it rather than each compiling it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from flowbox import cli\n"
        "cli._available_cpus = lambda: 2\n"
        "fork_workers, refsol = cli._fork_workers, ['flowbox.refsol' in sys.modules]\n"
        "def forking(*args):\n"
        "    refsol.append('flowbox.refsol' in sys.modules)\n"
        "    return fork_workers(*args)\n"
        "cli._fork_workers = forking\n"
        "assert cli.main(['verify-all', '--filter', 'i']) == 0\n"
        "print(refsol)\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
        " if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.count("PASS  ") >= 2
    assert done.stdout.splitlines()[-2:] == ["[False, True]", "[]"]


def test_module_runs_as_a_script():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "flowbox.cli", "verify-all", "--filter", "appendix"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == EXIT_OK
    assert "PASS  appendix-counterexample:" in done.stdout


def test_verify_all_no_matching_suite(capsys):
    assert main(["verify-all", "--filter", "zzz"]) == EXIT_OK
    assert "nothing to do" in capsys.readouterr().out
