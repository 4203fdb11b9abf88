"""Command-line front end.

Subcommands: systems-list, chart-build, kef-check, varfit, verify-all.
Every run that writes files also writes a manifest (command, resolved
arguments, config hash, seed, PRNG, timestamps, outputs, summary) so results
can be reproduced byte for byte.

Exit codes: 0 success, 1 usage error, 2 audit or verification failure,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import chart as chart_mod
from . import dynsys
from . import kef as kef_mod
from . import varfit as varfit_mod
from .expressions import ExpressionError, parse_expression
from .odeint import DEFAULT_CONFIG, IntegrationError, IntegratorConfig, RunStats
from .verify import STREAM_STRIDE, VERIFY_SUITES

# importable from here for perfbench's tracer self-test, which patches them
from .fdiff import fd_gradient  # noqa: F401
from .odeint import flow  # noqa: F401

__all__ = [
    "main",
    "entrypoint",
    "parse_grid_spec",
    "parse_eigenvalue",
    "cmd_systems_list",
    "cmd_chart_build",
    "cmd_kef_check",
    "cmd_varfit",
    "cmd_verify_all",
    "VERIFY_SUITES",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2
EXIT_NUMERIC = 3

# orbits chart-build seeds on the surface for the recurrence audit
AUDIT_ORBITS = 16


class UsageError(ValueError):
    pass


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def parse_eigenvalue(text: str) -> complex:
    """Accepts RE, IMi, RE+IMi forms, e.g. '3', '2i', '-0.45+0.19i'."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise UsageError(f"cannot parse eigenvalue {text!r}") from None


def parse_grid_spec(spec: str, dim: int):
    """'LOxHI,...' with a resolution suffix: one trailing xRES applies to all
    axes, or give every axis its own LOxHIxRES.  Returns (box, shape)."""
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != dim:
        raise UsageError(
            f"grid spec {spec!r} lists {len(parts)} axes, need {dim}"
        )
    entries = []
    for part in parts:
        fields = part.split("x")
        if len(fields) not in (2, 3):
            raise UsageError(f"bad grid axis {part!r}; use LOxHI or LOxHIxRES")
        try:
            lo, hi = float(fields[0]), float(fields[1])
            res = int(fields[2]) if len(fields) == 3 else None
        except ValueError:
            raise UsageError(f"bad number in grid axis {part!r}") from None
        if res is not None and res < 1:
            raise UsageError(f"resolution must be >= 1 in {part!r}")
        entries.append((lo, hi, res))
    resolutions = [e[2] for e in entries]
    if all(r is not None for r in resolutions):
        shape = tuple(int(r) for r in resolutions)
    elif resolutions[-1] is not None and all(r is None for r in resolutions[:-1]):
        shape = tuple(int(resolutions[-1]) for _ in entries)
    else:
        raise UsageError(
            f"grid spec {spec!r}: give one trailing resolution or one per axis"
        )
    box = np.array([[lo, hi] for lo, hi, _ in entries])
    return box, shape


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_manifest(out_dir: Path, command: str, args: dict, outputs: list,
                    summary: dict, started: str, seed=None, timings=None) -> Path:
    manifest = {
        "command": command,
        "args": args,
        "config_hash": _config_hash({"command": command, "args": args}),
        "seed": seed,
        "prng": "PCG64",
        "tool_version": __version__,
        "started": started,
        "finished": _now(),
        "outputs": outputs,
        "summary": summary,
    }
    if timings is not None:
        manifest["timings"] = timings
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _resolve_field(system: str | None, system_file: str | None) -> dynsys.VectorField:
    if system_file:
        try:
            with open(system_file) as fh:
                return dynsys.system_from_json(fh.read())
        except (OSError, KeyError, ValueError, ExpressionError) as err:
            raise UsageError(f"cannot load system from {system_file}: {err}")
    if not system:
        raise UsageError("need --system or --system-file")
    try:
        return dynsys.builtin(system)
    except KeyError as err:
        raise UsageError(str(err.args[0]))


def _resolve_surface(spec: str) -> chart_mod.Surface:
    if spec.lstrip().startswith("{"):
        try:
            return chart_mod.surface_from_json(spec)
        except (KeyError, ValueError, ExpressionError) as err:
            raise UsageError(f"bad surface JSON: {err}")
    if os.path.exists(spec):
        try:
            with open(spec) as fh:
                return chart_mod.surface_from_json(fh.read())
        except (OSError, KeyError, ValueError, ExpressionError) as err:
            raise UsageError(f"cannot load surface from {spec}: {err}")
    try:
        return chart_mod.builtin_surface(spec)
    except KeyError as err:
        raise UsageError(str(err.args[0]))


def _grid_points(box: np.ndarray, shape) -> np.ndarray:
    axes = [np.linspace(box[a, 0], box[a, 1], shape[a]) for a in range(len(shape))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _integrator_config(abs_tol, rel_tol, horizon) -> IntegratorConfig:
    return IntegratorConfig(
        abs_tol=abs_tol if abs_tol is not None else DEFAULT_CONFIG.abs_tol,
        rel_tol=rel_tol if rel_tol is not None else DEFAULT_CONFIG.rel_tol,
        max_steps=DEFAULT_CONFIG.max_steps,
        horizon=horizon if horizon is not None else DEFAULT_CONFIG.horizon,
    )


# ---------------------------------------------------------------------------
# systems-list


def cmd_systems_list(name_filter: str = "") -> int:
    names = [n for n in dynsys.builtin_names() if name_filter in n]
    rows = [("name", "dim", "note")]
    for name in names:
        field = dynsys.builtin(name)
        rows.append((name, str(field.dim), field.note))
    widths = [max(len(r[c]) for r in rows) for c in range(3)]
    for row in rows:
        print("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
    return EXIT_OK


# ---------------------------------------------------------------------------
# chart-build


def cmd_chart_build(system, surface_spec, grid_spec, out_dir, force=False,
                    horizon=None, abs_tol=None, rel_tol=None,
                    system_file=None) -> int:
    started = _now()
    field = _resolve_field(system, system_file)
    surface = _resolve_surface(surface_spec)
    box, shape = parse_grid_spec(grid_spec, field.dim)
    cfg = _integrator_config(abs_tol, rel_tol, horizon)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    clock = time.perf_counter()
    audit_stats = RunStats()
    if not force:
        try:
            chart = chart_mod.build_chart(
                field, surface, cfg=cfg, horizon=horizon, audit_transversal=True
            )
        except chart_mod.TransversalityError as err:
            print(f"audit failure: {err}", file=sys.stderr)
            return EXIT_AUDIT
        report = chart_mod.check_nonrecurrent(
            surface, field, n_orbits=AUDIT_ORBITS,
            horizon=chart.horizon, cfg=cfg,
        )
        if report.violations:
            print(
                f"audit failure: {surface.name} is recurrent under {field.name}:"
                f" {len(report.violations)} of {report.tested_points} seeded orbits"
                " crossed more than once",
                file=sys.stderr,
            )
            for x0, times in report.violations[:5]:
                print(
                    f"  orbit through {np.asarray(x0).round(6).tolist()}"
                    f" crossings at t = {[round(t, 6) for t in times]}",
                    file=sys.stderr,
                )
        if report.integration_failures:
            x0, message = report.integration_failures[0]
            print(
                f"audit failure: {len(report.integration_failures)} of"
                f" {report.tested_points} seeded orbits on {surface.name} failed"
                f" under {field.name}; the first, through"
                f" {np.asarray(x0).round(6).tolist()}: {message}",
                file=sys.stderr,
            )
        if report.verdict != "pass":
            return EXIT_AUDIT
        audit_stats = report.stats
    else:
        chart = chart_mod.build_chart(
            field, surface, cfg=cfg, horizon=horizon, audit_transversal=False
        )
    timings = {"audit_s": time.perf_counter() - clock}

    clock = time.perf_counter()
    points = _grid_points(box, shape)
    evaluate_stats = RunStats()
    results = chart_mod.evaluate_grid(chart, points, stats=evaluate_stats)
    timings["evaluate_s"] = time.perf_counter() - clock

    n = field.dim
    header = (
        [f"x{i + 1}" for i in range(n)]
        + [f"h{i + 1}" for i in range(n - 1)]
        + ["m", "status"]
    )
    clock = time.perf_counter()
    csv_path = out / "chart_grid.csv"
    counts: dict = {}
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for point, z, status in results:
            counts[status] = counts.get(status, 0) + 1
            cells = [_fmt(v) for v in point]
            if z is None:
                cells += ["nan"] * n
            else:
                cells += [_fmt(v) for v in z]
            cells.append(status)
            fh.write(",".join(cells) + "\n")

    total = len(results)
    ok = counts.get(chart_mod.STATUS_OK, 0)
    summary = {
        "points": total,
        "ok": ok,
        "ok_fraction": ok / total if total else 0.0,
        "statuses": counts,
        "stats": {
            "audit": dataclasses.asdict(audit_stats),
            "evaluate": dataclasses.asdict(evaluate_stats),
            "evaluate_rhs_evals_per_point": (
                evaluate_stats.rhs_evals / total if total else 0.0
            ),
        },
    }
    args = {
        "system": field.name,
        "surface": surface.name,
        "grid": grid_spec,
        "force": bool(force),
        "horizon": chart.horizon,
        "abs_tol": cfg.abs_tol,
        "rel_tol": cfg.rel_tol,
    }
    timings["write_s"] = time.perf_counter() - clock
    _write_manifest(out, "chart-build", args, [csv_path.name], summary, started,
                    timings=timings)
    print(
        f"chart-build: {ok}/{total} points ok"
        f" ({100.0 * summary['ok_fraction']:.1f}%), wrote {csv_path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# kef-check


def cmd_kef_check(system, grid_spec, out_dir, phi_expr=None, eigenvalue=None,
                  use_minimal_set=False, surface_spec=None, fd_step=1e-5,
                  abs_tol=None, rel_tol=None, horizon=None,
                  system_file=None, force=False) -> int:
    started = _now()
    if not (np.isfinite(fd_step) and fd_step > 0):
        raise UsageError(f"--fd-step must be positive and finite, got {fd_step}")
    field = _resolve_field(system, system_file)
    box, shape = parse_grid_spec(grid_spec, field.dim)
    points = _grid_points(box, shape)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "kef_residuals.csv"
    n = field.dim

    clock = time.perf_counter()
    stats = RunStats()
    if use_minimal_set:
        if not surface_spec:
            raise UsageError("--minimal-set needs --surface")
        surface = _resolve_surface(surface_spec)
        cfg = _integrator_config(abs_tol, rel_tol, horizon)
        try:
            built = chart_mod.build_chart(
                field, surface, cfg=cfg, horizon=horizon,
                audit_transversal=not force,
            )
        except chart_mod.TransversalityError as err:
            print(f"audit failure: {err}", file=sys.stderr)
            return EXIT_AUDIT
        members = kef_mod.minimal_set(built).members
        labels = [member.label for member in members]
        args_extra = {"minimal_set": True, "surface": surface.name}
        timings = {"audit_s": time.perf_counter() - clock}
        clock = time.perf_counter()
        # one batched search charts every member's stencils
        results = kef_mod.kef_residuals(members, field, points, fd_step, stats)
    else:
        if phi_expr is None or eigenvalue is None:
            raise UsageError("need --phi and --lambda (or --minimal-set)")
        node = parse_expression(phi_expr, [f"x{i + 1}" for i in range(n)])

        def phi(x):
            return node.evaluate(tuple(np.asarray(x, dtype=float)))

        labels = [phi_expr]
        args_extra = {"phi": phi_expr, "lambda": str(eigenvalue)}
        timings = {"audit_s": time.perf_counter() - clock}
        clock = time.perf_counter()
        results = [[kef_mod.residual_status(phi, eigenvalue, field, point, fd_step)
                    for point in points]]
    timings["evaluate_s"] = time.perf_counter() - clock

    clock = time.perf_counter()
    header = [f"x{i + 1}" for i in range(n)] + ["member", "re", "im", "status"]
    magnitudes = []
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for label, member_results in zip(labels, results):
            for point, (res, status) in zip(points, member_results):
                if res is None:
                    res = complex(np.nan, np.nan)
                else:
                    magnitudes.append(abs(res))
                cells = [_fmt(v) for v in point]
                cells += [label, _fmt(res.real), _fmt(res.imag), status]
                fh.write(",".join(cells) + "\n")

    summary = {
        "points": len(points),
        "members": len(labels),
        "evaluated": len(magnitudes),
        "max_abs_residual": max(magnitudes) if magnitudes else None,
        "mean_abs_residual": (
            float(np.mean(magnitudes)) if magnitudes else None
        ),
        "fd_step": fd_step,
        "stats": {
            "evaluate": dataclasses.asdict(stats),
            "evaluate_rhs_evals_per_point": (
                stats.rhs_evals / len(points) if len(points) else 0.0
            ),
        },
    }
    args = {"system": field.name, "grid": grid_spec, "fd_step": fd_step}
    args.update(args_extra)
    timings["write_s"] = time.perf_counter() - clock
    _write_manifest(out, "kef-check", args, [csv_path.name], summary, started,
                    timings=timings)
    if magnitudes:
        print(
            f"kef-check: max |residual| = {max(magnitudes):.6g},"
            f" mean = {float(np.mean(magnitudes)):.6g}"
            f" over {len(magnitudes)} evaluations, wrote {csv_path}"
        )
    else:
        print(f"kef-check: no evaluable points, wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# varfit


def cmd_varfit(system, grid_spec, out_dir, iterations=None, seed=None,
               step_size=None, momentum=None, weight_a=None, weight_b=None,
               target=None, system_file=None) -> int:
    started = _now()
    field = _resolve_field(system, system_file)
    box, shape = parse_grid_spec(grid_spec, field.dim)
    given = {
        "step_size": step_size, "momentum": momentum, "iterations": iterations,
        "weight_a": weight_a, "weight_b": weight_b, "seed": seed, "target": target,
    }
    clock = time.perf_counter()
    try:
        cfg = varfit_mod.FitConfig(**{k: v for k, v in given.items() if v is not None})
        result = varfit_mod.fit(field, box, shape, cfg)
    except FloatingPointError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        raise UsageError(str(err))
    timings = {"fit_s": time.perf_counter() - clock}

    clock = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    sidecar = {
        "system": field.name,
        "seed": cfg.seed,
        "iterations": cfg.iterations,
        "step_size": cfg.step_size,
        "momentum": cfg.momentum,
        "weight_a": cfg.weight_a,
        "weight_b": cfg.weight_b,
        "target": cfg.target,
        "final_loss_a": result.loss_a,
        "final_loss_b": result.loss_b,
        "final_total": result.total,
        "converged": result.converged,
    }
    y_csv = out / "fit_y.csv"
    varfit_mod.save_grid(result.grid, y_csv, sidecar=sidecar)
    z_csv = out / "fit_flowbox.csv"
    varfit_mod.save_grid(
        varfit_mod.rotate_to_flowbox(result.grid), z_csv, sidecar=sidecar
    )
    hist_csv = out / "loss_history.csv"
    with open(hist_csv, "w", newline="") as fh:
        fh.write("iteration,total\n")
        for i, v in enumerate(result.history, start=1):
            fh.write(f"{i},{_fmt(v)}\n")

    summary = {
        "converged": result.converged,
        "stalled": result.stalled,
        "iterations_run": result.iterations_run,
        "loss_a": result.loss_a,
        "loss_b": result.loss_b,
        "total": result.total,
        "node_mean_a": [float(v) for v in result.node_mean_a],
        "node_mean_b": result.node_mean_b,
        "unit_mean": [float(v) for v in result.unit_mean],
        "residual_concentration": result.residual_concentration,
        "level_totals": [float(v) for v in result.level_totals],
        "refinement_gain": result.refinement_gain,
        "elevated_residual": result.elevated_residual,
        "message": result.message,
        "stats": dataclasses.asdict(result.stats),
    }
    args = {
        "system": field.name,
        "grid": grid_spec,
        "seed": cfg.seed,
        "iterations": cfg.iterations,
        "step_size": cfg.step_size,
        "momentum": cfg.momentum,
        "weight_a": cfg.weight_a,
        "weight_b": cfg.weight_b,
        "target": cfg.target,
    }
    outputs = [y_csv.name, f"{y_csv.name}.json", z_csv.name,
               f"{z_csv.name}.json", hist_csv.name]
    timings["write_s"] = time.perf_counter() - clock
    _write_manifest(out, "varfit", args, outputs, summary, started, seed=cfg.seed,
                    timings=timings)

    status = "converged" if result.converged else "NOT converged"
    print(
        f"varfit: {status} after {result.iterations_run} iterations;"
        f" node-mean unit-velocity defect = {result.node_mean_a.tolist()},"
        f" node-mean overlap = {result.node_mean_b:.6g}"
    )
    if not result.converged or result.elevated_residual:
        reason = (
            "node-mean targets missed" if not result.converged
            else "residual stuck across grid refinement"
                 f" (gain {result.refinement_gain:.3g})"
        )
        print(
            f"diagnostic: {reason}"
            f" (residual concentration {result.residual_concentration:.3g});"
            " the box may contain a singular set of the analytic coordinates",
            file=sys.stderr,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-all


def cmd_verify_all(name_filter: str = "", out_dir=None, seed: int = 0) -> int:
    started = _now()
    # the k-th suite runs at seed + k * STREAM_STRIDE, filtered or not
    selected = [(name, fn, seed + k * STREAM_STRIDE)
                for k, (name, fn) in enumerate(VERIFY_SUITES) if name_filter in name]
    if not selected:
        print(f"no verify suites match {name_filter!r}; nothing to do")
        return EXIT_OK
    results = []
    timings = {}
    all_ok = True
    for name, fn, suite_seed in selected:
        clock = time.perf_counter()
        try:
            ok, detail, metrics = fn(seed=suite_seed)
        except Exception as err:  # a crashed suite is a failed suite
            ok, detail, metrics = False, f"crashed: {type(err).__name__}: {err}", {}
        timings[f"{name}_s"] = time.perf_counter() - clock
        results.append({"suite": name, "passed": bool(ok), "detail": detail,
                        "metrics": metrics})
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "verify_report.json"
        with open(report_path, "w") as fh:
            json.dump({"passed": all_ok, "suites": results}, fh, indent=2)
            fh.write("\n")
        _write_manifest(
            out, "verify-all", {"filter": name_filter, "seed": seed},
            [report_path.name],
            {"passed": all_ok,
             "failed": [r["suite"] for r in results if not r["passed"]]},
            started, seed=seed, timings=timings,
        )
    print("verify-all: " + ("all suites passed" if all_ok else "FAILURES present"))
    return EXIT_OK if all_ok else EXIT_AUDIT


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowbox", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, whose options type --config

    p_list = sub.add_parser("systems-list", help="list built-in systems")
    p_list.add_argument("--filter", default="", help="substring filter on names")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with default option values")
    common.add_argument("--system", help="built-in system name")
    common.add_argument("--system-file", help="JSON system spec file")
    writes = argparse.ArgumentParser(add_help=False, parents=[common])
    writes.add_argument("--out", default=".", help="output directory")

    p_chart = sub.add_parser(
        "chart-build", parents=[writes],
        help="evaluate flowbox coordinates on a grid via characteristics",
    )
    p_chart.add_argument("--surface", help="built-in surface name, JSON file, or inline JSON")
    p_chart.add_argument("--grid", help="grid spec LOxHI,...xRES")
    p_chart.add_argument("--force", action="store_true",
                         help="skip the transversality/recurrence audits")
    p_chart.add_argument("--horizon", type=float, default=None)
    p_chart.add_argument("--abs-tol", type=float, default=None)
    p_chart.add_argument("--rel-tol", type=float, default=None)

    p_kef = sub.add_parser(
        "kef-check", parents=[writes],
        help="sweep the eigenvalue-PDE residual of a candidate over a grid",
    )
    p_kef.add_argument("--phi", help="candidate eigenfunction expression")
    p_kef.add_argument("--lambda", dest="eigenvalue",
                       help="eigenvalue, e.g. 3 or -0.45+0.19i")
    p_kef.add_argument("--minimal-set", action="store_true",
                       help="check the chart-built minimal set instead of --phi")
    p_kef.add_argument("--surface", help="surface for --minimal-set")
    p_kef.add_argument("--grid", help="grid spec LOxHI,...xRES")
    p_kef.add_argument("--fd-step", type=float, default=None)
    p_kef.add_argument("--force", action="store_true")
    p_kef.add_argument("--horizon", type=float, default=None)
    p_kef.add_argument("--abs-tol", type=float, default=None)
    p_kef.add_argument("--rel-tol", type=float, default=None)

    p_fit = sub.add_parser(
        "varfit", parents=[writes],
        help="fit unit-velocity coordinates on a grid variationally",
    )
    p_fit.add_argument("--grid", help="grid spec LOxHI,...xRES")
    p_fit.add_argument("--iterations", type=int, default=None)
    p_fit.add_argument("--seed", type=int, default=None)
    p_fit.add_argument("--step-size", type=float, default=None)
    p_fit.add_argument("--momentum", type=float, default=None)
    p_fit.add_argument("--weight-a", type=float, default=None)
    p_fit.add_argument("--weight-b", type=float, default=None)
    p_fit.add_argument("--target", type=float, default=None)

    p_verify = sub.add_parser(
        "verify-all", parents=[common],
        help="run the closed-form verification suites",
    )
    p_verify.add_argument("--filter", default="", help="substring filter on suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", help="report directory; no report without it")
    return parser


def _config_value(action: argparse.Action, value, where: str):
    """A --config value as the command line would hand it to the option; a
    flag (store_true) takes only a JSON boolean."""
    try:
        if action.nargs == 0:
            if isinstance(value, bool):
                return value
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            return (action.type or str)(str(value))
    except ValueError:
        pass
    raise UsageError(f"{where}: invalid value {value!r}")


def _merge_config(args: argparse.Namespace, parser: _Parser, argv) -> argparse.Namespace:
    """argv parsed again with the --config values as defaults: given flags win."""
    path = getattr(args, "config", None)
    if not path:
        return args
    command = parser.commands[args.command]
    actions = {a.dest: a for a in command._actions}
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except (OSError, ValueError) as err:
        raise UsageError(f"cannot read config {path}: {err}")
    if not isinstance(overrides, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in actions or not hasattr(args, dest):
            raise UsageError(f"config {path}: unknown option {key!r}")
        command.set_defaults(**{dest: _config_value(actions[dest], value,
                                                    f"config {path}: {key!r}")})
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser, argv)
        if args.command == "systems-list":
            return cmd_systems_list(args.filter)
        if args.command == "chart-build":
            if not args.surface or not args.grid:
                raise UsageError("chart-build needs --surface and --grid")
            return cmd_chart_build(
                args.system, args.surface, args.grid, args.out,
                force=args.force, horizon=args.horizon,
                abs_tol=args.abs_tol, rel_tol=args.rel_tol,
                system_file=args.system_file,
            )
        if args.command == "kef-check":
            if not args.grid:
                raise UsageError("kef-check needs --grid")
            eigenvalue = (
                parse_eigenvalue(args.eigenvalue)
                if args.eigenvalue is not None else None
            )
            return cmd_kef_check(
                args.system, args.grid, args.out,
                phi_expr=args.phi, eigenvalue=eigenvalue,
                use_minimal_set=args.minimal_set, surface_spec=args.surface,
                fd_step=args.fd_step if args.fd_step is not None else 1e-5,
                abs_tol=args.abs_tol, rel_tol=args.rel_tol,
                horizon=args.horizon, system_file=args.system_file,
                force=args.force,
            )
        if args.command == "varfit":
            if not args.grid:
                raise UsageError("varfit needs --grid")
            return cmd_varfit(
                args.system, args.grid, args.out,
                iterations=args.iterations, seed=args.seed,
                step_size=args.step_size, momentum=args.momentum,
                weight_a=args.weight_a, weight_b=args.weight_b,
                target=args.target, system_file=args.system_file,
            )
        if args.command == "verify-all":
            return cmd_verify_all(args.filter, out_dir=args.out, seed=args.seed)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as err:
        print(f"flowbox: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationError as err:
        print(f"flowbox: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except FloatingPointError as err:
        print(f"flowbox: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
