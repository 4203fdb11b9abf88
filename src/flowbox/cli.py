"""Command-line front end.

Subcommands: systems-list, chart-build, kef-check, varfit, verify-all.
Every run that writes files also writes a manifest (command, resolved
arguments, config hash, seed, PRNG, timestamps, outputs, summary, peak
resident set) so results can be reproduced byte for byte.  A run refused on
usage or by an audit writes nothing.

Exit codes: 0 success, 1 usage error, 2 audit or verification failure,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import gc
import json
import os
import pickle
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from . import __version__
from . import chart as chart_mod
from . import dynsys
from . import kef as kef_mod
from .expressions import ExpressionError, parse_expression
from .odeint import DEFAULT_CONFIG, IntegrationError, RunStats
from .verify import SLOW_SUITES, STREAM_STRIDE, VERIFY_SUITES

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
# every number a CSV output writes: format(v, ".17g") for a float v, "nan" included
_NUMBER = "%.17g"
# IntegratorConfig fields chart-build and kef-check take from the command line
INTEGRATOR_OPTIONS = ("horizon", "abs_tol", "rel_tol")
# FitConfig fields varfit takes from the command line and records
FIT_OPTIONS = ("iterations", "seed", "target")


class UsageError(ValueError):
    pass


class AuditFailure(Exception):
    """An audit refused the run: main prints 'audit failure: <message>' and
    exits with EXIT_AUDIT."""


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
        if not np.isfinite([lo, hi]).all():
            raise UsageError(f"grid bounds must be finite in {part!r}")
        if lo >= hi:
            raise UsageError(f"box must have lo < hi on every axis, got {part!r}")
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
    """CRC-32 of the payload's canonical JSON: a run fingerprint, not a
    security digest (zlib is already loaded by numpy; hashlib maps libcrypto)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(blob.encode()), "08x")


def _peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process so far, or with `children` of the
    largest child process reaped so far; 0.0 where the platform has no
    getrusage."""
    try:
        import resource
    except ImportError:  # Windows, which has no fork either
        return 0.0
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _write_manifest(out: Path, command: str, args: dict, outputs: list,
                    summary: dict, started: str, seed=None, timings=None) -> None:
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
        "peak_rss_mb": _peak_rss_mb(),
    }
    if timings is not None:
        manifest["timings"] = timings
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(path) -> Path:
    """The output directory, made only once a run has an output to write."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_field(args) -> dynsys.VectorField:
    if args.system_file:
        try:
            return dynsys.system_from_json(Path(args.system_file).read_text())
        except (OSError, KeyError, ValueError) as err:
            raise UsageError(f"cannot load system from {args.system_file}: {err}")
    if not args.system:
        raise UsageError("need --system or --system-file")
    try:
        return dynsys.builtin(args.system)
    except KeyError as err:
        raise UsageError(str(err.args[0]))


def _resolve_surface(spec: str) -> chart_mod.Surface:
    """A built-in surface by name, else inline JSON or a JSON file."""
    inline = spec.lstrip().startswith("{")
    if not (inline or os.path.exists(spec)):
        try:
            return chart_mod.builtin_surface(spec)
        except KeyError as err:
            raise UsageError(str(err.args[0]))
    try:
        return chart_mod.surface_from_json(spec if inline else Path(spec).read_text())
    except (OSError, KeyError, ValueError) as err:
        raise UsageError(f"bad surface {'JSON' if inline else spec}: {err}")


def _grid_points(args, field) -> np.ndarray:
    """The --grid nodes as rows, the first axis outermost."""
    box, shape = parse_grid_spec(args.grid, field.dim)
    axes = [np.linspace(box[a, 0], box[a, 1], shape[a]) for a in range(len(shape))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _audited_chart(args, field, audit: RunStats) -> tuple:
    """(chart, options) of the field through --surface.

    The integrator takes --horizon/--abs-tol/--rel-tol over the defaults, and
    a value it rejects is a usage error.  Unless --force, build_chart samples
    transversality, its field call added into `audit`, and a refusal raises
    AuditFailure; chart-build's recurrence audit rides in its grid's search.
    `options` holds the resolved values every manifest of a chart records.
    """
    surface = _resolve_surface(args.surface)
    if surface.dim != field.dim:
        raise UsageError(f"surface {surface.name} has dim {surface.dim},"
                         f" system {field.name} has dim {field.dim}")
    given = {k: getattr(args, k) for k in INTEGRATOR_OPTIONS}
    try:
        cfg = dataclasses.replace(
            DEFAULT_CONFIG, **{k: v for k, v in given.items() if v is not None})
    except ValueError as err:
        raise UsageError(str(err))
    try:
        chart = chart_mod.build_chart(field, surface, cfg=cfg,
                                      audit_transversal=not args.force, stats=audit)
    except chart_mod.ChartError as err:  # tangent or degenerate at a sample
        raise AuditFailure(str(err))
    options = {"surface": surface.name, "force": bool(args.force),
               **{k: getattr(cfg, k) for k in INTEGRATOR_OPTIONS}}
    return chart, options


def _stats_summary(audit: RunStats, evaluate: RunStats, points: int) -> dict:
    """The manifest's summary.stats of a charting command that searched
    `points` points (chart-build's grid and audit seeds, kef-check's grid)."""
    return {
        "audit": dataclasses.asdict(audit),
        "evaluate": dataclasses.asdict(evaluate),
        "evaluate_rhs_evals_per_point": evaluate.rhs_evals / points if points else 0.0,
    }


def _recurrence_failure(report, surface, field) -> str:
    lines = []
    if report.violations:
        lines.append(
            f"{surface.name} is recurrent under {field.name}:"
            f" {len(report.violations)} of {report.tested_points} seeded orbits"
            " crossed more than once"
        )
        lines += [f"  orbit through {np.asarray(x0).round(6).tolist()}"
                  f" crossings at t = {[round(t, 6) for t in times]}"
                  for x0, times in report.violations[:5]]
    if report.integration_failures:
        x0, message = report.integration_failures[0]
        lines.append(
            ("audit failure: " if lines else "")
            + f"{len(report.integration_failures)} of {report.tested_points}"
            f" seeded orbits on {surface.name} failed under {field.name};"
            f" the first, through {np.asarray(x0).round(6).tolist()}: {message}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# systems-list


def cmd_systems_list(args) -> int:
    names = [n for n in dynsys.builtin_names() if args.filter in n]
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


def cmd_chart_build(args) -> int:
    started = _now()
    field = _resolve_field(args)
    points = _grid_points(args, field)

    clock = time.perf_counter()
    audit_stats, evaluate_stats = RunStats(), RunStats()
    chart, options = _audited_chart(args, field, audit_stats)
    timings = {"audit_s": time.perf_counter() - clock}

    # the recurrence audit's orbits ride first in the grid's batch, and their
    # verdict is judged before any grid point's
    clock = time.perf_counter()
    report, found = chart_mod._audited_search(
        chart, points, 0 if args.force else AUDIT_ORBITS, evaluate_stats)
    if report.verdict != "pass":
        raise AuditFailure(_recurrence_failure(report, chart.surface, field))
    z, status = chart_mod.evaluate_grid(chart, points, found=found)
    timings["evaluate_s"] = time.perf_counter() - clock

    n = field.dim
    header = ([f"x{i + 1}" for i in range(n)] + [f"h{i + 1}" for i in range(n - 1)]
              + ["m", "status"])
    clock = time.perf_counter()
    out = _out_dir(args.out)
    csv_path = out / "chart_grid.csv"
    # statuses in order of first appearance
    labels, first, tally = np.unique(status, return_index=True, return_counts=True)
    counts = {labels[k]: int(tally[k]) for k in np.argsort(first)}
    row = ",".join([_NUMBER] * (2 * n) + ["%s"]) + "\n"
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % (*cells, label) for cells, label
                      in zip(np.concatenate([points, z], axis=1).tolist(), status))

    total = len(points)
    ok = counts.get(chart_mod.STATUS_OK, 0)
    summary = {
        "points": total,
        "ok": ok,
        "ok_fraction": ok / total if total else 0.0,
        "statuses": counts,
        "stats": _stats_summary(audit_stats, evaluate_stats, total + report.tested_points),
    }
    recorded = {"system": field.name, "grid": args.grid, **options}
    timings["write_s"] = time.perf_counter() - clock
    _write_manifest(out, "chart-build", recorded, [csv_path.name], summary, started,
                    timings=timings)
    print(
        f"chart-build: {ok}/{total} points ok"
        f" ({100.0 * summary['ok_fraction']:.1f}%), wrote {csv_path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# kef-check


def cmd_kef_check(args) -> int:
    started = _now()
    fd_step = args.fd_step
    if not (np.isfinite(fd_step) and fd_step > 0):
        raise UsageError(f"--fd-step must be positive and finite, got {fd_step}")
    # each mode reads only its own options: refuse the other mode's
    if args.minimal_set:
        mode, foreign = "--minimal-set", {"phi": args.phi, "lambda": args.eigenvalue}
    else:
        mode = "--phi"
        foreign = {k: getattr(args, k) for k in ("surface",) + INTEGRATOR_OPTIONS}
        foreign["force"] = args.force or None
    ignored = [f"--{k.replace('_', '-')}" for k, v in foreign.items() if v is not None]
    if ignored:
        raise UsageError(f"{mode} mode does not take {', '.join(ignored)}")
    field = _resolve_field(args)
    points = _grid_points(args, field)
    recorded = {"system": field.name, "grid": args.grid, "fd_step": fd_step}
    n = field.dim

    clock = time.perf_counter()
    audit, stats = RunStats(), RunStats()
    if args.minimal_set:
        if not args.surface:
            raise UsageError("--minimal-set needs --surface")
        built, options = _audited_chart(args, field, audit)
        members = kef_mod.minimal_set(built).members
        labels = [member.label for member in members]
        recorded.update({"minimal_set": True, **options})
        timings = {"audit_s": time.perf_counter() - clock}
        clock = time.perf_counter()
        # one batched search charts every member's stencils
        residuals, status = kef_mod.kef_residuals(members, field, points, fd_step, stats)
    else:
        if args.phi is None or args.eigenvalue is None:
            raise UsageError("need --phi and --lambda (or --minimal-set)")
        eigenvalue = parse_eigenvalue(args.eigenvalue)
        try:
            node = parse_expression(args.phi, [f"x{i + 1}" for i in range(n)])
        except ExpressionError as err:
            raise UsageError(f"bad --phi: {err}")

        labels = [args.phi]
        recorded.update({"phi": args.phi, "lambda": str(eigenvalue)})
        timings = {"audit_s": time.perf_counter() - clock}
        clock = time.perf_counter()
        residuals, status = kef_mod.phi_residuals(  # over columns, constants broadcast
            lambda rows: np.broadcast_to(node.evaluate(tuple(rows.T)), rows.shape[:-1]),
            eigenvalue, field, points, fd_step)
        residuals = residuals[None]  # one member
    timings["evaluate_s"] = time.perf_counter() - clock

    clock = time.perf_counter()
    out = _out_dir(args.out)
    csv_path = out / "kef_residuals.csv"
    header = [f"x{i + 1}" for i in range(n)] + ["member", "re", "im", "status"]
    row = ",".join([_NUMBER] * n + ["%s", _NUMBER, _NUMBER, "%s"]) + "\n"
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for label, member_residuals in zip(labels, residuals):
            for point, res, st in zip(points.tolist(), member_residuals, status):
                fh.write(row % (*point, label, res.real, res.imag, st))
    magnitudes = np.abs(residuals[:, status == chart_mod.STATUS_OK]).ravel()
    worst = float(np.max(magnitudes)) if magnitudes.size else None
    mean = float(np.mean(magnitudes)) if magnitudes.size else None

    summary = {
        "points": len(points),
        "members": len(labels),
        "evaluated": magnitudes.size,
        "max_abs_residual": worst,
        "mean_abs_residual": mean,
        "fd_step": fd_step,
        "stats": _stats_summary(audit, stats, len(points)),
    }
    timings["write_s"] = time.perf_counter() - clock
    _write_manifest(out, "kef-check", recorded, [csv_path.name], summary, started,
                    timings=timings)
    if magnitudes.size:
        print(f"kef-check: max |residual| = {worst:.6g}, mean = {mean:.6g}"
              f" over {magnitudes.size} evaluations, wrote {csv_path}")
    else:
        print(f"kef-check: no evaluable points, wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# varfit


def cmd_varfit(args) -> int:
    from . import varfit as varfit_mod  # only this command runs it
    started = _now()
    field = _resolve_field(args)
    box, shape = parse_grid_spec(args.grid, field.dim)
    given = {k: getattr(args, k) for k in FIT_OPTIONS}
    clock = time.perf_counter()
    try:
        cfg = varfit_mod.FitConfig(**{k: v for k, v in given.items() if v is not None})
        result = varfit_mod.fit(field, box, shape, cfg)
    except ValueError as err:
        raise UsageError(str(err))
    timings = {"fit_s": time.perf_counter() - clock,
               "levels_s": list(result.level_seconds),
               "levels_sweep_s": list(result.level_sweep_seconds)}

    clock = time.perf_counter()
    out = _out_dir(args.out)
    options = {"system": field.name, **{k: getattr(cfg, k) for k in FIT_OPTIONS}}
    sidecar = {
        **options,
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
            fh.write(f"{i},{_NUMBER % v}\n")

    summary = {k: getattr(result, k) for k in (
        "converged", "stalled", "iterations_run", "loss_a", "loss_b", "total",
        "node_mean_b", "residual_concentration", "refinement_gain", "gain_tol",
        "elevated_residual", "message")}
    summary.update({k: [float(v) for v in getattr(result, k)]
                    for k in ("node_mean_a", "unit_mean", "level_totals")})
    summary["level_iterations"] = list(result.level_iterations)
    summary["level_stats"] = {k: [getattr(s, k) for s in result.level_stats]
                              for k in dataclasses.asdict(result.stats)}
    summary["stats"] = dataclasses.asdict(result.stats)
    outputs = [y_csv.name, f"{y_csv.name}.json", z_csv.name,
               f"{z_csv.name}.json", hist_csv.name]
    timings["write_s"] = time.perf_counter() - clock
    _write_manifest(out, "varfit", {"grid": args.grid, **options}, outputs, summary,
                    started, seed=cfg.seed, timings=timings)

    status = "converged" if result.converged else "NOT converged"
    print(
        f"varfit: {status} after {result.iterations_run} of {cfg.iterations}"
        " iterations;"
        f" node-mean unit-velocity defect = {result.node_mean_a.tolist()},"
        f" node-mean overlap = {result.node_mean_b:.6g}"
    )
    if result.message.startswith(varfit_mod.TARGET_MET) and not result.converged:
        print(
            f"diagnostic: the fit stopped at --target {cfg.target:g}, above the"
            " node-mean tolerance (residual concentration"
            f" {result.residual_concentration:.3g})",
            file=sys.stderr,
        )
    elif not result.converged or result.elevated_residual:
        reason = (
            "node-mean defects above tolerance" if not result.converged
            else "residual stuck across grid refinement (gain"
                 f" {result.refinement_gain:.3g} below the mesh-width ratio"
                 f" {result.gain_tol:.3g})"
        )
        print(
            f"diagnostic: {reason}"
            f" (residual concentration {result.residual_concentration:.3g});"
            " the box may contain a singular set of the analytic coordinates",
            file=sys.stderr,
        )
    if result.elevated_residual is None:
        print(
            "diagnostic: the refinement gain could not be judged on this"
            f" {len(result.level_totals)}-level ladder (a verdict needs three"
            " levels): an obstruction inside the box would pass unflagged",
            file=sys.stderr,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-all


def _run_job(job) -> tuple:
    """(ok, detail, metrics, seconds) of one (name, fn, seed) suite."""
    _, fn, seed = job
    clock = time.perf_counter()
    try:
        ok, detail, metrics = fn(seed=seed)
    except Exception as err:  # a crashed suite is a failed suite
        ok, detail, metrics = False, f"crashed: {type(err).__name__}: {err}", {}
    return ok, detail, metrics, time.perf_counter() - clock


def _available_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _work(jobs, tasks: int, results: int, worker: int) -> None:
    """A forked worker, which never returns: it runs the suites whose indices
    it reads from the task pipe, on a CPU of its own (left free, two workers on
    a 2-CPU VM often shared one: verify-all 0.27 s median, against 0.18 s)."""
    code = 1
    try:
        if hasattr(os, "sched_setaffinity"):
            allowed = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {allowed[worker % len(allowed)]})
        with open(results, "wb") as pipe:
            # a one-byte pipe read is atomic, so each index reaches one worker
            while task := os.read(tasks, 1):
                pickle.dump((task[0], _run_job(jobs[task[0]])), pipe)
                pipe.flush()
        code = 0
    finally:
        os._exit(code)  # never unwind into the parent's stack


def _fork_workers(jobs, order, workers: int) -> tuple:
    """({k: outcome} of the suites whose results came back, [wait status of
    each worker]) once `workers` forked workers have run the suites `order`."""
    tasks, feed = os.pipe()
    os.write(feed, bytes(order))  # one byte per suite index
    os.close(feed)  # so the workers read EOF once every index is taken
    children = []
    # the collector leaves frozen objects alone, so the heap pages the
    # workers inherit stay shared
    gc.freeze()
    try:
        for worker in range(workers):
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(jobs, tasks, writer, worker)
            os.close(writer)
            children.append((pid, reader))
    finally:
        gc.unfreeze()  # repeated in-process runs must not pin garbage
        os.close(tasks)
    outcomes, statuses = {}, []
    for pid, reader in children:
        with open(reader, "rb") as pipe:
            while True:
                try:
                    k, outcome = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # the end, or a death
                    break
                outcomes[k] = outcome
        statuses.append(os.waitpid(pid, 0)[1])
    return outcomes, statuses


def _suite_outcomes(jobs) -> tuple:
    """(_run_job's outcome for every job, in declared order; workers used).
    One forked worker per available CPU, at most one per suite; in process on
    a single CPU or without fork."""
    workers = min(len(jobs), _available_cpus())
    if workers < 2 or not hasattr(os, "fork"):
        return list(map(_run_job, jobs)), 1
    # every suite reads the closed forms: compiled once here, the forked
    # workers inherit them
    from . import refsol  # noqa: F401
    # longest suites first: in declared order two slow ones could end on one
    # worker while the other idles (0.23 s median against 0.18 s)
    rank = {name: i for i, name in enumerate(SLOW_SUITES)}
    order = sorted(range(len(jobs)), key=lambda k: rank.get(jobs[k][0], len(rank)))
    outcomes, _ = _fork_workers(jobs, order, workers)
    # a suite whose worker died runs again alone, and crashes only if it
    # kills that worker too
    for k in sorted(set(range(len(jobs))) - outcomes.keys()):
        clock = time.perf_counter()
        again, (status,) = _fork_workers(jobs, [k], 1)
        detail = f"crashed: worker exited with code {os.waitstatus_to_exitcode(status)}"
        outcomes[k] = again.get(k) or (False, detail, {}, time.perf_counter() - clock)
    return [outcomes[k] for k in range(len(jobs))], workers


def cmd_verify_all(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    started = _now()
    cpu = os.times()
    # the k-th suite runs at seed + k * STREAM_STRIDE, filtered or not
    selected = [(name, fn, args.seed + k * STREAM_STRIDE)
                for k, (name, fn) in enumerate(VERIFY_SUITES) if args.filter in name]
    if not selected:
        print(f"no verify suites match {args.filter!r}; nothing to do")
        return EXIT_OK
    outcomes, workers = _suite_outcomes(selected)
    results = []
    timings = {}
    all_ok = True
    for (name, _, _), (ok, detail, metrics, seconds) in zip(selected, outcomes):
        timings[f"{name}_s"] = seconds
        results.append({"suite": name, "passed": bool(ok), "detail": detail,
                        "metrics": metrics})
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    if args.out is not None:
        out = _out_dir(args.out)
        report_path = out / "verify_report.json"
        with open(report_path, "w") as fh:
            json.dump({"passed": all_ok, "suites": results}, fh, indent=2)
            fh.write("\n")
        # user + system seconds of this process and of its reaped workers
        timings["cpu_s"] = sum(os.times()[:4]) - sum(cpu[:4])
        _write_manifest(
            out, "verify-all", {"filter": args.filter, "seed": args.seed},
            [report_path.name],
            {"passed": all_ok,
             "failed": [r["suite"] for r in results if not r["passed"]],
             "workers": workers,
             "children_peak_rss_mb": _peak_rss_mb(children=True)},
            started, seed=args.seed, timings=timings,
        )
    print("verify-all: " + ("all suites passed" if all_ok else "FAILURES present"))
    return EXIT_OK if all_ok else EXIT_AUDIT


# ---------------------------------------------------------------------------
# argument plumbing

# command -> (its function of the parsed options, options it cannot run without)
COMMANDS = {
    "systems-list": (cmd_systems_list, ()),
    "chart-build": (cmd_chart_build, ("surface", "grid")),
    "kef-check": (cmd_kef_check, ("grid",)),
    "varfit": (cmd_varfit, ("grid",)),
    "verify-all": (cmd_verify_all, ()),
}


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

    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", help="JSON file with default option values")
    common = argparse.ArgumentParser(add_help=False, parents=[configured])
    common.add_argument("--system", help="built-in system name")
    common.add_argument("--system-file", help="JSON system spec file")
    writes = argparse.ArgumentParser(add_help=False, parents=[common])
    writes.add_argument("--out", default=".", help="output directory")
    writes.add_argument("--grid", help="grid spec LOxHI,...xRES")
    charts = argparse.ArgumentParser(add_help=False)
    charts.add_argument("--surface", help="built-in surface name, JSON file, or inline JSON")
    charts.add_argument("--force", action="store_true", help="skip the surface audits")
    for name in INTEGRATOR_OPTIONS:
        charts.add_argument("--" + name.replace("_", "-"), type=float, default=None)

    sub.add_parser(
        "chart-build", parents=[writes, charts],
        help="evaluate flowbox coordinates on a grid via characteristics",
    )

    p_kef = sub.add_parser(
        "kef-check", parents=[writes, charts],
        help="sweep the eigenvalue-PDE residual of a candidate over a grid",
    )
    p_kef.add_argument("--phi", help="candidate eigenfunction expression")
    p_kef.add_argument("--lambda", dest="eigenvalue",
                       help="eigenvalue, e.g. 3 or -0.45+0.19i")
    p_kef.add_argument("--minimal-set", action="store_true",
                       help="check the chart-built minimal set (needs --surface)"
                            " instead of --phi")
    p_kef.add_argument("--fd-step", type=float, default=1e-5)

    p_fit = sub.add_parser(
        "varfit", parents=[writes],
        help="fit unit-velocity coordinates on a grid variationally",
    )
    p_fit.add_argument("--iterations", type=int, help="step budget over all grid levels")
    p_fit.add_argument("--seed", type=int, help="seed of the random-affine start")
    p_fit.add_argument("--target", type=float,
                       help="stop once both node-mean defects are at or below it")

    p_verify = sub.add_parser(
        "verify-all", parents=[configured],
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
        command, required = COMMANDS[args.command]
        missing = [f"--{name}" for name in required if not getattr(args, name)]
        if missing:
            raise UsageError(f"{args.command} needs {' and '.join(missing)}")
        return command(args)
    except UsageError as err:
        print(f"flowbox: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except AuditFailure as err:
        print(f"audit failure: {err}", file=sys.stderr)
        return EXIT_AUDIT
    except (IntegrationError, ArithmeticError) as err:
        print(f"flowbox: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
