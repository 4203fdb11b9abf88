"""Per-layer metrics from one traced run.

A layer's time is the summed duration of its outermost spans, so a layer
that re-enters itself (fd_gradient inside a chart point inside fd_gradient)
is not counted twice.  Self time is a span's duration minus the time its
child spans cover.  `_tail` metrics are the highest of TAIL_PERCENTILES with
at least ten samples beyond it; the matching `_tail_pct` metric says which.
"""
from __future__ import annotations

import math

from workloads import VERIFY_SUITES, saddle_closed_form

TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
SADDLE_CHARTS = {("hyperbolic-b", "line-b"), ("saddle-json", "line-json")}

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "dynsys.eval_calls": "count",
    "dynsys.eval_s": "s",
    "expressions.evaluate_calls": "count",
    "expressions.evaluate_s": "s",
    "odeint.find_crossings_calls": "count",
    "odeint.find_crossings_s": "s",
    "odeint.crossing_ms_p50": "ms",
    "odeint.crossing_ms_tail": "ms",
    "odeint.crossing_tail_pct": "%",
    "odeint.rhs_per_crossing": "count",
    "odeint.sweep_rhs": "count",
    "odeint.refine_rhs": "count",
    "odeint.sweep_ms": "ms",
    "odeint.refine_ms": "ms",
    "odeint.flow_calls": "count",
    "odeint.flow_s": "s",
    "chart.point_calls": "count",
    "chart.point_ms_p50": "ms",
    "chart.point_ms_tail": "ms",
    "chart.point_tail_pct": "%",
    "chart.max_err": "1",
    "chart.audit_s": "s",
    "chart.audit_orbits": "count",
    "kef.residual_calls": "count",
    "kef.residual_ms_p50": "ms",
    "kef.residual_ms_tail": "ms",
    "kef.residual_tail_pct": "%",
    "kef.points_per_residual": "count",
    "kef.max_abs_residual": "1",
    "fdiff.gradient_calls": "count",
    "fdiff.jacobian_calls": "count",
    "fdiff.gradient_s": "s",
    "varfit.fit_s": "s",
    "varfit.iterations_run": "count",
    "varfit.iter_ms": "ms",
    "varfit.diff_axis_calls": "count",
    "varfit.diff_axis_s": "s",
    "varfit.diff_axis_T_calls": "count",
    "varfit.diff_axis_T_s": "s",
    "varfit.final_total": "1",
    "varfit.node_mean_a_max": "1",
    "varfit.loss_gradient_ms": "ms",
    "varfit.loss_ms": "ms",
    **{f"cli.suite.{name}_s": "s" for name in VERIFY_SUITES},
    "cli.overhead_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}

# the counts that must repeat exactly between traced runs of one input
EXACT_COUNTS = (
    "dynsys.eval_calls",
    "odeint.find_crossings_calls",
    "kef.points_per_residual",
    "varfit.diff_axis_calls",
    "varfit.iterations_run",
    "cli.output_bytes",
)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def self_times(spans) -> list:
    out = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _has_ancestor(spans, index, name) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _outermost_seconds(spans, indices, name) -> float:
    return sum(spans[i][2] - spans[i][1] for i in indices
               if not _has_ancestor(spans, i, name))


def _timing(metrics, spans, indices, prefix):
    ms = [1e3 * (spans[i][2] - spans[i][1]) for i in indices]
    pct = tail_percentile(len(ms))
    metrics[f"{prefix}_ms_p50"] = percentile(ms, 50.0) if ms else 0.0
    metrics[f"{prefix}_ms_tail"] = percentile(ms, pct) if ms else 0.0
    metrics[f"{prefix}_tail_pct"] = pct


def layer_metrics(trace: dict, untraced_wall_s: float, output_bytes: int,
                  oracle=saddle_closed_form) -> dict:
    """Every LAYER_METRICS value; layers a workload never enters read 0."""
    spans = trace["spans"]
    counts, seconds = trace["counts"], trace["seconds"]
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def named(name):
        return by_name.get(name, [])

    m = {name: 0.0 for name in LAYER_METRICS}
    m["dynsys.eval_calls"] = counts["dynsys.eval"]
    m["dynsys.eval_s"] = seconds["dynsys.eval"]
    m["expressions.evaluate_calls"] = counts["expressions.evaluate"]
    m["expressions.evaluate_s"] = seconds["expressions.evaluate"]
    for key in ("diff_axis", "diff_axis_T"):
        m[f"varfit.{key}_calls"] = counts[f"varfit.{key}"]
        m[f"varfit.{key}_s"] = seconds[f"varfit.{key}"]

    crossings = named("odeint.find_crossings")
    m["odeint.find_crossings_calls"] = len(crossings)
    m["odeint.find_crossings_s"] = _outermost_seconds(spans, crossings, "odeint.find_crossings")
    _timing(m, spans, crossings, "odeint.crossing")
    if crossings:
        m["odeint.rhs_per_crossing"] = sum(spans[i][4] for i in crossings) / len(crossings)

    flows = named("odeint.flow")
    m["odeint.flow_calls"] = len(flows)
    m["odeint.flow_s"] = _outermost_seconds(spans, flows, "odeint.flow")

    points = named("chart.point")
    m["chart.point_calls"] = len(points)
    _timing(m, spans, points, "chart.point")
    for i in points:
        attrs = spans[i][5]
        if attrs and (attrs["system"], attrs["surface"]) in SADDLE_CHARTS:
            h, mm = oracle(*attrs["x"])
            err = max(abs(attrs["z"][0] - h), abs(attrs["z"][1] - mm))
            m["chart.max_err"] = max(m["chart.max_err"], err)

    audits = named("chart.audit")
    m["chart.audit_s"] = _outermost_seconds(spans, audits, "chart.audit")
    m["chart.audit_orbits"] = sum((spans[i][5] or {}).get("orbits", 0) for i in audits)

    residuals = named("kef.residual")
    m["kef.residual_calls"] = len(residuals)
    _timing(m, spans, residuals, "kef.residual")
    if residuals:
        inside = sum(1 for i in points if _has_ancestor(spans, i, "kef.residual"))
        m["kef.points_per_residual"] = inside / len(residuals)
        m["kef.max_abs_residual"] = max(
            (spans[i][5]["abs"] for i in residuals if spans[i][5] is not None),
            default=0.0)

    gradients = named("fdiff.gradient")
    m["fdiff.gradient_calls"] = len(gradients)
    m["fdiff.jacobian_calls"] = len(named("fdiff.jacobian"))
    m["fdiff.gradient_s"] = _outermost_seconds(spans, gradients, "fdiff.gradient")

    fits = named("varfit.fit")
    if fits:
        m["varfit.fit_s"] = _outermost_seconds(spans, fits, "varfit.fit")
        done = [spans[i][5] for i in fits if spans[i][5] is not None]
        m["varfit.iterations_run"] = sum(a["iterations_run"] for a in done)
        if m["varfit.iterations_run"]:
            m["varfit.iter_ms"] = 1e3 * m["varfit.fit_s"] / m["varfit.iterations_run"]
        if done:
            m["varfit.final_total"] = done[-1]["total"]
            m["varfit.node_mean_a_max"] = done[-1]["node_mean_a_max"]

    for name in VERIFY_SUITES:
        key = f"cli.suite.{name}"
        m[f"{key}_s"] = _outermost_seconds(spans, named(key), key)

    root = named("cli.main")[0]
    m["cli.overhead_s"] = self_times(spans)[root]
    m["cli.output_bytes"] = output_bytes
    m["trace.overhead_s"] = (spans[root][2] - spans[root][1]) - untraced_wall_s
    m.update(trace["probes"])
    return m
