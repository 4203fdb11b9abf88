"""Layer probes run in the traced workload process after main returns.

Crossing probe: on the seeded points the benchmark generated, one
`trace_orbit` over +horizon and one over -horizon (a `DomainExit` carries
the samples, so it ends the sweep) is the sweep; `find_crossings` on the
same point minus that is refinement plus event building.

Loss probe: one `loss` and one `loss_gradient` on the grid the workload just
fitted.
"""
from __future__ import annotations

import statistics
import time
from pathlib import Path

perf_counter = time.perf_counter
LOSS_REPEATS = 30


def _field_and_surface(spec):
    from flowbox import chart, dynsys

    if "system_json" in spec:
        field = dynsys.system_from_json(spec["system_json"])
    else:
        field = dynsys.builtin(spec["system"])
    if "surface_json" in spec:
        surface = chart.surface_from_json(spec["surface_json"])
    elif "segment" in spec:
        value, lo, hi = spec["segment"]
        surface = chart.line_surface(value, lo, hi, axis=0)
    else:
        surface = chart.builtin_surface(spec["surface"])
    return field, surface


def crossing_probe(field, surface, points, horizon=None) -> dict:
    """Per point: RHS evaluations and milliseconds of sweep and refinement."""
    import numpy as np

    from flowbox.dynsys import VectorField
    from flowbox.odeint import DEFAULT_CONFIG, DomainExit, find_crossings, trace_orbit

    horizon = DEFAULT_CONFIG.horizon if horizon is None else float(horizon)
    original = VectorField.eval
    calls = [0]

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    sweep_rhs, refine_rhs, sweep_ms, refine_ms = [], [], [], []
    VectorField.eval = counted
    try:
        for point in points:
            x = np.asarray(point, dtype=float)
            calls[0] = 0
            t0 = perf_counter()
            for t_end in (horizon, -horizon):
                try:
                    trace_orbit(field, x, (0.0, t_end))
                except DomainExit:
                    pass
            t1 = perf_counter()
            n_sweep = calls[0]
            find_crossings(field, x, surface, horizon=horizon)
            t2 = perf_counter()
            sweep_rhs.append(n_sweep)
            refine_rhs.append(calls[0] - 2 * n_sweep)
            sweep_ms.append(1e3 * (t1 - t0))
            refine_ms.append(1e3 * ((t2 - t1) - (t1 - t0)))
    finally:
        VectorField.eval = original
    n = len(points)
    return {
        "odeint.sweep_rhs": sum(sweep_rhs) / n,
        "odeint.refine_rhs": sum(refine_rhs) / n,
        "odeint.sweep_ms": statistics.median(sweep_ms),
        "odeint.refine_ms": statistics.median(refine_ms),
    }


def loss_probe(field, grid) -> dict:
    """Median milliseconds of one loss and one loss_gradient on grid."""
    from flowbox.varfit import loss, loss_gradient

    out = {}
    for key, fn in (("varfit.loss_ms", loss), ("varfit.loss_gradient_ms", loss_gradient)):
        times = []
        for _ in range(LOSS_REPEATS):
            t0 = perf_counter()
            fn(grid, field)
            times.append(1e3 * (perf_counter() - t0))
        out[key] = statistics.median(times)
    return out


def run_probe(spec: dict) -> dict:
    if spec["kind"] == "crossings":
        field, surface = _field_and_surface(spec)
        return crossing_probe(field, surface, spec["points"], spec.get("horizon"))
    if spec["kind"] == "loss":
        from flowbox import dynsys, varfit

        grid = varfit.load_grid(Path(spec["out_dir"]) / "fit_y.csv")
        return loss_probe(dynsys.builtin(spec["system"]), grid)
    raise ValueError(f"unknown probe kind {spec['kind']!r}")
