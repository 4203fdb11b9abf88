"""Closed-form verification checks, shared by `verify-all` and the tests.

Every check takes a seed and returns ``(ok, detail, metrics)``: ``detail`` is
one line that repeats exactly for a given seed, ``metrics`` a JSON-ready dict
with the worst value (``worst``), where it occurred (``worst_at``,
``system:label``), the point (``worst_point``), the number of values checked
(``points``) and the summed ``odeint.RunStats`` of its integrations
(``stats``, all zeros for a check that integrates nothing).  A check draws
its samples from PCG64 streams ``seed`` to ``seed + STREAM_STRIDE - 1``;
`verify-all` runs the k-th check at ``seed + k * STREAM_STRIDE``, so no two
checks share a stream.
Chart-built coordinates come from one ``chart.evaluate_grid`` batch; a point
whose status is not ``ok`` fails the check, and the detail names the point
and its status.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import chart as chart_mod
# the checks that read refsol import it when they run: every CLI command
# loads this module
from . import dynsys, kef
from .fdiff import fd_gradient_rows, rate
from .odeint import DEFAULT_CONFIG, RunStats, flow_batch

__all__ = ["VERIFY_SUITES", "SLOW_SUITES", "STREAM_STRIDE", "check_kpde_residuals",
           "check_real_form_identities", "check_unit_velocity",
           "check_flowbox_law", "check_chart_vs_refsol",
           "check_appendix_counterexample", "check_recurrence_audit"]

PDE_TOL = 1e-8    # eigenvalue-PDE, real-form and unit-rate residuals
CHART_TOL = 1e-6  # chart and flowbox-law defects, counterexample residuals
SAMPLE_POINTS = 100  # per system, and valid pairs per map in flowbox-law
CHART_POINTS = 200   # per worked system in chart-vs-refsol
COUNTEREXAMPLE_POINTS = 20
T_STEP = 0.25
MAX_LAW_TRIES = 50000
N_ORBITS = 6
ROTATION_HORIZON = 4.0 * np.pi
# hyperbolic-b's closed form there is m = -ln 0.5, exactly ln 2
LN2_POINT = np.array([0.5, 2.0])
STREAM_STRIDE = 1000

# systems whose chart is built by characteristics from their `surface_name`
WORKED = ("source-a", "hyperbolic-b")
# (value, lo, hi, axis, name) of line segments recurrent under rotation-c
ROTATION_SEGMENTS = (
    (1.0, 0.0, 1.0, 0, "seg-x1-1"),
    (0.5, 0.0, 1.0, 0, "seg-x1-05"),
    (1.5, 0.2, 1.2, 0, "seg-x1-15"),
    (1.0, 0.1, 0.9, 1, "seg-x2-1"),
    (0.75, 0.3, 1.4, 1, "seg-x2-075"),
)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(int(seed)))


class _Worst:
    """Running worst value of a check, where and at which point it occurred.
    Larger is worse unless `lowest`; NaN is worst of all, so it fails."""

    def __init__(self, lowest=False):
        self.sign = -1.0 if lowest else 1.0
        self.value, self.at, self.point, self.points = math.nan, "", None, 0

    def see(self, values, at, points, count=None):
        """Take in values (n,) at points (n, N) labelled `at`, or values
        (n, k) whose column j is labelled at[j], read row by row; a single
        value has a single point.  As if seen one at a time, the first worst
        value wins and the first NaN beats every number.  `count` (default:
        the number of values) is added to the points checked."""
        labels = [at] if isinstance(at, str) else list(at)
        flat = np.asarray(values, dtype=float).reshape(-1)
        self.points += flat.size if count is None else count
        if not flat.size:
            return
        nan = np.isnan(flat)
        if nan.any():
            if self.point is not None and math.isnan(self.value):
                return
            i = int(np.argmax(nan))
        else:
            i = int(np.argmax(self.sign * flat))
            if self.point is not None and not self.sign * flat[i] > self.sign * self.value:
                return
        x = np.asarray(points, dtype=float).reshape(-1, np.shape(points)[-1])[i // len(labels)]
        self.value, self.at, self.point = float(flat[i]), labels[i % len(labels)], x.tolist()

    def result(self, ok, detail, stats=None):
        metrics = {"worst": self.value if math.isfinite(self.value) else None,
                   "worst_at": self.at, "worst_point": self.point,
                   "points": self.points,
                   "stats": dataclasses.asdict(stats or RunStats())}
        return bool(ok), detail, metrics


def _worked_chart(system_id, stats):
    from . import refsol
    ref = refsol.reference(system_id)
    return ref, chart_mod.build_chart(ref.field, ref.surface_name, stats=stats)


def _chart_coords(chart, points, system_id, stats, worst):
    """(coords (R, N), None) of points from one evaluate_grid batch, or
    (None, detail) for the first point whose status is not ok, recorded as
    worst."""
    z, status = chart_mod.evaluate_grid(chart, points, stats=stats)
    failed = np.flatnonzero(status != chart_mod.STATUS_OK)
    if failed.size:
        i = failed[0]
        worst.see(math.nan, f"{system_id}:{status[i]}", points[i])
        return None, f"{system_id} chart point {worst.point} has status {status[i]}"
    return z, None


def _kpde_defects(ref, xs, rate_of):
    """[(label, |<grad phi, P> - lambda phi| per row)] of each eigenfunction."""
    return [(eig.label, np.abs(rate_of(eig.fn) - eig.eigenvalue * eig.fn(xs)))
            for eig in ref.eigenfunctions]


def _real_form_defects(ref, xs, rate_of):
    """[(label, residual per row)] of the real form of each eigenfunction:
    with phi = u + iv at eigenvalue a + ib, u must advance along the field
    as a u - b v and v as b u + a v.  The real and imaginary parts of a
    complex central difference are those of u and v, bit for bit."""
    out = []
    for eig in ref.eigenfunctions:
        a, b = eig.eigenvalue.real, eig.eigenvalue.imag
        phi, dphi = eig.fn(xs), rate_of(eig.fn)
        du = np.abs(dphi.real - (a * phi.real - b * phi.imag))
        dv = np.abs(dphi.imag - (b * phi.real + a * phi.imag))
        out.append((eig.label, np.maximum(du, dv)))
    return out


def _unit_rate_defects(ref, xs, rate_of):
    """[(label, |rate - 1| per row)] of the unit-time measurement and of the
    unit coordinates of `ref` (their worst); empty when it documents neither."""
    out = []
    if ref.unit_time is not None:
        out.append(("unit_time", np.abs(rate_of(ref.unit_time) - 1.0)))
    if ref.unit_coords is not None:
        rates = rate_of(ref.unit_coords)
        out.append(("unit_coords", np.max(np.abs(rates - 1.0), axis=-1)))
    return out


def _sampled_check(defects, system_ids, seed, what):
    """The worst of defects(ref, xs, rate_of) over SAMPLE_POINTS valid points
    xs per system, the idx-th system drawing from stream seed + idx;
    rate_of(fn) is <grad fn, P> at xs from one fd_gradient_rows call."""
    from . import refsol
    worst = _Worst()
    for idx, system_id in enumerate(system_ids):
        ref = refsol.reference(system_id)
        xs = ref.sample_valid(_rng(seed + idx), SAMPLE_POINTS)
        p = ref.field.eval(xs)
        columns = defects(ref, xs, lambda fn: rate(fd_gradient_rows(fn, xs), p))
        worst.see(np.array([values for _, values in columns]).T,  # point by point
                  [f"{system_id}:{label}" for label, _ in columns], xs)
    return worst.result(worst.value <= PDE_TOL,
                        f"max {what} {worst.value:.3g} ({worst.at})")


def check_kpde_residuals(seed=0):
    """Closed-form eigenfunctions satisfy the eigenvalue PDE to 1e-8."""
    from . import refsol
    return _sampled_check(_kpde_defects, refsol.reference_ids(), seed,
                          "|residual|")


def check_real_form_identities(seed=0):
    """Re/Im parts of complex eigenfunctions satisfy the coupled real system."""
    return _sampled_check(_real_form_defects, ("linear-ac", "linear-ai"), seed,
                          "real-form residual")


def check_unit_velocity(seed=0):
    """Closed-form measurements and unit coordinates advance at unit rate."""
    from . import refsol
    return _sampled_check(_unit_rate_defects, refsol.reference_ids(), seed,
                          "|rate - 1|")


def _law_pairs(ref, rng, stats=None):
    """The first SAMPLE_POINTS pairs (x, flow(x, T_STEP)) with both ends in
    the validity region of `ref`, among at most MAX_LAW_TRIES candidates.

    Candidates are drawn and flowed in blocks of as many as are still
    missing.  A block of sample_valid draws the stream exactly as one-point
    draws would, so a loop that draws and flows one candidate at a time
    reaches every candidate of a block, and the block's first flow error is
    raised.  The flows' work is added into `stats`.
    """
    pairs = []
    tries = 0
    while len(pairs) < SAMPLE_POINTS and tries < MAX_LAW_TRIES:
        block = min(SAMPLE_POINTS - len(pairs), MAX_LAW_TRIES - tries)
        xs = ref.sample_valid(rng, block)
        tries += block
        xts, errors = flow_batch(ref.field, xs, T_STEP, stats=stats)
        for err in errors:
            if err is not None:
                raise err
        valid = ref.field.contains(xts) & ~ref.excluded(xts)
        pairs += zip(xs[valid], xts[valid])
    return pairs


def check_flowbox_law(seed=0):
    """z(flow(x, t)) - z(x) = (0, ..., 0, t) for the chart-built and the
    closed-form flowbox maps, on pairs with both ends in the validity region."""
    from . import refsol
    worst = _Worst()
    stats = RunStats()
    fb_ids = [s for s in refsol.reference_ids()
              if refsol.reference(s).flowbox is not None]
    maps = [("chart", s, seed + idx) for idx, s in enumerate(WORKED)]
    maps += [("refsol", s, seed + 100 + idx) for idx, s in enumerate(fb_ids)]
    for kind, system_id, stream in maps:
        ref = refsol.reference(system_id)
        pairs = _law_pairs(ref, _rng(stream), stats)
        if len(pairs) < SAMPLE_POINTS:
            return worst.result(False, f"{system_id}: only {len(pairs)} valid"
                                f" pairs in {MAX_LAW_TRIES} tries", stats)
        ends = np.array([x for x, _ in pairs] + [xt for _, xt in pairs])
        if kind == "chart":
            zs, bad = _chart_coords(_worked_chart(system_id, stats)[1], ends,
                                    system_id, stats, worst)
            if bad:
                return worst.result(False, bad, stats)
        else:
            zs = ref.flowbox(ends)
        n = len(pairs)
        expected = np.zeros(ref.field.dim)
        expected[-1] = T_STEP
        defects = np.max(np.abs(zs[n:] - zs[:n] - expected), axis=-1)
        worst.see(defects, f"{system_id}:{kind}", ends[:n])
    return worst.result(
        worst.value <= CHART_TOL,
        f"max flowbox-law defect {worst.value:.3g} ({worst.at}) at t = {T_STEP}"
        f" over {worst.points} valid pairs, {len(WORKED)} chart-built +"
        f" {len(fb_ids)} closed-form maps", stats,
    )


def check_chart_vs_refsol(seed=0):
    """Characteristics-built m and h match the closed forms on [a] and [b],
    and m(0.5, 2) = ln 2 on [b]."""
    worst = _Worst()
    stats = RunStats()
    for idx, system_id in enumerate(WORKED):
        ref, built = _worked_chart(system_id, stats)
        pts = ref.sample_valid(_rng(seed + idx), CHART_POINTS)
        if system_id == "hyperbolic-b":
            pts = np.vstack([pts, LN2_POINT])
        zs, bad = _chart_coords(built, pts, system_id, stats, worst)
        if bad:
            return worst.result(False, bad, stats)
        dm = np.abs(zs[:, -1] - ref.unit_time(pts))
        dh = np.max(np.abs(zs[:, :-1] - ref.chart_h(pts)), axis=-1)
        worst.see(np.maximum(dm, dh), f"{system_id}:chart", pts)
    return worst.result(
        worst.value <= CHART_TOL,
        f"max |chart - closed form| {worst.value:.3g} ({worst.at}) over"
        f" {CHART_POINTS} points per system and m(0.5, 2) = ln 2", stats,
    )


def check_appendix_counterexample(seed=0):
    """The along-orbit eigen relation does not imply the PDE: x2 at 2 follows
    exp(2t) on its invariant parabola, yet its residual is -2 at (1, 1) and
    matches the closed form x1^2 - 3 x2 at sampled points."""
    from . import refsol
    ref = refsol.reference("appendix")
    cand = ref.failed_candidates[0]
    worst = _Worst()
    stats = RunStats()
    dev = kef.orbit_eigen_check(
        cand.fn, cand.eigenvalue, ref.field, cand.orbit_seed, 1.0, stats=stats
    )
    worst.see(dev, "appendix:orbit", cand.orbit_seed)
    xs = np.vstack([[1.0, 1.0], ref.sample_valid(_rng(seed), COUNTEREXAMPLE_POINTS)])
    res = (rate(fd_gradient_rows(cand.fn, xs), ref.field.eval(xs))
           - complex(cand.eigenvalue) * cand.fn(xs))
    worst.see(abs(res[0] - (-2.0)), "appendix:residual(1,1)", xs[0])
    worst.see(np.abs(res[1:] - cand.residual(xs[1:])), f"appendix:{cand.label}", xs[1:])
    return worst.result(
        worst.value <= CHART_TOL,
        f"orbit deviation {dev:.3g}, residual at (1,1) = {res[0].real:.6g},"
        f" worst defect {worst.value:.3g} ({worst.at})", stats,
    )


def check_recurrence_audit(seed=0):
    """Rotation surfaces are recurrent; the source/saddle surfaces are not.

    Orbits are seeded on a Halton lattice, so the seed is unused.  The
    rotation segments are audited as one batch and each worked system as
    its own (their fields differ); `stats` sums those batches.  The worst
    value is the fewest crossings on any rotation segment's most recurrent
    orbit; 2 or more flags the segment.
    """
    from . import refsol
    worst = _Worst(lowest=True)
    stats = RunStats()
    segments = [chart_mod.line_surface(value, lo, hi, axis=axis, name=name)
                for value, lo, hi, axis, name in ROTATION_SEGMENTS]
    reports = chart_mod.check_nonrecurrent_batch(
        segments, dynsys.builtin("rotation-c"), N_ORBITS,
        dataclasses.replace(DEFAULT_CONFIG, horizon=ROTATION_HORIZON), stats)
    for (*_, name), report in zip(ROTATION_SEGMENTS, reports):
        if report.verdict != "fail" or not report.violations:
            return worst.result(False, f"{name} was not flagged recurrent", stats)
        x0, times = max(report.violations, key=lambda v: len(v[1]))
        worst.see(len(times), f"rotation-c:{name}", x0, count=report.tested_points)
    for system_id in WORKED:
        ref = refsol.reference(system_id)
        surface = chart_mod.builtin_surface(ref.surface_name)
        report = chart_mod.check_nonrecurrent(surface, ref.field,
                                              n_orbits=N_ORBITS, stats=stats)
        worst.points += report.tested_points
        if report.verdict != "pass":
            detail = f"{surface.name} under {system_id} flagged recurrent"
            return worst.result(False, detail, stats)
    return worst.result(
        worst.value >= 2,
        f"{len(ROTATION_SEGMENTS)} rotation segments recurrent (>= {worst.value:g}"
        " crossings on the worst orbit), source/saddle surfaces clean", stats,
    )


VERIFY_SUITES = (
    ("kpde-residuals", check_kpde_residuals),
    ("real-form-identities", check_real_form_identities),
    ("unit-velocity", check_unit_velocity),
    ("flowbox-law", check_flowbox_law),
    ("chart-vs-refsol", check_chart_vs_refsol),
    ("appendix-counterexample", check_appendix_counterexample),
    ("recurrence-audit", check_recurrence_audit),
)
# the suites that integrate, longest first (manifest timings, seed 0); the
# rest take under 10 ms each
SLOW_SUITES = ("flowbox-law", "chart-vs-refsol", "recurrence-audit",
               "appendix-counterexample")
