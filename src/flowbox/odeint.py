"""Orbit integration and surface-crossing detection.

One stepper: adaptive Dormand-Prince RK45 with an elementary step-size
controller, run over a lane axis.  Each lane is one starting point with its
own time, step size, attempt count and outcome; all lanes step together and
the field is evaluated for every running lane at once through
``VectorField.eval_grid``.  Backward time is a lane whose field is negated.
A field error (ArithmeticError) fails only the lanes whose own rows raise it.
``flow`` and ``trace_orbit`` are one-lane runs.

Surfaces follow the same row contract (see ``chart.Surface``): the crossing
search makes one ``level`` call per batched step and per root iteration, and
builds every event of a search from one ``param_inverse`` call, one level
call over the central-difference stencils and one field call.  With one
surface per point, each of these is one call per distinct surface.  A
surface call that raises is split like a field call, so a point whose own
rows raise fails alone.

Crossings of a surface's level function are found by scanning each accepted
step for a sign change of the level.  The root is then located on the step's
continuous extension (Shampine's 4th-order interpolant for Dormand-Prince,
the coefficients scipy's ``RK45`` uses), by Illinois regula falsi on the
step fraction ``theta`` in [0, 1].  Refinement therefore costs no field
evaluations, and a root that cannot be brought onto the surface is an
``IntegrationError``, never a silently accepted best effort.  Each step's
interpolant is self-contained, so the sign changes are kept during the sweep
and all refined together after it (Hairer, Norsett & Wanner, Solving ODEs I,
section II.6).
``find_crossings`` is the one-point case of ``find_crossings_batch``.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .dynsys import VectorField
from .fdiff import fd_gradient_rows
from .fdiff import fd_gradient  # noqa: F401 (a binding the benchmark tracer patches)

__all__ = [
    "IntegratorConfig",
    "Orbit",
    "CrossingEvent",
    "RunStats",
    "IntegrationError",
    "StepLimitExceeded",
    "DomainExit",
    "flow",
    "flow_batch",
    "trace_orbit",
    "find_crossings",
    "find_crossings_batch",
    "DEFAULT_CONFIG",
]

# level-function tolerances used by find_crossings
ON_SURFACE_TOL = 1e-9     # |level| below this counts as "already on S"
CROSSING_LEVEL_TOL = 1e-12  # root-find target for |level| on the interpolant
MAX_ROOT_ITERATIONS = 200  # per crossing; the bracket collapses long before
DIRECTION_STEP = 1e-7     # central-difference step of the level gradient


class IntegrationError(RuntimeError):
    pass


class StepLimitExceeded(IntegrationError):
    pass


class DomainExit(IntegrationError):
    """Trajectory left the field's domain box.

    Carries the first accepted state outside the box (`t_exit`, `x_exit`,
    relative to the start of the sweep) and accepted samples up to and
    including it (`times`, `states`): all of them from trace_orbit, the
    start and the exit from flow and flow_batch.
    """

    def __init__(self, field_name, t_exit, x_exit, times, states):
        super().__init__(
            f"{field_name}: trajectory left the domain at t={t_exit:.6g},"
            f" x={np.asarray(x_exit).tolist()}"
        )
        self.t_exit = t_exit
        self.x_exit = x_exit
        self.times = times
        self.states = states


@dataclasses.dataclass(frozen=True)
class IntegratorConfig:
    """Accuracy knobs of the adaptive Dormand-Prince stepper.

    abs_tol, rel_tol : per-component error weights
    max_steps : attempted-step budget per lane and sweep
    horizon : largest |t| flow() and find_crossings() will integrate to
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_steps: int = 1_000_000
    horizon: float = 50.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "horizon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite: {value}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1: {self.max_steps}")


DEFAULT_CONFIG = IntegratorConfig()


@dataclasses.dataclass
class RunStats:
    """Work counters of batched integrations; deterministic for given inputs.

    lanes : lanes integrated (a crossing search uses two per point)
    accepted_steps, rejected_steps : lane steps, summed over lanes
    rhs_calls : VectorField.eval_grid calls, including those that split a
        call which raised ArithmeticError down to its raising rows
    rhs_evals : lane field evaluations, each running lane once per stage
    level_calls : surface level calls, one per surface group (the points
        sharing a surface) per batched step and per root iteration of the
        whole search, plus the start and event-stencil calls and those that
        split a call which raised down to its raising rows
    level_evals : level values asked for, each row once
    crossings_refined : sign changes located on the interpolant
    root_iterations : root-find iterations, summed over crossings
    """

    lanes: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    rhs_calls: int = 0
    rhs_evals: int = 0
    level_calls: int = 0
    level_evals: int = 0
    crossings_refined: int = 0
    root_iterations: int = 0

    def add(self, other: "RunStats") -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclasses.dataclass(frozen=True, eq=False)
class Orbit:
    """Sampled trajectory: times (strictly monotone) and matching states."""

    times: np.ndarray
    states: np.ndarray
    field_name: str
    x0: np.ndarray

    def __len__(self):
        return len(self.times)


@dataclasses.dataclass(frozen=True, eq=False)
class CrossingEvent:
    """One intersection of an orbit with a surface's zero level set.

    t : crossing time relative to the query point (negative = in the past)
    x : state at the crossing
    params : surface parameters from param_inverse(x)
    direction : sign of <grad level, P> at x, 0 only where it is exactly 0
    level : residual level value after refinement
    on_patch : whether params lie inside the open unit cube
    """

    t: float
    x: np.ndarray
    params: np.ndarray
    direction: int
    level: float
    on_patch: bool


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) coefficients

_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_ERR = _DP_B5 - _DP_B4
# Shampine's continuous extension: stage j enters x(theta) with weight
# theta * (P[j,0] + P[j,1] theta + P[j,2] theta^2 + P[j,3] theta^3); stage 1
# has an all-zero row and is skipped.
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# (weight, stage) terms with non-zero weight, as Python floats
_A_TERMS = [[(float(w), j) for j, w in enumerate(row) if w != 0.0] for row in _DP_A]
_B5_TERMS = [(float(w), j) for j, w in enumerate(_DP_B5) if w != 0.0]
_ERR_TERMS = [(float(w), j) for j, w in enumerate(_DP_ERR) if w != 0.0]
_P_TERMS = [(row, j) for j, row in enumerate(_DP_P.tolist()) if any(row)]

# lane outcomes of _integrate
_DONE, _EXIT, _FAILED = range(3)


def _combine(terms, stages):
    """sum of w * stages[j] over (w, j) in terms, in a fixed elementwise order.

    Weights are scalars or per-lane columns; every lane's value depends only
    on its own row, whichever lanes share the batch.
    """
    (w, j), *rest = terms
    acc = w * stages[j]
    for w, j in rest:
        acc = acc + w * stages[j]
    return acc


def _split_on_error(fn, xs, catch, fail, row_shape=(), first=0):
    """fn over a stack of rows xs, in one call when no row raises.

    fn maps R rows to R outputs of shape row_shape, each depending on its
    own row only.  A call that raises `catch` is split in halves until each
    raising row stands alone; fail(i, err) then gets that row's index in xs
    and its error, and the row's output is NaN.
    """
    if not len(xs):
        return np.empty((0,) + row_shape)
    try:
        return fn(xs)
    except catch as err:
        if len(xs) == 1:
            fail(first, err)
            return np.full((1,) + row_shape, np.nan)
    half = len(xs) // 2
    return np.concatenate([
        _split_on_error(fn, xs[:half], catch, fail, row_shape, first),
        _split_on_error(fn, xs[half:], catch, fail, row_shape, first + half),
    ])


def _surface_groups(surface, count: int) -> tuple:
    """(surfaces, group): the distinct surfaces of a crossing search in order
    of first appearance, and per point the index of its own.  `surface` is
    one surface for all `count` points or a sequence of one per point."""
    given = [surface] * count if hasattr(surface, "level") else list(surface)
    if len(given) != count:
        raise ValueError(f"got {len(given)} surfaces for {count} points")
    first = {}
    group = np.array([first.setdefault(id(s), len(first)) for s in given], dtype=int)
    return list({id(s): s for s in given}.values()), group


def _per_surface(fn, surfaces, group, xs, fail, row_shape=()) -> np.ndarray:
    """fn(surface, rows) over the rows of xs (R, N), row r under
    surfaces[group[r]]: one call per surface present, in order of first
    appearance, split by _split_on_error, so a row that raises any exception
    is reported to fail(r, err) and reads NaN."""
    out = np.empty((len(xs),) + row_shape)
    for g, surface in enumerate(surfaces):
        rows = np.flatnonzero(group == g)  # no call when empty
        out[rows] = _split_on_error(
            lambda pts, s=surface: fn(s, pts), xs[rows], Exception,
            lambda i, err, rows=rows: fail(rows[i], err), row_shape,
        )
    return out


def _levels(surfaces, group, xs, fail, stats: RunStats) -> np.ndarray:
    """The level of every row of xs (R, N) under its surface (_per_surface)."""

    def level(surface, rows):
        stats.level_calls += 1
        return np.asarray(surface.level(rows), dtype=float).reshape(len(rows))

    stats.level_evals += len(xs)
    return _per_surface(level, surfaces, group, xs, fail)


def _integrate(field: VectorField, x0, sign, T: float, cfg: IntegratorConfig,
               stats: RunStats, on_accept=None, on_raise=None):
    """Integrate dx/dt = sign * P(x) over [0, T] on every lane of x0 (L, N).

    `sign` holds +1 or -1 per lane.  After each batched step,
    ``on_accept(lanes, t_old, x_old, t_new, x_new, h, stages)`` sees the lanes
    whose step was accepted (``stages(rows)`` returns that step's seven stage
    derivatives for the given rows) and returns lane indices to stop, or
    None.  A lane stops when it reaches T, leaves the domain box (the state
    outside the box is its last accepted sample), fails (its field rows
    raise, or its steps run out or underflow), or is stopped by on_accept.
    ``on_raise(lanes)`` optionally sees, at the end of a pass, the lanes
    whose field rows raised in it and returns lane indices to stop as well.
    Finished lanes are dropped from the compact state of the running lanes.

    Returns (outcome, errors): per lane one of _DONE/_EXIT/_FAILED (a stopped
    lane is _FAILED), and the exception of each lane that failed in the
    stepper itself, the field's ArithmeticError or an IntegrationError (None
    elsewhere).
    """
    x = np.array(x0, dtype=float)
    L, N = x.shape
    sg = np.array(np.broadcast_to(np.asarray(sign, dtype=float), (L,)))[:, None]
    outcome = np.full(L, _DONE)
    errors = [None] * L
    stats.lanes += L
    if T <= 0.0 or L == 0:
        return outcome, errors
    lo = field.domain[:, 0] - 1e-12
    hi = field.domain[:, 1] + 1e-12
    raised = []  # lanes whose field rows raised in this pass

    def field_rows(xs):
        stats.rhs_calls += 1
        return field.eval_grid(list(xs.T)).T

    def field_failed(row, err):
        if on_raise is not None:
            raised.append(ids[row])
        fail([row], lambda _: err)

    def rhs(xs):
        stats.rhs_evals += len(xs)
        return _split_on_error(field_rows, xs, ArithmeticError, field_failed, (N,)) * sg

    def fail(rows, make):
        for lane, t_lane in zip(ids[rows], t[rows]):
            if errors[lane] is None:  # a lane keeps the first error it meets
                errors[lane] = make(t_lane)
        outcome[ids[rows]] = _FAILED

    ids = np.arange(L)
    t = np.zeros(L)
    # a lane whose first field evaluation raises gets a NaN step size and is
    # dropped by the underflow check, keeping the field's error
    k0 = rhs(x)
    scale = (1.0 + np.max(np.abs(x), axis=1)) / (1.0 + np.max(np.abs(k0), axis=1))
    h = np.minimum(T, 1e-2 * scale)
    end_tol = 1e-15 * max(1.0, T)
    attempts = 0  # every running lane attempts one step per pass

    while ids.size:
        attempts += 1
        if attempts > cfg.max_steps:
            fail(slice(None), lambda _: StepLimitExceeded(
                f"{field.name}: exceeded {cfg.max_steps} attempted steps (rk45)"
            ))
            break
        h = np.minimum(h, T - t)
        keep = h >= 1e-14 * np.maximum(1.0, t)
        if not keep.all():
            fail(~keep, lambda t_lane: IntegrationError(
                f"{field.name}: step size underflow at t={t_lane:.6g}"
            ))
            ids, x, t, h, k0, sg = (a[keep] for a in (ids, x, t, h, k0, sg))
            if not ids.size:
                break

        hc = h[:, None]
        K = [k0]
        for s in range(1, 6):
            K.append(rhs(x + hc * _combine(_A_TERMS[s], K)))
        x_new = x + hc * _combine(_B5_TERMS, K)
        K.append(rhs(x_new))  # first-same-as-last: the last stage is P(x_new)
        err = hc * _combine(_ERR_TERMS, K)
        q = err / (cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x), np.abs(x_new)))
        ssq = q[:, 0] * q[:, 0]
        for j in range(1, N):
            ssq = ssq + q[:, j] * q[:, j]
        err_norm = np.sqrt(ssq / N)

        # lanes that field_rows failed in this step leave with the NaN ones
        err_norm[outcome[ids] == _FAILED] = np.nan
        ok = err_norm <= 1.0
        n_ok = int(np.count_nonzero(ok))
        # a NaN error norm (the field went NaN inside the step) would grow
        # the step until max_steps: such lanes fail now; inf just rejects
        broken = None
        if n_ok < len(ids) and np.isnan(err_norm).any():
            broken = np.isnan(err_norm)
            fail(broken, lambda t_lane: IntegrationError(
                f"{field.name}: NaN error estimate in the step from t={t_lane:.6g}"
            ))
        stats.accepted_steps += n_ok
        stats.rejected_steps += len(ids) - n_ok
        keep = None
        if n_ok:
            t_new = t + h
            outside = ~np.all((x_new >= lo) & (x_new <= hi), axis=1)
            finished = outside | (T - t_new <= end_tol)
            if n_ok == len(ids):
                acc, pos = ids, slice(None)
                t_old, x_old, t, x, k0 = t, x, t_new, x_new, K[6]
                x_acc, t_acc, h_acc = x_new, t_new, h
            else:
                finished &= ok
                pos = np.flatnonzero(ok)
                acc, t_old, x_old = ids[pos], t[pos], x[pos]
                x_acc, t_acc, h_acc = x_new[pos], t_new[pos], h[pos]
                okc = ok[:, None]
                t = np.where(ok, t_new, t)
                x = np.where(okc, x_new, x)
                k0 = np.where(okc, K[6], k0)
            outcome[ids[finished & outside]] = _EXIT
            if on_accept is not None:
                stop = on_accept(
                    acc, t_old, x_old, t_acc, x_acc, h_acc,
                    lambda rows: [k[pos][rows] for k in K],
                )
                if stop is not None:
                    outcome[stop] = _FAILED
                    finished |= np.isin(ids, stop)
            if finished.any():
                keep = ~finished
        if broken is not None:
            keep = ~broken if keep is None else keep & ~broken
        if raised:
            stopped = np.isin(ids, on_raise(np.array(raised)))
            raised.clear()
            if stopped.any():
                outcome[ids[stopped]] = _FAILED
                keep = ~stopped if keep is None else keep & ~stopped
        # elementary controller; a zero error norm grows the step 5x
        factor = 0.9 * np.maximum(err_norm, 1e-300) ** -0.2
        h = h * np.fmin(5.0, np.maximum(0.2, factor))
        if keep is not None:
            ids, x, t, h, k0, sg = (a[keep] for a in (ids, x, t, h, k0, sg))
    return outcome, errors


def flow_batch(field: VectorField, points, t: float,
               cfg: Optional[IntegratorConfig] = None):
    """flow for many points as one lane-batched integration.

    Returns (states, errors): states[i] is flow(points[i], t), NaN where that
    lane failed, and errors[i] the exception flow would raise for it, or
    None.  A lane that leaves the domain gets a DomainExit at the same exit
    point as flow's.
    """
    cfg = cfg or DEFAULT_CONFIG
    if abs(t) > cfg.horizon * (1 + 1e-12):
        raise ValueError(f"|t|={abs(t):.6g} exceeds the configured horizon {cfg.horizon}")
    X = np.array(points, dtype=float).reshape(len(points), field.dim)
    if t == 0.0:
        return X, [None] * len(X)
    final = X.copy()
    t_last = np.zeros(len(X))

    def keep_last(lanes, t_old, x_old, t_new, x_new, h, stages):
        final[lanes] = x_new
        t_last[lanes] = t_new

    sign = 1.0 if t > 0 else -1.0
    outcome, errors = _integrate(field, X, sign, abs(t), cfg, RunStats(), keep_last)
    for lane in np.flatnonzero(outcome == _EXIT):
        t_exit, x_exit = float(t_last[lane]), final[lane].copy()
        errors[lane] = DomainExit(field.name, t_exit, x_exit,
                                  [0.0, t_exit], [X[lane].copy(), x_exit])
    final[[err is not None for err in errors]] = np.nan
    return final, errors


def flow(field: VectorField, x0, t: float, cfg: Optional[IntegratorConfig] = None):
    """State of the orbit through x0 after signed time t; the one-point case
    of flow_batch."""
    (state,), (err,) = flow_batch(field, [x0], t, cfg=cfg)
    if err is not None:
        raise err
    return state


def trace_orbit(field: VectorField, x0, t_span, cfg: Optional[IntegratorConfig] = None) -> Orbit:
    """Sampled orbit over t_span = (t0, t1), one sample per accepted step; x0
    is the state at t0.

    Raises DomainExit (carrying the samples, times relative to t0),
    StepLimitExceeded or IntegrationError.
    """
    cfg = cfg or DEFAULT_CONFIG
    t0, t1 = float(t_span[0]), float(t_span[1])
    x0 = np.asarray(x0, dtype=float)
    times, states = [0.0], [x0.copy()]

    def record(lanes, t_old, x_old, t_new, x_new, h, stages):
        times.append(float(t_new[0]))
        states.append(x_new[0].copy())

    sign = 1.0 if t1 > t0 else -1.0
    outcome, errors = _integrate(field, x0[None, :], sign, abs(t1 - t0), cfg,
                                 RunStats(), record)
    if errors[0] is not None:
        raise errors[0]
    if outcome[0] == _EXIT:
        raise DomainExit(field.name, times[-1], states[-1], times, states)
    return Orbit(
        times=t0 + sign * np.asarray(times),
        states=np.asarray(states),
        field_name=field.name,
        x0=x0.copy(),
    )


# ---------------------------------------------------------------------------
# Crossing detection


def _events(field, surfaces, group, t, x, level, stats: RunStats) -> list:
    """The CrossingEvent at each row of x (E, N), row e on the surface
    surfaces[group[e]], or the exception its event raises, from one
    param_inverse call and one level call over the central-difference
    stencils of the rows per surface, and one field call.

    A row's exception is the first of its param_inverse error, its first
    failing stencil point's level error (axis by axis, + before -) and its
    field error.
    """
    E, N = x.shape
    errors = [None] * E

    def fail_at(event_of):  # event_of[i]: the event of row i of a call
        def fail(i, err):
            if errors[event_of[i]] is None:
                errors[event_of[i]] = err
        return fail

    def params_of(surface, xs):
        return np.asarray(surface.param_inverse(xs), dtype=float).reshape(len(xs), N - 1)

    own = fail_at(np.arange(E))
    params = _per_surface(params_of, surfaces, group, x, own, (N - 1,))
    on_patch = np.all((params > 0.0) & (params < 1.0), axis=1)

    event_of = np.repeat(np.arange(E), 2 * N)  # 2N stencil points per row
    at_stencil = fail_at(event_of)
    grad = fd_gradient_rows(
        lambda pts: _levels(surfaces, group[event_of], pts, at_stencil, stats),
        x, DIRECTION_STEP,
    )
    p = _split_on_error(lambda xs: field.eval_grid(list(xs.T)).T, x, Exception, own, (N,))
    ip = np.sum(grad * p, axis=1)
    direction = np.where(ip > 0.0, 1, np.where(ip < 0.0, -1, 0))

    return [
        errors[e] if errors[e] is not None else CrossingEvent(
            t=float(t[e]),
            x=x[e],
            params=params[e],
            direction=int(direction[e]),
            level=float(level[e]),
            on_patch=bool(on_patch[e]),
        )
        for e in range(E)
    ]


def _interpolate(x_old, h, stages, theta):
    """Dense output x(t_old + theta h) of one Dormand-Prince step, per row."""
    terms = [
        ((theta * (p0 + theta * (p1 + theta * (p2 + theta * p3))))[:, None], j)
        for (p0, p1, p2, p3), j in _P_TERMS
    ]
    return x_old + h[:, None] * _combine(terms, stages)


class _CrossingScan:
    """Per-lane sign-change and zero-hit scan of accepted samples.

    Lane i is point i % P swept forward (i < P) or backward (i >= P), on the
    surface surfaces[group[i]].  It mirrors a scan over the full list of
    samples: a leading on-surface stretch (|level| <= ON_SURFACE_TOL) is
    skipped, and sample pairs from the first off-surface sample on are
    searched for sign changes.  A lane is armed once it has seen an
    off-surface sample; a pair is searched only if its lane was armed before
    the pair's newer sample.

    A sign change is kept as a bracket (its step's start, end, size and
    seven stages, and both levels) and located later by refine(), all
    pending brackets together: a root depends on its own step alone.  The
    first bracket of a lane whose root fails ends the lane there (ended()).
    """

    def __init__(self, field, surfaces, group, l0, sign, partner, stats):
        L = len(l0)
        self.field = field
        self.surfaces = surfaces
        self.group = group
        self.sign = sign
        self.partner = partner
        self.stats = stats
        self.last = np.array(l0, dtype=float)   # level at the newest sample
        self.armed = np.abs(self.last) > ON_SURFACE_TOL
        self.records = [[] for _ in range(L)]   # per lane, indices into found in sample order
        self.found = []     # per record (t, x, level), the exception of a failed bracket, or None
        self.pending = []   # column tuples of unrefined brackets, see _refine
        self.errors = [None] * L  # level errors of the scan itself
        self.failed = np.zeros(L, dtype=bool)

    def _levels(self, lanes, xs, fail):
        return _levels(self.surfaces, self.group[lanes], xs, fail, self.stats)

    def _record(self, lanes, found):
        """One record per lane, each found[i] = found; their indices i."""
        start = len(self.found)
        for lane in lanes:
            self.records[lane].append(len(self.found))
            self.found.append(found)
        return np.arange(start, len(self.found))

    def __call__(self, lanes, t_old, x_old, t_new, x_new, h, stages):
        def fail(r, err):  # a lane whose level raises fails alone, not the batch
            self.errors[lanes[r]] = err
            self.failed[lanes[r]] = True

        lnew = self._levels(lanes, x_new, fail)
        lp = self.last[lanes]
        self.last[lanes] = lnew
        armed = self.armed[lanes]
        self.armed[lanes] = armed | (np.abs(lnew) > ON_SURFACE_TOL)
        # only a sign change or an exact zero makes an event
        maybe = ((lp > 0.0) != (lnew > 0.0)) | (lnew == 0.0)
        if maybe.any():
            scan = armed & ~self.failed[lanes]
            hit = scan & (lnew == 0.0)
            change = scan & ~hit & (lp != 0.0) & ((lp > 0.0) != (lnew > 0.0))
            for r in np.flatnonzero(hit):
                self._record([lanes[r]], (self.sign[lanes[r]] * t_new[r], x_new[r].copy(), 0.0))
            rows = np.flatnonzero(change)
            if rows.size:
                self.pending.append((
                    self._record(lanes[rows], None), lanes[rows], t_old[rows],
                    x_old[rows], x_new[rows], h[rows], np.stack(stages(rows), axis=1),
                    lp[rows], lnew[rows],
                ))
        failed = self.failed[lanes]
        return lanes[failed] if failed.any() else None

    def refine(self, lanes=None):
        """Locate every pending bracket, or those of the given lanes, in one
        root-find pass."""
        if not self.pending:
            return
        cols = [np.concatenate(c) for c in zip(*self.pending)]
        self.pending = []
        if lanes is not None:
            mine = np.isin(cols[1], lanes)
            if not mine.all():
                self.pending = [tuple(c[~mine] for c in cols)]
            cols = [c[mine] for c in cols]
        if len(cols[0]):
            self._refine(*cols)

    def stop_partners(self, lanes):
        """on_raise of _integrate: the partners of the lanes whose field rows
        raised, unless the lane ended earlier at a failed bracket, as it
        would have stopped there."""
        lanes = lanes[self.partner[lanes] >= 0]
        self.refine(lanes)
        return self.partner[[lane for lane in lanes if self.ended(lane)[1] is None]]

    def ended(self, lane):
        """(crossings, failure) of a refined lane: its (t, x, level) in sample
        order up to its first failed bracket, and that bracket's exception
        (None when every bracket was located)."""
        crossings = []
        for i in self.records[lane]:
            if isinstance(self.found[i], BaseException):
                return crossings, self.found[i]
            crossings.append(self.found[i])
        return crossings, None

    def _refine(self, ids, lanes, t_old, x_old, x_new, h, stages, l_a, l_b):
        """Illinois regula falsi on theta in [0, 1] over the interpolant.

        Row r is the bracket found[ids[r]] of lane lanes[r], with stages
        (m, 7, N).  Stops per crossing at |level| <= CROSSING_LEVEL_TOL or
        when the bracket collapses to 1e-13 in time; a secant point that is
        not strictly inside the bracket is replaced by its midpoint.  The
        smallest |level| seen (the step ends included) is the crossing; if
        it is still above ON_SURFACE_TOL the bracket fails with an
        IntegrationError, and a level that raises fails it with that error.
        """
        self.stats.crossings_refined += len(lanes)
        m = len(lanes)
        errors = [None] * m
        raised = np.zeros(m, dtype=bool)
        lo, hi = np.zeros(m), np.ones(m)
        f_lo = l_a.copy()                     # true level at the low end
        g_lo, g_hi = l_a.copy(), l_b.copy()   # Illinois-scaled secant weights
        last_side = np.full(m, -1)
        end_b = np.abs(l_b) < np.abs(l_a)
        best_theta = np.where(end_b, 1.0, 0.0)
        best_l = np.where(end_b, l_b, l_a)
        best_x = np.where(end_b[:, None], x_new, x_old)
        collapse = 1e-13 * np.maximum(1.0, h) / h
        active = np.ones(m, dtype=bool)
        for _ in range(MAX_ROOT_ITERATIONS):
            rows = np.flatnonzero(active)
            if not rows.size:
                break
            self.stats.root_iterations += rows.size
            a, b = lo[rows], hi[rows]
            ga, gb = g_lo[rows], g_hi[rows]
            theta = (a * gb - b * ga) / (gb - ga)
            bisect = ~((theta > a) & (theta < b))
            theta = np.where(bisect, 0.5 * (a + b), theta)

            xs = _interpolate(x_old[rows], h[rows], stages[rows].transpose(1, 0, 2), theta)

            def fail(i, err, rows=rows):
                errors[rows[i]], raised[rows[i]] = err, True

            ls = self._levels(lanes[rows], xs, fail)

            better = np.abs(ls) < np.abs(best_l[rows])
            best_theta[rows[better]] = theta[better]
            best_l[rows[better]] = ls[better]
            best_x[rows[better]] = xs[better]

            to_lo = (ls > 0.0) == (f_lo[rows] > 0.0)
            r_lo, r_hi = rows[to_lo], rows[~to_lo]
            lo[r_lo], f_lo[r_lo], g_lo[r_lo] = theta[to_lo], ls[to_lo], ls[to_lo]
            hi[r_hi], g_hi[r_hi] = theta[~to_lo], ls[~to_lo]
            # the same end replaced twice running: halve the stale end's weight
            g_hi[r_lo[last_side[r_lo] == 0]] *= 0.5
            g_lo[r_hi[last_side[r_hi] == 1]] *= 0.5
            last_side[rows] = np.where(to_lo, 0, 1)

            done = (
                (np.abs(ls) <= CROSSING_LEVEL_TOL)
                | (hi[rows] - lo[rows] <= collapse[rows])
                | raised[rows]
            )
            active[rows[done]] = False

        sign = self.sign[lanes]
        for r in range(m):
            t_c = sign[r] * (t_old[r] + best_theta[r] * h[r])
            if errors[r] is None and not abs(best_l[r]) <= ON_SURFACE_TOL:
                errors[r] = IntegrationError(
                    f"{self.field.name}: crossing near t={t_c:.6g} did not converge:"
                    f" |level| = {abs(best_l[r]):.3g} > {ON_SURFACE_TOL:g}"
                    f" at x={best_x[r].tolist()}"
                )
            self.found[ids[r]] = errors[r] if errors[r] is not None else (
                t_c, best_x[r], best_l[r])


def find_crossings_batch(
    field: VectorField,
    points,
    surface,
    horizon: Optional[float] = None,
    cfg: Optional[IntegratorConfig] = None,
):
    """find_crossings for many points as one lane-batched integration, whose
    lanes are each point's forward and backward sweep.

    `surface` is one surface for every point or a sequence of one per point;
    each surface call is made once per surface present, in order of first
    appearance.  Returns (results, stats): results[i] is the sorted
    CrossingEvent list of points[i], or the exception find_crossings would
    raise for it; stats is the RunStats of the whole batch.  A field error
    (ArithmeticError) on either lane, forward first, is a point's outcome;
    then the forward lane's scan and stepper errors, then the backward
    lane's.  Every sign change is refined after the sweep, in one pass.
    """
    cfg = cfg or DEFAULT_CONFIG
    horizon = cfg.horizon if horizon is None else float(horizon)
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if horizon > cfg.horizon * (1 + 1e-12):
        raise ValueError(
            f"horizon {horizon:.6g} exceeds the integrator horizon {cfg.horizon:.6g}"
        )
    X = np.asarray(points, dtype=float).reshape(len(points), field.dim)
    stats = RunStats()
    P = len(X)
    surfaces, group = _surface_groups(surface, P)
    results = [None] * P

    def level_failed(p, err):  # the point's own failure, re-raised by find_crossings
        results[p] = err

    l0 = _levels(surfaces, group, X, level_failed, stats)
    live = [p for p in range(P) if results[p] is None]
    Q = len(live)
    lanes_x = np.concatenate([X[live], X[live]]) if Q else np.zeros((0, X.shape[1]))
    sign = np.concatenate([np.ones(Q), -np.ones(Q)])
    l0_lanes = np.concatenate([l0[live], l0[live]])
    # a forward lane's field error is its point's outcome: the backward lane stops
    partner = np.concatenate([np.arange(Q, 2 * Q), np.full(Q, -1)])
    scan = _CrossingScan(field, surfaces, np.concatenate([group[live], group[live]]),
                         l0_lanes, sign, partner, stats)
    _, errors = _integrate(field, lanes_x, sign, horizon, cfg, stats, scan,
                           scan.stop_partners)
    scan.refine()

    def outcome(lane):
        """(crossings, scan error, stepper error): a lane whose bracket
        failed ended there, before any later error of its own."""
        crossings, failure = scan.ended(lane)
        if failure is not None:
            return crossings, failure, None
        return crossings, scan.errors[lane], errors[lane]

    # (point, t, x, level) of every event: per point the on-surface start,
    # then per lane (forward first) its crossings
    rows = []
    for q, p in enumerate(live):
        (c_fwd, s_fwd, i_fwd), (c_bwd, s_bwd, i_bwd) = outcome(q), outcome(Q + q)
        raised = [e for e in (i_fwd, i_bwd) if isinstance(e, ArithmeticError)]
        err = next((e for e in (*raised, s_fwd, i_fwd, s_bwd, i_bwd) if e is not None), None)
        if err is not None:
            results[p] = err
            continue
        results[p] = []
        if abs(l0[p]) <= ON_SURFACE_TOL:
            rows.append((p, 0.0, X[p], l0[p]))
        rows += [(p, *c) for c in c_fwd + c_bwd]
    if rows:
        owner, t, x, level = zip(*rows)
        events = _events(field, surfaces, group[list(owner)], t, np.array(x), level, stats)
        for p, event in zip(owner, events):
            if not isinstance(results[p], list):
                continue  # the point already failed at an earlier event
            if isinstance(event, BaseException):
                results[p] = event
            else:
                results[p].append(event)
    for p in live:
        if isinstance(results[p], list):
            results[p].sort(key=lambda e: e.t)
    return results, stats


def find_crossings(
    field: VectorField,
    x0,
    surface,
    horizon: Optional[float] = None,
    cfg: Optional[IntegratorConfig] = None,
) -> list:
    """All crossings of the orbit through x0 with a surface, both time
    directions, sorted by time.

    A crossing is a sign change or exact zero of the level between accepted
    samples, or a start within ON_SURFACE_TOL of the surface; a touch that
    keeps the level's sign is none.  Level-set crossings whose parameters
    land outside (0,1)^{N-1} are kept but flagged off-patch.  Sweeps that leave the field's domain box are
    truncated at the exit point.  A sweep that leaves an expression's domain
    is not: the field's error (e.g. expressions.DomainError) ends the search.
    Genuine integrator failures, and crossings the root find cannot bring
    within ON_SURFACE_TOL of the surface, raise IntegrationError.
    """
    (result,), _ = find_crossings_batch(field, [x0], surface, horizon=horizon, cfg=cfg)
    if isinstance(result, BaseException):
        raise result
    return result
