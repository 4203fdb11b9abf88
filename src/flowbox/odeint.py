"""Orbit integration and surface-crossing detection.

One stepper: adaptive Dormand-Prince RK45 with an elementary step-size
controller, run over a lane axis.  Each lane is one starting point with its
own time, step size, attempt count and outcome; all lanes step together and
the field is evaluated for every running lane at once through
``VectorField.eval_grid``.  Backward time is a lane whose field is negated.
A field error (ArithmeticError) fails only the lanes whose own rows raise it.
``flow`` and ``trace_orbit`` are one-lane runs.

Crossings of a surface's level function are found by scanning each accepted
step for a sign change of the level.  The root is then located on the step's
continuous extension (Shampine's 4th-order interpolant for Dormand-Prince,
the coefficients scipy's ``RK45`` uses), by Illinois regula falsi on the
step fraction ``theta`` in [0, 1].  Refinement therefore costs no field
evaluations, and a root that cannot be brought onto the surface is an
``IntegrationError``, never a silently accepted best effort.
``find_crossings`` is the one-point case of ``find_crossings_batch``.
"""
from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .dynsys import VectorField
from .fdiff import fd_gradient

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
GRAZE_TOL = 1e-8          # local |level| minimum below this flags a graze
MAX_ROOT_ITERATIONS = 200  # per crossing; the bracket collapses long before


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
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


DEFAULT_CONFIG = IntegratorConfig()


@dataclasses.dataclass
class RunStats:
    """Work counters of batched integrations; deterministic for given inputs.

    lanes : lanes integrated (a crossing search uses two per point)
    accepted_steps, rejected_steps : lane steps, summed over lanes
    rhs_calls : VectorField.eval_grid calls, including those that split a
        call which raised ArithmeticError down to its raising rows
    rhs_evals : lane field evaluations, each running lane once per stage
    crossings_refined : sign changes located on the interpolant
    root_iterations : root-find iterations, summed over crossings
    """

    lanes: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    rhs_calls: int = 0
    rhs_evals: int = 0
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

    def to_csv(self, path_or_buf) -> None:
        """Write t, x1..xN rows with 17 significant digits and \\n endings."""
        n = self.states.shape[1]
        lines = ["t," + ",".join(f"x{i + 1}" for i in range(n))]
        for t, x in zip(self.times, self.states):
            lines.append(",".join(format(v, ".17g") for v in (t, *x)))
        text = "\n".join(lines) + "\n"
        if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
            with open(path_or_buf, "w", newline="") as fh:
                fh.write(text)
        else:
            path_or_buf.write(text)


@dataclasses.dataclass(frozen=True, eq=False)
class CrossingEvent:
    """One intersection of an orbit with a surface's zero level set.

    t : crossing time relative to the query point (negative = in the past)
    x : state at the crossing
    params : surface parameters from param_inverse(x)
    direction : sign of <grad level, P> at x; 0 flags a tangential graze
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


def _integrate(field: VectorField, x0, sign, T: float, cfg: IntegratorConfig,
               stats: RunStats, on_accept=None):
    """Integrate dx/dt = sign * P(x) over [0, T] on every lane of x0 (L, N).

    `sign` holds +1 or -1 per lane.  After each batched step,
    ``on_accept(lanes, t_old, x_old, t_new, x_new, h, stages)`` sees the lanes
    whose step was accepted (``stages(rows)`` returns that step's seven stage
    derivatives for the given rows) and returns lane indices to stop, or
    None.  A lane stops when it reaches T, leaves the domain box (the state
    outside the box is its last accepted sample), fails (its field rows
    raise, or its steps run out or underflow), or is stopped by on_accept.
    Finished lanes are dropped from the compact state of the running lanes.

    Returns (outcome, errors): per lane one of _DONE/_EXIT/_FAILED, and the
    exception of each lane that failed in the stepper itself, the field's
    ArithmeticError or an IntegrationError (None elsewhere).
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

    def field_rows(xs, first):
        # rows first, first + 1, ... of the running lanes; a call that raises
        # is split in halves until each raising row fails alone
        stats.rhs_calls += 1
        try:
            return field.eval_grid(list(xs.T)).T
        except ArithmeticError as err:
            if len(xs) == 1:
                fail([first], lambda _: err)
                return np.full(xs.shape, np.nan)
        half = len(xs) // 2
        return np.concatenate([field_rows(xs[:half], first),
                               field_rows(xs[half:], first + half)])

    def rhs(xs):
        stats.rhs_evals += len(xs)
        return field_rows(xs, 0) * sg

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


def _level_direction(surface, field, x) -> int:
    grad = fd_gradient(surface.level, x, step=1e-7)
    ip = float(np.dot(np.asarray(grad, dtype=float), field.eval(x, check_domain=False)))
    if ip > 0.0:
        return 1
    if ip < 0.0:
        return -1
    return 0


def _make_event(surface, field, t, x, level, direction=None) -> CrossingEvent:
    params = np.atleast_1d(np.asarray(surface.param_inverse(x), dtype=float))
    on_patch = bool(np.all(params > 0.0) and np.all(params < 1.0))
    if direction is None:
        direction = _level_direction(surface, field, x)
    return CrossingEvent(
        t=float(t),
        x=np.asarray(x, dtype=float),
        params=params,
        direction=direction,
        level=float(level),
        on_patch=on_patch,
    )


def _interpolate(x_old, h, stages, theta):
    """Dense output x(t_old + theta h) of one Dormand-Prince step, per row."""
    terms = [
        ((theta * (p0 + theta * (p1 + theta * (p2 + theta * p3))))[:, None], j)
        for (p0, p1, p2, p3), j in _P_TERMS
    ]
    return x_old + h[:, None] * _combine(terms, stages)


class _CrossingScan:
    """Per-lane sign-change, zero-hit and graze scan of accepted samples.

    Lane i is point i % P swept forward (i < P) or backward (i >= P).  It
    mirrors a scan over the full list of samples: a leading on-surface
    stretch is skipped, sample pairs from the first off-surface sample on are
    searched for sign changes, and interior local minima of |level| below
    GRAZE_TOL with no sign change are grazes.
    """

    def __init__(self, field, surface, l0, sign, stats):
        L = len(l0)
        self.field = field
        self.level = surface.level
        self.sign = sign
        self.stats = stats
        self.last = np.array(l0, dtype=float)   # level at the newest sample
        self.prev = np.full(L, np.nan)          # level one sample earlier
        self.count = np.zeros(L, dtype=np.int64)  # index of the newest sample
        # index of the first sample off the surface; huge while still skipping
        self.start = np.where(
            np.abs(self.last) > ON_SURFACE_TOL, 0, np.iinfo(np.int64).max
        )
        self.crossings = [[] for _ in range(L)]  # (t, x, level) in sample order
        self.grazes = [[] for _ in range(L)]
        self.errors = [None] * L
        self.failed = np.zeros(L, dtype=bool)

    def _fail(self, lane, err):
        self.errors[lane] = err
        self.failed[lane] = True

    def _levels(self, lanes, xs):
        out = np.empty(len(lanes))
        for r, lane in enumerate(lanes):
            try:
                out[r] = float(self.level(xs[r]))
            except Exception as err:  # the point's own failure, not the batch's
                self._fail(lane, err)
                out[r] = np.nan
        return out

    def __call__(self, lanes, t_old, x_old, t_new, x_new, h, stages):
        lnew = self._levels(lanes, x_new)
        lp, lpp = self.last[lanes], self.prev[lanes]
        self.prev[lanes], self.last[lanes] = lp, lnew
        n = self.count[lanes] + 1
        self.count[lanes] = n
        start = self.start[lanes]
        newly = (start > n) & (np.abs(lnew) > ON_SURFACE_TOL)
        if newly.any():
            start = np.where(newly, n, start)
            self.start[lanes] = start
        # only a sign change, an exact zero or a small |level| makes an event
        alp = np.abs(lp)
        maybe = ((lp > 0.0) != (lnew > 0.0)) | (lnew == 0.0) | (alp <= GRAZE_TOL)
        if maybe.any():
            alive = ~self.failed[lanes]
            scan = alive & (start <= n)
            hit = scan & (lnew == 0.0)
            change = scan & ~hit & (lp != 0.0) & ((lp > 0.0) != (lnew > 0.0))
            graze = (
                alive & (start <= n - 2) & (n >= 2)
                & (alp <= GRAZE_TOL) & (alp > 0.0)
                & (lpp * lp > 0.0) & (lp * lnew > 0.0)
                & (alp < np.abs(lpp)) & (alp <= np.abs(lnew))
            )
            sign = self.sign[lanes]
            for r in np.flatnonzero(hit):
                hit_at = (sign[r] * t_new[r], x_new[r].copy(), 0.0)
                self.crossings[lanes[r]].append(hit_at)
            for r in np.flatnonzero(graze):
                graze_at = (sign[r] * t_old[r], x_old[r].copy(), lp[r])
                self.grazes[lanes[r]].append(graze_at)
            rows = np.flatnonzero(change)
            if rows.size:
                self._refine(
                    lanes[rows], t_old[rows], x_old[rows], x_new[rows], h[rows],
                    stages(rows), lp[rows], lnew[rows], sign[rows],
                )
        failed = self.failed[lanes]
        return lanes[failed] if failed.any() else None

    def _refine(self, lanes, t_old, x_old, x_new, h, stages, l_a, l_b, sign):
        """Illinois regula falsi on theta in [0, 1] over the interpolant.

        Stops per crossing at |level| <= CROSSING_LEVEL_TOL or when the
        bracket collapses to 1e-13 in time; a secant point that is not
        strictly inside the bracket is replaced by its midpoint.  The smallest
        |level| seen (the step ends included) is the crossing; if it is still
        above ON_SURFACE_TOL the lane fails with an IntegrationError.
        """
        self.stats.crossings_refined += len(lanes)
        m = len(lanes)
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

            xs = _interpolate(x_old[rows], h[rows], [k[rows] for k in stages], theta)
            ls = self._levels(lanes[rows], xs)

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
                | self.failed[lanes[rows]]
            )
            active[rows[done]] = False

        for r, lane in enumerate(lanes):
            if self.failed[lane]:
                continue
            t_c = sign[r] * (t_old[r] + best_theta[r] * h[r])
            if not abs(best_l[r]) <= ON_SURFACE_TOL:
                self._fail(lane, IntegrationError(
                    f"{self.field.name}: crossing near t={t_c:.6g} did not converge:"
                    f" |level| = {abs(best_l[r]):.3g} > {ON_SURFACE_TOL:g}"
                    f" at x={best_x[r].tolist()}"
                ))
                continue
            self.crossings[lane].append((t_c, best_x[r].copy(), best_l[r]))


def find_crossings_batch(
    field: VectorField,
    points,
    surface,
    horizon: Optional[float] = None,
    cfg: Optional[IntegratorConfig] = None,
):
    """find_crossings for many points as one lane-batched integration, whose
    lanes are each point's forward and backward sweep.

    Returns (results, stats): results[i] is the sorted CrossingEvent list of
    points[i], or the exception find_crossings would raise for it; stats is
    the RunStats of the whole batch.  A field error (ArithmeticError) on
    either lane, forward first, is a point's outcome; then the forward lane's
    scan and stepper errors, then the backward lane's.
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
    results = [None] * P
    l0 = np.full(P, np.nan)
    for p in range(P):
        try:
            l0[p] = float(surface.level(X[p]))
        except Exception as err:  # the point's own failure, re-raised by find_crossings
            results[p] = err
    live = [p for p in range(P) if results[p] is None]
    Q = len(live)
    lanes_x = np.concatenate([X[live], X[live]]) if Q else np.zeros((0, X.shape[1]))
    sign = np.concatenate([np.ones(Q), -np.ones(Q)])
    l0_lanes = np.concatenate([l0[live], l0[live]])
    scan = _CrossingScan(field, surface, l0_lanes, sign, stats)
    _, errors = _integrate(field, lanes_x, sign, horizon, cfg, stats, scan)

    for q, p in enumerate(live):
        fwd, bwd = q, Q + q
        raised = [e for e in (errors[fwd], errors[bwd]) if isinstance(e, ArithmeticError)]
        err = next((e for e in (*raised, scan.errors[fwd], errors[fwd],
                                scan.errors[bwd], errors[bwd]) if e is not None), None)
        if err is not None:
            results[p] = err
            continue
        try:
            x0 = X[p]
            events = []
            if abs(l0[p]) <= ON_SURFACE_TOL:
                events.append(_make_event(surface, field, 0.0, x0, l0[p]))
            for lane in (fwd, bwd):
                for t_c, x_c, l_c in scan.crossings[lane]:
                    events.append(_make_event(surface, field, t_c, x_c, l_c))
                for t_c, x_c, l_c in scan.grazes[lane]:
                    events.append(
                        _make_event(surface, field, t_c, x_c, l_c, direction=0)
                    )
            events.sort(key=lambda e: e.t)
            results[p] = events
        except Exception as err:  # the point's own failure, re-raised by find_crossings
            results[p] = err
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

    Level-set crossings whose parameters land outside (0,1)^{N-1} are kept
    but flagged off-patch.  Sweeps that leave the field's domain box are
    truncated at the exit point.  A sweep that leaves an expression's domain
    is not: the field's error (e.g. expressions.DomainError) ends the search.
    Genuine integrator failures, and crossings the root find cannot bring
    within ON_SURFACE_TOL of the surface, raise IntegrationError.
    """
    (result,), _ = find_crossings_batch(field, [x0], surface, horizon=horizon, cfg=cfg)
    if isinstance(result, BaseException):
        raise result
    return result
