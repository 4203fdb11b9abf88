"""Orbit integration and surface-crossing detection.

One stepper: adaptive Dormand-Prince 8(5,3) (DOP853: 12 stages plus the
first-same-as-last one, Hairer's combined 5th/3rd-order error estimate) with
an elementary step-size controller, run over a lane axis.  Each lane is one
starting point with its own time, step size, attempt count and outcome; all
lanes step together and the field is evaluated for every running lane at once through
``VectorField.eval``.  Backward time is a lane whose field is negated.
A field error (ArithmeticError) fails only the lanes whose own rows raise it.
``flow`` and ``trace_orbit`` are one-lane runs.

Surfaces follow the same row contract (see ``chart.Surface``): the crossing
search makes one ``level`` call per batched step, per refinement pass and
per root iteration, and builds every event of a search from one
``param_inverse`` call, one field call and one level call.  With one surface
per point, each of these is one call per distinct surface.  A surface call
that raises is split like a field call, so a point whose own rows raise
fails alone.

Crossings of a surface's level l are found from l and its rate along the
flow, l' = <grad l, P>, one central difference of l along P.  A step across
which l changes sign is a bracket, and so is one across which l' does
unless l starts moving away from the surface.  On the step's continuous
extension (DOP853's 7th-order dense output) a root of l' splits it at l's
turning point, and each piece across which l changes sign holds one
crossing; both roots are found by Illinois regula falsi on the step
fraction ``theta``, a crossing's starting at the root of the cubic Hermite
through the piece's end levels and rates.  So an excursion past the surface
inside one step is two crossings, as long as l turns at most once per step.
The extension costs three field evaluations per bracket, the root finds
none, and a root that cannot be brought onto the surface is an
``IntegrationError``, never a silently accepted best effort.  All brackets
are refined together after the sweep, so no lane stops another, and a
failed bracket ends its lane's crossings, not its integration (Hairer,
Norsett & Wanner, Solving ODEs I, sections II.5, II.6 and II.10; Shampine,
Gladwell & Brankin, ACM TOMS 17 (1991), on event pairs in a step).
``find_crossings_batch`` returns its crossings as one ``Crossings`` record of
columns, one row per crossing; ``find_crossings`` is its one-point case.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .dynsys import VectorField
from .fdiff import fd_gradient  # noqa: F401 (a binding the benchmark tracer patches)

__all__ = [
    "IntegratorConfig",
    "Orbit",
    "Crossings",
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
RATE_STEP = 1e-7  # time step of the central difference of the level along the flow
HERMITE_BITS = 24  # bisections of a crossing's first iterate on its cubic Hermite
MAX_STEPS = 1_000_000  # attempted-step budget per lane and sweep


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
    """Accuracy knobs of the adaptive Dormand-Prince 8(5,3) stepper.

    abs_tol, rel_tol : per-component error weights
    horizon : largest |t| flow() and find_crossings() will integrate to
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    horizon: float = 50.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "horizon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite: {value}")


DEFAULT_CONFIG = IntegratorConfig()


@dataclasses.dataclass
class RunStats:
    """Work counters of batched integrations; deterministic for given inputs.
    An integrating call adds its work into the RunStats it is passed.

    lanes : lanes integrated (a crossing search uses two per point)
    accepted_steps, rejected_steps : lane steps, summed over lanes
    rhs_calls : the stepper's, the dense output's and the crossing events'
        VectorField.eval calls, including those that split a call which
        raised ArithmeticError down to its raising rows, and one per
        transversality audit (chart.check_transversal)
    rhs_evals : the rows of those calls: lane field evaluations, each
        running lane once per stage, three evaluations per bracketed step
        for its dense output and one per crossing event for its direction,
        plus one per transversality sample; a row of a call that raised is
        counted again in each split call that holds it
    level_calls : surface level calls, one per surface group (the points
        sharing a surface) per batched step, per refinement pass and per root
        iteration of the whole search, plus the start and event calls and
        those that split a call which raised down to its raising rows
    level_evals : level values asked for, each row once (an accepted step
        asks for three: the level at its end and the two points of its rate
        there, and a lane's first step two more for its rate at the start)
    crossings_refined : sign changes located on the interpolant
    root_iterations : root-find iterations, summed over crossings and
        turning points
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
class Crossings:
    """The intersections of a batch of orbits with a surface's zero level
    set: one row per crossing, sorted by point and then by time.

    point : (C,) index of the point whose orbit crosses
    t : (C,) crossing time relative to that point (negative = in the past)
    x : (C, N) state at the crossing
    params : (C, N-1) surface parameters from param_inverse(x)
    direction : (C,) sign of <grad level, P> at x, 0 only where it is exactly 0
    level : (C,) residual level value after refinement
    on_patch : (C,) whether params lie inside the open unit cube
    errors : (P,) object array: per point the exception that failed its
        search, or None; a failed point has no rows
    """

    point: np.ndarray
    t: np.ndarray
    x: np.ndarray
    params: np.ndarray
    direction: np.ndarray
    level: np.ndarray
    on_patch: np.ndarray
    errors: np.ndarray

    def __len__(self):
        return len(self.t)


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3) coefficients (DOP853; Hairer, Norsett & Wanner,
# Solving ODEs I, sections II.5, II.6 and II.10), ported as literals from
# SciPy's scipy/integrate/_ivp/dop853_coefficients.py (Copyright (c) SciPy
# Developers, BSD-3-Clause).
#
# _STAGES[s] holds the (weight, stage) terms of stage s: stages 0..11 are the
# step's, row 12 the 8th-order weights (stage 12 is P(x_new), first same as
# last) and rows 13..15 the extra stages of the dense output.  _E5_TERMS are
# the 5th-order error weights; the 3rd-order error weights are the 8th-order
# weights less _B3.  _D_TERMS are the stage weights of the dense output's
# coefficients 3..6.

_STAGES = [
    [],
    [
        (5.26001519587677318785587544488e-2, 0),
    ],  # 1
    [
        (1.97250569845378994544595329183e-2, 0),
        (5.91751709536136983633785987549e-2, 1),
    ],  # 2
    [
        (2.95875854768068491816892993775e-2, 0),
        (8.87627564304205475450678981324e-2, 2),
    ],  # 3
    [
        (2.41365134159266685502369798665e-1, 0),
        (-8.84549479328286085344864962717e-1, 2),
        (9.24834003261792003115737966543e-1, 3),
    ],  # 4
    [
        (3.7037037037037037037037037037e-2, 0),
        (1.70828608729473871279604482173e-1, 3),
        (1.25467687566822425016691814123e-1, 4),
    ],  # 5
    [
        (3.7109375e-2, 0), (1.70252211019544039314978060272e-1, 3),
        (6.02165389804559606850219397283e-2, 4), (-1.7578125e-2, 5),
    ],  # 6
    [
        (3.70920001185047927108779319836e-2, 0),
        (1.70383925712239993810214054705e-1, 3),
        (1.07262030446373284651809199168e-1, 4),
        (-1.53194377486244017527936158236e-2, 5),
        (8.27378916381402288758473766002e-3, 6),
    ],  # 7
    [
        (6.24110958716075717114429577812e-1, 0), (-3.36089262944694129406857109825, 3),
        (-8.68219346841726006818189891453e-1, 4),
        (2.75920996994467083049415600797e1, 5), (2.01540675504778934086186788979e1, 6),
        (-4.34898841810699588477366255144e1, 7),
    ],  # 8
    [
        (4.77662536438264365890433908527e-1, 0), (-2.48811461997166764192642586468, 3),
        (-5.90290826836842996371446475743e-1, 4),
        (2.12300514481811942347288949897e1, 5), (1.52792336328824235832596922938e1, 6),
        (-3.32882109689848629194453265587e1, 7),
        (-2.03312017085086261358222928593e-2, 8),
    ],  # 9
    [
        (-9.3714243008598732571704021658e-1, 0), (5.18637242884406370830023853209, 3),
        (1.09143734899672957818500254654, 4), (-8.14978701074692612513997267357, 5),
        (-1.85200656599969598641566180701e1, 6),
        (2.27394870993505042818970056734e1, 7), (2.49360555267965238987089396762, 8),
        (-3.0467644718982195003823669022, 9),
    ],  # 10
    [
        (2.27331014751653820792359768449, 0), (-1.05344954667372501984066689879e1, 3),
        (-2.00087205822486249909675718444, 4), (-1.79589318631187989172765950534e1, 5),
        (2.79488845294199600508499808837e1, 6), (-2.85899827713502369474065508674, 7),
        (-8.87285693353062954433549289258, 8), (1.23605671757943030647266201528e1, 9),
        (6.43392746015763530355970484046e-1, 10),
    ],  # 11
    [
        (5.42937341165687622380535766363e-2, 0), (4.45031289275240888144113950566, 5),
        (1.89151789931450038304281599044, 6), (-5.8012039600105847814672114227, 7),
        (3.1116436695781989440891606237e-1, 8),
        (-1.52160949662516078556178806805e-1, 9),
        (2.01365400804030348374776537501e-1, 10),
        (4.47106157277725905176885569043e-2, 11),
    ],  # 12
    [
        (5.61675022830479523392909219681e-2, 0),
        (2.53500210216624811088794765333e-1, 6),
        (-2.46239037470802489917441475441e-1, 7),
        (-1.24191423263816360469010140626e-1, 8),
        (1.5329179827876569731206322685e-1, 9),
        (8.20105229563468988491666602057e-3, 10),
        (7.56789766054569976138603589584e-3, 11), (-8.298e-3, 12),
    ],  # 13
    [
        (3.18346481635021405060768473261e-2, 0),
        (2.83009096723667755288322961402e-2, 5),
        (5.35419883074385676223797384372e-2, 6),
        (-5.49237485713909884646569340306e-2, 7),
        (-1.08347328697249322858509316994e-4, 10),
        (3.82571090835658412954920192323e-4, 11),
        (-3.40465008687404560802977114492e-4, 12),
        (1.41312443674632500278074618366e-1, 13),
    ],  # 14
    [
        (-4.28896301583791923408573538692e-1, 0),
        (-4.69762141536116384314449447206, 5), (7.68342119606259904184240953878, 6),
        (4.06898981839711007970213554331, 7), (3.56727187455281109270669543021e-1, 8),
        (-1.39902416515901462129418009734e-3, 12),
        (2.9475147891527723389556272149, 13), (-9.15095847217987001081870187138, 14),
    ],  # 15
]
_E5_TERMS = [
    (0.1312004499419488073250102996e-1, 0), (-0.1225156446376204440720569753e+1, 5),
    (-0.4957589496572501915214079952, 6), (0.1664377182454986536961530415e+1, 7),
    (-0.3503288487499736816886487290, 8), (0.3341791187130174790297318841, 9),
    (0.8192320648511571246570742613e-1, 10), (-0.2235530786388629525884427845e-1, 11),
]
_B3 = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
       11: 0.220588235294117647058823529412e-1}
_D_TERMS = [
    [
        (-0.84289382761090128651353491142e+1, 0), (0.56671495351937776962531783590, 5),
        (-0.30689499459498916912797304727e+1, 6),
        (0.23846676565120698287728149680e+1, 7),
        (0.21170345824450282767155149946e+1, 8), (-0.87139158377797299206789907490, 9),
        (0.22404374302607882758541771650e+1, 10),
        (0.63157877876946881815570249290, 11),
        (-0.88990336451333310820698117400e-1, 12),
        (0.18148505520854727256656404962e+2, 13),
        (-0.91946323924783554000451984436e+1, 14),
        (-0.44360363875948939664310572000e+1, 15),
    ],
    [
        (0.10427508642579134603413151009e+2, 0),
        (0.24228349177525818288430175319e+3, 5),
        (0.16520045171727028198505394887e+3, 6),
        (-0.37454675472269020279518312152e+3, 7),
        (-0.22113666853125306036270938578e+2, 8),
        (0.77334326684722638389603898808e+1, 9),
        (-0.30674084731089398182061213626e+2, 10),
        (-0.93321305264302278729567221706e+1, 11),
        (0.15697238121770843886131091075e+2, 12),
        (-0.31139403219565177677282850411e+2, 13),
        (-0.93529243588444783865713862664e+1, 14),
        (0.35816841486394083752465898540e+2, 15),
    ],
    [
        (0.19985053242002433820987653617e+2, 0),
        (-0.38703730874935176555105901742e+3, 5),
        (-0.18917813819516756882830838328e+3, 6),
        (0.52780815920542364900561016686e+3, 7),
        (-0.11573902539959630126141871134e+2, 8),
        (0.68812326946963000169666922661e+1, 9),
        (-0.10006050966910838403183860980e+1, 10),
        (0.77771377980534432092869265740, 11),
        (-0.27782057523535084065932004339e+1, 12),
        (-0.60196695231264120758267380846e+2, 13),
        (0.84320405506677161018159903784e+2, 14),
        (0.11992291136182789328035130030e+2, 15),
    ],
    [
        (-0.25693933462703749003312586129e+2, 0),
        (-0.15418974869023643374053993627e+3, 5),
        (-0.23152937917604549567536039109e+3, 6),
        (0.35763911791061412378285349910e+3, 7),
        (0.93405324183624310003907691704e+2, 8),
        (-0.37458323136451633156875139351e+2, 9),
        (0.10409964950896230045147246184e+3, 10),
        (0.29840293426660503123344363579e+2, 11),
        (-0.43533456590011143754432175058e+2, 12),
        (0.96324553959188282948394950600e+2, 13),
        (-0.39177261675615439165231486172e+2, 14),
        (-0.14972683625798562581422125276e+3, 15),
    ],
]
_E3_TERMS = [(w - _B3.get(j, 0.0), j) for w, j in _STAGES[12]]

# lane outcomes of _integrate
_DONE, _EXIT, _FAILED = range(3)


def _combine(terms, stages):
    """sum of w * stages[j] over (w, j) in terms, in a fixed elementwise order.

    Weights are the scalars of the literal coefficient tables; every lane's
    value depends only on its own row, whichever lanes share the batch.
    """
    (w, j), *rest = terms
    acc = w * stages[j]
    for w, j in rest:
        acc = acc + w * stages[j]
    return acc


def _sum_sq(q):
    """Row sums of q * q over the columns of q (R, N), in a fixed order."""
    ssq = q[:, 0] * q[:, 0]
    for j in range(1, q.shape[1]):
        ssq = ssq + q[:, j] * q[:, j]
    return ssq


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


def _field_rows(field: VectorField, xs, fail, stats: RunStats) -> np.ndarray:
    """The field at every row of xs (R, N), counted in stats and split by
    _split_on_error, so a row that raises ArithmeticError goes to fail(r,
    err) and reads NaN."""

    def call(rows):
        stats.rhs_calls += 1
        stats.rhs_evals += len(rows)
        return field.eval(rows, check_domain=False)

    return _split_on_error(call, xs, ArithmeticError, fail, (xs.shape[1],))


def _surface_groups(surface, count: int) -> tuple:
    """(surfaces, group): the distinct surfaces of a crossing search in order
    of first appearance, and per point the index of its own.  `surface` is
    one surface for all `count` points or a sequence of one per point."""
    if hasattr(surface, "level"):
        return [surface], np.zeros(count, dtype=int)
    given = list(surface)
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
    if len(surfaces) == 1:  # every row on one surface: no gather or scatter
        return _split_on_error(lambda pts: fn(surfaces[0], pts), xs, Exception,
                               fail, row_shape)
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
               stats: RunStats, on_accept):
    """Integrate dx/dt = sign * P(x) over [0, T] on every lane of x0 (L, N).

    `sign` holds +1 or -1 per lane.  After each batched step,
    ``on_accept(lanes, t_old, x_old, t_new, x_new, h, stage)`` sees the lanes
    whose step was accepted (``stage(j)`` returns stage derivative j of their
    step, 0 <= j < 13: the first at x_old, the last at x_new) and returns
    those of them to stop, or None.  A lane stops when it reaches T, leaves
    the domain box (the state outside the box is its last accepted sample),
    fails (its field rows raise, or its steps run out or underflow), or is
    stopped by on_accept.  Finished lanes are dropped from the compact state
    of the running lanes.

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

    def rhs(xs):
        return _field_rows(field, xs, lambda row, err: fail([row], lambda _: err), stats) * sg

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
        if attempts > MAX_STEPS:
            fail(slice(None), lambda _: StepLimitExceeded(
                f"{field.name}: exceeded {MAX_STEPS} attempted steps (dop853)"
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
        for s in range(1, 12):
            K.append(rhs(x + hc * _combine(_STAGES[s], K)))
        x_new = x + hc * _combine(_STAGES[12], K)
        K.append(rhs(x_new))  # first-same-as-last: the last stage is P(x_new)
        # Hairer's 5(3) error norm h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) N):
        # 0 where both vanish, while np.maximum keeps a NaN norm NaN
        weight = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x), np.abs(x_new))
        ssq5 = _sum_sq(_combine(_E5_TERMS, K) / weight)
        ssq3 = _sum_sq(_combine(_E3_TERMS, K) / weight)
        err_norm = h * ssq5 / np.sqrt(np.maximum(ssq5 + 0.01 * ssq3, 1e-300) * N)

        # lanes whose field rows failed in this step leave with the NaN ones
        err_norm[outcome[ids] == _FAILED] = np.nan
        ok = err_norm <= 1.0
        n_ok = int(np.count_nonzero(ok))
        # a NaN error norm (the field went NaN inside the step) would grow
        # the step until MAX_STEPS: such lanes fail now; inf just rejects
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
            outside = ~field.contains(x_new)
            finished = outside | (T - t_new <= end_tol)
            if n_ok == len(ids):
                acc, pos = ids, slice(None)
                t_old, x_old, t, x, k0 = t, x, t_new, x_new, K[12]
                x_acc, t_acc, h_acc = x_new, t_new, h
            else:
                finished &= ok
                pos = np.flatnonzero(ok)
                acc, t_old, x_old = ids[pos], t[pos], x[pos]
                x_acc, t_acc, h_acc = x_new[pos], t_new[pos], h[pos]
                okc = ok[:, None]
                t = np.where(ok, t_new, t)
                x = np.where(okc, x_new, x)
                k0 = np.where(okc, K[12], k0)
            outcome[ids[finished & outside]] = _EXIT
            stop = on_accept(acc, t_old, x_old, t_acc, x_acc, h_acc, lambda j: K[j][pos])
            if stop is not None:
                outcome[stop] = _FAILED
                finished |= np.isin(ids, stop)
            if finished.any():
                keep = ~finished
        if broken is not None:
            keep = ~broken if keep is None else keep & ~broken
        # elementary controller for the 8th-order error; a zero error norm
        # grows the step 10x
        factor = 0.9 * np.maximum(err_norm, 1e-300) ** -0.125
        h = h * np.fmin(10.0, np.maximum(0.2, factor))
        if keep is not None:
            ids, x, t, h, k0, sg = (a[keep] for a in (ids, x, t, h, k0, sg))
    return outcome, errors


def flow_batch(field: VectorField, points, t: float,
               cfg: Optional[IntegratorConfig] = None, stats: Optional[RunStats] = None):
    """flow for many points as one lane-batched integration, its work added
    into stats when given.

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

    def keep_last(lanes, t_old, x_old, t_new, x_new, h, stage):
        final[lanes] = x_new
        t_last[lanes] = t_new

    sign = 1.0 if t > 0 else -1.0
    outcome, errors = _integrate(field, X, sign, abs(t), cfg,
                                 RunStats() if stats is None else stats, keep_last)
    for lane in np.flatnonzero(outcome == _EXIT):
        t_exit, x_exit = float(t_last[lane]), final[lane].copy()
        errors[lane] = DomainExit(field.name, t_exit, x_exit,
                                  [0.0, t_exit], [X[lane].copy(), x_exit])
    final[[err is not None for err in errors]] = np.nan
    return final, errors


def flow(field: VectorField, x0, t: float, cfg: Optional[IntegratorConfig] = None,
         stats: Optional[RunStats] = None):
    """State of the orbit through x0 after signed time t; the one-point case
    of flow_batch."""
    (state,), (err,) = flow_batch(field, [x0], t, cfg=cfg, stats=stats)
    if err is not None:
        raise err
    return state


def trace_orbit(field: VectorField, x0, t_span, cfg: Optional[IntegratorConfig] = None,
                stats: Optional[RunStats] = None) -> Orbit:
    """Sampled orbit over t_span = (t0, t1), one sample per accepted step; x0
    is the state at t0.  Its work is added into stats when given.

    Raises DomainExit (carrying the samples, times relative to t0),
    StepLimitExceeded or IntegrationError.
    """
    cfg = cfg or DEFAULT_CONFIG
    t0, t1 = float(t_span[0]), float(t_span[1])
    x0 = np.asarray(x0, dtype=float)
    times, states = [0.0], [x0.copy()]

    def record(lanes, t_old, x_old, t_new, x_new, h, stage):
        times.append(float(t_new[0]))
        states.append(x_new[0].copy())

    sign = 1.0 if t1 > t0 else -1.0
    outcome, errors = _integrate(field, x0[None, :], sign, abs(t1 - t0), cfg,
                                 RunStats() if stats is None else stats, record)
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


def _rate(before, after):
    """The level's rate along the flow from its values RATE_STEP apart."""
    return (after - before) / (2.0 * RATE_STEP)


def _opposite(a, b):
    """Where a and b are nonzero and of opposite sign (never at NaN)."""
    return ((a > 0.0) & (b < 0.0)) | ((a < 0.0) & (b > 0.0))


def _events(field, surfaces, group, x, stats: RunStats) -> tuple:
    """(params, direction, on_patch, errors) of the event at each row of x
    (E, N), row e on the surface surfaces[group[e]], from one param_inverse
    call and one level call per surface and one field call: the direction
    is the sign of the level's rate along P, from the level at
    x -+ RATE_STEP P(x).  errors maps each row whose event raises to its
    exception.

    A row's exception is the first of its param_inverse error, its field
    error and its level error (before, then after the row).
    """
    E, N = x.shape
    errors = {}

    def params_of(surface, xs):
        return np.asarray(surface.param_inverse(xs), dtype=float).reshape(len(xs), N - 1)

    own = errors.setdefault  # the first error of a row is its event's
    params = _per_surface(params_of, surfaces, group, x, own, (N - 1,))
    on_patch = np.all((params > 0.0) & (params < 1.0), axis=1)

    step = RATE_STEP * _field_rows(field, x, own, stats)
    twice = np.tile(np.arange(E), 2)
    rate = _rate(*_levels(surfaces, group[twice], np.concatenate([x - step, x + step]),
                          lambda i, err: own(twice[i], err), stats).reshape(2, E))
    direction = np.where(rate > 0.0, 1, np.where(rate < 0.0, -1, 0))
    return params, direction, on_patch, errors


def _dense_output(field, sign, x_old, x_new, h, stages, fail, stats: RunStats):
    """Coefficients F (7, m, N) of DOP853's 7th-order continuous extension of
    one accepted step per row.

    Row r is a step of size h[r] from x_old[r] to x_new[r] with its 13
    stages stages[r] (13, N), under the field sign[r] * P.  The three extra
    stages cost one batched field call each (_field_rows); a row that raises
    goes to fail(r, err) and its coefficients read NaN.
    """
    K = list(stages.transpose(1, 0, 2))
    hc = h[:, None]
    for s in range(13, 16):
        xs = x_old + hc * _combine(_STAGES[s], K)
        K.append(_field_rows(field, xs, fail, stats) * sign[:, None])
    delta = x_new - x_old
    h_old, h_new = hc * K[0], hc * K[12]
    return np.stack([delta, h_old - delta, 2.0 * delta - h_new - h_old,
                     *(hc * _combine(terms, K) for terms in _D_TERMS)])


def _dense_at(x_old, F, theta):
    """x(t_old + theta h) per row from _dense_output's coefficients F:
    x_old + t (F0 + u (F1 + t (F2 + u (F3 + t (F4 + u (F5 + t F6)))))) with
    t = theta and u = 1 - theta.  theta (..., m) holds step fractions of the
    m rows, giving (..., m, N)."""
    th = theta[..., None]
    one = 1.0 - th
    x = F[6] * th
    for i in range(5, -1, -1):
        x = (x + F[i]) * (th if i % 2 == 0 else one)
    return x_old + x


def _hermite_root(f_lo, f_hi, s_lo, s_hi):
    """A root u in (0, 1), to 2**-HERMITE_BITS, of the cubic Hermite on [0, 1]
    through the values f_lo, f_hi (nonzero, of opposite sign) and slopes
    s_lo, s_hi at its ends: bisection on the cubic alone."""
    c2 = 3.0 * (f_hi - f_lo) - 2.0 * s_lo - s_hi
    c3 = 2.0 * (f_lo - f_hi) + s_lo + s_hi
    above = f_lo > 0.0
    u, step = np.zeros(len(f_lo)), 0.5
    for _ in range(HERMITE_BITS):  # u is the low end of a bracket 2 * step wide
        mid = u + step
        u = np.where((f_lo + mid * (s_lo + mid * (c2 + mid * c3)) > 0.0) == above, mid, u)
        step *= 0.5
    return u + step


def _illinois(f, lo, hi, f_lo, f_hi, tol, collapse, stats: RunStats, first=None):
    """Illinois regula falsi on theta in each bracket [lo[b], hi[b]] whose
    values f_lo[b] and f_hi[b] are nonzero and of opposite sign.

    f(b, theta) gives the values at theta[i] of brackets b[i], NaN where a
    value cannot be had.  The first iterate is first[b] where given, else the
    secant point.  A bracket stops at |value| <= tol, at NaN, or once it is
    no wider than collapse[b]; a secant point that is not strictly inside it
    is replaced by its midpoint.  Returns (theta, value) per bracket at the
    smallest |value| seen, its ends included.
    """
    lo, hi, f_lo = lo.copy(), hi.copy(), f_lo.copy()  # f_lo: true value at lo
    g_lo, g_hi = f_lo.copy(), f_hi.copy()  # Illinois-scaled secant weights
    last_side = np.full(len(lo), -1)
    at_hi = np.abs(g_hi) < np.abs(g_lo)
    best_theta, best_f = np.where(at_hi, hi, lo), np.where(at_hi, g_hi, g_lo)
    active = np.ones(len(lo), dtype=bool)
    for k in range(MAX_ROOT_ITERATIONS):
        b = np.flatnonzero(active)
        if not b.size:
            break
        stats.root_iterations += b.size
        a, c = lo[b], hi[b]
        ga, gc = g_lo[b], g_hi[b]
        theta = first if k == 0 and first is not None else (a * gc - c * ga) / (gc - ga)
        theta = np.where((theta > a) & (theta < c), theta, 0.5 * (a + c))
        fs = f(b, theta)

        better = np.abs(fs) < np.abs(best_f[b])
        best_theta[b[better]] = theta[better]
        best_f[b[better]] = fs[better]

        to_lo = (fs > 0.0) == (f_lo[b] > 0.0)
        b_lo, b_hi = b[to_lo], b[~to_lo]
        lo[b_lo], f_lo[b_lo], g_lo[b_lo] = theta[to_lo], fs[to_lo], fs[to_lo]
        hi[b_hi], g_hi[b_hi] = theta[~to_lo], fs[~to_lo]
        # the same end replaced twice running: halve the stale end's weight
        g_hi[b_lo[last_side[b_lo] == 0]] *= 0.5
        g_lo[b_hi[last_side[b_hi] == 1]] *= 0.5
        last_side[b] = np.where(to_lo, 0, 1)

        done = (np.abs(fs) <= tol) | (hi[b] - lo[b] <= collapse[b]) | np.isnan(fs)
        active[b[done]] = False
    return best_theta, best_f


class _CrossingScan:
    """Per-lane scan of accepted steps for crossings of the level l.

    Lane i is point i % P swept forward (i < P) or backward (i >= P), from
    x0[i] on the surface surfaces[group[i]].  A leading on-surface stretch
    (|l| <= ON_SURFACE_TOL) is the start's own crossing, found on its
    forward lane: until an off-surface step end arms a lane, its steps start
    at l = 0, so only a turning point off the surface begins a search there.

    Each step asks, in one level call, for l and its rate along the flow at
    its end (P there is the step's last stage; a lane's first step also asks
    for the rate at its start).  An exact zero of l at a step's end is an
    event on the spot.  A step across which l changes sign, or its rate does
    unless l starts away from S, is kept as a bracket; refine() locates all
    of them after the sweep, as a root depends on its own step alone.  This
    assumes at most one turning point of l per accepted step: two leave the
    rate's sign at the ends unchanged and hide the excursion between them,
    and one in a step that starts away from S faces away.

    Crossings and failed brackets are kept as columns, each with its lane's
    sequence number: -1 for the start, and the k-th batched step numbers its
    pieces (see refine) 3k and 3k + 1 in time order and a zero at its end
    3k + 2.  A lane's first failed bracket ends its crossings (located()),
    not its integration.
    """

    def __init__(self, field, surfaces, group, x0, l0, sign, stats):
        L = len(l0)
        self.field = field
        self.surfaces = surfaces
        self.group = group
        self.sign = sign
        self.stats = stats
        self.last = np.array(l0, dtype=float)   # level at the newest sample
        self.rate = np.zeros(L)                 # its rate, from the first step on
        self.armed = np.abs(self.last) > ON_SURFACE_TOL
        self.steps = 0      # batched steps seen
        # column tuples (lane, seq, t, x, level) of crossings, from the starts on S
        start = np.flatnonzero((np.abs(self.last) <= ON_SURFACE_TOL) & (sign > 0.0))
        self.found = [(start, np.full(len(start), -1), np.zeros(len(start)), x0[start],
                       self.last[start])]
        self.broken = []    # (lane, seq, exception) of each failed bracket
        self.pending = []   # column tuples of unrefined brackets, see refine
        self.errors = [None] * L  # level errors of the scan itself
        self.failed = np.zeros(L, dtype=bool)

    def __call__(self, lanes, t_old, x_old, t_new, x_new, h, stage):
        def fail(r, err):  # a lane whose level raises fails alone, not the batch
            if not self.failed[lanes[r]]:  # the first error in time order
                self.errors[lanes[r]] = err
                self.failed[lanes[r]] = True

        seq = 3 * self.steps
        self.steps += 1
        # rows in time order: the rate points of a first step's start, then
        # the step's end between its own
        first = np.flatnonzero(t_old == 0.0)
        d_old, d_new = RATE_STEP * stage(0)[first], RATE_STEP * stage(12)
        at = np.arange(len(lanes))
        owner = np.concatenate([first, first, at, at, at])
        levels = _levels(self.surfaces, self.group[lanes[owner]], np.concatenate([
            x_old[first] - d_old, x_old[first] + d_old, x_new - d_new, x_new, x_new + d_new,
        ]), lambda i, err: fail(owner[i], err), self.stats)
        self.rate[lanes[first]] = _rate(*levels[:2 * len(first)].reshape(2, -1))
        before, lnew, after = levels[2 * len(first):].reshape(3, -1)
        armed = self.armed[lanes]
        lp = np.where(armed, self.last[lanes], 0.0)  # until armed, a step starts on S
        rp, rnew = self.rate[lanes], _rate(before, after)
        self.last[lanes], self.rate[lanes] = lnew, rnew
        self.armed[lanes] = armed | (np.abs(lnew) > ON_SURFACE_TOL)
        bracket = _opposite(lp, lnew) | (_opposite(rp, rnew) & ~(lp * rp > 0.0))
        hit = armed & (lnew == 0.0)
        if bracket.any() or hit.any():
            live = ~self.failed[lanes]
            rows = np.flatnonzero(live & bracket)
            if rows.size:
                self.pending.append((
                    lanes[rows], np.full(rows.size, seq), t_old[rows],
                    x_old[rows], x_new[rows], h[rows],
                    np.stack([stage(j)[rows] for j in range(13)], axis=1),
                    lp[rows], lnew[rows], rp[rows], rnew[rows],
                ))
            rows = np.flatnonzero(live & hit)
            self.found.append((lanes[rows], np.full(rows.size, seq + 2),
                               self.sign[lanes[rows]] * t_new[rows], x_new[rows],
                               np.zeros(rows.size)))
        failed = self.failed[lanes]
        return lanes[failed] if failed.any() else None

    def located(self):
        """(lane, seq, t, x, level, ended): the columns of every lane's
        crossings before its first failed bracket, and a dict from each lane
        that has a failed bracket to the first one's exception."""
        lane, seq, t, x, level = (np.concatenate(c) for c in zip(*self.found))
        first = np.full(len(self.failed), np.iinfo(np.int64).max)
        b_lane, b_seq = np.array([b[:2] for b in self.broken], dtype=int).reshape(-1, 2).T
        np.minimum.at(first, b_lane, b_seq)
        ended = {k: err for k, s, err in self.broken if s == first[k]}
        keep = seq < first[lane]
        return lane[keep], seq[keep], t[keep], x[keep], level[keep], ended

    def refine(self):
        """The crossings of every bracketed step, on its dense output, in one
        root-find pass after the sweep.

        Row r is a step of lane lanes[r] with sequence number seq[r], with
        stages (m, 13, N), and the level l_a, l_b and its rate r_a, r_b at
        its ends.  A step whose rate changes sign is split where the rate (a
        difference in theta) has its root, to within RATE_STEP in time.
        Each piece across which the level changes sign holds one crossing:
        the point of least |level| its root find saw, stopping at
        CROSSING_LEVEL_TOL or 1e-13 in time, from the root of the cubic
        Hermite through the piece's end levels and slopes in theta (h r_a,
        h r_b, and 0 at a turning point).  Above ON_SURFACE_TOL it is an
        IntegrationError, which ends the step's crossings; a level or field
        row that raises fails the step.
        """
        if not self.pending:
            return
        lanes, seq, t_old, x_old, x_new, h, stages, l_a, l_b, r_a, r_b = (
            np.concatenate(c) for c in zip(*self.pending))
        self.pending = []
        m = len(lanes)
        errors = {}
        raised = np.zeros(m, dtype=bool)

        def fail(r, err):
            if not raised[r]:
                errors[r], raised[r] = err, True

        F = _dense_output(self.field, self.sign[lanes], x_old, x_new, h, stages, fail,
                          self.stats)

        def levels(rows, theta):  # at step fractions theta (..., n) of steps rows (n,)
            xs = _dense_at(x_old[rows], F[:, rows], theta)
            at = np.broadcast_to(rows, theta.shape).reshape(-1)
            return _levels(self.surfaces, self.group[lanes[at]], xs.reshape(-1, xs.shape[-1]),
                           lambda i, err: fail(at[i], err), self.stats).reshape(theta.shape)

        turn = np.flatnonzero(_opposite(r_a, r_b) & ~raised)
        d = RATE_STEP / h[turn]
        theta_t, _ = _illinois(
            lambda b, theta: _rate(*levels(turn[b], theta + np.stack([-d[b], d[b]]))),
            np.zeros(len(turn)), np.ones(len(turn)), r_a[turn], r_b[turn], 0.0, d,
            self.stats,
        )
        l_t = levels(turn, theta_t)
        # a step from the surface that turns on it has not left it
        l_t[(l_a[turn] == 0.0) & (np.abs(l_t) <= ON_SURFACE_TOL)] = 0.0

        # the pieces: each step whole, or up to and from its turning point
        row = np.concatenate([np.arange(m), turn])
        lo = np.concatenate([np.zeros(m), theta_t])
        hi = np.ones(len(row))
        hi[turn] = theta_t
        f_lo = np.concatenate([l_a, l_t])
        f_hi = np.concatenate([l_b, l_b[turn]])
        f_hi[turn] = l_t
        # the level's slopes in theta at the pieces' ends; zero at a turning point
        s_lo = np.concatenate([h * r_a, np.zeros(len(turn))])
        s_hi = np.concatenate([h * r_b, (h * r_b)[turn]])
        s_hi[turn] = 0.0
        piece = np.flatnonzero(_opposite(f_lo, f_hi) & ~raised[row])
        piece = piece[np.lexsort((lo[piece], row[piece]))]  # time order per step
        row = row[piece]
        self.stats.crossings_refined += len(row)
        lo, hi, f_lo, f_hi = lo[piece], hi[piece], f_lo[piece], f_hi[piece]
        w = hi - lo
        theta, level = _illinois(
            lambda b, theta: levels(row[b], theta), lo, hi, f_lo, f_hi,
            CROSSING_LEVEL_TOL, (1e-13 * np.maximum(1.0, h) / h)[row], self.stats,
            first=lo + w * _hermite_root(f_lo, f_hi, w * s_lo[piece], w * s_hi[piece]),
        )
        x = _dense_at(x_old[row], F[:, row], theta)
        x[theta == 1.0] = x_new[row[theta == 1.0]]  # the step's own end
        t = self.sign[lanes][row] * (t_old[row] + theta * h[row])

        # a piece's sequence number: its step's plus its rank in the step (row is sorted)
        lane, at = lanes[row], seq[row] + np.arange(len(row)) - np.searchsorted(row, row)
        ok = np.abs(level) <= ON_SURFACE_TOL
        self.found.append((lane[ok], at[ok], t[ok], x[ok], level[ok]))
        self.broken += [(lane[i], at[i], IntegrationError(
            f"{self.field.name}: crossing near t={t[i]:.6g} did not converge:"
            f" |level| = {abs(level[i]):.3g} > {ON_SURFACE_TOL:g}"
            f" at x={x[i].tolist()}"
        )) for i in np.flatnonzero(~ok)]
        self.broken += [(lanes[r], seq[r], errors[r]) for r in np.flatnonzero(raised)]


def find_crossings_batch(
    field: VectorField,
    points,
    surface,
    cfg: Optional[IntegratorConfig] = None,
    stats: Optional[RunStats] = None,
) -> Crossings:
    """find_crossings for many points as one lane-batched integration, whose
    lanes are each point's forward and backward sweep over cfg.horizon; the
    batch's work is added into stats when given.

    `surface` is one surface for every point or a sequence of one per point;
    each surface call is made once per surface present, in order of first
    appearance.  Returns the Crossings of every point: point i's rows are
    those find_crossings returns for points[i], and errors[i] the exception
    it would raise.  A field error (ArithmeticError) on either lane, forward
    first, is a point's outcome; then the forward lane's scan and stepper
    errors, then the backward lane's.  Every bracketed step is refined after
    the sweep, in one pass, and no lane stops another.
    """
    cfg = cfg or DEFAULT_CONFIG
    stats = RunStats() if stats is None else stats
    X = np.asarray(points, dtype=float).reshape(len(points), field.dim)
    P = len(X)
    surfaces, group = _surface_groups(surface, P)
    errors = np.full(P, None, dtype=object)
    # a start whose level raises fails its point
    l0 = _levels(surfaces, group, X, errors.__setitem__, stats)
    live = np.flatnonzero(np.equal(errors, None))
    Q = len(live)
    point = np.concatenate([live, live])  # of each lane: forward lanes first
    sign = np.concatenate([np.ones(Q), -np.ones(Q)])
    scan = _CrossingScan(field, surfaces, group[point], X[point], l0[point], sign, stats)
    outcome, stepped = _integrate(field, X[point], sign, cfg.horizon, cfg, stats, scan)
    scan.refine()
    lane, seq, t, x, level, ended = scan.located()

    def lane_errors(k):
        """(scan error, stepper error) of lane k: a failed bracket ends its
        crossings and stands for any later error of its own."""
        if k in ended:
            return ended[k], None
        return scan.errors[k], stepped[k]

    failing = outcome == _FAILED
    failing[list(ended)] = True
    for q in np.flatnonzero(failing[:Q] | failing[Q:]):
        (s_fwd, i_fwd), (s_bwd, i_bwd) = lane_errors(q), lane_errors(Q + q)
        raised = [e for e in (i_fwd, i_bwd) if isinstance(e, ArithmeticError)]
        errors[live[q]] = next((e for e in (*raised, s_fwd, i_fwd, s_bwd, i_bwd)
                                if e is not None), None)

    # the events of the points still standing, in the order of their calls:
    # per point its lanes' crossings, forward first, each in sequence order
    owner = point[lane]
    rows = np.lexsort((seq, lane, owner))
    rows = rows[np.equal(errors[owner[rows]], None)]
    owner, t, x, level = owner[rows], t[rows], x[rows], level[rows]
    params, direction, on_patch, failures = _events(field, surfaces, group[owner], x, stats)
    for e in sorted(failures):  # a point fails at its first event that raises
        if errors[owner[e]] is None:
            errors[owner[e]] = failures[e]

    keep = np.flatnonzero(np.equal(errors[owner], None))
    keep = keep[np.lexsort((t[keep], owner[keep]))]
    return Crossings(point=owner[keep], t=t[keep], x=x[keep], params=params[keep],
                     direction=direction[keep], level=level[keep],
                     on_patch=on_patch[keep], errors=errors)


def find_crossings(
    field: VectorField,
    x0,
    surface,
    horizon: Optional[float] = None,
    cfg: Optional[IntegratorConfig] = None,
) -> Crossings:
    """All crossings of the orbit through x0 with a surface, both time
    directions: the one-point Crossings of find_crossings_batch, sorted by
    time, or the exception that failed its search, raised.

    A crossing is a sign change of the level on an accepted step's dense
    output, an exact zero at a step's end, or a start within ON_SURFACE_TOL
    of the surface; a touch that keeps the level's sign is none.  A step
    holds a crossing when the level changes sign across it, and two when the
    level leaves its sign and returns inside it, seen as a sign change of
    the level's rate along the flow (at most one turning point of the level
    per step).  Level-set crossings whose parameters land outside
    (0,1)^{N-1} are kept but flagged off-patch.  Sweeps that leave the field's domain box are
    truncated at the exit point.  A sweep that leaves an expression's domain
    is not: the field's error (e.g. expressions.DomainError) ends the search.
    Genuine integrator failures, and crossings the root find cannot bring
    within ON_SURFACE_TOL of the surface, raise IntegrationError.  A given
    horizon replaces cfg.horizon.
    """
    if horizon is not None:
        cfg = dataclasses.replace(cfg or DEFAULT_CONFIG, horizon=float(horizon))
    found = find_crossings_batch(field, [x0], surface, cfg=cfg)
    (err,) = found.errors
    if err is not None:
        raise err
    return found
