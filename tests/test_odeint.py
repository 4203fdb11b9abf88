import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from flowbox import odeint
from flowbox.chart import (
    Surface,
    build_chart,
    builtin_surface,
    circle_surface,
    evaluate_grid,
    line_surface,
    surface_from_json,
)
from flowbox.dynsys import VectorField, builtin, parse_system
from flowbox.expressions import DomainError
from flowbox.odeint import (
    _E3_TERMS,
    _E5_TERMS,
    _STAGES,
    DEFAULT_CONFIG,
    DomainExit,
    IntegrationError,
    IntegratorConfig,
    RunStats,
    StepLimitExceeded,
    _dense_at,
    _dense_output,
    _hermite_root,
    _integrate,
    find_crossings,
    find_crossings_batch,
    flow,
    flow_batch,
    trace_orbit,
)


def test_flow_matches_matrix_exponential(tight_cfg):
    field = builtin("linear-ar")
    A = np.array([[5.5, -2.5], [-2.5, 5.5]])
    x0 = np.array([0.3, -0.2])
    for t in [0.05, 0.2, -0.15]:
        expected = expm(A * t) @ x0
        np.testing.assert_allclose(
            flow(field, x0, t, cfg=tight_cfg), expected, rtol=1e-8, atol=1e-10
        )


def test_rotation_preserves_radius(tight_cfg):
    field = builtin("rotation-c")
    x0 = np.array([2.0, 0.0])
    orbit = trace_orbit(field, x0, (0.0, 2.0 * np.pi), cfg=tight_cfg)
    radii = np.hypot(orbit.states[:, 0], orbit.states[:, 1])
    np.testing.assert_allclose(radii, 2.0, atol=1e-8)
    # full revolution returns to the start
    np.testing.assert_allclose(orbit.states[-1], x0, atol=1e-7)


def test_backward_forward_round_trip(tight_cfg):
    field = builtin("limit-cycle")
    x0 = np.array([0.4, 0.1])
    xt = flow(field, x0, 0.7, cfg=tight_cfg)
    back = flow(field, xt, -0.7, cfg=tight_cfg)
    np.testing.assert_allclose(back, x0, atol=1e-8)


def test_zero_time_is_identity():
    field = builtin("source-a")
    x0 = np.array([1.0, 2.0])
    out = flow(field, x0, 0.0)
    np.testing.assert_allclose(out, x0)
    assert out is not x0
    orbit = trace_orbit(field, x0, (0.7, 0.7))
    assert orbit.times.tolist() == [0.7]
    np.testing.assert_array_equal(orbit.states, [x0])


def test_rk45_closed_orbit_returns():
    field = builtin("rotation-c")
    x0 = np.array([1.0, 0.0])
    cfg = IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10)
    err = np.linalg.norm(flow(field, x0, 2.0 * np.pi, cfg=cfg) - x0)
    assert err < 1e-8


def test_step_limit_exceeded(monkeypatch):
    field = builtin("rotation-c")
    monkeypatch.setattr(odeint, "MAX_STEPS", 5)
    with pytest.raises(StepLimitExceeded):
        flow(field, np.array([1.0, 0.0]), 6.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_error_estimate_fails_at_once(monkeypatch):
    # exp(exp(x1)) overflows past x1 = 6.56 and inf - inf is NaN: the step
    # controller must not spin on a NaN error estimate until MAX_STEPS
    field = parse_system("1, exp(exp(x1)) - exp(exp(x1))", 2)
    monkeypatch.setattr(odeint, "MAX_STEPS", 1000)
    with pytest.raises(IntegrationError, match="NaN") as exc:
        flow(field, np.array([5.0, 0.0]), 3.0)
    assert not isinstance(exc.value, StepLimitExceeded)


def test_domain_exit_carries_partial_orbit():
    field = parse_system("x1, x2", 2, name="tight", domain=[(-2, 2), (-2, 2)])
    with pytest.raises(DomainExit) as exc:
        flow(field, np.array([1.0, 1.0]), 3.0)
    info = exc.value
    assert info.t_exit > 0
    assert len(info.times) == len(info.states)
    assert not field.contains(info.x_exit)


def test_horizon_guard():
    field = builtin("source-a")
    cfg = IntegratorConfig(horizon=1.0)
    with pytest.raises(ValueError):
        flow(field, np.array([1.0, 0.0]), 1.5, cfg=cfg)


@pytest.mark.parametrize("name", ["abs_tol", "rel_tol", "horizon"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_config_rejects_nonpositive_or_nonfinite_knobs(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite: {value}$"):
        IntegratorConfig(**{name: value})


def test_trace_orbit_monotone_times(tight_cfg):
    field = builtin("limit-cycle")
    orbit = trace_orbit(field, np.array([0.3, 0.0]), (0.5, -1.0), cfg=tight_cfg)
    diffs = np.diff(orbit.times)
    assert np.all(diffs < 0)
    assert orbit.times[0] == 0.5
    np.testing.assert_array_equal(orbit.states[0], [0.3, 0.0])


# ---------------------------------------------------------------------------
# the Dormand-Prince 8(5,3) tableau and its dense output


def _dense_steps(field, x0, T):
    """(x_old, h, dense output F) and x_new of every accepted step of one
    forward lane from x0 over [0, T] at DEFAULT_CONFIG."""
    steps = []

    def keep(lanes, t_old, x_old, t_new, x_new, h, stage):
        steps.append((x_old[0], x_new[0], h[0], np.stack([stage(j)[0] for j in range(13)])))

    _, errors = _integrate(field, np.array([x0], dtype=float), 1.0, T, DEFAULT_CONFIG,
                           RunStats(), keep)
    assert errors == [None]
    x_old, x_new, h, stages = (np.array(column) for column in zip(*steps))

    def fail(r, err):
        raise AssertionError(f"row {r} raised {err!r}")

    F = _dense_output(field, np.ones(len(h)), x_old, x_new, h, stages, fail, RunStats())
    return x_old, h, F, x_new


def test_tableau_order_conditions_error_weights_and_dense_ends():
    # c from the row sums of the stage matrix; the 8th-order weights
    # integrate c^k exactly for k <= 7
    c = [sum(w for w, _ in _STAGES[s]) for s in range(16)]
    assert c[0] == 0.0
    b = {j: w for w, j in _STAGES[12]}
    for k in range(8):
        quadrature = sum(w * c[j] ** k for j, w in b.items())
        assert quadrature == pytest.approx(1 / (k + 1), abs=1e-14), k
    np.testing.assert_allclose(c[12:], [1.0, 0.1, 0.2, 7 / 9], rtol=0, atol=1e-15)
    for terms in (_E5_TERMS, _E3_TERMS):
        assert sum(w for w, _ in terms) == pytest.approx(0.0, abs=1e-15)
    x_old, h, F, x_new = _dense_steps(builtin("limit-cycle"), [0.4, 0.1], 3.0)
    np.testing.assert_array_equal(_dense_at(x_old, F, np.zeros(len(h))), x_old)
    np.testing.assert_allclose(_dense_at(x_old, F, np.ones(len(h))), x_new,
                               rtol=0, atol=1e-15)


def test_dense_output_matches_flow_inside_the_step(tight_cfg):
    field = builtin("limit-cycle")
    x_old, h, F, _ = _dense_steps(field, [0.4, 0.1], 3.0)
    cfg = DEFAULT_CONFIG
    for theta in (0.1, 0.35, 0.5, 0.8):
        dense = _dense_at(x_old, F, np.full(len(h), theta))
        for x, h_r, y in zip(x_old, h, dense):
            exact = flow(field, x, theta * h_r, cfg=tight_cfg)
            bound = 10 * (cfg.abs_tol + cfg.rel_tol * np.abs(exact))
            assert np.all(np.abs(y - exact) <= bound), (theta, y - exact)


def test_rotation_over_two_turns_takes_few_steps():
    x0 = np.array([1.0, 0.5])
    T = 4.0 * np.pi
    orbit = trace_orbit(builtin("rotation-c"), x0, (0.0, T), cfg=DEFAULT_CONFIG)
    assert len(orbit) - 1 <= 40  # accepted steps
    c, s = np.cos(T), np.sin(T)
    exact = [x0[0] * c + x0[1] * s, -x0[0] * s + x0[1] * c]
    np.testing.assert_allclose(orbit.states[-1], exact, rtol=0, atol=1e-8)


def test_dense_output_field_error_fails_its_bracket(monkeypatch):
    # the dense output's extra stages see a field that raises at rows with
    # x2 > 1: those of the second point's bracket do, so that point's
    # crossing fails with the field's own error and its event is never
    # built; the first point's bracket lies below x2 = 1 and its crossing is
    # unchanged.  The sweep and the events see the plain field.
    field = builtin("hyperbolic-b")
    surface = line_surface(1.0, 0.0, 4.0)
    points = [[0.5, 0.5], [0.5, 4.0]]
    cfg = dataclasses.replace(DEFAULT_CONFIG, horizon=2.0)
    plain = find_crossings_batch(field, points, surface, cfg)
    assert np.bincount(plain.point, minlength=2).tolist() == [1, 1]
    raised = []

    class RaisingAbove:
        def eval_grid(self, coords):
            if np.any(np.asarray(coords[1]) > 1.0):
                raised.append(ZeroDivisionError("no field above x2 = 1"))
                raise raised[-1]
            return field.eval_grid(coords)

    dense_output = odeint._dense_output
    monkeypatch.setattr(odeint, "_dense_output",
                        lambda _, *args: dense_output(RaisingAbove(), *args))
    results = find_crossings_batch(field, points, surface, cfg)
    assert results.errors[1] in raised
    assert results.point.tolist() == [0]
    assert results.t[0] == plain.t[0]
    np.testing.assert_array_equal(results.x[0], plain.x[0])


def test_hermite_root_is_the_root_of_the_cubic_through_the_ends():
    # p(u) = (u - r)(u + 1)(u - 2) is its own cubic Hermite through its
    # values and slopes at u = 0 and 1, and r is its one root in (0, 1)
    r = np.array([0.3, 1e-3, 0.999, 0.5])

    def p(u):
        return (u - r) * (u + 1.0) * (u - 2.0)

    def dp(u):
        return (u + 1.0) * (u - 2.0) + (u - r) * (2.0 * u - 1.0)

    for sign in (1.0, -1.0):
        u = _hermite_root(sign * p(0.0), sign * p(1.0), sign * dp(0.0), sign * dp(1.0))
        np.testing.assert_allclose(u, r, rtol=0, atol=2.0 ** -odeint.HERMITE_BITS)


# ---------------------------------------------------------------------------
# crossing detection


def test_excursion_inside_one_step_is_two_crossings():
    # the recurrence audit's orbit from (1, y) on seg-x1-1 runs past x1 = 1
    # for 2 atan(y) time units every turn, so it crosses at t = 2 pi k and
    # 2 pi k + 2 atan(y).  The backward lane's crossings at t = -2 pi +
    # 2 atan(y) and -2 pi fall inside one accepted step, where the level's
    # rate along the flow changes sign and the level does not; for y = 0.005
    # the forward lane's first step holds its exit at t = 2 atan(y) as well.
    field = builtin("rotation-c")
    surface = line_surface(1.0, 0.0, 1.0, axis=0)
    horizon, turn = 4.0 * np.pi, 2.0 * np.pi
    for y in (0.125, 0.04, 0.01, 0.005):
        x0, excursion = np.array([1.0, y]), 2.0 * np.arctan(y)
        orbit = trace_orbit(field, x0, (0.0, -horizon), cfg=DEFAULT_CONFIG)
        assert not np.any((orbit.times < -turn + excursion) & (orbit.times > -turn))
        times = find_crossings(field, x0, surface, horizon=horizon).t.tolist()
        expected = [-2 * turn + excursion, -turn, -turn + excursion, 0.0, excursion,
                    turn, turn + excursion]
        # the return at t = -4 pi lies on the horizon's end, where rounding
        # of the last sample decides whether it counts
        inner = [t for t in times if abs(t) < horizon - 1e-6]
        # at rate y, a level defect of 1e-8 (the integrator's global error
        # is below it) moves a crossing by 1e-8 / y
        np.testing.assert_allclose(inner, expected, rtol=0, atol=1e-8 / y, err_msg=f"y={y}")
        assert len(times) - len(inner) <= 1


def test_grazing_orbit_inside_the_line_has_no_crossing():
    # the circle of radius 1 - 1e-6 turns just short of x1 = 1 twice: each
    # turning point is located, its level stays negative, and no crossing
    # or error comes of it
    field = builtin("rotation-c")
    surface = line_surface(1.0, 0.0, 1.0, axis=0)
    stats = RunStats()
    found = find_crossings_batch(field, [[0.0, 1.0 - 1e-6]], surface,
                                 dataclasses.replace(DEFAULT_CONFIG, horizon=4.0 * np.pi),
                                 stats)
    assert len(found) == 0 and found.errors.tolist() == [None]
    assert stats.crossings_refined == 0 and stats.root_iterations > 0


def test_turning_points_away_from_the_line_get_no_dense_output():
    # the unit circle turns toward the line x1 = 3 at x1 = 1 and away from
    # it at x1 = -1, twice each per lane over 4 pi.  With at most one turn
    # per step, a step whose level starts moving away from the line cannot
    # cross it, so only the four turns toward it are refined, each with the
    # three field rows of its dense output
    stats = RunStats()
    found = find_crossings_batch(builtin("rotation-c"), [[0.0, 1.0]],
                                 line_surface(3.0, -4.0, 4.0),
                                 dataclasses.replace(DEFAULT_CONFIG, horizon=4.0 * np.pi),
                                 stats)
    assert len(found) == 0 and found.errors.tolist() == [None]
    steps = stats.accepted_steps + stats.rejected_steps
    assert stats.rhs_evals - stats.lanes - 12 * steps == 3 * 4
    assert stats.crossings_refined == 0 and stats.root_iterations > 0


def test_a_crossing_search_counts_every_field_row(monkeypatch):
    # the sweep, the dense output and the events' directions all count
    # their field calls and rows; the second point starts on the line
    calls, rows = [], []
    eval_grid = VectorField.eval_grid

    def counting(self, coords):
        calls.append(1)
        rows.append(np.size(coords[0]))
        return eval_grid(self, coords)

    monkeypatch.setattr(VectorField, "eval_grid", counting)
    stats = RunStats()
    points = [[0.5, 2.0], [1.0, 1.0], [2.0, 0.5]]
    results = find_crossings_batch(builtin("hyperbolic-b"), points, builtin_surface("line-b"),
                                   stats=stats)
    assert results.point.tolist() == [0, 1, 2]
    assert (stats.rhs_calls, stats.rhs_evals) == (len(calls), sum(rows))


def test_rotation_crossings_spaced_half_turn(tight_cfg):
    # the orbit through (2, 0) meets the full line x1 = 0 every half turn
    field = builtin("rotation-c")
    surface = line_surface(0.0, -3.0, 3.0)
    events = find_crossings(
        field, np.array([2.0, 0.0]), surface, horizon=7.0, cfg=tight_cfg
    )
    expected = np.array(
        [-3.0 * np.pi / 2.0, -np.pi / 2.0, np.pi / 2.0, 3.0 * np.pi / 2.0]
    )
    np.testing.assert_allclose(events.t, expected, atol=1e-7)
    # alternating geometry: consecutive crossings pass in opposite directions
    dirs = events.direction.tolist()
    assert sorted(set(dirs)) == [-1, 1]
    assert all(a != b for a, b in zip(dirs, dirs[1:]))


def test_single_crossing_on_monotone_orbit(tight_cfg):
    field = builtin("hyperbolic-b")
    surface = line_surface(1.0, 0.0, 4.0, name="line-b")
    events = find_crossings(
        field, np.array([0.5, 2.0]), surface, horizon=5.0, cfg=tight_cfg
    )
    assert len(events) == 1
    # x1 = 0.5 = e^{-t} along the orbit, so the crossing is ln 2 in the past
    assert events.t[0] == pytest.approx(-np.log(2.0), abs=1e-8)
    assert events.on_patch[0]
    np.testing.assert_allclose(events.x[0], [1.0, 1.0], atol=1e-8)


def test_seed_on_surface_reports_zero_crossing(tight_cfg):
    field = builtin("hyperbolic-b")
    surface = line_surface(1.0, 0.0, 4.0)
    events = find_crossings(
        field, np.array([1.0, 2.0]), surface, horizon=2.0, cfg=tight_cfg
    )
    assert np.any(events.t == 0.0)
    assert np.count_nonzero(np.abs(events.t) < 1e-9) == 1


def test_off_patch_crossing_flagged(tight_cfg):
    # crossing happens at x2 outside the parameterized segment (0, 1)
    field = builtin("hyperbolic-b")
    surface = line_surface(1.0, 0.0, 1.0)
    events = find_crossings(
        field, np.array([0.5, 4.0]), surface, horizon=3.0, cfg=tight_cfg
    )
    assert len(events) == 1
    assert not events.on_patch[0]


def test_radial_field_crosses_circle_once(tight_cfg):
    field = builtin("source-a")
    surface = circle_surface(1.0, np.pi, name="circle-a")
    events = find_crossings(
        field, np.array([1.0, 1.0]), surface, horizon=4.0, cfg=tight_cfg
    )
    assert len(events) == 1
    # |x| = sqrt(2) e^t hits 1 at t = -ln sqrt(2)
    assert events.t[0] == pytest.approx(-0.5 * np.log(2.0), abs=1e-8)
    assert events.direction[0] == 1


def test_no_crossing_when_surface_unreached(tight_cfg):
    field = builtin("rotation-c")
    surface = line_surface(5.0, -1.0, 1.0)  # radius-2 orbit never reaches x1=5
    events = find_crossings(
        field, np.array([2.0, 0.0]), surface, horizon=7.0, cfg=tight_cfg
    )
    assert len(events) == 0


@pytest.mark.parametrize(
    "system, surface, x0, horizon",
    [
        ("limit-cycle", line_surface(0.5, -3.0, 3.0), [0.3, 0.2], 8.0),
        ("appendix", circle_surface(1.0, np.pi), [0.3, 0.5], 2.5),
    ],
)
def test_crossing_times_match_scipy_events(system, surface, x0, horizon):
    integrate = pytest.importorskip("scipy.integrate")
    field = builtin(system)
    x0 = np.asarray(x0)

    def level(t, x):
        return surface.level(x)

    expected = []
    for t_end in (horizon, -horizon):
        sol = integrate.solve_ivp(
            lambda t, x: field.eval(x, check_domain=False), (0.0, t_end), x0,
            method="DOP853", events=level, rtol=1e-12, atol=1e-12,
        )
        assert sol.status == 0
        expected.extend(sol.t_events[0])
    events = find_crossings(field, x0, surface, horizon=horizon)
    assert np.all(events.direction != 0)
    assert len(events) == len(expected) >= 2
    np.testing.assert_allclose(events.t, sorted(expected), atol=1e-7)


def test_batch_matches_single_points_under_domain_errors(tight_cfg):
    # sqrt(x1) raises DomainError for the whole batch array once any lane
    # has x1 < 0; only the lanes whose own rows raise fail, each lane is
    # integrated once.  In the first case the field raises; in the second
    # the surface's level does, once a backward sweep passes x1 = -1
    sqrt_level = surface_from_json(
        {"dim": 2, "param": ["1", "4*t1"], "level": "sqrt(x1 + 1) - sqrt(2)"}
    )
    cases = [
        (parse_system("-x1, sqrt(x1)", 2, name="sqrt-drift"), line_surface(1.0, 0.0, 4.0)),
        (builtin("hyperbolic-b"), sqrt_level),
    ]
    points = [[0.5, 1.0], [-0.5, 1.0], [1.5, 2.0], [-1.0, 0.5]]
    for field, surface in cases:
        stats = RunStats()
        results = find_crossings_batch(
            field, points, surface, dataclasses.replace(tight_cfg, horizon=5.0), stats
        )
        assert [isinstance(r, DomainError) for r in results.errors] == [False, True, False, True]
        assert stats.lanes >= 2 * len(points)
        assert stats.lanes == 2 * len(points)
        for i, x in enumerate(points):
            try:
                single = find_crossings(
                    field, np.array(x), surface, horizon=5.0, cfg=tight_cfg
                )
            except DomainError as err:
                assert type(results.errors[i]) is type(err)
                continue
            assert results.t[results.point == i].tolist() == single.t.tolist()
            assert len(single) == 1


def test_leaving_an_expression_domain_is_a_domain_error_not_an_exit():
    # each orbit crosses x1 = 1 once, but the forward sweep, which runs on to
    # rule out a second crossing, leaves the domain of sqrt at x1 > 2.5: the
    # point ends with the field's error, unlike a sweep that leaves the box
    field = parse_system("1, -x2 + 0*sqrt(2.5 - x1)", 2, name="sqrt-saddle")
    clean = parse_system("1, -x2", 2, name="saddle")
    surface = builtin_surface("line-b")
    points = [[x1, x2] for x1 in (0.8, 1.2, 1.6, 2.0) for x2 in (0.2, 0.7, 1.2)]
    stats = RunStats()
    results = find_crossings_batch(field, points, surface, stats=stats)
    assert stats.lanes == 2 * len(points)
    for x, batched in zip(points, results.errors):
        assert len(find_crossings(clean, np.array(x), surface)) == 1
        with pytest.raises(DomainError) as exc:
            find_crossings(field, np.array(x), surface)
        assert type(batched) is DomainError
        assert str(batched) == str(exc.value)


def test_forward_field_error_is_the_outcome_whatever_the_backward_lane_meets():
    # every forward sweep leaves the domain of sqrt at x1 > 2.5, which makes
    # DomainError its point's outcome whatever the backward sweep meets
    field = parse_system("1, -x2 + 0*sqrt(2.5 - x1)", 2, name="sqrt-saddle")
    points = [[a, b] for a in np.linspace(0.8, 2.0, 24) for b in np.linspace(0.2, 1.2, 24)]
    stats = RunStats()
    results = find_crossings_batch(field, points, builtin_surface("line-b"), stats=stats)
    assert {(type(r), str(r)) for r in results.errors} == {
        (DomainError, "sqrt of a negative value")}
    assert stats.lanes == 2 * len(points)


def test_backward_field_error_never_stops_the_forward_lane(tight_cfg):
    # the backward sweep leaves the domain of sqrt at x1 < 0 in its first
    # step; the forward lane still takes every step it takes alone
    field = parse_system("1, -x2 + 0*sqrt(x1)", 2, name="sqrt-left")
    stats = RunStats()
    (result,) = find_crossings_batch(field, [[0.0, 1.0]], line_surface(1.0, 0.0, 4.0),
                                     dataclasses.replace(tight_cfg, horizon=3.0), stats).errors
    assert type(result) is DomainError
    alone = trace_orbit(field, np.array([0.0, 1.0]), (0.0, 3.0), cfg=tight_cfg)
    assert stats.accepted_steps == len(alone) - 1 > 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("forward", ["stepper", "scan"])
def test_field_error_on_one_lane_wins_over_the_other_lanes_failure(forward):
    # the backward lane leaves the domain of sqrt at x1 < -2 (t = 7); the
    # forward lane fails earlier on its own: exp(exp(x1)) overflows to a NaN
    # error estimate past x1 = 6.56, or the level raises past x1 = 6
    def level(x):
        x = np.asarray(x)
        if np.any(x[..., 0] > 6.0):
            raise ValueError("level undefined past x1 = 6")
        return x[..., 0] - 9.0

    if forward == "stepper":
        field = parse_system("1, exp(exp(x1)) - exp(exp(x1)) + 0*sqrt(x1 + 2)", 2)
        surface = line_surface(9.0, 0.0, 4.0)
    else:
        field = parse_system("1, 0*sqrt(x1 + 2)", 2)
        surface = dataclasses.replace(line_surface(9.0, 0.0, 4.0), level=level)
    x0 = np.array([5.0, 0.5])
    stats = RunStats()
    (result,) = find_crossings_batch(field, [x0], surface,
                                     dataclasses.replace(DEFAULT_CONFIG, horizon=10.0),
                                     stats).errors
    assert type(result) is DomainError
    assert stats.lanes == 2
    with pytest.raises(DomainError):
        find_crossings(field, x0, surface, horizon=10.0)


class _RowError(ValueError):
    """A surface call's error naming the row that raised it."""

    def __init__(self, what, row):
        super().__init__(f"{what} undefined at {row.tolist()}")
        self.row = row


def _raising_on(fn, what, bad):
    """fn over a stack of rows, raising _RowError at the first bad row."""
    def call(x):
        for row in np.asarray(x, dtype=float).reshape(-1, 2):
            if bad(row):
                raise _RowError(what, row.copy())
        return fn(x)
    return call


def test_surface_errors_fail_only_their_own_points():
    # line-b whose level is undefined below x2 = 0 and whose inverse above
    # x2 = 2: only starts with x2 < 0 reach the first (x2 keeps its sign),
    # and only crossings of orbits with x1 * x2 > 2 the second
    field = builtin("hyperbolic-b")
    plain = builtin_surface("line-b")
    faulty = dataclasses.replace(
        plain,
        level=_raising_on(plain.level, "level", lambda row: row[1] < 0.0),
        param_inverse=_raising_on(plain.param_inverse, "param_inverse",
                                  lambda row: row[1] > 2.0),
    )
    points = [[0.5, 2.0], [2.0, -1.0], [1.5, 3.0], [0.8, 0.5],
              [0.5, -0.5], [1.0, 2.5], [1.0, 1.0], [3.0, 0.5]]
    stats = RunStats()
    results = find_crossings_batch(field, points, faulty, stats=stats)
    expected = find_crossings_batch(field, points, plain)
    failed = 0
    for i, ((x1, x2), got) in enumerate(zip(points, results.errors)):
        if x2 < 0.0:
            assert isinstance(got, _RowError) and str(got).startswith("level")
            assert got.row.tolist() == [x1, x2]
            failed += 1
        elif x1 * x2 > 2.0:
            # the row is the point's own crossing of {x1 = 1}, at x2 = x1 * x2
            assert isinstance(got, _RowError) and str(got).startswith("param_inverse")
            assert got.row[0] == pytest.approx(1.0, abs=1e-9)
            assert got.row[1] == pytest.approx(x1 * x2, rel=1e-7)
            failed += 1
        else:
            assert got is None and _event_fields(results, i)
            assert _event_fields(results, i) == _event_fields(expected, i)
    assert failed == 4
    again = RunStats()
    find_crossings_batch(field, points, faulty, stats=again)
    assert again == stats


def _event_fields(found, p):
    """Every column of point p's rows in found, row by row."""
    mine = found.point == p
    return list(zip(*(getattr(found, name)[mine].tolist() for name in (
        "t", "x", "params", "direction", "level", "on_patch"))))


def test_one_surface_per_point_equals_one_batch_per_surface():
    # three surfaces under one field, interleaved over the points: grouping
    # rows by surface changes no lane, so every event is bit-identical to a
    # batch of that surface's points alone, and the lane counters add up
    field = builtin("hyperbolic-b")
    surfaces = [
        builtin_surface("line-b"),
        line_surface(0.5, 0.0, 8.0, name="line-x1-05"),
        surface_from_json({"dim": 2, "param": ["4*t1", "1"], "level": "x2 - 1"}),
    ]
    points = [[0.5, 2.0], [1.5, 0.5], [2.0, 0.8], [0.3, 3.0], [1.2, 0.7],
              [0.8, 1.5], [3.0, 0.2], [0.6, 0.9], [1.0, 1.0]]
    owners = [surfaces[i % 3] for i in range(len(points))]
    stats, summed = RunStats(), RunStats()
    results = find_crossings_batch(field, points, owners, stats=stats)
    for k, surface in enumerate(surfaces):
        mine = list(range(k, len(points), 3))
        alone = find_crossings_batch(field, [points[i] for i in mine], surface, stats=summed)
        for j, i in enumerate(mine):
            assert alone.errors[j] is None and _event_fields(alone, j)
            assert _event_fields(results, i) == _event_fields(alone, j)
    # each surface is called once per pass, as in its own batch
    for name in ("lanes", "accepted_steps", "rejected_steps", "rhs_evals", "level_calls",
                 "level_evals", "crossings_refined", "root_iterations"):
        assert getattr(stats, name) == getattr(summed, name), name
    assert stats.rhs_calls < summed.rhs_calls
    # several crossings per point: the rows run by point and then by time,
    # and each point's rows are those of its own search, bit for bit
    field, line = builtin("rotation-c"), line_surface(0.0, -3.0, 3.0)
    points = [[2.0, 0.0], [0.0, 1.0], [1.0, -1.0]]
    cfg = dataclasses.replace(DEFAULT_CONFIG, horizon=7.0)
    found = find_crossings_batch(field, points, line, cfg)
    assert np.bincount(found.point).tolist() == [4, 5, 4]
    np.testing.assert_array_equal(np.lexsort((found.t, found.point)), np.arange(len(found)))
    for i, x0 in enumerate(points):
        alone = find_crossings(field, np.array(x0), line, cfg=cfg)
        assert _event_fields(found, i) == _event_fields(alone, 0)


def test_grouped_surface_errors_fail_only_their_own_points():
    # line-b's level raises below x2 = 0; a second surface sharing the batch
    # meets the same start points with a level that never raises
    field = builtin("hyperbolic-b")
    plain = builtin_surface("line-b")
    faulty = dataclasses.replace(
        plain, level=_raising_on(plain.level, "level", lambda row: row[1] < 0.0))
    other = line_surface(0.5, -4.0, 4.0, name="line-x1-05")
    points = [[2.0, -1.0], [2.0, -1.0], [0.5, 2.0], [0.8, -0.5], [0.8, -0.5]]
    owners = [faulty, other, faulty, other, faulty]
    results = find_crossings_batch(field, points, owners)
    ok = type(None)
    assert [type(r) for r in results.errors] == [_RowError, ok, ok, ok, _RowError]
    assert results.errors[0].row.tolist() == [2.0, -1.0]
    # a failed point has no rows; each point's rows, or its exception, are
    # those of its own search, bit for bit
    assert sorted(set(results.point.tolist())) == [1, 2, 3]
    for i, (x0, surface) in enumerate(zip(points, owners)):
        try:
            alone = find_crossings(field, np.array(x0), surface)
        except _RowError as err:
            assert str(results.errors[i]) == str(err)
            continue
        assert _event_fields(results, i) == _event_fields(alone, 0)


def test_failed_crossing_ends_its_lane_before_a_later_field_error(tight_cfg):
    # the jump level changes sign across x1 = 1 but is never near zero, so
    # the forward lane's crossing fails; that lane later leaves the domain
    # of sqrt at x1 = 2, which must not replace its crossing's error.  With
    # a second sqrt, the backward lane leaves the domain at x1 = 0.1, later
    # than the forward lane does, and its error wins as it did when the
    # failed crossing stopped the forward lane at once.  Messages are those
    # of the search that refined each crossing during the sweep.
    base = line_surface(1.0, 0.0, 4.0)
    jump = Surface(
        dim=2,
        param=base.param,
        level=lambda x: np.where(np.asarray(x)[..., 0] >= 1.0, 1.0, -1.0),
        param_inverse=base.param_inverse,
        name="jump",
    )
    points = [[0.5, 2.0], [0.5, 1.0], [1.5, 1.0]]
    field = parse_system("x1, -x2 + 0*sqrt(2 - x1)", 2, name="sqrt-source")
    cfg = dataclasses.replace(tight_cfg, horizon=5.0)
    results = find_crossings_batch(field, points, jump, cfg).errors
    assert [(type(r), str(r)) for r in results] == [
        (IntegrationError, "sqrt-source: crossing near t=0.687378 did not converge:"
         " |level| = 1 > 1e-09 at x=[0.9942476485077836, 1.0057856324838779]"),
        (IntegrationError, "sqrt-source: crossing near t=0.505818 did not converge:"
         " |level| = 1 > 1e-09 at x=[0.8291711436462874, 0.6030118194915103]"),
        (DomainError, "sqrt of a negative value"),
    ]
    chart = build_chart(field, jump, cfg=cfg, audit_transversal=False)
    assert evaluate_grid(chart, np.array(points))[1].tolist() == [
        "integration-error", "integration-error", "domain-error"]
    both = parse_system("x1, -x2 + 0*sqrt(2 - x1) + 0*sqrt(x1 - 0.1)", 2)
    results = find_crossings_batch(both, points, jump, cfg).errors
    assert [(type(r), str(r)) for r in results] == [
        (DomainError, "sqrt of a negative value")] * 3


def test_flow_batch_lanes_equal_single_flows():
    # one lane leaves the domain box; the rest end inside it
    field = parse_system("x1, -x2 + x1 * x2", 2, name="box", domain=[(-2, 2), (-2, 2)])
    points = [[0.1, 0.2], [1.0, 1.0], [-0.3, 0.5], [0.5, -1.5]]
    exits = {}
    for t in (1.0, -0.8):
        states, errors = flow_batch(field, points, t)
        for x, state, err in zip(points, states, errors):
            try:
                single = flow(field, np.array(x), t)
            except DomainExit as exc:
                assert type(err) is DomainExit
                assert err.t_exit == exc.t_exit
                np.testing.assert_array_equal(err.x_exit, exc.x_exit)
                assert np.isnan(state).all()
                exits[t] = exits.get(t, []) + [x]
                continue
            assert err is None
            np.testing.assert_allclose(state, single, rtol=0, atol=0)
    assert exits == {1.0: [[1.0, 1.0]], -0.8: [[0.5, -1.5]]}
    # trace_orbit's exit keeps every sample, ending at the same exit point
    with pytest.raises(DomainExit) as exc:
        trace_orbit(field, np.array([1.0, 1.0]), (0.0, 1.0))
    exit_ = flow_batch(field, points, 1.0)[1][1]
    assert len(exc.value.times) > len(exit_.times) == 2
    np.testing.assert_array_equal(exc.value.x_exit, exit_.x_exit)


def test_flow_adds_its_work_into_the_given_stats():
    # lanes step independently: a batch does the work of its one-point flows
    # in fewer field calls
    field = parse_system("x1, -x2 + x1 * x2", 2, name="box", domain=[(-2, 2), (-2, 2)])
    points = [[0.1, 0.2], [-0.3, 0.5], [0.5, -1.5]]
    batch, singles = RunStats(), RunStats()
    flow_batch(field, points, 0.8, stats=batch)
    for x in points:
        flow(field, np.array(x), 0.8, stats=singles)
    assert batch.lanes == singles.lanes == 3
    assert batch.accepted_steps > 3
    for name in ("accepted_steps", "rejected_steps", "rhs_evals"):
        assert getattr(batch, name) == getattr(singles, name), name
    assert batch.rhs_calls < singles.rhs_calls
    flow_batch(field, points, 0.8, stats=batch)  # adds, never resets
    assert batch.lanes == 6


def test_flow_batch_domain_errors_stay_per_lane(tight_cfg):
    # sqrt(x1) fails the batched evaluation once any lane has x1 < 0
    field = parse_system("-x1, sqrt(x1)", 2, name="sqrt-drift")
    points = [[0.5, 1.0], [-0.5, 1.0], [1.5, 2.0]]
    states, errors = flow_batch(field, points, 0.3, cfg=tight_cfg)
    assert [type(e) for e in errors] == [type(None), DomainError, type(None)]
    for i in (0, 2):
        single = flow(field, np.array(points[i]), 0.3, cfg=tight_cfg)
        np.testing.assert_allclose(states[i], single, rtol=0, atol=0)
    with pytest.raises(DomainError):
        flow(field, np.array(points[1]), 0.3, cfg=tight_cfg)
