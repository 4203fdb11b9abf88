import dataclasses
import io

import numpy as np
import pytest
from scipy.linalg import expm

from flowbox.chart import builtin_surface, circle_surface, line_surface
from flowbox.dynsys import builtin, parse_system
from flowbox.expressions import DomainError
from flowbox.odeint import (
    DomainExit,
    IntegrationError,
    IntegratorConfig,
    StepLimitExceeded,
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


def test_step_limit_exceeded():
    field = builtin("rotation-c")
    cfg = IntegratorConfig(max_steps=5)
    with pytest.raises(StepLimitExceeded):
        flow(field, np.array([1.0, 0.0]), 6.0, cfg=cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_error_estimate_fails_at_once():
    # exp(exp(x1)) overflows past x1 = 6.56 and inf - inf is NaN: the step
    # controller must not spin on a NaN error estimate until max_steps
    field = parse_system("1, exp(exp(x1)) - exp(exp(x1))", 2)
    with pytest.raises(IntegrationError, match="NaN") as exc:
        flow(field, np.array([5.0, 0.0]), 3.0, cfg=IntegratorConfig(max_steps=1000))
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


def test_orbit_csv_format():
    field = builtin("rotation-c")
    orbit = trace_orbit(field, np.array([1.0, 0.0]), (0.0, 0.1))
    buf = io.StringIO()
    orbit.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == len(orbit) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


def test_trace_orbit_monotone_times(tight_cfg):
    field = builtin("limit-cycle")
    orbit = trace_orbit(field, np.array([0.3, 0.0]), (0.5, -1.0), cfg=tight_cfg)
    diffs = np.diff(orbit.times)
    assert np.all(diffs < 0)
    assert orbit.times[0] == 0.5


# ---------------------------------------------------------------------------
# crossing detection


def test_rotation_crossings_spaced_half_turn(tight_cfg):
    # the orbit through (2, 0) meets the full line x1 = 0 every half turn
    field = builtin("rotation-c")
    surface = line_surface(0.0, -3.0, 3.0)
    events = find_crossings(
        field, np.array([2.0, 0.0]), surface, horizon=7.0, cfg=tight_cfg
    )
    times = np.array([e.t for e in events])
    expected = np.array(
        [-3.0 * np.pi / 2.0, -np.pi / 2.0, np.pi / 2.0, 3.0 * np.pi / 2.0]
    )
    np.testing.assert_allclose(times, expected, atol=1e-7)
    # alternating geometry: consecutive crossings pass in opposite directions
    dirs = [e.direction for e in events]
    assert sorted(set(dirs)) == [-1, 1]
    assert all(a != b for a, b in zip(dirs, dirs[1:]))


def test_single_crossing_on_monotone_orbit(tight_cfg):
    field = builtin("hyperbolic-b")
    surface = line_surface(1.0, 0.0, 4.0, name="line-b")
    events = find_crossings(
        field, np.array([0.5, 2.0]), surface, horizon=5.0, cfg=tight_cfg
    )
    assert len(events) == 1
    ev = events[0]
    # x1 = 0.5 = e^{-t} along the orbit, so the crossing is ln 2 in the past
    assert ev.t == pytest.approx(-np.log(2.0), abs=1e-8)
    assert ev.on_patch
    np.testing.assert_allclose(ev.x, [1.0, 1.0], atol=1e-8)


def test_seed_on_surface_reports_zero_crossing(tight_cfg):
    field = builtin("hyperbolic-b")
    surface = line_surface(1.0, 0.0, 4.0)
    events = find_crossings(
        field, np.array([1.0, 2.0]), surface, horizon=2.0, cfg=tight_cfg
    )
    assert any(e.t == 0.0 for e in events)
    assert len([e for e in events if abs(e.t) < 1e-9]) == 1


def test_off_patch_crossing_flagged(tight_cfg):
    # crossing happens at x2 outside the parameterized segment (0, 1)
    field = builtin("hyperbolic-b")
    surface = line_surface(1.0, 0.0, 1.0)
    events = find_crossings(
        field, np.array([0.5, 4.0]), surface, horizon=3.0, cfg=tight_cfg
    )
    assert len(events) == 1
    assert not events[0].on_patch


def test_radial_field_crosses_circle_once(tight_cfg):
    field = builtin("source-a")
    surface = circle_surface(1.0, np.pi, name="circle-a")
    events = find_crossings(
        field, np.array([1.0, 1.0]), surface, horizon=4.0, cfg=tight_cfg
    )
    assert len(events) == 1
    ev = events[0]
    # |x| = sqrt(2) e^t hits 1 at t = -ln sqrt(2)
    assert ev.t == pytest.approx(-0.5 * np.log(2.0), abs=1e-8)
    assert ev.direction == 1


def test_no_crossing_when_surface_unreached(tight_cfg):
    field = builtin("rotation-c")
    surface = line_surface(5.0, -1.0, 1.0)  # radius-2 orbit never reaches x1=5
    events = find_crossings(
        field, np.array([2.0, 0.0]), surface, horizon=7.0, cfg=tight_cfg
    )
    assert events == []


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
    assert all(e.direction != 0 for e in events)
    assert len(events) == len(expected) >= 2
    np.testing.assert_allclose([e.t for e in events], sorted(expected), atol=1e-7)


def test_batch_matches_single_points_under_domain_errors(tight_cfg):
    # sqrt(x1) raises DomainError for the whole batch array once any lane
    # has x1 < 0; only the lanes whose own rows raise fail, each lane is
    # integrated once
    field = parse_system("-x1, sqrt(x1)", 2, name="sqrt-drift")
    surface = line_surface(1.0, 0.0, 4.0)
    points = [[0.5, 1.0], [-0.5, 1.0], [1.5, 2.0], [-1.0, 0.5]]
    results, stats = find_crossings_batch(
        field, points, surface, horizon=5.0, cfg=tight_cfg
    )
    assert [isinstance(r, DomainError) for r in results] == [False, True, False, True]
    assert stats.lanes >= 2 * len(points)
    assert stats.lanes == 2 * len(points)
    for x, batched in zip(points, results):
        try:
            single = find_crossings(
                field, np.array(x), surface, horizon=5.0, cfg=tight_cfg
            )
        except DomainError as err:
            assert type(batched) is type(err)
            continue
        assert [e.t for e in batched] == [e.t for e in single]
        assert len(single) == 1


def test_leaving_an_expression_domain_is_a_domain_error_not_an_exit():
    # each orbit crosses x1 = 1 once, but the forward sweep, which runs on to
    # rule out a second crossing, leaves the domain of sqrt at x1 > 2.5: the
    # point ends with the field's error, unlike a sweep that leaves the box
    field = parse_system("1, -x2 + 0*sqrt(2.5 - x1)", 2, name="sqrt-saddle")
    clean = parse_system("1, -x2", 2, name="saddle")
    surface = builtin_surface("line-b")
    points = [[x1, x2] for x1 in (0.8, 1.2, 1.6, 2.0) for x2 in (0.2, 0.7, 1.2)]
    results, stats = find_crossings_batch(field, points, surface)
    assert stats.lanes == 2 * len(points)
    for x, batched in zip(points, results):
        assert len(find_crossings(clean, np.array(x), surface)) == 1
        with pytest.raises(DomainError) as exc:
            find_crossings(field, np.array(x), surface)
        assert type(batched) is DomainError
        assert str(batched) == str(exc.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("forward", ["stepper", "scan"])
def test_field_error_on_one_lane_wins_over_the_other_lanes_failure(forward):
    # the backward lane leaves the domain of sqrt at x1 < -2 (t = 7); the
    # forward lane fails earlier on its own: exp(exp(x1)) overflows to a NaN
    # error estimate past x1 = 6.56, or the level raises past x1 = 6
    def level(x):
        if x[0] > 6.0:
            raise ValueError("level undefined past x1 = 6")
        return float(x[0] - 9.0)

    if forward == "stepper":
        field = parse_system("1, exp(exp(x1)) - exp(exp(x1)) + 0*sqrt(x1 + 2)", 2)
        surface = line_surface(9.0, 0.0, 4.0)
    else:
        field = parse_system("1, 0*sqrt(x1 + 2)", 2)
        surface = dataclasses.replace(line_surface(9.0, 0.0, 4.0), level=level)
    x0 = np.array([5.0, 0.5])
    (result,), stats = find_crossings_batch(field, [x0], surface, horizon=10.0)
    assert type(result) is DomainError
    assert stats.lanes == 2
    with pytest.raises(DomainError):
        find_crossings(field, x0, surface, horizon=10.0)


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
