import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flowbox.chart import (
    AmbiguousChart,
    DegenerateSurfaceError,
    NotInOmega,
    OffPatch,
    Surface,
    TransversalityError,
    _audited_search,
    _param_jacobian,
    build_chart,
    builtin_surface,
    builtin_surface_names,
    check_nonrecurrent,
    check_nonrecurrent_batch,
    check_transversal,
    circle_surface,
    evaluate_grid,
    flowbox,
    halton,
    line_surface,
    point_surface,
    surface_from_json,
    surface_normal,
)
from flowbox.dynsys import builtin, parse_system
from flowbox.fdiff import fd_gradient, fd_gradient_rows
from flowbox.odeint import (
    IntegrationError,
    IntegratorConfig,
    RunStats,
    find_crossings,
    flow,
)


def test_halton_low_discrepancy_range():
    pts = halton(2, 100)
    assert pts.shape == (100, 2)
    assert np.all(pts > 0.0) and np.all(pts < 1.0)
    # no duplicates
    assert len({tuple(p) for p in pts}) == 100


def test_builtin_surface_registry():
    names = builtin_surface_names()
    for required in ["line-b", "circle-a", "segment-c"]:
        assert required in names
    with pytest.raises(KeyError):
        builtin_surface("no-such-surface")


def test_line_surface_geometry():
    s = line_surface(1.0, 0.0, 4.0)
    np.testing.assert_allclose(s.param([0.25]), [1.0, 1.0])
    assert s.level([1.0, 3.0]) == 0.0
    assert s.level([2.0, 3.0]) == 1.0
    np.testing.assert_allclose(s.param_inverse([1.0, 2.0]), [0.5])
    n = surface_normal(s, [0.5])
    assert abs(n[0]) == pytest.approx(1.0) and n[1] == pytest.approx(0.0)


def test_circle_surface_geometry():
    s = circle_surface(2.0, np.pi)
    pt = s.param([0.25])
    np.testing.assert_allclose(np.hypot(*pt), 2.0)
    np.testing.assert_allclose(s.param_inverse(pt), [0.25], atol=1e-12)
    # normal is radial
    n = surface_normal(s, [0.25])
    np.testing.assert_allclose(np.abs(np.dot(n, pt / 2.0)), 1.0, atol=1e-6)


def test_projection_inverse_fallback():
    # same line as line_surface but without an explicit inverse
    s = Surface(
        dim=2,
        param=lambda tau: np.stack(
            [np.ones(np.shape(tau)[:-1]), 4.0 * np.asarray(tau)[..., 0]], axis=-1
        ),
        level=lambda x: np.asarray(x)[..., 0] - 1.0,
    )
    np.testing.assert_allclose(s.param_inverse([1.0, 3.0]), [0.75], atol=1e-8)


def test_surface_from_json_roundtrip():
    spec = {
        "dim": 2,
        "param": ["1", "4*t1"],
        "level": "x1 - 1",
        "name": "json-line",
    }
    s = surface_from_json(spec)
    np.testing.assert_allclose(s.param([0.5]), [1.0, 2.0])
    assert s.level([1.0, 0.0]) == 0.0
    assert s.name == "json-line"
    assert surface_from_json({"builtin": "line-b"}).name == "line-b"


# the Surface row contract: a stack of rows maps row by row, bit for bit
CONTRACT_CASES = {
    "line-b": (lambda: builtin_surface("line-b"), "hyperbolic-b"),
    "circle-a": (lambda: builtin_surface("circle-a"), "source-a"),
    "point-1": (lambda: builtin_surface("point-1"), None),
    "json-2d": (lambda: surface_from_json({
        "dim": 2, "param": ["cos(6*t1 - 3)", "sin(6*t1 - 3)"],
        "level": "x1^2 + x2^2 - 1"}), "source-a"),
    "json-3d": (lambda: surface_from_json({
        "dim": 3, "param": ["1", "4*t1 + t2*t2", "4*t2"], "level": "x1 - 1"}), None),
}
CONTRACT_FIELDS = {
    1: lambda: parse_system("x1", 1, name="line-source"),
    3: lambda: parse_system("-x1, 0.5*x2, x3", 3, name="saddle-3"),
}


@pytest.mark.parametrize("name", sorted(CONTRACT_CASES))
def test_stacked_surface_calls_equal_per_row_calls(name):
    make, system = CONTRACT_CASES[name]
    s = make()
    d = s.dim - 1
    taus = halton(d, 12)
    rng = np.random.default_rng(5)
    X = s.param(taus) + 1e-3 * rng.standard_normal((12, s.dim))

    def rows(fn, stack):
        return np.array([fn(row) for row in stack])

    calls = [
        (s.level, X),
        (s.param, taus),
        (s.param_inverse, X),
        (lambda t: _param_jacobian(s, t), taus),
        (lambda t: surface_normal(s, t), taus),
    ]
    if s.param_jacobian is not None:
        calls.append((s.param_jacobian, taus))
    for fn, stack in calls:
        expected = rows(fn, stack)
        np.testing.assert_array_equal(fn(stack), expected)
        # any leading axes, not only one
        lead = fn(stack.reshape((3, 4) + stack.shape[1:]))
        np.testing.assert_array_equal(lead, expected.reshape((3, 4) + expected.shape[1:]))
    # the batched level gradient of surface normals is fd_gradient's arithmetic
    np.testing.assert_array_equal(
        fd_gradient_rows(s.level, X, step=1e-7),
        rows(lambda x: fd_gradient(s.level, x, step=1e-7), X),
    )

    field = builtin(system) if system else CONTRACT_FIELDS[s.dim]()
    samples = check_transversal(s, field, 12)
    for (tau, ip), tau_row in zip(samples, halton(d, 12 if d else 1)):
        n = surface_normal(s, tau_row)
        p = field.eval(s.param(tau_row), check_domain=False)
        np.testing.assert_array_equal(tau, tau_row)
        assert ip == np.sum(n * p)


def _seed_table(s, n_per_axis=32):
    # the one-point loop's starting lattice and its points, one param call each
    d = s.dim - 1
    axes = [(np.arange(n_per_axis) + 0.5) / n_per_axis] * d
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return lattice, np.asarray([s.param(tau) for tau in lattice])


def _per_row_projection_inverse(s, x, lattice, seeds, tol=1e-10, max_iter=50):
    # the one-point Gauss-Newton loop the row-batched projection replaced
    tau = lattice[int(np.argmin(np.sum((seeds - x) ** 2, axis=1)))].copy()
    for _ in range(max_iter):
        r = x - s.param(tau)
        delta, *_ = np.linalg.lstsq(_param_jacobian(s, tau), r, rcond=None)
        tau = tau + delta
        if float(np.linalg.norm(delta)) < tol:
            break
    return tau


@pytest.mark.parametrize("name", ["json-2d", "json-3d"])
def test_projection_inverse_matches_the_per_row_lstsq_loop(name):
    # pinv and lstsq round differently, so agreement is to a few ulps
    s = CONTRACT_CASES[name][0]()
    taus = halton(s.dim - 1, 40)
    X = s.param(taus) + 1e-3 * np.random.default_rng(9).standard_normal((40, s.dim))
    lattice, seeds = _seed_table(s)
    expected = np.array([_per_row_projection_inverse(s, x, lattice, seeds) for x in X])
    np.testing.assert_allclose(s.param_inverse(X), expected, rtol=0, atol=1e-14)


def test_degenerate_surface_names_its_first_degenerate_sample():
    # the tangent vanishes at t1 = 0.25 and 0.75, the 2nd and 3rd Halton samples
    def param(tau):
        t = np.asarray(tau)[..., 0]
        return np.stack([np.ones_like(t), t**3 / 3 - t**2 / 2 + 0.1875 * t], axis=-1)

    def jacobian(tau):
        t = np.asarray(tau)[..., 0]
        return np.stack([np.zeros_like(t), (t - 0.25) * (t - 0.75)], axis=-1)[..., None]

    s = Surface(dim=2, param=param, level=lambda x: np.asarray(x)[..., 0] - 1.0,
                param_inverse=lambda x: np.asarray(x)[..., 1:], param_jacobian=jacobian)
    with pytest.raises(DegenerateSurfaceError, match=r"tau=\[0\.25\]"):
        check_transversal(s, builtin("hyperbolic-b"), 8)


def test_projection_inverse_refuses_a_degenerate_solution():
    # dX/dtau vanishes, so the inverse cannot tell one tau from another
    flat = surface_from_json({"dim": 2, "param": ["1", "1"], "level": "x1 - 1"})
    with pytest.raises(DegenerateSurfaceError, match=r"degenerate parameterization"):
        flat.param_inverse([[1.0, 0.5]])
    chart = build_chart(builtin("hyperbolic-b"), flat, audit_transversal=False)
    _, status = evaluate_grid(chart, [np.array([0.9, 0.2]), np.array([1.1, 0.3])])
    assert status.tolist() == ["chart-error", "chart-error"]


def test_projection_inverse_that_does_not_converge_is_off_patch():
    # X(t) = (1, cbrt(t - 1/2)): Gauss-Newton doubles t - 1/2 at each step
    # towards x2 = 0, but converges towards x2 = 0.5 (t = 0.625)
    def param(tau):
        u = np.asarray(tau, dtype=float)[..., 0] - 0.5
        return np.stack([np.ones_like(u), np.cbrt(u)], axis=-1)

    def jacobian(tau):
        u = np.asarray(tau, dtype=float)[..., 0] - 0.5
        return np.stack([np.zeros_like(u), np.abs(u) ** (-2.0 / 3.0) / 3.0], axis=-1)[..., None]

    s = Surface(dim=2, param=param, level=lambda x: np.asarray(x)[..., 0] - 1.0,
                param_jacobian=jacobian, name="cbrt")
    with pytest.raises(OffPatch, match=r"x=\[1\.0, 0\.0\] .* still moves after 50"):
        s.param_inverse([[1.0, 0.5], [1.0, 0.0]])
    np.testing.assert_allclose(s.param_inverse([1.0, 0.5]), [0.625], atol=1e-12)
    # hyperbolic-b conserves x1 * x2: the orbits cross at x2 = 0 and x2 = 0.5;
    # the audit would sample dX/dtau at t = 1/2, where it is infinite
    chart = build_chart(builtin("hyperbolic-b"), s, audit_transversal=False)
    _, status = evaluate_grid(chart, [np.array([0.5, 0.0]), np.array([2.0, 0.25])])
    assert status.tolist() == ["off-patch", "ok"]


# ---------------------------------------------------------------------------
# audits


def test_transversality_samples():
    field = builtin("hyperbolic-b")
    samples = check_transversal(builtin_surface("line-b"), field)
    # P = (-x1, x2) against the line x1=1: |<n, P>| = 1 everywhere on it
    assert all(abs(ip) == pytest.approx(1.0, rel=1e-6) for _, ip in samples)


def test_tangent_surface_rejected():
    # the x1-axis segment is an orbit line of source-a, hence never transversal
    field = builtin("source-a")
    tangent = line_surface(0.0, 0.5, 2.0, axis=1)
    with pytest.raises(TransversalityError):
        build_chart(field, tangent)


def test_rotation_surface_is_recurrent(tight_cfg):
    field = builtin("rotation-c")
    report = check_nonrecurrent(
        field=field,
        surface=builtin_surface("segment-c"),
        n_orbits=6,
        cfg=replace(tight_cfg, horizon=4.0 * np.pi),
    )
    assert report.verdict == "fail"
    assert len(report.violations) > 0
    for _, times in report.violations:
        assert len(times) >= 2


def test_worked_surfaces_pass_recurrence_audit(tight_cfg):
    for system, surface in [("source-a", "circle-a"), ("hyperbolic-b", "line-b")]:
        report = check_nonrecurrent(
            field=builtin(system),
            surface=builtin_surface(surface),
            n_orbits=8,
            cfg=replace(tight_cfg, horizon=6.0),
        )
        assert report.verdict == "pass", (system, report)


def test_batched_audit_equals_one_audit_per_surface(tight_cfg):
    # three segments recurrent under rotation-c, audited as one batch and
    # one by one; the batch's work equals that of the single audits, each
    # adding into the same RunStats
    field = builtin("rotation-c")
    cfg = replace(tight_cfg, horizon=4.0 * np.pi)
    surfaces = [builtin_surface("segment-c"), line_surface(0.5, 0.0, 1.0, name="half"),
                line_surface(1.0, 0.1, 0.9, axis=1, name="x2-seg")]
    batch, summed = RunStats(), RunStats()
    reports = check_nonrecurrent_batch(surfaces, field, n_orbits=6, cfg=cfg, stats=batch)
    for surface, report in zip(surfaces, reports):
        alone = check_nonrecurrent(surface, field, n_orbits=6, cfg=cfg, stats=summed)
        assert (report.verdict, report.tested_points) == (alone.verdict, alone.tested_points)
        assert [(x0.tolist(), times) for x0, times in report.violations] == \
            [(x0.tolist(), times) for x0, times in alone.violations]
        assert report.integration_failures == alone.integration_failures == ()
    assert [r.verdict for r in reports] == ["fail"] * 3
    for name in ("lanes", "accepted_steps", "rejected_steps", "rhs_evals",
                 "crossings_refined", "root_iterations"):
        assert getattr(batch, name) == getattr(summed, name), name
    assert batch.lanes == 2 * 3 * 6


def test_recurrence_audit_fails_when_seeded_orbits_fail():
    # every orbit seeded on {x1 = 1} leaves the domain of sqrt at x1 = 2.5
    field = parse_system("1, -x2 + 0*sqrt(2.5 - x1)", 2, name="sqrt-drift")
    report = check_nonrecurrent(builtin_surface("line-b"), field, n_orbits=4)
    assert report.verdict == "fail"
    assert not report.violations and not report.transversality_failures
    assert len(report.integration_failures) == report.tested_points == 4
    assert all("sqrt of a negative value" in message
               for _, message in report.integration_failures)


def _report_bits(report):
    """A report with every seed and crossing time as its bytes."""
    return (report.tested_points, report.verdict, report.transversality_failures,
            [(x0.tobytes(), np.array(times).tobytes()) for x0, times in report.violations],
            [(x0.tobytes(), message) for x0, message in report.integration_failures])


@pytest.mark.parametrize("system, surface, horizon, verdict, statuses", [
    ("hyperbolic-b", "line-b", 6.0, "pass", {"ok", "not-in-omega", "off-patch"}),
    ("rotation-c", "segment-c", 4.0 * np.pi, "fail",  # recurrent
     {"ok", "ambiguous", "not-in-omega", "off-patch"}),
    # every orbit leaves the domain of sqrt at x1 = 2.5
    ("sqrt-drift", "line-b", 6.0, "fail", {"domain-error"}),
])
def test_audit_in_the_grids_batch_equals_the_audit_alone(system, surface, horizon, verdict,
                                                         statuses, tight_cfg):
    # the seeds ride first in the grid's search: the verdict, the violations'
    # times bit for bit and the failures' messages are check_nonrecurrent's,
    # and the grid reads what evaluate_grid gives it alone
    field = (parse_system("1, -x2 + 0*sqrt(2.5 - x1)", 2, name="sqrt-drift")
             if system == "sqrt-drift" else builtin(system))
    chart = build_chart(field, surface, cfg=replace(tight_cfg, horizon=horizon))
    x1, x2 = np.meshgrid(np.linspace(-1.0, 3.0, 9), np.linspace(0.1, 1.9, 7), indexing="ij")
    points = np.stack([x1.ravel(), x2.ravel()], axis=-1)
    stats = RunStats()
    report, found = _audited_search(chart, points, 16, stats)
    alone = check_nonrecurrent(chart.surface, field, n_orbits=16, cfg=chart.cfg)
    assert report.verdict == verdict
    assert _report_bits(report) == _report_bits(alone)
    assert stats.lanes == 2 * (len(points) + 16)

    errors = found.errors.tolist()
    z, status = evaluate_grid(chart, points, found=found)
    assert found.errors.tolist() == errors  # the record is not written to
    z_alone, status_alone = evaluate_grid(chart, points)
    assert z.tobytes() == z_alone.tobytes()
    assert status.tolist() == status_alone.tolist()
    assert set(status) == statuses


@pytest.mark.parametrize("x1", [1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 5e-10])
def test_start_just_off_the_surface_is_one_crossing_at_zero(x1):
    # |level| <= ON_SURFACE_TOL at the start: the start is the crossing, and
    # the step that leaves the tolerance band is not a second one
    field, surface = builtin("hyperbolic-b"), builtin_surface("line-b")
    point = np.array([x1, 0.5])
    assert find_crossings(field, point, surface).t.tolist() == [0.0]
    _, (status,) = evaluate_grid(build_chart(field, surface), [point])
    assert status == "ok"


# ---------------------------------------------------------------------------
# chart evaluation


def test_hyperbolic_chart_closed_forms(tight_cfg):
    chart = build_chart(builtin("hyperbolic-b"), "line-b", cfg=tight_cfg)
    x = np.array([0.5, 2.0])
    # h is the normalized crossing height x1*x2 / 4
    z = flowbox(chart, x)
    np.testing.assert_allclose(z, [0.25, np.log(2.0)], atol=1e-8)


def test_source_chart_closed_forms(tight_cfg):
    chart = build_chart(builtin("source-a"), "circle-a", cfg=tight_cfg)
    x = np.array([2.0, 0.0])
    # m = ln r, h = angle from the excluded point, here half a turn
    np.testing.assert_allclose(flowbox(chart, x), [0.5, np.log(2.0)], atol=1e-8)


def test_readme_library_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    scope = {}
    exec(block, scope)
    assert scope["z"][-1] == pytest.approx(np.log(2.0), abs=1e-8)
    assert abs(scope["res"]) < 1e-7


def test_point_on_surface_maps_to_zero_time(tight_cfg):
    chart = build_chart(builtin("hyperbolic-b"), "line-b", cfg=tight_cfg)
    x = np.array([1.0, 2.0])
    z = flowbox(chart, x)
    assert z[-1] == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(z[0], 0.5, atol=1e-9)
    assert not np.signbit(flowbox(chart, [1.0, 0.5])[-1])  # 0, not -0


def test_m_advances_like_time(tight_cfg):
    chart = build_chart(builtin("hyperbolic-b"), "line-b", cfg=tight_cfg)
    field = chart.field
    x = np.array([0.8, 1.5])
    t = 0.3
    xt = flow(field, x, t, cfg=tight_cfg)
    z, zt = flowbox(chart, x), flowbox(chart, xt)
    assert zt[-1] - z[-1] == pytest.approx(t, abs=1e-8)
    # h is conserved along the same hop
    np.testing.assert_allclose(zt[:-1], z[:-1], atol=1e-8)


def test_not_in_omega(tight_cfg):
    # orbits of hyperbolic-b in the x1 < 0 half plane never reach x1 = 1
    chart = build_chart(builtin("hyperbolic-b"), "line-b", cfg=replace(tight_cfg, horizon=5.0))
    with pytest.raises(NotInOmega, match="within horizon 5"):
        flowbox(chart, np.array([-1.0, 1.0]))


def test_off_patch(tight_cfg):
    # x1*x2 = 4.5, so the crossing lands at x2 = 4.5 > 4, off line-b's patch
    chart = build_chart(builtin("hyperbolic-b"), "line-b", cfg=tight_cfg)
    with pytest.raises(OffPatch):
        flowbox(chart, np.array([0.5, 9.0]))


def test_ambiguous_chart_on_recurrent_orbit(tight_cfg):
    # skip the audits deliberately: a rotation orbit hits the full line twice
    chart = build_chart(
        builtin("rotation-c"),
        line_surface(0.0, -3.0, 3.0),
        cfg=replace(tight_cfg, horizon=7.0),
        audit_transversal=False,
    )
    with pytest.raises(AmbiguousChart):
        flowbox(chart, np.array([2.0, 0.0]))


def test_evaluate_grid_statuses_and_single_point_agreement(tight_cfg):
    chart = build_chart(builtin("hyperbolic-b"), "line-b", cfg=replace(tight_cfg, horizon=5.0))
    points = [
        np.array([0.5, 2.0]),    # ok
        np.array([-1.0, 1.0]),   # not-in-omega
        np.array([0.5, 9.0]),    # off-patch
        np.array([1.7, 0.3]),    # ok
    ]
    stats = RunStats()
    z, status = evaluate_grid(chart, points, stats=stats)
    assert status.tolist() == ["ok", "not-in-omega", "off-patch", "ok"]
    np.testing.assert_allclose(z[0], [0.25, np.log(2.0)], atol=1e-8)
    assert np.isnan(z[1:3]).all()
    assert stats.lanes == 2 * len(points)
    assert stats.crossings_refined == 3

    # the batch gives every point exactly what it gets alone
    for point, zp, label in zip(points, z, status):
        if label == "ok":
            np.testing.assert_allclose(zp, flowbox(chart, point), rtol=0, atol=0)


def test_evaluate_grid_jump_level_is_integration_error(tight_cfg):
    base = line_surface(1.0, 0.0, 4.0)
    jump = Surface(
        dim=2,
        param=base.param,
        level=lambda x: np.where(np.asarray(x)[..., 0] >= 1.0, 1.0, -1.0),
        param_inverse=base.param_inverse,
        name="jump",
    )
    chart = build_chart(
        builtin("hyperbolic-b"), jump, cfg=replace(tight_cfg, horizon=5.0),
        audit_transversal=False,
    )
    # the level changes sign across x1 = 1 but is never near zero there
    _, status = evaluate_grid(chart, [np.array([0.5, 2.0]), np.array([-1.0, 1.0])])
    assert status.tolist() == ["integration-error", "not-in-omega"]
    with pytest.raises(IntegrationError, match="did not converge"):
        find_crossings(
            chart.field, np.array([0.5, 2.0]), jump, horizon=5.0, cfg=tight_cfg
        )


def test_one_dimensional_chart(tight_cfg):
    field = parse_system("x1", 1, name="line-source", domain=[(0.01, 50.0)])
    chart = build_chart(field, point_surface(1.0), cfg=tight_cfg)
    z = flowbox(chart, np.array([2.0]))
    assert z.shape == (1,)
    assert z[0] == pytest.approx(np.log(2.0), abs=1e-9)
