import math

import numpy as np

from flowbox import chart, refsol, verify
from flowbox.odeint import flow


def test_chart_check_fails_on_a_point_status(monkeypatch):
    # a horizon too short to reach the surface leaves points not-in-omega
    def short_chart(system_id):
        ref = refsol.reference(system_id)
        return ref, chart.build_chart(ref.field, ref.surface_name, horizon=0.2)

    monkeypatch.setattr(verify, "_worked_chart", short_chart)
    for check in (verify.check_chart_vs_refsol, verify.check_flowbox_law):
        ok, detail, metrics = check(0)
        assert not ok
        point = metrics["worst_point"]
        assert detail == f"source-a chart point {point} has status not-in-omega"
        assert metrics["worst_at"] == "source-a:not-in-omega"
        assert metrics["stats"]["lanes"] > 0


def test_nan_defect_is_the_worst():
    worst = verify._Worst()
    for value in (1e-9, math.nan, 1.0):
        worst.see(value, str(value), (value, 0.0))
    ok, _, metrics = worst.result(worst.value <= 1e-6, "")
    assert not ok
    assert (metrics["worst"], metrics["worst_at"], metrics["points"]) == (None, "nan", 3)


def test_law_pairs_equal_a_loop_of_single_flows():
    # rotation-c's flowed ends leave its validity region now and then, so
    # its pairs take more than one block of candidates
    for system_id in ("hyperbolic-b", "rotation-c"):
        ref = refsol.reference(system_id)
        rng = verify._rng(3)
        expected = []
        for _ in range(verify.MAX_LAW_TRIES):
            if len(expected) == verify.SAMPLE_POINTS:
                break
            x = ref.sample_valid(rng, 1)[0]
            xt = flow(ref.field, x, verify.T_STEP)
            if ref.field.contains(xt) and not ref.excluded(xt):
                expected.append((x, xt))
        got = verify._law_pairs(ref, verify._rng(3))
        assert len(got) == len(expected) == verify.SAMPLE_POINTS
        for (x, xt), (y, yt) in zip(got, expected):
            np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(xt, yt)


def test_sampled_suites_catch_a_perturbed_angle(monkeypatch):
    # every angle in refsol goes through arg_angle: perturbing it must show
    # in the suites that differentiate the closed forms
    angle = refsol.arg_angle
    monkeypatch.setattr(refsol, "arg_angle", lambda a, b: angle(a, b) + 1e-6 * a)
    ok, _, metrics = verify.check_kpde_residuals(0)
    assert not ok
    assert metrics["worst"] > 1e3 * verify.PDE_TOL
    assert metrics["worst_at"] == "rotation-c:r^2*exp(3i*angle)"
    ok, _, metrics = verify.check_unit_velocity(0)
    assert not ok
    assert metrics["worst"] > 1e2 * verify.PDE_TOL
    assert metrics["worst_at"] == "limit-cycle:unit_coords"
