import dataclasses
import math

import numpy as np

from flowbox import chart, refsol, verify
from flowbox.odeint import DEFAULT_CONFIG, flow


def test_chart_check_fails_on_a_point_status(monkeypatch):
    # a horizon too short to reach the surface leaves points not-in-omega
    def short_chart(system_id, stats):
        ref = refsol.reference(system_id)
        cfg = dataclasses.replace(DEFAULT_CONFIG, horizon=0.2)
        return ref, chart.build_chart(ref.field, ref.surface_name, cfg=cfg, stats=stats)

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


class _LoopWorst(verify._Worst):
    """The per-value loop a column of `see` must equal."""

    def see(self, value, at, x, count=1):
        self.points += count
        value = float(value)
        if (self.point is None or self.sign * value > self.sign * self.value
                or (math.isnan(value) and not math.isnan(self.value))):
            self.value, self.at, self.point = value, at, [float(v) for v in x]


def test_worst_of_a_column_equals_a_loop_over_its_values():
    # columns of few distinct values tie across labels and rows; some hold
    # NaNs, some are all equal, and state carries from one call to the next
    rng = np.random.Generator(np.random.PCG64(7))
    nan = math.nan
    fixed = [
        [np.full((4, 3), 2.0)],                        # all equal
        [np.full((3, 2), nan), np.array([[nan, 5.0]])],  # NaNs only, then a NaN first
        [np.array([[1.0, 3.0], [3.0, 1.0]]), np.array([[3.0, 3.0]])],  # ties
        [np.array([[1.0, nan], [nan, 4.0]]), np.full((2, 2), 9.0)],  # NaN, then more
        [np.zeros((3, 0)), np.array([[0.5]])],         # no labels, then one
    ]
    drawn = [[np.where(rng.random((n, k)) < 0.1, nan, rng.integers(0, 3, (n, k)) * 1.0)
              for n, k in rng.integers(1, 6, (3, 2))] for _ in range(40)]
    for lowest in (False, True):
        for calls in fixed + drawn:
            got, want = verify._Worst(lowest), _LoopWorst(lowest)
            for c, values in enumerate(calls):
                n, k = values.shape
                labels = [f"c{c}:l{j}" for j in range(k)]
                points = np.arange(2.0 * n).reshape(n, 2) + 100 * c
                got.see(values, labels, points)
                for r in range(n):
                    for j in range(k):
                        want.see(values[r, j], labels[j], points[r])
            assert (repr(got.value), got.at, got.point, got.points) \
                == (repr(want.value), want.at, want.point, want.points), (lowest, calls)
    # a column with one label, and a single value at a single point
    got, want = verify._Worst(), _LoopWorst()
    got.see(np.array([1.0, 4.0, 4.0]), "col", np.eye(3))
    for value, x in zip([1.0, 4.0, 4.0], np.eye(3)):
        want.see(value, "col", x)
    assert (got.value, got.at, got.point, got.points) == (4.0, "col", [0.0, 1.0, 0.0], 3) \
        == (want.value, want.at, want.point, want.points)
    got.see(7.0, "one", [1.0, 2.0, 3.0], count=5)
    want.see(7.0, "one", [1.0, 2.0, 3.0], count=5)
    assert (got.value, got.at, got.point, got.points) == (7.0, "one", [1.0, 2.0, 3.0], 8) \
        == (want.value, want.at, want.point, want.points)


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
