import math

from flowbox import chart, refsol, verify


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
