"""Eigenfunction construction, residual checks, and the minimal set."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowbox import dynsys
from flowbox.chart import (
    POINT_ERRORS,
    NotInOmega,
    build_chart,
    error_status,
    flowbox,
    surface_from_json,
)
from flowbox.fdiff import fd_gradient, fd_jacobian
from flowbox.kef import (
    build_kef,
    kef_residuals,
    kpde_residual,
    minimal_set,
    orbit_eigen_check,
)


@pytest.fixture(scope="module")
def hyp_chart(tight_cfg):
    return build_chart(dynsys.builtin("hyperbolic-b"), "line-b", cfg=tight_cfg)


@pytest.fixture(scope="module")
def src_chart(tight_cfg):
    return build_chart(dynsys.builtin("source-a"), "circle-a", cfg=tight_cfg)


# For the saddle field with surface x1 = 1 the chart is m = -ln x1,
# h = x1 x2 / 4, so profile(h) = 4 h at eigenvalue n rebuilds x1^(1-n) x2.
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_chart_eigenfunction_matches_closed_form(hyp_chart, n):
    phi = build_kef(hyp_chart, n, profile=lambda h: 4.0 * h[..., 0])
    for x in [(1.3, 0.8), (0.9, 1.4), (1.8, 0.4)]:
        want = x[0] ** (1 - n) * x[1]
        assert complex(phi(np.array(x))) == pytest.approx(want, rel=1e-7)


def test_trivial_profile_gives_exp_m(hyp_chart):
    phi = build_kef(hyp_chart, 1.0)
    assert phi.profile is None
    x = np.array([0.5, 2.0])
    # e^m = e^{-ln x1} = 1/x1
    assert complex(phi(x)) == pytest.approx(2.0, rel=1e-7)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kpde_residual_small_on_eigenfunctions(hyp_chart, n):
    field = dynsys.builtin("hyperbolic-b")
    phi = build_kef(hyp_chart, n, profile=lambda h: 4.0 * h[..., 0])
    for x in [(1.3, 0.8), (0.9, 1.4)]:
        res = kpde_residual(phi, n, field, np.array(x))
        assert abs(res) < 1e-5


def test_kpde_residual_detects_wrong_eigenvalue(hyp_chart):
    field = dynsys.builtin("hyperbolic-b")
    phi = build_kef(hyp_chart, 2.0, profile=lambda h: 4.0 * h[..., 0])
    x = np.array([1.3, 0.8])
    res = kpde_residual(phi, 2.5, field, x)
    # residual picks up the mismatch term 0.5 * phi(x)
    assert abs(res) == pytest.approx(0.5 * abs(complex(phi(x))), rel=1e-4)


def test_kpde_residual_complex_eigenvalue():
    field = dynsys.builtin("linear-ai")
    phi = lambda x: x[..., 0] + 1j * x[..., 1]
    for x in [(1.0, 0.5), (-0.3, 1.2)]:
        assert abs(kpde_residual(phi, -1j, field, np.array(x))) < 1e-8


def test_orbit_eigen_check_on_and_off(hyp_chart, tight_cfg):
    field = dynsys.builtin("hyperbolic-b")
    phi = build_kef(hyp_chart, 2.0, profile=lambda h: 4.0 * h[..., 0])
    dev = orbit_eigen_check(phi, 2.0, field, (1.3, 0.8), 0.5, cfg=tight_cfg)
    assert dev < 1e-6
    # wrong eigenvalue leaves a factor e^{0.25} at the far end
    bad = orbit_eigen_check(phi, 1.5, field, (1.3, 0.8), 0.5, cfg=tight_cfg)
    assert bad == pytest.approx(np.exp(0.25) - 1.0, rel=1e-4)


def test_orbit_eigen_check_complex_rotation(tight_cfg):
    field = dynsys.builtin("linear-ai")
    phi = lambda x: x[0] + 1j * x[1]
    dev = orbit_eigen_check(
        phi, -1j, field, (1.0, 0.0), 2.0 * np.pi, n_samples=17, cfg=tight_cfg
    )
    assert dev < 1e-7


def test_orbit_eigen_check_edge_cases(tight_cfg):
    field = dynsys.builtin("hyperbolic-b")
    with pytest.raises(ValueError):
        orbit_eigen_check(lambda x: 0.0, 1.0, field, (1.0, 1.0), 1.0, cfg=tight_cfg)
    phi = lambda x: x[1]
    assert orbit_eigen_check(phi, 1.0, field, (1.0, 1.0), 0.0, cfg=tight_cfg) == 0.0


def test_minimal_set_saddle(hyp_chart):
    pts = [(1.3, 0.8), (0.7, 1.2), (1.9, 0.6)]
    ms = minimal_set(hyp_chart, audit_points=pts)
    assert len(ms) == 2
    assert ms.rank == 2
    assert ms.independent
    assert [f.label for f in ms.members] == ["h1*exp(m)", "exp(m)"]
    assert all(f.eigenvalue == 1.0 for f in ms.members)
    assert len(ms.rank_audit) == 3
    for _, sv in ms.rank_audit:
        assert sv.shape == (2,) and sv[1] > 1e-8
    x = np.array([1.4, 0.7])
    np.testing.assert_allclose(
        ms.coordinates(x), flowbox(hyp_chart, x), rtol=1e-6, atol=1e-9
    )


def test_minimal_set_rank_audit_equals_per_point_jacobians(hyp_chart):
    pts = [(1.3, 0.8), (0.7, 1.2), (1.9, 0.6)]
    ms = minimal_set(hyp_chart, audit_points=pts)

    def member_vector(x):  # every member charts x by its own crossing search
        return np.array([complex(f(x)) for f in ms.members])

    assert len(ms.rank_audit) == len(pts)
    for pt, (audit_pt, sv) in zip(pts, ms.rank_audit):
        np.testing.assert_array_equal(audit_pt, pt)
        jac = fd_jacobian(member_vector, np.asarray(pt, dtype=float), step=1e-5)
        want = np.linalg.svd(np.asarray(jac, dtype=complex), compute_uv=False)
        np.testing.assert_allclose(sv, want, rtol=0, atol=0)
    # x1 < 0 never reaches {x1 = 1}
    with pytest.raises(NotInOmega):
        minimal_set(hyp_chart, audit_points=[(1.3, 0.8), (-0.5, 1.0)])


def test_minimal_set_source(src_chart):
    pts = [(2.0, 0.0), (0.0, 1.5), (1.0, 1.0)]
    ms = minimal_set(src_chart, audit_points=pts)
    assert ms.rank == 2
    assert ms.independent


def test_minimal_set_without_audit_is_vacuous(hyp_chart):
    ms = minimal_set(hyp_chart)
    assert ms.rank_audit == ()
    assert ms.rank == 2 and ms.independent


def test_minimal_set_one_dimensional(tight_cfg):
    from flowbox.chart import point_surface

    field = dynsys.parse_system("x1", dim=1, domain=[(0.01, 50.0)])
    chart = build_chart(field, point_surface(1.0), cfg=tight_cfg)
    ms = minimal_set(chart, audit_points=[(2.0,)])
    assert len(ms) == 1
    assert ms.independent
    np.testing.assert_allclose(ms.coordinates((2.0,)), [np.log(2.0)], rtol=1e-8)


@settings(max_examples=15, deadline=None)
@given(
    x1=st.floats(0.8, 2.0),
    x2=st.floats(0.3, 1.5),
)
def test_member_ratio_recovers_chart(hyp_chart, x1, x2):
    ms = minimal_set(hyp_chart)
    x = np.array([x1, x2])
    np.testing.assert_allclose(
        ms.coordinates(x), flowbox(hyp_chart, x), rtol=1e-6, atol=1e-8
    )


def test_kef_residuals_equal_per_point_residuals():
    # a parsed saddle charted through {x1 = 1}: x1 <= 0 never reaches the
    # surface and x1 x2 >= 4 crosses it off the patch
    field = dynsys.system_from_json(
        '{"name": "saddle-json", "dim": 2, "components": ["-x1", "x2"]}')
    surface = surface_from_json({"name": "line-json", "dim": 2,
                                 "param": ["1", "4*t1"], "level": "x1 - 1"})
    members = minimal_set(build_chart(field, surface)).members
    axes = np.meshgrid(np.linspace(-0.5, 2.5, 9), np.linspace(0.2, 4.0, 9),
                       indexing="ij")
    points = np.stack([a.ravel() for a in axes], axis=-1)

    def residual(member, x, fd_step):
        # the eigenvalue-PDE residual point by point: every stencil point and
        # x charted alone, the first failure raising
        grad = fd_gradient(lambda y: complex(member(y)), x, step=fd_step)
        p = field.eval(x)
        return complex(np.dot(grad, p) - member.eigenvalue * complex(member(x)))

    def statuses(points, fd_step):
        batched = kef_residuals(members, field, points, fd_step)
        seen = []
        for member, rows in zip(members, batched):
            for x, (res, status) in zip(points, rows):
                try:
                    expected = residual(member, np.asarray(x, dtype=float), fd_step)
                except POINT_ERRORS as err:
                    assert (res, status) == (None, error_status(err))
                else:
                    assert status == "ok"
                    np.testing.assert_allclose(res, expected, rtol=0, atol=0)
                seen.append(status)
        return seen

    seen = statuses(points, 1e-5)
    assert {s: seen.count(s) for s in set(seen)} == {
        "ok": 88, "not-in-omega": 36, "off-patch": 38}
    # the first failing stencil point names the row: x - e1 is not in omega
    # before x - e2 is off the patch, and x + e1 is off the patch although x
    # itself is not in omega
    assert statuses([[0.05, 0.02], [-0.02, -0.02]], 0.1) == 2 * [
        "not-in-omega", "off-patch"]


def test_stacked_residuals_and_members_equal_their_row_by_row_calls(hyp_chart):
    field = dynsys.builtin("hyperbolic-b")
    phi = build_kef(hyp_chart, 2.0, profile=lambda h: 4.0 * h[..., 0])
    X = np.stack(np.meshgrid(np.linspace(0.8, 1.6, 3), np.linspace(0.3, 1.2, 4),
                             indexing="ij"), axis=-1)  # (3, 4, 2)
    values, residuals = phi(X), kpde_residual(phi, 2.0, field, X)
    assert values.shape == residuals.shape == (3, 4)
    for lead in np.ndindex(3, 4):
        assert values[lead] == phi(X[lead])
        assert residuals[lead] == kpde_residual(phi, 2.0, field, X[lead])
