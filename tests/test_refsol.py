"""Closed-form reference solutions checked against independent numerics.

Every closed form is differentiated by finite differences and pushed through
the actual vector fields; nothing here trusts the formulas it is checking.
"""
import re

import numpy as np
import pytest

from flowbox import dynsys, refsol
from flowbox.chart import build_chart, flowbox
from flowbox.fdiff import fd_gradient
from flowbox.kef import kpde_residual, orbit_eigen_check
from flowbox.odeint import flow
from flowbox.refsol import (
    ExcludedRegionError,
    evaluate_reference_flowbox,
    reference,
    reference_ids,
)

ALL_IDS = [
    "appendix",
    "hyperbolic-b",
    "limit-cycle",
    "linear-ac",
    "linear-ai",
    "linear-ar",
    "rotation-c",
    "source-a",
]
FB_IDS = [
    "source-a",
    "hyperbolic-b",
    "linear-ar",
    "linear-ac",
    "linear-ai",
    "limit-cycle",
]


# a point inside each system's excluded region; None where nothing is
EXCLUDED_POINT = {
    "appendix": None,
    "hyperbolic-b": (-1.0, 1.0),
    "limit-cycle": (1.0, 0.0),
    "linear-ac": (0.0, 0.0),
    "linear-ai": (0.0, 0.0),
    "linear-ar": (1.0, 1.0),
    "rotation-c": (0.01, 0.0),
    "source-a": (0.01, 0.0),
}


def closed_forms(ref):
    """(name, callable) of every closed form of ref."""
    calls = [(e.label, e.fn) for e in ref.eigenfunctions]
    calls += [(f"{c.label}.{part}", getattr(c, part))
              for c in ref.failed_candidates for part in ("fn", "residual")]
    calls += [(name, getattr(ref, name))
              for name in ("unit_time", "unit_coords", "flowbox", "chart_h", "excluded")
              if getattr(ref, name) is not None]
    return calls


@pytest.mark.parametrize("sid", ALL_IDS)
def test_stacked_closed_forms_equal_per_row_calls(sid, rng):
    # every closed form maps (..., N) to (..., *V); a single point is the
    # stack with no leading axis
    ref = reference(sid)
    stack = ref.sample_valid(rng, 12).reshape(3, 4, 2)
    for name, fn in closed_forms(ref):
        got = np.asarray(fn(stack))
        rows = np.array([[np.asarray(fn(x)) for x in row] for row in stack])
        assert got.shape == (3, 4) + np.shape(fn(stack[0, 0])), name
        np.testing.assert_allclose(got, rows, rtol=1e-15, atol=0,
                                   err_msg=f"{sid}/{name}")

    # the predicate flags exactly the excluded row, and the flowbox refuses
    # the stack, naming that row
    mixed = stack.copy()
    flagged = np.zeros((3, 4), dtype=bool)
    bad = EXCLUDED_POINT[sid]
    if bad is not None:
        mixed[1, 2] = bad
        flagged[1, 2] = True
    np.testing.assert_array_equal(ref.excluded(mixed), flagged)
    if ref.flowbox is not None:
        np.testing.assert_array_equal(evaluate_reference_flowbox(ref, stack),
                                      ref.flowbox(stack))
        with pytest.raises(ExcludedRegionError, match=re.escape(str(list(bad)))):
            evaluate_reference_flowbox(ref, mixed)


def test_registry():
    assert reference_ids() == ALL_IDS
    with pytest.raises(KeyError, match="no reference solution"):
        reference("nope")


def _loop(candidate, accept):
    """The per-candidate rejection loop the samplers replace: draw one
    candidate at a time until n pass."""
    def sample(rng, n):
        out = []
        while len(out) < n:
            x = candidate(rng)
            if accept(x):
                out.append(x)
        return np.array(out)

    return sample


def _box(lo, hi):
    return lambda rng: rng.uniform(np.array(lo), np.array(hi))


def _r_then_th(r_lo, r_hi, th_lo, th_hi):
    def candidate(rng):
        r = rng.uniform(r_lo, r_hi)
        th = rng.uniform(th_lo, th_hi)
        return np.array([r * np.cos(th), r * np.sin(th)])

    return candidate


def _th_then_r(th_lo, th_hi, r_lo, r_hi):
    def candidate(rng):
        th = rng.uniform(th_lo, th_hi)
        r = rng.uniform(r_lo, r_hi)
        return r * np.array([np.cos(th), np.sin(th)])

    return candidate


def _limit_cycle_candidate(rng):
    if rng.uniform() < 0.5:
        r = rng.uniform(0.3, 0.8)
    else:
        r = rng.uniform(1.25, 2.0)
    th = rng.uniform(-np.pi + 0.2, np.pi - 0.5)
    return r * np.array([np.cos(th), np.sin(th)])


def _ar_off_axes(x):
    s = np.sqrt(2.0)
    return (abs(np.dot(np.array([1.0, 1.0]) / s, x)) >= 0.3
            and abs(np.dot(np.array([1.0, -1.0]) / s, x)) >= 0.3)


def _ac_off_cut(x):
    phi = complex(np.dot(refsol._AC_ROW, x))
    return abs(phi) >= 0.3 and np.pi - abs(np.angle(phi)) >= 0.25


# sid -> (one candidate's draws, its acceptance test or None for "not
# excluded"), as each sampler drew them one candidate at a time
LOOPS = {
    "appendix": (_box((-2.0, -2.0), (2.0, 2.0)), None),
    "hyperbolic-b": (_box((0.7, 0.1), (2.5, 1.5)), None),
    "limit-cycle": (_limit_cycle_candidate, None),
    "linear-ac": (_th_then_r(-np.pi, np.pi, 0.5, 1.0), _ac_off_cut),
    "linear-ai": (_th_then_r(-np.pi + 0.45, np.pi - 0.3, 0.6, 2.0), None),
    "linear-ar": (_th_then_r(-np.pi, np.pi, 0.6, 1.0), _ar_off_axes),
    "rotation-c": (_r_then_th(0.3, 3.0, -np.pi + 0.1, np.pi), None),
    "source-a": (_r_then_th(0.3, 3.0, -np.pi + 0.2, np.pi - 0.45), None),
}


def _pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sid", ALL_IDS)
def test_samplers_draw_the_stream_of_a_per_candidate_loop(sid):
    # a sampler draws blocks of candidates; its points and the stream after
    # them are those of the loop that draws one candidate at a time
    ref = reference(sid)
    candidate, accept = LOOPS[sid]
    loop = _loop(candidate, accept or (lambda x: not ref.excluded(x)))
    for seed in range(10):
        for n in (1, 7, 100):
            blocks, one_by_one = _pcg(seed), _pcg(seed)
            _assert_same_bits(ref.sample_valid(blocks, n), loop(one_by_one, n))
            assert blocks.random() == one_by_one.random()
        # drawing a and then b points is drawing a + b
        split, whole = _pcg(seed), _pcg(seed)
        _assert_same_bits(
            np.concatenate([ref.sample_valid(split, 7), ref.sample_valid(split, 30)]),
            ref.sample_valid(whole, 37))
        assert split.random() == whole.random()


def test_samplers_respect_validity(rng):
    for sid in ALL_IDS:
        ref = reference(sid)
        pts = ref.sample_valid(rng, 50)
        assert pts.shape == (50, 2)
        for x in pts:
            assert not ref.excluded(x)
            assert ref.field.contains(x)


@pytest.mark.parametrize("sid", ALL_IDS)
def test_eigenfunction_kpde_residuals(sid, rng):
    ref = reference(sid)
    pts = ref.sample_valid(rng, 100)
    for fn in ref.eigenfunctions:
        worst = max(
            abs(kpde_residual(fn, fn.eigenvalue, ref.field, x)) for x in pts
        )
        assert worst <= 1e-8, f"{sid}/{fn.label}: {worst:.3e}"


@pytest.mark.parametrize("sid", ALL_IDS)
def test_unit_velocity_residuals(sid, rng):
    ref = reference(sid)
    pts = ref.sample_valid(rng, 100)

    def unit_residual(fn, x):
        grad = fd_gradient(fn, x)
        return abs(complex(np.dot(grad, ref.field.eval(x))) - 1.0)

    if ref.unit_coords is not None:
        n = len(ref.unit_coords(pts[0]))
        for i in range(n):
            worst = max(
                unit_residual(lambda x, i=i: ref.unit_coords(x)[i], x)
                for x in pts
            )
            assert worst <= 1e-8, f"{sid}/y{i}: {worst:.3e}"
    elif ref.unit_time is not None:
        worst = max(unit_residual(ref.unit_time, x) for x in pts)
        assert worst <= 1e-8, f"{sid}/m: {worst:.3e}"
    else:
        # the polynomial example documents eigenfunctions only
        assert sid == "appendix"


@pytest.mark.parametrize("sid", FB_IDS)
def test_flowbox_advance_law(sid, rng, tight_cfg):
    ref = reference(sid)
    t = 0.25
    pts = ref.sample_valid(rng, 30)
    checked = 0
    for x in pts:
        xt = flow(ref.field, x, t, cfg=tight_cfg)
        if ref.excluded(xt):
            continue
        dz = evaluate_reference_flowbox(ref, xt) - evaluate_reference_flowbox(
            ref, x
        )
        want = np.zeros_like(dz)
        want[-1] = t
        np.testing.assert_allclose(dz, want, atol=1e-6)
        checked += 1
    assert checked >= 10


def test_linear_ar_frozen_point():
    ref = reference("linear-ar")
    x = np.array([5.0, 2.0])
    y = ref.unit_coords(x)
    s = np.sqrt(2.0)
    assert complex(y[0]) == pytest.approx(np.log(7.0 / s) / 3.0, abs=1e-12)
    assert complex(y[1]) == pytest.approx(np.log(3.0 / s) / 8.0, abs=1e-12)
    # invariant component first, unit-time component last
    z = evaluate_reference_flowbox(ref, x)
    np.testing.assert_allclose(z, [0.219554, 0.313559], atol=1e-6)


def test_limit_cycle_frozen_point():
    ref = reference("limit-cycle")
    y = ref.unit_coords(np.array([0.5, 0.0]))
    assert complex(y[0]).real == pytest.approx(
        np.log(0.5 / np.sqrt(0.75)), abs=1e-12
    )
    assert complex(y[0]).real == pytest.approx(-0.549306, abs=1e-6)


def test_flowbox_error_cases():
    with pytest.raises(ExcludedRegionError):
        evaluate_reference_flowbox(reference("linear-ar"), (2.0, 2.0))
    with pytest.raises(ExcludedRegionError):
        evaluate_reference_flowbox(reference("limit-cycle"), (1.0, 0.0))
    for sid in ("rotation-c", "appendix"):
        with pytest.raises(ValueError, match="no global flowbox"):
            evaluate_reference_flowbox(reference(sid), (1.0, 1.0))


def test_declared_eigenpairs():
    ref = reference("linear-ar")
    s = np.sqrt(2.0)
    (l1, v1), (l2, v2) = ref.eigenpairs
    assert (l1, l2) == (8.0, 3.0)
    np.testing.assert_allclose(v1, np.array([1.0, -1.0]) / s)
    np.testing.assert_allclose(v2, np.array([1.0, 1.0]) / s)

    ac = reference("linear-ac")
    lam = complex(-9.0 / 20.0, np.sqrt(15.0) / 20.0)
    assert ac.eigenpairs[0][0] == pytest.approx(lam)
    assert ac.eigenpairs[1][0] == pytest.approx(np.conj(lam))


@pytest.mark.parametrize("sid", ["rotation-c", "linear-ar", "linear-ac", "linear-ai"])
def test_eigenpairs_satisfy_jacobian(sid):
    ref = reference(sid)
    a = ref.field.jacobian(np.zeros(2))
    for lam, v in ref.eigenpairs:
        np.testing.assert_allclose(a @ v, lam * v, atol=1e-12)


@pytest.mark.parametrize("sid", ["linear-ac", "linear-ai", "rotation-c"])
def test_real_form_residual_identities(sid, rng):
    # split phi = u + iv at eigenvalue a + ib: along the field,
    # u must advance as a*u - b*v and v as b*u + a*v
    ref = reference(sid)
    pts = ref.sample_valid(rng, 25)
    for fn in ref.eigenfunctions:
        a, b = fn.eigenvalue.real, fn.eigenvalue.imag
        for x in pts:
            p = ref.field.eval(x)
            u = fd_gradient(lambda q: complex(fn(q)).real, x)
            v = fd_gradient(lambda q: complex(fn(q)).imag, x)
            fu, fv = complex(fn(x)).real, complex(fn(x)).imag
            assert abs(np.dot(u, p) - (a * fu - b * fv)) <= 1e-8
            assert abs(np.dot(v, p) - (b * fu + a * fv)) <= 1e-8


@pytest.mark.parametrize("sid", ["source-a", "hyperbolic-b"])
def test_chart_agrees_with_closed_forms(sid, rng, tight_cfg):
    ref = reference(sid)
    chart = build_chart(ref.field, ref.surface_name, cfg=tight_cfg)
    for x in ref.sample_valid(rng, 20):
        z = flowbox(chart, x)
        assert z[-1] == pytest.approx(ref.unit_time(x), abs=1e-6)
        np.testing.assert_allclose(z[:-1], ref.chart_h(x), atol=1e-6)


def test_appendix_failed_candidate(tight_cfg):
    ref = reference("appendix")
    (cand,) = ref.failed_candidates
    assert cand.eigenvalue == 2.0
    # on the invariant parabola the along-orbit check is fooled
    dev = orbit_eigen_check(
        cand.fn, cand.eigenvalue, ref.field, cand.orbit_seed, 1.0, cfg=tight_cfg
    )
    assert dev < 1e-6
    # yet the PDE residual is nonzero almost everywhere and matches closed form
    for x in [(1.0, 1.0), (0.5, -0.7), (-1.2, 0.4)]:
        got = kpde_residual(cand.fn, cand.eigenvalue, ref.field, np.array(x))
        assert complex(got) == pytest.approx(cand.residual(np.array(x)), abs=1e-7)
    assert cand.residual(np.array([1.0, 1.0])) == -2.0
    # off the parabola the orbit check fails loudly
    off = orbit_eigen_check(
        cand.fn, cand.eigenvalue, ref.field, (1.0, 1.0), 1.0, cfg=tight_cfg
    )
    assert off > 0.1


def test_validity_documented():
    for sid in ALL_IDS:
        ref = reference(sid)
        assert ref.validity
    assert reference("source-a").surface_name == "circle-a"
    assert reference("hyperbolic-b").surface_name == "line-b"
