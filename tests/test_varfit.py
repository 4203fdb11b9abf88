import dataclasses
import functools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbox import varfit
from flowbox.dynsys import builtin, parse_system
from flowbox.refsol import reference
from flowbox.varfit import (
    GAIN_MET,
    FitConfig,
    FitResult,
    FitStats,
    GridField,
    _CHECK_EVERY,
    _MAX_SWEEP_ROUNDS,
    _NODE_TOL,
    _coarse_ladder,
    _median,
    _Objective,
    _prolong,
    _shifted_cheb,
    _smoothed,
    _smoother,
    diff_axis,
    diff_axis_T,
    fit,
    grid_axes,
    load_grid,
    loss,
    loss_gradient,
    rotate_to_flowbox,
    save_grid,
    trapezoid_weights,
)

AR = builtin("linear-ar")
BOX_REG = np.array([[4.0, 6.0], [1.0, 3.0]])
BOX_SING = np.array([[2.5, 3.0], [2.5, 3.0]])


def drift(exprs, dim=2):
    return parse_system(exprs, dim=dim, domain=[(-50.0, 50.0)] * dim)


def mesh_grid(box, shape):
    box = np.asarray(box, dtype=float)
    return np.stack(np.meshgrid(*grid_axes(box, shape), indexing="ij"), axis=0)


# ---------------------------------------------------------------------------
# Stencils and quadrature


def test_diff_axis_exact_on_quadratics():
    # second-order stencils differentiate x^2 exactly, boundary rows included
    x = np.linspace(0.0, 3.0, 13)
    h = x[1] - x[0]
    np.testing.assert_allclose(diff_axis(x * x, h, 0), 2.0 * x, atol=1e-12)


def test_diff_axis_transpose_is_adjoint(rng):
    # one grid function, then a stacked (N, *grid shape) input differentiated
    # along grid axis a + 1
    for shape, axes in (((6, 9), (0, 1)), ((2, 6, 9), (1, 2))):
        u = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        for axis, h in zip(axes, (0.3, 0.17)):
            lhs = np.sum(diff_axis(u, h, axis) * v)
            rhs = np.sum(u * diff_axis_T(v, h, axis))
            assert lhs == pytest.approx(rhs, rel=1e-12)


# Reference implementations of the per-axis operators as index-slice stencils
# and a pass loop; the matrix operators must agree with them.


@functools.lru_cache(maxsize=None)
def ref_cuts(axis):
    lead = (slice(None),) * axis
    cuts = (slice(2, None), slice(1, -1), slice(None, -2), 0, 1, 2, -1, -2, -3)
    return tuple(lead + (cut,) for cut in cuts)


def ref_diff_axis(u, h, axis):
    nxt, mid, prv, n0, n1, n2, e1, e2, e3 = ref_cuts(axis % u.ndim)
    out = np.empty_like(u)
    inv = 1.0 / (2.0 * h)
    out[mid] = (u[nxt] - u[prv]) * inv
    out[n0] = (-3.0 * u[n0] + 4.0 * u[n1] - u[n2]) * inv
    out[e1] = (3.0 * u[e1] - 4.0 * u[e2] + u[e3]) * inv
    return out


def ref_diff_axis_T(v, h, axis):
    # each stencil row scattered back onto its columns
    nxt, mid, prv, n0, n1, n2, e1, e2, e3 = ref_cuts(axis % v.ndim)
    out = np.zeros_like(v)
    inv = 1.0 / (2.0 * h)
    out[prv] += -inv * v[mid]
    out[nxt] += inv * v[mid]
    out[n0] += -3.0 * inv * v[n0]
    out[n1] += 4.0 * inv * v[n0]
    out[n2] += -inv * v[n0]
    out[e1] += 3.0 * inv * v[e1]
    out[e2] += -4.0 * inv * v[e1]
    out[e3] += inv * v[e1]
    return out


def ref_smoothed(arr, passes):
    out = arr.copy()
    for _ in range(passes):
        for ax in range(1, out.ndim):
            nxt, mid, prv, n0, n1, _, e1, e2, _ = ref_cuts(ax)
            v = np.empty_like(out)
            v[mid] = 0.25 * out[prv] + 0.5 * out[mid] + 0.25 * out[nxt]
            v[n0] = 0.75 * out[n0] + 0.25 * out[n1]
            v[e1] = 0.75 * out[e1] + 0.25 * out[e2]
            out = v
    return out


def assert_matches(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape, axes", [
    ((7,), (0, -1)),
    ((3,), (0,)),
    ((2, 6, 9), (1, 2)),
    ((2, 3, 3), (1, 2)),
    ((3, 5, 4, 3), (1, 2, 3)),
])
def test_diff_axis_and_transpose_match_stencil_references(shape, axes, rng):
    u = rng.standard_normal(shape)
    for axis in axes:
        assert_matches(diff_axis(u, 0.17, axis), ref_diff_axis(u, 0.17, axis))
        assert_matches(diff_axis_T(u, 0.17, axis), ref_diff_axis_T(u, 0.17, axis))


@pytest.mark.parametrize("shape", [(2, 6, 9), (2, 3, 3), (3, 5, 4, 3)])
@pytest.mark.parametrize("passes", [1, 2, 8])
def test_smoothing_matrix_matches_the_pass_loop(shape, passes, rng):
    u = rng.standard_normal(shape)
    assert_matches(_smoothed(u, passes), ref_smoothed(u, passes))


@pytest.mark.parametrize("n", [3, 9, 64])
def test_one_pass_smoother_is_symmetric_positive_definite(n):
    s = _smoother(n, 1)
    assert not s.flags.writeable
    assert np.array_equal(s, s.T)
    assert np.min(np.linalg.eigvalsh(s)) > 0.0


@pytest.mark.parametrize("shapes", [
    _coarse_ladder((64, 64)),
    _coarse_ladder((17, 17, 17)),
    [(9, 9, 9), (9, 9, 9)],
    [(9, 9, 9), (17, 9, 12)],
])
def test_prolongation_reproduces_per_axis_cubics(shapes, rng):
    # cubic Lagrange interpolation per axis, one-sided at the ends, is exact
    # on products and sums of cubics in each coordinate
    box = np.array([[4.0, 6.0], [1.0, 3.0], [-2.0, 0.5]])[:len(shapes[0])]
    n = len(shapes[0])
    coeffs = rng.standard_normal((n, 2, n, 4))

    def sampled(shape):
        mesh = mesh_grid(box, shape)
        cubics = [[np.polynomial.polynomial.polyval(mesh[a], c[a]) for a in range(n)]
                  for c in coeffs[:, 0]]
        shifts = [[np.polynomial.polynomial.polyval(mesh[a], c[a]) for a in range(n)]
                  for c in coeffs[:, 1]]
        return np.stack([np.prod(p, axis=0) + np.sum(q, axis=0)
                         for p, q in zip(cubics, shifts)])

    for shape_from, shape_to in zip(shapes, shapes[1:]):
        assert_matches(_prolong(sampled(shape_from), shape_to), sampled(shape_to))


def test_trapezoid_weights_integrate_constants():
    box = np.array([[0.0, 2.0], [1.0, 4.0]])
    w = trapezoid_weights(box, (11, 7))
    assert float(np.sum(w)) == pytest.approx(6.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Loss values against hand evaluations


def test_loss_of_constants_is_volume_per_coordinate():
    # zero gradients: each unit-rate defect is exactly -1, overlaps vanish
    box = np.array([[0.0, 2.0], [0.0, 3.0]])
    g = GridField(box=box, values=np.ones((2, 9, 9)))
    a, b, total = loss(g, AR)
    assert a == pytest.approx(12.0, rel=1e-12)
    assert b == 0.0
    assert total == pytest.approx(12.0, rel=1e-12)


def test_loss_vanishes_on_a_rotated_clock_pair():
    # under P = (1, 0) both coordinates must tick at unit rate with
    # orthogonal gradients: y = (x1 + x2, x1 - x2) does exactly that
    field = drift("1, 0")
    box = np.array([[0.0, 1.0], [0.0, 1.0]])
    mesh = mesh_grid(box, (9, 9))
    g = GridField(box=box, values=np.stack([mesh[0] + mesh[1], mesh[0] - mesh[1]]))
    a, b, total = loss(g, field)
    assert total == pytest.approx(0.0, abs=1e-28)
    # identity coordinates are not a minimizer: x2 does not advance at all
    gid = GridField(box=box, values=mesh)
    assert loss(gid, field)[0] == pytest.approx(1.0, rel=1e-12)


def test_loss_overlap_term_and_weights():
    # y_i = x1 for every i solves the unit-rate term under P = e1 but every
    # pair overlaps completely: A = 0, B = pairs * volume.  In 3-D the three
    # pairs each overlap over the volume 3.  Both terms weigh 1 in the total
    for exprs, box, shape, b_exact in (
        ("1, 0", [[0.0, 2.0], [0.0, 1.0]], (9, 9), 2.0),
        ("1, 0, 0", [[0.0, 2.0], [0.0, 1.0], [0.0, 1.5]], (9, 7, 5), 9.0),
    ):
        box = np.array(box)
        x1 = mesh_grid(box, shape)[0]
        g = GridField(box=box, values=np.stack([x1] * len(shape)))
        a, b, total = loss(g, drift(exprs, dim=len(shape)))
        assert a == pytest.approx(0.0, abs=1e-28)
        assert b == pytest.approx(b_exact, rel=1e-12)
        assert total == pytest.approx(b_exact, rel=1e-12)


def test_loss_of_analytic_restriction_shrinks_fourth_order():
    ref = reference("linear-ar")
    vals = {}
    for n in (32, 64):
        shape = (n, n)
        mesh = mesh_grid(BOX_REG, shape)
        pts = mesh.reshape(2, -1).T
        # both linear forms are positive over this box, so the complex logs
        # carry no imaginary part
        y = np.array(
            [ref.unit_coords(p) for p in pts]
        ).real.T.reshape((2,) + shape)
        vals[n] = loss(GridField(box=BOX_REG, values=y), AR)[2]
    assert vals[64] < 1e-7
    # halving the spacing should cut the loss by about 2^4
    assert vals[32] / vals[64] > 8.0


# a 2-D field, a 3-D one (three overlap pairs in the gradient's bookkeeping)
# and a 1-D one (no pairs at all)
LOSS_CASES = (
    (AR, [[4.0, 6.0], [1.0, 3.0]], (7, 9)),
    (drift("x2, -x1 + x3, 1", dim=3),
     [[0.0, 1.0], [1.0, 2.0], [-1.0, 0.5]], (5, 6, 7)),
    (parse_system("x1", dim=1, domain=[(0.01, 50.0)]), [[1.0, 2.0]], (11,)),
)


def ref_loss(values, field, box):
    # per-coordinate, per-pair loops over the reference stencils
    shape = values.shape[1:]
    n = len(shape)
    h = (box[:, 1] - box[:, 0]) / (np.array(shape) - 1)
    p_vals = np.moveaxis(field.eval(np.moveaxis(mesh_grid(box, shape), 0, -1)), -1, 0)
    w = trapezoid_weights(box, shape)
    G = [[ref_diff_axis(values[i], h[a], a) for a in range(n)] for i in range(n)]
    a_term = sum(float(np.sum(w * (sum(G[i][a] * p_vals[a] for a in range(n)) - 1.0) ** 2))
                 for i in range(n))
    b_term = sum(float(np.sum(w * sum(G[i][a] * G[j][a] for a in range(n)) ** 2))
                 for i in range(n) for j in range(i + 1, n))
    return a_term, b_term, a_term + b_term


@pytest.mark.parametrize("field, box, shape", LOSS_CASES)
def test_loss_matches_the_loop_reference(field, box, shape, rng):
    box = np.array(box)
    values = rng.standard_normal((len(shape),) + shape)
    got = loss(GridField(box=box, values=values), field)
    ref = ref_loss(values, field, box)
    assert got == pytest.approx(ref, rel=1e-12)


def test_loss_gradient_matches_directional_differences(rng):
    # 3 random states x 20 random directions, central differences
    for field, box, shape in LOSS_CASES:
        box = np.array(box)
        n = len(shape)
        for _ in range(3):
            values = rng.standard_normal((n,) + shape)
            grid = GridField(box=box, values=values)
            grad = loss_gradient(grid, field)
            for _ in range(20):
                d = rng.standard_normal((n,) + shape)
                d /= np.sqrt(np.sum(d * d))
                eps = 1e-6
                tp = loss(GridField(box=box, values=values + eps * d), field)[2]
                tm = loss(GridField(box=box, values=values - eps * d), field)[2]
                fd = (tp - tm) / (2.0 * eps)
                an = float(np.sum(grad * d))
                assert an == pytest.approx(fd, rel=1e-5, abs=1e-12)


@pytest.mark.parametrize("field, box, shape", LOSS_CASES)
def test_line_polynomials_match_the_loss(field, box, shape, rng):
    # a halving is scored from G - s * grad(d), since G is linear in the
    # values; along a one-coordinate move the total is an exact quadratic
    box = np.array(box)
    n = len(shape)
    values = rng.standard_normal((n,) + shape)
    objective = _Objective(field, box, shape)
    total, terms = objective.evaluate(values)

    def exact(moved):
        return loss(GridField(box=box, values=moved), field)[2]

    d = rng.standard_normal((n,) + shape)
    dG = objective.derivatives(d)
    for s in (1e-3, 0.02, 0.3, 1.0, 4.0):
        scored = objective.score(terms.G - s * dG)[0]
        assert scored == pytest.approx(exact(values - s * d), rel=1e-12)

    # moving row i along K bases at once, the total is an exact quadratic
    # total + b.c + c.A.c in c
    i = n - 1
    bases = rng.standard_normal((4,) + shape)
    moves = np.zeros((4, n) + shape)
    moves[:, i] = bases
    b, A = objective.move_poly(terms, i, objective.derivatives(bases))
    # b_k, the slope along the k-th move, is the gradient's projection on it
    grad = objective.gradient(terms)
    for b_k, move in zip(b, moves):
        assert b_k == pytest.approx(float(np.sum(grad * move)), rel=1e-10)
    for _ in range(3):
        c = rng.uniform(-2.0, 2.0, 4)
        predicted = total + b @ c + c @ A @ c
        moved = values + np.einsum("k,k...->...", c, moves)
        assert predicted == pytest.approx(exact(moved), rel=1e-12)


def test_the_joint_vertex_beats_every_line_vertex(rng):
    # the minimum over the span of a pair's bases is at most the minimum
    # along any one of them; the vertices are scored totals, so allow a
    # relative round-off slack of 1e-12
    shape = (17, 17)
    objective = _Objective(AR, BOX_REG, shape)
    for seed in range(3):
        values = varfit._affine_init(BOX_REG, shape, objective.p_vals, seed)
        values += 0.1 * rng.standard_normal(values.shape)
        total, terms = objective.evaluate(values)
        for i, j in ((0, 1), (1, 0)):
            bases = varfit._pair_bases(values, i, j)
            assert len(bases) == 4
            joint = varfit._joint_move(objective, values, total, terms, i, bases)
            assert joint is not None
            best_on_lines = total
            for basis in bases:
                line = varfit._joint_move(objective, values, total, terms, i,
                                          basis[None])
                best_on_line = total if line is None else line[1]
                assert joint[1] <= best_on_line * (1.0 + 1e-12)
                best_on_lines = min(best_on_lines, best_on_line)
            # on a generic iterate the minimum uses more than one basis
            assert joint[1] < best_on_lines


@pytest.mark.parametrize("k", [2, 3, 4])
def test_shifted_chebyshev_bases(k, rng):
    u = rng.uniform(0.0, 1.0, (5, 7))
    ref = np.polynomial.chebyshev.chebval(2.0 * u - 1.0, np.eye(k + 1)[k])
    np.testing.assert_allclose(_shifted_cheb(u, k), ref, rtol=0, atol=1e-14)


@pytest.mark.parametrize("evaluate", [loss, loss_gradient])
def test_non_finite_value_is_reported_at_its_node(evaluate, rng):
    values = rng.standard_normal((2, 9, 9))
    values[0, 5, 6] = np.nan
    with pytest.raises(FloatingPointError, match=r"at node \(5, 6\)"):
        evaluate(GridField(box=BOX_REG, values=values), AR)


def test_loss_rejects_box_outside_domain():
    field = parse_system("x1, x2", dim=2, domain=[(0.0, 1.0), (0.0, 1.0)])
    g = GridField(box=np.array([[0.0, 2.0], [0.0, 1.0]]), values=np.zeros((2, 5, 5)))
    with pytest.raises(ValueError):
        loss(g, field)


# ---------------------------------------------------------------------------
# Config and grid validation


def test_grid_field_validation():
    with pytest.raises(ValueError):
        GridField(box=np.array([[1.0, 0.0]]), values=np.zeros((1, 5)))
    with pytest.raises(ValueError):
        GridField(box=np.array([[0.0, 1.0]]), values=np.zeros((2, 5)))
    with pytest.raises(ValueError):
        GridField(box=np.array([[0.0, 1.0], [0.0, 1.0]]), values=np.zeros((2, 5, 2)))


REMOVED_KNOBS = ("step_size", "momentum", "weight_a", "weight_b")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step_size": 0.0},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"iterations": 0},
        {"weight_a": -1.0},
        {"target": -1e-3},
        {"seed": -1},
        {"step_size": float("nan")},
        {"step_size": float("inf")},
        {"momentum": float("nan")},
        {"weight_a": float("nan")},
        {"weight_b": float("inf")},
        {"target": float("nan")},
        {"target": float("inf")},
    ],
)
def test_fit_config_rejects_bad_values(kwargs):
    name = next(iter(kwargs))
    # the descent knobs are varfit constants now, so FitConfig has no such field
    error = TypeError if name in REMOVED_KNOBS else ValueError
    with pytest.raises(error, match=name):
        FitConfig(**kwargs)


def test_fit_config_holds_only_budget_seed_and_target():
    fields = [f.name for f in dataclasses.fields(FitConfig)]
    assert fields == ["iterations", "seed", "target"]
    with pytest.raises(TypeError, match="momentum"):
        FitConfig(momentum=0.5)


def test_fit_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        fit(AR, np.zeros((3, 2)), (9, 9))
    with pytest.raises(ValueError):
        fit(AR, BOX_REG, (9, 9, 9))


# ---------------------------------------------------------------------------
# fit() behaviour


@pytest.fixture(scope="module")
def reg_fit_small():
    return fit(AR, BOX_REG, (32, 32), FitConfig(iterations=600, seed=0))


def test_fit_history_strictly_bookkept(reg_fit_small):
    r = reg_fit_small
    assert isinstance(r, FitResult)
    assert len(r.history) <= 600
    assert np.all(np.diff(r.history) <= 0.0)
    assert r.history[-1] == r.total
    assert r.iterations_run <= 600
    # corner stays pinned at zero so the minimizer is unique
    assert r.grid.values[0, 0, 0] == 0.0
    assert r.grid.values[1, 0, 0] == 0.0


def _assert_terms_match_a_fresh_loss(r):
    # descent trials are scored from linearly updated derivatives and joint
    # recombination moves from one moved row; the returned terms must still
    # match a fresh loss
    a, b, _ = loss(r.grid, AR)
    assert r.loss_a == pytest.approx(a, rel=1e-9)
    assert r.loss_b == pytest.approx(b, rel=1e-9)
    assert r.history[-1] == r.total
    assert 0 < r.stats.backtracks


def test_fit_maintained_terms_do_not_drift(reg_fit_small):
    _assert_terms_match_a_fresh_loss(reg_fit_small)


def test_full_length_fits_do_not_drift(ar_fits):
    # acceptance 7's 64x64 fits run thousands of steps, each scored from
    # linearly updated derivatives
    for box in (BOX_REG, BOX_SING):
        r = ar_fits(box)
        assert r.iterations_run >= 1500
        _assert_terms_match_a_fresh_loss(r)


def test_every_descent_trial_is_scored(reg_fit_small):
    # a level scores its start, every trial of every step (the current step
    # and each halving after a rejection) and the vertex of each joint move
    # its sweeps try; every coarse level ends with a sweep, and this fit's final
    # level runs none, so its ledger is exact
    r = reg_fit_small
    *coarse, final = r.level_stats
    assert coarse and all(s.sweeps >= 1 for s in coarse)
    assert final.sweeps == 0
    for s in r.level_stats:
        vertices = s.loss_evals - (1 + s.gradients + s.backtracks)
        # two coordinates: each round scores one vertex per ordered pair
        assert s.line_moves <= vertices <= s.sweep_rounds * 2
        assert s.sweeps <= s.sweep_rounds <= s.sweeps * _MAX_SWEEP_ROUNDS
        assert vertices <= s.sweeps * _MAX_SWEEP_ROUNDS * 2
        if s.sweeps == 0:
            assert vertices == 0


def test_level_work_sums_to_the_fit(reg_fit_small):
    r = reg_fit_small
    levels = len(r.level_totals)
    assert len(r.level_iterations) == len(r.level_stats) == levels == 3
    assert sum(r.level_iterations) == r.iterations_run
    assert r.level_iterations[-1] == len(r.history)
    for name in (f.name for f in dataclasses.fields(FitStats)):
        assert sum(getattr(s, name) for s in r.level_stats) == getattr(r.stats, name)
    assert [s.gradients for s in r.level_stats] == list(r.level_iterations)


def test_sweep_seconds_are_part_of_each_level(reg_fit_small):
    r = reg_fit_small
    assert len(r.level_sweep_seconds) == len(r.level_seconds)
    for sweep_s, level_s, s in zip(r.level_sweep_seconds, r.level_seconds,
                                   r.level_stats):
        assert 0.0 <= sweep_s <= level_s
        # a level that ran no sweep spent no time in one
        assert (sweep_s > 0.0) == (s.sweeps > 0)


def test_fit_is_deterministic(reg_fit_small):
    again = fit(AR, BOX_REG, (32, 32), FitConfig(iterations=600, seed=0))
    assert np.array_equal(again.history, reg_fit_small.history)
    assert np.array_equal(again.grid.values, reg_fit_small.grid.values)
    assert again.total == reg_fit_small.total


def test_fit_seed_changes_the_start(reg_fit_small):
    other = fit(AR, BOX_REG, (32, 32), FitConfig(iterations=600, seed=1))
    assert not np.array_equal(other.grid.values, reg_fit_small.grid.values)


def test_fit_single_iteration_history():
    r = fit(AR, BOX_REG, (64, 64), FitConfig(iterations=1, seed=0))
    assert len(r.history) == 1
    assert r.iterations_run == 1


def test_fit_target_stops_early():
    r = fit(AR, BOX_REG, (32, 32), FitConfig(iterations=3000, seed=0, target=1e-4))
    assert r.converged
    assert r.message.startswith("node-mean targets met")
    assert r.iterations_run < 3000
    assert float(np.max(r.node_mean_a)) <= 1e-4
    assert r.node_mean_b <= 1e-4
    assert not r.elevated_residual


def test_fit_target_looser_than_the_tolerance_only_stops_early():
    # a met target ends the fit, but converged still asks for node-mean
    # defects at or below the tolerance
    r = fit(AR, BOX_REG, (9, 9), FitConfig(iterations=20, seed=0, target=1e9))
    assert r.message.startswith("node-mean targets met")
    assert r.iterations_run == 1
    assert float(np.max(r.node_mean_a)) > _NODE_TOL
    assert not r.converged


def test_fit_exact_affine_solution_reaches_machine_floor():
    # P = (1, 0): the random-affine start is already in the solution family
    field = drift("1, 0")
    box = np.array([[0.0, 1.0], [0.0, 1.0]])
    r = fit(field, box, (17, 17), FitConfig(iterations=400, seed=0))
    assert r.converged
    assert r.total < 1e-20
    # a tiny refinement gain at round-off scale is not an elevated residual
    assert not r.elevated_residual


def test_fit_one_dimensional_field():
    field = parse_system("x1", dim=1, domain=[(0.01, 50.0)])
    r = fit(field, np.array([[1.0, 2.0]]), (33,), FitConfig(iterations=400, seed=0))
    assert r.converged
    assert r.node_mean_b == 0.0
    # y should march like log x1: unit rate along the flow
    assert float(np.max(np.abs(r.unit_mean - 1.0))) < 1e-3


def test_fit_three_dimensional_field():
    field = drift("x1, x2, x3", dim=3)
    box = np.array([[1.0, 2.0]] * 3)
    r = fit(field, box, (9, 9, 9), FitConfig(iterations=300, seed=0))
    assert np.all(np.diff(r.history) <= 0.0)
    assert r.converged


def test_fit_flags_nothing_on_a_regular_patch(ar_fits):
    r = ar_fits(BOX_REG)
    assert r.converged
    assert not r.elevated_residual
    # 33 -> 64 nodes per axis: the mesh width shrinks by 63/32
    assert r.gain_tol == pytest.approx(63.0 / 32.0, rel=1e-12)
    assert r.refinement_gain >= r.gain_tol
    assert r.message == GAIN_MET
    assert r.iterations_run < 5000
    assert float(np.max(r.node_mean_a)) <= 1e-2
    assert r.node_mean_b <= 1e-2


def test_fit_flags_elevated_residual_across_a_singular_line(ar_fits):
    # the analytic coordinates blow up on x1 = x2, which crosses this box;
    # the fit still meets node-mean targets by dodging the line, but the
    # residual refuses to shrink under grid refinement
    r = ar_fits(BOX_SING)
    assert r.elevated_residual
    assert r.refinement_gain < r.gain_tol
    assert r.iterations_run == 5000
    assert "elevated residual" in r.message


def test_a_small_budget_still_tells_the_patches_apart():
    # the final level of the regular patch reaches the mesh-width gain well
    # inside 1500 iterations; the singular patch spends them without it
    cfg = FitConfig(iterations=1500, seed=1)
    reg = fit(AR, BOX_REG, (64, 64), cfg)
    sing = fit(AR, BOX_SING, (64, 64), cfg)
    assert not reg.elevated_residual and reg.message == GAIN_MET
    assert sing.elevated_residual and sing.refinement_gain < sing.gain_tol


def test_the_final_level_sweeps_at_every_progress_window(ar_fits):
    # the final level has a gain target, so each window end runs a sweep
    r = ar_fits(BOX_REG)
    assert r.level_stats[-1].sweeps >= r.level_iterations[-1] // _CHECK_EVERY


def test_the_final_level_reaches_its_gain_within_five_windows(ar_fits):
    # its smoothing anneals over the first five windows, not over a budget
    # it stops long before spending
    r = ar_fits(BOX_REG)
    assert r.message == GAIN_MET
    assert r.level_iterations[-1] <= 5 * _CHECK_EVERY


def _smoothing_schedule(monkeypatch, iters, enough):
    """Passes of every _smoothed call one _descend makes on a 17x17 grid."""
    calls = []

    def spy(arr, passes):
        calls.append(passes)
        return _smoothed(arr, passes)

    monkeypatch.setattr(varfit, "_smoothed", spy)
    objective = _Objective(AR, BOX_REG, (17, 17))
    start = varfit._affine_init(BOX_REG, (17, 17), objective.p_vals, 0)
    *_, steps, message = varfit._descend(objective, start, iters, enough=enough)
    assert steps == iters, message
    return calls


@pytest.mark.parametrize("iters", [700, 1200])
def test_a_level_with_a_gain_target_anneals_over_five_windows(monkeypatch, iters):
    # 8, 4, 2 and 1 passes in windows 1-4, none from window 5 on, whatever
    # the budget; enough is too small to stop the level
    calls = _smoothing_schedule(monkeypatch, iters, enough=1e-300)
    assert calls == [p for p in (8, 4, 2, 1) for _ in range(_CHECK_EVERY)]


def test_a_level_without_a_gain_target_anneals_over_its_budget(monkeypatch):
    calls = _smoothing_schedule(monkeypatch, 1000, enough=0.0)
    assert calls == [p for p in (8, 4, 2, 1) for _ in range(1000 // 5)]


def test_a_ladder_under_three_levels_gives_no_verdict(reg_fit_small):
    # 9 -> 12 starts the final level from a level fitted from the random
    # affine guess: the singular patch reaches the gain, and is not judged
    r = fit(AR, BOX_SING, (12, 12), FitConfig(iterations=300, seed=0))
    assert len(r.level_totals) == 2
    assert r.elevated_residual is None
    assert r.refinement_gain is not None and r.gain_tol == pytest.approx(11.0 / 8.0)
    assert "refinement gain not judged on a 2-level ladder" in r.message
    # 9 -> 17 -> 32 gives one
    assert len(reg_fit_small.level_totals) == 3
    assert reg_fit_small.elevated_residual is False


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 18, 289, 4096, 4097])
def test_median_is_numpys_bit_for_bit(n, rng):
    # odd and even counts, magnitudes 1e-300 to 1e300, a stack of rows
    for _ in range(20):
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        assert np.float64(_median(a)).tobytes() == np.median(a).tobytes()
        rows = a.reshape(-1, 2 - n % 2)
        assert np.float64(_median(rows)).tobytes() == np.median(rows).tobytes()
    zeros = -np.zeros(n)  # np.median sums from +0.0: a median of -0.0 reads 0.0
    assert np.float64(_median(zeros)).tobytes() == np.median(zeros).tobytes()
    a[rng.integers(n)] = np.nan
    assert np.isnan(_median(a)) and np.isnan(np.median(a))


def test_a_fit_does_not_import_numpy_ma():
    # np.median's first call imports numpy.ma, which no varfit run needs
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import numpy as np\n"
        "from flowbox.dynsys import builtin\n"
        "from flowbox.varfit import FitConfig, fit\n"
        "fit(builtin('linear-ar'), np.array([[4.0, 6.0], [1.0, 3.0]]), (9, 9),"
        " FitConfig(iterations=20))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_non_finite_loss_raises():
    field = parse_system("exp(x1), 0", dim=2, domain=[(-2000.0, 2000.0), (-5.0, 5.0)])
    box = np.array([[700.0, 1000.0], [0.0, 1.0]])
    with pytest.raises(FloatingPointError):
        fit(field, box, (9, 9), FitConfig(iterations=5))


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n1=st.integers(min_value=9, max_value=14),
    n2=st.integers(min_value=9, max_value=14),
)
def test_fit_history_never_increases(seed, n1, n2):
    r = fit(AR, BOX_REG, (n1, n2), FitConfig(iterations=40, seed=seed))
    assert np.all(np.diff(r.history) <= 0.0)
    assert r.history[-1] == r.total


# ---------------------------------------------------------------------------
# Flowbox rotation


def test_rotate_to_flowbox_on_identity_coordinates():
    # y_i = x_i under P = (1,1,1): recombined coordinates give two conserved
    # quantities and one clock
    field = drift("1, 1, 1", dim=3)
    box = np.array([[0.0, 1.0]] * 3)
    mesh = mesh_grid(box, (5, 5, 5))
    z = rotate_to_flowbox(GridField(box=box, values=mesh))
    np.testing.assert_allclose(z.values[0], (mesh[0] - mesh[2]) / 2.0, atol=1e-14)
    np.testing.assert_allclose(z.values[1], (mesh[1] - mesh[2]) / 2.0, atol=1e-14)
    np.testing.assert_allclose(z.values[2], np.mean(mesh, axis=0), atol=1e-14)
    a = loss(z, field)[0]
    # z1, z2 are conserved (rate 0), z3 advances at rate 1: A = 2 * volume
    assert a == pytest.approx(2.0, rel=1e-12)


def test_rotate_to_flowbox_one_dimensional_passthrough():
    g = GridField(box=np.array([[0.0, 1.0]]), values=np.linspace(0, 1, 9)[None, :])
    assert rotate_to_flowbox(g) is g


def test_rotated_fit_advances_only_the_last_coordinate():
    r = fit(AR, BOX_REG, (32, 32), FitConfig(iterations=1500, seed=0))
    z = rotate_to_flowbox(r.grid)
    gz = loss(z, AR)[0]
    # z1 conserved, z2 at unit rate: defect integral close to volume * 1
    assert gz == pytest.approx(4.0, rel=0.05)


# ---------------------------------------------------------------------------
# Persistence


def test_save_and_load_round_trip(tmp_path, rng):
    box = np.array([[0.0, 1.0], [2.0, 3.5]])
    values = rng.standard_normal((2, 5, 7))
    values[0, 0, :3] = (0.0, -0.0, np.nan)
    g = GridField(box=box, values=values)
    path = tmp_path / "grid.csv"
    save_grid(g, path, sidecar={"system": "linear-ar", "note": 3})
    back = load_grid(path)
    assert np.array_equal(back.values, g.values, equal_nan=True)
    assert np.array_equal(back.box, g.box)
    # one row per node in C order, every cell written as format(v, ".17g")
    axes = grid_axes(box, (5, 7))
    expected = ["x1,x2,y1,y2"] + [
        ",".join(format(float(v), ".17g")
                 for v in (axes[0][k], axes[1][l], *values[:, k, l]))
        for k, l in np.ndindex(5, 7)]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
    meta = json.loads((tmp_path / "grid.csv.json").read_text())
    assert meta["system"] == "linear-ar"
    assert meta["shape"] == [5, 7]


def test_saved_csv_layout(tmp_path):
    box = np.array([[0.0, 1.0], [0.0, 1.0]])
    g = GridField(box=box, values=mesh_grid(box, (3, 3)))
    path = tmp_path / "grid.csv"
    save_grid(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,y1,y2"
    assert len(lines) == 1 + 9
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.0]
