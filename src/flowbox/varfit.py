"""Variational construction of unit-velocity coordinates on a grid.

Instead of tracing characteristics, minimize over N grid-sampled functions
y_1..y_N the functional

    A = integral of sum_i (<grad y_i, P> - 1)^2
    B = integral of sum_{i<j} <grad y_i, grad y_j>^2

A drives every coordinate to advance at unit rate along the flow, B keeps the
gradients mutually orthogonal so the map stays invertible.  The minimizer is a
rotated flowbox; a fixed linear recombination turns it into flowbox form.

Derivatives are per-axis matrices of second-order finite differences (central
inside, one-sided at the boundary); the loss gradient applies their exact
transposes, so descent behaves like plain calculus on the discrete objective.
fit() descends a coarse-to-fine ladder of grids, annealing a smoothing filter
on the gradient and jumping loss valleys with exact recombination moves, which
is what it takes to land in the flowbox basin from a random affine start.

The loss is a polynomial of the derivative stack G[i, a] = dy_i/dx_a, which is
linear in y: along a one-coordinate move it is an exact quadratic.  fit()
scores a step's first (momentum) trial from its own derivatives and each
halving after it from G - s * grad(direction), without a derivative
product.  A recombination move scores only the vertex of its quadratic.
Every accepted iterate is compared on a total summed from its materialized
terms.  FitStats.loss_evals counts those sums and backtracks every rejected
descent trial.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .dynsys import VectorField

__all__ = [
    "GridField",
    "FitConfig",
    "FitResult",
    "grid_axes",
    "diff_axis",
    "diff_axis_T",
    "trapezoid_weights",
    "loss",
    "loss_gradient",
    "fit",
    "rotate_to_flowbox",
    "save_grid",
    "load_grid",
]


def grid_axes(box: np.ndarray, shape: Sequence[int]) -> list:
    box = np.asarray(box, dtype=float)
    return [np.linspace(box[a, 0], box[a, 1], int(shape[a])) for a in range(len(shape))]


def _spacings(box: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Node spacing along each axis."""
    return (box[:, 1] - box[:, 0]) / (np.asarray(shape) - 1)


def _check_grid(box: np.ndarray, shape: Sequence[int]) -> None:
    """Refuse a box (N, 2) without lo < hi on every axis, or a grid with
    fewer than 3 nodes on an axis."""
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must have lo < hi on every axis")
    if any(s < 3 for s in shape):
        raise ValueError("need at least 3 nodes per axis")


@dataclasses.dataclass(frozen=True, eq=False)
class GridField:
    """N coordinate functions sampled on a regular grid over a box.

    values[i] holds y_i on the grid; values has shape (N, *shape).
    """

    box: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        box = np.asarray(self.box, dtype=float)
        values = np.asarray(self.values, dtype=float)
        n = box.shape[0]
        if box.shape != (n, 2):
            raise ValueError("box must have shape (N, 2)")
        if values.ndim != n + 1 or values.shape[0] != n:
            raise ValueError(
                f"values must have shape (N, *grid shape), got {values.shape}"
            )
        _check_grid(box, values.shape[1:])
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def shape(self) -> tuple:
        return self.values.shape[1:]

    @property
    def axes(self) -> list:
        return grid_axes(self.box, self.shape)

    @property
    def spacings(self) -> np.ndarray:
        return _spacings(self.box, self.shape)

    def mesh(self) -> np.ndarray:
        """Node coordinates, shape (N, *shape)."""
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=0)


@dataclasses.dataclass(frozen=True)
class FitConfig:
    """Knobs for fit().

    iterations is the total step budget; with a random-affine start it is
    split across the coarse-to-fine ladder (coarser levels get geometrically
    smaller shares, the requested grid gets the rest).  target > 0 stops the
    final level early once both node-mean defects drop below it; the default
    0 runs the full budget.  init is either "random-affine" or a GridField
    on the same box/shape, which is polished in place without the ladder.
    """

    step_size: float = 1.0
    momentum: float = 0.9
    iterations: int = 5000
    weight_a: float = 1.0
    weight_b: float = 1.0
    seed: int = 0
    target: float = 0.0
    init: Union[str, GridField] = "random-affine"

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be positive and finite: {self.step_size}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1): {self.momentum}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1: {self.iterations}")
        for name in ("weight_a", "weight_b", "target"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0: {value}")
        if isinstance(self.init, str) and self.init != "random-affine":
            raise ValueError("init must be 'random-affine' or a GridField")


# ---------------------------------------------------------------------------
# Per-axis operators: read-only matrices cached per axis length, applied by _along


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


def _along(mat: np.ndarray, u: np.ndarray, axis: int, mat_t=None) -> np.ndarray:
    """The (m, n) matrix `mat` applied along `axis` of u, whose length there is
    n, one grid slab per BLAS product: at 64x64 those stay single-threaded.
    `mat_t`, when given, is a contiguous copy of mat.T for the last axis."""
    u = np.asarray(u, dtype=float)
    pre, post = u.shape[:axis % u.ndim], u.shape[axis % u.ndim + 1:]
    if post:
        out = mat @ u.reshape(math.prod(pre), mat.shape[1], -1)
    else:
        out = u.reshape(math.prod(pre[:-1]), -1, mat.shape[1]) @ (
            mat.T if mat_t is None else mat_t)
    return out.reshape(pre + (mat.shape[0],) + post)


@functools.lru_cache(maxsize=64)
def _diff_matrices(n: int) -> tuple:
    """(2h D_n, its transpose), both contiguous, in integers so constants
    differentiate to exactly 0 before 1/(2h)."""
    d = np.eye(n, k=1) - np.eye(n, k=-1)
    d[0, :3] = (-3.0, 4.0, -1.0)
    d[-1, -3:] = (1.0, -4.0, 3.0)
    return _frozen(d), _frozen(np.ascontiguousarray(d.T))


@functools.lru_cache(maxsize=64)
def _smoother(n: int, passes: int) -> np.ndarray:
    """S_n^passes, S_n being (1/4, 1/2, 1/4) averaging with (3/4, 1/4) ends."""
    s = 0.5 * np.eye(n) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
    s[0, 0] = s[-1, -1] = 0.75
    return _frozen(np.linalg.matrix_power(s, passes))


@functools.lru_cache(maxsize=64)
def _lerp_matrix(n_from: int, n_to: int) -> np.ndarray:
    """Linear interpolation from n_from to n_to evenly spaced nodes on one span."""
    pos, nodes = np.linspace(0.0, n_from - 1.0, n_to), np.arange(n_from)
    return _frozen(np.stack([np.interp(pos, nodes, e) for e in np.eye(n_from)], axis=1))


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """Index arrays (i, j) of the coordinate pairs i < j, in np.triu_indices order."""
    return tuple(_frozen(k) for k in np.triu_indices(n, 1))


def diff_axis(u: np.ndarray, h: float, axis: int) -> np.ndarray:
    """d/dx along one axis: central interior, one-sided second order at edges."""
    d, d_t = _diff_matrices(np.shape(u)[axis])
    return _along(d, u, axis, d_t) * (1.0 / (2.0 * h))


def diff_axis_T(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Transpose of diff_axis: the same matrix transposed, so the exact adjoint."""
    d, d_t = _diff_matrices(np.shape(v)[axis])
    return _along(d_t, v, axis, d) * (1.0 / (2.0 * h))


def trapezoid_weights(box: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Node quadrature weights; sums exactly to the box volume."""
    box = np.asarray(box, dtype=float)
    w = np.ones(())
    for n, h in zip(shape, _spacings(box, shape)):
        wa = np.full(n, h)
        wa[0] = wa[-1] = h / 2.0
        w = np.multiply.outer(w, wa)
    return w


# ---------------------------------------------------------------------------
# Loss and its exact gradient


def _field_on_grid(field: VectorField, grid_box, shape) -> np.ndarray:
    box = np.asarray(grid_box, dtype=float)
    if not (field.contains(box[:, 0]) and field.contains(box[:, 1])):
        raise ValueError(
            f"grid box {box.tolist()} is not inside the domain of {field.name}"
        )
    mesh = np.stack(np.meshgrid(*grid_axes(box, shape), indexing="ij"), axis=0)
    return field.eval_grid(mesh)


def _raise_non_finite(arrays, box, shape, what):
    for arr in arrays:
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            idx = tuple(int(k) for k in bad[0])
            axes = grid_axes(box, shape)
            # arr leads with the coordinate index for gradient-like arrays
            node = idx[-len(shape):]
            coords = [float(axes[a][node[a]]) for a in range(len(shape))]
            raise FloatingPointError(
                f"non-finite {what} at node {node} (x = {coords})"
            )


def _dot(x, y):
    """sum of x * y over every element, in numpy's own loops: a BLAS dot sums
    in an order that depends on its thread count."""
    return float(np.einsum("n,n->", x.ravel(), y.ravel()))


def _pair_products(F, H):
    """sum over a of F[i, a] * H[j, a] for every pair i < j, triu order."""
    iu, ju = _pairs(len(F))
    return np.einsum("ka...,ka...->k...", F[iu], H[ju])


class _Terms(NamedTuple):
    """One scored iterate."""

    G: np.ndarray    # G[i, a] = dy_i/dx_a
    U: np.ndarray    # U[i] = <grad y_i, P> - 1
    S: np.ndarray    # S[k] = <grad y_i, grad y_j> for the k-th pair i < j
    wU: np.ndarray   # U and S times the node quadrature weights
    wS: np.ndarray
    A: float         # sum of w U^2
    B: float         # sum of w S^2


class _Objective:
    """The discretized functional on one grid as a polynomial of the
    derivative stack G: U is affine in G, S bilinear, and the total
    w_a A + w_b B a weighted sum of their squares.  score() counts every
    total it sums from materialized _Terms in stats.loss_evals.
    """

    def __init__(self, field, box, shape, weight_a, weight_b, stats=None):
        self.p_vals = _field_on_grid(field, box, shape)
        self.w = trapezoid_weights(box, shape)
        self.spacings = _spacings(box, shape)
        self.weight_a, self.weight_b = weight_a, weight_b
        self.p_a = (2.0 * weight_a) * self.p_vals  # the gradient's factor of w U
        self.stats = FitStats() if stats is None else stats

    def derivatives(self, values):
        """G[i, a] = dy_i/dx_a of a stack of grid functions y_i."""
        G = np.empty((len(values), len(self.spacings)) + values.shape[1:])
        for a, h in enumerate(self.spacings):
            G[:, a] = diff_axis(values, h, a + 1)
        return G

    def score(self, G):
        """(total, terms) of a derivative stack."""
        self.stats.loss_evals += 1
        U = np.einsum("ia...,a...->i...", G, self.p_vals)
        U -= 1.0
        S = _pair_products(G, G)
        wU, wS = self.w * U, self.w * S
        t = _Terms(G, U, S, wU, wS, _dot(wU, U), _dot(wS, S))
        return self.weight_a * t.A + self.weight_b * t.B, t

    def evaluate(self, values):
        """(total, terms) of grid values, shape (N, *shape)."""
        return self.score(self.derivatives(values))

    def gradient(self, t):
        """d(total)/d(values) at terms t, by the stencil adjoints."""
        n = len(t.U)
        # src[a, i] pairs with dy_i/dx_a: one contiguous (N, *shape) slab per axis
        src = self.p_a[:, None] * t.wU
        if self.weight_b != 0.0:
            # pairs in triu order hand every row its j terms in ascending j
            for i, j, s_ij in zip(*_pairs(n), (2.0 * self.weight_b) * t.wS):
                src[:, i] += s_ij * t.G[j]
                src[:, j] += s_ij * t.G[i]
        out = diff_axis_T(src[0], self.spacings[0], 1)
        for a in range(1, n):
            out += diff_axis_T(src[a], self.spacings[a], a + 1)
        return out

    def step_poly(self, t, dG):
        """(b, a) with total(G + s dG) - total(G) = b s + a s^2, for a dG with
        one nonzero row: U moves by s dU and S by s dS, since no pair has
        both rows moving."""
        dU = np.einsum("ia...,a...->i...", dG, self.p_vals)
        dS = _pair_products(t.G, dG) + _pair_products(dG, t.G)
        wa, wb, w = self.weight_a, self.weight_b, self.w
        return (2.0 * (wa * _dot(t.wU, dU) + wb * _dot(t.wS, dS)),
                wa * _dot(w * dU, dU) + wb * _dot(w * dS, dS))


def loss(grid: GridField, field: VectorField, weight_a: float = 1.0,
         weight_b: float = 1.0) -> tuple:
    """(A, B, total) of the discretized functional over the grid box."""
    objective = _Objective(field, grid.box, grid.shape, weight_a, weight_b)
    total, t = objective.evaluate(grid.values)
    if not np.isfinite(total):
        _raise_non_finite([grid.values, t.U, t.S], grid.box, grid.shape, "loss term")
    return t.A, t.B, total


def loss_gradient(grid: GridField, field: VectorField, weight_a: float = 1.0,
                  weight_b: float = 1.0) -> np.ndarray:
    """d(total)/d(values): exact adjoint of the stencil expressions."""
    objective = _Objective(field, grid.box, grid.shape, weight_a, weight_b)
    grad = objective.gradient(objective.evaluate(grid.values)[1])
    if not np.all(np.isfinite(grad)):
        # dense rows smear a bad input along its grid line: name the input first
        _raise_non_finite([grid.values, grad], grid.box, grid.shape, "loss gradient")
    return grad


# ---------------------------------------------------------------------------
# Fitting

# Node-mean defect level at which a fit counts as converged.
_NODE_TOL = 1e-2
# Coarsest grid the continuation ladder will drop to, nodes per axis.
_MIN_COARSE = 9
# A refinement step that shrinks the total by less than this factor, while
# the residual itself stays above the floor, marks an obstruction: the
# defect is a feature of the problem, not of the grid resolution.
_GAIN_TOL = 12.0
_RESIDUAL_FLOOR = 1e-10  # per unit volume
# Step halvings tried before a descent step counts as failed.
_MAX_BACKTRACKS = 30
# Iterations per progress window; a window that gains under 1% triggers a
# recombination sweep.
_CHECK_EVERY = 100
# Passes a recombination sweep makes at most over all coordinate pairs.
_MAX_SWEEP_ROUNDS = 40


@dataclasses.dataclass
class FitStats:
    """Work counters of fit(), summed over the ladder levels."""

    loss_evals: int = 0   # totals summed from materialized terms (scored trials)
    gradients: int = 0    # loss gradients
    backtracks: int = 0   # rejected descent trials
    sweeps: int = 0       # recombination sweeps
    line_moves: int = 0   # accepted recombination line moves


@dataclasses.dataclass(frozen=True, eq=False)
class FitResult:
    grid: GridField
    history: np.ndarray          # total loss after each step on the final grid
    loss_a: float
    loss_b: float
    total: float
    converged: bool              # node-mean defects at or below tolerance
    stalled: bool                # final level ran out of descent directions
    iterations_run: int          # steps executed, summed over ladder levels
    node_mean_a: np.ndarray      # mean (<grad y_i, P> - 1)^2 per coordinate
    node_mean_b: float           # mean over pairs of <grad y_i, grad y_j>^2
    unit_mean: np.ndarray        # mean <grad y_i, P> per coordinate
    residual_concentration: float  # max node residual / median node residual
    level_totals: tuple          # endpoint loss of each ladder level run
    refinement_gain: Optional[float]  # level_totals[-2] / level_totals[-1]
    elevated_residual: bool      # refinement failed to shrink the residual
    message: str
    stats: FitStats


def _node_diagnostics(terms, weight_a, weight_b):
    U, S = terms.U, terms.S
    node_mean_a = np.array([float(np.mean(x * x)) for x in U])
    node_mean_b = float(np.mean([np.mean(x * x) for x in S])) if len(S) else 0.0
    unit_mean = np.array([float(np.mean(x)) + 1.0 for x in U])
    per_node = weight_a * sum(x * x for x in U)
    if len(S):
        per_node = per_node + weight_b * sum(x * x for x in S)
    med = float(np.median(per_node))
    concentration = float(np.max(per_node) / max(med, 1e-300))
    return node_mean_a, node_mean_b, unit_mean, concentration


def _affine_init(box, shape, p_vals, seed):
    n = box.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mesh = np.stack(np.meshgrid(*grid_axes(box, shape), indexing="ij"), axis=0)
    values = np.empty((n,) + tuple(shape))
    for i in range(n):
        w_i = q[:, i]
        rate = sum(w_i[a] * p_vals[a] for a in range(n))
        med = float(np.median(rate))
        if abs(med) > 1e-9:
            w_i = w_i / med
        values[i] = sum(w_i[a] * mesh[a] for a in range(n))
    return values


def _pin_corner(values):
    """Shift every coordinate to 0 at the first node: a unique minimizer."""
    corner = (slice(None),) + (0,) * (values.ndim - 1)
    return values - values[corner].reshape((-1,) + (1,) * (values.ndim - 1))


def _coarse_ladder(shape):
    """Grid shapes from coarsest to finest, roughly halving each axis."""
    levels = [tuple(shape)]
    while True:
        cur = levels[0]
        nxt = tuple(min(n, max(_MIN_COARSE, n // 2 + 1)) for n in cur)
        if nxt == cur:
            break
        levels.insert(0, nxt)
    return levels


def _budget_split(iterations, n_levels):
    # halve the share per level going coarser; the final grid gets the rest
    out = [iterations >> (n_levels - l) for l in range(n_levels - 1)]
    out.append(iterations - sum(out))
    return out


def _prolong(values, shape_from, shape_to):
    """Linear interpolation of grid values onto a finer node set, per axis."""
    for ax, (n_from, n_to) in enumerate(zip(shape_from, shape_to)):
        values = _along(_lerp_matrix(n_from, n_to), values, ax + 1)
    return values


def _smoothed(arr, passes):
    """`passes` rounds of per-axis (1/4, 1/2, 1/4) averaging as one product with
    S^passes per axis; S is symmetric positive definite."""
    out = arr
    for ax in range(1, arr.ndim):
        out = _along(_smoother(arr.shape[ax], passes), out, ax)
    return out


def _smoothing_passes(it, iters):
    # anneal: heavy smoothing early kills high-frequency junk, none late
    f = (it + 1) / max(iters, 1)
    if f <= 0.2:
        return 8
    if f <= 0.4:
        return 4
    if f <= 0.6:
        return 2
    if f <= 0.8:
        return 1
    return 0


def _pair_alignment(G):
    """Worst mean interior cos^2 between gradient fields of two coordinates."""
    n = G.shape[0]
    inner = (slice(None),) + (slice(1, -1),) * n
    worst = 0.0
    for i, j in zip(*_pairs(n)):
        gi, gj = G[i][inner], G[j][inner]
        num = np.sum(gi * gj, axis=0) ** 2
        den = np.sum(gi ** 2, axis=0) * np.sum(gj ** 2, axis=0)
        worst = max(worst, float(np.mean(num / np.maximum(den, 1e-300))))
    return worst


def _shifted_cheb(u, k):
    # T_k on [0, 1], k = 2..4; T_1 is affine in w, so its line is w's
    s = 2.0 * u - 1.0
    s2 = s * s
    if k == 2:
        return 2.0 * s2 - 1.0
    if k == 3:
        return (4.0 * s2 - 3.0) * s
    return (8.0 * s2 - 8.0) * s2 + 1.0


def _line_move(objective, values, total, terms, i, basis):
    """Exact minimizer of the loss along values[i] + c * basis, if it helps.

    Moving one coordinate moves only G[i], by c * grad(basis), so the loss is
    exactly quadratic in c: step_poly gives it, and its vertex is the minimum
    along the line.  Only the vertex is scored, from G with that row moved.
    The jump is taken only when it strictly decreases the loss and leaves the
    gradient fields of distinct coordinates well separated.  Returns
    (values, total, terms) of the jump, or None.
    """
    dG = np.zeros_like(terms.G)
    dG[i] = objective.derivatives(basis[None])[0]
    b, a = objective.step_poly(terms, dG)
    if a <= 1e-300:
        return None
    c = -b / (2.0 * a)
    if not np.isfinite(c) or abs(c) > 1e3:
        return None
    tc, cand_terms = objective.score(terms.G + c * dG)
    if np.isfinite(tc) and tc < total and _pair_alignment(cand_terms.G) < 0.8:
        cand = values.copy()
        cand[i] = cand[i] + c * basis
        return _pin_corner(cand), tc, cand_terms
    return None


def _recombine_sweep(objective, values, total, terms):
    """Trade content between coordinates along directions descent cannot see.

    Any function of w = y_i - y_j with zero unit-rate defect leaves A alone,
    so plain descent drifts along these valleys instead of crossing them.
    Sweeping exact line moves over w itself and low-order Chebyshev shapes
    of it jumps across, repeating until a full pass finds nothing.  Returns
    the best (values, total, terms) found.
    """
    stats = objective.stats
    stats.sweeps += 1
    for _ in range(_MAX_SWEEP_ROUNDS):
        improved = False
        for i, j in itertools.permutations(range(len(values)), 2):
            w = values[i] - values[j]
            lo, hi = float(np.min(w)), float(np.max(w))
            bases = [w]
            if hi - lo > 1e-12:
                u = (w - lo) / (hi - lo)
                bases += [_shifted_cheb(u, k) for k in range(2, 5)]
            for basis in bases:
                got = _line_move(objective, values, total, terms, i, basis)
                if got is not None:
                    values, total, terms = got
                    stats.line_moves += 1
                    improved = True
        if not improved:
            break
    return values, total, terms


def _descend(field, values, box, shape, iters, cfg, stats, record=None,
             target=0.0):
    """Smoothed-gradient descent with recombination sweeps on one grid.

    Returns (values, total, terms, steps_run, stalled, met_target).  Every
    accepted step strictly decreases the loss; when backtracking fails, or
    progress over a window slows to a crawl, a recombination sweep tries to
    jump the iterate across a loss valley before giving up.  The backtracks
    after a rejected momentum trial lie on values - s * direction, so each
    is scored from G - s * grad(direction) (see the module notes).
    """
    objective = _Objective(field, box, shape, cfg.weight_a, cfg.weight_b, stats)
    values = _pin_corner(values)
    total, terms = objective.evaluate(values)
    if not np.isfinite(total):
        raise FloatingPointError("loss is non-finite at the initial iterate")
    step = cfg.step_size
    velocity = np.zeros_like(values)
    window_last = total
    stalled = False
    met_target = False
    it = 0
    while it < iters:
        stats.gradients += 1
        grad = objective.gradient(terms)
        # non-finite when grad is (or when the sum merely overflows); only its
        # finiteness and zero are read, which no summation order changes
        norm2 = np.vdot(grad, grad)
        if not np.isfinite(norm2):
            _raise_non_finite([grad], box, shape, "loss gradient")
        if norm2 == 0.0:
            break
        passes = _smoothing_passes(it, iters)
        direction = _smoothed(grad, passes) if passes else grad

        accepted = False
        trial_step = step
        dG = None
        for attempt in range(_MAX_BACKTRACKS + 1):
            if attempt == 0:
                trial = _pin_corner(values - trial_step * direction
                                    + cfg.momentum * velocity)
                trial_total, trial_terms = objective.evaluate(trial)
            else:
                if dG is None:
                    dG = objective.derivatives(direction)
                trial = _pin_corner(values - trial_step * direction)
                trial_total, trial_terms = objective.score(terms.G - trial_step * dG)
            if np.isfinite(trial_total) and trial_total < total:
                velocity = trial - values
                values, total, terms = trial, trial_total, trial_terms
                # gentle growth lets the step ride up to the curvature limit
                step = trial_step * 1.3
                accepted = True
                break
            stats.backtracks += 1
            trial_step *= 0.5
        if not accepted:
            velocity = np.zeros_like(values)
        it += 1
        if record is not None:
            record.append(total)

        slow = it % _CHECK_EVERY == 0 and total > 0.99 * window_last
        if it % _CHECK_EVERY == 0:
            window_last = total
        if not accepted or slow:
            v2, t2, terms2 = _recombine_sweep(objective, values, total, terms)
            if t2 < total:
                values, total, terms = v2, t2, terms2
                velocity = np.zeros_like(values)
                step = cfg.step_size
                if record is not None and record:
                    record[-1] = total
            elif not accepted:
                stalled = True
                break
        if target > 0.0:
            node_a, node_b, _, _ = _node_diagnostics(terms, cfg.weight_a,
                                                     cfg.weight_b)
            if float(np.max(node_a)) <= target and node_b <= target:
                met_target = True
                break
    return values, total, terms, it, stalled, met_target


def fit(field: VectorField, box, shape, cfg: Optional[FitConfig] = None) -> FitResult:
    """Minimize the functional by coarse-to-fine continuation.

    A random-affine start is placed on a coarsened copy of the grid and the
    iterate is descended and prolonged level by level up to the requested
    shape, so large-scale structure settles before fine-scale detail exists
    to fight it.  Each level runs smoothed-gradient descent with momentum
    (smoothing annealed away as the level's budget is spent) plus
    recombination sweeps when progress stalls.  A supplied init grid skips
    the ladder and is polished in place.

    Deterministic for a fixed cfg: initialization comes from the seeded PRNG
    and every accepted step strictly decreases the loss, so history is
    non-increasing.  history covers only the requested grid, one entry per
    step; coarser continuation levels report through level_totals.  When the
    ladder reaches the final grid and the loss barely improves on the level
    before it, while sitting well above round-off, the defect does not
    behave like discretization error and the result is flagged
    elevated_residual: with an adequate budget that marks an obstruction in
    the problem itself, such as coordinates that blow up inside the box.
    """
    cfg = cfg or FitConfig()
    box = np.asarray(box, dtype=float)
    shape = tuple(int(s) for s in shape)
    field_dim = field.dim
    if box.shape != (field_dim, 2):
        raise ValueError(f"box must have shape ({field_dim}, 2)")
    if len(shape) != field_dim:
        raise ValueError(f"shape must list {field_dim} axis sizes")
    _check_grid(box, shape)

    if isinstance(cfg.init, GridField):
        if cfg.init.shape != shape or not np.allclose(cfg.init.box, box):
            raise ValueError("supplied init grid does not match box/shape")
        values = cfg.init.values.copy()
        ladder = [shape]
    else:
        ladder = _coarse_ladder(shape)
        p_coarse = _field_on_grid(field, box, ladder[0])
        values = _affine_init(box, ladder[0], p_coarse, cfg.seed)
    budgets = _budget_split(cfg.iterations, len(ladder))

    history: list = []
    level_totals = []
    stats = FitStats()
    iterations_run = 0
    stalled = False
    met_target = False
    budget_left = False
    for li, level_shape in enumerate(ladder):
        final = li == len(ladder) - 1
        if li > 0:
            values = _prolong(values, ladder[li - 1], level_shape)
        if budgets[li] <= 0 and not final:
            continue
        values, total, terms, steps, level_stalled, met = _descend(
            field, values, box, level_shape, budgets[li], cfg, stats,
            record=history if final else None,
            target=cfg.target if final else 0.0,
        )
        level_totals.append(total)
        iterations_run += steps
        if final:
            stalled = level_stalled
            met_target = met
            budget_left = steps < budgets[li]

    a_term, b_term = terms.A, terms.B
    node_a, node_b, unit_mean, concentration = _node_diagnostics(
        terms, cfg.weight_a, cfg.weight_b
    )

    converged = (
        met_target
        or (float(np.max(node_a)) <= _NODE_TOL and node_b <= _NODE_TOL)
    )
    if met_target:
        message = "node-mean targets met"
    elif stalled:
        message = "no descent step found; stopped at the best iterate"
    elif budget_left:
        message = "gradient vanished"
    else:
        message = "iteration budget exhausted"

    refinement_gain = None
    elevated = False
    if len(level_totals) >= 2:
        refinement_gain = float(level_totals[-2] / max(level_totals[-1], 1e-300))
        volume = float(np.prod(box[:, 1] - box[:, 0]))
        # an early target stop leaves the final total unconverged, which
        # would fake a weak gain; only a fully spent level is evidence
        elevated = (
            not met_target
            and refinement_gain < _GAIN_TOL
            and level_totals[-1] > _RESIDUAL_FLOOR * volume
        )
    if elevated:
        message += (
            f"; elevated residual: refinement gain {refinement_gain:.2g}, the "
            "defect survives grid refinement (obstruction on the patch, or "
            "budget too small to resolve it)"
        )

    return FitResult(
        grid=GridField(box=box, values=values),
        history=np.asarray(history),
        loss_a=a_term,
        loss_b=b_term,
        total=float(cfg.weight_a * a_term + cfg.weight_b * b_term),
        converged=converged,
        stalled=stalled,
        iterations_run=iterations_run,
        node_mean_a=node_a,
        node_mean_b=node_b,
        unit_mean=unit_mean,
        residual_concentration=concentration,
        level_totals=tuple(level_totals),
        refinement_gain=refinement_gain,
        elevated_residual=elevated,
        message=message,
        stats=stats,
    )


def rotate_to_flowbox(grid: GridField) -> GridField:
    """Fixed recombination of unit-velocity coordinates into flowbox form.

    z_i = (y_i - y_N) / 2 for i < N (zero row sum: conserved), and
    z_N = mean(y) (unit row sum: advances at unit rate).  For N = 1 the grid
    is already a flowbox and passes through unchanged.
    """
    n = grid.dim
    if n == 1:
        return grid
    values = grid.values
    out = np.empty_like(values)
    for i in range(n - 1):
        out[i] = (values[i] - values[n - 1]) / 2.0
    out[n - 1] = np.mean(values, axis=0)
    return GridField(box=grid.box, values=out)


# ---------------------------------------------------------------------------
# Persistence


def save_grid(grid: GridField, csv_path, sidecar: Optional[dict] = None,
              json_path=None) -> None:
    """CSV of node coordinates and values, plus a JSON sidecar with box/shape."""
    n = grid.dim
    mesh = grid.mesh()
    header = ",".join([f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)])
    cols = [mesh[a].ravel() for a in range(n)] + [grid.values[i].ravel() for i in range(n)]
    with open(csv_path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    meta = {
        "box": grid.box.tolist(),
        "shape": list(grid.shape),
    }
    if sidecar:
        meta.update(sidecar)
    if json_path is None:
        json_path = str(csv_path) + ".json"
    with open(json_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_grid(csv_path, json_path=None) -> GridField:
    if json_path is None:
        json_path = str(csv_path) + ".json"
    with open(json_path) as fh:
        meta = json.load(fh)
    box = np.asarray(meta["box"], dtype=float)
    shape = tuple(int(s) for s in meta["shape"])
    n = box.shape[0]
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    values = np.stack(
        [data[:, n + i].reshape(shape) for i in range(n)], axis=0
    )
    return GridField(box=box, values=values)
