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
Each coarser level ends with a recombination sweep and hands its iterate to
the next by cubic interpolation.  Every level from the third on (and the
final one) stops once refinement has paid off: once its total has fallen
below the previous level's by their mesh-width ratio, reached by the
recombination sweep it runs at every progress window; it anneals the
smoothing over its first five windows, the first two levels over their
budgets.  A judged level that spends its budget without that gain flags an
elevated residual.

The loss is a polynomial of the derivative stack G[i, a] = dy_i/dx_a, which is
linear in y: moving one coordinate along K bases, it is an exact quadratic in
their K coefficients, and a recombination move scores only its vertex.  Every
trial of a descent step lies on the ray y - s * direction, so fit() scores
each from G - s * grad(direction), one derivative product per step.
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
import time
from typing import NamedTuple, Optional, Sequence

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

    iterations is the total step budget, split across the coarse-to-fine
    ladder (coarser levels get geometrically smaller shares, the requested
    grid gets the rest): a cap, since every level from the third on stops
    once refinement has paid off (see fit).  seed seeds the affine start.
    target > 0 also stops the final level early, once both node-mean defects
    drop below it; the default 0 sets no target.
    """

    iterations: int = 5000
    seed: int = 0
    target: float = 0.0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1: {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0: {self.seed}")
        if not (math.isfinite(self.target) and self.target >= 0):
            raise ValueError(f"target must be finite and >= 0: {self.target}")


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
def _cubic_matrix(n_from: int, n_to: int) -> np.ndarray:
    """Cubic Lagrange interpolation from n_from to n_to evenly spaced nodes on
    one span: each fine node reads the four coarse nodes around it, or the
    first or last four at the ends, so cubics are reproduced exactly."""
    pos = np.linspace(0.0, n_from - 1.0, n_to)
    m = min(4, n_from)
    first = np.clip(np.floor(pos).astype(int) - 1, 0, n_from - m)
    rows = np.arange(n_to)
    mat = np.zeros((n_to, n_from))
    for k in range(m):
        weight = np.ones(n_to)
        for l in range(m):
            if l != k:
                weight *= (pos - (first + l)) / (k - l)
        mat[rows, first + k] = weight
    return _frozen(mat)


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
    rows = np.stack(np.meshgrid(*grid_axes(box, shape), indexing="ij"), axis=-1)
    return np.ascontiguousarray(np.moveaxis(field.eval(rows, check_domain=False), -1, 0))


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
    derivative stack G: U is affine in G, S bilinear, and the total A + B
    the sum of their weighted squares.  score() counts every total it sums
    from materialized _Terms in stats.loss_evals.
    """

    def __init__(self, field, box, shape, stats=None):
        self.box, self.shape = box, shape
        self.sweep_seconds = 0.0  # wall seconds inside _recombine_sweep
        self.p_vals = _field_on_grid(field, box, shape)
        self.w = trapezoid_weights(box, shape)
        self.spacings = _spacings(box, shape)
        self.two_p = 2.0 * self.p_vals  # the gradient's factor of w U
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
        iu, ju = _pairs(len(G))
        S = np.einsum("ka...,ka...->k...", G[iu], G[ju])
        wU, wS = self.w * U, self.w * S
        t = _Terms(G, U, S, wU, wS, _dot(wU, U), _dot(wS, S))
        return t.A + t.B, t

    def evaluate(self, values):
        """(total, terms) of grid values, shape (N, *shape)."""
        return self.score(self.derivatives(values))

    def gradient(self, t):
        """d(total)/d(values) at terms t, by the stencil adjoints."""
        n = len(t.U)
        # src[a, i] pairs with dy_i/dx_a: one contiguous (N, *shape) slab per axis
        src = self.two_p[:, None] * t.wU
        # pairs in triu order hand every row its j terms in ascending j
        for i, j, s_ij in zip(*_pairs(n), 2.0 * t.wS):
            src[:, i] += s_ij * t.G[j]
            src[:, j] += s_ij * t.G[i]
        out = diff_axis_T(src[0], self.spacings[0], 1)
        for a in range(1, n):
            out += diff_axis_T(src[a], self.spacings[a], a + 1)
        return out

    def move_poly(self, t, i, dG):
        """(b, A) with total(G + sum_k c_k dG[k]) - total(G) = b.c + c.A.c,
        for K moves dG[k] of row i alone, dG of shape (K, N, *shape): U_i
        moves by sum_k c_k dU_k and each pair holding i by sum_k c_k dS_k,
        since its other row stays.  A is the weighted Gram matrix of those
        moves; both sums run in einsum's own loops, in a fixed order."""
        iu, ju = _pairs(len(t.G))
        held = np.flatnonzero((iu == i) | (ju == i))
        other = np.where(iu[held] == i, ju[held], iu[held])
        D = np.concatenate([
            np.einsum("ka...,a...->k...", dG, self.p_vals)[:, None],
            np.einsum("ka...,ja...->kj...", dG, t.G[other])], axis=1)
        wD = (self.w * D).reshape(len(dG), -1)
        D = D.reshape(len(dG), -1)
        R = np.concatenate([t.wU[i][None], t.wS[held]]).ravel()
        return 2.0 * np.einsum("kn,n->k", D, R), np.einsum("kn,ln->kl", wD, D)


def loss(grid: GridField, field: VectorField) -> tuple:
    """(A, B, total = A + B) of the discretized functional over the grid box."""
    objective = _Objective(field, grid.box, grid.shape)
    total, t = objective.evaluate(grid.values)
    if not np.isfinite(total):
        _raise_non_finite([grid.values, t.U, t.S], grid.box, grid.shape, "loss term")
    return t.A, t.B, total


def loss_gradient(grid: GridField, field: VectorField) -> np.ndarray:
    """d(total)/d(values): exact adjoint of the stencil expressions."""
    objective = _Objective(field, grid.box, grid.shape)
    grad = objective.gradient(objective.evaluate(grid.values)[1])
    if not np.all(np.isfinite(grad)):
        # dense rows smear a bad input along its grid line: name the input first
        _raise_non_finite([grid.values, grad], grid.box, grid.shape, "loss gradient")
    return grad


# ---------------------------------------------------------------------------
# Fitting

# Node-mean defect level at which a fit counts as converged.
_NODE_TOL = 1e-2
# FitResult.message of a fit that stopped at FitConfig.target
TARGET_MET = "node-mean targets met"
# message of a level that stopped once its total fell below the level
# before it by the mesh-width ratio (see fit)
GAIN_MET = "refinement gain reached the mesh-width ratio"
# FitResult.message of a fit whose final level found no descent step
_STALLED = "no descent step found; stopped at the best iterate"
# Coarsest grid the continuation ladder will drop to, nodes per axis.
_MIN_COARSE = 9
# A judged level that ends above this floor without the refinement gain marks
# an obstruction: the defect is a feature of the problem, not of the grid.
_RESIDUAL_FLOOR = 1e-10  # per unit volume
# Step halvings tried before a descent step counts as failed.
_MAX_BACKTRACKS = 30
# Iterations per progress window.
_CHECK_EVERY = 100
# Share of the total that a progress window or a recombination round keeps
# when it gains under 1%: the window then triggers a recombination sweep on
# a level without a gain target, and the round ends the sweep.
_SLOW = 0.99
# Passes a recombination sweep makes at most over all coordinate pairs.
_MAX_SWEEP_ROUNDS = 40
# Descent step each level starts from, and after every accepted sweep.
_STEP_SIZE = 1.0


@dataclasses.dataclass
class FitStats:
    """Work counters of fit(), summed over the ladder levels."""

    loss_evals: int = 0   # totals summed from materialized terms (scored trials)
    gradients: int = 0    # loss gradients
    backtracks: int = 0   # rejected descent trials
    sweeps: int = 0       # recombination sweeps
    sweep_rounds: int = 0  # their rounds over all ordered coordinate pairs
    line_moves: int = 0   # accepted joint recombination moves


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
    level_seconds: tuple         # wall seconds of each, aligned with level_totals
    level_sweep_seconds: tuple   # of those, seconds in recombination sweeps
    level_iterations: tuple      # steps of each, aligned with level_totals
    level_stats: tuple           # FitStats of each, aligned with level_totals
    level_messages: tuple        # why each stopped, aligned with level_totals
    refinement_gain: Optional[float]  # level_totals[-2] / level_totals[-1]
    gain_tol: Optional[float]    # mesh-width ratio of the last two levels run
    # refinement failed to shrink the residual; None: under three levels ran
    elevated_residual: Optional[bool]
    message: str
    stats: FitStats              # level_stats summed


def _median(values) -> float:
    """np.median of all of values, bit for bit, without the numpy.ma import
    that np.median's first call makes: the middle value, or (a + b) / 2 of
    the two middle ones, and NaN when any value is NaN.  Like np.median's
    mean, the sum starts from +0.0, so a median of -0.0 reads 0.0."""
    a = np.ravel(values)
    if np.isnan(a).any():
        return math.nan
    half = a.size // 2
    if a.size % 2:
        return float(0.0 + np.partition(a, half)[half])
    part = np.partition(a, [half - 1, half])
    return float((0.0 + part[half - 1] + part[half]) / 2)


def _node_diagnostics(terms):
    U, S = terms.U, terms.S
    node_mean_a = np.array([float(np.mean(x * x)) for x in U])
    node_mean_b = float(np.mean([np.mean(x * x) for x in S])) if len(S) else 0.0
    unit_mean = np.array([float(np.mean(x)) + 1.0 for x in U])
    per_node = sum(x * x for x in U)
    if len(S):
        per_node = per_node + sum(x * x for x in S)
    med = _median(per_node)
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
        med = _median(rate)
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


def _prolong(values, shape_to):
    """Cubic interpolation of grid values onto a finer node set, per axis."""
    for ax, (n_from, n_to) in enumerate(zip(values.shape[1:], shape_to)):
        values = _along(_cubic_matrix(n_from, n_to), values, ax + 1)
    return values


def _smoothed(arr, passes):
    """`passes` rounds of per-axis (1/4, 1/2, 1/4) averaging as one product with
    S^passes per axis; S is symmetric positive definite."""
    out = arr
    for ax in range(1, arr.ndim):
        out = _along(_smoother(arr.shape[ax], passes), out, ax)
    return out


def _smoothing_passes(it, iters):
    # anneal over iters steps: heavy smoothing early kills high-frequency
    # junk, none late (and none past iters); _descend picks the clock
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


def _pair_bases(values, i, j):
    """w = y_i - y_j and T2, T3 and T4 of w rescaled to [0, 1], stacked; w
    alone when it is flat."""
    w = values[i] - values[j]
    lo, hi = float(np.min(w)), float(np.max(w))
    if not hi - lo > 1e-12:
        return w[None]
    u = (w - lo) / (hi - lo)
    return np.stack([w] + [_shifted_cheb(u, k) for k in range(2, 5)])


def _joint_move(objective, values, total, terms, i, bases):
    """Exact minimizer of the loss over values[i] + sum_k c_k bases[k].

    Only G[i] moves, so the loss is a quadratic in c (see move_poly) and
    only its vertex c = -A^-1 b / 2, solved by Cholesky, is scored.  The
    jump is taken only when A is positive definite, every |c_k| <= 1e3, and
    it strictly decreases the loss and leaves the gradient fields of
    distinct coordinates well separated.  Returns (values, total, terms) of
    the jump, or None.
    """
    dG = objective.derivatives(bases)
    b, A = objective.move_poly(terms, i, dG)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    c = -0.5 * b  # L L^T c = -b / 2: forward, then back substitution
    for k in range(len(c)):
        c[k] = (c[k] - _dot(L[k, :k], c[:k])) / L[k, k]
    for k in reversed(range(len(c))):
        c[k] = (c[k] - _dot(L[k + 1:, k], c[k + 1:])) / L[k, k]
    if not (np.all(np.isfinite(c)) and np.max(np.abs(c)) <= 1e3):
        return None
    G = terms.G.copy()
    G[i] += np.einsum("k,ka...->a...", c, dG)
    tc, cand_terms = objective.score(G)
    if np.isfinite(tc) and tc < total and _pair_alignment(cand_terms.G) < 0.8:
        cand = values.copy()
        cand[i] += np.einsum("k,k...->...", c, bases)
        return _pin_corner(cand), tc, cand_terms
    return None


def _recombine_sweep(objective, values, total, terms):
    """Trade content between coordinates along directions descent cannot see.

    Any function of w = y_i - y_j with zero unit-rate defect leaves A alone,
    so plain descent drifts along these valleys instead of crossing them.
    One exact joint move of y_i over w and low-order Chebyshev shapes of it
    jumps across, one scored vertex per ordered pair (i, j), round after
    round over all pairs, until a round gains under 1% (or
    _MAX_SWEEP_ROUNDS).  Returns the best (values, total, terms) found.
    """
    clock = time.perf_counter()
    stats = objective.stats
    stats.sweeps += 1
    for _ in range(_MAX_SWEEP_ROUNDS):
        start = total
        stats.sweep_rounds += 1
        for i, j in itertools.permutations(range(len(values)), 2):
            got = _joint_move(objective, values, total, terms, i,
                              _pair_bases(values, i, j))
            if got is not None:
                values, total, terms = got
                stats.line_moves += 1
        if not total < _SLOW * start:
            break
    objective.sweep_seconds += time.perf_counter() - clock
    return values, total, terms


def _descend(objective, values, iters, record=None, target=0.0, enough=0.0):
    """Smoothed-gradient descent with recombination sweeps on one grid.

    Returns (values, total, terms, steps_run, message), the message saying
    why the level stopped.  The smoothing anneals 8, 4, 2, 1 and 0 passes
    over fifths of the budget iters, or, on a level with a gain target
    enough > 0, which is meant to stop at its gain well inside its budget,
    over its first five progress windows.  Every accepted step strictly
    decreases the loss; when backtracking fails, or at the end of a
    progress window, a recombination sweep tries to jump the iterate across
    a loss valley before giving up: at every window end on a level with a
    gain target, since its sweeps are what reach the gain, and otherwise
    only after a window that gained under 1%.  Every trial, the current
    step and each halving after it, lies on values - s * direction, so each
    is scored from G - s * grad(direction).  The level stops early once
    both node-mean defects are at most target > 0, or once its total is at
    most enough.
    """
    box, shape = objective.box, objective.shape
    values = _pin_corner(values)
    total, terms = objective.evaluate(values)
    if not np.isfinite(total):
        raise FloatingPointError("loss is non-finite at the initial iterate")
    stats = objective.stats
    step = _STEP_SIZE
    window_last = total
    anneal = min(iters, 5 * _CHECK_EVERY) if enough > 0.0 else iters
    message = "iteration budget exhausted"
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
            message = "gradient vanished"
            break
        passes = _smoothing_passes(it, anneal)
        direction = _smoothed(grad, passes) if passes else grad

        accepted = False
        trial_step = step
        dG = objective.derivatives(direction)
        for _ in range(_MAX_BACKTRACKS + 1):
            trial_total, trial_terms = objective.score(terms.G - trial_step * dG)
            if np.isfinite(trial_total) and trial_total < total:
                values = _pin_corner(values - trial_step * direction)
                total, terms = trial_total, trial_terms
                # gentle growth lets the step ride up to the curvature limit
                step = trial_step * 1.3
                accepted = True
                break
            stats.backtracks += 1
            trial_step *= 0.5
        it += 1
        if record is not None:
            record.append(total)

        # a level with a gain target sweeps at every window end
        slow = it % _CHECK_EVERY == 0 and (enough > 0.0 or total > _SLOW * window_last)
        if it % _CHECK_EVERY == 0:
            window_last = total
        if not accepted or slow:
            v2, t2, terms2 = _recombine_sweep(objective, values, total, terms)
            if t2 < total:
                values, total, terms = v2, t2, terms2
                step = _STEP_SIZE
                if record is not None and record:
                    record[-1] = total
            elif not accepted:
                message = _STALLED
                break
        if target > 0.0:
            node_a, node_b, _, _ = _node_diagnostics(terms)
            if float(np.max(node_a)) <= target and node_b <= target:
                message = TARGET_MET
                break
        if total <= enough:
            message = GAIN_MET
            break
    return values, total, terms, it, message


def fit(field: VectorField, box, shape, cfg: Optional[FitConfig] = None) -> FitResult:
    """Minimize the functional by coarse-to-fine continuation.

    A random-affine start is placed on the coarsest grid of a ladder and the
    iterate is descended and prolonged (cubic interpolation per axis) level
    by level up to the requested shape, so large-scale structure settles
    before fine-scale detail exists to fight it.  Each level runs
    smoothed-gradient descent plus recombination sweeps when progress
    stalls, and every coarser level ends with one more sweep, so that it
    hands its finer neighbour a converged iterate.  A sweep moves each
    pair's coordinate to its loss's exact minimum, a quadratic's vertex,
    over the span of the pair's bases.  level_sweep_seconds gives the part
    of each level's level_seconds spent in sweeps.

    Every level from the third on, and the final level, stops once its
    total has fallen below the level before it by the ratio of their mesh
    widths (largest node spacings): on a consistent scheme the loss of a
    smooth solution falls at least like the mesh width, so refinement has
    then paid off (nested iteration: each level is solved only down to its
    discretization error).  Such a level anneals the smoothing over its
    first five 100-step progress windows (8, 4, 2, 1 and 0 passes) and
    sweeps at the end of every window; the first two levels anneal it over
    their budgets and spend them, since the third level is judged against
    the second.  level_messages says why each level stopped.  A level from
    the third on that spends its budget without its gain, while its loss
    sits well above round-off, holds a defect that does not behave like
    discretization error, and the result is flagged elevated_residual: with
    an adequate budget that marks an obstruction in the problem itself,
    such as coordinates that blow up inside the box.  A met FitConfig.target
    stops the final level first and exempts it.  With fewer than three
    levels run, elevated_residual is None and the message says the gain was
    not judged.  refinement_gain and gain_tol are those of the last two
    levels.

    Deterministic for a fixed cfg: initialization comes from the seeded PRNG
    and every accepted step strictly decreases the loss, so history is
    non-increasing.  history covers only the requested grid, one entry per
    step; coarser continuation levels report through level_totals.
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

    ladder = _coarse_ladder(shape)
    budgets = _budget_split(cfg.iterations, len(ladder))
    history: list = []
    level_totals, level_seconds, level_iterations, level_stats = [], [], [], []
    level_sweep_seconds, level_messages, missed = [], [], []
    gain_tol = refinement_gain = None
    floor = _RESIDUAL_FLOOR * float(np.prod(box[:, 1] - box[:, 0]))
    values = None
    for li, level_shape in enumerate(ladder):
        final = li == len(ladder) - 1
        if budgets[li] <= 0 and not final:
            continue
        clock = time.perf_counter()
        objective = _Objective(field, box, level_shape, FitStats())
        enough = 0.0
        if values is None:
            values = _affine_init(box, level_shape, objective.p_vals, cfg.seed)
        else:  # the mesh width is the largest node spacing
            gain_tol = float(np.max(_spacings(box, values.shape[1:]))
                             / np.max(_spacings(box, level_shape)))
            # the second level is the third's yardstick: it spends its budget
            if final or len(level_totals) >= 2:
                enough = level_totals[-1] / gain_tol
            values = _prolong(values, level_shape)
        values, total, terms, steps, message = _descend(
            objective, values, budgets[li],
            record=history if final else None,
            target=cfg.target if final else 0.0,
            enough=enough,
        )
        if not final:
            values, total, terms = _recombine_sweep(objective, values, total, terms)
        if gain_tol is not None:
            refinement_gain = float(level_totals[-1] / max(total, 1e-300))
        # an early target stop leaves the final total unconverged, which
        # would fake a weak gain; only a level that ran out is evidence
        if (len(level_totals) >= 2 and message not in (TARGET_MET, GAIN_MET)
                and refinement_gain < gain_tol and total > floor):
            missed.append(f"refinement gain {refinement_gain:.3g} below the mesh-width"
                          f" ratio {gain_tol:.3g}" + ("" if final else " at the"
                          f" {'x'.join(map(str, level_shape))} level"))
        level_totals.append(total)
        level_seconds.append(time.perf_counter() - clock)
        level_sweep_seconds.append(objective.sweep_seconds)
        level_iterations.append(steps)
        level_stats.append(objective.stats)
        level_messages.append(message)

    a_term, b_term = terms.A, terms.B
    node_a, node_b, unit_mean, concentration = _node_diagnostics(terms)

    # a target looser than _NODE_TOL only stops the fit early
    converged = float(np.max(node_a)) <= _NODE_TOL and node_b <= _NODE_TOL
    stalled = message == _STALLED
    elevated = bool(missed) if len(level_totals) >= 3 else None
    if elevated:
        message += (
            f"; elevated residual: {missed[-1]}, the defect survives grid"
            " refinement (obstruction on the patch, or budget too small to"
            " resolve it)"
        )
    elif elevated is None:
        message += (
            f"; refinement gain not judged on a {len(level_totals)}-level"
            " ladder: a verdict needs three levels"
        )

    return FitResult(
        grid=GridField(box=box, values=values),
        history=np.asarray(history),
        loss_a=a_term,
        loss_b=b_term,
        total=float(a_term + b_term),
        converged=converged,
        stalled=stalled,
        iterations_run=sum(level_iterations),
        node_mean_a=node_a,
        node_mean_b=node_b,
        unit_mean=unit_mean,
        residual_concentration=concentration,
        level_totals=tuple(level_totals),
        level_seconds=tuple(level_seconds),
        level_sweep_seconds=tuple(level_sweep_seconds),
        level_iterations=tuple(level_iterations),
        level_stats=tuple(level_stats),
        level_messages=tuple(level_messages),
        refinement_gain=refinement_gain,
        gain_tol=gain_tol,
        elevated_residual=elevated,
        message=message,
        stats=FitStats(*map(sum, zip(*map(dataclasses.astuple, level_stats)))),
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


def save_grid(grid: GridField, csv_path, sidecar: Optional[dict] = None) -> None:
    """CSV of node coordinates and values, plus a JSON sidecar with box/shape
    at csv_path + ".json"."""
    n = grid.dim
    mesh = grid.mesh()
    header = ",".join([f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)])
    cols = np.concatenate([mesh, grid.values]).reshape(2 * n, -1)
    # format(v, ".17g") per cell, one % per row
    row = ",".join(["%.17g"] * (2 * n)) + "\n"
    with open(csv_path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(row % tuple(cells) for cells in cols.T.tolist())
    meta = {
        "box": grid.box.tolist(),
        "shape": list(grid.shape),
    }
    if sidecar:
        meta.update(sidecar)
    with open(str(csv_path) + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_grid(csv_path) -> GridField:
    """The grid save_grid wrote to csv_path and its sidecar."""
    with open(str(csv_path) + ".json") as fh:
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
