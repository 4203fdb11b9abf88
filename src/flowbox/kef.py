"""Koopman eigenfunctions assembled from chart data.

Any function of conserved quantities composed with exp(lambda * m) satisfies
the eigenvalue equation <grad phi, P> = lambda * phi on the chart's orbit set:
the conserved part contributes nothing along orbits while m advances at unit
speed.  The minimal set pairs each surface parameter with exp(m) so that the
flowbox coordinates, and through them any eigenfunction, are recovered by
ratios and a logarithm.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

from .chart import POINT_ERRORS, STATUS_OK, Chart, _flowbox_batch, _flowbox_rows, error_status
from .dynsys import VectorField
from .fdiff import fd_gradient_rows, rate, stencil
from .odeint import DEFAULT_CONFIG, IntegratorConfig, RunStats, _split_on_error, flow
from .chart import flowbox  # noqa: F401 (bindings the benchmark tracer patches)
from .fdiff import fd_gradient, fd_jacobian  # noqa: F401 (likewise)

__all__ = [
    "KoopmanEigenfunction",
    "MinimalSet",
    "kpde_residual",
    "kef_residuals",
    "phi_residuals",
    "orbit_eigen_check",
    "minimal_set",
]

# Relative singular-value cutoff of minimal_set's rank audit.
_RANK_TOL = 1e-8


@dataclasses.dataclass(frozen=True, eq=False)
class KoopmanEigenfunction:
    """phi(x) = profile(h(x)) * exp(eigenvalue * m(x)) at every row of x.

    profile : callable mapping the conserved parameters of rows, h (..., N-1),
        to (...) (for 1-D fields h has no columns); None means the constant 1
    """

    eigenvalue: complex
    chart: Chart
    profile: Optional[Callable] = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    def __call__(self, x):
        """phi at every row of x (..., N); the first row whose chart fails raises."""
        return self.at(_flowbox_rows(self.chart, x))

    def at(self, z):
        """phi from the flowbox coordinates z = (h, m) of rows, (..., N)."""
        z = np.asarray(z, dtype=float)
        amp = 1.0 if self.profile is None else self.profile(z[..., :-1])
        return amp * np.exp(self.eigenvalue * z[..., -1])


def kpde_residual(phi, eigenvalue: complex, field: VectorField, x,
                  fd_step: float = 1e-5):
    """<grad phi, P> - lambda * phi at every row of x (..., N), phi mapping row
    stacks; the gradient by central differences over one call of phi."""
    x = np.asarray(x, dtype=float)
    grad = fd_gradient_rows(phi, x, step=fd_step)
    return rate(grad, field.eval(x)) - complex(eigenvalue) * phi(x)


def _residuals(evaluate, eigenvalues, field, points, fd_step, stats) -> tuple:
    """(residuals (K, P), status (P,)) at points (..., N); evaluate maps each
    point's stencil rows, then the point, stacked (P (2N+1), N), to K
    functions' values and per row the POINT_ERRORS exception raised or None.
    A point's status is its first error: stencil, field.eval at it, its row.
    The field calls at the points and their rows are added into stats."""
    points = np.asarray(points, dtype=float).reshape(-1, field.dim)
    P, N = points.shape
    values, errors = evaluate(np.concatenate(
        [stencil(points, fd_step).reshape(P, 2 * N, N), points[:, None]], axis=1
    ).reshape(-1, N))

    def field_rows(rows):
        stats.rhs_calls += 1
        stats.rhs_evals += len(rows)
        return field.eval(rows)

    field_errors = [None] * P
    p = _split_on_error(field_rows, points, POINT_ERRORS, field_errors.__setitem__, (N,))
    errors = np.reshape(np.array(errors, dtype=object), (P, 2 * N + 1))
    first = [next((e for e in (*row[:-1], f, row[-1]) if e is not None), None)
             for row, f in zip(errors, field_errors)]
    status = np.array([STATUS_OK if e is None else error_status(e) for e in first],
                      dtype=object)
    ok = status == STATUS_OK
    residuals = np.full((len(eigenvalues), P), complex(np.nan, np.nan))
    for k, (vals, lam) in enumerate(zip(values, eigenvalues)):
        vals = np.reshape(vals, (P, 2 * N + 1))
        grad = fd_gradient_rows(lambda _: vals[:, :-1].reshape(-1), points, fd_step)
        residuals[k, ok] = (rate(grad, p) - complex(lam) * vals[:, -1])[ok]
    return residuals, status


def kef_residuals(kefs: Sequence[KoopmanEigenfunction], field: VectorField,
                  points, fd_step: float = 1e-5, stats=None) -> tuple:
    """kpde_residual of eigenfunctions sharing one chart, at many points.

    Each point's stencil rows and the point are charted by one batched
    search and the field is evaluated once over the points (work
    counters added to `stats` when given), and each residual equals the
    per-point value bit for bit.  Returns (residuals, status) in point order
    as evaluate_grid does: residuals (K, P), NaN at a failed point, and
    status (P,) labels; a failed point's status is that of its first
    failure: the stencil rows in stencil order, then field.eval at the
    point, then the point's chart.
    """
    chart = kefs[0].chart
    if any(k.chart is not chart for k in kefs):
        raise ValueError("kef_residuals needs eigenfunctions of one chart")
    stats = RunStats() if stats is None else stats

    def charted(rows):
        z, errors = _flowbox_batch(chart, rows, stats)
        return [k.at(z) for k in kefs], errors

    return _residuals(charted, [k.eigenvalue for k in kefs], field, points, fd_step, stats)


def phi_residuals(phi, eigenvalue: complex, field: VectorField, points,
                  fd_step: float = 1e-5) -> tuple:
    """kpde_residual of phi at many points, as kef_residuals gives it for one
    eigenfunction: (residuals (P,), status (P,)).  phi maps row stacks (R, N)
    to R values and is called over every point's stencil rows and the point
    at once; a call that raises one of POINT_ERRORS is split in halves until
    the raising rows stand alone."""

    def evaluated(rows):
        errors = [None] * len(rows)
        return [_split_on_error(phi, rows, POINT_ERRORS, errors.__setitem__)], errors

    residuals, status = _residuals(evaluated, [eigenvalue], field, points, fd_step, RunStats())
    return residuals[0], status


def orbit_eigen_check(
    phi,
    eigenvalue: complex,
    field: VectorField,
    x0,
    t_final: float,
    n_samples: int = 33,
    cfg: Optional[IntegratorConfig] = None,
    stats: Optional[RunStats] = None,
) -> float:
    """Max relative deviation of phi(flow(x0, t)) from phi(x0) * exp(lambda t).

    The orbit is sampled at n_samples evenly spaced times in [0, t_final];
    the flows' work is added into stats when given.  A vanishing phi(x0)
    leaves nothing to compare against and raises.
    """
    cfg = cfg or DEFAULT_CONFIG
    x0 = np.asarray(x0, dtype=float)
    lam = complex(eigenvalue)
    base = complex(phi(x0))
    if abs(base) < 1e-300:
        raise ValueError("phi vanishes at x0; relative deviation is undefined")
    if t_final == 0.0 or n_samples < 2:
        return 0.0
    times = np.linspace(0.0, float(t_final), n_samples)
    worst = 0.0
    xt = x0
    for i in range(1, n_samples):
        xt = flow(field, xt, float(times[i] - times[i - 1]), cfg=cfg, stats=stats)
        expected = base * np.exp(lam * times[i])
        dev = abs(complex(phi(xt)) - expected) / max(abs(expected), 1e-300)
        worst = max(worst, dev)
    return worst


@dataclasses.dataclass(frozen=True, eq=False)
class MinimalSet:
    """N eigenfunctions at eigenvalue 1 whose ratios and logs give the flowbox.

    members       : (h_1 e^m, ..., h_{N-1} e^m, e^m)
    rank          : numerical rank of d(members)/dx at the audited points
    rank_audit    : [(point, singular values)] backing the rank claim
    independent   : rank == dim at every audited point
    """

    chart: Chart
    members: tuple
    rank: int
    rank_audit: tuple
    independent: bool

    def __len__(self) -> int:
        return len(self.members)

    def coordinates(self, x) -> np.ndarray:
        """Recover (h, m) at every row of x (..., N) from member values alone:
        ratios then a log."""
        z = _flowbox_rows(self.chart, x)
        vals = np.stack([np.real(f.at(z)) for f in self.members], axis=-1)
        last = vals[..., -1:]
        return np.concatenate([vals[..., :-1] / last, np.log(last)], axis=-1)


def minimal_set(
    chart: Chart,
    audit_points: Optional[Sequence] = None,
) -> MinimalSet:
    """Build (h_i e^m, e^m), all at eigenvalue 1, and audit their independence.

    The Jacobian of the member tuple is evaluated by central differences, at
    fdiff's default step, at the audit points, whose stencils are charted by
    one batched search; its numerical rank (singular values down to _RANK_TOL
    of the largest) must equal the state dimension for the members to separate
    orbits and positions along them.
    """
    n = chart.dim
    members = tuple(
        KoopmanEigenfunction(1.0, chart, lambda h, i=i: h[..., i], f"h{i + 1}*exp(m)")
        for i in range(n - 1)
    ) + (KoopmanEigenfunction(1.0, chart, label="exp(m)"),)

    points = np.asarray(() if audit_points is None else audit_points, dtype=float).reshape(-1, n)

    def member_rows(rows):
        z = _flowbox_rows(chart, rows)
        return np.stack([f.at(z) for f in members], axis=-1)

    jac = np.swapaxes(fd_gradient_rows(member_rows, points), -1, -2)
    sv = np.linalg.svd(jac, compute_uv=False)  # (P, min(n, members))
    ranks = np.sum(sv >= _RANK_TOL * np.maximum(sv[:, :1], 1e-300), axis=1)
    min_rank = int(min(ranks, default=n))
    return MinimalSet(
        chart=chart,
        members=members,
        rank=min_rank,
        rank_audit=tuple(zip(points, sv)),
        independent=(min_rank == n),
    )
