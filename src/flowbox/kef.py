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

from .chart import POINT_ERRORS, STATUS_OK, Chart, _flowbox_batch, error_status, flowbox
from .dynsys import VectorField
from .fdiff import fd_gradient, fd_jacobian, stencil
from .odeint import DEFAULT_CONFIG, IntegratorConfig, flow

__all__ = [
    "KoopmanEigenfunction",
    "MinimalSet",
    "build_kef",
    "kpde_residual",
    "kef_residuals",
    "residual_status",
    "orbit_eigen_check",
    "koopman_advance",
    "minimal_set",
]


@dataclasses.dataclass(frozen=True, eq=False)
class KoopmanEigenfunction:
    """phi(x) = profile(h(x)) * exp(eigenvalue * m(x)).

    profile : callable on the conserved parameters (ignored input for 1-D
        fields, where h is empty); None means the constant 1
    """

    eigenvalue: complex
    chart: Chart
    profile: Optional[Callable] = None
    label: str = ""

    def __call__(self, x):
        return self.at(flowbox(self.chart, x))

    def at(self, z):
        """phi from the flowbox coordinates z = (h, m) of a point."""
        h, m = z[:-1], z[-1]
        amp = 1.0 if self.profile is None else self.profile(h)
        return amp * np.exp(self.eigenvalue * m)


def build_kef(
    chart: Chart,
    eigenvalue: complex,
    profile: Optional[Callable] = None,
    label: str = "",
) -> KoopmanEigenfunction:
    return KoopmanEigenfunction(
        eigenvalue=complex(eigenvalue), chart=chart, profile=profile, label=label
    )


def kpde_residual(phi, eigenvalue: complex, field: VectorField, x,
                  fd_step: float = 1e-5):
    """<grad phi, P>(x) - lambda * phi(x), gradient by central differences."""
    x = np.asarray(x, dtype=float)
    lam = complex(eigenvalue)
    grad = fd_gradient(phi, x, step=fd_step)
    p = field.eval(x)
    return complex(np.dot(grad, p) - lam * complex(phi(x)))


def _stencil_coords(chart: Chart, points, fd_step: float, stats=None) -> Callable:
    """flowbox(chart, y) for y among the points and their central-difference
    stencils, all charted by one batched search (work counters added to
    `stats` when given): a lookup that raises what flowbox would raise."""
    unique = {}
    for x in points:
        for y in stencil(x, fd_step).reshape(-1, x.size):
            unique.setdefault(y.tobytes(), y)
        unique.setdefault(x.tobytes(), x)
    charted = dict(zip(unique, _flowbox_batch(chart, list(unique.values()), stats)))

    def coords(y):
        z = charted[y.tobytes()]
        if isinstance(z, BaseException):
            raise z
        return z

    return coords


def kef_residuals(kefs: Sequence[KoopmanEigenfunction], field: VectorField,
                  points, fd_step: float = 1e-5, stats=None) -> list:
    """kpde_residual of eigenfunctions sharing one chart, at many points.

    Every point and its central-difference stencil are charted by one
    batched search (work counters added to `stats` when given), and each
    residual is assembled by kpde_residual from the batch's coordinates, so
    it equals the per-point value bit for bit.  Returns, per eigenfunction,
    [(residual or None, status)] in point order; a failed row's status is
    that of the first failure the per-point call meets: the stencil points
    in fd_gradient's order, then field.eval(x), then x.
    """
    chart = kefs[0].chart
    if any(k.chart is not chart for k in kefs):
        raise ValueError("kef_residuals needs eigenfunctions of one chart")
    points = [np.asarray(x, dtype=float) for x in points]
    coords = _stencil_coords(chart, points, fd_step, stats)
    return [
        [residual_status(lambda y, member=member: member.at(coords(y)),
                         member.eigenvalue, field, x, fd_step) for x in points]
        for member in kefs
    ]


def residual_status(phi, eigenvalue: complex, field: VectorField, x,
                    fd_step: float = 1e-5):
    """(kpde_residual, "ok"), or (None, status) of the point's failure."""
    try:
        return kpde_residual(phi, eigenvalue, field, x, fd_step=fd_step), STATUS_OK
    except POINT_ERRORS as err:
        return None, error_status(err)


def orbit_eigen_check(
    phi,
    eigenvalue: complex,
    field: VectorField,
    x0,
    t_final: float,
    n_samples: int = 33,
    cfg: Optional[IntegratorConfig] = None,
) -> float:
    """Max relative deviation of phi(flow(x0, t)) from phi(x0) * exp(lambda t).

    The orbit is sampled at n_samples evenly spaced times in [0, t_final].
    A vanishing phi(x0) leaves nothing to compare against and raises.
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
        xt = flow(field, xt, float(times[i] - times[i - 1]), cfg=cfg)
        expected = base * np.exp(lam * times[i])
        dev = abs(complex(phi(xt)) - expected) / max(abs(expected), 1e-300)
        worst = max(worst, dev)
    return worst


def koopman_advance(g, field: VectorField, x, tau: float,
                    cfg: Optional[IntegratorConfig] = None):
    """(U^tau g)(x) = g(flow(x, tau)): the operator side of the eigen relation."""
    cfg = cfg or DEFAULT_CONFIG
    return g(flow(field, np.asarray(x, dtype=float), float(tau), cfg=cfg))


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
        """Recover (h, m) from member values alone: ratios then a log."""
        z = flowbox(self.chart, x)
        vals = np.array([float(np.real(f.at(z))) for f in self.members])
        last = vals[-1]
        return np.concatenate([vals[:-1] / last, [np.log(last)]])


def _member_profile(index: int) -> Callable:
    return lambda h: float(h[index])


def minimal_set(
    chart: Chart,
    audit_points: Optional[Sequence] = None,
    fd_step: float = 1e-5,
    rank_tol: float = 1e-8,
) -> MinimalSet:
    """Build (h_i e^m, e^m), all at eigenvalue 1, and audit their independence.

    The Jacobian of the member tuple is evaluated by central differences at the
    audit points, whose stencils are charted by one batched search; its
    numerical rank must equal the state dimension for the members to separate
    orbits and positions along them.
    """
    n = chart.dim
    members = tuple(
        build_kef(chart, 1.0, profile=_member_profile(i), label=f"h{i + 1}*exp(m)")
        for i in range(n - 1)
    ) + (build_kef(chart, 1.0, profile=None, label="exp(m)"),)

    if audit_points is None:
        audit_points = []
    audit_points = [np.asarray(pt, dtype=float) for pt in audit_points]
    coords = _stencil_coords(chart, audit_points, fd_step)

    def member_vector(x):
        z = coords(x)
        return np.array([complex(f.at(z)) for f in members])

    audit = []
    min_rank = n
    for pt in audit_points:
        jac = fd_jacobian(member_vector, pt, step=fd_step)
        sv = np.linalg.svd(np.asarray(jac, dtype=complex), compute_uv=False)
        rank = int(np.sum(sv >= rank_tol * max(sv[0], 1e-300)))
        audit.append((pt, sv))
        min_rank = min(min_rank, rank)
    return MinimalSet(
        chart=chart,
        members=members,
        rank=min_rank,
        rank_audit=tuple(audit),
        independent=(min_rank == n),
    )
