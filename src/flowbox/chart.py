"""Non-recurrent surfaces and the charts they induce.

A surface S is an embedded (N-1)-manifold patch given by a parameterization
``X: (0,1)^{N-1} -> R^N`` together with a level function whose zero set
contains S.  If every orbit crosses S at most once (non-recurrence) and the
crossing is transversal, the orbit through x defines

* ``m(x)``  - unit-velocity measurement: signed time since the orbit left S,
* ``h(x)``  - surface parameters of the crossing point, conserved along orbits,

and the flowbox coordinates ``z = (h_1, ..., h_{N-1}, m)`` push the field
forward to the constant field (0, ..., 0, 1).
"""
from __future__ import annotations

import dataclasses
import json
from typing import Callable, Optional, Sequence

import numpy as np

from . import expressions as ex
from .dynsys import OutOfDomainError, VectorField
from .fdiff import fd_gradient_rows
from .odeint import (
    DEFAULT_CONFIG,
    Crossings,
    IntegrationError,
    IntegratorConfig,
    RunStats,
    find_crossings_batch,
)
from .fdiff import fd_gradient  # noqa: F401 (bindings the benchmark tracer patches)
from .odeint import find_crossings  # noqa: F401 (likewise)

__all__ = [
    "Surface",
    "Chart",
    "NonRecurrenceReport",
    "ChartError",
    "NotInOmega",
    "AmbiguousChart",
    "OffPatch",
    "TransversalityError",
    "DegenerateSurfaceError",
    "line_surface",
    "circle_surface",
    "point_surface",
    "builtin_surface",
    "builtin_surface_names",
    "surface_from_json",
    "halton",
    "check_transversal",
    "check_nonrecurrent",
    "check_nonrecurrent_batch",
    "build_chart",
    "flowbox",
    "evaluate_grid",
    "error_status",
    "POINT_ERRORS",
]

TRANSVERSALITY_TOL = 1e-6


class ChartError(RuntimeError):
    pass


class NotInOmega(ChartError):
    """The orbit through x never meets the surface within the horizon."""


class AmbiguousChart(ChartError):
    """The orbit meets the surface more than once: S is recurrent here."""


class OffPatch(ChartError):
    """The orbit meets the level set only outside the parameterized patch."""


class TransversalityError(ChartError):
    """Sampled |<normal, P>| fell below the transversality tolerance."""


class DegenerateSurfaceError(ChartError):
    """Parameterization Jacobian is rank deficient at a sampled parameter."""


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def halton(dim: int, count: int) -> np.ndarray:
    """First `count` points of the Halton sequence in (0,1)^dim (index from 1)."""
    if dim == 0:
        return np.zeros((count, 0))
    out = np.empty((count, dim))
    for j in range(dim):
        base = _PRIMES[j]
        for i in range(count):
            f, r, n = 1.0, 0.0, i + 1
            while n > 0:
                f /= base
                r += f * (n % base)
                n //= base
            out[i, j] = r
    return out


# ---------------------------------------------------------------------------
# Surfaces


@dataclasses.dataclass(frozen=True, eq=False)
class Surface:
    """Parameterized surface patch with a level function.

    Every callable takes a stack of rows and maps each row on its own, the
    value of a row never depending on the other rows of the stack:

    param : tau (..., N-1) in (0,1)^{N-1} -> points on S, (..., N)
    level : x (..., N) -> values (...), vanishing on S (sign change = crossing)
    param_inverse : x (..., N) -> parameters (..., N-1) of near-surface
        points; when absent a Gauss-Newton projection onto the patch is built
    param_jacobian : optional analytic dX/dtau, tau (..., N-1) -> (..., N, N-1)

    A single point is the stack with no leading axis.
    """

    dim: int
    param: Callable
    level: Callable
    param_inverse: Optional[Callable] = None
    param_jacobian: Optional[Callable] = None
    name: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.param_inverse is None:
            object.__setattr__(
                self, "param_inverse", _projection_inverse(self)
            )


def _param_jacobian(surface: Surface, tau, step: float = 1e-6) -> np.ndarray:
    """dX/dtau at every row of tau (..., N-1), shape (..., N, N-1)."""
    tau = np.asarray(tau, dtype=float)
    shape = tau.shape[:-1] + (surface.dim, surface.dim - 1)
    if surface.param_jacobian is not None:
        return np.broadcast_to(np.asarray(surface.param_jacobian(tau), dtype=float), shape)
    cols = []
    for i in range(surface.dim - 1):
        e = np.zeros_like(tau)
        # stay inside (0,1): shrink the stencil near the edges
        s = np.minimum(step, 0.49 * np.minimum(tau[..., i], 1.0 - tau[..., i]) + step * 1e-3)
        e[..., i] = s
        cols.append(
            (np.asarray(surface.param(tau + e)) - np.asarray(surface.param(tau - e)))
            / (2.0 * s)[..., None]
        )
    return np.stack(cols, axis=-1) if cols else np.zeros(shape)


# lattice distances held at once by the projection inverse's seed search
_SEED_BLOCK = 1 << 14


def _projection_inverse(surface: Surface, n_per_axis: int = 32, tol: float = 1e-10,
                        max_iter: int = 50) -> Callable:
    """Gauss-Newton projection onto the patch, seeded from a parameter lattice.

    Rows iterate together; a row stops once its step is below tol.  Each
    step is the minimum-norm least-squares solution, with lstsq's default
    cutoff for small singular values.  A call raises OffPatch when a row is
    still moving after max_iter steps, and DegenerateSurfaceError when dX/dtau
    at a row's solution has a singular value at or below that cutoff, so
    its parameters are not determined.
    """
    N, d = surface.dim, surface.dim - 1
    if d == 0:
        return lambda x: np.zeros(np.shape(x)[:-1] + (0,))

    axes = [(np.arange(n_per_axis) + 0.5) / n_per_axis] * d
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    seeds = np.asarray(surface.param(lattice), dtype=float)
    rcond = np.finfo(float).eps * N
    block = max(1, _SEED_BLOCK // len(seeds))

    def inverse(x):
        x = np.asarray(x, dtype=float)
        X = x.reshape(-1, N)
        nearest = [
            np.argmin(np.sum((seeds - X[i:i + block, None]) ** 2, axis=2), axis=1)
            for i in range(0, len(X), block)
        ]
        tau = lattice[np.concatenate(nearest)] if nearest else np.zeros((0, d))
        rows = np.arange(len(X))
        for _ in range(max_iter):
            if not rows.size:
                break
            t = tau[rows]
            r = X[rows] - np.asarray(surface.param(t), dtype=float)
            J = _param_jacobian(surface, t)
            delta = (np.linalg.pinv(J, rcond=rcond) @ r[..., None])[..., 0]
            tau[rows] = t + delta
            # a NaN step is not below tol: such a row runs to max_iter
            rows = rows[~(np.linalg.norm(delta, axis=1) < tol)]
        if rows.size:
            raise OffPatch(
                f"{surface.name}: the projection of x={X[rows[0]].tolist()} onto the"
                f" patch still moves after {max_iter} Gauss-Newton steps"
            )
        s = np.linalg.svd(_param_jacobian(surface, tau), compute_uv=False)
        _first_degenerate(surface, tau, s[:, -1] <= rcond * s[:, 0])
        return tau.reshape(x.shape[:-1] + (d,))

    return inverse


def _first_degenerate(surface: Surface, tau, bad) -> None:
    if bad.any():
        at = tau[tuple(np.argwhere(bad)[0])]
        raise DegenerateSurfaceError(
            f"{surface.name}: degenerate parameterization at tau={at.tolist()}"
        )


def surface_normal(surface: Surface, tau) -> np.ndarray:
    """Unit normal at X(tau) for every row of tau (..., N-1), shape (..., N).

    2-D surfaces use the rotated tangent (T2, -T1)/|T|; higher dimensions take
    the SVD null vector of the parameterization Jacobian with its sign aligned
    to the level gradient; 1-D surfaces are points with normal sign(grad level).
    A rank-deficient Jacobian raises DegenerateSurfaceError at the first such
    row.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if surface.dim == 1:
        x = np.asarray(surface.param(tau), dtype=float)
        g = fd_gradient_rows(surface.level, x, step=1e-7)
        return np.where(g >= 0, 1.0, -1.0)
    J = _param_jacobian(surface, tau)
    if surface.dim == 2:
        t = J[..., 0]
        norm = np.linalg.norm(t, axis=-1)
        _first_degenerate(surface, tau, norm < 1e-12)
        return np.stack([t[..., 1], -t[..., 0]], axis=-1) / norm[..., None]
    u, s, _ = np.linalg.svd(J, full_matrices=True)
    _first_degenerate(surface, tau, (s[..., -1] < 1e-12 * s[..., 0]) | (s[..., 0] == 0.0))
    n = u[..., :, -1]
    x = np.asarray(surface.param(tau), dtype=float)
    g = fd_gradient_rows(surface.level, x, step=1e-7)
    return np.where(np.sum(n * g, axis=-1, keepdims=True) < 0.0, -n, n)


def line_surface(value: float = 1.0, lo: float = 0.0, hi: float = 4.0,
                 axis: int = 0, name: Optional[str] = None) -> Surface:
    """2-D surface {x_axis = value} parameterized over the other axis in (lo, hi)."""
    other = 1 - axis
    span = hi - lo
    if span <= 0:
        raise ValueError("need lo < hi")

    def param(tau):
        tau = np.asarray(tau, dtype=float)
        x = np.empty(tau.shape[:-1] + (2,))
        x[..., axis] = value
        x[..., other] = lo + span * tau[..., 0]
        return x

    def inverse(x):
        return ((np.asarray(x, dtype=float)[..., other] - lo) / span)[..., None]

    jac_col = np.zeros((2, 1))
    jac_col[other, 0] = span
    return Surface(
        dim=2,
        param=param,
        level=lambda x: np.asarray(x, dtype=float)[..., axis] - value,
        param_inverse=inverse,
        param_jacobian=lambda tau: np.broadcast_to(jac_col, np.shape(tau)[:-1] + (2, 1)),
        name=name or f"line(x{axis + 1}={value}, x{other + 1} in ({lo},{hi}))",
    )


def circle_surface(radius: float = 1.0, excluded_angle: float = np.pi,
                   name: Optional[str] = None) -> Surface:
    """Circle of given radius minus one point, parameterized by normalized angle.

    tau in (0,1) maps to angle excluded_angle + 2*pi*tau; the excluded point
    itself corresponds to tau in {0, 1} which is off-patch by construction.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    th0 = float(excluded_angle)

    def angle(tau):
        return th0 + 2.0 * np.pi * np.asarray(tau, dtype=float)[..., 0]

    def param(tau):
        th = angle(tau)
        return radius * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def inverse(x):
        x = np.asarray(x, dtype=float)
        th = np.arctan2(x[..., 1], x[..., 0])
        return (np.mod(th - th0, 2.0 * np.pi) / (2.0 * np.pi))[..., None]

    def jacobian(tau):
        th = angle(tau)
        return 2.0 * np.pi * radius * np.stack([-np.sin(th), np.cos(th)], axis=-1)[..., None]

    def level(x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 + x[..., 1] ** 2 - radius**2

    return Surface(
        dim=2,
        param=param,
        level=level,
        param_inverse=inverse,
        param_jacobian=jacobian,
        name=name or f"circle(r={radius}, excluded angle {th0:.3g})",
    )


def point_surface(value: float = 1.0, name: Optional[str] = None) -> Surface:
    """0-dimensional surface {x1 = value} for one-dimensional fields."""
    return Surface(
        dim=1,
        param=lambda tau: np.full(np.shape(tau)[:-1] + (1,), float(value)),
        level=lambda x: np.asarray(x, dtype=float)[..., 0] - value,
        param_inverse=lambda x: np.zeros(np.shape(x)[:-1] + (0,)),
        param_jacobian=lambda tau: np.zeros(np.shape(tau)[:-1] + (1, 0)),
        name=name or f"point(x1={value})",
    )


_SURFACE_BUILDERS = {
    # the worked hyperbolic example: S = {x1 = 1}, x2 in (0, 4)
    "line-b": lambda: line_surface(1.0, 0.0, 4.0, name="line-b"),
    # same line with a wide parameter range so larger boxes stay on-patch
    "line-b-wide": lambda: line_surface(1.0, 0.0, 16.0, name="line-b-wide"),
    # unit circle minus the point (-1, 0): radial and node fields cross once
    "circle-a": lambda: circle_surface(1.0, np.pi, name="circle-a"),
    # short vertical segment used to exhibit recurrence of rotations
    "segment-c": lambda: line_surface(1.0, 0.0, 1.0, name="segment-c"),
    "point-1": lambda: point_surface(1.0, name="point-1"),
}


def builtin_surface_names() -> list:
    return sorted(_SURFACE_BUILDERS)


def builtin_surface(name: str) -> Surface:
    try:
        return _SURFACE_BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown surface {name!r}; built-ins: {', '.join(builtin_surface_names())}"
        ) from None


def surface_from_json(spec) -> Surface:
    """Surface from {"builtin": name} or {"dim", "param": [...], "level": "..."}.

    Parameterization expressions use variables t1..t{N-1}; the level expression
    uses x1..xN.  Each expression is evaluated once over the columns of a
    stack, a constant broadcast to its rows.  A Gauss-Newton projection
    supplies param_inverse.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if "builtin" in spec:
        return builtin_surface(spec["builtin"])
    dim = int(spec["dim"])
    param_texts = spec["param"]
    if len(param_texts) != dim:
        raise ValueError(f"param must list {dim} expressions, got {len(param_texts)}")
    tvars = [f"t{i + 1}" for i in range(dim - 1)]
    param_nodes = [ex.parse_expression(s, tvars) for s in param_texts]
    level_node = ex.parse_expression(spec["level"], [f"x{i + 1}" for i in range(dim)])

    def over_rows(node, rows):
        # node over the columns of rows (..., n), one value per row
        rows = np.asarray(rows, dtype=float)
        columns = tuple(rows[..., i] for i in range(rows.shape[-1]))
        return np.array(np.broadcast_to(node.evaluate(columns), rows.shape[:-1]), dtype=float)

    return Surface(
        dim=dim,
        param=lambda tau: np.stack([over_rows(n, tau) for n in param_nodes], axis=-1),
        level=lambda x: over_rows(level_node, x)[()],
        name=str(spec.get("name", "custom")),
    )


# ---------------------------------------------------------------------------
# Audits


def check_transversal(
    surface: Surface,
    field: VectorField,
    n_samples: int = 64,
    stats: Optional[RunStats] = None,
) -> list:
    """Sample <normal, P> over a low-discrepancy parameter grid.

    Returns [(tau, inner_product)] for every sample; callers decide what to do
    with small values.  The field call and its rows are added into stats when
    given.  Raises DegenerateSurfaceError on rank-deficient
    parameterizations.
    """
    d = surface.dim - 1
    taus = halton(d, n_samples if d > 0 else 1)
    normals = surface_normal(surface, taus)
    x = np.asarray(surface.param(taus), dtype=float)
    if stats is not None:
        stats.rhs_calls += 1
        stats.rhs_evals += len(x)
    ips = np.sum(normals * field.eval(x, check_domain=False), axis=1)
    return [(tau, float(ip)) for tau, ip in zip(taus, ips)]


@dataclasses.dataclass(frozen=True, eq=False)
class NonRecurrenceReport:
    """Outcome of the orbit-seeded recurrence audit."""

    tested_points: int
    violations: tuple            # (seed point, crossing times) with > 1 crossing
    transversality_failures: tuple  # (tau, inner product) below tolerance
    integration_failures: tuple  # (seed point, message) of orbits whose search failed
    verdict: str                 # "pass" | "fail"


def check_nonrecurrent(
    surface: Surface,
    field: VectorField,
    n_orbits: int = 16,
    cfg: Optional[IntegratorConfig] = None,
    stats: Optional[RunStats] = None,
) -> NonRecurrenceReport:
    """Seed orbits on S and count on-patch transversal crossings.

    Any orbit crossing more than once (the seed itself counts as one crossing)
    makes the surface recurrent.  An orbit whose search fails with one of
    POINT_ERRORS is recorded with its message and fails the verdict, since
    its crossings are unknown; other errors propagate.  The orbits are
    searched over cfg.horizon, their work added into stats when given.  The
    one-surface case of check_nonrecurrent_batch.
    """
    (report,) = check_nonrecurrent_batch([surface], field, n_orbits, cfg, stats)
    return report


def check_nonrecurrent_batch(
    surfaces: Sequence[Surface],
    field: VectorField,
    n_orbits: int = 16,
    cfg: Optional[IntegratorConfig] = None,
    stats: Optional[RunStats] = None,
) -> list:
    """check_nonrecurrent for several surfaces under one field and config:
    their reports, in order, with the orbits seeded on every surface
    searched as one batch and each report judged by _nonrecurrence_report."""
    trans_failures = [
        tuple((tau, ip)
              for tau, ip in check_transversal(surface, field, max(n_orbits, 16), stats)
              if abs(ip) < TRANSVERSALITY_TOL)
        for surface in surfaces
    ]
    seeds = [_orbit_seeds(surface, n_orbits) for surface in surfaces]
    owners = [surface for surface, x in zip(surfaces, seeds) for _ in x]
    found = find_crossings_batch(field, np.concatenate(seeds), owners, cfg, stats)
    starts = np.cumsum([0] + [len(x) for x in seeds])
    return [_nonrecurrence_report(x, found, start, trans)
            for x, start, trans in zip(seeds, starts, trans_failures)]


def _orbit_seeds(surface: Surface, n_orbits: int) -> np.ndarray:
    """The points on S where the recurrence audit seeds its orbits: X at the
    first n_orbits Halton parameters, or the one point of a 1-D surface."""
    d = surface.dim - 1
    return np.asarray(surface.param(halton(d, n_orbits if d else min(n_orbits, 1))),
                      dtype=float)


def _nonrecurrence_report(seeds, found: Crossings, start: int = 0,
                          trans: tuple = ()) -> NonRecurrenceReport:
    """The recurrence verdict of the orbits seeded at `seeds`, which are
    points start, start + 1, ... of the search `found`, with the surface's
    transversality failures `trans`.  A seed's error outside POINT_ERRORS is
    raised, the first one first."""
    mine = slice(start, start + len(seeds))
    failed = _point_failures(found.errors[mine])
    counted = (found.direction != 0) & found.on_patch
    counts = np.bincount(found.point[counted], minlength=len(found.errors))[mine]
    violations = tuple((seeds[i], tuple(found.t[counted & (found.point == start + i)].tolist()))
                       for i in np.flatnonzero(counts > 1))
    failures = tuple((seeds[i], str(found.errors[start + i])) for i in np.flatnonzero(failed))
    return NonRecurrenceReport(
        tested_points=len(seeds),
        violations=violations,
        transversality_failures=trans,
        integration_failures=failures,
        verdict="fail" if (violations or trans or failures) else "pass",
    )


# ---------------------------------------------------------------------------
# Charts


@dataclasses.dataclass(frozen=True, eq=False)
class Chart:
    """Chart on the orbit set of a non-recurrent surface."""

    field: VectorField
    surface: Surface
    cfg: IntegratorConfig

    @property
    def dim(self) -> int:
        return self.field.dim


def build_chart(
    field: VectorField,
    surface,
    cfg: Optional[IntegratorConfig] = None,
    audit_transversal: bool = True,
    stats: Optional[RunStats] = None,
) -> Chart:
    """Assemble a chart; transversality is audited unless explicitly skipped,
    its field samples added into stats when given."""
    if isinstance(surface, str):
        surface = builtin_surface(surface)
    if surface.dim != field.dim:
        raise ValueError(
            f"surface dim {surface.dim} does not match field dim {field.dim}"
        )
    cfg = cfg or DEFAULT_CONFIG
    if audit_transversal:
        samples = check_transversal(surface, field, stats=stats)
        bad = [(tau, ip) for tau, ip in samples if abs(ip) < TRANSVERSALITY_TOL]
        if bad:
            tau, ip = min(bad, key=lambda pair: abs(pair[1]))
            raise TransversalityError(
                f"{surface.name} is tangent to {field.name}:"
                f" |<n, P>| = {abs(ip):.3g} < {TRANSVERSALITY_TOL:g}"
                f" at tau={np.asarray(tau).tolist()}"
            )
    return Chart(field=field, surface=surface, cfg=cfg)


def _point_failures(errors) -> np.ndarray:
    """Where errors (one per point) holds an exception; the first that is
    not one of POINT_ERRORS is raised."""
    failed = np.not_equal(errors, None)
    for err in errors[failed]:
        if not isinstance(err, POINT_ERRORS):
            raise err
    return failed


def _no_unique_crossing(chart: Chart, x, found: Crossings, point: int) -> ChartError:
    """The error of a point whose crossings in found hold no single on-patch
    transversal one."""
    transversal = np.flatnonzero((found.point == point) & (found.direction != 0))
    on_patch = transversal[found.on_patch[transversal]]
    if len(on_patch) > 1:
        return AmbiguousChart(
            f"orbit through {np.asarray(x).tolist()} crosses {chart.surface.name}"
            f" {len(on_patch)} times (t = {[round(t, 6) for t in found.t[on_patch].tolist()]})"
        )
    if len(transversal):
        worst = transversal[np.argmin(np.abs(found.t[transversal]))]
        return OffPatch(
            f"orbit through {np.asarray(x).tolist()} meets the level set of"
            f" {chart.surface.name} only outside the patch"
            f" (params {found.params[worst].tolist()} at t={found.t[worst]:.6g})"
        )
    return NotInOmega(
        f"orbit through {np.asarray(x).tolist()} does not cross"
        f" {chart.surface.name} within horizon {chart.cfg.horizon:g}"
    )


def flowbox(chart: Chart, x) -> np.ndarray:
    """Flowbox coordinates (h_1, ..., h_{N-1}, m) from a single crossing search:
    h the conserved surface parameters of the crossing point, in (0,1)^{N-1},
    and m the time since the orbit left the surface."""
    return _flowbox_rows(chart, x)


# status labels used by grid evaluation and the CLI export
STATUS_OK = "ok"
STATUS_NOT_IN_OMEGA = "not-in-omega"
STATUS_AMBIGUOUS = "ambiguous"
STATUS_OFF_PATCH = "off-patch"
STATUS_CHART = "chart-error"
STATUS_INTEGRATION = "integration-error"
STATUS_DOMAIN = "domain-error"

# first match wins, so subclasses come before their bases
_ERROR_STATUSES = (
    (NotInOmega, STATUS_NOT_IN_OMEGA),
    (AmbiguousChart, STATUS_AMBIGUOUS),
    (OffPatch, STATUS_OFF_PATCH),
    (ChartError, STATUS_CHART),
    (IntegrationError, STATUS_INTEGRATION),
    (ex.DomainError, STATUS_DOMAIN),
    (OutOfDomainError, STATUS_DOMAIN),
    (ZeroDivisionError, STATUS_DOMAIN),
)
# failures that become a point's status instead of propagating
POINT_ERRORS = tuple(cls for cls, _ in _ERROR_STATUSES)


def error_status(err: BaseException) -> str:
    """The status label of a per-point failure, an instance of POINT_ERRORS."""
    return next(status for cls, status in _ERROR_STATUSES if isinstance(err, cls))


def _flowbox_batch(chart: Chart, points, stats: Optional[RunStats] = None,
                   found: Optional[Crossings] = None) -> tuple:
    """flowbox() at many points (R, N) with one batched search, or from
    `found`, the Crossings of one already made over exactly these points:
    their coordinates (R, N), NaN where it fails, and per point the
    POINT_ERRORS exception flowbox() raises there, or None (an object
    array)."""
    if found is None:
        found = find_crossings_batch(chart.field, points, chart.surface, chart.cfg, stats)
    errors = found.errors.copy()  # a given record stays as it was
    _point_failures(errors)
    chosen = (found.direction != 0) & found.on_patch
    counts = np.bincount(found.point[chosen], minlength=len(points))
    chosen &= counts[found.point] == 1
    z = np.full((len(points), chart.dim), np.nan)
    z[found.point[chosen], :-1] = found.params[chosen]
    z[found.point[chosen], -1] = 0.0 - found.t[chosen]  # +0, not -0, on the surface
    for i in np.flatnonzero(np.equal(errors, None) & (counts != 1)):
        errors[i] = _no_unique_crossing(chart, points[i], found, i)
    return z, errors


def _flowbox_rows(chart: Chart, x) -> np.ndarray:
    """flowbox() at every row of x (..., N) with one batched search, shape
    (..., N); the first row whose chart fails raises its error.  Stacked
    callers use this name, since the benchmark tracer wraps flowbox() as a
    one-point call."""
    x = np.asarray(x, dtype=float)
    z, errors = _flowbox_batch(chart, x.reshape(-1, x.shape[-1]))
    failed = np.flatnonzero(np.not_equal(errors, None))
    if failed.size:
        raise errors[failed[0]]
    return z.reshape(x.shape)


def evaluate_grid(
    chart: Chart, points: Sequence, stats: Optional[RunStats] = None,
    found: Optional[Crossings] = None,
) -> tuple:
    """Evaluate flowbox coordinates at many points with one batched search.

    Returns (z, status) in input order: z (R, N) and status (R,), an object
    array of labels, row i equal to what flowbox() gives for point i alone,
    or NaN and the status of the error it raises.  The batch's work counters
    are added to `stats` when given.  Given `found`, the Crossings of a
    search already made over exactly these points, no search is made.
    """
    points = np.asarray(points, dtype=float).reshape(len(points), chart.dim)
    z, errors = _flowbox_batch(chart, points, stats, found)
    status = np.full(len(points), STATUS_OK, dtype=object)
    for i in np.flatnonzero(np.not_equal(errors, None)):
        status[i] = error_status(errors[i])
    return z, status


def _audited_search(chart: Chart, points, n_orbits: int,
                    stats: Optional[RunStats] = None) -> tuple:
    """One batched search over n_orbits orbits seeded on chart's surface,
    then over points (R, N): (the seeds' NonRecurrenceReport, the Crossings
    of points alone, numbered from 0).

    The report is check_nonrecurrent's without its transversality samples:
    those are the first of build_chart's, audited already.  A seed's error
    outside POINT_ERRORS is raised here; the points' errors are left in the
    record, so the caller can judge the audit first.
    """
    seeds = _orbit_seeds(chart.surface, n_orbits)
    found = find_crossings_batch(chart.field, np.concatenate([seeds, points]),
                                 chart.surface, chart.cfg, stats)
    report = _nonrecurrence_report(seeds, found)
    rows = found.point >= len(seeds)
    columns = {f.name: getattr(found, f.name)[rows]
               for f in dataclasses.fields(Crossings) if f.name != "errors"}
    columns["point"] -= len(seeds)
    return report, Crossings(**columns, errors=found.errors[len(seeds):])
