"""Closed-form reference solutions for the built-in systems.

Every quantity the numerical pipeline produces (measurements, conserved
parameters, flowbox coordinates, eigenfunctions) has an exact counterpart
here for the systems where one can be written down.  Tests and the audit
suites treat these as oracles; nothing in this module integrates anything.

Validity regions matter: logarithms need positive arguments, angle functions
have branch cuts, and patch parameterizations exclude a point.  Each
reference solution carries an `excluded` predicate plus a sampler that only
produces points where every formula in the bundle is smooth.

Every closed form maps a row stack x of shape (..., N) to (..., *V), the
value axis last, so a single point is the stack with no leading axis.
Powers use np.float_power, the C library's pow for arrays and scalars alike
(`**` on an array rounds differently from `**` on a scalar).
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from .dynsys import VectorField, builtin

__all__ = [
    "ExcludedRegionError",
    "ReferenceEigenfunction",
    "FailedCandidate",
    "ReferenceSolution",
    "arg_angle",
    "reference",
    "reference_ids",
    "evaluate_reference_flowbox",
]


class ExcludedRegionError(ValueError):
    """Point lies where the reference formulas are singular or cut."""


def arg_angle(a, b):
    """Angle of the vector (b, a), in (-pi, pi].

    Single indirection point for every angle in this module so that audits can
    perturb it and watch the residual suites light up.
    """
    return np.arctan2(a, b)


def _wrap(angle):
    return np.mod(angle + np.pi, 2.0 * np.pi) - np.pi


def _angle_gap(theta, target):
    return np.abs(_wrap(theta - target))


def _r(x):
    return np.hypot(x[..., 0], x[..., 1])


def _polar(x):
    return _r(x), arg_angle(x[..., 1], x[..., 0])


def _r2(x):
    return np.float_power(x[..., 0], 2) + np.float_power(x[..., 1], 2)


def _nowhere(x):
    return np.zeros(np.shape(x)[:-1], dtype=bool)


@dataclasses.dataclass(frozen=True, eq=False)
class ReferenceEigenfunction:
    label: str
    eigenvalue: complex
    fn: Callable

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


@dataclasses.dataclass(frozen=True, eq=False)
class FailedCandidate:
    """A function that behaves like an eigenfunction on one orbit but is not one.

    residual(x) equals <grad fn, P>(x) - eigenvalue * fn(x) in closed form and
    is not identically zero; suites check the numerics reproduce it.  When
    orbit_seed is set, the along-orbit eigen relation does hold on the orbit
    through that point, which is exactly what makes the candidate deceptive.
    """

    label: str
    eigenvalue: complex
    fn: Callable
    residual: Callable
    orbit_seed: Optional[np.ndarray] = None


@dataclasses.dataclass(frozen=True, eq=False)
class ReferenceSolution:
    """Closed-form bundle for one built-in system.

    unit_coords : complex coordinates y with dy/dt = 1 along orbits, or None
    flowbox     : real coordinates (invariants..., time), or None when the
                  system admits no global chart
    unit_time   : the measurement m alone
    chart_h     : conserved surface parameters matching `surface_name`
    """

    system_id: str
    field: VectorField
    eigenfunctions: tuple
    eigenpairs: Optional[tuple] = None
    unit_coords: Optional[Callable] = None
    flowbox: Optional[Callable] = None
    unit_time: Optional[Callable] = None
    chart_h: Optional[Callable] = None
    surface_name: Optional[str] = None
    excluded: Callable = _nowhere
    validity: str = ""
    sample_valid: Optional[Callable] = None
    failed_candidates: tuple = ()


def evaluate_reference_flowbox(ref: ReferenceSolution, x) -> np.ndarray:
    if ref.flowbox is None:
        raise ValueError(f"{ref.system_id} has no global flowbox")
    x = np.asarray(x, dtype=float)
    bad = ref.excluded(x)
    if np.any(bad):
        raise ExcludedRegionError(
            f"{ref.system_id}: {x[bad][0].tolist()} is outside the validity"
            f" region ({ref.validity})"
        )
    return ref.flowbox(x)


def _sampler(draw, rejected):
    """sample(rng, n): the first n rows of draw(rng, k) that `rejected` does
    not flag, in drawn order.  draw(rng, k) takes k candidates' doubles from
    the stream as one block, in the order a loop drawing one candidate at a
    time takes them; each round draws only the count still missing, so the
    stream ends where that loop would leave it."""

    def sample(rng, n):
        out = draw(rng, 0)
        while len(out) < n:
            x = draw(rng, n - len(out))
            out = np.concatenate([out, x[~rejected(x)]])
        return out

    return sample


def _on_circles(r, th):
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def _rejection(lo, hi, excluded):
    return _sampler(lambda rng, k: rng.uniform(lo, hi, size=(k, len(lo))), excluded)


def _annulus(lo, hi, excluded, angle_first=False):
    """Sampler of the points r (cos th, sin th), (r, th) uniform in [lo, hi),
    that `excluded` does not flag; lo and hi list the bounds in the order a
    candidate draws them, th first if angle_first."""

    def draw(rng, k):
        u = rng.uniform(lo, hi, size=(k, 2)).T
        return _on_circles(*(u[::-1] if angle_first else u))

    return _sampler(draw, excluded)


# ---------------------------------------------------------------------------
# source-a: P = (x1, x2), orbits are rays from the origin


def _source_a() -> ReferenceSolution:
    field = builtin("source-a")

    def measurement(x):
        return np.log(_r(x))

    def circle_param(x):
        # circle-a parameter: normalized angle measured from the excluded
        # point (-1, 0)
        th = arg_angle(x[..., 1], x[..., 0])
        return np.mod(th - np.pi, 2.0 * np.pi) / (2.0 * np.pi)

    def excluded(x):
        r, th = _polar(x)
        # patch excludes the ray through (-1, 0); the angle family below has
        # its cut on the ray through (0, -1)
        return ((r < 0.05) | (_angle_gap(th, np.pi) < 0.1)
                | (_angle_gap(th, -np.pi / 2) < 0.1))

    def angle_power(n):
        return lambda x: arg_angle(x[..., 0], x[..., 1]) * np.float_power(_r(x), n)

    eigenfunctions = tuple(
        ReferenceEigenfunction(f"angle*r^{n}", float(n), angle_power(n))
        for n in (1, 2, 3)
    ) + (
        ReferenceEigenfunction("x2/r", 0.0, lambda x: x[..., 1] / _r(x)),
        ReferenceEigenfunction("r", 1.0, _r),
    )
    return ReferenceSolution(
        system_id="source-a",
        field=field,
        eigenfunctions=eigenfunctions,
        unit_time=measurement,
        chart_h=lambda x: circle_param(x)[..., None],
        surface_name="circle-a",
        flowbox=lambda x: np.stack([circle_param(x), measurement(x)], axis=-1),
        excluded=excluded,
        validity="r > 0.05, away from the rays through (-1,0) and (0,-1)",
        sample_valid=_annulus((0.3, -np.pi + 0.2), (3.0, np.pi - 0.45), excluded),
    )


# ---------------------------------------------------------------------------
# hyperbolic-b: P = (-x1, x2), saddle with conserved x1*x2


def _hyperbolic_b() -> ReferenceSolution:
    field = builtin("hyperbolic-b")

    def measurement(x):
        return -np.log(x[..., 0])

    def conserved(x):
        return x[..., 0] * x[..., 1] / 4.0

    def excluded(x):
        prod = x[..., 0] * x[..., 1]
        return (x[..., 0] <= 0.01) | (prod <= 1e-4) | (prod >= 3.99)

    def power_pair(n):
        return lambda x: np.float_power(x[..., 0], 1 - n) * x[..., 1]

    eigenfunctions = tuple(
        ReferenceEigenfunction(f"x1^{1 - n}*x2", float(n), power_pair(n))
        for n in (1, 2, 3)
    ) + (
        ReferenceEigenfunction("x1*x2", 0.0, lambda x: x[..., 0] * x[..., 1]),
        ReferenceEigenfunction("1/x1", 1.0, lambda x: 1.0 / x[..., 0]),
    )
    return ReferenceSolution(
        system_id="hyperbolic-b",
        field=field,
        eigenfunctions=eigenfunctions,
        unit_time=measurement,
        chart_h=lambda x: conserved(x)[..., None],
        surface_name="line-b",
        flowbox=lambda x: np.stack([conserved(x), measurement(x)], axis=-1),
        excluded=excluded,
        validity="x1 > 0.01 and x1*x2 in (1e-4, 3.99)",
        # x1 stays >= 0.7 so third derivatives of x1^(-2)*x2 keep the
        # finite-difference residual of the n=3 family below 1e-8
        sample_valid=_rejection((0.7, 0.1), (2.5, 1.5), excluded),
    )


# ---------------------------------------------------------------------------
# rotation-c: P = (x2, -x1), every orbit is a circle


def _rotation_c() -> ReferenceSolution:
    field = builtin("rotation-c")

    def local_time(x):
        # increases at unit rate along orbits but wraps after one revolution:
        # no surface can absorb the wrap, so this is local only
        return arg_angle(x[..., 0], x[..., 1])

    def excluded(x):
        r, th = _polar(x)
        # the local time formula has its cut on the ray through (0, -1)
        return (r < 0.05) | (_angle_gap(th, -np.pi / 2) < 0.1)

    def circular(n):
        return lambda x: _r2(x) * np.exp(1j * n * local_time(x))

    eigenfunctions = tuple(
        ReferenceEigenfunction(f"r^2*exp({n}i*angle)", complex(0.0, n), circular(n))
        for n in (1, 2, 3)
    ) + (
        ReferenceEigenfunction("r^2", 0.0, _r2),
    )
    return ReferenceSolution(
        system_id="rotation-c",
        field=field,
        eigenfunctions=eigenfunctions,
        eigenpairs=(
            (1j, np.array([1.0, 1j]) / np.sqrt(2.0)),
            (-1j, np.array([1.0, -1j]) / np.sqrt(2.0)),
        ),
        unit_time=local_time,
        flowbox=None,
        excluded=excluded,
        validity="r > 0.05, away from the ray through (0,-1); time is local",
        sample_valid=_annulus((0.3, -np.pi + 0.1), (3.0, np.pi), excluded),
    )


# ---------------------------------------------------------------------------
# linear systems: eigenfunctions are linear forms built from left eigenvectors,
# unit-speed coordinates are scaled principal logarithms


def _linear_reference(system_id, pairs, forms, unit_scale, fb_real, excluded,
                      validity, sampler):
    """pairs: ((eigenvalue, right eigenvector), ...)
    forms: ((label, eigenvalue, coefficient row), ...) with <row, x> linear
    unit_scale: eigenvalues dividing Log of each form, aligned with forms
    fb_real: maps the complex unit coordinates y (..., n) to real flowbox
    coordinates (..., N)
    """
    field = builtin(system_id)
    rows = [np.asarray(c, dtype=complex) for _, _, c in forms]

    def linear_form(row):
        return lambda x: np.vecdot(x, row)

    eigenfunctions = tuple(
        ReferenceEigenfunction(label, complex(lam), linear_form(row))
        for (label, lam, _), row in zip(forms, rows)
    )

    def unit_coords(x):
        return np.stack([np.log(np.vecdot(x, row)) / lam
                         for row, lam in zip(rows, unit_scale)], axis=-1)

    def fb(x):
        return fb_real(unit_coords(x))

    return ReferenceSolution(
        system_id=system_id,
        field=field,
        eigenfunctions=eigenfunctions,
        eigenpairs=pairs,
        unit_coords=unit_coords,
        flowbox=fb,
        unit_time=lambda x: fb(x)[..., -1],
        excluded=excluded,
        validity=validity,
        sample_valid=sampler,
    )


def _linear_ar() -> ReferenceSolution:
    s = np.sqrt(2.0)
    row1 = np.array([1.0, 1.0]) / s    # eigenvalue 3
    row2 = np.array([1.0, -1.0]) / s   # eigenvalue 8

    def excluded(x):
        return (np.abs(np.vecdot(x, row1)) < 1e-6) | (np.abs(np.vecdot(x, row2)) < 1e-6)

    def near_axes(x):
        # both eigencoordinates >= 0.3 keeps the log third derivatives small
        # enough for the 1e-8 finite-difference residual budget
        return (np.abs(x @ row1) < 0.3) | (np.abs(x @ row2) < 0.3)

    return _linear_reference(
        "linear-ar",
        pairs=((8.0, row2.astype(complex)), (3.0, row1.astype(complex))),
        forms=(
            ("(x1+x2)/sqrt2", 3.0, row1),
            ("(x1-x2)/sqrt2", 8.0, row2),
        ),
        unit_scale=(3.0, 8.0),
        # two real unit-speed coordinates: half difference is conserved,
        # half sum advances at unit rate
        fb_real=lambda y: np.stack(
            [np.real(y[..., 0] - y[..., 1]) / 2.0, np.real(y[..., 0] + y[..., 1]) / 2.0],
            axis=-1,
        ),
        excluded=excluded,
        validity="both eigencoordinates bounded away from zero",
        sampler=_annulus((-np.pi, 0.6), (np.pi, 1.0), near_axes, angle_first=True),
    )


_AC_LAMBDA = complex(-0.45, np.sqrt(15.0) / 20.0)
_AC_ROW = np.array(
    [2j / np.sqrt(5.0), np.sqrt(3.0) / 4.0 + 1j * np.sqrt(5.0) / 20.0]
)
_AC_V1 = np.array(
    [-np.sqrt(5.0) / 20.0 - 1j * np.sqrt(3.0) / 4.0, 2.0 * np.sqrt(5.0) / 5.0]
)


def _first_unit_coord(y):
    # the imaginary part of y1 is conserved, the real part advances at unit
    # rate
    return np.stack([np.imag(y[..., 0]), np.real(y[..., 0])], axis=-1)


def _linear_ac() -> ReferenceSolution:
    margin = 0.05

    def excluded(x):
        phi = np.vecdot(x, _AC_ROW)
        return (np.abs(phi) < 1e-6) | (np.pi - np.abs(np.angle(phi)) < margin)

    def near_cut(x):
        phi = x @ _AC_ROW
        return (np.abs(phi) < 0.3) | (np.pi - np.abs(np.angle(phi)) < 0.25)

    return _linear_reference(
        "linear-ac",
        pairs=((_AC_LAMBDA, _AC_V1), (np.conj(_AC_LAMBDA), np.conj(_AC_V1))),
        forms=(
            ("spiral form", _AC_LAMBDA, _AC_ROW),
            ("conj spiral form", np.conj(_AC_LAMBDA), np.conj(_AC_ROW)),
        ),
        unit_scale=(_AC_LAMBDA, np.conj(_AC_LAMBDA)),
        # y2 = conj(y1)
        fb_real=_first_unit_coord,
        excluded=excluded,
        validity="spiral form off zero and off the log branch cut",
        sampler=_annulus((-np.pi, 0.5), (np.pi, 1.0), near_cut, angle_first=True),
    )


def _linear_ai() -> ReferenceSolution:
    s = np.sqrt(2.0)
    row1 = np.array([1.0, -1j]) / s   # eigenvalue i
    margin = 0.05

    def excluded(x):
        r, th = _polar(x)
        # arg of the form is -theta: the log cut sits on theta = -pi
        return (r < 1e-6) | (np.pi - np.abs(th) < margin)

    return _linear_reference(
        "linear-ai",
        pairs=(
            (1j, np.array([1.0, 1j]) / s),
            (-1j, np.array([1.0, -1j]) / s),
        ),
        forms=(
            ("(x1-i*x2)/sqrt2", 1j, row1),
            ("(x1+i*x2)/sqrt2", -1j, np.conj(row1)),
        ),
        unit_scale=(1j, -1j),
        # y1 = -theta - i*ln(r/sqrt2)
        fb_real=_first_unit_coord,
        excluded=excluded,
        validity="r > 0 away from the ray through (-1,0)",
        sampler=_annulus((-np.pi + 0.45, 0.6), (np.pi - 0.3, 2.0), excluded,
                         angle_first=True),
    )


# ---------------------------------------------------------------------------
# limit-cycle: P = (-x2 + x1*(1 - r^2), x1 + x2*(1 - r^2))


def _limit_cycle() -> ReferenceSolution:
    field = builtin("limit-cycle")

    def radial_coord(x):
        r2 = _r2(x)
        return 0.5 * np.log(r2) - 0.5 * np.log(np.abs(1.0 - r2))

    def angle_coord(x):
        return arg_angle(x[..., 1], x[..., 0])

    def fb(x):
        y1 = radial_coord(x)
        y2 = angle_coord(x)
        return np.stack([(y1 - y2) / 2.0, (y1 + y2) / 2.0], axis=-1)

    def excluded(x):
        r, th = _polar(x)
        return (r < 0.05) | (np.abs(1.0 - r) < 0.1) | (_angle_gap(th, np.pi) < 0.1)

    def phase(x):
        r = _r(x)
        return x[..., 0] / r + 1j * (x[..., 1] / r)

    def draw(rng, k):
        # a coin, r and th per candidate, each as rng.uniform's lo + (hi -
        # lo) u; r stays off the band around 1 where |1-r^2| amplifies the
        # third-derivative error of the finite-difference residual
        coin, u, v = rng.random((k, 3)).T
        r = np.where(coin < 0.5, 0.3 + (0.8 - 0.3) * u, 1.25 + (2.0 - 1.25) * u)
        th_lo, th_hi = -np.pi + 0.2, np.pi - 0.5
        return _on_circles(r, th_lo + (th_hi - th_lo) * v)

    eigenfunctions = (
        ReferenceEigenfunction("r/sqrt|1-r^2|", 1.0, lambda x: np.exp(radial_coord(x))),
        ReferenceEigenfunction("(x1+i*x2)/r", 1j, phase),
    )
    return ReferenceSolution(
        system_id="limit-cycle",
        field=field,
        eigenfunctions=eigenfunctions,
        unit_coords=lambda x: np.stack([radial_coord(x), angle_coord(x)],
                                       axis=-1).astype(complex),
        flowbox=fb,
        unit_time=lambda x: fb(x)[..., 1],
        excluded=excluded,
        validity="r away from 0 and 1, away from the ray through (-1,0)",
        sample_valid=_sampler(draw, excluded),
    )


# ---------------------------------------------------------------------------
# appendix: P = (x1, -x2 + x1^2), where a linearization guess goes wrong


def _appendix() -> ReferenceSolution:
    field = builtin("appendix")

    eigenfunctions = (
        ReferenceEigenfunction("x1", 1.0, lambda x: x[..., 0]),
        ReferenceEigenfunction(
            "x2 - x1^2/3", -1.0,
            lambda x: x[..., 1] - np.float_power(x[..., 0], 2) / 3.0,
        ),
    )
    # x2 doubles along the invariant parabola x2 = x1^2/3 exactly like an
    # eigenfunction at eigenvalue 2 would, yet its residual x1^2 - 3*x2 is
    # nonzero almost everywhere (-2 at (1,1))
    failed = (
        FailedCandidate(
            label="x2",
            eigenvalue=2.0,
            fn=lambda x: x[..., 1],
            residual=lambda x: np.float_power(x[..., 0], 2) - 3.0 * x[..., 1],
            orbit_seed=np.array([1.0, 1.0 / 3.0]),
        ),
    )
    return ReferenceSolution(
        system_id="appendix",
        field=field,
        eigenfunctions=eigenfunctions,
        failed_candidates=failed,
        validity="entire plane",
        sample_valid=_rejection((-2.0, -2.0), (2.0, 2.0), _nowhere),
    )


_REFERENCE_BUILDERS = {
    "source-a": _source_a,
    "hyperbolic-b": _hyperbolic_b,
    "rotation-c": _rotation_c,
    "linear-ar": _linear_ar,
    "linear-ac": _linear_ac,
    "linear-ai": _linear_ai,
    "limit-cycle": _limit_cycle,
    "appendix": _appendix,
}


def reference_ids() -> list:
    return sorted(_REFERENCE_BUILDERS)


def reference(system_id: str) -> ReferenceSolution:
    try:
        builder = _REFERENCE_BUILDERS[system_id]
    except KeyError:
        raise KeyError(
            f"no reference solution for {system_id!r};"
            f" available: {', '.join(reference_ids())}"
        ) from None
    return builder()
