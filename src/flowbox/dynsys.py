"""Vector fields: the built-in example systems and fields parsed from text.

A :class:`VectorField` is an autonomous smooth field ``P`` on a box domain in
R^N.  Components are callables ``f(x1, ..., xN)`` that broadcast over numpy
arrays, so one ``eval`` call over a stack of rows serves a batch of ODE
lanes and a whole grid alike.
"""
from __future__ import annotations

import dataclasses
import json
from typing import Callable, Optional

import numpy as np

from . import expressions as ex

__all__ = [
    "VectorField",
    "OutOfDomainError",
    "builtin",
    "builtin_names",
    "parse_system",
    "system_from_json",
]

DEFAULT_HALF_WIDTH = 10.0
DOMAIN_SLACK = 1e-12  # how far outside its box a row still lies in a field's domain


class OutOfDomainError(ValueError):
    """A field was evaluated outside its box domain."""


@dataclasses.dataclass(frozen=True, eq=False)
class VectorField:
    """Autonomous vector field on an axis-aligned box.

    Parameters
    ----------
    name : str
        Identifier used in orbit records, manifests and error messages.
    dim : int
        State dimension N.
    components : tuple of callables
        ``components[i](x1, ..., xN)`` returns dx_i/dt; must broadcast.
    domain : (N, 2) array
        Per-axis [lo, hi] bounds; trajectories are tracked inside this box.
    jacobian : callable, optional
        ``jacobian(x) -> (N, N)`` analytic Jacobian when available.
    note : str
        One-line remark shown by the CLI listing.
    """

    name: str
    dim: int
    components: tuple
    domain: np.ndarray
    jacobian: Optional[Callable] = None
    note: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.components) != self.dim:
            raise ValueError(
                f"{self.dim}-dimensional field needs {self.dim} components,"
                f" got {len(self.components)}"
            )
        dom = np.asarray(self.domain, dtype=float)
        if dom.shape != (self.dim, 2) or np.any(dom[:, 0] >= dom[:, 1]):
            raise ValueError("domain must be (dim, 2) with lo < hi per axis")
        object.__setattr__(self, "domain", dom)

    def contains(self, x):
        """Whether each row of x (..., N) lies in the domain box widened by
        DOMAIN_SLACK; a single point gives one bool."""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.domain[:, 0] - DOMAIN_SLACK)
                      & (x <= self.domain[:, 1] + DOMAIN_SLACK), axis=-1)

    def eval(self, x, check_domain: bool = True) -> np.ndarray:
        """P at every row of x (..., N), shape (..., N); a single point is the
        stack with no leading axis.  With check_domain, a row outside the
        box raises OutOfDomainError naming the first such row."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"expected points (..., {self.dim}), got shape {x.shape}")
        if check_domain:
            outside = ~self.contains(x)
            if np.any(outside):
                raise OutOfDomainError(f"{self.name}: point {x[outside][0].tolist()}"
                                       " is outside the domain box")
        cols = np.moveaxis(x, -1, 0)
        out = np.empty(x.shape)
        for i, c in enumerate(self.components):
            out[..., i] = c(*cols)
        return out


# ---------------------------------------------------------------------------
# Parsing fields from text / JSON


def _ast_component(node):
    return lambda *coords: node.evaluate(coords)


def parse_system(text: str, dim: int, name: str = "user", domain=None) -> VectorField:
    """Build a field from comma-separated component expressions over x1..xN."""
    variables = [f"x{i + 1}" for i in range(dim)]
    nodes = ex.parse_expression_list(text, variables)
    if len(nodes) != dim:
        raise ex.ExpressionError(
            f"expected {dim} components, got {len(nodes)}", len(text)
        )
    if domain is None:
        domain = [(-DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH)] * dim
    return VectorField(
        name=name,
        dim=dim,
        components=tuple(_ast_component(n) for n in nodes),
        domain=np.asarray(domain, dtype=float),
    )


def system_from_json(spec) -> VectorField:
    """Field from a JSON spec {"name", "dim", "components": [...], "domain"?}."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    dim = int(spec["dim"])
    comps = spec["components"]
    if len(comps) != dim:
        raise ValueError(f"spec lists {len(comps)} components for dim {dim}")
    return parse_system(
        ", ".join(comps),
        dim,
        name=str(spec.get("name", "user")),
        domain=spec.get("domain"),
    )


# ---------------------------------------------------------------------------
# Built-in systems

def _linear_field(name, matrix, note, half_width) -> VectorField:
    A = np.asarray(matrix, dtype=float)
    n = A.shape[0]

    def row(i):
        return lambda *xs: sum(A[i, j] * xs[j] for j in range(n))

    return VectorField(
        name=name,
        dim=n,
        components=tuple(row(i) for i in range(n)),
        domain=[(-half_width, half_width)] * n,
        jacobian=lambda x, A=A: A,
        note=note,
    )


def _build_registry() -> dict:
    reg = {}

    reg["source-a"] = VectorField(
        name="source-a",
        dim=2,
        components=(lambda x1, x2: x1, lambda x1, x2: x2),
        domain=[(-10.0, 10.0)] * 2,
        jacobian=lambda x: np.eye(2),
        note="radial source; orbits are rays from the origin",
    )
    reg["hyperbolic-b"] = VectorField(
        name="hyperbolic-b",
        dim=2,
        components=(lambda x1, x2: -x1, lambda x1, x2: x2),
        domain=[(-10.0, 10.0)] * 2,
        jacobian=lambda x: np.diag([-1.0, 1.0]),
        note="saddle; x1*x2 is conserved",
    )
    reg["rotation-c"] = VectorField(
        name="rotation-c",
        dim=2,
        components=(lambda x1, x2: x2, lambda x1, x2: -x1),
        domain=[(-10.0, 10.0)] * 2,
        jacobian=lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]),
        note="closed circular orbits; no non-recurrent surface exists",
    )
    reg["linear-ar"] = _linear_field(
        "linear-ar",
        [[5.5, -2.5], [-2.5, 5.5]],
        "symmetric unstable node; real eigenvalues 3 and 8",
        100.0,
    )
    reg["linear-ac"] = _linear_field(
        "linear-ac",
        [[-0.4, 0.1], [-0.4, -0.5]],
        "stable focus; complex eigenvalues -9/20 +- (sqrt(15)/20)i",
        100.0,
    )
    reg["linear-ai"] = _linear_field(
        "linear-ai",
        [[0.0, 1.0], [-1.0, 0.0]],
        "harmonic rotation; eigenvalues +-i (recurrent, like rotation-c)",
        100.0,
    )
    reg["limit-cycle"] = VectorField(
        name="limit-cycle",
        dim=2,
        components=(
            lambda x1, x2: -x2 + x1 * (1.0 - x1 * x1 - x2 * x2),
            lambda x1, x2: x1 + x2 * (1.0 - x1 * x1 - x2 * x2),
        ),
        domain=[(-10.0, 10.0)] * 2,
        jacobian=lambda x: np.array(
            [
                [1.0 - 3.0 * x[0] ** 2 - x[1] ** 2, -1.0 - 2.0 * x[0] * x[1]],
                [1.0 - 2.0 * x[0] * x[1], 1.0 - x[0] ** 2 - 3.0 * x[1] ** 2],
            ]
        ),
        note="attracting unit circle; unit angular speed",
    )
    reg["appendix"] = VectorField(
        name="appendix",
        dim=2,
        components=(lambda x1, x2: x1, lambda x1, x2: -x2 + x1 * x1),
        domain=[(-10.0, 10.0)] * 2,
        jacobian=lambda x: np.array([[1.0, 0.0], [2.0 * x[0], -1.0]]),
        note="orbit-wise eigenfunction counterexample system",
    )
    return reg


_REGISTRY = _build_registry()


def builtin_names() -> list:
    return sorted(_REGISTRY)


def builtin(name: str) -> VectorField:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; built-ins: {', '.join(builtin_names())}"
        ) from None
