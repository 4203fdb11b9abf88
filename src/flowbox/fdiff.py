"""Central finite differences for black-box callables."""
from __future__ import annotations

import functools

import numpy as np

__all__ = ["stencil", "fd_gradient", "fd_gradient_rows", "fd_jacobian"]


@functools.lru_cache(maxsize=64)
def _offsets(n: int, step: float) -> np.ndarray:
    """(n, 2, n): step e_i, then -step e_i.  Adding -step and -0.0 gives
    x - step and x - 0.0 to the bit."""
    offsets = np.eye(n)[:, None, :] * [[step], [-step]]
    offsets.flags.writeable = False
    return offsets


def stencil(x, step: float = 1e-5) -> np.ndarray:
    """The central-difference points of every row of x (..., N), shape
    (..., N, 2, N): axis by axis, x + step e_i before x - step e_i."""
    x = np.asarray(x, dtype=float)
    return x[..., None, None, :] + _offsets(x.shape[-1], float(step))


def fd_gradient_rows(fn, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient at every row of x (..., N), from one call
    of fn over the stencil points of all rows stacked as rows, in stencil
    order.  fn maps (R, N) rows to R values of any dtype and shape V; the
    result has shape (..., N, *V)."""
    x = np.asarray(x, dtype=float)
    pts = stencil(x, step)
    f = np.asarray(fn(pts.reshape(-1, x.shape[-1])))
    f = f.reshape(pts.shape[:-1] + f.shape[1:])  # (..., N, 2, *V)
    rows = (slice(None),) * x.ndim
    return (f[rows + (0,)] - f[rows + (1,)]) / (2.0 * step)


def _per_row(fn):
    """fn of one point as a function of (R, N) rows, called row by row, so the
    first failing stencil point raises first."""
    return lambda pts: np.asarray([fn(p) for p in pts])


def fd_gradient(fn, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar (possibly complex) function;
    a vector-valued fn gives shape (N, *V)."""
    return fd_gradient_rows(_per_row(fn), x, step)


def fd_jacobian(fn, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a vector function; columns index x."""
    return np.moveaxis(fd_gradient_rows(_per_row(fn), x, step), 0, -1)
