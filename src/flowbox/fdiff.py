"""Central finite differences for black-box callables."""
from __future__ import annotations

import numpy as np

__all__ = ["central_pairs", "fd_gradient", "fd_gradient_rows", "fd_jacobian"]


def central_pairs(x, step: float = 1e-5) -> list:
    """[(x + step e_i, x - step e_i)] for i = 1..N: the points the central
    differences below evaluate, in the order they evaluate them."""
    x = np.asarray(x, dtype=float)
    pairs = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        pairs.append((x + e, x - e))
    return pairs


def fd_gradient_rows(fn, x, step: float = 1e-5) -> np.ndarray:
    """fd_gradient at every row of x (..., N), from one call of fn over the
    central_pairs points of all rows stacked as rows, row by row and axis by
    axis, + before -; fn must map (R, N) rows to R values."""
    x = np.asarray(x, dtype=float)
    e = np.eye(x.shape[-1]) * step
    pts = np.stack([x[..., None, :] + e, x[..., None, :] - e], axis=-2)  # (..., N, 2, N)
    f = np.asarray(fn(pts.reshape(-1, x.shape[-1])), dtype=float).reshape(pts.shape[:-1])
    return (f[..., 0] - f[..., 1]) / (2.0 * step)


def fd_gradient(fn, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar (possibly complex) function."""
    return np.array([(fn(a) - fn(b)) / (2.0 * step) for a, b in central_pairs(x, step)])


def fd_jacobian(fn, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a vector function; columns index x."""
    cols = [(np.asarray(fn(a)) - np.asarray(fn(b))) / (2.0 * step)
            for a, b in central_pairs(x, step)]
    return np.stack(cols, axis=-1)
