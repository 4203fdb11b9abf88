"""Central finite differences for black-box callables."""
from __future__ import annotations

import numpy as np

__all__ = ["central_pairs", "fd_gradient", "fd_jacobian"]


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


def fd_gradient(fn, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar (possibly complex) function."""
    return np.array([(fn(a) - fn(b)) / (2.0 * step) for a, b in central_pairs(x, step)])


def fd_jacobian(fn, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a vector function; columns index x."""
    cols = [(np.asarray(fn(a)) - np.asarray(fn(b))) / (2.0 * step)
            for a, b in central_pairs(x, step)]
    return np.stack(cols, axis=-1)
