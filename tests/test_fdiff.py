import numpy as np
import pytest

from flowbox.fdiff import fd_gradient, fd_gradient_rows, fd_jacobian, stencil


def complex_vector(x):
    # (R, 2) rows -> (R, 3) complex values
    x = np.atleast_2d(x)
    return np.stack([np.exp(1j * x[:, 0]) * x[:, 1], x[:, 0] ** 3, x[:, 0] * x[:, 1]],
                    axis=-1)


def test_stencil_orders_axes_and_plus_before_minus():
    pts = stencil(np.array([[1.0, 2.0]]), 0.5)
    np.testing.assert_array_equal(
        pts, [[[[1.5, 2.0], [0.5, 2.0]], [[1.0, 2.5], [1.0, 1.5]]]])


def test_gradient_rows_takes_values_of_any_dtype_and_shape():
    X = np.linspace(0.1, 1.2, 12).reshape(2, 3, 2)
    got = fd_gradient_rows(complex_vector, X)
    assert got.shape == (2, 3, 2, 3) and got.dtype == complex
    for lead in np.ndindex(2, 3):
        x = X[lead]
        # the central difference written out, value by value
        want = [(complex_vector(x + e)[0] - complex_vector(x - e)[0]) / 2e-5
                for e in np.eye(2) * 1e-5]
        np.testing.assert_array_equal(got[lead], want)
        np.testing.assert_array_equal(fd_gradient(lambda y: complex_vector(y)[0], x),
                                      want)
        np.testing.assert_array_equal(fd_jacobian(lambda y: complex_vector(y)[0], x),
                                      np.transpose(want))


def test_gradient_calls_point_by_point_and_the_first_failure_raises():
    seen = []

    def fn(y):
        seen.append(tuple(y))
        if y[1] > 2.0:
            raise ZeroDivisionError(f"at {y.tolist()}")
        return float(y.sum())

    with pytest.raises(ZeroDivisionError, match=r"at \[1.0, 2.5\]"):
        fd_gradient(fn, np.array([1.0, 2.0]), 0.5)
    assert seen == [(1.5, 2.0), (0.5, 2.0), (1.0, 2.5)]
