import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowbox import dynsys
from flowbox.dynsys import (
    OutOfDomainError,
    VectorField,
    builtin,
    builtin_names,
    parse_system,
    system_from_json,
)
from flowbox.fdiff import fd_jacobian


def test_registry_contents():
    names = builtin_names()
    assert len(names) >= 8
    assert names == sorted(names)
    for required in [
        "source-a",
        "hyperbolic-b",
        "rotation-c",
        "linear-ar",
        "linear-ac",
        "linear-ai",
        "limit-cycle",
        "appendix",
    ]:
        assert required in names


def test_rotation_note_mentions_recurrence():
    assert "no non-recurrent surface" in builtin("rotation-c").note


@pytest.mark.parametrize(
    "name,x,expected",
    [
        ("source-a", (2.0, -3.0), (2.0, -3.0)),
        ("hyperbolic-b", (2.0, 3.0), (-2.0, 3.0)),
        ("rotation-c", (1.0, 2.0), (2.0, -1.0)),
        ("linear-ar", (1.0, 1.0), (3.0, 3.0)),      # (1,1) spans the lambda=3 line
        ("linear-ar", (1.0, -1.0), (8.0, -8.0)),    # (1,-1) spans the lambda=8 line
        ("appendix", (2.0, 1.0), (2.0, 3.0)),
        ("limit-cycle", (1.0, 0.0), (0.0, 1.0)),    # unit angular speed on the cycle
    ],
)
def test_builtin_eval(name, x, expected):
    field = builtin(name)
    np.testing.assert_allclose(field.eval(np.array(x)), expected, atol=1e-14)


def test_linear_ac_matrix():
    field = builtin("linear-ac")
    A = field.jacobian(np.zeros(2))
    eigs = np.sort_complex(np.linalg.eigvals(A))
    lam = complex(-9.0 / 20.0, np.sqrt(15.0) / 20.0)
    np.testing.assert_allclose(eigs, [np.conj(lam), lam], atol=1e-12)


def test_equilibria_are_equilibria():
    # every built-in has its fixed point at the origin
    for name in builtin_names():
        field = builtin(name)
        assert not np.any(field.eval(np.zeros(field.dim))), name


def test_domain_enforcement():
    field = builtin("source-a")
    with pytest.raises(OutOfDomainError):
        field.eval(np.array([11.0, 0.0]))
    # explicit bypass for integrator internals
    np.testing.assert_allclose(
        field.eval(np.array([11.0, 0.0]), check_domain=False), [11.0, 0.0]
    )
    assert not field.contains([0.0, 10.1])
    assert field.contains([0.0, 10.0])


def test_eval_takes_row_stacks(rng):
    # a stack's rows evaluate as single points do, and a row outside the
    # box fails the whole call, named
    field = builtin("limit-cycle")
    stack = rng.uniform(-2.0, 2.0, (3, 4, 2))
    rows = np.array([[field.eval(x) for x in row] for row in stack])
    np.testing.assert_array_equal(field.eval(stack), rows)
    stack[2, 1] = (0.5, 10.5)
    np.testing.assert_array_equal(field.contains(stack), np.arange(12).reshape(3, 4) != 9)
    with pytest.raises(OutOfDomainError, match=re.escape("[0.5, 10.5]")):
        field.eval(stack)
    with pytest.raises(ValueError, match=re.escape("expected points (..., 2)")):
        field.eval(np.zeros((4, 3)))


def test_jacobian_matches_finite_differences(rng):
    for name in ["linear-ar", "limit-cycle", "appendix"]:
        field = builtin(name)
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, size=2)
            num = fd_jacobian(lambda p: field.eval(p, check_domain=False), x)
            np.testing.assert_allclose(
                np.real(num), field.jacobian(x), rtol=1e-6, atol=1e-6
            )


def test_parse_system_round_trip():
    field = parse_system("x2, -x1 + x2^2", 2, name="oscillator")
    spec = {"name": "oscillator", "dim": 2, "components": ["x2", "-x1 + x2^2"]}
    clone = system_from_json(json.dumps(spec))
    for pt in [(0.5, 0.25), (-1.0, 2.0)]:
        np.testing.assert_allclose(
            clone.eval(np.array(pt)), field.eval(np.array(pt)), rtol=1e-14
        )
    assert clone.name == "oscillator"


def test_parse_system_component_count():
    from flowbox.expressions import ExpressionError

    with pytest.raises(ExpressionError):
        parse_system("x1, x2, x1", 2)


def test_vectorfield_validation():
    with pytest.raises(ValueError):
        VectorField(
            name="bad",
            dim=2,
            components=(lambda x1, x2: x1,),
            domain=[(-1, 1)] * 2,
        )
    with pytest.raises(ValueError):
        VectorField(
            name="bad",
            dim=1,
            components=(lambda x1: x1,),
            domain=[(1.0, -1.0)],
        )


@given(
    x=st.floats(min_value=-5, max_value=5),
    y=st.floats(min_value=-5, max_value=5),
)
def test_linear_ar_is_its_matrix(x, y):
    field = builtin("linear-ar")
    A = np.array([[5.5, -2.5], [-2.5, 5.5]])
    np.testing.assert_allclose(
        field.eval(np.array([x, y])), A @ np.array([x, y]), rtol=1e-13, atol=1e-13
    )
