import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowbox.expressions import (
    DomainError,
    ExpressionError,
    parse_expression,
    parse_expression_list,
)

X12 = ["x1", "x2"]


def ev(text, *coords, variables=X12):
    node = parse_expression(text, variables[: len(coords)] if coords else variables)
    return node.evaluate(coords)


def test_number_literal():
    assert ev("3.5") == 3.5
    assert ev("2e-3") == 2e-3
    assert ev(".25") == 0.25


def test_precedence_and_associativity():
    assert ev("2 + 3*4") == 14.0
    assert ev("2*3 + 4") == 10.0
    assert ev("10 - 4 - 3") == 3.0          # left assoc
    assert ev("2^3^2") == 512.0             # right assoc
    assert ev("-2^2") == -4.0               # unary binds looser than power
    assert ev("(2 + 3)*4") == 20.0


def test_variables_positional():
    assert ev("x1 - 2*x2", 5.0, 1.0) == 3.0
    node = parse_expression("x3", ["x1", "x2", "x3"])
    assert node.evaluate((0.0, 0.0, 7.0)) == 7.0


@pytest.mark.parametrize(
    "text,point,expected",
    [
        ("sin(x1)", (math.pi / 2,), 1.0),
        ("cos(x1)", (0.0,), 1.0),
        ("exp(x1)", (1.0,), math.e),
        ("ln(x1)", (math.e,), 1.0),
        ("sqrt(x1)", (9.0,), 3.0),
        ("atan2(x1, x2)", (1.0, 1.0), math.pi / 4),
    ],
)
def test_functions(text, point, expected):
    variables = ["x1", "x2"][: len(point)]
    node = parse_expression(text, variables)
    assert node.evaluate(point) == pytest.approx(expected, rel=1e-15)


def test_power_rules():
    assert ev("(-2)^3") == -8.0
    assert ev("4^0.5") == 2.0
    with pytest.raises(DomainError):
        ev("(-4)^0.5")
    with pytest.raises(DomainError):
        ev("0^(-1)")


@pytest.mark.parametrize(
    "text",
    ["ln(0)", "ln(-1)", "sqrt(-4)", "1/0"],
)
def test_domain_errors(text):
    with pytest.raises(DomainError):
        ev(text)


def test_unknown_identifier_reports_position():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("x1 + bogus", X12)
    assert exc.value.position == 5


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1 +",
        "(1 + 2",
        "sin()",
        "sin(1, 2)",
        "atan2(1)",
        "1 2",
        "x1 @ x2",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ExpressionError):
        parse_expression(text, X12)


def test_expression_list():
    nodes = parse_expression_list("x2, -x1", X12)
    assert len(nodes) == 2
    assert nodes[0].evaluate((3.0, 4.0)) == 4.0
    assert nodes[1].evaluate((3.0, 4.0)) == -3.0
    # atan2 commas must not split the list
    nodes = parse_expression_list("atan2(x1, x2), x1", X12)
    assert len(nodes) == 2


finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


@given(a=finite, b=finite, x=finite)
def test_affine_agrees_with_python(a, b, x):
    node = parse_expression(f"{a!r} + {b!r}*x1", ["x1"])
    assert node.evaluate((x,)) == pytest.approx(a + b * x, rel=1e-12, abs=1e-12)


@given(x=st.floats(min_value=-3, max_value=3), y=st.floats(min_value=-3, max_value=3))
def test_grid_broadcast_matches_scalar(x, y):
    node = parse_expression("x1*x2 + sin(x1)", X12)
    arr = node.evaluate((np.array([x, 0.0]), np.array([y, 1.0])))
    assert float(arr[0]) == pytest.approx(x * y + math.sin(x), rel=1e-12, abs=1e-12)
