"""Parsing and evaluation of scalar arithmetic expressions.

Vector-field components and surface parameterizations are written as plain
text ("x2", "-x1 + x2^3", "atan2(x1, x2)") over a declared variable list.
Parsing produces small immutable ASTs that evaluate on floats and numpy
arrays alike, with explicit domain checking (division by zero, logs of
non-positive values, fractional powers of negative bases).

Grammar, loosest to tightest binding: ``+ -`` < ``* /`` < unary ``-`` < ``^``
(right associative).  Whitespace is insignificant.
"""
from __future__ import annotations

import dataclasses
import re
from typing import Sequence, Union

import numpy as np

__all__ = [
    "ExpressionError",
    "DomainError",
    "parse_expression",
    "parse_expression_list",
]


class ExpressionError(ValueError):
    """Malformed expression text: syntax, arity, or unknown identifier."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ArithmeticError):
    """The expression was evaluated where it is mathematically undefined."""


# ---------------------------------------------------------------------------
# AST nodes


@dataclasses.dataclass(frozen=True)
class Num:
    value: float

    def evaluate(self, coords):
        return self.value


@dataclasses.dataclass(frozen=True)
class Var:
    index: int
    name: str

    def evaluate(self, coords):
        return coords[self.index]


@dataclasses.dataclass(frozen=True)
class Neg:
    operand: "Node"

    def evaluate(self, coords):
        return -np.asarray(self.operand.evaluate(coords))


@dataclasses.dataclass(frozen=True)
class Call:
    name: str
    args: tuple

    def evaluate(self, coords):
        vals = [np.asarray(a.evaluate(coords), dtype=float) for a in self.args]
        if self.name == "ln":
            if np.any(vals[0] <= 0.0):
                raise DomainError("ln of a non-positive value")
            return np.log(vals[0])
        if self.name == "sqrt":
            if np.any(vals[0] < 0.0):
                raise DomainError("sqrt of a negative value")
            return np.sqrt(vals[0])
        if self.name == "atan2":
            return np.arctan2(vals[0], vals[1])
        if self.name == "sin":
            return np.sin(vals[0])
        if self.name == "cos":
            return np.cos(vals[0])
        return np.exp(vals[0])  # "exp": arity checked at parse time


@dataclasses.dataclass(frozen=True)
class Bin:
    op: str
    lhs: "Node"
    rhs: "Node"

    def evaluate(self, coords):
        a = np.asarray(self.lhs.evaluate(coords), dtype=float)
        b = np.asarray(self.rhs.evaluate(coords), dtype=float)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if np.any(b == 0.0):
                raise DomainError("division by zero")
            return a / b
        # power: negative bases only with integer exponents
        frac = b != np.floor(b)
        if np.any((a < 0.0) & frac):
            raise DomainError("fractional power of a negative base")
        if np.any((a == 0.0) & (b < 0.0)):
            raise DomainError("zero raised to a negative power")
        return np.power(a, b)


Node = Union[Num, Var, Neg, Call, Bin]

_FUNCTION_ARITY = {"sin": 1, "cos": 1, "exp": 1, "ln": 1, "sqrt": 1, "atan2": 2}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip trailing whitespace; anything else is a lex error
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExpressionError(f"unexpected character {text[bad]!r}", bad)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list."""

    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.variables = list(variables)
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", pos)
        return self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = Bin(value, node, self.term())
            else:
                return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = Bin(value, node, self.unary())
            else:
                return node

    # unary := '-' unary | power
    def unary(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    # power := atom ('^' unary)?   -- right associative, binds above unary minus
    def power(self) -> Node:
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Bin("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            if value in _FUNCTION_ARITY:
                self.expect_op("(")
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                want = _FUNCTION_ARITY[value]
                if len(args) != want:
                    raise ExpressionError(
                        f"{value} expects {want} argument{'s' if want > 1 else ''},"
                        f" got {len(args)}",
                        pos,
                    )
                return Call(value, tuple(args))
            try:
                index = self.variables.index(value)
            except ValueError:
                raise ExpressionError(f"unknown identifier {value!r}", pos) from None
            return Var(index, value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(
            "unexpected end of expression" if kind == "end" else f"unexpected {value!r}",
            pos,
        )


def parse_expression(text: str, variables: Sequence[str]) -> Node:
    """Parse one expression over the given variable names."""
    parser = _Parser(text, variables)
    node = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ExpressionError(f"unexpected {value!r}", pos)
    return node


def parse_expression_list(text: str, variables: Sequence[str]) -> list:
    """Parse a comma-separated list of expressions (commas inside calls bind tighter)."""
    parser = _Parser(text, variables)
    nodes = [parser.expr()]
    while parser.peek()[:2] == ("op", ","):
        parser.advance()
        nodes.append(parser.expr())
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ExpressionError(f"unexpected {value!r}", pos)
    return nodes

