"""Tiny closed expression language for model coefficients.

Supported forms: numeric literals, the variables ``u`` (density), ``p``
(spatial density gradient), ``a`` (age), ``x`` (position), sums,
differences, products, unary minus, nonnegative integer powers written
``expr^k`` (or ``expr**k``), and ``exp(expr)``.  Division is excluded on
purpose so that evaluation is total on finite inputs.

Expressions are immutable trees; structural equality doubles as semantic
identity for the serialize/parse round trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

VARIABLES = ("u", "p", "a", "x")


class ExprError(ValueError):
    """Raised for malformed expression text or bad evaluation input."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Exp:
    arg: "Expr"


Expr = Union[Num, Var, Neg, Add, Sub, Mul, Pow, Exp]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>\*\*|[()+\-*^]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExprError(f"unexpected character {text[pos]!r} at position {pos} in {text!r}")
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# parse_expr rejects a tree more than MAX_DEPTH nodes high, and text that
# nests parentheses, minus signs and exp calls more than MAX_DEPTH deep:
# evaluate, diff and to_text recurse once per level of the tree, and the
# parser once per level of the text, so both stay far from Python's limit.
# Each parser rule returns its tree and the tree's height; level counts
# the parentheses, minus signs and exp calls open around it.
MAX_DEPTH = 100


def _checked(depth: int) -> int:
    if depth > MAX_DEPTH:
        raise ExprError(f"expression nests deeper than {MAX_DEPTH} levels")
    return depth


# binary operators by precedence, loosest first: expr parses a
# left-associative chain of one level's operators over the next level, and
# of the last level's over unary
_BINARY = ({"+": Add, "-": Sub}, {"*": Mul})


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.advance()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r} at position {pos} in {self.text!r}")

    def parse(self) -> Expr:
        node, _ = self.expr(0)
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"trailing input {val!r} at position {pos} in {self.text!r}")
        return node

    def expr(self, level: int, prec: int = 0) -> tuple[Expr, int]:
        if prec == len(_BINARY):
            return self.unary(level)
        node, height = self.expr(level, prec + 1)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in _BINARY[prec]:
                self.advance()
                rhs, h = self.expr(level, prec + 1)
                node, height = _BINARY[prec][val](node, rhs), _checked(1 + max(height, h))
            else:
                return node, height

    def unary(self, level: int) -> tuple[Expr, int]:
        _checked(level)
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            arg, height = self.unary(level + 1)
            return Neg(arg), _checked(height + 1)
        return self.power(level)

    def power(self, level: int) -> tuple[Expr, int]:
        base, height = self.atom(level)
        kind, val, pos = self.peek()
        if kind == "op" and val in ("^", "**"):
            self.advance()
            kind, val, pos = self.advance()
            if kind != "num" or not re.fullmatch(r"\d+", val):
                raise ExprError(f"exponent must be a nonnegative integer at position {pos} in {self.text!r}")
            return Pow(base, int(val)), _checked(height + 1)
        return base, height

    def atom(self, level: int) -> tuple[Expr, int]:
        kind, val, pos = self.advance()
        if kind == "num":
            return Num(float(val)), 1
        if kind == "name":
            if val == "exp":
                self.expect_op("(")
                arg, height = self.expr(level + 1)
                self.expect_op(")")
                return Exp(arg), _checked(height + 1)
            if val in VARIABLES:
                return Var(val), 1
            raise ExprError(f"unknown name {val!r} at position {pos} in {self.text!r}")
        if kind == "op" and val == "(":
            node = self.expr(level + 1)
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {val!r} at position {pos} in {self.text!r}")


def parse_expr(text: str) -> Expr:
    """Parse expression text into an immutable tree."""
    return _Parser(text).parse()


# precedence levels used for minimal re-parenthesization; a binary
# operator's level is its place in _BINARY, counted from 1
_PREC_NEG, _PREC_POW, _PREC_ATOM = 3, 4, 5
_PREC = {
    Neg: _PREC_NEG, Pow: _PREC_POW, Num: _PREC_ATOM, Var: _PREC_ATOM, Exp: _PREC_ATOM,
    **{cls: level for level, ops in enumerate(_BINARY, start=1) for cls in ops.values()},
}
_SYMBOL = {cls: symbol for ops in _BINARY for symbol, cls in ops.items()}


def _wrap(node: Expr, parent_prec: int, right_side: bool = False) -> str:
    text = to_text(node)
    p = _PREC[type(node)]
    if p < parent_prec or (right_side and p == parent_prec):
        return f"({text})"
    return text


def to_text(node: Expr) -> str:
    """Render a tree back to text; parse(to_text(e)) is structurally e."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, _PREC_NEG)
    if isinstance(node, (Add, Sub, Mul)):
        prec = _PREC[type(node)]
        return f"{_wrap(node.left, prec)} {_SYMBOL[type(node)]} {_wrap(node.right, prec, True)}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, _PREC_ATOM)}^{node.exponent}"
    if isinstance(node, Exp):
        return f"exp({to_text(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


def variables(node: Expr) -> frozenset[str]:
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Num):
        return frozenset()
    if isinstance(node, (Neg, Exp)):
        return variables(node.arg)
    if isinstance(node, Pow):
        return variables(node.base)
    return variables(node.left) | variables(node.right)


def evaluate(node: Expr, env: dict[str, object]):
    """Evaluate on scalars or numpy arrays; missing variables are an error."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise ExprError(f"variable {node.name!r} not supplied") from None
    if isinstance(node, Neg):
        return -evaluate(node.arg, env)
    if isinstance(node, Add):
        return evaluate(node.left, env) + evaluate(node.right, env)
    if isinstance(node, Sub):
        return evaluate(node.left, env) - evaluate(node.right, env)
    if isinstance(node, Mul):
        return evaluate(node.left, env) * evaluate(node.right, env)
    if isinstance(node, Pow):
        base = evaluate(node.base, env)
        try:
            return base ** node.exponent
        except OverflowError:  # a Python float's; numpy's power gives the infinity, as on arrays
            return np.float64(base) ** node.exponent
    if isinstance(node, Exp):
        return np.exp(evaluate(node.arg, env))
    raise TypeError(f"not an expression node: {node!r}")


@lru_cache(maxsize=256)
def diff(node: Expr, var: str) -> Expr:
    """Symbolic derivative in var; a subtree free of var gives Num(0.0)."""
    if var not in variables(node) or isinstance(node, Pow) and node.exponent == 0:
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        return Neg(diff(node.arg, var))
    if isinstance(node, (Add, Sub)):
        return type(node)(diff(node.left, var), diff(node.right, var))
    if isinstance(node, Mul):
        return Add(Mul(diff(node.left, var), node.right), Mul(node.left, diff(node.right, var)))
    if isinstance(node, Pow):
        return Mul(Mul(Num(float(node.exponent)), Pow(node.base, node.exponent - 1)), diff(node.base, var))
    return Mul(node, diff(node.arg, var))  # an Exp: every other node is handled above


def evaluate_on(node: Expr, shape: tuple[int, ...], **env) -> np.ndarray:
    """Evaluate and broadcast the result to a float array of the given shape."""
    out = np.asarray(evaluate(node, env), dtype=float)
    if out.shape == shape:
        return out
    return np.full(shape, out)
