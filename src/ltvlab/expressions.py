"""Tiny expression language for coefficient formulas in the step index n.

Grammar (one variable, five functions, four operators, unary minus):

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | atom
    atom  := NUMBER | 'n' | FUNC '(' args ')' | '(' expr ')'
    FUNC  := sin | cos | ln | exp | pow      (pow takes two arguments)

The grammar is a subset of Python's, so a formula, one line of printable
ASCII, is parsed with ``ast`` and checked node by node; a number must be
finite.  Errors give the line and column of the rejected construct, even
for nesting too deep for Python.  A formula compiles to numpy code over
one n or an array of n.  It never raises on a bad value: a division by
zero or an overflow gives inf, and a logarithm or fractional power of a
negative number NaN.
"""

import ast
import re
import warnings

import numpy as np

from .errors import ParseError

_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_BAD_CHARACTER = re.compile(r"[^\t -~]|#")  # a line break, non-ASCII, a comment
_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_FUNCTIONS = {"sin": "_sin", "cos": "_cos", "ln": "_log", "exp": "_exp", "pow": "_pow"}
_ENV = {"_sin": np.sin, "_cos": np.cos, "_log": np.log, "_exp": np.exp, "_pow": np.power}


class Expression:
    """A parsed formula over the variable n."""

    def __init__(self, fn, source):
        self._fn = fn
        self.source = source

    def __call__(self, n):
        """Value at step n (a float), or at each entry of an array of n."""
        # a scalar runs as a one-entry array, so it takes the same ufunc
        # loops as an array and agrees with it bit for bit
        x = np.ascontiguousarray(n, dtype=float)
        with np.errstate(all="ignore"):
            value = self._fn(x)
        if np.ndim(n) == 0:
            return float(value[0]) if np.ndim(value) else float(value)
        if np.shape(value) != x.shape:  # a formula without n
            value = np.full(x.shape, value)
        return value

    def __repr__(self):
        return f"Expression({self.source!r})"


def _render(node, text, env):
    """Python source for ``node`` of the parse tree of ``text``; literals become
    numpy floats in ``env``, so even a formula without n follows numpy's rules."""
    segment = text[node.col_offset : node.end_col_offset]
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
        value = np.float64(float(segment))
        if not np.isfinite(value):  # a literal too large for a float, such as 1e400
            raise ParseError(f"number {segment!r} is not finite", 1, node.col_offset + 1)
        name = f"_c{len(env) - len(_ENV)}"
        env[name] = value
        return name
    if isinstance(node, ast.Name) and node.id == "n":
        return "n"
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return f"(-{_render(node.operand, text, env)})"
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        op = _OPERATORS[type(node.op)]
        return f"({_render(node.left, text, env)}{op}{_render(node.right, text, env)})"
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FUNCTIONS:
        fn, arity = _FUNCTIONS[node.func.id], _ENV[_FUNCTIONS[node.func.id]].nin
        if len(node.args) != arity or node.keywords or segment[:-1].rstrip().endswith(","):
            expected = f"{node.func.id}({', '.join('xy'[:arity])})"
            raise ParseError(f"expected {expected}, got {segment!r}", 1, node.col_offset + 1)
        return f"{fn}({', '.join(_render(arg, text, env) for arg in node.args)})"
    raise ParseError(f"{segment!r} is not in the formula grammar", 1, node.col_offset + 1)


def parse_expression(text):
    """Parse ``text`` into an Expression.  Raises ParseError on bad input."""
    text = text.strip()
    if bad := _BAD_CHARACTER.search(text):
        raise ParseError(f"unexpected character {bad.group()!r}", 1, bad.start() + 1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a SyntaxWarning such as 1if marks bad input
            tree = ast.parse(text, mode="eval")
    except (SyntaxError, RecursionError, ValueError) as exc:
        column = min(max(getattr(exc, "offset", None) or 1, 1), len(text) + 1)
        raise ParseError(getattr(exc, "msg", str(exc)), 1, column) from None
    env = dict(_ENV)
    try:
        source = _render(tree.body, text, env)
        fn = eval(f"lambda n: {source}", env)  # code generated from a checked parse tree
    except (SyntaxError, RecursionError):  # Python's own nesting limits
        raise ParseError("formula nests too deeply", 1, 1) from None
    return Expression(fn, text)
