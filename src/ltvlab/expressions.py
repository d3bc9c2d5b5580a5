"""Tiny expression language for coefficient formulas in the step index n.

Grammar (one variable, five functions, four operators, unary minus):

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | atom
    atom  := NUMBER | 'n' | FUNC '(' args ')' | '(' expr ')'
    FUNC  := sin | cos | ln | exp | pow      (pow takes two arguments)

Parsing is deterministic; errors carry line and column.  A parsed
expression compiles to numpy code and evaluates at one n or at an array of
n in a single call.  Evaluation never raises on a bad value: a division by
zero gives inf, an overflow inf, and a logarithm or fractional power of a
negative number NaN, which the caller's finite check then rejects.
"""

import re

import numpy as np

from .errors import ParseError

_FUNCTIONS = {"sin": 1, "cos": 1, "ln": 1, "exp": 1, "pow": 2}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[()+\-*/,]))"
)


class Expression:
    """A parsed formula over the variable n."""

    def __init__(self, node, source):
        self._node = node
        self.source = source
        self._fn = _compile_node(node)

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


def _tokenize(text):
    tokens = []
    line, col_base = 1, 0
    pos = 0
    while pos < len(text):
        # track line numbers through skipped whitespace
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            line = text.count("\n", 0, bad_pos) + 1
            col = bad_pos - (text.rfind("\n", 0, bad_pos) + 1) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        start = m.start(m.lastgroup)
        line = text.count("\n", 0, start) + 1
        col = start - (text.rfind("\n", 0, start) + 1) + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), line, col))
        pos = m.end()
    tokens.append(("end", "", line, col_base + len(text) - (text.rfind("\n") + 1) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, val, line, col = self.peek()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", line, col)
        return self.next()

    def parse(self):
        node = self.expr()
        kind, val, line, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", line, col)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.unary()
            node = (op, node, rhs)
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.next()
            return ("neg", self.unary())
        return self.atom()

    def atom(self):
        kind, val, line, col = self.next()
        if kind == "number":
            return ("lit", float(val))
        if kind == "name":
            if val == "n":
                return ("var",)
            if val in _FUNCTIONS:
                self.expect("(")
                args = [self.expr()]
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != _FUNCTIONS[val]:
                    raise ParseError(
                        f"{val} takes {_FUNCTIONS[val]} argument(s), got {len(args)}", line, col
                    )
                return (val, *args)
            raise ParseError(f"unknown function or variable {val!r}", line, col)
        if val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {val or 'end of input'!r}", line, col)


def _render(node, literals):
    """Python source for ``node``; literals become numpy floats named in
    ``literals``, so that even a formula without n follows numpy's rules."""
    kind = node[0]
    if kind == "lit":
        literals.append(np.float64(node[1]))
        return f"_c{len(literals) - 1}"
    if kind == "var":
        return "n"
    if kind == "neg":
        return f"(-{_render(node[1], literals)})"
    if kind in ("+", "-", "*", "/"):
        return f"({_render(node[1], literals)}{kind}{_render(node[2], literals)})"
    if kind == "ln":
        return f"_log({_render(node[1], literals)})"
    if kind == "pow":
        return f"_pow({_render(node[1], literals)}, {_render(node[2], literals)})"
    return f"_{kind}({_render(node[1], literals)})"


def _compile_node(node):
    literals = []
    source = _render(node, literals)
    env = {"_sin": np.sin, "_cos": np.cos, "_log": np.log, "_exp": np.exp, "_pow": np.power}
    env.update((f"_c{i}", value) for i, value in enumerate(literals))
    return eval(f"lambda n: {source}", env)  # code generated from our own AST


def parse_expression(text):
    """Parse ``text`` into an Expression.  Raises ParseError on bad input."""
    tokens = _tokenize(text)
    node = _Parser(tokens).parse()
    return Expression(node, text.strip())
