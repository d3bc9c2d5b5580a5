import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ltvlab import ParseError, parse_expression


def test_literals_and_variable():
    assert parse_expression("3")(1) == 3.0
    assert parse_expression("3.5e2")(1) == 350.0
    assert parse_expression("n")(7) == 7.0


def test_arithmetic_precedence():
    e = parse_expression("1 + 2*3 - 4/2")
    assert e(1) == pytest.approx(5.0)
    assert parse_expression("2*(n+1)")(3) == pytest.approx(8.0)
    assert parse_expression("-n*2")(5) == pytest.approx(-10.0)
    assert parse_expression("--3")(1) == pytest.approx(3.0)


def test_functions():
    assert parse_expression("sin(0)")(1) == pytest.approx(0.0)
    assert parse_expression("cos(0)")(1) == pytest.approx(1.0)
    assert parse_expression("ln(exp(2))")(1) == pytest.approx(2.0)
    assert parse_expression("pow(2, 10)")(1) == pytest.approx(1024.0)
    assert parse_expression("exp(n*sin(ln(n)))")(5) == pytest.approx(
        math.exp(5 * math.sin(math.log(5)))
    )


def test_nested_against_math_module():
    e = parse_expression("exp(2*((n+1)*sin(ln(n+1)) - n*sin(ln(n))))")
    for n in range(1, 50):
        direct = math.exp(
            2 * ((n + 1) * math.sin(math.log(n + 1)) - n * math.sin(math.log(n)))
        )
        assert e(n) == pytest.approx(direct, rel=1e-14)


@pytest.mark.parametrize("text, column", [("1e400", 1), ("n + 2*1e400", 7), ("-1e999*n", 2)])
def test_non_finite_literal_is_a_parse_error(text, column):
    with pytest.raises(ParseError, match="not finite") as info:
        parse_expression(text)
    assert (info.value.line, info.value.column) == (1, column)
    assert parse_expression("1e308*10")(1) == math.inf  # an overflow in evaluation is a value


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_expression("1 + $")
    assert info.value.line == 1
    assert info.value.column == 5

    with pytest.raises(ParseError):
        parse_expression("sin(1, 2)")  # wrong arity
    with pytest.raises(ParseError):
        parse_expression("pow(2)")
    with pytest.raises(ParseError):
        parse_expression("foo(3)")
    with pytest.raises(ParseError):
        parse_expression("1 +")
    with pytest.raises(ParseError):
        parse_expression("(1 + 2")
    with pytest.raises(ParseError):
        parse_expression("1 2")


REJECTED = [
    "n**2", "n % 2", "n // 2", "+n", "n < 1", "1_000", "0x10", "1j", "True", "n.real",
    "__import__('os')", "sin", "n(1)", "sin(x=1)", "(n, n)", "[n]", "lambda: 1",
    "n if n else 1", "2n", "n +\n 1", "",
    # Python's parser takes these, the formula grammar does not
    "sin(n,)", "sin(n, x=1)", "sin(*n)", "n # comment", "1if n else 2",
]


@pytest.mark.parametrize("text", REJECTED)
def test_constructs_outside_the_grammar_are_rejected(text, recwarn):
    # no attribute, builtin, keyword or other Python construct reaches eval
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert info.value.line == 1
    assert 1 <= info.value.column <= len(text) + 1
    assert not recwarn.list  # not even a SyntaxWarning from Python's parser


def test_repr_round_trip_source():
    e = parse_expression("  n + 1 ")
    assert e.source == "n + 1"
    assert "n + 1" in repr(e)


# --- properties over random formula trees ------------------------------

LEAVES = st.one_of(
    st.just(("n",)),
    st.floats(0.0, 100.0).map(lambda v: ("lit", v)),
    st.integers(0, 5).map(lambda v: ("lit", float(v))),
)
TREES = st.recursive(
    LEAVES,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from(["sin", "cos", "ln", "exp"]), sub),
        st.tuples(st.just("pow"), sub, sub),
    ),
    max_leaves=8,
)
STEPS = st.lists(st.integers(1, 10**6), min_size=1, max_size=16)


def render(node):
    kind = node[0]
    if kind == "n":
        return "n"
    if kind == "lit":
        return repr(node[1])
    if kind == "neg":
        return f"(-{render(node[1])})"
    if kind == "pow":
        return f"pow({render(node[1])}, {render(node[2])})"
    if kind in ("sin", "cos", "ln", "exp"):
        return f"{kind}({render(node[1])})"
    return f"({render(node[1])} {kind} {render(node[2])})"


def math_eval(node, n):
    """Value of the tree by the math module, and its rounding scale: a bound
    on how far rounding in the inputs of each operation can move the result,
    in units of the unit roundoff."""
    kind = node[0]
    if kind in ("n", "lit"):
        value = float(n) if kind == "n" else node[1]
        return value, abs(value)
    a, ma = math_eval(node[1], n)
    if kind == "neg":
        return -a, ma
    if kind in ("sin", "cos"):
        value = math.sin(a) if kind == "sin" else math.cos(a)
        return value, ma + abs(value)
    if kind == "exp":
        value = math.exp(a)
        return value, abs(value) * (ma + 1.0)
    if kind == "ln":
        value = math.log(a)
        return value, ma / abs(a) + abs(value)
    b, mb = math_eval(node[2], n)
    if kind == "+":
        return a + b, ma + mb
    if kind == "-":
        return a - b, ma + mb
    if kind == "*":
        return a * b, ma * abs(b) + abs(a) * mb
    if kind == "/":
        return a / b, ma / abs(b) + abs(a) * mb / (b * b)
    value = math.pow(a, b)
    if a == 0.0:
        return value, math.inf
    return value, abs(value) * (abs(b) * ma / abs(a) + abs(math.log(abs(a))) * mb + 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TREES, STEPS)
def test_array_evaluation_equals_scalar_evaluation_bit_for_bit(tree, steps):
    e = parse_expression(render(tree))
    ns = np.array(steps)
    values = e(ns)
    assert values.shape == ns.shape
    scalars = np.array([e(int(n)) for n in steps])
    assert np.array_equal(values.view(np.uint64), scalars.view(np.uint64))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TREES, STEPS)
def test_evaluation_matches_the_math_module(tree, steps):
    values = parse_expression(render(tree))(np.array(steps))
    for n, value in zip(steps, values):
        try:
            expected, scale = math_eval(tree, n)
        except (ValueError, OverflowError, ZeroDivisionError):
            continue  # no real value by the math module
        if not math.isfinite(expected) or math.isnan(scale):
            continue  # NaN: an infinite scale met a zero one, i.e. unbounded
        assert abs(value - expected) <= 1e-12 * scale, (render(tree), n)
