"""Parser tests, including the independent shunting-yard reference evaluator."""

import math
import random
import re
import struct

import pytest

from weyl.errors import EvalError, ParseError
from weyl.expr import evaluate, parse_potential
from weyl.slsolve import PotentialSpec

_TOKEN_RE = re.compile(r"\s*(\d+\.?\d*(?:[eE][+-]?\d+)?|[A-Za-z_]\w*|\*|/|\+|-|\^|\(|\))")

_FUNCS = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt, "abs": abs}
# binary precedence; 'neg' is prefix and never pops on push
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _sy_tokens(src):
    pos = 0
    out = []
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ValueError(f"bad token at {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


def shunting_yard_eval(src: str, x: float) -> float:
    """Independent reference: classic shunting-yard to RPN, then evaluation.

    Shares the target grammar (unary minus below ^, ^ right-assoc) but none of
    the recursive-descent code.
    """
    tokens = _sy_tokens(src)
    output = []
    stack = []
    prev = None
    for tok in tokens:
        if re.fullmatch(r"\d+\.?\d*(?:[eE][+-]?\d+)?", tok):
            output.append(float(tok))
            prev = "value"
        elif tok == "x":
            output.append(x)
            prev = "value"
        elif tok in _FUNCS:
            stack.append(tok)
            prev = "func"
        elif tok == "-" and prev not in ("value", ")"):
            stack.append("neg")  # prefix: stacks without popping
            prev = "op"
        elif tok in ("+", "-", "*", "/", "^"):
            while stack and stack[-1] not in ("(",) and stack[-1] not in _FUNCS:
                top = stack[-1]
                if top == "neg" and tok == "^":
                    break  # ^ binds tighter than unary minus
                if _PREC[top] > _PREC[tok] or (_PREC[top] == _PREC[tok] and tok != "^"):
                    output.append(stack.pop())
                else:
                    break
            stack.append(tok)
            prev = "op"
        elif tok == "(":
            stack.append(tok)
            prev = "("
        elif tok == ")":
            while stack and stack[-1] != "(":
                output.append(stack.pop())
            if not stack:
                raise ValueError("unbalanced parens")
            stack.pop()
            if stack and stack[-1] in _FUNCS:
                output.append(stack.pop())
            prev = ")"
        else:
            raise ValueError(f"unknown token {tok}")
    while stack:
        top = stack.pop()
        if top == "(":
            raise ValueError("unbalanced parens")
        output.append(top)
    vals = []
    for item in output:
        if isinstance(item, float):
            vals.append(item)
        elif item == "neg":
            vals.append(-vals.pop())
        elif item in _FUNCS:
            vals.append(float(_FUNCS[item](vals.pop())))
        else:
            b = vals.pop()
            a = vals.pop()
            if item == "+":
                vals.append(a + b)
            elif item == "-":
                vals.append(a - b)
            elif item == "*":
                vals.append(a * b)
            elif item == "/":
                vals.append(a / b)
            elif item == "^":
                vals.append(a**b)
    if len(vals) != 1:
        raise ValueError("bad RPN")
    return vals[0]


def test_spec_examples():
    assert evaluate(parse_potential("-2*exp(-x)"), 0.0) == -2.0
    assert evaluate(parse_potential("1/(1+x^2)"), 1.0) == 0.5


def test_malformed_position():
    with pytest.raises(ParseError) as exc:
        parse_potential("2*-")
    assert exc.value.column == 3


def test_unknown_identifier():
    with pytest.raises(ParseError) as exc:
        parse_potential("2*tan(x)")
    assert "tan" in str(exc.value)


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse_potential("sin(x")
    with pytest.raises(ParseError):
        parse_potential("(1+2))")


def test_power_right_associative_and_tighter_than_unary():
    assert evaluate(parse_potential("2^3^2"), 0.0) == 2.0**9
    assert evaluate(parse_potential("-2^2"), 0.0) == -4.0
    assert evaluate(parse_potential("2^-1"), 0.0) == 0.5


def test_eval_error_on_domain():
    ast = parse_potential("sqrt(x)")
    with pytest.raises(EvalError):
        evaluate(ast, -1.0)
    ast = parse_potential("1/x")
    with pytest.raises(EvalError):
        evaluate(ast, 0.0)


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["x", str(rng.randint(1, 4)), f"{rng.uniform(0.5, 3):.3f}"])
    kind = rng.random()
    if kind < 0.55:
        op = rng.choice("+-*/")
        return f"({_random_expr(rng, depth - 1)}{op}{_random_expr(rng, depth - 1)})"
    if kind < 0.7:
        return f"({_random_expr(rng, depth - 1)}^{rng.randint(1, 3)})"
    if kind < 0.85:
        return f"(-{_random_expr(rng, depth - 1)})"
    fn = rng.choice(["exp", "sin", "cos", "abs"])
    return f"{fn}({_random_expr(rng, depth - 1)})"


def test_reference_evaluator_agreement_on_1000_random_expressions():
    rng = random.Random(20250808)
    checked = 0
    while checked < 1000:
        src = _random_expr(rng, rng.randint(1, 4))
        x = rng.uniform(0.5, 2.5)
        try:
            ast = parse_potential(src)
            mine = evaluate(ast, x)
            value = PotentialSpec.expression(src).value(x)
            ref = shunting_yard_eval(src, x)
        except (EvalError, OverflowError, ZeroDivisionError):
            continue
        if not (math.isfinite(mine) and math.isfinite(ref)):
            continue
        assert value == mine == ref, f"{src} at x={x}: {value} vs {mine} vs {ref}"
        checked += 1


def test_reference_evaluator_agreement_unparenthesized():
    rng = random.Random(7)
    fragments = ["x", "2", "3.5", "x^2", "-x", "sin(x)", "2*x", "x/2"]
    checked = 0
    while checked < 300:
        n = rng.randint(2, 5)
        src = fragments[rng.randrange(len(fragments))]
        for _ in range(n):
            src += rng.choice("+-*/") + fragments[rng.randrange(len(fragments))]
        x = rng.uniform(0.5, 2.5)
        try:
            ast = parse_potential(src)
            mine = evaluate(ast, x)
            value = PotentialSpec.expression(src).value(x)
            ref = shunting_yard_eval(src, x)
        except (EvalError, OverflowError, ZeroDivisionError):
            continue
        assert value == mine == ref, f"{src} at x={x}"
        checked += 1


def _random_real_line_expr(rng, depth):
    # like _random_expr, plus what fails on the reals: sqrt, fractional
    # powers of signed bases, division by values that can be 0
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["x", "0", "1", "2", f"{rng.uniform(-3, 3):.2f}", "1e999"])
    kind = rng.random()
    if kind < 0.45:
        op = rng.choice("+-*/")
        return f"({_random_real_line_expr(rng, depth - 1)}{op}{_random_real_line_expr(rng, depth - 1)})"
    if kind < 0.65:
        exponent = rng.choice(["0.5", "2", "-1", "x", "1.5", "-0.5"])
        return f"({_random_real_line_expr(rng, depth - 1)})^{exponent}"
    if kind < 0.75:
        return f"-{_random_real_line_expr(rng, depth - 1)}"
    fn = rng.choice(["exp", "sin", "cos", "sqrt", "abs"])
    return f"{fn}({_random_real_line_expr(rng, depth - 1)})"


def _bits_or_message(f, x):
    try:
        return struct.pack("<d", f(x))
    except EvalError as e:
        return str(e)


def test_value_matches_evaluate_bits_and_messages():
    # PotentialSpec.value is the tree walker plus the finiteness check: on
    # every input it gives evaluate's float bits, or the same EvalError text
    rng = random.Random(20261018)
    outcomes = {"value": 0, "error": 0}
    for _ in range(3000):
        src = _random_real_line_expr(rng, rng.randint(1, 5))
        x = rng.choice([rng.uniform(-3.0, 3.0), 0.0, -0.0, 2.0])
        ast = parse_potential(src)
        q = PotentialSpec.expression(src)

        def reference(x):
            v = evaluate(ast, x)
            if not math.isfinite(v):
                raise EvalError(f"potential not finite at x={x}")
            return v

        ref = _bits_or_message(reference, x)
        assert _bits_or_message(q.value, x) == ref, f"{src} at x={x}"
        outcomes["value" if isinstance(ref, bytes) else "error"] += 1
    assert min(outcomes.values()) > 500, outcomes


@pytest.mark.parametrize("src,x", [("(-x)^0.5", 1.0), ("abs((x-2)^0.5)", 0.0), ("exp((x-2)^0.5)", 0.0)])
def test_complex_power_is_an_eval_error(src, x):
    # Python's float ** returns a complex here; abs() of it used to hide that
    # and exp() of it raised TypeError
    with pytest.raises(EvalError, match=r"left the real line at x="):
        evaluate(parse_potential(src), x)
    with pytest.raises(EvalError, match=r"left the real line at x="):
        PotentialSpec.expression(src).value(x)


@pytest.mark.parametrize("src,column,message", [
    ("(" * 250 + "x" + ")" * 250, 101, "nested more than 100 levels"),
    ("sqrt(" * 150 + "x" + ")" * 150, 501, "nested more than 100 levels"),
    ("+".join(["x"] * 3000), 1000, "more than 500 levels deep"),
    ("-" * 500 + "x", 1, "more than 500 levels deep"),
])
def test_deep_expression_is_a_parse_error(src, column, message):
    with pytest.raises(ParseError, match=message) as exc:
        PotentialSpec.expression(src)
    assert exc.value.column == column


@pytest.mark.parametrize("src,x,expected", [
    ("(" * 99 + "x" + ")" * 99, 2.5, 2.5),
    ("+".join(["x"] * 500), 1.0, 500.0),
    ("*".join(["x"] * 500), -1.0, 1.0),
    ("-" * 499 + "x", 2.0, -2.0),
])
def test_depth_caps_admit_their_limits(src, x, expected):
    # flat chains are loops in the parser, so only the tree depth bounds them
    ast = parse_potential(src)
    assert evaluate(ast, x) == PotentialSpec.expression(src).value(x) == expected
