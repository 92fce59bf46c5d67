"""Arithmetic expression parser for potential definitions.

Grammar (standard precedence, ^ right-associative and binding tighter than
unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := exp | sin | cos | sqrt | abs

A NUMBER is decimal digits with at most one '.', and an optional exponent
('e' or 'E', a sign, digits).  The parsed tree is plain data: a number is its
float, the variable is the marker X, and every other node is a tuple (op,
operand, ...): ('neg', a) for unary minus, (name, a) for a call of
FUNCTIONS[name], and (op, a, b) for a binary operator op in '+-*/^'.

Evaluation is over the reals and deterministic: a power whose value leaves
the real line (negative base, fractional exponent) is an EvalError, as is a
domain or range failure.  Parse errors carry line/column and the
expected-token set.  Two caps keep every recursion far inside the
interpreter's default limit of 1000 frames: parentheses, function calls and
exponents nest at most MAX_NESTING levels, since the recursive-descent
parser spends up to five frames a level (chain twice, unary, atom and group
for parentheses and calls, one unary for an exponent; sums, products and
leading minus signs are loops and do not nest), and the tree is at most
MAX_DEPTH levels deep, counting every operator, call and parenthesis pair on
a path, since the tree walker evaluate spends one frame a level.
"""

from __future__ import annotations

import math
import operator
import re

from .errors import EvalError, ParseError

FUNCTIONS = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "abs": math.fabs,  # abs() of a float, and a float for any real argument
}

MAX_NESTING = 100
MAX_DEPTH = 500

X = "x"  # the variable's node

# every operator of the tree, by its node's op
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "^": operator.pow, "neg": operator.neg, **FUNCTIONS}

# one token after blanks: a number (\d is any Unicode decimal digit, each of
# which float() reads), a word, an operator or parenthesis, the end of input,
# or any other character; a word starts with a letter or '_', so one that
# starts with another digit or numeral (\w has them all, as '²') is refused
_TOKEN = re.compile(r"[ \t\r\n]*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<name>\w+)"
                    r"|(?P<op>[-+*/^()])|(?P<end>\Z)|(?P<other>.))", re.DOTALL)


def _tokens(src: str) -> list:
    """src's tokens (kind, text, column): kind is 'num', 'name', the operator
    or parenthesis itself, or 'end', whose column is the last one, so that
    "2*-" fails at column 3."""
    tokens, pos = [], 0
    while True:
        m = _TOKEN.match(src, pos)
        kind, pos = m.lastgroup, m.end()
        text, column = m[kind], m.start(kind) + 1
        if kind == "other" or kind == "name" and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError(f"unexpected character {text[0]!r}", column=column,
                             expected={"number", "identifier", "operator"})
        if kind == "end":
            tokens.append(("end", "", max(1, len(src))))
            return tokens
        tokens.append((text if kind == "op" else kind, text, column))


class _Parser:
    """Recursive descent; every rule returns (node, depth).

    depth counts the operators, calls and parenthesis pairs on the deepest
    path of the subtree.  self.open counts the unary rules on the stack, one
    per level of parentheses, calls and exponents, so that runaway nesting
    fails before it recurses.
    """

    def __init__(self, src: str):
        self.tokens = _tokens(src)
        self.pos = 0
        self.open = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        _kind, text, column = self.peek()
        raise ParseError(f"unexpected {text or 'end of input'!r}", column=column, expected=expected)

    def capped(self, depth: int, tok: tuple) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression more than {MAX_DEPTH} levels deep", column=tok[2])
        return depth

    def parse(self):
        node, _depth = self.chain("+-")
        if self.peek()[0] != "end":
            self.fail({"operator", "end of input"})
        return node

    def chain(self, ops: str):
        """expr (ops '+-': terms) or term (ops '*/': unaries), left-associative."""
        node, depth = self.chain("*/") if ops == "+-" else self.unary()
        while self.peek()[0] in ops:
            tok = self.advance()
            right, rdepth = self.chain("*/") if ops == "+-" else self.unary()
            node, depth = (tok[0], node, right), self.capped(1 + max(depth, rdepth), tok)
        return node, depth

    def unary(self):
        """unary, with power folded in: the signs, an atom, an exponent."""
        self.open += 1
        if self.open > MAX_NESTING:
            raise ParseError(
                f"parentheses, calls and powers nested more than {MAX_NESTING} levels deep",
                column=self.peek()[2],
            )
        signs = []
        while self.peek()[0] == "-":
            signs.append(self.advance())
        node, depth = self.atom()
        if self.peek()[0] == "^":
            tok = self.advance()
            exponent, edepth = self.unary()  # right-assoc, allows 2^-3
            node, depth = ("^", node, exponent), self.capped(1 + max(depth, edepth), tok)
        for tok in reversed(signs):
            node, depth = ("neg", node), self.capped(1 + depth, tok)
        self.open -= 1
        return node, depth

    def atom(self):
        tok = kind, text, column = self.peek()
        if kind == "num":
            self.advance()
            return float(text), 1
        if kind == "name":
            self.advance()
            if text == X:
                return X, 1
            if text in FUNCTIONS:
                arg, depth = self.group(tok)
                return (text, arg), depth
            raise ParseError(f"unknown identifier {text!r}", column=column,
                             expected={X} | set(FUNCTIONS))
        if kind == "(":
            return self.group(tok)
        self.fail({"number", "x", "function", "("})

    def group(self, tok: tuple):
        """'(' expr ')', one level deeper than its expr; tok is the call's
        name or the '(' itself, and names the column of a depth error."""
        if self.peek()[0] != "(":
            self.fail({"("})
        self.advance()
        node, depth = self.chain("+-")
        if self.peek()[0] != ")":
            self.fail({")"})
        self.advance()
        return node, self.capped(1 + depth, tok)


def parse_potential(src: str):
    """The tree of an expression in the variable x; any other text is a ParseError."""
    return _Parser(src).parse()


def evaluate(node, x: float) -> float:
    """node's value at x, operands left to right, one frame a level."""
    if node.__class__ is float:
        return node
    if node is X:
        return x
    op = node[0]
    if len(node) == 2:
        v = evaluate(node[1], x)
        try:
            return _OPS[op](v)
        except (ValueError, OverflowError) as e:
            raise EvalError(f"{op}({v}) failed at x={x}: {e}") from e
    a = evaluate(node[1], x)
    b = evaluate(node[2], x)
    try:
        r = _OPS[op](a, b)
    except (ZeroDivisionError, OverflowError, ValueError) as e:
        raise EvalError(f"evaluation failed at x={x}: {e}") from e
    if r.__class__ is complex:
        raise EvalError(f"({a})^{b} left the real line at x={x}")
    return r
