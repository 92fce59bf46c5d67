"""Arithmetic expression parser for potential definitions.

Grammar (standard precedence, ^ right-associative and binding tighter than
unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := exp | sin | cos | sqrt | abs

Evaluation is over the reals and deterministic: a power whose value leaves
the real line (negative base, fractional exponent) is an EvalError, as is a
domain or range failure.  Parse errors carry line/column and the
expected-token set.  Two caps keep every recursion far inside the
interpreter's default limit of 1000 frames: parentheses, function calls and
exponents nest at most MAX_NESTING levels, since the recursive-descent
parser spends up to five frames a level (sums, products and leading minus
signs are loops and do not nest), and the tree is at most MAX_DEPTH levels
deep, counting every operator, call and parenthesis pair on a path, since
the tree walker evaluate spends one frame a level.
"""

from __future__ import annotations

import math

from .errors import EvalError, ParseError
from .values import Value

FUNCTIONS = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "abs": math.fabs,  # abs() of a float, and a float for any real argument
}

MAX_NESTING = 100
MAX_DEPTH = 500


class Num(Value):
    _fields = ("value",)


class Var(Value):
    pass


class Unary(Value):
    _fields = ("op", "arg")


class Bin(Value):
    _fields = ("op", "left", "right")


class Call(Value):
    _fields = ("func", "arg")


class Token(Value):
    # kind: NUMBER IDENT OP LPAREN RPAREN EOF; column: 1-based
    _fields = ("kind", "text", "column")


def tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        col = i + 1
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            tokens.append(Token("NUMBER", src[i:j], col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", src[i:j], col))
            i = j
        elif ch in "+-*/^":
            tokens.append(Token("OP", ch, col))
            i += 1
        elif ch == "(":
            tokens.append(Token("LPAREN", ch, col))
            i += 1
        elif ch == ")":
            tokens.append(Token("RPAREN", ch, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", column=col, expected={"number", "identifier", "operator"})
    # the end-of-input position is the last column, so "2*-" fails at column 3
    tokens.append(Token("EOF", "", max(1, n)))
    return tokens


class _Parser:
    """Recursive descent; every rule returns (node, depth).

    depth counts the operators, calls and parenthesis pairs on the deepest
    path of the subtree.  self.open counts the unary rules on the stack, one
    per level of parentheses, calls and exponents, so that runaway nesting
    fails before it recurses.
    """

    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.pos = 0
        self.open = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        what = tok.text or "end of input"
        raise ParseError(f"unexpected {what!r}", column=tok.column, expected=expected)

    def capped(self, depth: int, tok: Token) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression more than {MAX_DEPTH} levels deep",
                             column=tok.column)
        return depth

    def parse(self):
        node, _depth = self.expr()
        if self.peek().kind != "EOF":
            self.fail({"operator", "end of input"})
        return node

    def expr(self):
        node, depth = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            tok = self.advance()
            right, rdepth = self.term()
            node, depth = Bin(tok.text, node, right), self.capped(1 + max(depth, rdepth), tok)
        return node, depth

    def term(self):
        node, depth = self.unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            tok = self.advance()
            right, rdepth = self.unary()
            node, depth = Bin(tok.text, node, right), self.capped(1 + max(depth, rdepth), tok)
        return node, depth

    def unary(self):
        self.open += 1
        if self.open > MAX_NESTING:
            raise ParseError(
                f"parentheses, calls and powers nested more than {MAX_NESTING} levels deep",
                column=self.peek().column,
            )
        signs = []
        while self.peek().kind == "OP" and self.peek().text == "-":
            signs.append(self.advance())
        node, depth = self.power()
        for tok in reversed(signs):
            node, depth = Unary("-", node), self.capped(1 + depth, tok)
        self.open -= 1
        return node, depth

    def power(self):
        base, depth = self.atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            tok = self.advance()
            exponent, edepth = self.unary()  # right-assoc, allows 2^-3
            return Bin("^", base, exponent), self.capped(1 + max(depth, edepth), tok)
        return base, depth

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text)), 1
        if tok.kind == "IDENT":
            self.advance()
            if tok.text == "x":
                return Var(), 1
            if tok.text in FUNCTIONS:
                if self.peek().kind != "LPAREN":
                    self.fail({"("})
                self.advance()
                arg, depth = self.expr()
                if self.peek().kind != "RPAREN":
                    self.fail({")"})
                self.advance()
                return Call(tok.text, arg), self.capped(1 + depth, tok)
            raise ParseError(
                f"unknown identifier {tok.text!r}",
                column=tok.column,
                expected={"x"} | set(FUNCTIONS),
            )
        if tok.kind == "LPAREN":
            self.advance()
            node, depth = self.expr()
            if self.peek().kind != "RPAREN":
                self.fail({")"})
            self.advance()
            return node, self.capped(1 + depth, tok)
        self.fail({"number", "x", "function", "("})


def parse_potential(src: str):
    """Parse an expression in the variable x; total on valid input."""
    return _Parser(src).parse()


def _pow(a: float, b: float, x: float) -> float:
    r = a**b
    if isinstance(r, complex):
        raise EvalError(f"({a})^{b} left the real line at x={x}")
    return r


def evaluate(node, x: float) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        return -evaluate(node.arg, x)
    if isinstance(node, Bin):
        a = evaluate(node.left, x)
        b = evaluate(node.right, x)
        try:
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                return a / b
            if node.op == "^":
                return _pow(a, b, x)
        except (ZeroDivisionError, OverflowError, ValueError) as e:
            raise EvalError(f"evaluation failed at x={x}: {e}") from e
        raise EvalError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        v = evaluate(node.arg, x)
        try:
            return FUNCTIONS[node.func](v)
        except (ValueError, OverflowError) as e:
            raise EvalError(f"{node.func}({v}) failed at x={x}: {e}") from e
    raise EvalError(f"unknown node {node!r}")

