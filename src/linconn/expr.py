"""Self-contained expression language.

Immutable expression trees over named real coordinates, with a recursive
descent parser, exact symbolic differentiation to arbitrary order,
conservative simplification, substitution and numeric evaluation.

Grammar (see docs/grammar.md for the EBNF):

    expr   := term  (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right associative
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Precedence: ^  >  unary minus  >  * /  >  + -.
Supported functions: sin, cos, tan, exp, ln, sqrt.

Nodes are hash-consed: each constructor looks the node's key, its class
and fields, up in one table, `_nodes`, and returns the node already there,
so structurally equal trees are one object. `==` and `hash` are those of
object identity: `a == b` exactly when `a is b`. The key of a `Const`
carries the sign bit of its value, so `Const(-0.0)` is not `Const(0.0)`:
the two can give results of different sign. `is_zero` accepts both. The
table lives as long as the process and is never emptied, since a caller
may still hold any node and rely on its identity. A node's hash is its
address, which changes from run to run: never let the iteration order of
a set of nodes, or of a dict keyed by them, reach output.

Memo policy: `simplify` and `diff` share one memo, keyed by the node (and,
for `diff`, the variable); both are pure, so it never changes a result.
`transport` keeps its generated RK4 kernels there too. It lives as long as
the process, but `cli.run` empties it when it returns, so each CLI run
starts and ends with it empty.

Numeric paths: `evaluate` walks the tree. Everything else runs from one
straight-line plan of a tuple of expressions, one step per distinct
computation, with two back ends. `compile_fn` and `compile_vector` render
it as Python source for calls at one point at a time (the RK4 core, the
scalar fallback). `_columns` runs it over numpy columns of many points:
`+ - * /` and negation as column operations, which round each element as
Python floats do, and powers and functions as `math` calls mapped over
the column. Any fault in a column hands the points to the scalar path, so
both back ends give the same values bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

__all__ = [
    "Expr", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "ExprError", "ParseError", "EvalError",
    "parse", "evaluate", "diff", "simplify", "substitute", "variables",
    "to_string", "compile_fn", "compile_vector", "random_polynomial",
    "ZERO", "ONE", "is_zero",
]


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax error. Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        self.offset = offset
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


class EvalError(ExprError):
    """Domain or binding error during numeric evaluation."""

    def __init__(self, message: str, subexpr: "Expr | None" = None):
        self.subexpr = subexpr
        if subexpr is not None:
            message = f"{message} in '{to_string(subexpr)}'"
        super().__init__(message)


# Printing precedence levels, low to high.
_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 5

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}


# Every node ever built, by its key; see the module docstring.
_nodes: dict = {}


class Expr:
    """Immutable expression tree node, interned: structurally equal trees
    are one object, so `==` and `hash` are those of object identity."""

    __slots__ = ()
    precedence = _P_ATOM

    def children(self) -> tuple["Expr", ...]:
        return ()

    # -- operator sugar, used heavily by the geometry modules ------------
    @staticmethod
    def _coerce(value) -> "Expr":
        if isinstance(value, Expr):
            return value
        if isinstance(value, (int, float)):
            return Const(float(value))
        raise TypeError(f"cannot build an expression from {value!r}")

    def __add__(self, other):
        return Add(self, Expr._coerce(other))

    def __radd__(self, other):
        return Add(Expr._coerce(other), self)

    def __sub__(self, other):
        return Sub(self, Expr._coerce(other))

    def __rsub__(self, other):
        return Sub(Expr._coerce(other), self)

    def __mul__(self, other):
        return Mul(self, Expr._coerce(other))

    def __rmul__(self, other):
        return Mul(Expr._coerce(other), self)

    def __truediv__(self, other):
        return Div(self, Expr._coerce(other))

    def __rtruediv__(self, other):
        return Div(Expr._coerce(other), self)

    def __pow__(self, other):
        return Pow(self, Expr._coerce(other))

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"<{type(self).__name__} {to_string(self)}>"


# Each constructor looks its key up in `_nodes` and builds a node only on
# a miss. `__getnewargs__` gives the constructor's arguments back, so that
# `copy` and `pickle` rebuild a node through the table too.

class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        key = (cls, value, math.copysign(1.0, value))
        node = _nodes.get(key)
        if node is None:
            if not math.isfinite(value):
                raise ValueError("constants must be finite reals")
            node = _nodes[key] = object.__new__(cls)
            node.value = value
        return node

    def __getnewargs__(self):
        return (self.value,)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        node = _nodes.get(key)
        if node is None:
            if not name or not _is_identifier(name):
                raise ValueError(f"invalid variable name {name!r}")
            node = _nodes[key] = object.__new__(cls)
            node.name = name
        return node

    def __getnewargs__(self):
        return (self.name,)


class Neg(Expr):
    __slots__ = ("arg",)
    precedence = _P_NEG

    def __new__(cls, arg: Expr):
        key = (cls, arg)
        node = _nodes.get(key)
        if node is None:
            node = _nodes[key] = object.__new__(cls)
            node.arg = arg
        return node

    def __getnewargs__(self):
        return (self.arg,)

    def children(self):
        return (self.arg,)


class _Binary(Expr):
    __slots__ = ("left", "right")
    symbol = "?"

    def __new__(cls, left: Expr, right: Expr):
        key = (cls, left, right)
        node = _nodes.get(key)
        if node is None:
            node = _nodes[key] = object.__new__(cls)
            node.left = left
            node.right = right
        return node

    def __getnewargs__(self):
        return (self.left, self.right)

    def children(self):
        return (self.left, self.right)


class Add(_Binary):
    __slots__ = ()
    symbol = "+"
    precedence = _P_ADD


class Sub(_Binary):
    __slots__ = ()
    symbol = "-"
    precedence = _P_ADD


class Mul(_Binary):
    __slots__ = ()
    symbol = "*"
    precedence = _P_MUL


class Div(_Binary):
    __slots__ = ()
    symbol = "/"
    precedence = _P_MUL


class Pow(_Binary):
    __slots__ = ()
    symbol = "^"
    precedence = _P_POW


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __new__(cls, fn: str, arg: Expr):
        key = (cls, fn, arg)
        node = _nodes.get(key)
        if node is None:
            if fn not in FUNCTIONS:
                raise ValueError(f"unknown function {fn!r}")
            node = _nodes[key] = object.__new__(cls)
            node.fn = fn
            node.arg = arg
        return node

    def __getnewargs__(self):
        return (self.fn, self.arg)

    def children(self):
        return (self.arg,)


ZERO = Const(0.0)
ONE = Const(1.0)


def is_zero(e: Expr) -> bool:
    """Whether `e` is the constant zero, of either sign: the structural
    zero test of the tensor builders and checks."""
    return isinstance(e, Const) and e.value == 0.0


def _is_identifier(name: str) -> bool:
    if not (name[0].isalpha() or name[0] == "_"):
        return False
    return all(c.isalnum() or c == "_" for c in name[1:])


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

_TOK_NUM, _TOK_IDENT, _TOK_OP, _TOK_LPAREN, _TOK_RPAREN, _TOK_END = range(6)


def _tokenize(text: str) -> list[tuple[int, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                j2 = j + 1
                if j2 < n and text[j2] in "+-":
                    j2 += 1
                if j2 < n and text[j2].isdigit():
                    j = j2
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append((_TOK_NUM, text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_TOK_IDENT, text[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            tokens.append((_TOK_OP, c, i))
            i += 1
            continue
        if c == "(":
            tokens.append((_TOK_LPAREN, c, i))
            i += 1
            continue
        if c == ")":
            tokens.append((_TOK_RPAREN, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append((_TOK_END, "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind == _TOK_OP and value == op:
            return self.advance()
        raise ParseError(f"unexpected token {value!r}", offset, expected=repr(op))

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != _TOK_END:
            raise ParseError(f"unexpected trailing input {value!r}", offset,
                             expected="end of input")
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "*/":
                self.advance()
                rhs = self.unary()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == _TOK_OP and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == _TOK_OP and value == "^":
            self.advance()
            return Pow(base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == _TOK_NUM:
            return Const(float(value))
        if kind == _TOK_IDENT:
            nkind, nvalue, _ = self.peek()
            if nkind == _TOK_LPAREN:
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset,
                                     expected="one of " + ", ".join(sorted(FUNCTIONS)))
                self.advance()
                arg = self.expr()
                ckind, cvalue, coffset = self.peek()
                if ckind != _TOK_RPAREN:
                    raise ParseError(f"unexpected token {cvalue!r}", coffset,
                                     expected="')'")
                self.advance()
                return Call(value, arg)
            return Var(value)
        if kind == _TOK_LPAREN:
            e = self.expr()
            ckind, cvalue, coffset = self.peek()
            if ckind != _TOK_RPAREN:
                raise ParseError(f"unexpected token {cvalue!r}", coffset,
                                 expected="')'")
            self.advance()
            return e
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input",
                         offset, expected="an expression")


def parse(text: str) -> Expr:
    """Parse a string into an expression tree."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0, expected="an expression")
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _fmt_const(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _prec(e: Expr) -> int:
    # A negative constant prints with a leading minus sign, so for
    # parenthesization it behaves like a unary-minus node.
    if isinstance(e, Const) and e.value < 0:
        return _P_NEG
    return e.precedence


def to_string(e: Expr) -> str:
    """Print an expression. The output re-parses to an equivalent tree."""
    if isinstance(e, Const):
        if e.value < 0:
            return "-" + _fmt_const(-e.value)
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_string(e.arg)
        if _prec(e.arg) <= _P_NEG:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    if isinstance(e, Pow):
        left = to_string(e.left)
        right = to_string(e.right)
        if _prec(e.left) <= _P_POW:
            left = f"({left})"
        if _prec(e.right) < _P_POW:
            right = f"({right})"
        return f"{left}^{right}"
    if isinstance(e, _Binary):
        left = to_string(e.left)
        right = to_string(e.right)
        if _prec(e.left) < e.precedence:
            left = f"({left})"
        # Parenthesize same-precedence right children so the printed text
        # re-parses to the identical grouping.
        if _prec(e.right) <= e.precedence:
            right = f"({right})"
        op = e.symbol
        if op in "+-":
            return f"{left} {op} {right}"
        return f"{left}{op}{right}"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate numerically. Raises EvalError on unbound variables and
    domain violations (division by zero, ln of a non-positive number,
    sqrt of a negative number, overflow) instead of returning NaN/Inf."""
    result = _eval(e, env)
    if not math.isfinite(result):
        raise EvalError("non-finite result", e)
    return result


def _eval(e: Expr, env: Mapping[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            value = env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable '{e.name}'") from None
        if not math.isfinite(value):
            raise EvalError(f"non-finite binding for '{e.name}'")
        return value
    if isinstance(e, Neg):
        return -_eval(e.arg, env)
    if isinstance(e, Add):
        return _eval(e.left, env) + _eval(e.right, env)
    if isinstance(e, Sub):
        return _eval(e.left, env) - _eval(e.right, env)
    if isinstance(e, Mul):
        return _eval(e.left, env) * _eval(e.right, env)
    if isinstance(e, Div):
        denom = _eval(e.right, env)
        if denom == 0.0:
            raise EvalError("division by zero", e)
        return _eval(e.left, env) / denom
    if isinstance(e, Pow):
        base = _eval(e.left, env)
        exponent = _eval(e.right, env)
        try:
            result = math.pow(base, exponent)
        except (ValueError, OverflowError):
            raise EvalError("invalid power", e) from None
        return result
    if isinstance(e, Call):
        arg = _eval(e.arg, env)
        if e.fn == "ln" and arg <= 0.0:
            raise EvalError("ln of a non-positive number", e)
        if e.fn == "sqrt" and arg < 0.0:
            raise EvalError("sqrt of a negative number", e)
        try:
            return FUNCTIONS[e.fn](arg)
        except (ValueError, OverflowError):
            raise EvalError(f"domain error in {e.fn}", e) from None
    raise TypeError(f"not an expression: {e!r}")


def variables(e: Expr) -> frozenset[str]:
    """Free variable names of an expression."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    out: frozenset[str] = frozenset()
    for child in e.children():
        out |= variables(child)
    return out


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

# The memo of `simplify` and `diff`; see the module docstring.
_memo: dict = {}


def diff(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to `var`.

    Results are simplified and memoized per (expression, variable) pair
    (see the module docstring for the memo's scope).
    """
    result = _memo.get((e, var))
    if result is None:
        result = _memo[(e, var)] = simplify(_diff(e, var))
    return result


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return Neg(diff(e.arg, var))
    if isinstance(e, Add):
        return Add(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Sub):
        return Sub(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Mul):
        return Add(Mul(diff(e.left, var), e.right), Mul(e.left, diff(e.right, var)))
    if isinstance(e, Div):
        return Div(Sub(Mul(diff(e.left, var), e.right), Mul(e.left, diff(e.right, var))),
                   Pow(e.right, Const(2.0)))
    if isinstance(e, Pow):
        base, exponent = e.left, e.right
        if isinstance(exponent, Const):
            # d(u^c) = c * u^(c-1) * u'
            return Mul(Mul(exponent, Pow(base, Const(exponent.value - 1.0))),
                       diff(base, var))
        # General case via u^v = exp(v ln u); valid for positive base.
        return Mul(e, Add(Mul(diff(exponent, var), Call("ln", base)),
                          Mul(exponent, Div(diff(base, var), base))))
    if isinstance(e, Call):
        inner = diff(e.arg, var)
        if e.fn == "sin":
            outer = Call("cos", e.arg)
        elif e.fn == "cos":
            outer = Neg(Call("sin", e.arg))
        elif e.fn == "tan":
            outer = Div(ONE, Pow(Call("cos", e.arg), Const(2.0)))
        elif e.fn == "exp":
            outer = e
        elif e.fn == "ln":
            outer = Div(ONE, e.arg)
        elif e.fn == "sqrt":
            outer = Div(ONE, Mul(Const(2.0), e))
        else:  # pragma: no cover - FUNCTIONS is closed
            raise TypeError(f"no derivative rule for {e.fn}")
        return Mul(outer, inner)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------

def _is_const(e: Expr, value: float | None = None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def _add_terms(e: Expr, sign: float, out: list[tuple[float, Expr]]):
    """Flatten nested +/-/Neg into a signed term list."""
    if isinstance(e, Add):
        _add_terms(e.left, sign, out)
        _add_terms(e.right, sign, out)
    elif isinstance(e, Sub):
        _add_terms(e.left, sign, out)
        _add_terms(e.right, -sign, out)
    elif isinstance(e, Neg):
        _add_terms(e.arg, -sign, out)
    else:
        out.append((sign, e))


def _rebuild_sum(terms: list[tuple[float, Expr]], const: float) -> Expr:
    items = list(terms)
    if const != 0.0 or not items:
        items.append((1.0, Const(const)) if const >= 0 else (-1.0, Const(-const)))
    sign, head = items[0]
    node = Neg(head) if sign < 0 else head
    for sign, term in items[1:]:
        node = Sub(node, term) if sign < 0 else Add(node, term)
    return node


def _simplify_sum(e: Expr) -> Expr:
    raw: list[tuple[float, Expr]] = []
    _add_terms(e, 1.0, raw)
    const = 0.0
    terms: list[tuple[float, Expr]] = []
    for sign, term in raw:
        if isinstance(term, Const):
            const += sign * term.value
        else:
            terms.append((sign, term))
    # Cancel equal terms (one node) of opposite sign.
    kept: list[tuple[float, Expr]] = []
    for sign, term in terms:
        for idx, (s2, t2) in enumerate(kept):
            if s2 == -sign and t2 is term:
                del kept[idx]
                break
        else:
            kept.append((sign, term))
    return _rebuild_sum(kept, const)


def simplify(e: Expr) -> Expr:
    """Conservative simplification: constant folding, 0/1 absorption,
    identity rules and cancellation of equal terms. The
    result is semantically equal to the input on its domain. Results are
    memoized per expression (see the module docstring)."""
    if isinstance(e, (Const, Var)):
        return e
    result = _memo.get(e)
    if result is None:
        result = _memo[e] = _simplify(e)
    return result


def _simplify(e: Expr) -> Expr:
    """One node of `simplify`; children go back through `simplify`."""
    if isinstance(e, (Add, Sub)) or (isinstance(e, Neg) and isinstance(e.arg, (Add, Sub, Neg))):
        flat: list[tuple[float, Expr]] = []
        _add_terms(e, 1.0, flat)
        rebuilt: list[tuple[float, Expr]] = [(s, simplify(t)) for s, t in flat]
        total = _rebuild_sum(rebuilt, 0.0) if rebuilt else ZERO
        return _simplify_sum(total)

    if isinstance(e, Neg):
        arg = simplify(e.arg)
        if isinstance(arg, Const):
            return Const(-arg.value)
        if isinstance(arg, Neg):
            return arg.arg
        return Neg(arg)

    if isinstance(e, Mul):
        left = simplify(e.left)
        right = simplify(e.right)
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value * right.value)
        if _is_const(left, 0.0) or _is_const(right, 0.0):
            return ZERO
        if _is_const(left, 1.0):
            return right
        if _is_const(right, 1.0):
            return left
        if _is_const(left, -1.0):
            return simplify(Neg(right))
        if _is_const(right, -1.0):
            return simplify(Neg(left))
        # Constant coefficient collection: c1*(c2*e) -> (c1*c2)*e
        if isinstance(left, Const) and isinstance(right, Mul) and isinstance(right.left, Const):
            return simplify(Mul(Const(left.value * right.left.value), right.right))
        if isinstance(right, Const):
            return simplify(Mul(right, left))
        # Cancellation: (a/b)*b -> a, b*(a/b) -> a
        if isinstance(left, Div) and left.right is right:
            return left.left
        if isinstance(right, Div) and right.right is left:
            return right.left
        return Mul(left, right)

    if isinstance(e, Div):
        left = simplify(e.left)
        right = simplify(e.right)
        if isinstance(left, Const) and isinstance(right, Const) and right.value != 0.0:
            return Const(left.value / right.value)
        if _is_const(left, 0.0):
            return ZERO
        if _is_const(right, 1.0):
            return left
        if left is right:
            return ONE
        # (a*b)/b -> a, (b*a)/b -> a
        if isinstance(left, Mul):
            if left.right is right:
                return left.left
            if left.left is right:
                return left.right
            # (c1*e)/c2 -> (c1/c2)*e
            if isinstance(left.left, Const) and isinstance(right, Const) and right.value != 0.0:
                return simplify(Mul(Const(left.left.value / right.value), left.right))
        return Div(left, right)

    if isinstance(e, Pow):
        base = simplify(e.left)
        exponent = simplify(e.right)
        if isinstance(exponent, Const):
            if exponent.value == 1.0:
                return base
            if exponent.value == 0.0:
                return ONE
            if isinstance(base, Const):
                try:
                    return Const(math.pow(base.value, exponent.value))
                except (ValueError, OverflowError):
                    return Pow(base, exponent)
            if _is_const(base, 0.0) and exponent.value > 0.0:
                return ZERO
        if _is_const(base, 1.0):
            return ONE
        return Pow(base, exponent)

    if isinstance(e, Call):
        arg = simplify(e.arg)
        if isinstance(arg, Const):
            try:
                return Const(FUNCTIONS[e.fn](arg.value))
            except (ValueError, OverflowError):
                return Call(e.fn, arg)
        return Call(e.fn, arg)

    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of variables by expressions.

    Inserted trees are not re-substituted into."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return bindings.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, bindings))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, bindings))
    if isinstance(e, _Binary):
        return type(e)(substitute(e.left, bindings), substitute(e.right, bindings))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Straight-line plans: the one numeric path besides evaluate
# ---------------------------------------------------------------------------

# Rows of samples a column runner takes at a time.
_CHUNK = 2048


def _plan(exprs: Sequence[Expr], names: Sequence[str]):
    """One straight-line plan computing `exprs` from a vector of `names`.

    Returns `(steps, frees, outputs)`. Step k computes slot k and is a
    tuple `(op, *args)`: `op` is "var" (its arg is the coordinate index),
    "neg", one of "+ - * /", "^" or a function name; each arg is a slot
    (an int) or a constant (the `repr` of its float). `frees[k]` lists the
    slots whose last use is step k. An output is a slot or a constant.
    Equal steps are shared. Keying constants by `repr` keeps -0.0 apart
    from 0.0, which are equal as floats yet can give results of different
    sign.
    """
    index = {name: i for i, name in enumerate(names)}
    slots: dict[tuple, int] = {}
    seen: dict[Expr, int] = {}
    outputs = tuple(_plan_ref(e, index, slots, seen) for e in exprs)
    steps = list(slots)
    last: dict[int, int] = {}
    for k, step in enumerate(steps):
        if step[0] != "var":
            last.update((a, k) for a in step[1:] if type(a) is int)
    for ref in outputs:
        last.pop(ref, None)
    frees: list[tuple[int, ...]] = [()] * len(steps)
    for slot, k in last.items():
        frees[k] += (slot,)
    return steps, frees, outputs


def _plan_ref(e: Expr, index, slots, seen):
    """The slot or constant of `e` in the plan under construction; a
    module-level function, so that no closure cycle outlives the build."""
    if isinstance(e, Const):
        return repr(e.value)
    ref = seen.get(e)
    if ref is not None:
        return ref
    if isinstance(e, Var):
        if e.name not in index:
            raise EvalError(f"unbound variable '{e.name}' in compiled expression")
        step = ("var", index[e.name])
    elif isinstance(e, Neg):
        step = ("neg", _plan_ref(e.arg, index, slots, seen))
    elif isinstance(e, Call):
        step = (e.fn, _plan_ref(e.arg, index, slots, seen))
    else:
        step = (e.symbol, _plan_ref(e.left, index, slots, seen),
                _plan_ref(e.right, index, slots, seen))
    ref = slots.setdefault(step, len(slots))
    seen[e] = ref
    return ref


def _render(plan, inputs: Sequence[str], prefix: str):
    """Render `plan` as straight-line Python: the statements that compute
    each step into the local `{prefix}{slot}`, reading coordinate i as the
    text `inputs[i]`, and the text of each output. Every generated function
    (`compile_fn`, `compile_vector`, the RK4 kernel) is built from these
    lines, so all of them compute a step with the same operations."""
    steps, _, outputs = plan
    text: dict[int, str] = {}

    def ref(r) -> str:
        return text[r] if type(r) is int else f"({r})"

    lines = []
    for slot, (op, *args) in enumerate(steps):
        if op == "var":
            text[slot] = inputs[args[0]]
            continue
        a = [ref(x) for x in args]
        if op == "neg":
            code = f"-{a[0]}"
        elif op == "^":
            code = f"_pow({a[0]}, {a[1]})"
        elif op in FUNCTIONS:
            code = f"_{op}({a[0]})"
        else:
            code = f"{a[0]} {op} {a[1]}"
        text[slot] = f"{prefix}{slot}"
        lines.append(f"{prefix}{slot} = {code}")
    return lines, [ref(r) for r in outputs]


def _define(source: str, **names):
    """Execute generated `source`, which defines `_f` over `names` and the
    plan's functions (`_pow`, `_sin`, ...), and return `_f`."""
    namespace = {f"_{fn}": impl for fn, impl in FUNCTIONS.items()}
    namespace.update(_pow=math.pow, **names)
    exec(source, namespace)  # noqa: S102 - generated from a closed grammar
    return namespace["_f"]


def _compile(exprs: Sequence[Expr], names: Sequence[str], vector: bool):
    """Render the plan of `exprs` as one Python function of a value vector."""
    plan = _plan(exprs, names)
    # Each coordinate the plan reads is loaded from `v` once, into a local.
    used = sorted({args[0] for op, *args in plan[0] if op == "var"})
    lines, parts = _render(plan, [f"v{i}" for i in range(len(names))], "t")
    lines = [f"v{i} = v[{i}]" for i in used] + lines
    body = "(" + "".join(p + ", " for p in parts) + ")" if vector else parts[0]
    source = ("def _f(v):\n    try:\n"
              + "".join(f"        {line}\n" for line in lines)
              + f"        return {body}\n"
              "    except (ArithmeticError, ValueError) as exc:\n"
              "        raise _fault(exprs, names, v, str(exc)) from None\n")
    return _define(source, _fault=_fault, exprs=exprs, names=names)


def _columns(plan, block):
    """The plan's outputs as float64 columns over the rows of `block` (one
    point per row), or None where the scalar path must decide.

    `+ - * /` and negation run as numpy column operations, which round
    each element exactly as Python floats do. Powers and functions map
    `math.pow` and `FUNCTIONS` over the column. Any floating-point
    exception but underflow, any error of a mapped function and any
    non-finite input or constant step give None. So every column holds
    finite values only, and equals the scalar code row by row.
    """
    import numpy as np
    steps, frees, outputs = plan
    rows = len(block)
    vals: list = [None] * len(steps)
    try:
        coords = np.ascontiguousarray(np.asarray(block, dtype=float).T)
        if not np.isfinite(coords).all():
            return None
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for slot, (op, *args) in enumerate(steps):
                if op == "var":
                    vals[slot] = coords[args[0]]
                    continue
                a = [vals[x] if type(x) is int else float(x) for x in args]
                if op == "neg":
                    val = -a[0]
                elif op == "+":
                    val = a[0] + a[1]
                elif op == "-":
                    val = a[0] - a[1]
                elif op == "*":
                    val = a[0] * a[1]
                elif op == "/":
                    val = a[0] / a[1]
                else:
                    fn = math.pow if op == "^" else FUNCTIONS[op]
                    if all(type(x) is float for x in a):
                        val = fn(*a)
                    else:
                        lists = [x.tolist() if type(x) is not float else [x] * rows
                                 for x in a]
                        val = np.fromiter(map(fn, *lists), float, rows)
                if type(val) is float and not math.isfinite(val):
                    return None
                vals[slot] = val
                for free in frees[slot]:
                    vals[free] = None
    except (ArithmeticError, ValueError):
        return None
    out = [vals[r] if type(r) is int else float(r) for r in outputs]
    return [np.full(rows, x) if type(x) is float else x for x in out]


def _fault(exprs: Sequence[Expr], names: Sequence[str],
           values: Sequence[float], reason: str) -> EvalError:
    """The EvalError of compiled `exprs` at the point `values`, naming the
    faulting subexpression, else `reason` (such as a non-finite result)."""
    env = dict(zip(names, values))
    where = ", ".join(f"{name}={value:.6g}" for name, value in env.items())
    try:
        for e in exprs:
            _eval(e, env)
    except EvalError as err:
        reason = str(err)
    return EvalError(f"{reason} at {where}")


def compile_fn(e: Expr, names: Sequence[str]) -> Callable[[Sequence[float]], float]:
    """Compile an expression into a callable of a positional value vector.

    `names` fixes the coordinate ordering. On plain floats it returns what
    `evaluate` returns, and where `evaluate` meets a domain error it raises
    `EvalError` naming the subexpression and the point. Only a sum or
    product that overflows is not checked: it comes back as inf or nan.
    """
    return _compile((e,), names, vector=False)


def compile_vector(exprs: Sequence[Expr],
                   names: Sequence[str]) -> Callable[[Sequence[float]], tuple]:
    """Compile several expressions into one callable returning the tuple of
    their values, each computed exactly as `compile_fn` would."""
    return _compile(tuple(exprs), names, vector=True)


# ---------------------------------------------------------------------------
# Small generator used by randomized residual checks
# ---------------------------------------------------------------------------

def random_polynomial(names: Sequence[str], rng, degree: int = 2,
                      terms: int = 3) -> Expr:
    """Random polynomial with coefficients in [-1, 1]; deterministic in rng."""
    total: Expr = Const(round(float(rng.uniform(-1.0, 1.0)), 3))
    for _ in range(terms):
        coeff = round(float(rng.uniform(-1.0, 1.0)), 3)
        monomial: Expr = Const(coeff)
        for name in names:
            p = int(rng.integers(0, degree + 1))
            if p == 1:
                monomial = monomial * Var(name)
            elif p > 1:
                monomial = monomial * Pow(Var(name), Const(float(p)))
        total = total + monomial
    return simplify(total)
