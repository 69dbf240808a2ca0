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

One token pattern lexes the text: a NUMBER is decimal digits with at most
one point and an optional exponent, and an IDENT is a word that
`_is_identifier`, the one rule for names, accepts. `expr` and `term` are
one left-associative loop over a table of two operator levels.

Depth: the parser is the only recursive code, and it nests as deep as the
source text does (about 195 parentheses); deeper text is a `ParseError`
with an offset, and so is a literal that overflows a float or a number
with a second point, such as `1.2.3`. Every walker over trees
(`variables`, `substitute`, `diff`, `simplify`, the plan builder, and
`copy` and `pickle` of a node) is one per-node rule run by `_postorder`,
an explicit-stack post-order traversal that skips nodes already done, so
a tree of any depth, such as a sum of thousands of terms, is walked.
`to_string` walks top down on a stack of its own, emitting text as it
goes, so its memory is that of its output.
`simplify` and `diff` take a sum as one node: its children are the
operands of its chain of `+`/`-` nodes. One sum rule, `_sum`, splices in
their simplified forms or their derivatives with their signs, folds the
constants, cancels equal terms of opposite sign and rebuilds the rest
once, as simplifying the chain node by node would. A constant fold whose
value is not finite is left undone. `simplify` reaches its fixed point in
one pass: simplifying its result gives that result back.

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

Memo policy: `simplify` and `diff` share one memo: `simplify` keys it by
the node, and `diff` keeps one dict per variable in it, keyed by the
variable's name; both are pure, so it never changes a result.
`transport` keeps its generated RK4 kernels there too. It lives as
long as the process, but `cli.run` empties it when it returns, so each
CLI run starts and ends with it empty.

Numeric paths: all numeric work runs one straight-line plan of a tuple of
expressions, their distinct nodes in evaluation order (`_plan`). `_run`
interprets it for `evaluate`, and names the fault wherever the other back
ends meet one. `compile_fn` and `compile_vector` render it as Python
source for calls at one point at a time (the RK4 core), with each entry
of one reader written inline into that reader (`_render`). A sample
array goes through one runner, `_sample_columns`, which counts each
entry's readers (`_readers`) once and runs the plan over numpy columns
of each 2,048-row chunk. A chunk whose columns fault is reported as
None, and the caller decides over the scalar path, `_scalar_rows`: one
`compile_vector` evaluated row by row. Residual checks run it once per
label, so they raise the first fault in label order, and a non-finite
value is an error there; the sampler runs it in stream order, up to the
last row it takes, and keeps a row whose predicate is inf. So every back
end gives the same values bit for bit, and only the runner frees what it
computes.
"""

from __future__ import annotations

import math
import re
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

    def __reduce__(self):
        # A flat postorder, not nested nodes, so that `copy` and `pickle`
        # take a tree of any depth; `_rebuild` goes through the constructors.
        order: dict = {}
        _postorder(self, order, lambda node, done: len(done))
        return _rebuild, ([_fields(node, order) for node in order],)


# Each constructor looks its key up in `_nodes` and builds a node only on
# a miss.

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

    def children(self):
        return (self.arg,)


def _fields(e: Expr, order: Mapping[Expr, int]) -> tuple:
    """The class and constructor arguments of `e`, each child given by its
    position in `order`."""
    field = {Const: "value", Var: "name", Call: "fn"}.get(type(e))
    kids = (order[kid] for kid in e.children())
    return (type(e), *([getattr(e, field)] if field else ()), *kids)


def _rebuild(entries: Sequence[tuple]) -> Expr:
    """The last node of `entries`, a postorder of `_fields` tuples."""
    nodes: list[Expr] = []
    for cls, *args in entries:
        nodes.append(cls(*(nodes[a] if type(a) is int else a for a in args)))
    return nodes[-1]


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

# Past optional whitespace: a NUMBER, a run of word characters (an IDENT
# when `_is_identifier` accepts it), one symbol, or any other character;
# the groups are numbered by kind.
_TOKEN = re.compile(r"\s*(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(\w+)|"
                    r"([-+*/^()])|(\S))")
_NUMBER, _NAME, _OTHER = 1, 2, 4
# Binary operators by level, loosest first; each level is left associative.
_BINARY = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})


def _tokenize(text: str) -> list[tuple[int | None, str, int]]:
    """The (kind, text, offset) tokens of `text`, ending with an end token
    whose kind is None."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastindex
        at = match.start(kind)
        if kind == _OTHER or kind == _NAME and not _is_identifier(match[kind]):
            raise ParseError(f"unexpected character {text[at]!r}", at)
        tokens.append((kind, match[kind], at))
    return tokens + [(None, "", len(text))]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self.binary()
        kind, value, offset = self.tokens[self.pos]
        if kind is not None:
            raise ParseError(f"unexpected trailing input {value!r}", offset,
                             expected="end of input")
        return e

    def binary(self, level: int = 0) -> Expr:
        """A left-associative chain of the operators of `_BINARY[level]`,
        over operands of the levels above it."""
        last = level + 1 == len(_BINARY)
        node = self.unary() if last else self.binary(level + 1)
        ops = _BINARY[level]
        while (op := self.tokens[self.pos][1]) in ops:
            self.pos += 1
            node = ops[op](node, self.unary() if last
                           else self.binary(level + 1))
        return node

    def unary(self) -> Expr:
        if self.tokens[self.pos][1] == "-":
            # Taken through a call, so that a chain of minus signs too deep
            # to parse fails at the offset of the first sign not taken.
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.tokens[self.pos][1] == "^":
            self.pos += 1
            return Pow(base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == _NUMBER:
            if not math.isfinite(float(value)):
                raise ParseError("number out of range", offset)
            return Const(float(value))
        call = kind == _NAME and self.tokens[self.pos][1] == "("
        if kind == _NAME and not call:
            return Var(value)
        if call and value not in FUNCTIONS:
            raise ParseError(f"unknown function {value!r}", offset,
                             expected="one of " + ", ".join(sorted(FUNCTIONS)))
        if value != "(" and not call:
            raise ParseError(f"unexpected token {value!r}" if value
                             else "unexpected end of input", offset,
                             expected="an expression")
        self.pos += call  # the "(" of a call
        e = self.binary()
        _, closing, at = self.advance()
        if closing != ")":
            raise ParseError(f"unexpected token {closing!r}", at,
                             expected="')'")
        return Call(value, e) if call else e


def parse(text: str) -> Expr:
    """Parse a string into an expression tree."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0, expected="an expression")
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        # Recursive descent nests as deep as the text does; the innermost
        # call may have taken the end token.
        tokens = parser.tokens
        raise ParseError("expression nested too deeply",
                         tokens[min(parser.pos, len(tokens) - 1)][2]) from None


# ---------------------------------------------------------------------------
# Traversal: every walker below is one per-node rule over this order
# ---------------------------------------------------------------------------

def _postorder(root, done, rule, kids=None):
    """Set `done[node] = rule(node, done)` for each node under `root` not
    yet in `done`, after the nodes `kids(node)` (by default its children)
    lists for it, as a memoized recursion would, and return `done[root]`.
    An explicit stack stands in for the recursion: no depth limit."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            node = stack.pop()
        elif node in done:
            continue
        else:
            below = node.children() if kids is None else kids(node)
            if below:
                stack += (node, None)
                for kid in reversed(below):
                    if kid not in done:
                        stack.append(kid)
                continue
        done[node] = rule(node, done)
    return done[root]


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
    """Print an expression. The output re-parses to an equivalent tree.

    One pass, top down on an explicit stack: each node is replaced by its
    pieces, literal text and child nodes, and the text is joined once at
    the end, so memory stays linear in the length of the output."""
    pieces: list[str] = []
    stack: list = [e]
    while stack:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
        else:
            stack += reversed(_pieces(item))
    return "".join(pieces)


def _pieces(e: Expr) -> tuple:
    """The text of one node of `to_string`: strings and child nodes, in
    order."""
    if isinstance(e, Const):
        if e.value < 0:
            return ("-" + _fmt_const(-e.value),)
        return (_fmt_const(e.value),)
    if isinstance(e, Var):
        return (e.name,)
    if isinstance(e, Neg):
        if _prec(e.arg) <= _P_NEG:
            return ("-(", e.arg, ")")
        return ("-", e.arg)
    if isinstance(e, Call):
        return (f"{e.fn}(", e.arg, ")")
    if isinstance(e, _Binary):
        if isinstance(e, Pow):  # right associative
            wrap_left = _prec(e.left) <= _P_POW
            wrap_right = _prec(e.right) < _P_POW
        else:
            wrap_left = _prec(e.left) < e.precedence
            # Parenthesize same-precedence right children so the printed
            # text re-parses to the identical grouping.
            wrap_right = _prec(e.right) <= e.precedence
        op = f" {e.symbol} " if e.symbol in "+-" else e.symbol
        left = ("(", e.left, ")") if wrap_left else (e.left,)
        right = ("(", e.right, ")") if wrap_right else (e.right,)
        return (*left, op, *right)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate numerically. Raises EvalError on unbound variables and
    domain violations (division by zero, ln of a non-positive number,
    sqrt of a negative number, overflow) instead of returning NaN/Inf."""
    (result,) = _run(_plan((e,), variables(e)), env)
    if not math.isfinite(result):
        raise EvalError("non-finite result", e)
    return result


def _run(plan, env: Mapping[str, float]) -> list[float]:
    """The plan's outputs at the point `env`, computed one entry at a time
    in plan order, raising the EvalError of the first entry that faults:
    the one scalar interpreter, behind `evaluate` and `_fault`."""
    slot, outputs, _ = plan
    vals: list = []
    for e in slot:
        vals.append(_eval_node(e, vals, slot, env))
    return [vals[r] for r in outputs]


def _eval_node(e, vals: list, slot: Mapping, env: Mapping[str, float]):
    """One entry of `_run`, the values of the entries before it in `vals`."""
    if type(e) is tuple:
        if vals[slot[e[0].right]] == 0.0:
            raise EvalError("division by zero", e[0])
        return None
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            x = env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable '{e.name}'") from None
        if not math.isfinite(x):
            raise EvalError(f"non-finite binding for '{e.name}'")
        return x
    if isinstance(e, Neg):
        return -vals[slot[e.arg]]
    if isinstance(e, Call):
        arg = vals[slot[e.arg]]
        if e.fn == "ln" and arg <= 0.0:
            raise EvalError("ln of a non-positive number", e)
        if e.fn == "sqrt" and arg < 0.0:
            raise EvalError("sqrt of a negative number", e)
        try:
            return FUNCTIONS[e.fn](arg)
        except (ValueError, OverflowError):
            raise EvalError(f"domain error in {e.fn}", e) from None
    left, right = vals[slot[e.left]], vals[slot[e.right]]
    if isinstance(e, Add):
        return left + right
    if isinstance(e, Sub):
        return left - right
    if isinstance(e, Mul):
        return left * right
    if isinstance(e, Div):
        return left / right
    try:  # a power
        return math.pow(left, right)
    except (ValueError, OverflowError):
        raise EvalError("invalid power", e) from None


def variables(e: Expr) -> frozenset[str]:
    """Free variable names of an expression."""
    seen: dict[Expr, None] = {}
    _postorder(e, seen, lambda node, done: None)
    return frozenset(node.name for node in seen if isinstance(node, Var))


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
    memo = _memo.setdefault(var, {})
    result = memo.get(e)
    if result is None:
        result = _postorder(e, memo, lambda node, d: _diff_node(node, var, d),
                            _kids)
    return result


def _operands(e: Expr) -> list[tuple[float, Expr]]:
    """The operands of the chain of +/- nodes down the left of `e`, with
    their signs, left to right."""
    out = []
    while type(e) is Add or type(e) is Sub:
        out.append((1.0 if type(e) is Add else -1.0, e.right))
        e = e.left
    out.append((1.0, e))
    out.reverse()
    return out


def _kids(e: Expr):
    """The children of `e` for `simplify` and `diff`: a sum's are its
    chain's operands."""
    if type(e) is Add or type(e) is Sub:
        return [term for _, term in _operands(e)]
    return e.children()


def _diff_node(e: Expr, var: str, d: Mapping[Expr, Expr]) -> Expr:
    """One node of `diff`, the derivatives of its children already in `d`.
    A sum's signed operand derivatives go through the sum rule `_sum`."""
    if type(e) is Add or type(e) is Sub:
        return _sum(_spliced(_operands(e), d))
    return simplify(_diff(e, var, d))


def _diff(e: Expr, var: str, d: Mapping[Expr, Expr]) -> Expr:
    """One node of `diff`, the derivatives of its children already in `d`."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return Neg(d[e.arg])
    if isinstance(e, Mul):
        return Add(Mul(d[e.left], e.right), Mul(e.left, d[e.right]))
    if isinstance(e, Div):
        return Div(Sub(Mul(d[e.left], e.right), Mul(e.left, d[e.right])),
                   Pow(e.right, Const(2.0)))
    if isinstance(e, Pow):
        base, exponent = e.left, e.right
        if isinstance(exponent, Const):
            # d(u^c) = c * u^(c-1) * u'
            return Mul(Mul(exponent, Pow(base, Const(exponent.value - 1.0))),
                       d[base])
        # General case via u^v = exp(v ln u); valid for positive base.
        return Mul(e, Add(Mul(d[exponent], Call("ln", base)),
                          Mul(exponent, Div(d[base], base))))
    if isinstance(e, Call):
        inner = d[e.arg]
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


# The nodes `_spliced` hands to `_add_terms`.
_SPLICED = (Add, Sub, Neg, Const)


def _add_terms(e: Expr, sign: float = 1.0) -> list[tuple[float, Expr]]:
    """Flatten nested +/-/Neg into a signed term list, left to right. A
    constant whose sign bit is set is taken as its negation with the
    opposite sign, so `Const(-c)` and `Neg(Const(c))` are one term."""
    out, stack = [], [(sign, e)]
    while stack:
        sign, e = stack.pop()
        cls = type(e)
        if cls is Add:
            stack += ((sign, e.right), (sign, e.left))
        elif cls is Sub:
            stack += ((-sign, e.right), (sign, e.left))
        elif cls is Neg:
            stack.append((-sign, e.arg))
        elif cls is Const and math.copysign(1.0, e.value) < 0:
            out.append((-sign, Const(-e.value)))
        else:
            out.append((sign, e))
    return out


def _spliced(terms: list[tuple[float, Expr]], memo: Mapping[Expr, Expr]
             ) -> list[tuple[float, Expr]]:
    """`terms` with each term replaced by its entry in `memo`, flattened
    in with its sign by `_add_terms`."""
    out = []
    for sign, term in terms:
        term = memo[term]
        if type(term) in _SPLICED:
            out += _add_terms(term, sign)
        else:
            out.append((sign, term))
    return out


def _signed(value: float) -> tuple[float, Expr]:
    """The nonzero constant `value` as a signed term of `_spliced`."""
    return (1.0, Const(value)) if value > 0 else (-1.0, Const(-value))


def _sum(raw: list[tuple[float, Expr]]) -> Expr:
    """The sum rule of `simplify` and `diff`: the sum of the signed terms
    `raw` from `_spliced`, each simplified, in one pass that takes them as
    a chain of sums simplified node by node would.

    Constants fold into one total, put last. Once the total would not be
    finite, it becomes a term where it stands, and the constants after it
    stay terms. An equal term of opposite sign cancels the earliest one
    kept; a constant that cancels starts the pass again on the terms kept
    and the rest, so the constants left fold. The result is rebuilt once,
    in order, with a negative constant at its head built as that constant,
    so it simplifies to itself.
    """
    kept: dict[int, tuple[float, Expr]] = {}
    waiting: dict[tuple[float, Expr], list[int]] = {}
    const = 0.0  # the folded total; None once it is a term
    i = 0
    while i < len(raw):
        sign, term = item = raw[i]
        if type(term) is Const and const is not None:
            total = const + sign * term.value
            if math.isfinite(total):
                const, i = total, i + 1
            else:
                raw, const = raw[:i] + [_signed(const)] + raw[i:], None
            continue
        i += 1
        match = waiting.get((-sign, term))
        if not match:
            kept[i] = item
            waiting.setdefault(item, []).append(i)
            continue
        del kept[match.pop(0)]
        if type(term) is Const:
            raw, i, const = list(kept.values()) + raw[i:], 0, 0.0
            kept, waiting = {}, {}
    items = list(kept.values())
    if const:
        items.append(_signed(const))
    if not items:
        return ZERO
    sign, node = items[0]
    if sign < 0:
        node = Const(-node.value) if type(node) is Const else Neg(node)
    for sign, term in items[1:]:
        node = Sub(node, term) if sign < 0 else Add(node, term)
    return node


def simplify(e: Expr) -> Expr:
    """Conservative simplification: constant folding, 0/1 absorption,
    identity rules and cancellation of equal terms. The
    result is semantically equal to the input on its domain, and
    simplifies to itself. Results are memoized per expression (see the
    module docstring)."""
    if isinstance(e, (Const, Var)):
        return e
    result = _memo.get(e)
    if result is None:
        result = _postorder(e, _memo, _simplify, _kids)
    return result


def _simplify(e: Expr, memo: Mapping[Expr, Expr]) -> Expr:
    """One node of `simplify`, its children already simplified in `memo`.
    A rule that builds a new node simplifies it through `simplify`."""
    cls = type(e)
    if cls is Add or cls is Sub:
        return _sum(_spliced(_operands(e), memo))
    if cls is Const or cls is Var:
        return e

    if isinstance(e, Neg):
        arg = memo[e.arg]
        if isinstance(arg, Const):
            return Const(-arg.value)
        return _sum(_spliced([(-1.0, e.arg)], memo))

    # A fold of constants whose value is not finite is left undone.
    if isinstance(e, Mul):
        left = memo[e.left]
        right = memo[e.right]
        if isinstance(left, Const) and isinstance(right, Const):
            value = left.value * right.value
            return Const(value) if math.isfinite(value) else Mul(left, right)
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
        if isinstance(left, Const) and isinstance(right, Mul) and isinstance(right.left, Const) \
                and math.isfinite(left.value * right.left.value):
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
        left = memo[e.left]
        right = memo[e.right]
        if isinstance(left, Const) and isinstance(right, Const) and right.value != 0.0 \
                and math.isfinite(left.value / right.value):
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
            if isinstance(left.left, Const) and isinstance(right, Const) and right.value != 0.0 \
                    and math.isfinite(left.left.value / right.value):
                return simplify(Mul(Const(left.left.value / right.value), left.right))
        return Div(left, right)

    if isinstance(e, Pow):
        base = memo[e.left]
        exponent = memo[e.right]
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
        arg = memo[e.arg]
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
    return _postorder(e, {}, lambda node, new: _substituted(node, new, bindings))


def _substituted(e: Expr, new: Mapping[Expr, Expr], bindings) -> Expr:
    """One node of `substitute`, its children's results already in `new`."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return bindings.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(new[e.arg])
    if isinstance(e, Call):
        return Call(e.fn, new[e.arg])
    if isinstance(e, _Binary):
        return type(e)(new[e.left], new[e.right])
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Straight-line plans: the one numeric path
# ---------------------------------------------------------------------------

# Rows of samples a column runner takes at a time.
_CHUNK = 2048

# The deepest nesting of single-reader entries `_render` writes inline.
_INLINE_DEPTH = 4


def _plan(exprs: Sequence[Expr], names: Sequence[str]):
    """One straight-line plan computing `exprs` from a vector of `names`.

    Returns `(slot, outputs, index)`. `slot` maps each entry, in
    evaluation order, to its position, its slot: the entries are the
    distinct nodes of `exprs` (hash-consing keeps `-0.0` and `0.0` apart)
    and each quotient `q`'s zero check `(q,)`, in a post-order walk of the
    expressions in sequence (`_plan_kids`). `outputs` is the slot of each
    expression and `index` the coordinate of each name. A variable not in
    `names` is an EvalError. A plan holds no liveness: `_sample_columns`,
    the only runner that frees what it computes, counts the readers.
    """
    index = {name: i for i, name in enumerate(names)}
    slot: dict = {}
    outputs = tuple(_postorder(e, slot, lambda node, done: len(done), _plan_kids)
                    for e in exprs)
    for e in slot:
        if type(e) is Var and e.name not in index:
            raise EvalError(f"unbound variable '{e.name}' in compiled expression")
    return slot, outputs, index


def _plan_kids(e):
    """The entries `_plan` puts before `e`, a shared one at its first use:
    a quotient's denominator, its zero check `(e,)`, then its numerator."""
    if type(e) is Div:
        return (e.right, (e,), e.left)
    return () if type(e) is tuple else e.children()


def _readers(plan) -> list[int]:
    """Each entry's readers: one per entry that takes it as an operand,
    and one more per output it is, so an output is never dropped."""
    slot, outputs, _ = plan
    readers = [0] * len(slot)
    for r in outputs:
        readers[r] += 1
    for e in slot:
        if type(e) is not tuple:
            for kid in e.children():
                readers[slot[kid]] += 1
    return readers


def _render(plan, inputs: Sequence[str], prefix: str):
    """Render `plan` as straight-line Python: the statements that compute
    the entries into locals `{prefix}{slot}`, reading coordinate i as the
    text `inputs[i]`, and the text of each output. A zero check emits
    nothing: Python's `/` raises. An entry that is not an output and has
    exactly one reader is written as a parenthesized expression inside
    that reader, up to `_INLINE_DEPTH` levels deep; every other entry is
    a named local. Inlining moves where an entry is computed, never with
    what: each value is the same operation on the same operands. So a
    fault can be met at another entry first, but the generated code only
    says that a fault occurred, and `_fault` names it in plan order.
    Every generated function (`compile_fn`, `compile_vector`, the RK4
    kernel) is built from these lines, so all of them compute an entry
    with the same operations."""
    slot, outputs, index = plan
    readers = _readers(plan)
    named = set(outputs)
    text: list = []
    depth = [0] * len(slot)
    lines = []
    for k, e in enumerate(slot):
        cls = type(e)
        if cls is Neg:
            code = f"-{text[slot[e.arg]]}"
        elif cls is Call:
            code = f"_{e.fn}({text[slot[e.arg]]})"
        elif isinstance(e, _Binary):
            a, b = text[slot[e.left]], text[slot[e.right]]
            code = f"_pow({a}, {b})" if cls is Pow else f"{a} {e.symbol} {b}"
        else:
            text.append(f"({e.value!r})" if cls is Const else
                        inputs[index[e.name]] if cls is Var else None)
            continue
        level = 1 + max(depth[slot[kid]] for kid in e.children())
        if readers[k] == 1 and k not in named and level <= _INLINE_DEPTH:
            text.append(f"({code})")
            depth[k] = level
        else:
            text.append(f"{prefix}{k}")
            lines.append(f"{prefix}{k} = {code}")
    return lines, [text[r] for r in outputs]


def _define(source: str, **names):
    """Execute generated `source`, which defines `_f` over `names` and the
    plan's functions (`_pow`, `_sin`, ...), and return `_f`."""
    namespace = {f"_{fn}": impl for fn, impl in FUNCTIONS.items()}
    namespace.update(_pow=math.pow, **names)
    exec(source, namespace)  # noqa: S102 - generated from a closed grammar
    return namespace["_f"]


def _sample_columns(exprs: Sequence[Expr], names: Sequence[str], samples):
    """Lazily, for each chunk of `_CHUNK` rows of `samples` (one point per
    row), its slice and the columns `_columns` gives over it. The plan and
    each entry's `_readers` are counted once; each chunk uses up a copy of
    the counts, and the last chunk the counts themselves."""
    plan = _plan(exprs, names)
    readers = _readers(plan)
    for start in range(0, len(samples), _CHUNK):
        rows = slice(start, start + _CHUNK)
        last = start + _CHUNK >= len(samples)
        yield rows, _columns(plan, readers if last else readers.copy(),
                             samples[rows])


def _columns(plan, readers: list, block):
    """The plan's outputs as float64 columns over the rows of `block` (one
    point per row), or None where the scalar path must decide.

    `+ - * /`, negation and `sqrt` run as numpy column operations, which
    round each element exactly as Python floats do (IEEE 754 rounds a
    square root correctly). `^` runs as `np.float_power`, whose float64
    loop calls the C library's `pow` on each element, as `math.pow` does
    for finite arguments. `sin`, `cos`, `tan`, `exp` and `ln` map their
    `math` function over the column: numpy's own loops for them, like
    `np.power` and a `x*x` rewrite of `x^2`, differ from libm in the last
    bit on some inputs. Entries of constants only run in Python. Any
    floating-point exception but underflow, any error of a mapped
    function, any non-finite input or constant entry, and any non-finite
    element of a power or root give None. So every column holds finite
    values only, and equals the scalar code row by row.

    It uses up `readers`, each entry's readers still to come, dropping a
    column once its last reader has taken it.
    """
    import numpy as np
    slot, outputs, index = plan
    rows = len(block)
    vals: list = [None] * len(slot)
    try:
        coords = np.ascontiguousarray(np.asarray(block, dtype=float).T)
        if not np.isfinite(coords).all():
            return None
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for k, e in enumerate(slot):
                cls = type(e)
                if cls is tuple:  # a zero denominator raises at its quotient
                    continue
                kids = [slot[kid] for kid in e.children()]
                a = [vals[s] for s in kids]
                for s in kids:
                    readers[s] -= 1
                    if not readers[s]:
                        vals[s] = None
                if cls is Const:
                    val = e.value
                elif cls is Var:
                    val = coords[index[e.name]]
                elif cls is Neg:
                    val = -a[0]
                elif cls is Add:
                    val = a[0] + a[1]
                elif cls is Sub:
                    val = a[0] - a[1]
                elif cls is Mul:
                    val = a[0] * a[1]
                elif cls is Div:
                    val = a[0] / a[1]
                elif all(type(x) is float for x in a):
                    val = (math.pow if cls is Pow else FUNCTIONS[e.fn])(*a)
                elif cls is Pow or e.fn == "sqrt":
                    val = np.float_power(*a) if cls is Pow else np.sqrt(a[0])
                    if not np.isfinite(val).all():
                        return None
                else:
                    val = np.fromiter(map(FUNCTIONS[e.fn], a[0].tolist()), float, rows)
                if type(val) is float and not math.isfinite(val):
                    return None
                vals[k] = val
    except (ArithmeticError, ValueError):
        return None
    return [np.full(rows, vals[r]) if type(vals[r]) is float else vals[r]
            for r in outputs]


def _fault(exprs: Sequence[Expr], names: Sequence[str],
           values: Sequence[float], reason: str) -> EvalError:
    """The EvalError of compiled `exprs` at the point `values`: that of the
    first entry of their plan that faults under `_run`, else `reason`
    (such as a non-finite result)."""
    env = dict(zip(names, values))
    where = ", ".join(f"{name}={value:.6g}" for name, value in env.items())
    try:
        _run(_plan(exprs, names), env)
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
    fn = compile_vector((e,), names)
    return lambda v: fn(v)[0]


def compile_vector(exprs: Sequence[Expr],
                   names: Sequence[str]) -> Callable[[Sequence[float]], tuple]:
    """Compile several expressions into one callable returning the tuple of
    their values, each as `compile_fn` gives it: their plan rendered as one
    Python function of a value vector."""
    exprs = tuple(exprs)
    plan = _plan(exprs, names)
    slot, _, index = plan
    # Each coordinate the plan reads is loaded from `v` once, into a local.
    used = sorted({index[e.name] for e in slot if type(e) is Var})
    lines, parts = _render(plan, [f"v{i}" for i in range(len(names))], "t")
    lines = [f"v{i} = v[{i}]" for i in used] + lines
    source = ("def _f(v):\n    try:\n"
              + "".join(f"        {line}\n" for line in lines)
              + "        return (" + "".join(p + ", " for p in parts) + ")\n"
              "    except (ArithmeticError, ValueError) as exc:\n"
              "        raise _fault(exprs, names, v, str(exc)) from None\n")
    return _define(source, _fault=_fault, exprs=exprs, names=names)


def _scalar_rows(exprs: Sequence[Expr], names: Sequence[str],
                 rows: Sequence[Sequence[float]]):
    """The scalar path: the value tuples of `exprs` at `rows`, computed as
    they are taken (a fault raises there, a non-finite value is returned),
    and `fault(row, reason)`, the EvalError at the row of that index."""
    values = map(compile_vector(exprs, names), rows)
    return values, lambda row, reason: _fault(exprs, names, rows[row], reason)


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
