import ast
import copy
import math
import operator
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linconn.expr import (
    Add, Call, Const, Div, EvalError, Mul, Neg, ParseError, Pow, Sub, Var,
    ONE, ZERO, _INLINE_DEPTH, _P_NEG, _P_POW, _diff, _fmt_const, _memo, _plan,
    _postorder, _prec, _render, _run, _sample_columns, compile_fn,
    compile_vector, diff, evaluate,
    is_zero, parse, simplify, substitute, to_string, variables,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_tree_shape():
    e = parse("u1^2 + sin(x1)")
    assert isinstance(e, Add)
    assert isinstance(e.left, Pow)
    assert isinstance(e.right, Call) and e.right.fn == "sin"


def test_parse_evaluates_standard_reading():
    assert evaluate(parse("2*x1*u1"), {"x1": 3, "u1": 4}) == 24.0
    assert evaluate(parse("2+3*4"), {}) == 14.0
    assert evaluate(parse("2^3^2"), {}) == 512.0          # right associative
    assert evaluate(parse("-2^2"), {}) == -4.0            # ^ above unary minus
    assert evaluate(parse("6/3/2"), {}) == 1.0            # left associative
    assert evaluate(parse("2^-1"), {}) == 0.5
    assert evaluate(parse("1e-3 + 1E2"), {}) == pytest.approx(100.001)


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse("sin(")
    assert err.value.offset == 4

    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError) as err:
        parse("foo(x1)")
    assert "unknown function" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("x1 + ")
    assert err.value.expected is not None
    with pytest.raises(ParseError):
        parse("x1 x2")
    with pytest.raises(ParseError):
        parse("(x1")


def test_signed_zero_constants_are_two_nodes():
    assert Const(0) is Const(0.0) is ZERO
    assert Const(-0.0) is Const(-0.0)
    assert Const(0.0) is not Const(-0.0)
    assert is_zero(ZERO) and is_zero(Const(-0.0))
    assert not any(map(is_zero, (ONE, Const(1e-300), Var("x1"), Neg(ZERO))))


def test_constants_reject_nonfinite():
    with pytest.raises(ValueError):
        Const(float("nan"))
    with pytest.raises(ValueError):
        Const(float("inf"))


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def test_diff_examples():
    assert to_string(diff(parse("u1^2"), "u1")) == "2*u1"
    assert to_string(diff(parse("sin(x1)*u1"), "x1")) == "cos(x1)*u1"
    assert diff(parse("x2"), "u1") == ZERO


def test_a_sum_that_folds_to_a_negative_constant_is_that_constant():
    assert simplify(parse("1 - 3")) is Const(-2.0)
    assert diff(parse("u1/(-2)"), "u1") is Const(-0.5)
    assert to_string(diff(parse("u1/(-2)"), "u1")) == "-0.5"


def test_diff_chain_and_quotient():
    e = diff(parse("sin(x1^2)"), "x1")
    assert evaluate(e, {"x1": 0.7}) == pytest.approx(math.cos(0.49) * 1.4)
    e = diff(parse("x1/u1"), "u1")
    assert evaluate(e, {"x1": 2.0, "u1": 3.0}) == pytest.approx(-2.0 / 9.0)
    e = diff(parse("ln(x1)"), "x1")
    assert evaluate(e, {"x1": 2.0}) == pytest.approx(0.5)
    e = diff(parse("sqrt(x1)"), "x1")
    assert evaluate(e, {"x1": 4.0}) == pytest.approx(0.25)
    e = diff(parse("tan(x1)"), "x1")
    assert evaluate(e, {"x1": 0.3}) == pytest.approx(1.0 / math.cos(0.3) ** 2)


def test_diff_variable_exponent():
    e = diff(parse("x1^u1"), "u1")
    assert evaluate(e, {"x1": 2.0, "u1": 3.0}) == \
        pytest.approx(8.0 * math.log(2.0))


def test_third_order_derivatives_exact():
    e = parse("x1^5")
    third = diff(diff(diff(e, "x1"), "x1"), "x1")
    assert evaluate(third, {"x1": 2.0}) == pytest.approx(60.0 * 4.0)


# ---------------------------------------------------------------------------
# Evaluation errors
# ---------------------------------------------------------------------------

def test_eval_division_by_zero_names_subexpression():
    with pytest.raises(EvalError) as err:
        evaluate(parse("x1/u1"), {"x1": 1.0, "u1": 0.0})
    assert "x1/u1" in str(err.value)


def test_eval_checks_a_denominator_before_its_numerator():
    # The numerator's own fault comes later than the zero denominator.
    with pytest.raises(EvalError) as err:
        evaluate(parse("ln(x1 - 2)/(x1 - x1)"), {"x1": 1.0})
    assert str(err.value) == "division by zero in 'ln(x1 - 2)/(x1 - x1)'"


def test_parse_refuses_a_nonfinite_literal():
    with pytest.raises(ParseError) as err:
        parse("x1 + 1e400")
    assert err.value.offset == 5 and "number out of range" in str(err.value)


def test_parse_maps_deep_nesting_to_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse("(" * 2000 + "u1" + ")" * 2000)
    assert "nested too deeply" in str(err.value)


def test_unclosed_nesting_at_the_depth_limit_is_a_parse_error():
    """Whatever the depth of the caller's stack, so wherever the limit
    falls, unclosed parentheses are a ParseError, also when the innermost
    call has taken the end of the input."""
    def nested(extra, text):
        return nested(extra - 1, text) if extra else parse(text)

    for extra in range(5):
        for n in range(100, 300):
            with pytest.raises(ParseError):
                nested(extra, "(" * n)


@pytest.mark.parametrize("text, value", [
    ("1.", 1.0), (".5", 0.5), ("1.5e-3", 1.5e-3), ("2E+2", 200.0),
    ("٣", 3.0)])
def test_a_number_is_decimal_digits_with_at_most_one_point(text, value):
    assert parse(text) is Const(value)


@pytest.mark.parametrize("text, message", [
    ("1.2.3", "unexpected trailing input '.3' at offset 3 "
              "(expected end of input)"),
    ("x1 + 1..5", "unexpected trailing input '.5' at offset 7 "
                  "(expected end of input)"),
    ("²", "unexpected character '²' at offset 0"),
    ("2²", "unexpected character '²' at offset 1"),
    ("x1 + .", "unexpected character '.' at offset 5")])
def test_a_malformed_number_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_a_name_is_what_is_identifier_accepts():
    assert parse("x² + α_1") is Add(Var("x²"), Var("α_1"))


# The grammar's characters, with a point, a digit that is not decimal (²),
# a decimal digit of another script (٣) and a letter that is not ASCII
# (α); and some words, so that calls and names come up.
PARSE_PIECES = (*"0123456789eE+-*/^() _xu.²٣α",
                "sin", "ln", "x1", "1.5", ".5")


@settings(max_examples=500, deadline=None)
@given(text=st.lists(st.sampled_from(PARSE_PIECES), max_size=16)
       .map("".join))
@example(text="1.2.3")
@example(text="²")
@example(text="(1.5.)")
def test_any_text_parses_or_is_a_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass


def _deep_trees():
    chain = parse("u1*u1" + "*x1" * 5000)
    total = parse(" + ".join(f"{k}*x1*u1" for k in range(1, 1200)))
    negs = calls = Var("u1")
    for _ in range(5000):
        negs = Neg(negs)
        calls = Call("sin", calls)
    return chain, total, negs, calls


@pytest.mark.parametrize("e", _deep_trees(),
                         ids=["product", "sum", "negations", "calls"])
def test_walkers_take_any_depth(e):
    env = {"x1": 0.5, "u1": 0.25}
    assert variables(e) <= {"x1", "u1"}
    assert to_string(e)
    value = evaluate(e, env)
    assert evaluate(simplify(e), env) == pytest.approx(value, rel=1e-9)
    assert compile_fn(e, ("x1", "u1"))((0.5, 0.25)) == value
    moved = substitute(e, {"x1": Const(0.5)})
    assert evaluate(moved, {"u1": 0.25}) == value
    evaluate(diff(e, "u1"), env)
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.deepcopy(e) is e


def test_eval_identity():
    assert evaluate(parse("exp(0)"), {}) == 1.0


def test_eval_unbound_variable():
    with pytest.raises(EvalError) as err:
        evaluate(parse("x1 + q9"), {"x1": 1.0})
    assert "q9" in str(err.value)
    # An unbound name faults at its own step, after an earlier fault.
    with pytest.raises(EvalError) as err:
        evaluate(parse("1/(x1 - x1) + y"), {"x1": 1.0})
    assert str(err.value) == "division by zero in '1/(x1 - x1)'"


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        evaluate(parse("ln(x1)"), {"x1": -1.0})
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(x1)"), {"x1": -1.0})
    with pytest.raises(EvalError):
        evaluate(parse("(-2)^(1/2)"), {})
    with pytest.raises(EvalError):
        evaluate(parse("exp(x1)"), {"x1": 1e9})


def test_diff_matches_finite_difference_of_cube():
    d = diff(parse("x1^3"), "x1")
    at = evaluate(d, {"x1": 2.0})
    h = 1e-6
    fd = (evaluate(parse("x1^3"), {"x1": 2.0 + h}) -
          evaluate(parse("x1^3"), {"x1": 2.0 - h})) / (2 * h)
    assert at == pytest.approx(12.0)
    assert abs(fd - at) / abs(at) < 1e-6


# ---------------------------------------------------------------------------
# Simplification and substitution
# ---------------------------------------------------------------------------

def test_simplify_examples():
    assert to_string(simplify(parse("0*u1 + x1*1"))) == "x1"
    assert to_string(simplify(parse("2+3"))) == "5"
    assert to_string(simplify(diff(parse("u1*u2"), "u1"))) == "u2"
    assert simplify(parse("x1 - x1")) == ZERO
    assert to_string(simplify(parse("x1^1"))) == "x1"
    assert simplify(parse("0^3")) == ZERO
    assert to_string(simplify(parse("(2*p1)/2"))) == "p1"
    assert to_string(simplify(Mul(parse("x1/p1"), parse("p1")))) == "x1"


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_memo_keeps_signed_zeros_apart(first):
    # -(-0.0) is 0.0 and -(0.0) is -0.0, whichever the memo saw first.
    _memo.clear()
    for value in (first, -first, first):
        got = simplify(Neg(Const(value))).value
        assert math.copysign(1.0, got) == -math.copysign(1.0, value)


def test_substitute_examples():
    out = substitute(parse("u1^2"), {"u1": parse("z1/z0")})
    assert to_string(out) == "(z1/z0)^2"
    out = substitute(parse("x1+u1"), {"x1": parse("u1")})
    assert to_string(out) == "u1 + u1"           # simultaneous, not cascaded
    out = substitute(parse("sin(u1)"), {})
    assert to_string(out) == "sin(u1)"


def test_variables():
    assert variables(parse("x1*sin(u2) + 3")) == frozenset({"x1", "u2"})


def test_compile_vector_matches_compile_fn_bit_for_bit():
    names = ("x1", "u1")
    exprs = [parse("x1^2*sin(u1) - exp(x1/4)"), parse("-(0 + u1*x1)"), ZERO]
    point = np.array([0.8, -0.4])
    fused = compile_vector(exprs, names)(point)
    assert fused == tuple(compile_fn(e, names)(point) for e in exprs)
    assert compile_vector((), names)(point) == ()
    with pytest.raises(EvalError):
        compile_vector([parse("x2")], names)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_NAMES = ("x1", "x2", "u1", "u2")


def _leaf():
    return st.one_of(
        st.sampled_from(_NAMES).map(Var),
        st.floats(min_value=-3.0, max_value=3.0,
                  allow_nan=False).map(lambda v: Const(round(v, 3))),
    )


def _build_binary(args):
    op, a, b = args
    return {"+": Add, "-": Sub, "*": Mul}[op](a, b)


def _build_unary(args):
    op, c = args
    if op == "neg":
        return Neg(c)
    if op == "pow2":
        return Pow(c, Const(2.0))
    if op == "exp":
        return Call("exp", Mul(Const(0.25), c))
    return Call(op, c)


def _combine(children):
    binary = st.tuples(st.sampled_from("+-*"), children, children).map(_build_binary)
    unary = st.tuples(st.sampled_from(["neg", "sin", "cos", "exp", "pow2"]),
                      children).map(_build_unary)
    return st.one_of(binary, unary)


def expressions():
    return st.recursive(_leaf(), _combine, max_leaves=12)


def _build_domain_op(args):
    op, a, b = args
    if op == "/":
        return Div(a, b)
    if op == "^0.5":
        return Pow(a, Const(0.5))
    return Call(op, a)


def _domain_combine(children):
    partial = st.tuples(st.sampled_from(["/", "^0.5", "ln", "sqrt"]),
                        children, children).map(_build_domain_op)
    return st.one_of(_combine(children), partial)


def domain_expressions():
    """`expressions()` plus the partial operations: ln, sqrt, / and ^0.5."""
    return st.recursive(_leaf(), _domain_combine, max_leaves=12)


# Integer exponents, and negative and fractional ones, which fault at zero
# and below it.
_EXPONENTS = (-2.0, -1.0, 1 / 3, 0.5, 1.5, 2.0, 2.5, 3.0)


def _build_power(args):
    op, a, b, exponent = args
    if op == "column":
        return Pow(a, b)  # a column exponent
    if op == "base":
        return Pow(Const(exponent), b)  # a constant base
    if op == "sqrt":
        return Call("sqrt", a)
    return Pow(a, Const(exponent))


def _power_combine(children):
    power = st.tuples(st.sampled_from(["column", "base", "sqrt", "constant"]),
                      children, children,
                      st.sampled_from(_EXPONENTS)).map(_build_power)
    return st.one_of(_combine(children), power)


def power_expressions():
    """`expressions()` plus `^` with a column exponent, with a constant base,
    with negative and fractional exponents, and `sqrt`."""
    return st.recursive(_leaf(), _power_combine, max_leaves=12)


def _points():
    coordinate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    return st.lists(st.fixed_dictionaries({n: coordinate for n in _NAMES}),
                    min_size=1, max_size=6)


def _assert_runs_as_evaluate(run, exprs, env):
    """`run()` gives the values `evaluate` gives `exprs` at `env`, bit for
    bit, or raises the first domain error `evaluate` meets over them in
    sequence, at the point."""
    expected, first = [], None
    for x in exprs:
        try:
            expected.append(evaluate(x, env).hex())
        except EvalError as err:
            # Only a sum or product that overflows escapes the compiled
            # checks, and evaluate reports it as a non-finite result.
            if not str(err).startswith("non-finite result"):
                first = str(err)
                break
            expected.append(None)
    if first is not None:
        with pytest.raises(EvalError) as fault:
            run()
        assert str(fault.value).startswith(f"{first} at x1=")
        return
    for want, got in zip(expected, run(), strict=True):
        assert got.hex() == want if want else not math.isfinite(got)


@settings(max_examples=150, deadline=None)
@given(domain_expressions(), domain_expressions(), _points())
@example(parse("x1^2*sin(u1) - exp(x1/4)"), parse("ln(u1)"),
         [{"x1": 0.8, "x2": 0.0, "u1": -0.4, "u2": 0.0}])
# Equal trees whose zero constants differ in sign: -0.0 + 0.0 is 0.0.
@example(Add(Sub(Const(-0.0), Const(0.0)), Sub(Const(0.0), Const(0.0))),
         parse("x2"), [{"x1": 0.0, "x2": 0.0, "u1": 0.0, "u2": 0.0}])
# The numerator faults first in the natural post-order, the zero
# denominator first in evaluate's.
@example(parse("ln(x1 - 2)/(x1 - x1)"), parse("sqrt(x2)"),
         [{"x1": 1.0, "x2": -1.0, "u1": 0.0, "u2": 0.0}])
@example(parse("sin(x1)"), parse("x2"),
         [{"x1": math.inf, "x2": 0.0, "u1": 0.0, "u2": 0.0}])
def test_compile_fn_matches_evaluate(e, e2, points):
    fn = compile_fn(e, _NAMES)
    exprs = (e, Neg(e), e2)
    vector = compile_vector(exprs, _NAMES)
    for env in points:
        values = [env[n] for n in _NAMES]
        _assert_runs_as_evaluate(lambda: (fn(values),), (e,), env)
        _assert_runs_as_evaluate(lambda: vector(values), exprs, env)


def _interpreted(exprs, values):
    """The float.hex values `_run` gives `exprs` at `values`, or the text
    of the EvalError that compiled code raises for the first fault `_run`
    meets."""
    env = dict(zip(_NAMES, values))
    try:
        return [v.hex() for v in _run(_plan(exprs, _NAMES), env)]
    except EvalError as err:
        where = ", ".join(f"{n}={v:.6g}" for n, v in env.items())
        return f"{err} at {where}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(domain_expressions(), power_expressions()),
                min_size=1, max_size=3),
       st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                             st.floats(-2.0, 2.0, allow_nan=False))] * 4))
# sqrt(x2) has two readers and is computed on its own line, ahead of the
# inlined ln(x1): the code meets the sqrt fault first, and the message
# names ln(x1), the first fault in plan order.
@example([parse("ln(x1) + sqrt(x2)*sqrt(x2)")], (-1.0, -1.0, 0.0, 0.0))
# A chain of single-reader entries deeper than the inlining bound.
@example([parse("sqrt(ln(exp(sin(cos(sqrt(ln(exp(x1 + 1))))))))")],
         (0.5, 0.0, 0.0, 0.0))
def test_inlined_code_runs_as_the_interpreter(exprs, values):
    """Compiled code, whose single-reader entries are written inline, gives
    the values of the scalar interpreter bit for bit, and its message."""
    exprs = (*exprs, Neg(exprs[0]))
    try:
        got = [v.hex() for v in compile_vector(exprs, _NAMES)(values)]
    except EvalError as err:
        got = str(err)
    assert got == _interpreted(exprs, values)


def test_render_inlines_single_reader_entries_up_to_the_bound():
    # A chain of ten calls: every entry but the output has one reader, so
    # the fifth is written inline four levels deep and then named.
    chain = Var("x1")
    for _ in range(10):
        chain = Call("sin", chain)
    lines, outputs = _render(_plan((chain, chain), ("x1",)), ["v0"], "t")
    assert lines == ["t5 = _sin((_sin((_sin((_sin((_sin(v0)))))))))",
                     "t10 = _sin((_sin((_sin((_sin((_sin(t5)))))))))"]
    assert outputs == ["t10", "t10"]
    assert _INLINE_DEPTH == 4


_SIGNED_ZEROS = Add(Sub(Const(-0.0), Const(0.0)), Sub(Const(0.0), Const(0.0)))
# exp(600)^2 overflows to inf, and 1/inf is 0.0: finite, yet only the
# scalar path may produce it.
_OVERFLOW_THEN_FINITE = parse("1/(exp(400*u1)*exp(400*u1))")


def _rows():
    coordinate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    return st.lists(st.tuples(*[coordinate] * len(_NAMES)), min_size=1,
                    max_size=8)


def _sampled(exprs, rows):
    """`exprs` over `rows` through the sample runner, each column joined
    over the chunks; None where the columns of any chunk fault."""
    chunks = [columns for _, columns in
              _sample_columns(exprs, _NAMES, np.asarray(rows, dtype=float))]
    if None in chunks:
        return None
    return [np.concatenate(parts) for parts in zip(*chunks)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(expressions(), domain_expressions(), power_expressions()),
       _rows())
@example(_SIGNED_ZEROS, [(0.0, 0.0, 0.0, 0.0)])
@example(_OVERFLOW_THEN_FINITE, [(0.0, 0.0, 1.5, 0.0)])
@example(parse("x1^u1 + 2^x2 - u2^-1 + sqrt(u1)"),
         [(0.5, 1.0, 1.5, -0.25), (-0.0, 0.0, 1.0, 2.0)])
def test_columns_match_compile_fn_or_fall_back(e, rows):
    # Several outputs of one plan, sharing e, plus a signed-zero constant.
    exprs = (e, Neg(e), Const(-0.0))
    columns = _sampled(exprs, rows)
    if columns is None:
        return  # the scalar path decides
    for out, column in zip(exprs, columns):
        fn = compile_fn(out, _NAMES)
        assert [fn(row).hex() for row in rows] == \
            [float(v).hex() for v in column]


def test_columns_hand_an_intermediate_overflow_to_the_scalar_path():
    rows = [(0.0, 0.0, 1.5, 0.0)]
    assert _sampled((_OVERFLOW_THEN_FINITE,), rows) is None
    assert compile_fn(_OVERFLOW_THEN_FINITE, _NAMES)(rows[0]) == 0.0
    # Non-finite inputs and non-finite constant steps fall back too.
    nan_row = [(float("nan"), 0.0, 0.0, 0.0)]
    assert _sampled((parse("x1"),), nan_row) is None
    huge = Mul(Const(1e200), Const(1e200))
    assert _sampled((Div(ONE, huge),), rows) is None
    (column,) = _sampled((_SIGNED_ZEROS,), rows)
    assert column[0].hex() == compile_fn(_SIGNED_ZEROS, _NAMES)(rows[0]).hex()


def test_columns_drop_each_column_after_its_last_reader():
    """A plan is `(slot, outputs, index)`; `_sample_columns` counts the
    readers once and each chunk drops a column after its last reader, so a
    run holds a few columns at a time, not one per entry."""
    e = parse(" + ".join(f"(x1*x2^{j} - {j + 1}*x1)" for j in range(1, 201)))
    slot, outputs, index = _plan((e,), ("x1", "x2"))
    assert len(slot) == 1202 and outputs == (1201,) and index == {"x1": 0, "x2": 1}
    # Three chunks: each but the last uses up a copy of the counts.
    rows = np.random.default_rng(7).uniform(0.5, 1.0, size=(6144, 2))
    tracemalloc.start()
    try:
        chunks = [(where, column) for where, (column,)
                  in _sample_columns((e,), ("x1", "x2"), rows)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Keeping every column of a chunk would take 1,202 * 2,048 * 8 bytes,
    # about 19 MB.
    assert peak < 1e6
    assert [where for where, _ in chunks] == \
        [slice(0, 2048), slice(2048, 4096), slice(4096, 6144)]
    fn = compile_fn(e, ("x1", "x2"))
    assert [fn(row) for row in rows.tolist()] == \
        np.concatenate([column for _, column in chunks]).tolist()


def test_column_powers_and_roots_equal_the_scalar_path_on_ties():
    # Odd 27-bit mantissas: a square of 54 bits is an exact rounding tie.
    # The C library's `pow` is not correctly rounded there, so only that
    # same `pow` gives `math.pow`'s last bit (`x*x` differs on many).
    rng = np.random.default_rng(20241019)
    odd = (rng.integers(2 ** 26, 2 ** 27, 4096) | 1).astype(float)
    rows = np.column_stack([odd * 2.0 ** -27, odd * 2.0 ** -26,
                            odd * 2.0 ** -27 - 1.0, odd])
    exprs = tuple(map(parse, (
        "x1^2", "x2^3", "u1^2", "x1^0.5", "x1^-1", "x2^-2", "x1^2.5",
        "x2^(1/3)", "u1^7", "2^x1", "x1^x2", "sqrt(x1)", "sqrt(u2)",
        "u2^2")))
    columns = _sampled(exprs, rows)
    assert columns is not None
    for e, column in zip(exprs, columns):
        fn = compile_fn(e, _NAMES)
        assert [fn(row).hex() for row in rows.tolist()] == \
            [v.hex() for v in column.tolist()], to_string(e)


@pytest.mark.parametrize("text, row", [
    ("x1^-1", (0.0, 1.0, 1.0, 1.0)),        # divide by zero
    ("x1^0.5", (-1.0, 1.0, 1.0, 1.0)),      # invalid
    ("x1^u1", (1e200, 1.0, 2.0, 1.0)),      # overflow
    ("sqrt(x1)", (-1.0, 1.0, 1.0, 1.0)),
])
def test_column_power_and_root_faults_go_to_the_scalar_path(text, row):
    rows = np.array([(1.0, 1.0, 1.0, 1.0), row])
    assert _sampled((parse(text),), rows) is None


def test_a_non_finite_column_power_goes_to_the_scalar_path_without_a_flag(monkeypatch):
    def quiet(a, b):
        with np.errstate(all="ignore"):
            return np.true_divide(np.ones_like(a), 0.0)

    monkeypatch.setattr(np, "float_power", quiet)
    rows = np.array([(1.0, 1.0, 1.0, 1.0)])
    assert _sampled((parse("x1^2"),), rows) is None


def _env_points(rng, count=12):
    return [{name: float(rng.uniform(-2.0, 2.0)) for name in _NAMES}
            for _ in range(count)]


def _try_eval(e, env):
    try:
        return evaluate(e, env)
    except EvalError:
        return None  # overflow from nested exp towers; skip the point


@settings(max_examples=60, deadline=None)
@given(expressions(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_diff_matches_central_difference(e, seed):
    rng = np.random.default_rng(seed)
    for name in ("x1", "u1"):
        d = diff(e, name)
        for env in _env_points(rng, count=6):
            x = env[name]
            h = 1e-6 * (1.0 + abs(x))
            plus = _try_eval(e, dict(env, **{name: x + h}))
            minus = _try_eval(e, dict(env, **{name: x - h}))
            exact = _try_eval(d, env)
            if plus is None or minus is None or exact is None:
                continue
            fd = (plus - minus) / (2 * h)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


@settings(max_examples=60, deadline=None)
@given(expressions(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_mixed_partials_commute(e, seed):
    rng = np.random.default_rng(seed)
    ab = diff(diff(e, "x1"), "u1")
    ba = diff(diff(e, "u1"), "x1")
    for env in _env_points(rng, count=5):
        a = _try_eval(ab, env)
        b = _try_eval(ba, env)
        if a is None or b is None:
            continue
        assert b == pytest.approx(a, rel=1e-10, abs=1e-10)


@settings(max_examples=80, deadline=None)
@given(expressions(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_simplify_preserves_evaluation(e, seed):
    rng = np.random.default_rng(seed)
    s = simplify(e)
    for env in _env_points(rng, count=5):
        a = _try_eval(e, env)
        if a is None:
            continue
        b = evaluate(s, env)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(expressions(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_print_parse_roundtrip(e, seed):
    rng = np.random.default_rng(seed)
    reparsed = parse(to_string(e))
    for env in _env_points(rng, count=4):
        a = _try_eval(e, env)
        if a is None:
            continue
        assert evaluate(reparsed, env) == pytest.approx(a, rel=1e-12, abs=1e-12)


def _reference_text(e, text):
    """One node of the printer `to_string` replaced, which keeps the text
    of every subtree until it returns: its children's text is in `text`."""
    if isinstance(e, Const):
        return "-" + _fmt_const(-e.value) if e.value < 0 else _fmt_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = text[e.arg]
        return f"-({inner})" if _prec(e.arg) <= _P_NEG else "-" + inner
    if isinstance(e, Call):
        return f"{e.fn}({text[e.arg]})"
    left, right = text[e.left], text[e.right]
    if isinstance(e, Pow):
        if _prec(e.left) <= _P_POW:
            left = f"({left})"
        if _prec(e.right) < _P_POW:
            right = f"({right})"
        return f"{left}^{right}"
    if _prec(e.left) < e.precedence:
        left = f"({left})"
    if _prec(e.right) <= e.precedence:
        right = f"({right})"
    if e.symbol in "+-":
        return f"{left} {e.symbol} {right}"
    return f"{left}{e.symbol}{right}"


@settings(max_examples=150, deadline=None)
@given(st.one_of(expressions(), domain_expressions(), power_expressions()))
@example(parse("-(-2)^-(x1^2^u1) - (x1 - (u1 + 1))/(-x2*(3/u2))"))
def test_to_string_matches_the_node_by_node_printer(e):
    assert to_string(e) == _postorder(e, {}, _reference_text)


def test_to_string_memory_is_linear_in_its_output():
    import tracemalloc

    chain = _deep_trees()[0]  # about 15 KB of text
    tracemalloc.start()
    try:
        text = to_string(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "u1*u1" + "*x1" * 5000
    # Keeping every subtree's text until the end peaks at about 37 MB.
    assert peak < 5 * 2 ** 20


def _subtrees(e):
    """Proper subtrees of `e`, children before parents."""
    for child in e.children():
        yield from _subtrees(child)
        yield child


def _rebuilt(e):
    """`e` built again bottom-up from its fields."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Var):
        return Var(e.name)
    if isinstance(e, Neg):
        return Neg(_rebuilt(e.arg))
    if isinstance(e, Call):
        return Call(e.fn, _rebuilt(e.arg))
    return type(e)(_rebuilt(e.left), _rebuilt(e.right))


@settings(max_examples=100, deadline=None)
@given(st.one_of(expressions(), domain_expressions()))
@example(_SIGNED_ZEROS)
def test_equal_trees_are_one_node(e):
    assert _rebuilt(e) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e


@settings(max_examples=100, deadline=None)
@given(st.one_of(expressions(), domain_expressions()), st.sampled_from(_NAMES))
@example(parse("sin(sin(u1))*sin(u1) - sin(u1)"), "u1")
def test_memo_does_not_change_results(e, var):
    cold = []
    for compute in (simplify, lambda x: diff(x, var)):
        _memo.clear()
        cold.append(to_string(compute(e)))
    _memo.clear()
    for sub in _subtrees(e):
        for name in _NAMES:
            diff(sub, name)
        simplify(sub)
    assert [to_string(simplify(e)), to_string(diff(e, var))] == cold


def _diff_node_by_node(e, var):
    """The derivative of `e` with every +/- node of a sum differentiated
    and simplified on its own, the partial sums one after another."""
    def rule(node, d):
        if type(node) in (Add, Sub):
            return simplify(type(node)(d[node.left], d[node.right]))
        return simplify(_diff(node, var, d))
    return _postorder(e, {}, rule)


def _extreme_leaf():
    """Leaves whose folds overflow or keep the sign of zero."""
    return st.one_of(_leaf(), st.sampled_from(
        [Const(1e308), Const(-1e308), Const(0.0), Const(-0.0)]))


def _sums(children):
    return st.lists(st.tuples(st.sampled_from((Add, Sub)), children),
                    min_size=2, max_size=6).map(_chain)


def _chain(parts):
    node = parts[0][1]
    for op, part in parts[1:]:
        node = op(node, part)
    return node


@settings(max_examples=300, deadline=None)
@given(st.recursive(_extreme_leaf(),
                    lambda kids: st.one_of(_domain_combine(kids), _sums(kids)),
                    max_leaves=16),
       st.sampled_from(_NAMES))
@example(parse("1e308*x1 + 1e308*x1 - 1e308*x1 + u1*x1"), "x1")
@example(parse("x1*u1 + x1*u2 + (x1*u1 - x1*u1)"), "x1")
@example(parse("-(x1*u1 - x1*u1)"), "x1")
@example(parse("x1 + x1 - 2*x1 + 1e308*x1 + 1e308*x1"), "x1")
def test_diff_of_a_sum_takes_it_as_one_node(e, var):
    # One fold over a sum's operands gives the node of the chain simplified
    # node by node: the same cancellations, constants and signed zeros.
    _memo.clear()
    assert diff(e, var) is _diff_node_by_node(e, var)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_extreme_leaf(),
                    lambda kids: st.one_of(_domain_combine(kids), _sums(kids),
                                           kids.map(Neg)),
                    max_leaves=16))
@example(parse("-(1*(x1+x2))"))
@example(parse("x1 + 1e308 + 1e308 - 1e308 + 5"))
@example(parse("-(1e308+1e308) + 1e308"))
@example(parse("-(1e308 + 1e308)"))
@example(parse("x1 + 1e308 + 1e308 + x2 + 1e308 - 1e308"))
def test_simplify_reaches_its_fixed_point_in_one_pass(e):
    # A negation of a sum distributes, constants left by a cancellation
    # fold, and a negative constant heading a sum is that constant.
    _memo.clear()
    once = simplify(e)
    _memo.clear()
    assert simplify(once) is once


# Derivatives of sums whose constant total overflows, with the spelling of
# a constant result keeping its sign. Each is what simplifying the chain
# node by node gives: an unfolded pair of 1e308 stays in the order the
# partial sums leave it, and a nested sum cancels within itself first.
DIFF_FOLD_GOLDEN = {
    "1e308*x1 + 1e308*x1 + u1*x1": "1e+308 + 1e+308 + u1",
    "1e308*x1 + 1e308*x1 - 1e308*x1 + u1*x1": "u1 + 1e+308",
    "u1*x1 - 1e308*x1 - 1e308*x1 + 1e308*x1 + x1^2": "u1 + 2*x1 - 1e+308",
    "1e308*x1 + (1e308*x1 - 1e308*x1) + u1*x1": "u1 + 1e+308",
    "-(1e308*x1 + 1e308*x1) + x1": "-1e+308 - 1e+308 + 1",
    "1e308*x1^2 + 1e308*x1^2 - x1*u1": "1e+308*(2*x1) + 1e+308*(2*x1) - u1",
    "x1*u1 + x1*u2 + (x1*u1 - x1*u1)": "u1 + u2",
    "x1*u1 - (x1*u2 - x1*u1) + x1*u2": "u1 + u1",
    "-(x1*u1 - x1*u1)": "-0.0",
    "-(x1*u1 - x1*u1) + x1*u2": "u2",
    "-x2 + x1 - x1": "0.0",
}


@pytest.mark.parametrize("text", sorted(DIFF_FOLD_GOLDEN))
def test_diff_of_a_sum_keeps_its_folds(text):
    _memo.clear()
    d = diff(parse(text), "x1")
    assert (repr(d.value) if isinstance(d, Const) else to_string(d)) == \
        DIFF_FOLD_GOLDEN[text]


def _sympy(e, sp):
    """`e` as a SymPy expression."""
    if isinstance(e, Const):
        return sp.Float(e.value)
    if isinstance(e, Var):
        return sp.Symbol(e.name)
    if isinstance(e, Neg):
        return -_sympy(e.arg, sp)
    if isinstance(e, Call):
        fn = {"ln": sp.log}.get(e.fn) or getattr(sp, e.fn)
        return fn(_sympy(e.arg, sp))
    op = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "^": operator.pow}[e.symbol]
    return op(_sympy(e.left, sp), _sympy(e.right, sp))


def _close(a, b):
    return abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b))


def test_diff_and_simplify_agree_with_sympy():
    # An oracle independent of this module: SymPy's own derivative and the
    # unsimplified input, compared in value where both are finite.
    sp = pytest.importorskip("sympy")
    symbols = [sp.Symbol(name) for name in _NAMES]

    def value_of(f, env):
        try:
            got = float(f(*(env[name] for name in _NAMES)))
        except (ArithmeticError, ValueError, TypeError):
            return None
        return got if math.isfinite(got) else None

    @settings(max_examples=60, deadline=None)
    @given(expressions(), st.sampled_from(_NAMES),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def check(e, var, seed):
        exact = _sympy(e, sp)
        ref = sp.lambdify(symbols, exact, "math")
        ref_d = sp.lambdify(symbols, sp.diff(exact, sp.Symbol(var)), "math")
        s, d = simplify(e), diff(e, var)
        for env in _env_points(np.random.default_rng(seed), count=5):
            want, got = value_of(ref, env), _try_eval(s, env)
            if want is not None and got is not None:
                assert _close(got, want)
            want, got = value_of(ref_d, env), _try_eval(d, env)
            if want is not None and got is not None:
                assert _close(got, want)

    check()


# ---------------------------------------------------------------------------
# Who drives the numeric paths
# ---------------------------------------------------------------------------

def _expr_imports():
    """Per linconn module but `expr`, the names it imports from `expr`."""
    found = {}
    src = Path(__file__).resolve().parents[1] / "src" / "linconn"
    for path in src.glob("*.py"):
        if path.stem == "expr":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("expr", "linconn.expr")):
                found.setdefault(path.stem, set()).update(
                    alias.name for alias in node.names)
    return found


def test_only_expr_runs_columns_and_scalar_fallbacks():
    """Sample arrays go through `_sample_columns` and `_scalar_rows`: no
    other module chunks rows, runs columns or compiles a fallback itself.
    The RK4 kernel renders plans of its own."""
    found = _expr_imports()
    internal = {"_CHUNK", "_columns", "_compile", "_fault"}
    assert {stem: names & internal for stem, names in found.items()
            if names & internal} == {}
    assert {"_plan", "_render", "_define"} <= found["transport"]
    runner = {"_sample_columns", "_scalar_rows"}
    assert runner <= found["geometry"] and runner <= found["model"]
