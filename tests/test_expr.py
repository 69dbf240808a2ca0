import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linconn.expr import (
    Add, Call, Const, Div, EvalError, Mul, Neg, ParseError, Pow, Sub, Var,
    ONE, ZERO, _columns, _memo, _plan, compile_fn, compile_vector, diff, evaluate,
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


def test_eval_identity():
    assert evaluate(parse("exp(0)"), {}) == 1.0


def test_eval_unbound_variable():
    with pytest.raises(EvalError) as err:
        evaluate(parse("x1 + q9"), {"x1": 1.0})
    assert "q9" in str(err.value)


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


def _points():
    coordinate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    return st.lists(st.fixed_dictionaries({n: coordinate for n in _NAMES}),
                    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(domain_expressions(), _points())
@example(parse("x1^2*sin(u1) - exp(x1/4)"),
         [{"x1": 0.8, "x2": 0.0, "u1": -0.4, "u2": 0.0}])
# Equal trees whose zero constants differ in sign: -0.0 + 0.0 is 0.0.
@example(Add(Sub(Const(-0.0), Const(0.0)), Sub(Const(0.0), Const(0.0))),
         [{"x1": 0.0, "x2": 0.0, "u1": 0.0, "u2": 0.0}])
def test_compile_fn_matches_evaluate(e, points):
    fn = compile_fn(e, _NAMES)
    for env in points:
        values = [env[n] for n in _NAMES]
        try:
            expected = evaluate(e, env)
        except EvalError as err:
            try:
                got = fn(values)
            except EvalError as fault:
                assert str(fault).startswith(f"{err} at x1=")
                continue
            # Only a sum or product that overflows escapes the compiled
            # checks, and evaluate reports it as a non-finite result.
            assert not math.isfinite(got)
            assert str(err).startswith("non-finite result")
            continue
        assert fn(values).hex() == expected.hex()


_SIGNED_ZEROS = Add(Sub(Const(-0.0), Const(0.0)), Sub(Const(0.0), Const(0.0)))
# exp(600)^2 overflows to inf, and 1/inf is 0.0: finite, yet only the
# scalar path may produce it.
_OVERFLOW_THEN_FINITE = parse("1/(exp(400*u1)*exp(400*u1))")


def _rows():
    coordinate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    return st.lists(st.tuples(*[coordinate] * len(_NAMES)), min_size=1,
                    max_size=8)


@settings(max_examples=150, deadline=None)
@given(st.one_of(expressions(), domain_expressions()), _rows())
@example(_SIGNED_ZEROS, [(0.0, 0.0, 0.0, 0.0)])
@example(_OVERFLOW_THEN_FINITE, [(0.0, 0.0, 1.5, 0.0)])
def test_columns_match_compile_fn_or_fall_back(e, rows):
    # Several outputs of one plan, sharing e, plus a signed-zero constant.
    exprs = (e, Neg(e), Const(-0.0))
    columns = _columns(_plan(exprs, _NAMES), np.array(rows))
    if columns is None:
        return  # the scalar path decides
    for out, column in zip(exprs, columns):
        fn = compile_fn(out, _NAMES)
        assert [fn(row).hex() for row in rows] == \
            [float(v).hex() for v in column]


def test_columns_hand_an_intermediate_overflow_to_the_scalar_path():
    rows = [(0.0, 0.0, 1.5, 0.0)]
    assert _columns(_plan((_OVERFLOW_THEN_FINITE,), _NAMES), rows) is None
    assert compile_fn(_OVERFLOW_THEN_FINITE, _NAMES)(rows[0]) == 0.0
    # Non-finite inputs and non-finite constant steps fall back too.
    nan_row = [(float("nan"), 0.0, 0.0, 0.0)]
    assert _columns(_plan((parse("x1"),), _NAMES), nan_row) is None
    huge = Mul(Const(1e200), Const(1e200))
    assert _columns(_plan((Div(ONE, huge),), _NAMES), rows) is None
    (column,) = _columns(_plan((_SIGNED_ZEROS,), _NAMES), rows)
    assert column[0].hex() == compile_fn(_SIGNED_ZEROS, _NAMES)(rows[0]).hex()


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
