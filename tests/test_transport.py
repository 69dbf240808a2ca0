import io
import json
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import linconn.transport as transport
from linconn.cli import run
from linconn.expr import (
    EvalError, ONE, Var, ZERO, _memo, compile_vector, evaluate, parse,
    substitute,
)
from linconn.geometry import curvature
from linconn.model import (
    BundleModel, ConnectionModel, ModelError, PointE, load_model,
)
from linconn.sode import SodeModel
from linconn.transport import (
    CurveSpec, _rk4, holonomy_probe, horizontal_flow, parallel_transport,
    sode_flow, transport_oracle,
)

from conftest import eval_or_zero
from test_expr import domain_expressions, expressions

MODELS = Path(__file__).resolve().parents[1] / "models"


def shipped(name):
    return load_model((MODELS / f"{name}.lc").read_text()).connection


# ---------------------------------------------------------------------------
# Horizontal flow
# ---------------------------------------------------------------------------

def test_flat_flow_keeps_fiber(flat_model):
    p0 = PointE((0.0, 0.0), (0.7, -0.2))
    out = horizontal_flow(flat_model, (ONE, parse("0.5")), p0, 1.0, 1e-3)
    assert out.final.fiber == pytest.approx(p0.fiber)
    assert out.status == "ok"


def test_linear_model_flow_closed_form(linear_model):
    # u' = -x u along x(t) = t gives u(1) = exp(-1/2).
    out = horizontal_flow(linear_model, (ONE,), PointE((0.0,), (1.0,)),
                          1.0, 1e-3)
    assert out.final.fiber[0] == pytest.approx(math.exp(-0.5), abs=1e-8)


def test_flow_fourth_order_convergence(linear_model):
    exact = math.exp(-0.5)

    def error(step):
        out = horizontal_flow(linear_model, (ONE,), PointE((0.0,), (1.0,)),
                              1.0, step)
        return abs(out.final.fiber[0] - exact)

    order = math.log2(error(0.04) / error(0.02))
    assert 3.7 <= order <= 4.3, order


def test_flow_truncates_at_box(linear_model):
    out = horizontal_flow(linear_model, (ONE,), PointE((0.0,), (1.0,)),
                          5.0, 1e-2, box={"x1": (-1.0, 1.0)})
    assert out.status.startswith("truncated")


def test_flow_reports_excluded_crossing():
    b = BundleModel("vector", ("x1",), ("u1",))
    m = ConnectionModel(b, [[parse("u1^2")]], excluded=(parse("x1 - 0.5"),))
    out = horizontal_flow(m, (ONE,), PointE((0.0,), (0.3,)), 2.0, 1e-2)
    assert out.status.startswith("excluded")


def test_flow_reports_a_step_that_jumps_over_the_locus():
    # The step ends at x1 = 0.50 and 0.51 straddle the locus x1 = 0.505,
    # and neither comes within the 1e-6 margin of it.
    b = BundleModel("vector", ("x1",), ("u1",))
    m = ConnectionModel(b, [[parse("u1^2")]], excluded=(parse("x1 - 0.505"),))
    out = horizontal_flow(m, (ONE,), PointE((0.0,), (0.3,)), 2.0, 1e-2)
    assert out.status == "excluded:0.51"
    assert out.steps == 50
    assert out.final.base[0] < 0.505


def test_potential_flow_stops_where_it_crosses_p1_zero():
    # p1^2 + x1^2 is conserved, so from (0, 1) the flow reaches p1 = 0 at
    # x1 = 1; RK4 used to step over it and blow up to ~1e39.
    m = shipped("potential_1d")
    p0 = PointE((0.0,), (1.0,))
    flow = horizontal_flow(m, (ONE,), p0, 2.0, 1e-3)
    assert flow.status.startswith("excluded:")
    assert 0.0 < flow.final.fiber[0] < 0.1
    spec = CurveSpec(start=p0, t_span=2.0, step=1e-3, field=(ONE,))
    assert parallel_transport(m, spec, (1.0,)).status == flow.status
    with pytest.raises(ModelError, match="excluded"):
        transport_oracle(m, (ONE,), p0, (1.0,), 2.0, 1e-3)


@pytest.mark.parametrize("T, step", [
    (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -1.0),
    (math.nan, 1e-3), (math.inf, 1e-3), (-math.inf, 1e-3), (1.0, 5e-324),
    (1e6, 1e-300),
])
def test_step_and_time_rules(linear_model, T, step):
    with pytest.raises(ModelError):
        horizontal_flow(linear_model, (ONE,), PointE((0.0,), (1.0,)), T, step)
    with pytest.raises(ModelError):
        CurveSpec(start=PointE((0.0,), (1.0,)), t_span=T, step=step,
                  field=(ONE,))
    s = SodeModel(True, ("x1",), ("v1",), (parse("-x1"),))
    with pytest.raises(ModelError):
        sode_flow(s, (1.0, 0.0), T, step)


def test_flow_leaving_the_coefficient_domain_is_a_model_error():
    b = BundleModel("vector", ("x1",), ("u1",))
    m = ConnectionModel(b, [[parse("sqrt(x1)*u1")]])
    with pytest.raises(ModelError, match="right-hand side undefined"):
        horizontal_flow(m, (ONE,), PointE((0.5,), (1.0,)), -1.0, 1e-3)


@pytest.mark.parametrize("coefficient, excluded, x1, T, step, message", [
    ("sqrt(x1)*u1", (), 0.5, -1.0, 1e-3,
     "right-hand side undefined near t=-0.499: sqrt of a negative number "
     "in 'sqrt(x1)' at x1=-4.3715e-16, u1=1.2658"),
    ("-u1^2", (), 0.0, 3.0, 1e-2,
     "right-hand side undefined near t=1.02: invalid power in 'u1^2' at "
     "x1=1.02, u1=4.77518e+173"),
    # A predicate faults at a step end, and so names the time after it.
    ("u1", ("ln(x1)",), 0.5, -1.0, 1e-3,
     "right-hand side undefined near t=-0.5: ln of a non-positive number "
     "in 'ln(x1)' at x1=-4.3715e-16, u1=1.64872"),
    ("u1", ("ln(x1)",), -1.0, 1.0, 1e-3,
     "right-hand side undefined near t=0: ln of a non-positive number in "
     "'ln(x1)' at x1=-1, u1=1"),
])
def test_flow_fault_messages(coefficient, excluded, x1, T, step, message):
    b = BundleModel("vector", ("x1",), ("u1",))
    m = ConnectionModel(b, [[parse(coefficient)]],
                        excluded=tuple(parse(e) for e in excluded))
    with pytest.raises(ModelError) as info:
        horizontal_flow(m, (ONE,), PointE((x1,), (1.0,)), T, step)
    assert str(info.value) == message


@pytest.mark.parametrize("argv, message", [
    (("--field", "1,x1", "--fiber", "1e308,1e308"),
     "error: non-finite state at t=0.775"),
    (("--field", "1/x1,1", "--from", "x1=0,x2=0.2,u1=1,u2=1"),
     "error: right-hand side undefined near t=0: division by zero in "
     "'1/x1' at x1=0, x2=0.2, u1=1, u2=1, b0=1, b1=0"),
])
def test_transport_fault_exits_2_with_one_error_line(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["transport", str(MODELS / "m4.lc"), *argv])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().splitlines()[-1] == message


def _stage_by_stage(names, rhs, y0, T, step, excluded=(), box=None):
    """The reference integrator: the per-stage loop on `compile_vector`
    that the generated kernel replaced, step for step and message for
    message."""
    f = compile_vector(rhs, names)
    predicates = compile_vector(excluded, names)
    bounds = [(slot, box[name]) for slot, name in enumerate(names)
              if box is not None and name in box]
    n_steps = max(1, int(round(abs(T) / step)))
    h = T / n_steps
    half, sixth = 0.5 * h, h / 6.0
    y = [float(v) for v in y0]
    steps = 0
    t = 0.0
    status = "ok"
    try:
        previous = predicates(y)
        for _ in range(n_steps):
            k1 = f(y)
            k2 = f([a + half * k for a, k in zip(y, k1)])
            k3 = f([a + half * k for a, k in zip(y, k2)])
            k4 = f([a + h * k for a, k in zip(y, k3)])
            new = [a + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
                   for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
            t += h
            if not all(map(math.isfinite, new)):
                raise ModelError(f"non-finite state at t={t:.6g}")
            values = predicates(new)
            if any(abs(p) < 1e-6 or p * q < 0.0
                   for p, q in zip(values, previous)):
                status = f"excluded:{t:.6g}"
                break
            if any(not lo <= new[slot] <= hi for slot, (lo, hi) in bounds):
                status = f"truncated:{t:.6g}"
                break
            y, previous = new, values
            steps += 1
    except EvalError as exc:
        raise ModelError(f"right-hand side undefined near t={t:.6g}: "
                         f"{exc}") from None
    return y, steps, status


def _outcome(integrate, *args):
    try:
        y, steps, status = integrate(*args)
    except ModelError as exc:
        return str(exc)
    return [v.hex() for v in y], steps, status


_SLOTS = ("x1", "x2", "u1", "u2")
_RIGHT_HAND_SIDES = st.one_of(expressions(), domain_expressions())
_PREDICATES = domain_expressions()


@st.composite
def _flows(draw):
    """A flow on 1-4 slots: right-hand sides, with or without partial
    operations, over the slots; a signed span; up to two excluded-set
    predicates and a box on some slots."""
    count = draw(st.integers(1, 4))
    names = _SLOTS[:count]
    # The strategies draw over all four names; fold them onto the slots.
    fold = {name: Var(names[i % count]) for i, name in enumerate(_SLOTS)}

    rhs = tuple(substitute(draw(_RIGHT_HAND_SIDES), fold) for _ in names)
    coordinate = st.floats(-2.0, 2.0, allow_nan=False)
    y0 = tuple(draw(coordinate) for _ in names)
    T = draw(st.floats(-1.5, 1.5, allow_nan=False))
    step = max(abs(T), 1e-3) / draw(st.integers(1, 40))
    excluded = tuple(substitute(e, fold)
                     for e in draw(st.lists(_PREDICATES, max_size=2)))
    box = {}
    for name in draw(st.lists(st.sampled_from(names), unique=True)):
        lo = draw(st.floats(-3.0, 1.0, allow_nan=False))
        box[name] = (lo, lo + draw(st.floats(0.0, 4.0, allow_nan=False)))
    return names, rhs, y0, T, step, excluded, box or None


@settings(max_examples=300, deadline=None)
@given(_flows())
@example((("x1",), (parse("-x1"),), (-0.0,), -1.0, 1e-2, (), None))
@example((("x1", "u1"), (ONE, parse("u1^2")), (0.0, 1.0), 3.0, 1e-2,
          (parse("x1 - 0.505"),), {"u1": (-1.0, 1e300)}))
@example((("x1", "u1"), (ONE, parse("sqrt(x1)*u1")), (0.5, 1.0), -1.0, 1e-3,
          (), None))
@example((("x1", "u1"), (ONE, parse("u1")), (-1.0, 1.0), 1.0, 1e-3,
          (parse("ln(x1)"),), None))
@example((("x1",), (parse("x1*x1*x1"),), (10.0,), 1.0, 1e-2, (), None))
# A step end inside the margin, with no sign change: (0.0005)^2 < 1e-6.
@example((("x1",), (ONE,), (0.0005,), 1.0, 1e-2, (parse("(x1 - 0.5)^2"),),
          None))
# A start on the locus: no product with the start value is below zero,
# so only the crossing back, at t = 2, is a sign change.
@example((("x1",), (ONE,), (0.0,), 1.0, 0.1, (parse("x1"),), None))
@example((("x1", "u1"), (parse("u1"), parse("-1")), (0.0, 1.0), 3.0, 0.3,
          (parse("x1"),), None))
def test_kernel_matches_the_stage_by_stage_loop(flow):
    assert _outcome(_rk4, *flow) == _outcome(_stage_by_stage, *flow)


def test_flow_rejects_fiber_dependent_field(linear_model):
    with pytest.raises(ModelError):
        horizontal_flow(linear_model, (parse("u1"),), PointE((0.0,), (1.0,)),
                        1.0, 1e-2)


# ---------------------------------------------------------------------------
# Parallel transport
# ---------------------------------------------------------------------------

def test_vertical_transport_is_identity(m4_model):
    spec = CurveSpec(start=PointE((0.0, 0.0), (1.0, 1.0)), t_span=1.0,
                     vertical=True)
    out = parallel_transport(m4_model, spec, (0.3, -0.4))
    assert out.final_fiber == (0.3, -0.4)


def test_linear_model_transport_closed_form(linear_model):
    spec = CurveSpec(start=PointE((0.0,), (1.0,)), t_span=1.0, step=1e-3,
                     field=(ONE,))
    out = parallel_transport(linear_model, spec, (1.0,))
    assert out.final_fiber[0] == pytest.approx(math.exp(-0.5), abs=1e-8)


def test_flat_transport_identity(flat_model):
    spec = CurveSpec(start=PointE((0.0, 0.0), (0.5, 0.5)), t_span=1.0,
                     step=1e-3, field=(ONE, parse("-1")))
    out = parallel_transport(flat_model, spec, (0.2, 0.9))
    assert out.final_fiber == pytest.approx((0.2, 0.9))


def test_transport_along_explicit_curve(linear_model):
    # Same path as the flow-generated straight line, given explicitly.
    spec = CurveSpec(start=PointE((0.0,), (1.0,)), t_span=1.0, step=1e-3,
                     curve=(parse("t"),))
    out = parallel_transport(linear_model, spec, (1.0,))
    assert out.final_fiber[0] == pytest.approx(math.exp(-0.5), abs=1e-8)


def test_explicit_curve_parameter_does_not_shadow_coordinate_t():
    # A jet bundle has a base coordinate named t; the curve parameter
    # must stay a separate state slot.
    b = BundleModel("jet", ("t", "x1"), ("v1",))
    m = ConnectionModel(b, [[parse("t*v1"), parse("x1 + v1^2")]])
    p0 = PointE((0.5, 0.3), (0.2,))
    along_field = parallel_transport(
        m, CurveSpec(start=p0, t_span=0.8, step=1e-3, field=(ONE, ONE)),
        (1.0, 0.4))
    along_curve = parallel_transport(
        m, CurveSpec(start=p0, t_span=0.8, step=1e-3,
                     curve=(parse("t"), parse("t"))), (1.0, 0.4))
    assert along_curve.final_fiber == pytest.approx(along_field.final_fiber,
                                                    abs=1e-12)
    assert along_curve.final == along_field.final


def test_state_slot_names_avoid_model_coordinates():
    # Coordinates named like the transported-vector and curve-parameter
    # slots must not alias them.
    def transport(base, fiber, curve):
        b = BundleModel("vector", base, fiber)
        m = ConnectionModel(b, [[parse(f"{base[0]}*{fiber[0]}^2")]])
        spec = CurveSpec(start=PointE((0.1,), (0.7,)), t_span=0.5,
                         step=1e-3, curve=(parse(curve),))
        return parallel_transport(m, spec, (1.0,)).final_fiber

    reference = transport(("x1",), ("u1",), "t^2")
    assert transport(("b0",), ("tau0",), "t^2") == reference
    assert transport(("tau0",), ("b0",), "t^2") == reference


@pytest.mark.parametrize("name, X, p0, T", [
    ("m4", ("1", "x1"), PointE((0.1, -0.2), (0.8, 0.6)), 0.7),
    ("potential_1d", ("1",), PointE((0.0,), (1.0,)), 0.5),
    ("potential_1d", ("1",), PointE((0.0,), (1.0,)), 2.0),
    ("linear", ("1",), PointE((0.0,), (1.0,)), 1.0),
])
def test_transport_carries_the_horizontal_flow_bit_for_bit(name, X, p0, T):
    m = load_model((MODELS / f"{name}.lc").read_text()).connection
    X = tuple(parse(c) for c in X)
    flow = horizontal_flow(m, X, p0, T, 1e-3)
    joint = parallel_transport(m, CurveSpec(start=p0, t_span=T, step=1e-3,
                                            field=X), (1.0,) * m.k)
    assert joint.final == flow.final
    assert joint.status == flow.status
    assert joint.steps == flow.steps


def test_transport_flow_composition(quadratic_model):
    # psi_{s} o psi_{t} = psi_{s+t} along a fixed field.
    p0 = PointE((0.0,), (1.0,))
    full = parallel_transport(
        quadratic_model,
        CurveSpec(start=p0, t_span=0.6, step=1e-3, field=(ONE,)), (1.0,))
    first = parallel_transport(
        quadratic_model,
        CurveSpec(start=p0, t_span=0.3, step=1e-3, field=(ONE,)), (1.0,))
    mid_flow = horizontal_flow(quadratic_model, (ONE,), p0, 0.3, 1e-3)
    second = parallel_transport(
        quadratic_model,
        CurveSpec(start=mid_flow.final, t_span=0.3, step=1e-3, field=(ONE,)),
        first.final_fiber)
    assert second.final_fiber[0] == pytest.approx(full.final_fiber[0],
                                                  abs=1e-7)


# ---------------------------------------------------------------------------
# Fiber-derivative oracle
# ---------------------------------------------------------------------------

def test_transport_derivative_matches_basic_covariant(quadratic_model):
    # Oracle agreement on the fiber-quadratic model.
    p0 = PointE((0.0,), (1.0,))
    method = parallel_transport(
        quadratic_model,
        CurveSpec(start=p0, t_span=0.5, step=1e-3, field=(ONE,)), (1.0,))
    oracle = transport_oracle(quadratic_model, (ONE,), p0, (1.0,), 0.5, 1e-3,
                              fd_eps=1e-5)
    rel = abs(method.final_fiber[0] - oracle[0]) / abs(oracle[0])
    assert rel <= 1e-4


def test_oracle_exact_for_linear_flows(linear_model):
    p0 = PointE((0.0,), (1.0,))
    method = parallel_transport(
        linear_model,
        CurveSpec(start=p0, t_span=1.0, step=1e-3, field=(ONE,)), (1.0,))
    oracle = transport_oracle(linear_model, (ONE,), p0, (1.0,), 1.0, 1e-3,
                              fd_eps=1e-5)
    assert abs(method.final_fiber[0] - oracle[0]) <= 1e-9


def test_oracle_flat_returns_input(flat_model):
    oracle = transport_oracle(flat_model, (ONE, ZERO),
                              PointE((0.0, 0.0), (0.4, 0.6)), (0.3, -0.7),
                              0.5, 1e-3)
    assert oracle == pytest.approx((0.3, -0.7), abs=1e-10)


def test_central_differences_tighten_oracle(m4_model):
    p0 = PointE((0.0, 0.0), (1.0, 1.0))
    X = (ONE, parse("0.5"))
    b0 = (1.0, 0.5)
    method = parallel_transport(
        m4_model, CurveSpec(start=p0, t_span=0.5, step=1e-3, field=X), b0)
    forward = transport_oracle(m4_model, X, p0, b0, 0.5, 1e-3, fd_eps=1e-5)
    central = transport_oracle(m4_model, X, p0, b0, 0.5, 1e-3, fd_eps=1e-5,
                               central=True)
    gap_fwd = max(abs(a - b) / max(1.0, abs(b))
                  for a, b in zip(method.final_fiber, forward))
    gap_cen = max(abs(a - b) / max(1.0, abs(b))
                  for a, b in zip(method.final_fiber, central))
    assert gap_fwd <= 1e-4
    assert gap_cen <= 1e-6


@pytest.mark.parametrize("fd_eps, central", [
    (1e-17, False), (1e-17, True), (1e-300, False),
])
def test_oracle_refuses_fd_eps_lost_in_rounding(m4_model, fd_eps, central):
    p0 = PointE((0.3, 0.2), (1.0, 1.0))
    with pytest.raises(ModelError, match="lost in the rounding"):
        transport_oracle(m4_model, (ONE, parse("x1")), p0, (1.0, 1.0), 0.5,
                         1e-3, fd_eps=fd_eps, central=central)


def test_oracle_of_the_zero_vector_is_zero(m4_model):
    # A zero vector is not perturbed at all, so nothing is lost.
    oracle = transport_oracle(m4_model, (ONE, parse("x1")),
                              PointE((0.3, 0.2), (1.0, 1.0)), (0.0, 0.0), 0.5,
                              1e-3)
    assert oracle == (0.0, 0.0)


def test_oracle_refusal_exits_2_with_one_error_line():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["transport", str(MODELS / "m4.lc"), "--from",
                    "x1=0.3,x2=0.2,u1=1,u2=1", "--field", "1,x1", "--oracle",
                    "--fd-eps", "1e-17"])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == (
        "error: fd_eps=1e-17 is lost in the rounding of the start fiber: "
        "fd_eps*b leaves it unchanged\n")


# ---------------------------------------------------------------------------
# Affine transport preserves the distinguished component
# ---------------------------------------------------------------------------

def test_affine_transport_preserves_weight():
    # The weight stays 1 along the path: checked at the end of flows over
    # a quarter, half, three quarters and all of the span.
    b = BundleModel("affine", ("x1",), ("y1",))
    m = ConnectionModel(b, [[parse("y1^2 + sin(x1)")]])
    for span in (0.25, 0.5, 0.75, 1.0):
        spec = CurveSpec(start=PointE((0.0,), (0.4,)), t_span=span,
                         step=1e-3, field=(ONE,))
        out = parallel_transport(m, spec, (1.0, 0.2))
        assert out.status == "ok"
        assert abs(out.final_fiber[0] - 1.0) <= 1e-10, span


# ---------------------------------------------------------------------------
# Holonomy probes
# ---------------------------------------------------------------------------

def test_holonomy_flat_defect_vanishes(flat_model):
    defect = holonomy_probe(flat_model, PointE((0.0, 0.0), (1.0, 0.5)), 0, 1,
                            1e-2)
    assert max(abs(v) for v in defect) <= 1e-9


def test_holonomy_sign_calibration():
    # Frozen convention: legs +e_i, +e_j, -e_i, -e_j give +R, checked on
    # the model with coefficient x2*u1 in the first direction only, whose
    # curvature component is u1.
    b = BundleModel("vector", ("x1", "x2"), ("u1",))
    m = ConnectionModel(b, [[parse("x2*u1"), ZERO]])
    p0 = PointE((0.0, 0.0), (1.0,))
    defect = holonomy_probe(m, p0, 0, 1, 1e-3)
    R = curvature(m)
    expected = evaluate(R[0, 0, 1], p0.env(b))
    assert expected == pytest.approx(1.0)
    assert defect[0] == pytest.approx(expected, rel=5e-3)


def test_holonomy_convergence_on_m4(m4_model):
    p0 = PointE((0.0, 0.0), (1.0, 1.0))
    env = p0.env(m4_model.bundle)
    R = curvature(m4_model)
    symbolic = np.array([eval_or_zero(R[A, 0, 1], env) for A in range(2)])
    errors = []
    for eps in (1e-1, 1e-2, 1e-3):
        defect = np.array(holonomy_probe(m4_model, p0, 0, 1, eps))
        errors.append(np.max(np.abs(defect - symbolic)))
    # First-order convergence in eps.
    order01 = math.log10(errors[0] / errors[1])
    order12 = math.log10(errors[1] / errors[2])
    assert order01 >= 0.9 and order12 >= 0.9
    assert errors[1] / symbolic.max() < 0.05
    assert errors[2] / symbolic.max() < 0.005


@pytest.mark.parametrize("eps, fiber", [
    (1e-8, (1.0, 1.0)),
    (1e-100, (1.0, 1.0)),
    (1e200, (1.0, 1.0)),
    (1e-6, (1e4, 1.0)),
])
def test_holonomy_refuses_eps_lost_in_rounding(m4_model, eps, fiber):
    # Below the rounding unit of the start coordinates the defect is lost
    # and the probe would read 0 against a nonzero curvature.
    with pytest.raises(ModelError, match="rounding unit"):
        holonomy_probe(m4_model, PointE((0.3, 0.2), fiber), 0, 1, eps)


def test_holonomy_accepts_eps_above_rounding(m4_model):
    defect = holonomy_probe(m4_model, PointE((0.3, 0.2), (1.0, 1.0)), 0, 1,
                            1e-6)
    assert defect[0] == pytest.approx(1.2, rel=1e-2)


def test_holonomy_with_negative_eps_converges_to_the_curvature(m4_model):
    p0 = PointE((0.3, 0.2), (1.0, 1.0))
    defect = holonomy_probe(m4_model, p0, 0, 1, -1e-2)
    assert defect == pytest.approx((1.2, 0.8), rel=3e-2)
    assert defect == holonomy_probe(m4_model, p0, 0, 1, -1e-2, 2e-4)


def _holonomy_cli(*extra):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(["transport", str(MODELS / "m4.lc"), "--holonomy", "1,2",
                    "--from", "x1=0.3,x2=0.2,u1=1,u2=1", "--json", *extra])
    assert code == 0
    return json.loads(out.getvalue())["results"][0]["defect_over_eps2"]


def test_holonomy_cli_takes_a_negative_eps(m4_model):
    p0 = PointE((0.3, 0.2), (1.0, 1.0))
    assert _holonomy_cli("--eps", "-0.01") == \
        list(holonomy_probe(m4_model, p0, 0, 1, -1e-2))


def test_holonomy_cli_legs_step_at_eps_over_50(m4_model):
    p0 = PointE((0.3, 0.2), (1.0, 1.0))
    assert _holonomy_cli("--step", "5e-3") == _holonomy_cli() == \
        list(holonomy_probe(m4_model, p0, 0, 1, 1e-2, 2e-4))


def test_one_kernel_per_distinct_flow(m4_model, monkeypatch):
    builds = []
    build = transport._kernel
    monkeypatch.setattr(transport, "_kernel",
                        lambda *args: builds.append(args) or build(*args))
    p0 = PointE((0.3, 0.2), (1.0, 1.0))
    X = (ONE, parse("x1"))
    counts = []
    for probe in (
            lambda: holonomy_probe(m4_model, p0, 0, 1, 1e-2),
            lambda: transport_oracle(m4_model, X, p0, (1.0, 0.5), 0.1, 1e-3),
            lambda: transport_oracle(m4_model, X, p0, (1.0, 0.5), 0.1, 1e-3,
                                     central=True)):
        _memo.clear()
        builds.clear()
        probe()
        counts.append(len(builds))
    # Four holonomy legs along e_1 and e_2; two or three oracle flows of X.
    assert counts == [2, 1, 1]


def test_holonomy_needs_two_directions(quadratic_model):
    with pytest.raises(ModelError):
        holonomy_probe(quadratic_model, PointE((0.0,), (1.0,)), 0, 0, 1e-2)


# ---------------------------------------------------------------------------
# Second-order flows
# ---------------------------------------------------------------------------

def test_sode_flow_harmonic_oscillator():
    s = SodeModel(True, ("x1",), ("v1",), (parse("-x1"),))
    out = sode_flow(s, (1.0, 0.0), math.pi / 2, 1e-4)
    x, v = out.final.base[0], out.final.fiber[0]
    assert x == pytest.approx(0.0, abs=1e-6)
    assert v == pytest.approx(-1.0, abs=1e-6)


def test_sode_flow_free_particle():
    s = SodeModel(True, ("x1",), ("v1",), (ZERO,))
    out = sode_flow(s, (0.25, 0.5), 2.0, 1e-2)
    assert out.final.base[0] == pytest.approx(1.25)
    assert out.final.fiber[0] == pytest.approx(0.5)


def test_sode_flow_energy_conservation():
    # Energy is conserved along the path: checked at the end of flows over
    # a quarter, half, three quarters and all of the span.
    s = SodeModel(True, ("x1",), ("v1",), (parse("-x1"),))
    for span in (2.5, 5.0, 7.5, 10.0):
        p = sode_flow(s, (1.0, 0.0), span, 1e-3).final
        energy = 0.5 * (p.base[0] ** 2 + p.fiber[0] ** 2)
        assert abs(energy - 0.5) <= 1e-8, span


def test_sode_flow_memory_does_not_grow_with_steps():
    # A flow keeps only its current state: 10,000 steps stay well under
    # the ~4 MB that one stored state per step would take.
    s = SodeModel(True, ("x1", "x2"), ("v1", "v2"),
                  (parse("-x1"), parse("-x2")))
    tracemalloc.start()
    try:
        out = sode_flow(s, (1.0, 0.0, 0.0, 1.0), 1.0, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.steps == 10_000
    assert peak < 1_000_000


def test_sode_flow_nonautonomous_state_layout():
    s = SodeModel(False, ("t", "x1"), ("v1",), (parse("-x1 + 0*t"),))
    out = sode_flow(s, (0.0, 1.0, 0.0), math.pi / 2, 1e-4)
    t, x = out.final.base
    v = out.final.fiber[0]
    assert t == pytest.approx(math.pi / 2)
    assert x == pytest.approx(0.0, abs=1e-6)
    assert v == pytest.approx(-1.0, abs=1e-6)
