import math
from pathlib import Path

import numpy as np
import pytest

from linconn.expr import ONE, ZERO, evaluate, parse
from linconn.geometry import curvature
from linconn.model import (
    BundleModel, ConnectionModel, ModelError, PointE, load_model,
)
from linconn.sode import SodeModel
from linconn.transport import (
    CurveSpec, holonomy_probe, horizontal_flow, parallel_transport,
    sode_flow, transport_oracle,
)

from conftest import eval_or_zero

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
    assert along_curve.trajectory[-1][1] == along_field.trajectory[-1][1]


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
    assert joint.trajectory[-1][1] == flow.final
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


# ---------------------------------------------------------------------------
# Affine transport preserves the distinguished component
# ---------------------------------------------------------------------------

def test_affine_transport_preserves_weight():
    b = BundleModel("affine", ("x1",), ("y1",))
    m = ConnectionModel(b, [[parse("y1^2 + sin(x1)")]])
    spec = CurveSpec(start=PointE((0.0,), (0.4,)), t_span=1.0, step=1e-3,
                     field=(ONE,))
    out = parallel_transport(m, spec, (1.0, 0.2))
    assert abs(out.final_fiber[0] - 1.0) <= 1e-10
    weights = [b_[0] for _, _, b_ in out.trajectory]
    assert max(abs(w - 1.0) for w in weights) <= 1e-10


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


def test_holonomy_needs_two_directions(quadratic_model):
    with pytest.raises(ModelError):
        holonomy_probe(quadratic_model, PointE((0.0,), (1.0,)), 0, 0, 1e-2)


# ---------------------------------------------------------------------------
# Second-order flows
# ---------------------------------------------------------------------------

def test_sode_flow_harmonic_oscillator():
    s = SodeModel(True, ("x1",), ("v1",), (parse("-x1"),))
    out = sode_flow(s, (1.0, 0.0), math.pi / 2, 1e-4)
    x, v = out.points[-1].base[0], out.points[-1].fiber[0]
    assert x == pytest.approx(0.0, abs=1e-6)
    assert v == pytest.approx(-1.0, abs=1e-6)


def test_sode_flow_free_particle():
    s = SodeModel(True, ("x1",), ("v1",), (ZERO,))
    out = sode_flow(s, (0.25, 0.5), 2.0, 1e-2)
    assert out.points[-1].base[0] == pytest.approx(1.25)
    assert out.points[-1].fiber[0] == pytest.approx(0.5)


def test_sode_flow_energy_conservation():
    s = SodeModel(True, ("x1",), ("v1",), (parse("-x1"),))
    out = sode_flow(s, (1.0, 0.0), 10.0, 1e-3)
    drift = 0.0
    for p in out.points:
        energy = 0.5 * (p.base[0] ** 2 + p.fiber[0] ** 2)
        drift = max(drift, abs(energy - 0.5))
    assert drift <= 1e-8


def test_sode_flow_nonautonomous_state_layout():
    s = SodeModel(False, ("t", "x1"), ("v1",), (parse("-x1 + 0*t"),))
    out = sode_flow(s, (0.0, 1.0, 0.0), math.pi / 2, 1e-4)
    t, x = out.points[-1].base
    v = out.points[-1].fiber[0]
    assert t == pytest.approx(math.pi / 2)
    assert x == pytest.approx(0.0, abs=1e-6)
    assert v == pytest.approx(-1.0, abs=1e-6)
