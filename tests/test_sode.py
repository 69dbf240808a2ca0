import numpy as np
import pytest

from linconn.affine import homogenize
from linconn.expr import (ZERO, compile_fn, evaluate, is_zero, parse,
                          random_polynomial)
from linconn.geometry import curvature
from linconn.model import ModelError, sample_points
from linconn.sode import (
    SodeModel, decoupling_check, homogeneous_sode, jacobi_endomorphism,
    linearizability_report, nonautonomous_connection, sode_connection,
)
from conftest import eval_or_zero


def autonomous(*forces, n=None):
    n = n or len(forces)
    return SodeModel(True, tuple(f"x{i+1}" for i in range(n)),
                     tuple(f"v{i+1}" for i in range(n)),
                     tuple(parse(f) for f in forces))


# ---------------------------------------------------------------------------
# Connection coefficients
# ---------------------------------------------------------------------------

def test_sode_connection_examples():
    assert sode_connection(autonomous("-x1")).gamma[0][0] == ZERO
    damped = sode_connection(autonomous("-x1 - v1"))
    assert evaluate(damped.gamma[0][0], {"x1": 0, "v1": 0}) == 0.5


def test_sode_connection_geodesic_spray(rng):
    # Quadratic forces with symmetric coefficients give coefficients
    # C^i_jk(x) v^k; spot-check one entry.
    s = autonomous("-(x1*v1*v1 + 2*0.3*v1*v2 + x2*v2*v2)",
                   "-(0.1*v1*v1)", n=2)
    m = sode_connection(s)
    env = {"x1": 0.5, "x2": -0.2, "v1": 0.7, "v2": 0.4}
    # -1/2 d f1/d v1 = x1*v1 + 0.3*v2
    assert evaluate(m.gamma[0][0], env) == pytest.approx(0.5 * 0.7 + 0.3 * 0.4)
    # Symmetry of the fiber derivative of the coefficients.
    from linconn.geometry import linear_coeffs

    lin = linear_coeffs(m)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert eval_or_zero(lin[i, j, k], env) == pytest.approx(
                    eval_or_zero(lin[i, k, j], env), abs=1e-12)


def test_jacobi_endomorphism_values():
    assert str(jacobi_endomorphism(autonomous("-x1"))[0, 0]) == "1"
    phi = jacobi_endomorphism(autonomous("-x1 - v1"))
    assert evaluate(phi[0, 0], {"x1": 0.3, "v1": -0.8}) == 0.75
    phi = jacobi_endomorphism(autonomous("0"))
    assert phi[0, 0] == ZERO


def test_jacobi_field_application_term(rng):
    # field(c) with c = -1/2 df/dv is exercised by a velocity- and
    # position-dependent force.
    s = autonomous("-x1*v1^2")
    phi = jacobi_endomorphism(s)
    # c = x1*v1; field(c) = v1*(v1) + f*(x1) = v1^2 - x1^2*v1^2;
    # phi = v1^2 - (x1 v1)^2 - field(c) = v1^2 - x1^2 v1^2 - v1^2 + x1^2 v1^2 = 0
    for _ in range(20):
        env = {"x1": float(rng.uniform(-1, 1)), "v1": float(rng.uniform(-1, 1))}
        assert eval_or_zero(phi[0, 0], env) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Non-autonomous case
# ---------------------------------------------------------------------------

def nonauto(*forces):
    n = len(forces)
    return SodeModel(False, ("t",) + tuple(f"x{i+1}" for i in range(n)),
                     tuple(f"v{i+1}" for i in range(n)),
                     tuple(parse(f) for f in forces))


def test_nonautonomous_connection_examples():
    m = nonautonomous_connection(nonauto("-x1"))
    assert m.bundle.kind == "jet"
    assert str(m.gamma[0][0]) == "x1"
    assert m.gamma[0][1] == ZERO

    m = nonautonomous_connection(nonauto("-v1"))
    env = {"t": 0.0, "x1": 0.0, "v1": 0.8}
    assert evaluate(m.gamma[0][0], env) == pytest.approx(0.4)   # v/2
    assert evaluate(m.gamma[0][1], env) == pytest.approx(0.5)

    m = nonautonomous_connection(nonauto("0"))
    assert all(is_zero(e) for row in m.gamma for e in row)


def test_homogeneous_sode_forces():
    hs = homogeneous_sode(nonauto("-x1"))
    assert hs.autonomous
    assert hs.velocity_coords == ("w0", "w1")
    assert hs.forces[0] == ZERO
    fn = compile_fn(hs.forces[1], hs.coords)
    # (t, x1, w0, w1) -> -(w0)^2 * x1
    assert fn((0.0, 0.5, 2.0, 0.3)) == pytest.approx(-2.0)


def test_polynomial_degree_two_forces_extend_smoothly():
    hs = homogeneous_sode(nonauto("-x1 + v1^2"))
    fn = compile_fn(hs.forces[1], hs.coords)
    # (w0)^2 * (-x1 + (w1/w0)^2) -> -x1 w0^2 + w1^2, finite as w0 -> 0.
    assert fn((0.0, 0.5, 1e-9, 0.3)) == pytest.approx(0.09, abs=1e-9)


def test_homogeneous_sode_matches_homogenized_jet_connection(rng):
    # The connection of the extended field, restricted to w0 = 1, equals
    # the homogenization of the jet connection.
    s = nonauto("-x1 - t*v1^2")
    left = sode_connection(homogeneous_sode(s))        # fiber (w0, w1)
    right = homogenize(nonautonomous_connection(s))    # fiber (z0, z1)
    ln = left.bundle.coords
    rn = right.model.bundle.coords
    for _ in range(100):
        t, x = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        w0 = float(rng.uniform(0.5, 2.0))
        w1 = float(rng.uniform(-1, 1))
        lvals = dict(zip(ln, (t, x, w0, w1)))
        rvals = dict(zip(rn, (t, x, w0, w1)))
        for A in range(2):
            for i in range(2):
                lv = eval_or_zero(left.gamma[A][i], lvals)
                rv = eval_or_zero(right.model.gamma[A][i], rvals)
                assert lv == pytest.approx(rv, rel=1e-9, abs=1e-9)


def test_jacobi_equals_curvature_contraction_nonautonomous(rng):
    # For a time-dependent field the Jacobi endomorphism is the curvature
    # of the homogenized connection contracted with the total-derivative
    # direction, evaluated on the w0 = 1 slice.
    s = nonauto("-x1 - t*v1^2")
    phi = jacobi_endomorphism(s)
    hom = homogenize(nonautonomous_connection(s))
    R = curvature(hom.model)   # fiber rows (z0, z1); base columns (t, x1)
    for _ in range(100):
        t, x, v = (float(rng.uniform(-1, 1)) for _ in range(3))
        env_phi = {"t": t, "x1": x, "v1": v}
        env_R = {"t": t, "x1": x, "z0": 1.0, "z1": v}
        # R(T, d/dx1) with T = d/dt + v d/dx1.
        contraction = eval_or_zero(R[1, 0, 1], env_R) + \
            v * eval_or_zero(R[1, 1, 1], env_R)
        assert eval_or_zero(phi[0, 0], env_phi) == pytest.approx(
            contraction, rel=1e-8, abs=1e-8)


def test_nonautonomous_tension_vanishes(rng):
    # Jet connections built from a second-order field are homogeneous by
    # construction; the extended model has zero tension.
    s = nonauto("-x1 - t*v1^2 + v1")
    hom = homogenize(nonautonomous_connection(s))
    from linconn.geometry import check_homogeneous

    pts = sample_points(hom.model, 60, seed=31, box={"z0": (0.5, 2.0)})
    assert check_homogeneous(hom.model, pts, 1e-10).passed


# ---------------------------------------------------------------------------
# Linearizability classification
# ---------------------------------------------------------------------------

def _classify(s, seed=41):
    m = sode_connection(s)
    pts = sample_points(m, 80, seed=seed)
    return linearizability_report(s, pts, 1e-9)


def test_classification_harmonic_oscillator():
    report = _classify(autonomous("-x1"))
    assert report.labels["classification"] == "linear-in-all-variables"
    assert report.labels["flat"] and report.labels["jacobi_parallel"]


def test_classification_cubic_potential():
    # Flat connection but non-parallel Jacobi endomorphism: linear in
    # velocities (A = 0 happens to be constant), not in all variables.
    report = _classify(autonomous("-x1^3"))
    assert report.labels["flat"]
    assert not report.labels["jacobi_parallel"]
    assert report.labels["classification"].startswith("linear-in-velocities")
    assert report.labels["classification"] != "linear-in-all-variables"


def test_classification_cubic_velocity():
    report = _classify(autonomous("-v1^3"))
    assert not report.labels["flat"]
    assert report.labels["classification"] == "none"


def test_classification_velocity_linear_varying_A():
    # f = -x1*v1: coefficients x1/2, flat, tension zero, but the Jacobi
    # endomorphism is x-dependent.
    report = _classify(autonomous("-x1*v1"))
    assert report.labels["flat"]
    assert report.labels["classification"].startswith("linear-in-velocities")


# ---------------------------------------------------------------------------
# Decoupling conditions
# ---------------------------------------------------------------------------

def _decouple(s, split, seed=42):
    m = sode_connection(s)
    pts = sample_points(m, 60, seed=seed)
    return decoupling_check(s, split, pts, 1e-9)


def test_decoupling_two_oscillators():
    report = _decouple(autonomous("-x1", "-x2"), ((1,), (2,)))
    assert report.labels["classification"] == "decoupled"


def test_decoupling_submersive_only():
    report = _decouple(autonomous("-x1", "-x1-x2"), ((1,), (2,)))
    assert report.labels["classification"] == "submersive"
    assert report.labels["submersive"] and not report.labels["decoupled"]


def test_decoupling_neither():
    report = _decouple(autonomous("-x2", "-x1"), ((1,), (2,)))
    assert report.labels["classification"] == "coupled"


def test_decoupling_validates_split():
    s = autonomous("-x1", "-x2")
    pts = sample_points(sode_connection(s), 10, seed=1)
    with pytest.raises(ModelError):
        decoupling_check(s, ((1,), ()), pts, 1e-9)
    with pytest.raises(ModelError):
        decoupling_check(s, ((1,), (3,)), pts, 1e-9)


# ---------------------------------------------------------------------------
# Flow-differencing oracle for the field-application term
# ---------------------------------------------------------------------------

def test_jacobi_matches_flow_differencing():
    # kappa([field, X^H]) by flow differencing: advance the second-order
    # flow by eps, transport-compare the horizontal lift of d/dx1.
    s = autonomous("-x1 - v1^2")
    m = sode_connection(s)
    phi = jacobi_endomorphism(s)
    state0 = (0.4, 0.2)
    eps = 1e-5
    names = s.coords

    gamma_fn = compile_fn(m.gamma[0][0], names)
    force_fn = compile_fn(s.forces[0], names)

    def hx(state):
        # Horizontal lift of d/dx1 at (x, v): (1, -gamma(x, v)).
        return np.array([1.0, -gamma_fn(state)])

    def field(state):
        return np.array([state[1], force_fn(state)])

    # Lie bracket [field, X^H] by first-order flow differencing:
    # d/ds (X^H(flow_s(p)) - Dflow_s(X^H(p))) at s=0, approximated with
    # (X^H(p + eps*field) - (X^H(p) + eps * J_field X^H(p))) / eps, where
    # J_field X^H(p) is approximated by differencing the field along X^H.
    p = np.array(state0)
    xh_p = hx(tuple(p))
    advected = hx(tuple(p + eps * field(tuple(p))))
    transported = xh_p + eps * (field(tuple(p + eps * xh_p)) -
                                field(tuple(p))) / eps
    bracket = (advected - transported) / eps
    # kappa keeps the vertical part and adds gamma * horizontal part.
    kappa = bracket[1] + gamma_fn(state0) * bracket[0]
    expected = evaluate(phi[0, 0], dict(zip(names, state0)))
    assert kappa == pytest.approx(expected, abs=1e-4)


def test_sode_symmetry_property(rng):
    # Mixed fiber derivatives of the induced coefficients always agree.
    from linconn.geometry import linear_coeffs

    for _ in range(5):
        forces = tuple(random_polynomial(("x1", "x2", "v1", "v2"), rng,
                                         degree=2, terms=4)
                       for _ in range(2))
        s = SodeModel(True, ("x1", "x2"), ("v1", "v2"), forces)
        lin = linear_coeffs(sode_connection(s))
        env = {c: float(rng.uniform(-1, 1)) for c in s.coords}
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert eval_or_zero(lin[i, j, k], env) == pytest.approx(
                        eval_or_zero(lin[i, k, j], env), abs=1e-10)
