import numpy as np
import pytest

from linconn.affine import (
    _homogenized_samples, affine_covariant_derivative, affine_linearization,
    check_affine_structure, homogenize,
)
from linconn.expr import ONE, ZERO, Var, compile_fn, evaluate, parse
from linconn.geometry import VectorFieldOnE, check_homogeneous
from linconn.model import (
    BundleModel, ConnectionModel, ModelError, sample_points,
)


@pytest.fixture
def affine_quadratic():
    b = BundleModel("affine", ("x1",), ("y1",))
    return ConnectionModel(b, [[parse("y1^2")]])


@pytest.fixture
def affine_two():
    b = BundleModel("affine", ("x1", "x2"), ("y1", "y2"))
    return ConnectionModel(b, [
        [parse("y1^2 + x2"), parse("y1*y2")],
        [parse("sin(x1) + y2^3"), parse("x1*y1")]])


# ---------------------------------------------------------------------------
# Homogenization
# ---------------------------------------------------------------------------

def test_homogenize_rows(affine_quadratic):
    hom = homogenize(affine_quadratic)
    assert hom.bundle.kind == "vector"
    assert hom.bundle.fiber_coords == ("z0", "z1")
    assert all(e == ZERO for e in hom.gamma[0])
    fn = compile_fn(hom.gamma[1][0], hom.bundle.coords)
    # z0 * (z1/z0)^2 == z1^2/z0
    assert fn((0.3, 2.0, 3.0)) == pytest.approx(4.5)


def test_homogenize_names_the_fiber_apart_from_the_base():
    # The base already uses z1: the extended fiber takes _z0, _z1, and the
    # extension and its checks run as on any other chart.
    m = ConnectionModel(BundleModel("affine", ("z1",), ("y1",)),
                        [[parse("y1^2")]])
    hom = homogenize(m)
    assert hom.bundle.coords == ("z1", "_z0", "_z1")
    assert hom.excluded == (Var("_z0"),)
    fn = compile_fn(hom.gamma[1][0], hom.bundle.coords)
    assert fn((0.3, 2.0, 3.0)) == pytest.approx(4.5)
    report = check_affine_structure(m, sample_points(m, 50, seed=4), 1e-9)
    assert report.passed


def test_homogenize_affine_coefficients_linear():
    b = BundleModel("affine", ("x1",), ("y1",))
    m = ConnectionModel(b, [[parse("sin(x1) + x1^2*y1")]])
    hom = homogenize(m)
    # Affine coefficients homogenize to sin(x1)*z0 + x1^2*z1. The stored
    # tree keeps the z0 * gamma(x, z/z0) shape, so equality is checked on
    # the function values, including the limit toward the z0 = 0 plane
    # (the extension of an affine connection is linear).
    fn = compile_fn(hom.gamma[1][0], hom.bundle.coords)
    for x1, z0, z1 in [(0.2, 1e-9, 1.5), (0.7, -1.0, 0.4), (0.3, 0.5, -2.0)]:
        expected = np.sin(x1) * z0 + x1 ** 2 * z1
        assert fn((x1, z0, z1)) == pytest.approx(expected, abs=1e-9)


def test_homogenize_zero():
    b = BundleModel("affine", ("x1",), ("y1",))
    m = ConnectionModel(b, [[ZERO]])
    hom = homogenize(m)
    assert all(e == ZERO for row in hom.gamma for e in row)


def test_homogenize_rejects_vector_models(quadratic_model):
    with pytest.raises(ModelError):
        homogenize(quadratic_model)


@pytest.mark.parametrize("lam", [-2.0, 0.5, 3.0])
def test_homogenized_scaling(affine_two, lam, rng):
    hom = homogenize(affine_two)
    names = hom.bundle.coords
    fns = [compile_fn(e, names) for row in hom.gamma for e in row]
    for _ in range(30):
        x = [float(rng.uniform(-1, 1)) for _ in range(2)]
        z = [float(rng.uniform(0.5, 2.0)) for _ in range(3)]
        scaled = x + [lam * v for v in z]
        plain = x + z
        for fn in fns:
            a = fn(scaled)
            b = lam * fn(plain)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _reciprocal_model():
    b = BundleModel("affine", ("x1",), ("y1",))
    return ConnectionModel(b, [[parse("1/y1")]], excluded=(parse("y1"),))


def test_homogenize_keeps_the_excluded_set():
    hom = homogenize(_reciprocal_model())
    assert hom.excluded == (Var("z0"), Var("z1") / Var("z0"))


def test_homogenized_draw_keeps_off_the_excluded_set():
    # The model is singular at y1 = 0, so its extension is at z1/z0 = 0;
    # the draw of the homogeneity check keeps the sampler's margin there.
    hom = homogenize(_reciprocal_model())
    pts = _homogenized_samples(hom, 2000, seed=0)
    assert np.all(np.abs(pts[:, 2] / pts[:, 1]) >= 0.1)


def test_homogenized_tension_vanishes(affine_two):
    hom = homogenize(affine_two)
    pts = sample_points(hom, 100, seed=21, box={"z0": (0.5, 2.0)})
    report = check_homogeneous(hom, pts, 1e-10)
    assert report.passed


# ---------------------------------------------------------------------------
# Direct linearization
# ---------------------------------------------------------------------------

def test_affine_linearization_values(affine_quadratic, rng):
    lin = affine_linearization(affine_quadratic)
    for _ in range(20):
        env = {"x1": float(rng.uniform(-1, 1)), "y1": float(rng.uniform(-1, 1))}
        y = env["y1"]
        assert evaluate(lin.coeffs_0[0, 0], env) == pytest.approx(-y * y)
        assert evaluate(lin.coeffs_lin[0, 0, 0], env) == pytest.approx(2 * y)


def test_affine_linearization_affine_coefficients():
    b = BundleModel("affine", ("x1",), ("y1",))
    m = ConnectionModel(b, [[parse("sin(x1) + x1^2*y1")]])
    lin = affine_linearization(m)
    env = {"x1": 0.6, "y1": -0.8}
    assert evaluate(lin.coeffs_0[0, 0], env) == pytest.approx(np.sin(0.6))
    assert evaluate(lin.coeffs_lin[0, 0, 0], env) == pytest.approx(0.36)


def test_affine_linearization_zero():
    b = BundleModel("affine", ("x1",), ("y1",))
    m = ConnectionModel(b, [[ZERO]])
    lin = affine_linearization(m)
    assert lin.coeffs_0[0, 0] == ZERO
    assert lin.coeffs_lin[0, 0, 0] == ZERO


# ---------------------------------------------------------------------------
# Covariant derivative on the extended bundle
# ---------------------------------------------------------------------------

def test_canonical_section_derivative_is_vertical_part(affine_two):
    U = VectorFieldOnE(horizontal=(parse("x1"), parse("y2")),
                       vertical=(parse("y1 + x2"), parse("2")))
    canonical = (ONE, parse("y1"), parse("y2"))
    out = affine_covariant_derivative(affine_two, U, canonical)
    assert out[0] == ZERO
    assert out[1] == U.vertical[0]
    assert out[2] == U.vertical[1]


def test_constant_weight_sections_stay_in_model_bundle(affine_two, rng):
    # Sections with constant distinguished component have derivative with
    # zero distinguished component.
    U = VectorFieldOnE(horizontal=(parse("1"), parse("x2")),
                       vertical=(parse("y2"), parse("x1*y1")))
    sigma = (parse("3"), parse("sin(y1)"), parse("x1*y2"))
    out = affine_covariant_derivative(affine_two, U, sigma)
    assert out[0] == ZERO


def test_distinguished_basis_section_derivative(affine_quadratic, rng):
    # Along H_1 the distinguished basis section differentiates to the
    # affine part of the coefficients.
    U = VectorFieldOnE(horizontal=(ONE,), vertical=(ZERO,))
    out = affine_covariant_derivative(affine_quadratic, U, (ONE, ZERO))
    lin = affine_linearization(affine_quadratic)
    assert out[0] == ZERO
    for _ in range(10):
        env = {"x1": float(rng.uniform(-1, 1)), "y1": float(rng.uniform(-1, 1))}
        assert evaluate(out[1], env) == pytest.approx(
            evaluate(lin.coeffs_0[0, 0], env))


# ---------------------------------------------------------------------------
# Structure report
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("coeff", ["y1^2", "y1^3", "sin(x1) + x1^2*y1"])
def test_check_affine_structure(coeff):
    b = BundleModel("affine", ("x1",), ("y1",))
    m = ConnectionModel(b, [[parse(coeff)]])
    pts = sample_points(m, 100, seed=22)
    report = check_affine_structure(m, pts, 1e-9)
    assert report.passed, [(s.name, s.max_residual) for s in report.subreports]


def test_check_affine_structure_two_dim(affine_two):
    pts = sample_points(affine_two, 100, seed=23)
    report = check_affine_structure(affine_two, pts, 1e-9)
    assert report.passed
