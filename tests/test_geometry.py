import numpy as np
import pytest

from linconn.expr import (
    ONE, ZERO, EvalError, compile_fn, evaluate, parse, random_polynomial,
    simplify,
)
from linconn.geometry import (
    CheckReport, VectorFieldOnE, axioms_check, bianchi_check, check_basic,
    check_homogeneous, combine_reports, covariant_derivative, curvature,
    evaluate_components, flatness_check,
    h_apply, hh_curvature, hh_curvature_commutator,
    integral_section_residual, linear_coeffs, pullback_connection_coeffs,
    tension, tension_identities_check, vh_curvature,
)
from linconn.model import (
    BundleModel, ConnectionModel, ModelError, PointE, SectionModel,
    sample_points,
)

from conftest import eval_or_zero


# ---------------------------------------------------------------------------
# Frame machinery
# ---------------------------------------------------------------------------

def test_h_apply(quadratic_model):
    assert str(h_apply(quadratic_model, parse("u1"), 0)) == "-u1^2"
    assert str(h_apply(quadratic_model, parse("x1"), 0)) == "1"


def test_h_apply_drops_vertical_term_on_base_functions(m4_model, rng):
    e = parse("sin(x1)*x2^2")
    out = h_apply(m4_model, e, 0)
    expected = parse("cos(x1)*x2^2")
    for _ in range(20):
        env = {c: float(rng.uniform(-1, 1)) for c in m4_model.bundle.coords}
        assert evaluate(out, env) == pytest.approx(evaluate(expected, env))


def test_linear_coeffs(quadratic_model, linear_model, flat_model):
    assert str(linear_coeffs(quadratic_model)[0, 0, 0]) == "2*u1"
    assert str(linear_coeffs(linear_model)[0, 0, 0]) == "x1"
    lin = linear_coeffs(flat_model)
    assert all(e == ZERO for _, e in lin.items())


def test_linear_coeffs_rejects_affine_kinds():
    b = BundleModel("affine", ("x1",), ("y1",))
    m = ConnectionModel(b, [[parse("y1^2")]])
    with pytest.raises(ModelError):
        linear_coeffs(m)


# ---------------------------------------------------------------------------
# Covariant derivative
# ---------------------------------------------------------------------------

def test_covariant_derivative_basic_section(quadratic_model, rng):
    # Hand substitution into the component formula gives 1 + 2*u1*x1; the
    # fiber-derivative transport oracle cross-checks this in
    # test_transport.py::test_transport_derivative_matches_basic_covariant.
    U = VectorFieldOnE(horizontal=(ONE,), vertical=(ZERO,))
    out = covariant_derivative(quadratic_model, U, (parse("x1"),))
    expected = parse("1 + 2*u1*x1")
    for _ in range(20):
        env = {c: float(rng.uniform(-2, 2)) for c in ("x1", "u1")}
        assert evaluate(out[0], env) == pytest.approx(evaluate(expected, env))


def test_covariant_derivative_vertical_kills_basic(m4_model):
    U = VectorFieldOnE(horizontal=(ZERO, ZERO), vertical=(parse("u1"), ONE))
    out = covariant_derivative(m4_model, U, (parse("x1^2"), parse("sin(x2)")))
    assert all(e == ZERO for e in out)


def test_covariant_derivative_of_canonical_section_vertical(m4_model):
    # Along a vertical lift the canonical section differentiates to the
    # direction itself.
    for B in range(2):
        vert = [ZERO, ZERO]
        vert[B] = ONE
        out = covariant_derivative(m4_model, VectorFieldOnE((ZERO, ZERO), tuple(vert)),
                                   (parse("u1"), parse("u2")))
        for A in range(2):
            assert out[A] == (ONE if A == B else ZERO)


@pytest.mark.parametrize("model_name", ["flat_model", "linear_model",
                                        "quadratic_model", "m4_model"])
def test_axioms_on_all_models(model_name, request):
    m = request.getfixturevalue(model_name)
    pts = sample_points(m, 100, seed=1)
    report = axioms_check(m, pts, 1e-9)
    assert report.passed, report.max_residual


# ---------------------------------------------------------------------------
# Tension and homogeneity
# ---------------------------------------------------------------------------

def test_tension_values(quadratic_model, linear_model, line_bundle):
    t = tension(quadratic_model)
    assert evaluate(t[0, 0], {"x1": 0.0, "u1": 1.0}) == pytest.approx(-1.0)
    assert tension(linear_model)[0, 0] == ZERO
    const = ConnectionModel(line_bundle, [[ONE]])
    assert tension(const)[0, 0] == ONE


def test_check_homogeneous(quadratic_model, linear_model):
    pts = sample_points(quadratic_model, 60, seed=2)
    assert not check_homogeneous(quadratic_model, pts, 1e-10).passed
    report = check_homogeneous(linear_model, pts, 1e-10)
    assert report.passed
    assert report.labels["linear_on_samples"]


def test_homogeneous_but_not_linear():
    # Degree-1 homogeneous away from u=0 without being linear.
    b = BundleModel("vector", ("x1",), ("u1", "u2"))
    m = ConnectionModel(b, [[parse("u1^2/u2")], [parse("0")]],
                        excluded=(parse("u2"),))
    pts = sample_points(m, 80, seed=3, box={"u1": (0.5, 2.0), "u2": (0.5, 2.0)})
    report = check_homogeneous(m, pts, 1e-9)
    assert report.passed
    assert not report.labels["linear_on_samples"]


# ---------------------------------------------------------------------------
# Curvature and its blocks
# ---------------------------------------------------------------------------

def test_curvature_single_base_direction_is_zero(quadratic_model):
    R = curvature(quadratic_model)
    assert all(e == ZERO for _, e in R.items())


def _fd_curvature_oracle(m, A, i, j, env, h=1e-6):
    """Nested central differences of the coefficient functions with the
    horizontal correction: H_j(g[A][i]) - H_i(g[A][j])."""

    def gamma_val(a, b, at):
        return evaluate(m.gamma[a][b], at)

    def h_of(fn, direction, at):
        # fn: callable env -> value; direction: base index
        base = m.bundle.base_coords[direction]
        e_p = dict(at); e_p[base] += h
        e_m = dict(at); e_m[base] -= h
        out = (fn(e_p) - fn(e_m)) / (2 * h)
        for B, u in enumerate(m.bundle.fiber_coords):
            f_p = dict(at); f_p[u] += h
            f_m = dict(at); f_m[u] -= h
            out -= gamma_val(B, direction, at) * (fn(f_p) - fn(f_m)) / (2 * h)
        return out

    term1 = h_of(lambda at: gamma_val(A, i, at), j, env)
    term2 = h_of(lambda at: gamma_val(A, j, at), i, env)
    return term1 - term2


def test_curvature_matches_finite_difference_oracle(m4_model):
    R = curvature(m4_model)
    env = {"x1": 0.0, "x2": 0.0, "u1": 1.0, "u2": 1.0}
    for A in range(2):
        symbolic = eval_or_zero(R[A, 0, 1], env)
        oracle = _fd_curvature_oracle(m4_model, A, 0, 1, env)
        assert abs(symbolic - oracle) <= 1e-6 * max(1.0, abs(symbolic))


def test_curvature_antisymmetry(m4_model, rng):
    R = curvature(m4_model)
    for _ in range(30):
        env = {c: float(rng.uniform(-1, 1)) for c in m4_model.bundle.coords}
        for A in range(2):
            assert eval_or_zero(R[A, 0, 1], env) == pytest.approx(
                -eval_or_zero(R[A, 1, 0], env), abs=1e-12)
            assert eval_or_zero(R[A, 0, 0], env) == 0.0


def test_vh_block_values_and_symmetry(quadratic_model, linear_model, m4_model, rng):
    assert str(vh_curvature(quadratic_model)[0, 0, 0, 0]) == "2"
    assert all(e == ZERO for _, e in vh_curvature(linear_model).items())
    theta = vh_curvature(m4_model)
    for _ in range(30):
        env = {c: float(rng.uniform(-1, 1)) for c in m4_model.bundle.coords}
        for C in range(2):
            for i in range(2):
                for A in range(2):
                    for B in range(2):
                        assert eval_or_zero(theta[C, i, A, B], env) == \
                            pytest.approx(eval_or_zero(theta[C, i, B, A], env),
                                          abs=1e-12)


def test_hh_block_two_routes_agree(m4_model):
    direct = hh_curvature(m4_model)
    via_commutator = hh_curvature_commutator(m4_model)
    pts = sample_points(m4_model, 100, seed=4)
    for p in pts:
        env = p.env(m4_model.bundle)
        for idx, e in direct.items():
            assert eval_or_zero(e, env) == pytest.approx(
                eval_or_zero(via_commutator[idx], env), abs=1e-9)


def test_hh_block_hand_value():
    # Coefficients u1^2 and x1*u1 on a two-dimensional base give the
    # curvature -x1*u1^2 - u1 and fiber linearization 2*x1*u1 + 1.
    b = BundleModel("vector", ("x1", "x2"), ("u1",))
    m = ConnectionModel(b, [[parse("u1^2"), parse("x1*u1")]])
    env = {"x1": 0.4, "x2": -0.3, "u1": 0.8}
    R = curvature(m)
    assert evaluate(R[0, 0, 1], env) == pytest.approx(-0.4 * 0.64 - 0.8)
    rie = hh_curvature(m)
    assert evaluate(rie[0, 0, 1, 0], env) == pytest.approx(2 * 0.4 * 0.8 + 1)


def test_hh_block_matches_classical_curvature_for_linear_models(rng):
    # For fiber-linear coefficients the HH block is the curvature of the
    # underlying linear connection; compare against the textbook
    # coordinate formula assembled independently with plain partials:
    # d_i c[B][j][A] - d_j c[B][i][A] + c[B][i][C] c[C][j][A]
    #                                 - c[B][j][C] c[C][i][A].
    b = BundleModel("vector", ("x1", "x2"), ("u1", "u2"))
    m = ConnectionModel(b, [
        [parse("x2*u1 + x1*u2"), parse("x1*u1")],
        [parse("u2"), parse("x2^2*u2")]])
    from linconn.expr import diff

    c = [[[diff(m.gamma[A][i], u) for u in b.fiber_coords]
          for i in range(2)] for A in range(2)]
    rie = hh_curvature(m)
    for _ in range(25):
        env = {name: float(rng.uniform(-1, 1)) for name in b.coords}

        def cv(A, i, B):
            return eval_or_zero(c[A][i][B], env)

        for B in range(2):
            for A in range(2):
                classical = (eval_or_zero(diff(c[B][1][A], "x1"), env) -
                             eval_or_zero(diff(c[B][0][A], "x2"), env) +
                             sum(cv(B, 0, C) * cv(C, 1, A) -
                                 cv(B, 1, C) * cv(C, 0, A) for C in range(2)))
                assert eval_or_zero(rie[B, 0, 1, A], env) == pytest.approx(
                    classical, rel=1e-9, abs=1e-9)


def test_linear_connection_hh_block_fiber_independent(rng):
    # A connection with fiber-linear coefficients pulls back a linear
    # connection; its HH block must not depend on the fiber point.
    b = BundleModel("vector", ("x1", "x2"), ("u1", "u2"))
    m = ConnectionModel(b, [
        [parse("x2*u1 + x1*u2"), parse("x1*u1")],
        [parse("u2"), parse("x2^2*u2")]])
    assert all(e == ZERO for _, e in vh_curvature(m).items())
    rie = hh_curvature(m)
    base_env = {"x1": 0.3, "x2": -0.6}
    for idx, e in rie.items():
        ref = eval_or_zero(e, {**base_env, "u1": 0.2, "u2": 0.9})
        for _ in range(10):
            env = {**base_env, "u1": float(rng.uniform(-1, 1)),
                   "u2": float(rng.uniform(-1, 1))}
            assert eval_or_zero(e, env) == pytest.approx(ref, abs=1e-8)


def test_flatness_check(flat_model, m4_model):
    pts = sample_points(flat_model, 40, seed=5)
    assert flatness_check(flat_model, pts, 1e-10).passed
    pts = sample_points(m4_model, 40, seed=5)
    assert not flatness_check(m4_model, pts, 1e-10).passed


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def test_bianchi_flat_zero(flat_model):
    pts = sample_points(flat_model, 30, seed=6)
    report = bianchi_check(flat_model, pts, 1e-12)
    assert report.passed and report.max_residual == 0.0


def test_bianchi_linear_connection():
    b = BundleModel("vector", ("x1", "x2"), ("u1", "u2"))
    m = ConnectionModel(b, [
        [parse("x2*u1 + x1*u2"), parse("x1*u1")],
        [parse("u2"), parse("x2^2*u2")]])
    pts = sample_points(m, 100, seed=7)
    report = bianchi_check(m, pts, 1e-9)
    assert report.passed, [(s.name, s.max_residual) for s in report.subreports]
    # Third identity is trivial for a linear connection.
    assert report.subreports[2].max_residual == 0.0


def test_bianchi_m4(m4_model):
    pts = sample_points(m4_model, 100, seed=8)
    report = bianchi_check(m4_model, pts, 1e-8)
    assert report.passed
    assert len(report.subreports) == 3


def test_combine_reports_takes_the_first_maximum():
    pts = [PointE((float(i),), (0.0,)) for i in range(3)]

    def sub(name, residual, point):
        return CheckReport(name=name, passed=residual <= 1e-8,
                           max_residual=residual, tolerance=1e-8,
                           samples=3, worst_point=point)

    subs = (sub("a", 0.0, pts[0]), sub("b", 2.0, pts[1]),
            sub("c", 2.0, pts[2]))
    report = combine_reports("all", subs, 1e-8, pts, labels={"x": 1})
    assert report.worst_point == max(subs, key=lambda s: s.max_residual).worst_point
    assert report.worst_point == pts[1]
    assert report.max_residual == 2.0
    assert not report.passed
    assert report.samples == 3
    assert report.subreports == subs
    assert report.labels == {"x": 1}
    assert combine_reports("none", subs[:1], 1e-8, pts).passed


def test_bianchi_n1_first_identity_vacuous(quadratic_model):
    pts = sample_points(quadratic_model, 20, seed=9)
    report = bianchi_check(quadratic_model, pts, 1e-8)
    assert report.subreports[0].labels.get("vacuous")
    assert report.passed


def test_tension_identities(quadratic_model, m4_model):
    pts = sample_points(quadratic_model, 50, seed=10)
    report = tension_identities_check(quadratic_model, pts, 1e-12)
    assert report.passed
    # With coefficient u1^2 the vertical identity reads
    # d(-u1^2)/du1 + u1 * 2 = 0 exactly.
    pts = sample_points(m4_model, 100, seed=11)
    report = tension_identities_check(m4_model, pts, 1e-8)
    assert report.passed


def test_homogeneous_model_tension_identity_sides_vanish(linear_model):
    pts = sample_points(linear_model, 30, seed=12)
    report = tension_identities_check(linear_model, pts, 1e-12)
    assert report.passed and report.max_residual == 0.0


# ---------------------------------------------------------------------------
# Basic sections and integral sections
# ---------------------------------------------------------------------------

def test_check_basic(quadratic_model):
    pts = sample_points(quadratic_model, 30, seed=13)
    assert check_basic(quadratic_model, SectionModel((parse("x1^2"),)),
                       pts, 1e-12).passed
    assert not check_basic(quadratic_model, SectionModel((parse("u1"),)),
                           pts, 1e-12).passed
    assert check_basic(quadratic_model, SectionModel((parse("x1 + 0*u1"),)),
                       pts, 1e-12).passed


def test_integral_section_residual(flat_model, linear_model, quadratic_model, rng):
    const = SectionModel((parse("0.25"), parse("-0.5")))
    res = integral_section_residual(flat_model, const)
    assert all(e == ZERO for _, e in res.items())

    # alpha' = -x alpha solves the linear model equation.
    alpha = SectionModel((parse("exp(-x1^2/2)"),))
    res = integral_section_residual(linear_model, alpha)
    for _ in range(20):
        env = {"x1": float(rng.uniform(-1, 1))}
        assert eval_or_zero(res[0, 0], env) == pytest.approx(0.0, abs=1e-12)

    res = integral_section_residual(quadratic_model, SectionModel((ONE,)))
    assert res[0, 0] == ONE

    with pytest.raises(ModelError):
        integral_section_residual(quadratic_model, SectionModel((parse("u1"),)))


def test_pullback_connection_coeffs(flat_model, quadratic_model, linear_model):
    assert all(e == ZERO for _, e in pullback_connection_coeffs(
        flat_model, SectionModel((parse("x1"), parse("x2")))).items())
    out = pullback_connection_coeffs(quadratic_model,
                                     SectionModel((parse("x1"),)))
    assert str(out[0, 0, 0]) == "2*x1"
    out = pullback_connection_coeffs(linear_model, SectionModel((parse("x1^3"),)))
    assert str(out[0, 0, 0]) == "x1"  # fiber-independent for linear models


# ---------------------------------------------------------------------------
# Cross-block property: vanishing VH block forces fiber-independent HH block
# ---------------------------------------------------------------------------

def test_leibniz_and_tensoriality_random_data(m4_model, rng):
    names = m4_model.bundle.coords
    pts = sample_points(m4_model, 100, seed=14)
    f = random_polynomial(names, rng)
    sigma = tuple(random_polynomial(names, rng) for _ in range(2))
    U = VectorFieldOnE(
        horizontal=tuple(random_polynomial(names, rng) for _ in range(2)),
        vertical=tuple(random_polynomial(names, rng) for _ in range(2)))
    d_sigma = covariant_derivative(m4_model, U, sigma)
    f_sigma = tuple(simplify(f * s) for s in sigma)
    lhs = covariant_derivative(m4_model, U, f_sigma)
    u_f = U.apply(m4_model, f)
    for p in pts:
        env = p.env(m4_model.bundle)
        for A in range(2):
            left = evaluate(lhs[A], env)
            right = evaluate(u_f, env) * evaluate(sigma[A], env) + \
                evaluate(f, env) * evaluate(d_sigma[A], env)
            assert left == pytest.approx(right, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Sample evaluation
# ---------------------------------------------------------------------------

def _per_point(m, comps, samples):
    """evaluate_components as one compiled call per component and point:
    the reference the column evaluation must reproduce."""
    names = m.bundle.coords
    vectors = [pt.values(m.bundle) for pt in samples]
    max_res, worst, details = 0.0, samples[0], []
    for label, e in comps.items():
        fn = compile_fn(e, names)
        column = np.abs([fn(vec) for vec in vectors])
        assert np.isfinite(column).all()
        local = float(column.max(initial=0.0))
        if local > max_res:
            max_res, worst = local, samples[int(np.argmax(column))]
        details.append((label, local))
    return max_res, worst, tuple(details)


def test_evaluate_components_matches_per_point_evaluation(m4_model):
    # 5,000 samples span three column chunks. A constant keeps its first
    # point as the worst; the largest residual lies in a later chunk.
    samples = sample_points(m4_model, 5000, seed=61)
    R = curvature(m4_model)
    comps = {R.label(idx): e for idx, e in R.items()}
    comps.update(zero=ZERO, negzero=parse("x1*0 - 0"),
                 power=parse("(x1^2 + 1)^0.5*sin(u2) - exp(x2)/3"),
                 late=parse("10*x1*u2"))
    for case in ({"tie": parse("u1^2*0 + 1")}, comps):
        expected = _per_point(m4_model, case, samples)
        assert evaluate_components(m4_model, case, samples) == expected
    assert samples.index(expected[1]) >= 2048


def test_evaluate_components_reports_faults_in_label_order(m4_model):
    samples = [PointE(base=(0.5, 0.2), fiber=(0.1, 0.3)),
               PointE(base=(-0.5, 0.2), fiber=(0.1, 0.3))]
    # The first label faults only at the second point; the second label
    # has an unbound variable and the third faults at the first point.
    comps = {"a": parse("ln(x1)"), "b": parse("zz"), "c": parse("1/(x2 - 0.2)")}
    with pytest.raises(EvalError, match=r"ln of a non-positive number .* at x1=-0.5"):
        evaluate_components(m4_model, comps, samples)
    del comps["a"]
    with pytest.raises(EvalError, match="unbound variable 'zz'"):
        evaluate_components(m4_model, comps, samples)
    # exp(600)^2 overflows though 1/that is finite: the scalar path gives 0.
    big = {"d": parse("u1 + 1/(exp(400*(x1 + 1))*exp(400*(x1 + 1)))")}
    assert evaluate_components(m4_model, big, samples) == \
        _per_point(m4_model, big, samples)
