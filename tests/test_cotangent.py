import pytest

from linconn.cotangent import (
    AsymmetricConnectionWarning, HamiltonianModel, OneFormOnM,
    TransversalityError, canonical_poisson, cyclic_curvature_check, dh, dv,
    geodesic_model, hamiltonian_field, hj_verify, integrable_connection,
    integrable_report, poisson, torsion_form,
)
from linconn.expr import (
    ZERO, evaluate, is_zero, parse, random_polynomial, simplify, to_string,
)
from linconn.model import BundleModel, ConnectionModel, ModelError, sample_points

from conftest import eval_or_zero


@pytest.fixture
def cot2():
    return BundleModel("cotangent", ("x1", "x2"), ("p1", "p2"))


@pytest.fixture
def flat_cot(cot2):
    return ConnectionModel(cot2, [[ZERO, ZERO], [ZERO, ZERO]])


def lower_indexed(bundle, entries):
    """Build a cotangent model from G(i,j) entries given as strings,
    where G(i,j) multiplies d/dp_j in the horizontal lift H_i."""
    n = bundle.n
    gamma = [[parse(entries[i][j]) for i in range(n)] for j in range(n)]
    return ConnectionModel(bundle, gamma)


def symmetric_model(cot2, rng):
    names = cot2.coords
    entries = [[None, None], [None, None]]
    for i in range(2):
        for j in range(i, 2):
            e = random_polynomial(names, rng, degree=2, terms=3)
            entries[i][j] = e
            entries[j][i] = e
    gamma = [[entries[i][j] for i in range(2)] for j in range(2)]
    return ConnectionModel(cot2, gamma)


# ---------------------------------------------------------------------------
# Torsion form
# ---------------------------------------------------------------------------

def test_torsion_symmetric_vanishes(cot2, rng):
    m = symmetric_model(cot2, rng)
    assert all(is_zero(e) for _, e in torsion_form(m).items())


def test_torsion_entry(cot2):
    m = lower_indexed(cot2, [["0", "p1"], ["0", "0"]])
    sigma = torsion_form(m)
    assert evaluate(sigma[0, 1], {"x1": 0, "x2": 0, "p1": 0.8, "p2": 0}) == \
        pytest.approx(0.4)
    assert evaluate(sigma[1, 0], {"x1": 0, "x2": 0, "p1": 0.8, "p2": 0}) == \
        pytest.approx(-0.4)


def test_torsion_rejects_non_cotangent(quadratic_model):
    with pytest.raises(ModelError):
        torsion_form(quadratic_model)


# ---------------------------------------------------------------------------
# Differentials and the Hamiltonian split
# ---------------------------------------------------------------------------

def test_dh_dv_base_function(cot2, rng):
    m = symmetric_model(cot2, rng)
    assert [str(e) for e in dh(m, parse("x1"))] == ["1", "0"]
    assert all(e == ZERO for e in dv(m, parse("x1")))


def test_dh_of_momentum_is_minus_coefficient(cot2, rng):
    m = symmetric_model(cot2, rng)
    out = dh(m, parse("p1"))
    env = {c: 0.4 for c in cot2.coords}
    for i in range(2):
        # H_i(p1) = -G(i,1) = -gamma[0][i]
        assert eval_or_zero(out[i], env) == pytest.approx(
            -evaluate(m.gamma[0][i], env))
    assert [str(e) for e in dv(m, parse("p1"))] == ["1", "0"]


def test_differential_decomposition(cot2, rng):
    m = symmetric_model(cot2, rng)
    names = cot2.coords
    F = random_polynomial(names, rng)
    U_h = tuple(random_polynomial(names, rng, degree=1) for _ in range(2))
    U_v = tuple(random_polynomial(names, rng, degree=1) for _ in range(2))
    from linconn.geometry import VectorFieldOnE

    U = VectorFieldOnE(U_h, U_v)
    direct = U.apply(m, F)
    paired = ZERO
    dh_F, dv_F = dh(m, F), dv(m, F)
    for i in range(2):
        paired = paired + dh_F[i] * U_h[i] + U_v[i] * dv_F[i]
    residual = simplify(direct - paired)
    for _ in range(30):
        env = {c: float(rng.uniform(-1, 1)) for c in names}
        assert eval_or_zero(residual, env) == pytest.approx(0.0, abs=1e-10)


def test_hamiltonian_field_flat(flat_cot):
    H = parse("(p1^2+p2^2)/2")
    U = hamiltonian_field(flat_cot, H)
    env = {"x1": 0, "x2": 0, "p1": 0.3, "p2": -0.2}
    assert [eval_or_zero(e, env) for e in U.horizontal] == \
        pytest.approx([0.3, -0.2])
    assert all(is_zero(e) for e in U.vertical)

    U = hamiltonian_field(flat_cot, parse("x1"))
    assert all(e == ZERO for e in U.horizontal)
    assert [str(e) for e in U.vertical] == ["-1", "0"]


def test_hamiltonian_field_reduces_to_canonical_equations(cot2, rng):
    # In the coordinate frame the connection terms cancel for symmetric
    # models: xdot = dF/dp, pdot = -dF/dx.
    from linconn.expr import diff

    m = symmetric_model(cot2, rng)
    F = random_polynomial(cot2.coords, rng)
    U = hamiltonian_field(m, F)
    names = cot2.coords
    for _ in range(25):
        env = {c: float(rng.uniform(-1, 1)) for c in names}
        for i in range(2):
            xdot = eval_or_zero(U.horizontal[i], env)
            assert xdot == pytest.approx(
                eval_or_zero(diff(F, f"p{i+1}"), env), abs=1e-10)
        for j in range(2):
            # pdot_j = -G(i,j) X^i + eta_j
            pdot = -sum(evaluate(m.gamma[j][i], env) *
                        eval_or_zero(U.horizontal[i], env) for i in range(2))
            pdot += eval_or_zero(U.vertical[j], env)
            assert pdot == pytest.approx(-eval_or_zero(diff(F, f"x{j+1}"), env),
                                         abs=1e-10)


def test_asymmetric_warns(cot2):
    m = lower_indexed(cot2, [["0", "p1"], ["0", "0"]])
    with pytest.warns(AsymmetricConnectionWarning):
        hamiltonian_field(m, parse("p1^2"))
    with pytest.warns(AsymmetricConnectionWarning):
        poisson(m, parse("x1"), parse("p1"))


# ---------------------------------------------------------------------------
# Poisson bracket
# ---------------------------------------------------------------------------

def test_poisson_coordinate_pair(flat_cot, cot2, rng):
    assert str(poisson(flat_cot, parse("x1"), parse("p1"))) == "1"
    m = symmetric_model(cot2, rng)
    assert str(poisson(m, parse("x1"), parse("p1"))) == "1"


def test_poisson_antisymmetry_diagonal(cot2, rng):
    m = symmetric_model(cot2, rng)
    f = random_polynomial(cot2.coords, rng)
    assert simplify(poisson(m, f, f)) == ZERO


def test_poisson_matches_canonical_bracket(cot2, rng):
    m = symmetric_model(cot2, rng)
    names = cot2.coords
    for _ in range(6):
        f = random_polynomial(names, rng)
        g = random_polynomial(names, rng)
        residual = simplify(poisson(m, f, g) - canonical_poisson(cot2, f, g))
        for _ in range(20):
            env = {c: float(rng.uniform(-1, 1)) for c in names}
            assert eval_or_zero(residual, env) == pytest.approx(0.0, abs=1e-9)


def test_poisson_leibniz(cot2, rng):
    m = symmetric_model(cot2, rng)
    names = cot2.coords
    f = random_polynomial(names, rng)
    g = random_polynomial(names, rng)
    h = random_polynomial(names, rng)
    lhs = poisson(m, f, simplify(g * h))
    rhs = simplify(poisson(m, f, g) * h + g * poisson(m, f, h))
    for _ in range(30):
        env = {c: float(rng.uniform(-1, 1)) for c in names}
        assert eval_or_zero(lhs, env) == pytest.approx(
            eval_or_zero(rhs, env), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Integrable systems
# ---------------------------------------------------------------------------

def test_integrable_connection_momenta(cot2):
    ham = HamiltonianModel(bundle=cot2, H=parse("(p1^2+p2^2)/2"),
                           first_integrals=(parse("p1"), parse("p2")))
    m = integrable_connection(ham)
    assert all(e == ZERO for row in m.gamma for e in row)


def test_integrable_connection_1d_potential():
    b = BundleModel("cotangent", ("x1",), ("p1",))
    ham = HamiltonianModel(bundle=b, H=parse("p1^2/2 + x1^2/2"),
                           first_integrals=(parse("p1^2/2 + x1^2/2"),))
    m = integrable_connection(ham)
    assert to_string(m.gamma[0][0]) == "x1/p1"
    assert m.excluded and to_string(m.excluded[0]) == "p1"
    # The defining relation collapses symbolically.
    assert all(e == ZERO for e in dh(m, ham.H))


def test_integrable_connection_defining_residual_on_samples(cot2, rng):
    ham = HamiltonianModel(
        bundle=cot2,
        H=parse("(p1^2 + p2^2)/2 + x1*x2"),
        first_integrals=(parse("p1^2/2 + x1*x2"), parse("p2^2/2")))
    m = integrable_connection(ham)
    pts = sample_points(m, 100, seed=51, box={"p1": (0.5, 2.0),
                                              "p2": (0.5, 2.0)})
    comps = {}
    for k, f in enumerate(ham.first_integrals, start=1):
        for i, e in enumerate(dh(m, f), start=1):
            if e != ZERO:
                comps[f"dh[{k},{i}]"] = e
    from linconn.geometry import evaluate_components

    if comps:
        max_res, _, _ = evaluate_components(m, comps, pts)
        assert max_res <= 1e-9


def test_transversality_failure(cot2):
    ham = HamiltonianModel(bundle=cot2, H=parse("x1"),
                           first_integrals=(parse("x1"), parse("x2")))
    with pytest.raises(TransversalityError):
        integrable_connection(ham)


def test_integrable_report_flags_non_first_integrals(cot2):
    # x-dependent metric with momenta as the claimed integrals: the
    # connection exists (Gamma = 0) but the integrals fail against H.
    ham = HamiltonianModel(
        bundle=cot2,
        H=parse("(1 + x1^2)*p1^2/2 + p2^2/2"),
        first_integrals=(parse("p1"), parse("p2")))
    m = integrable_connection(ham)
    assert all(e == ZERO for row in m.gamma for e in row)
    pts = sample_points(m, 40, seed=52)
    report = integrable_report(ham, m, pts, 1e-9)
    assert not report.passed
    by_name = {s.name: s for s in report.subreports}
    assert not by_name["first_integrals_of_H"].passed
    assert by_name["involution"].passed


def test_non_involutive_family_gives_torsion(cot2):
    # If the family is not in involution the induced connection is not
    # symmetric: the contrapositive of the Lagrangian-distribution
    # property, checked through the torsion form.
    ham = HamiltonianModel(
        bundle=cot2, H=parse("(p1^2+p2^2)/2"),
        first_integrals=(parse("p1 + x2*p2"), parse("p2")))
    involution = canonical_poisson(cot2, *ham.first_integrals)
    assert simplify(involution) != ZERO
    m = integrable_connection(ham)
    sigma = torsion_form(m)
    env = {"x1": 0.3, "x2": 0.7, "p1": 0.9, "p2": 1.1}
    values = [abs(eval_or_zero(e, env)) for _, e in sigma.items()]
    assert max(values) > 1e-6


# ---------------------------------------------------------------------------
# Hamilton-Jacobi verification
# ---------------------------------------------------------------------------

def test_hj_constant_covector(cot2):
    ham = HamiltonianModel(bundle=cot2, H=parse("(p1^2+p2^2)/2"),
                           first_integrals=(parse("p1"), parse("p2")))
    m = integrable_connection(ham)
    pts = sample_points(m, 50, seed=53)
    alpha = OneFormOnM((parse("0.3"), parse("0.7")))
    report = hj_verify(ham, alpha, pts, 1e-10, connection=m)
    assert report.passed
    assert [s.name for s in report.subreports] == \
        ["closedness", "level", "integral_section"]


def test_hj_energy_shell():
    b = BundleModel("cotangent", ("x1",), ("p1",))
    ham = HamiltonianModel(bundle=b, H=parse("p1^2/2 + x1^2/2"))
    alpha = OneFormOnM((parse("sqrt(1 - x1^2)"),))
    helper = ConnectionModel(b, [[ZERO]])
    pts = sample_points(helper, 60, seed=54, box={"x1": (-0.9, 0.9)})
    report = hj_verify(ham, alpha, pts, 1e-9)
    assert report.passed
    assert [s.name for s in report.subreports] == ["closedness", "level"]


def test_hj_level_failure():
    b = BundleModel("cotangent", ("x1",), ("p1",))
    ham = HamiltonianModel(bundle=b, H=parse("p1^2/2"))
    alpha = OneFormOnM((parse("x1"),))
    helper = ConnectionModel(b, [[ZERO]])
    pts = sample_points(helper, 40, seed=55)
    report = hj_verify(ham, alpha, pts, 1e-9)
    assert not report.passed
    by_name = {s.name: s for s in report.subreports}
    assert not by_name["level"].passed


def test_hj_rejects_fiber_dependent_alpha(cot2):
    ham = HamiltonianModel(bundle=cot2, H=parse("p1"))
    with pytest.raises(ModelError):
        hj_verify(ham, OneFormOnM((parse("p1"), parse("0"))), [], 1e-9)


# ---------------------------------------------------------------------------
# Geodesic Hamiltonians
# ---------------------------------------------------------------------------

def test_geodesic_model_identity_metric():
    ham = geodesic_model([[parse("1"), parse("0")], [parse("0"), parse("1")]])
    env = {"x1": 0, "x2": 0, "p1": 0.6, "p2": -0.8}
    assert evaluate(ham.H, env) == pytest.approx(0.5)


def test_geodesic_model_constant_metric_scenario(rng):
    ham = geodesic_model([[parse("2"), parse("1")], [parse("1"), parse("1")]])
    env = {"x1": 0, "x2": 0, "p1": 0.5, "p2": 0.25}
    expected = 0.5 * (2 * 0.25 + 2 * 0.5 * 0.25 + 0.0625)
    assert evaluate(ham.H, env) == pytest.approx(expected)
    ham = HamiltonianModel(bundle=ham.bundle, H=ham.H,
                           first_integrals=(parse("p1"), parse("p2")))
    m = integrable_connection(ham)
    assert all(e == ZERO for row in m.gamma for e in row)
    pts = sample_points(m, 60, seed=56)
    report = integrable_report(ham, m, pts, 1e-10)
    assert report.passed
    alpha = OneFormOnM((parse("0.3"), parse("0.7")))
    assert hj_verify(ham, alpha, pts, 1e-10, connection=m).passed


def test_geodesic_model_rejects_asymmetric():
    with pytest.raises(ModelError):
        geodesic_model([[parse("1"), parse("x1")], [parse("0"), parse("1")]])


def test_geodesic_x_dependent_with_momenta_fails_first_integral_check():
    ham = geodesic_model([[parse("1 + x1^2"), parse("0")],
                          [parse("0"), parse("1")]])
    ham = HamiltonianModel(bundle=ham.bundle, H=ham.H,
                           first_integrals=(parse("p1"), parse("p2")))
    m = integrable_connection(ham)
    pts = sample_points(m, 40, seed=57)
    report = integrable_report(ham, m, pts, 1e-9)
    assert not report.passed


# ---------------------------------------------------------------------------
# Cyclic curvature identity
# ---------------------------------------------------------------------------

def test_cyclic_curvature_symmetric(cot2, rng):
    m = symmetric_model(cot2, rng)
    pts = sample_points(m, 80, seed=58)
    report = cyclic_curvature_check(m, pts, 1e-8)
    assert report.passed

    b3 = BundleModel("cotangent", ("x1", "x2", "x3"), ("p1", "p2", "p3"))
    names = b3.coords
    entries = {}
    for i in range(3):
        for j in range(i, 3):
            entries[(i, j)] = entries[(j, i)] = random_polynomial(
                names, rng, degree=2, terms=2)
    gamma = [[entries[(i, j)] for i in range(3)] for j in range(3)]
    m3 = ConnectionModel(b3, gamma)
    pts = sample_points(m3, 60, seed=59)
    assert cyclic_curvature_check(m3, pts, 1e-8).passed
