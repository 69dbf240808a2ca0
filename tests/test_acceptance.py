"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the measured
figure next to its tolerance. Run with `pytest tests/test_acceptance.py -v -s`
to see the lines for passing criteria too.
"""

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from linconn.affine import (
    affine_covariant_derivative, check_affine_structure, homogenize,
)
from linconn.cotangent import (
    HamiltonianModel, OneFormOnM, canonical_poisson, cyclic_curvature_check,
    dh, geodesic_model, hj_verify, integrable_connection, poisson,
)
from linconn.expr import (
    Add, Call, Const, Mul, Neg, Pow, Sub, Var, ZERO, ONE,
    compile_fn, diff, evaluate, parse, random_polynomial, simplify, to_string,
)
from linconn.geometry import (
    VectorFieldOnE, axioms_check, bianchi_check, check_homogeneous,
    evaluate_components, hh_curvature, hh_curvature_commutator,
    tension, tension_identities_check, vh_curvature, curvature,
)
from linconn.model import (
    BundleModel, ConnectionModel, PointE, sample_points,
)
from linconn.sode import (
    SodeModel, decoupling_check, homogeneous_sode, jacobi_endomorphism,
    linearizability_report, nonautonomous_connection, sode_connection,
)
from linconn.transport import (
    CurveSpec, holonomy_probe, parallel_transport, transport_oracle,
)

REPO = Path(__file__).resolve().parents[1]


def verdict(number: int, name: str, ok: bool, detail: str):
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {flag} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def eval_or_zero(e, env):
    return 0.0 if e == ZERO else evaluate(e, env)


# --- shared test models -----------------------------------------------------

def model_flat():
    b = BundleModel("vector", ("x1", "x2"), ("u1", "u2"))
    return ConnectionModel(b, [[ZERO, ZERO], [ZERO, ZERO]])


def model_linear():
    b = BundleModel("vector", ("x1",), ("u1",))
    return ConnectionModel(b, [[parse("x1*u1")]])


def model_quadratic():
    b = BundleModel("vector", ("x1",), ("u1",))
    return ConnectionModel(b, [[parse("u1^2")]])


def model_m4():
    b = BundleModel("vector", ("x1", "x2"), ("u1", "u2"))
    return ConnectionModel(b, [[parse("u2^2"), parse("u1*u2")],
                               [parse("x2*u1"), parse("0")]])


TEST_MODELS = (model_flat, model_linear, model_quadratic, model_m4)


# ---------------------------------------------------------------------------
# 1. Symbolic differentiation against central finite differences
# ---------------------------------------------------------------------------

_VARS = ("x1", "x2", "u1", "u2")


def _random_expression(rng, depth):
    """Bounded random polynomial/trig expression. Trigonometric arguments
    are damped so third derivatives stay small enough for the central
    difference to resolve the stated tolerance at double precision."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.35:
            return Const(round(float(rng.uniform(-1.5, 1.5)), 3))
        return Var(str(rng.choice(_VARS)))
    op = rng.choice(["add", "sub", "mul", "neg", "sin", "cos", "square"])
    if op in ("add", "sub", "mul"):
        a = _random_expression(rng, depth - 1)
        b = _random_expression(rng, depth - 1)
        return {"add": Add, "sub": Sub, "mul": Mul}[op](a, b)
    child = _random_expression(rng, depth - 1)
    if op == "neg":
        return Neg(child)
    if op == "square":
        return Pow(child, Const(2.0))
    return Call(op, Mul(Const(0.25), child))


def test_criterion_01_symbolic_diff_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    for _ in range(200):
        e = _random_expression(rng, depth=6)
        fn = compile_fn(e, _VARS)
        derivatives = {v: compile_fn(diff(e, v), _VARS) for v in _VARS}
        points = rng.uniform(-2.0, 2.0, size=(100, len(_VARS)))
        for row in points:
            for vi, v in enumerate(_VARS):
                h = 1e-6 * (1.0 + abs(row[vi]))
                up = row.copy(); up[vi] += h
                dn = row.copy(); dn[vi] -= h
                fd = (fn(up) - fn(dn)) / (2.0 * h)
                exact = derivatives[v](row)
                err = abs(fd - exact) / max(1.0, abs(exact))
                worst = max(worst, err)
                checked += 1
    verdict(1, "symbolic-diff-oracle", worst <= 1e-6,
            f"max relative mismatch {worst:.3e} over {checked} comparisons, "
            f"tol 1e-6")


# ---------------------------------------------------------------------------
# 2. Covariant-derivative axioms on the four test models
# ---------------------------------------------------------------------------

def test_criterion_02_covariant_derivative_axioms():
    worst = 0.0
    for build in TEST_MODELS:
        m = build()
        pts = sample_points(m, 100, seed=102)
        report = axioms_check(m, pts, 1e-9, seed=102)
        worst = max(worst, report.max_residual)
    verdict(2, "covariant-derivative-axioms", worst <= 1e-9,
            f"max residual {worst:.3e} across 4 models, tol 1e-9")


# ---------------------------------------------------------------------------
# 3. Homogeneity iff vanishing tension
# ---------------------------------------------------------------------------

def test_criterion_03_homogeneity_tension():
    affine_b1 = BundleModel("affine", ("x1",), ("y1",))
    affine_b2 = BundleModel("affine", ("x1", "x2"), ("y1", "y2"))
    affine_models = [
        ConnectionModel(affine_b1, [[parse("y1^2")]]),
        ConnectionModel(affine_b1, [[parse("y1^3")]]),
        ConnectionModel(affine_b1, [[parse("sin(x1) + x1^2*y1")]]),
        ConnectionModel(affine_b2, [[parse("y1^2 + x2"), parse("y1*y2")],
                                    [parse("sin(x1) + y2^3"), parse("x1*y1")]]),
        nonautonomous_connection(SodeModel(
            False, ("t", "x1"), ("v1",), (parse("-x1 - t*v1^2"),))),
    ]
    worst = 0.0
    for m in affine_models:
        hom = homogenize(m)
        z0 = hom.bundle.fiber_coords[0]
        pts = sample_points(hom, 100, seed=103, box={z0: (0.5, 2.0)})
        report = check_homogeneous(hom, pts, 1e-10)
        worst = max(worst, report.max_residual)
        assert report.passed

    quad = model_quadratic()
    pts = sample_points(quad, 50, seed=103)
    quad_report = check_homogeneous(quad, pts, 1e-10)
    t_val = evaluate(tension(quad)[0, 0], {"x1": 0.0, "u1": 1.0})
    ok = (worst <= 1e-10 and not quad_report.passed
          and abs(t_val - (-1.0)) <= 1e-12)
    verdict(3, "homogeneity-iff-tension", ok,
            f"homogenized tension max {worst:.3e} (tol 1e-10); quadratic "
            f"tension at u1=1 is {t_val} (expected -1 within 1e-12)")


# ---------------------------------------------------------------------------
# 4. Two independent routes to the HH curvature block
# ---------------------------------------------------------------------------

def test_criterion_04_curvature_two_path():
    m = model_m4()
    direct = hh_curvature(m)
    commutator = hh_curvature_commutator(m)
    comps = {}
    for idx, e in direct.items():
        delta = simplify(e - commutator[idx])
        if delta != ZERO:
            comps[str(idx)] = delta
    pts = sample_points(m, 100, seed=104)
    worst = 0.0
    if comps:
        worst, _, _ = evaluate_components(m, comps, pts)
    verdict(4, "curvature-two-path", worst <= 1e-9,
            f"max gap {worst:.3e} at 100 samples, tol 1e-9")


# ---------------------------------------------------------------------------
# 5. Symmetry of the VH curvature block
# ---------------------------------------------------------------------------

def test_criterion_05_vh_symmetry():
    worst = 0.0
    for build in TEST_MODELS:
        m = build()
        theta = vh_curvature(m)
        comps = {}
        k, n = m.k, m.n
        for C in range(k):
            for i in range(n):
                for A in range(k):
                    for B in range(A + 1, k):
                        delta = simplify(theta[C, i, A, B] - theta[C, i, B, A])
                        if delta != ZERO:
                            comps[f"{C},{i},{A},{B}"] = delta
        if comps:
            pts = sample_points(m, 100, seed=105)
            local, _, _ = evaluate_components(m, comps, pts)
            worst = max(worst, local)
    verdict(5, "vh-block-symmetry", worst <= 1e-12,
            f"max asymmetry {worst:.3e} across 4 models, tol 1e-12")


# ---------------------------------------------------------------------------
# 6. Bianchi identities on the 2x2 nonlinear model
# ---------------------------------------------------------------------------

def test_criterion_06_bianchi():
    m = model_m4()
    pts = sample_points(m, 100, seed=106)
    report = bianchi_check(m, pts, 1e-8)
    residuals = ", ".join(f"{s.name}={s.max_residual:.2e}"
                          for s in report.subreports)
    verdict(6, "bianchi-identities", report.passed,
            f"{residuals}, tol 1e-8")


# ---------------------------------------------------------------------------
# 7. Tension identities
# ---------------------------------------------------------------------------

def test_criterion_07_tension_identities():
    worst = 0.0
    for build in (model_quadratic, model_m4):
        m = build()
        pts = sample_points(m, 100, seed=107)
        report = tension_identities_check(m, pts, 1e-8)
        worst = max(worst, report.max_residual)
        assert report.passed
    verdict(7, "tension-identities", worst <= 1e-8,
            f"max residual {worst:.3e} on quadratic and 2x2 models, tol 1e-8")


# ---------------------------------------------------------------------------
# 8. Linearized transport against the fiber-derivative oracle
# ---------------------------------------------------------------------------

def test_criterion_08_transport_vs_oracle():
    cases = [
        (model_quadratic(), (ONE,), PointE((0.0,), (1.0,)), (1.0,)),
        (model_m4(), (ONE, parse("0.5")), PointE((0.0, 0.0), (1.0, 1.0)),
         (1.0, 0.5)),
    ]
    worst_fwd = 0.0
    worst_cen = 0.0
    for m, X, p0, b0 in cases:
        spec = CurveSpec(start=p0, t_span=0.5, step=1e-3, field=X)
        method = parallel_transport(m, spec, b0).final_fiber
        forward = transport_oracle(m, X, p0, b0, 0.5, 1e-3, fd_eps=1e-5)
        central = transport_oracle(m, X, p0, b0, 0.5, 1e-3, fd_eps=1e-5,
                                   central=True)
        worst_fwd = max(worst_fwd, max(
            abs(a - b) / max(1.0, abs(b)) for a, b in zip(method, forward)))
        worst_cen = max(worst_cen, max(
            abs(a - b) / max(1.0, abs(b)) for a, b in zip(method, central)))
    ok = worst_fwd <= 1e-4 and worst_cen <= 1e-6
    verdict(8, "transport-vs-fiber-derivative", ok,
            f"forward gap {worst_fwd:.3e} (tol 1e-4), central gap "
            f"{worst_cen:.3e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 9. Closed-form transport on the linear model
# ---------------------------------------------------------------------------

def test_criterion_09_closed_form_transport():
    m = model_linear()
    spec = CurveSpec(start=PointE((0.0,), (1.0,)), t_span=1.0, step=1e-3,
                     field=(ONE,))
    out = parallel_transport(m, spec, (1.0,)).final_fiber[0]
    expected = math.exp(-0.5)
    err = abs(out - expected)
    verdict(9, "closed-form-transport", err <= 1e-8,
            f"|transport - exp(-1/2)| = {err:.3e}, tol 1e-8")


# ---------------------------------------------------------------------------
# 10. Holonomy probe converges to the symbolic curvature
# ---------------------------------------------------------------------------

def test_criterion_10_holonomy_convergence():
    m = model_m4()
    p0 = PointE((0.0, 0.0), (1.0, 1.0))
    env = p0.env(m.bundle)
    R = curvature(m)
    symbolic = np.array([eval_or_zero(R[A, 0, 1], env) for A in range(2)])
    eps_values = (1e-1, 1e-2, 1e-3)
    errors = []
    for eps in eps_values:
        defect = np.array(holonomy_probe(m, p0, 0, 1, eps))
        errors.append(float(np.max(np.abs(defect - symbolic))))
    orders = [math.log10(errors[i] / errors[i + 1])
              for i in range(len(errors) - 1)]
    ok = min(orders) >= 0.9
    verdict(10, "holonomy-probe-order", ok,
            f"errors {[f'{e:.2e}' for e in errors]} at eps {eps_values}, "
            f"observed orders {[f'{o:.2f}' for o in orders]}, need >= 0.9")


# ---------------------------------------------------------------------------
# 11. Affine structure
# ---------------------------------------------------------------------------

def test_criterion_11_affine_structure():
    b = BundleModel("affine", ("x1",), ("y1",))
    rng = np.random.default_rng(111)
    worst_e0 = 0.0
    worst_kappa = 0.0
    worst_restrict = 0.0
    for coeff in ("y1^2", "y1^3"):
        m = ConnectionModel(b, [[parse(coeff)]])
        pts = sample_points(m, 100, seed=111)
        names = m.bundle.coords

        # Distinguished-component parallelism for random data.
        sigma = tuple(random_polynomial(names, rng) for _ in range(2))
        U = VectorFieldOnE(
            horizontal=tuple(random_polynomial(names, rng) for _ in range(1)),
            vertical=tuple(random_polynomial(names, rng) for _ in range(1)))
        derivative = affine_covariant_derivative(m, U, sigma)
        residual = simplify(derivative[0] - U.apply(m, sigma[0]))
        if residual != ZERO:
            local, _, _ = evaluate_components(m, {"e0": residual}, pts)
            worst_e0 = max(worst_e0, local)

        # Canonical-section identity: derivative equals the vertical part.
        canonical = (ONE, parse("y1"))
        d_can = affine_covariant_derivative(m, U, canonical)
        comps = {}
        delta0 = simplify(d_can[0])
        delta1 = simplify(d_can[1] - U.vertical[0])
        if delta0 != ZERO:
            comps["kappa0"] = delta0
        if delta1 != ZERO:
            comps["kappa1"] = delta1
        if comps:
            local, _, _ = evaluate_components(m, comps, pts)
            worst_kappa = max(worst_kappa, local)

        # Homogenize-then-linearize against the direct formulas.
        report = check_affine_structure(m, pts, 1e-9, seed=111)
        sub = {s.name: s for s in report.subreports}
        worst_restrict = max(worst_restrict,
                             sub["restriction_consistency"].max_residual)
        assert sub["homogenized_is_homogeneous"].passed

    ok = (worst_e0 <= 1e-12 and worst_kappa <= 1e-12 and
          worst_restrict <= 1e-9)
    verdict(11, "affine-structure", ok,
            f"distinguished-component residual {worst_e0:.3e} (tol 1e-12), "
            f"canonical-section gap {worst_kappa:.3e} (tol 1e-12), "
            f"restriction gap {worst_restrict:.3e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 12. Second-order equation suite
# ---------------------------------------------------------------------------

def test_criterion_12_sode_suite():
    def classify(force):
        s = SodeModel(True, ("x1",), ("v1",), (parse(force),))
        pts = sample_points(sode_connection(s), 100, seed=112)
        return linearizability_report(s, pts, 1e-9)

    osc = classify("-x1")
    cubic = classify("-x1^3")
    vel3 = classify("-v1^3")
    labels_ok = (
        osc.labels["classification"] == "linear-in-all-variables"
        and cubic.labels["classification"].startswith("linear-in-velocities")
        and cubic.labels["classification"] != "linear-in-all-variables"
        and vel3.labels["classification"] == "none")

    phi_osc = jacobi_endomorphism(
        SodeModel(True, ("x1",), ("v1",), (parse("-x1"),)))[0, 0]
    phi_damp = jacobi_endomorphism(
        SodeModel(True, ("x1",), ("v1",), (parse("-x1-v1"),)))[0, 0]
    phi_ok = (phi_osc == ONE and
              evaluate(phi_damp, {"x1": 0.0, "v1": 0.0}) == 0.75)

    # Non-autonomous/homogeneous consistency.
    s = SodeModel(False, ("t", "x1"), ("v1",), (parse("-x1 - t*v1^2"),))
    left = sode_connection(homogeneous_sode(s))
    right = homogenize(nonautonomous_connection(s))
    rng = np.random.default_rng(112)
    worst = 0.0
    for _ in range(100):
        t, x = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        w0 = float(rng.uniform(0.5, 2.0))
        w1 = float(rng.uniform(-1, 1))
        lenv = dict(zip(left.bundle.coords, (t, x, w0, w1)))
        renv = dict(zip(right.bundle.coords, (t, x, w0, w1)))
        for A in range(2):
            for i in range(2):
                worst = max(worst, abs(
                    eval_or_zero(left.gamma[A][i], lenv) -
                    eval_or_zero(right.gamma[A][i], renv)))
    ok = labels_ok and phi_ok and worst <= 1e-9
    verdict(12, "sode-suite", ok,
            f"labels ({osc.labels['classification']}; "
            f"{cubic.labels['classification']}; "
            f"{vel3.labels['classification']}), jacobi values exact, "
            f"extension consistency {worst:.3e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 13. Decoupling conditions
# ---------------------------------------------------------------------------

def test_criterion_13_decoupling():
    def split_check(f1, f2):
        s = SodeModel(True, ("x1", "x2"), ("v1", "v2"),
                      (parse(f1), parse(f2)))
        pts = sample_points(sode_connection(s), 100, seed=113)
        return decoupling_check(s, ((1,), (2,)), pts, 1e-9)

    a = split_check("-x1", "-x2").labels["classification"]
    b = split_check("-x1", "-x1-x2").labels["classification"]
    c = split_check("-x2", "-x1").labels["classification"]
    ok = (a, b, c) == ("decoupled", "submersive", "coupled")
    verdict(13, "decoupling-conditions", ok,
            f"two oscillators -> {a}; triangular -> {b}; swapped -> {c}")


# ---------------------------------------------------------------------------
# 14. Cotangent suite
# ---------------------------------------------------------------------------

def test_criterion_14_cotangent_suite():
    bundle = BundleModel("cotangent", ("x1", "x2"), ("p1", "p2"))
    rng = np.random.default_rng(114)
    entries = {}
    for i in range(2):
        for j in range(i, 2):
            entries[(i, j)] = entries[(j, i)] = random_polynomial(
                bundle.coords, rng, degree=2, terms=3)
    m = ConnectionModel(bundle, [[entries[(i, j)] for i in range(2)]
                                 for j in range(2)])
    pts = sample_points(m, 100, seed=114)
    worst_bracket = 0.0
    for _ in range(20):
        f = random_polynomial(bundle.coords, rng)
        g = random_polynomial(bundle.coords, rng)
        residual = simplify(poisson(m, f, g) - canonical_poisson(bundle, f, g))
        if residual != ZERO:
            local, _, _ = evaluate_components(m, {"bracket": residual}, pts)
            worst_bracket = max(worst_bracket, local)

    coordinate_pair = poisson(m, parse("x1"), parse("p1"))
    pair_exact = coordinate_pair == ONE

    momenta = HamiltonianModel(
        bundle=bundle, H=parse("(p1^2+p2^2)/2"),
        first_integrals=(parse("p1"), parse("p2")))
    gamma_zero = all(e == ZERO for row in integrable_connection(momenta).gamma
                     for e in row)

    b1 = BundleModel("cotangent", ("x1",), ("p1",))
    potential = HamiltonianModel(
        bundle=b1, H=parse("p1^2/2 + x1^2/2"),
        first_integrals=(parse("p1^2/2 + x1^2/2"),))
    m1 = integrable_connection(potential)
    gamma_str = to_string(m1.gamma[0][0])
    dh_H = dh(m1, potential.H)
    dh_zero = all(e == ZERO for e in dh_H)

    cyclic = cyclic_curvature_check(m, pts, 1e-8)

    ok = (worst_bracket <= 1e-9 and pair_exact and gamma_zero and
          gamma_str == "x1/p1" and dh_zero and cyclic.passed)
    verdict(14, "cotangent-suite", ok,
            f"bracket gap {worst_bracket:.3e} (tol 1e-9); {{x1,p1}} = "
            f"{to_string(coordinate_pair)}; momenta coefficients zero: "
            f"{gamma_zero}; potential coefficient {gamma_str} with "
            f"horizontal differential of H structurally zero: {dh_zero}; "
            f"cyclic identity residual {cyclic.max_residual:.3e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 15. Hamilton-Jacobi verification
# ---------------------------------------------------------------------------

def test_criterion_15_hamilton_jacobi():
    # Example A: constant covector for the free Hamiltonian.
    bundle = BundleModel("cotangent", ("x1", "x2"), ("p1", "p2"))
    free = HamiltonianModel(bundle=bundle, H=parse("(p1^2+p2^2)/2"),
                            first_integrals=(parse("p1"), parse("p2")))
    m = integrable_connection(free)
    pts = sample_points(m, 100, seed=115)
    rep_a = hj_verify(free, OneFormOnM((parse("0.3"), parse("0.7"))),
                      pts, 1e-9, connection=m)

    # Example B: energy shell of the oscillator, no connection attached.
    b1 = BundleModel("cotangent", ("x1",), ("p1",))
    osc = HamiltonianModel(bundle=b1, H=parse("p1^2/2 + x1^2/2"))
    helper = ConnectionModel(b1, [[ZERO]])
    pts1 = sample_points(helper, 100, seed=115, box={"x1": (-0.9, 0.9)})
    rep_b = hj_verify(osc, OneFormOnM((parse("sqrt(1 - x1^2)"),)), pts1, 1e-9)

    # Example C: linear covector for the free particle must fail the
    # level condition.
    free1 = HamiltonianModel(bundle=b1, H=parse("p1^2/2"))
    rep_c = hj_verify(free1, OneFormOnM((parse("x1"),)), pts1, 1e-9)
    level_fails = not {s.name: s for s in rep_c.subreports}["level"].passed

    # Constant-metric geodesic scenario.
    geo = geodesic_model([[parse("2"), parse("1")], [parse("1"), parse("1")]])
    geo = HamiltonianModel(bundle=geo.bundle, H=geo.H,
                           first_integrals=(parse("p1"), parse("p2")))
    mg = integrable_connection(geo)
    geo_zero = all(e == ZERO for row in mg.gamma for e in row)
    pts2 = sample_points(mg, 100, seed=115)
    rep_d = hj_verify(geo, OneFormOnM((parse("0.3"), parse("0.7"))),
                      pts2, 1e-9, connection=mg)

    ok = (rep_a.passed and rep_b.passed and not rep_c.passed and
          level_fails and geo_zero and rep_d.passed)
    verdict(15, "hamilton-jacobi", ok,
            f"constant covector passes: {rep_a.passed}; energy shell "
            f"passes: {rep_b.passed}; non-solution fails level: "
            f"{level_fails}; geodesic coefficients zero: {geo_zero}; "
            f"separated solution verifies: {rep_d.passed}")


# ---------------------------------------------------------------------------
# 16. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_16_cli_determinism():
    from linconn.cli import run

    argv = ["check", str(REPO / "models" / "m4.lc"), "--suite", "all",
            "--samples", "100", "--seed", "7", "--tol", "1e-8", "--json"]

    def capture():
        out = io.StringIO()
        with redirect_stdout(out):
            code = run(list(argv))
        return code, out.getvalue()

    code1, raw1 = capture()
    code2, raw2 = capture()
    identical = raw1 == raw2 and code1 == code2
    document = json.loads(raw1)
    verdict(16, "cli-determinism", identical and document["schema_version"] == 1,
            f"two runs byte-identical: {raw1 == raw2}, exit codes "
            f"{code1}/{code2}, {len(raw1)} bytes")
