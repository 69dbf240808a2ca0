import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest

import linconn.cli as cli
from linconn.cli import COVERAGE, emit_json, run
from linconn.expr import _flat, _memo

REPO = Path(__file__).resolve().parents[1]
MODELS = REPO / "models"
SCHEMA = json.loads((REPO / "schema" / "report.schema.json").read_text())


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    return code, json.loads(out), out


# ---------------------------------------------------------------------------
# Exit codes and basic behavior
# ---------------------------------------------------------------------------

def test_info_verb():
    code, out, _ = run_cli("info", str(MODELS / "m4.lc"))
    assert code == 0
    assert "kind=vector" in out
    assert "Gamma[1,1] = u2^2" in out


def test_tensor_value_at_point():
    code, out, _ = run_cli("tensor", str(MODELS / "quadratic.lc"),
                           "--name", "tension", "--at", "x1=0,u1=1")
    assert code == 0
    assert "-1" in out


def test_usage_error_exit_2():
    code, _, err = run_cli("tensor", str(MODELS / "quadratic.lc"),
                           "--name", "no-such-tensor")
    assert code == 2
    assert "error" in err

    code, _, err = run_cli("info", str(MODELS / "missing-file.lc"))
    assert code == 2

    code, _, _ = run_cli("nonsense-verb")
    assert code == 2

    m4 = str(MODELS / "m4.lc")
    pair = str(MODELS / "oscillator_pair.lc")
    for argv in (("transport", m4, "--holonomy", "1"),
                 ("transport", m4, "--holonomy", "1,5"),
                 ("transport", m4, "--holonomy", "0,1"),
                 ("transport", m4, "--field", "1,0", "--fiber", "a,b"),
                 ("sode", pair, "--flow", "a,b,c,d"),
                 ("check", m4, "--tol", "nan"),
                 ("check", m4, "--tol", "inf"),
                 ("check", m4, "--tol", "-1e-8"),
                 ("transport", m4, "--field", "1,0", "--oracle",
                  "--fd-eps", "0"),
                 ("transport", m4, "--field", "1,0", "--oracle",
                  "--fd-eps", "nan"),
                 ("transport", m4, "--holonomy", "1,2", "--eps", "1e-300"),
                 ("check", m4, "--seed", "-1"),
                 ("hj", "--metric", "[1]"),
                 ("hj", "--metric", "5"),
                 *(("transport", m4, "--holonomy", "1,2", "--eps", eps,
                    "--from", "x1=0.3,x2=0.2,u1=1,u2=1")
                   for eps in ("1e-8", "1e-9", "1e-100", "1e-160", "1e200")),
                 *(("hj", "--metric", metric, "--alpha", "0")
                   for metric in ("[[true]]", "[[null]]", "[[1e400]]",
                                  "[[NaN]]", "[[[1]]]")),
                 ("transport", m4, "--field", "1,0",
                  "--from", "x1=nan,x2=0,u1=1,u2=1"),
                 ("transport", m4, "--holonomy", "1,2",
                  "--from", "x1=inf,x2=0,u1=1,u2=1"),
                 ("tensor", m4, "--name", "curvature", "--at", "u2=-inf"),
                 ("transport", m4, "--field", "1,0", "--fiber", "1,nan"),
                 ("sode", pair, "--flow", "1,0,inf,1")):
        code, out, err = run_cli(*argv, "--json")
        assert code == 2, argv
        assert out == ""
        assert err.count("error:") == 1 and "Traceback" not in err, argv

    # A bad --metric entry is named, not read as a variable named True.
    _, _, err = run_cli("hj", "--metric", "[[1,0],[0,true]]", "--alpha", "0")
    assert "got true" in err
    # A non-finite start point is blamed on its flag and coordinate, not
    # on the flow or on --eps.
    _, _, err = run_cli("transport", m4, "--holonomy", "1,2",
                        "--from", "x1=inf,x2=0,u1=1,u2=1")
    assert "--from coordinate 'x1'" in err
    _, _, err = run_cli("sode", pair, "--flow", "1,0,inf,1")
    assert "--flow needs finite numbers" in err


def test_bad_step_or_time_exit_2():
    m4 = str(MODELS / "m4.lc")
    pair = str(MODELS / "oscillator_pair.lc")
    for argv in (("transport", m4, "--field", "1,0", "--step", "nan"),
                 ("sode", pair, "--flow", "1,0,0,1", "--step", "nan"),
                 ("sode", pair, "--flow", "1,0,0,1", "--time", "inf"),
                 ("sode", pair, "--flow", "1,0,0,1", "--step", "-1"),
                 ("transport", m4, "--field", "1,0", "--time", "1e6",
                  "--step", "1e-300")):
        code, out, err = run_cli(*argv, "--json")
        assert code == 2, argv
        assert out == ""
        assert err.count("error:") == 1 and "Traceback" not in err, argv


_LONG_SUM = "u1^2" + "".join(f" + {k / 1000:g}*x1*u1" for k in range(1, 259))


@pytest.mark.parametrize("coefficient, fault", [
    ("ln(x1)*u1^2", "ln of a non-positive number in 'ln(x1)' at x1="),
    ("exp(exp(exp(40*u1)))", "domain error in exp in 'exp(exp(40*u1))' at x1="),
    ("x1^0.5*u1^2", "invalid power in 'x1^0.5' at x1="),
    ("exp(700*u1)*exp(700*u1)", "non-finite value of tension[1,1] at x1="),
    (_LONG_SUM, None),
], ids=["ln", "exp-tower", "half-power", "overflow", "259-term-sum"])
def test_domain_faults_exit_2_and_long_sums_compile(tmp_path, coefficient,
                                                     fault):
    path = tmp_path / "model.lc"
    path.write_text("[bundle]\nkind = vector\nbase = x1\nfiber = u1\n\n"
                    f"[connection]\nGamma[1,1] = {coefficient}\n")
    if fault is not None:
        code, out, err = run_cli("check", str(path), "--json")
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1 and "Traceback" not in err
        assert fault in err
        return
    for argv in (("check",), ("transport", "--field", "1")):
        code, doc, _ = run_json(argv[0], str(path), *argv[1:], "--json")
        assert code in (0, 1)
        jsonschema.validate(doc, SCHEMA)


_DEEP_SUM = "u1^2" + "".join(f" + {k / 1000:g}*x1*u1" for k in range(1, 1200))


_DEEP_CHAIN = "u1*u1" + "*x1" * 5000

_DEEP_VERBS = (
    ("info",),
    ("check", "--samples", "5"),
    ("bianchi",),
    ("transport", "--from", "x1=0.5,u1=0.5", "--field", "1", "--time", "0.1",
     "--step", "0.01"),
)


def _one_coefficient_model(tmp_path, coefficient):
    path = tmp_path / "model.lc"
    path.write_text("[bundle]\nkind = vector\nbase = x1\nfiber = u1\n\n"
                    f"[connection]\nGamma[1,1] = {coefficient}\n")
    return str(path)


@pytest.mark.parametrize("coefficient", [_DEEP_SUM, _DEEP_CHAIN],
                         ids=["sum-of-1200-terms", "product-of-depth-5000"])
def test_deep_expressions_run_every_verb(tmp_path, coefficient):
    # No expression walker recurses, so a tree's depth is no limit.
    path = _one_coefficient_model(tmp_path, coefficient)
    for verb, *rest in _DEEP_VERBS:
        code, out, err = run_cli(verb, path, *rest, "--json")
        assert code in (0, 1) and err == "", verb
        jsonschema.validate(json.loads(out), SCHEMA)


def test_parentheses_nested_beyond_the_parser_exit_2(tmp_path):
    # The recursive-descent parser nests as deep as the text does.
    path = _one_coefficient_model(tmp_path, "(" * 300 + "u1" + ")" * 300)
    code, out, err = run_cli("info", path)
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "nested too deeply at offset" in err


def test_nonfinite_literal_is_a_parse_error(tmp_path):
    path = _one_coefficient_model(tmp_path, "1e400*u1^2")
    runs = [
        ("info", path),
        ("check", str(MODELS / "quadratic.lc"), "--suite", "basic",
         "--section", "1e400", "--samples", "5"),
        ("transport", str(MODELS / "m4.lc"), "--from",
         "x1=0,x2=0,u1=1,u2=1", "--field", "1e400,0"),
    ]
    for argv in runs:
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "", argv[0]
        assert err.count("error:") == 1 and "number out of range" in err


@pytest.mark.parametrize("coefficient", [
    "(1/1e-320)*u1",        # a quotient of constants that overflows
    "1e308*u1 + 1e308*u1",  # a sum of constants that overflows
    "1e308*10*x1*u1^2",     # a product of constants that overflows
])
def test_overflowing_constant_folds_report_nonfinite_values(tmp_path,
                                                           coefficient):
    # simplify keeps a fold whose value is not finite unfolded, so the
    # sampled check names the non-finite value and the point.
    path = _one_coefficient_model(tmp_path, coefficient)
    code, out, err = run_cli("check", path, "--samples", "5", "--json")
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "non-finite value of " in err and " at x1=" in err


def test_memo_is_empty_after_each_run():
    argv = ("bianchi", str(MODELS / "m4.lc"), "--json")
    first = run_cli(*argv)
    assert not _memo and not _flat
    assert run_cli(*argv) == first
    assert not _memo and not _flat
    # A run that fails after building tensors leaves both empty too, and so
    # does one that stops inside a simplification.
    code, _, _ = run_cli("sode", str(MODELS / "oscillator.lc"), "--classify",
                         "--homogenize", "--samples", "10")
    assert code == 2 and not _memo and not _flat

    def interrupted(*args):
        raise KeyboardInterrupt

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("linconn.expr._simplify_sum", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli(*argv)
    assert not _memo and not _flat


def test_deep_nest_of_shared_subtrees_stays_fast(tmp_path):
    # Each level of sin(sin(...)) shares its argument with its derivative;
    # without a memo the work doubles per level.
    coefficient = "sin(" * 40 + "u1" + ")" * 40 + "*u1"
    path = tmp_path / "nest.lc"
    path.write_text("[bundle]\nkind = vector\nbase = x1\nfiber = u1\n\n"
                    f"[connection]\nGamma[1,1] = {coefficient}\n")
    start = time.monotonic()
    code, out, err = run_cli("check", str(path), "--samples", "5")
    assert time.monotonic() - start < 10
    assert code == 1 and "status: FAIL" in out and err == ""


def test_sode_classify_and_split_draw_one_sample_set(monkeypatch):
    draws = []
    sample_points = cli.sample_points

    def counting(*args, **kwargs):
        draws.append(args[1])
        return sample_points(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_points", counting)
    code, out, _ = run_cli("sode", str(MODELS / "oscillator_pair.lc"),
                           "--classify", "--split", "1|2", "--json",
                           "--samples", "50")
    assert code == 0
    assert draws == [50]
    assert [r["name"] for r in json.loads(out)["results"]] == \
        ["linearizability", "decoupling"]


def test_failing_verb_prints_no_partial_report():
    code, out, err = run_cli("sode", str(MODELS / "oscillator.lc"),
                             "--classify", "--homogenize", "--samples", "10")
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1


@pytest.mark.parametrize("model, suite", [
    ("m4", "affine"), ("m4", "cotangent"), ("affine_quadratic", "flat"),
    ("affine_quadratic", "axioms"), ("jet_oscillator", "bianchi"),
    ("jet_oscillator", "tension-identities"),
    ("affine_quadratic", "cotangent"),
])
def test_wrong_kind_suite_exit_2(model, suite):
    for json_flag in ((), ("--json",)):
        code, out, err = run_cli("check", str(MODELS / f"{model}.lc"),
                                 "--suite", suite, "--samples", "10",
                                 *json_flag)
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1 and "Traceback" not in err


def test_transport_reports_excluded_crossing():
    argv = ("transport", str(MODELS / "potential_1d.lc"), "--field", "1",
            "--from", "x1=0,p1=1", "--time", "2", "--json")
    code, doc, _ = run_json(*argv)
    assert code == 0
    payload = doc["results"][0]
    assert payload["status"].startswith("excluded:")
    assert payload["flow_status"] == payload["status"]
    assert abs(payload["transported"][0]) < 1e3
    code, out, err = run_cli(*argv, "--oracle")
    assert code == 2
    assert "oracle flow stopped early: excluded" in err


def test_model_digest_describes_the_analysed_text():
    path = MODELS / "m4.lc"
    _, doc, _ = run_json("info", str(path), "--json")
    expected = hashlib.sha256(path.read_text(encoding="utf-8")
                              .encode("utf-8")).hexdigest()
    assert doc["model_digest"] == expected


def test_check_failure_exit_1():
    code, out, _ = run_cli("check", str(MODELS / "quadratic.lc"),
                           "--suite", "homogeneous", "--samples", "20")
    assert code == 1
    assert "FAIL" in out


def test_check_pass_exit_0():
    code, out, _ = run_cli("check", str(MODELS / "linear.lc"),
                           "--suite", "homogeneous", "--samples", "20")
    assert code == 0
    assert "PASS" in out


def test_bianchi_verb():
    code, _, _ = run_cli("bianchi", str(MODELS / "m4.lc"),
                         "--samples", "50", "--seed", "3")
    assert code == 0


def test_transport_verb_with_oracle():
    code, out, _ = run_cli("transport", str(MODELS / "linear.lc"),
                           "--field", "1", "--from", "x1=0,u1=1",
                           "--time", "1", "--step", "1e-3", "--oracle")
    assert code == 0
    assert "relative gap" in out


def test_transport_holonomy():
    code, out, _ = run_cli("transport", str(MODELS / "m4.lc"),
                           "--holonomy", "1,2",
                           "--from", "x1=0,x2=0,u1=1,u2=1", "--eps", "1e-2")
    assert code == 0
    assert "probe" in out


def test_sode_verbs():
    code, out, _ = run_cli("sode", str(MODELS / "oscillator.lc"),
                           "--classify", "--samples", "30")
    assert code == 0
    assert "linear-in-all-variables" in out

    code, out, _ = run_cli("sode", str(MODELS / "oscillator_pair.lc"),
                           "--split", "1|2", "--samples", "20")
    assert code == 0
    assert "decoupled" in out

    code, out, _ = run_cli("sode", str(MODELS / "jet_oscillator.lc"),
                           "--homogenize")
    assert code == 0
    assert "w0" in out

    code, out, _ = run_cli("sode", str(MODELS / "oscillator.lc"),
                           "--flow", "1,0", "--time", "1", "--step", "1e-3")
    assert code == 0

    code, out, _ = run_cli("sode", str(MODELS / "oscillator.lc"),
                           "--jacobi")
    assert code == 0
    assert "jacobi" in out


def test_hj_verb_model_file():
    code, out, _ = run_cli("hj", str(MODELS / "geodesic_const.lc"),
                           "--alpha", "0.3,0.7", "--samples", "30")
    assert code == 0

    # The energy-shell covector solves alpha' = -Gamma(x, alpha(x)) for
    # the coefficient x1/p1, so all three subchecks pass.
    code, out, _ = run_cli("hj", str(MODELS / "potential_1d.lc"),
                           "--alpha", "sqrt(1 - x1^2)", "--samples", "10")
    assert code == 0


def test_hj_metric_scenario():
    code, doc, _ = run_json("hj", "--metric", "[[2,1],[1,1]]",
                            "--integrals", "p1,p2",
                            "--alpha", "0.3,0.7", "--samples", "30", "--json")
    assert code == 0
    assert doc["status"] == "pass"
    names = [r["name"] for r in doc["results"]]
    assert "integrable_structure" in names and "hamilton_jacobi" in names


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------

def test_json_determinism_byte_identical():
    argv = ("check", str(MODELS / "m4.lc"), "--suite", "all",
            "--samples", "100", "--seed", "7", "--tol", "1e-8", "--json")
    code1, _, raw1 = run_json(*argv)
    code2, _, raw2 = run_json(*argv)
    assert raw1 == raw2
    assert code1 == code2 == 1  # the model is not homogeneous or flat


def test_json_schema_valid():
    for argv in [
        ("check", str(MODELS / "m4.lc"), "--suite", "bianchi",
         "--samples", "20", "--json"),
        ("tensor", str(MODELS / "m4.lc"), "--name", "curvature",
         "--at", "x1=0,x2=0,u1=1,u2=1", "--json"),
        ("sode", str(MODELS / "oscillator.lc"), "--classify",
         "--samples", "10", "--json"),
        ("info", str(MODELS / "geodesic_const.lc"), "--json"),
    ]:
        code, doc, _ = run_json(*argv)
        jsonschema.validate(doc, SCHEMA)
        assert doc["schema_version"] == 1
        assert doc["model_digest"]
        assert doc["command"] == list(argv)


def test_json_status_fail_marks_exit_1():
    code, doc, _ = run_json("check", str(MODELS / "quadratic.lc"),
                            "--suite", "homogeneous", "--samples", "10",
                            "--json")
    assert code == 1
    assert doc["status"] == "fail"


def test_float_formatting_17_digits():
    payload = emit_json({"value": 1.0 / 3.0}).decode()
    assert "0.33333333333333331" in payload


def test_tensor_json_has_frame_labels():
    _, doc, _ = run_json("tensor", str(MODELS / "m4.lc"), "--name",
                         "linear-coeffs", "--json")
    result = doc["results"][0]
    assert result["frame"] == {"horizontal": "H_i", "vertical": "V_A"}
    assert all("index" in entry for entry in result["entries"])


# ---------------------------------------------------------------------------
# Coverage: every public operation is reachable from a CLI verb
# ---------------------------------------------------------------------------

def test_every_public_operation_mapped_to_a_verb():
    from linconn import affine, cotangent, geometry, sode, transport

    expected = set()
    for module, names in [
        (geometry, ["h_apply", "linear_coeffs", "covariant_derivative",
                    "tension", "curvature", "vh_curvature", "hh_curvature",
                    "hh_curvature_commutator", "check_homogeneous",
                    "check_basic", "flatness_check", "axioms_check",
                    "bianchi_check", "tension_identities_check",
                    "integral_section_residual",
                    "pullback_connection_coeffs"]),
        (affine, ["homogenize", "affine_linearization",
                  "affine_covariant_derivative", "check_homogenized",
                  "check_affine_structure"]),
        (sode, ["sode_connection", "jacobi_endomorphism",
                "nonautonomous_connection", "homogeneous_sode",
                "linearizability_report", "decoupling_check"]),
        (cotangent, ["torsion_form", "dh", "dv", "hamiltonian_field",
                     "poisson", "canonical_poisson", "integrable_connection",
                     "integrable_report", "hj_verify", "geodesic_model",
                     "cyclic_curvature_check", "cotangent_checks"]),
        (transport, ["horizontal_flow", "parallel_transport",
                     "transport_oracle", "relative_gap", "holonomy_probe",
                     "holonomy_curvature", "sode_flow"]),
    ]:
        for name in names:
            assert hasattr(module, name), f"missing operation {name}"
            expected.add(f"{module.__name__.split('.')[-1]}.{name}")
    assert expected == set(COVERAGE)
    valid_verbs = {"tensor", "check", "transport", "sode", "hj", "bianchi",
                   "info"}
    assert set(COVERAGE.values()) <= valid_verbs


def test_mapped_verbs_actually_invoke_operations(monkeypatch):
    # Spot-check a few mappings by intercepting the operations.
    import linconn.cli as cli

    calls = []
    real = cli._TENSOR_BUILDERS["tension"]

    def spy(*a, **k):
        calls.append("tension")
        return real(*a, **k)

    monkeypatch.setitem(cli._TENSOR_BUILDERS, "tension", spy)
    run_cli("tensor", str(MODELS / "quadratic.lc"), "--name", "tension")
    assert "tension" in calls

    calls.clear()
    real_probe = cli._transport.holonomy_probe

    def spy_probe(*a, **k):
        calls.append("holonomy_probe")
        return real_probe(*a, **k)

    monkeypatch.setattr(cli._transport, "holonomy_probe", spy_probe)
    run_cli("transport", str(MODELS / "m4.lc"), "--holonomy", "1,2",
            "--from", "x1=0,x2=0,u1=1,u2=1", "--eps", "1e-2")
    assert "holonomy_probe" in calls


# ---------------------------------------------------------------------------
# Check suites across model kinds
# ---------------------------------------------------------------------------

def test_check_all_on_affine_model():
    code, doc, _ = run_json("check", str(MODELS / "affine_quadratic.lc"),
                            "--suite", "all", "--samples", "40", "--json")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["results"][0]["name"] == "affine_structure"


def test_check_cotangent_suite():
    code, doc, _ = run_json("check", str(MODELS / "potential_1d.lc"),
                            "--suite", "cotangent", "--samples", "40",
                            "--json")
    assert code == 0
    names = [r["name"] for r in doc["results"]]
    assert "poisson_vs_canonical" in names
    assert "integrable_structure" in names


# The homogeneous, flat and tension-identity suites all fault on this model,
# so the first error is the one a run that evaluates each residual set on
# its own, in suite order, meets first. Pinned at the commit before sets
# of different suites were evaluated together.
FAULTING = ("[bundle]\nkind = vector\nbase = x1\nfiber = u1\n\n"
            "[connection]\nGamma[1,1] = 1e308*u1^2 + 1e308*x1\n")


@pytest.mark.parametrize("argv, line", [
    (("check", "--json"), "error: non-finite value of tension[1,1] at "
                          "x1=-0.918053, u1=-0.966945"),
    (("bianchi", "--json"), "error: non-finite value of "
                            "vertical_of_tension[1,1;1] at x1=0.273923, "
                            "u1=-0.460427"),
    (("check", "--suite", "flat"), "error: non-finite value of "
                                   "vh_curvature[1,1,1,1] at x1=0.273923, "
                                   "u1=-0.460427"),
], ids=["check", "bianchi", "flat"])
def test_first_error_is_that_of_a_sequential_run(tmp_path, argv, line):
    path = tmp_path / "faulting.lc"
    path.write_text(FAULTING)
    code, out, err = run_cli(argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.splitlines() == [line]


NONLINEAR_SODE = ("[bundle]\nkind = tangent\nbase = x1, x2\n"
                  "fiber = v1, v2\n\n[sode]\nf1 = -x1*v1^2\n"
                  "f2 = -x2 + v1*v2\n")


@pytest.mark.parametrize("argv, sets", [
    (("check", "m4.lc", "--suite", "all"), 1),
    (("check", "potential_1d.lc", "--suite", "all"), 1),
    # The homogenized suite samples a box of its own.
    (("check", "affine_quadratic.lc", "--suite", "all"), 2),
    (("sode", "nonlinear_sode.lc", "--classify", "--split", "1|2"), 1),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_one_evaluation_per_distinct_sample_set(monkeypatch, tmp_path, argv,
                                                sets):
    import linconn.geometry as geometry

    (tmp_path / "nonlinear_sode.lc").write_text(NONLINEAR_SODE)
    calls = []
    evaluate = geometry.evaluate_components

    def counting(m, comps, samples):
        calls.append(samples.tobytes())
        return evaluate(m, comps, samples)

    monkeypatch.setattr(geometry, "evaluate_components", counting)
    path = MODELS / argv[1] if (MODELS / argv[1]).exists() else \
        tmp_path / argv[1]
    code, _, err = run_cli(argv[0], str(path), *argv[2:], "--samples", "50")
    assert code in (0, 1), err
    assert len(calls) == len(set(calls)) == sets


@pytest.mark.parametrize("argv", [("check", "m4"), ("hj", "geodesic_const"),
                                  ("sode", "oscillator_pair", "--classify")],
                         ids=lambda v: v[0])
def test_samples_beyond_the_limit_exit_2_without_drawing(argv):
    import tracemalloc

    tracemalloc.start()
    start = time.monotonic()
    try:
        code, out, err = run_cli(argv[0], str(MODELS / f"{argv[1]}.lc"),
                                 *argv[2:], "--samples", "1000000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 1
    assert peak < 10 * 2 ** 20
    assert (code, out) == (2, "")
    assert err == "error: count must be at most 2000000, got 1000000000000\n"


def _library_results(reports):
    return [json.loads(emit_json(r.to_dict())) for r in reports]


def _cli_results_without_type(*argv):
    code, doc, _ = run_json(*argv, "--json")
    assert code == 0
    return [{k: v for k, v in r.items() if k != "type"}
            for r in doc["results"]]


def test_cotangent_checks_is_the_cotangent_suite():
    from linconn.cotangent import cotangent_checks
    from linconn.model import load_model

    path = MODELS / "potential_1d.lc"
    doc = load_model(path.read_text(encoding="utf-8"))
    reports = cotangent_checks(doc.connection, 30, 1e-8, seed=3,
                               h=doc.hamiltonian)
    assert [r.name for r in reports] == [
        "symmetric", "cyclic_curvature", "poisson_vs_canonical",
        "differential_decomposition", "integrable_structure"]
    assert _library_results(reports) == _cli_results_without_type(
        "check", str(path), "--suite", "cotangent", "--samples", "30",
        "--seed", "3")


def test_check_homogenized_is_the_affine_homogeneous_suite():
    from linconn.affine import check_homogenized, homogenize
    from linconn.model import load_model

    path = MODELS / "affine_quadratic.lc"
    doc = load_model(path.read_text(encoding="utf-8"))
    report = check_homogenized(homogenize(doc.connection), 30, 1e-8, seed=3)
    assert report.passed
    assert _library_results([report]) == _cli_results_without_type(
        "check", str(path), "--suite", "homogeneous", "--samples", "30",
        "--seed", "3")


def test_check_sode_suite():
    code, doc, _ = run_json("check", str(MODELS / "oscillator.lc"),
                            "--suite", "sode", "--samples", "20", "--json")
    assert code == 0
    assert doc["results"][0]["labels"]["classification"] == \
        "linear-in-all-variables"


def test_check_basic_suite():
    code, _, _ = run_cli("check", str(MODELS / "quadratic.lc"),
                         "--suite", "basic", "--section", "x1^2",
                         "--samples", "10")
    assert code == 0
    code, _, _ = run_cli("check", str(MODELS / "quadratic.lc"),
                         "--suite", "basic", "--section", "u1",
                         "--samples", "10")
    assert code == 1


def test_tensor_section_parameterized_names():
    code, out, _ = run_cli("tensor", str(MODELS / "linear.lc"),
                           "--name", "integral-residual",
                           "--section", "exp(-x1^2/2)", "--at", "x1=0.5")
    assert code == 0
    code, out, _ = run_cli("tensor", str(MODELS / "quadratic.lc"),
                           "--name", "pullback-coeffs", "--section", "x1")
    assert code == 0
    assert "2*x1" in out
    # Section-parameterized names demand --section.
    code, _, err = run_cli("tensor", str(MODELS / "quadratic.lc"),
                           "--name", "pullback-coeffs")
    assert code == 2


def test_tensor_cotangent_differentials():
    code, out, _ = run_cli("tensor", str(MODELS / "geodesic_const.lc"),
                           "--name", "dh", "--function", "x1")
    assert code == 0
    code, out, _ = run_cli("tensor", str(MODELS / "geodesic_const.lc"),
                           "--name", "dv", "--function", "p1^2",
                           "--at", "x1=0,x2=0,p1=0.5,p2=0")
    assert code == 0
    assert "2*p1" in out
    code, out, _ = run_cli("tensor", str(MODELS / "geodesic_const.lc"),
                           "--name", "torsion-form")
    assert code == 0
    code, out, _ = run_cli("tensor", str(MODELS / "affine_quadratic.lc"),
                           "--name", "affine-coeffs-0")
    assert code == 0


@pytest.mark.parametrize("name", ["dh", "dv", "hamiltonian-field"])
def test_tensor_function_takes_one_expression(name):
    code, out, err = run_cli("tensor", str(MODELS / "potential_1d.lc"),
                             "--name", name, "--function", "p1^2/2, x1")
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "--function has 2 expressions, expected 1" in err


@pytest.mark.parametrize("name, header", [
    ("hamiltonian-field", "hamiltonian_field\n"),
    ("dh", "horizontal_differential\n"),
    ("dv", "vertical_differential\n"),
])
def test_components_text_has_no_slot_list(name, header):
    code, out, _ = run_cli("tensor", str(MODELS / "potential_1d.lc"),
                           "--name", name, "--function", "p1^2/2")
    assert code == 0
    assert out.startswith(header) and "slots" not in out


def test_tensor_text_names_its_slots():
    code, out, _ = run_cli("tensor", str(MODELS / "quadratic.lc"),
                           "--name", "tension")
    assert code == 0
    assert out.splitlines()[0] == \
        "tension  (slots: fiber-vector, base-covector)"


@pytest.mark.parametrize("model, name, option", [
    ("affine_quadratic", "homogenized-gamma", ("--at", "x1=0.3,y1=0.5")),
    ("m4", "curvature", ("--function", "x1")),
    ("m4", "curvature", ("--section", "x1,x2")),
    ("potential_1d", "dh", ("--section", "x1")),
    ("linear", "integral-residual", ("--function", "x1")),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_tensor_rejects_options_that_do_not_apply(model, name, option):
    extra = {"dh": ("--function", "p1^2"),
             "integral-residual": ("--section", "x1")}.get(name, ())
    code, out, err = run_cli("tensor", str(MODELS / f"{model}.lc"), "--name",
                             name, *extra, *option)
    assert code == 2 and out == ""
    assert err == f"error: {option[0]} does not apply to --name {name}\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_stdout_closed_early_exits_2_with_one_error_line(tmp_path, json_flag):
    # About 100 KB of output: more than a pipe holds, so the program is
    # still writing when the reader goes away.
    terms = " + ".join(f"{k}*x1*u1" for k in range(1, 8001))
    path = _one_coefficient_model(tmp_path, terms)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "linconn.cli", "tensor", path, "--name",
         "gamma", *json_flag],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(16)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert head.startswith(b"{" if json_flag else b"gamma")
    assert err == "error: stdout was closed before the report was written\n"


def test_hj_failure_exit_1():
    code, doc, _ = run_json("hj", str(MODELS / "geodesic_const.lc"),
                            "--alpha", "x1,0", "--samples", "20", "--json")
    assert code == 1
    assert doc["status"] == "fail"
