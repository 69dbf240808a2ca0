import ast
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest

import linconn.cli as cli
from linconn.cli import emit_json, run
from linconn.expr import _memo
from linconn.model import load_model

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


@pytest.mark.parametrize("base, fiber, name", [
    ("x1", "1", "1"),
    ("e x1", "v1", "e x1"),
    ("x1", "v2/", "v2/"),
    ("x1", "vln(", "vln("),
])
def test_coordinate_name_that_is_not_an_identifier_exits_2(tmp_path, base,
                                                           fiber, name):
    path = tmp_path / "bad.lc"
    path.write_text(f"[bundle]\nkind = tangent\nbase = {base}\n"
                    f"fiber = {fiber}\n\n[sode]\nf1 = -1\n")
    for argv in (("info", str(path)), ("check", str(path), "--samples", "5")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv[0]
        assert err == f"error: invalid coordinate name {name!r}\n"


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
    assert not _memo
    assert run_cli(*argv) == first
    assert not _memo
    # A run that fails after building tensors leaves it empty too, and so
    # does one that stops inside a simplification.
    code, _, _ = run_cli("sode", str(MODELS / "oscillator.lc"), "--classify",
                         "--homogenize", "--samples", "10")
    assert code == 2 and not _memo

    def interrupted(*args):
        raise KeyboardInterrupt

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("linconn.expr._sum", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli(*argv)
    assert not _memo


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
    from linconn import suites
    draws = []
    sample_points = suites.sample_points

    def counting(*args, **kwargs):
        draws.append(args[1])
        return sample_points(*args, **kwargs)

    monkeypatch.setattr(suites, "sample_points", counting)
    code, out, _ = run_cli("sode", str(MODELS / "oscillator_pair.lc"),
                           "--classify", "--split", "1|2", "--json",
                           "--samples", "50")
    assert code == 0
    assert draws == [50]
    assert [r["name"] for r in json.loads(out)["results"]] == \
        ["linearizability", "decoupling"]


@pytest.mark.parametrize("scale, warned", [("1e-13", 0), ("1e-10", 8)])
def test_cotangent_suite_probes_the_torsion_once_per_run(monkeypatch, tmp_path,
                                                         scale, warned):
    # Torsion within the suite's tolerance but not structurally zero:
    # each `poisson` and `hamiltonian_field` of the four trials asks
    # whether the connection is symmetric. The run prints each distinct
    # warning once.
    from linconn import cotangent, suites
    path = tmp_path / "cot.lc"
    path.write_text("[bundle]\nkind = cotangent\nbase = x1, x2\n"
                    "fiber = p1, p2\n\n[connection]\nGamma[1,1] = 0\n"
                    f"Gamma[1,2] = {scale}*x1\nGamma[2,1] = 0\n"
                    "Gamma[2,2] = 0\n")
    sample_points = suites.sample_points
    warn = warnings.warn
    draws, categories = [], []

    def counting(*args, **kwargs):
        draws.append(args[1])
        return sample_points(*args, **kwargs)

    def counting_warn(message, category, **kwargs):
        categories.append(category)
        warn(message, category, **kwargs)

    for module in (suites, cotangent):
        monkeypatch.setattr(module, "sample_points", counting)
    monkeypatch.setattr(cotangent.warnings, "warn", counting_warn)
    code, out, err = run_cli("check", str(path), "--suite", "cotangent",
                             "--samples", "30", "--json")
    assert code == 0
    # The symmetry test reads fixed probes: it draws no sample points.
    assert draws == [30, 30]
    assert categories == [cotangent.AsymmetricConnectionWarning] * warned
    assert sorted(err.splitlines()) == [
        f"warning: {op}: connection is not symmetric; the Hamiltonian "
        "decomposition is only valid for symmetric connections"
        for op in ("hamiltonian_field", "poisson") if warned]


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
    assert out.startswith("flow final state: [") and out.endswith("] [ok]\n")

    code, out, _ = run_cli("sode", str(MODELS / "oscillator.lc"),
                           "--jacobi")
    assert code == 0
    assert "jacobi" in out


@pytest.mark.parametrize("kind, base, state", [
    ("tangent", "x1", "1,-1"), ("jet", "t, x1", "0,1,-1")])
def test_sode_flow_stops_at_the_declared_excluded_set(tmp_path, kind, base,
                                                      state):
    # x1'' = -1/x1 from x1 = 1, x1' = -1 reaches x1 = 0 near t = 0.656.
    path = tmp_path / "reciprocal.lc"
    path.write_text(f"[bundle]\nkind = {kind}\nbase = {base}\nfiber = v1\n"
                    'exclude = "x1=0"\n\n[sode]\nf1 = -1/x1\n')
    argv = ("sode", str(path), "--flow", state, "--time", "2")
    code, doc, _ = run_json(*argv, "--json")
    assert code == 0
    assert doc["results"][0]["status"] == "excluded:0.656"
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert out.endswith("] [excluded:0.656]\n")


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


def test_hj_samples_off_the_excluded_set_without_first_integrals(tmp_path):
    # The level residual, d/dx1 of H(x1, 1/x1), is -1/x1^3 - 1/x1^2: it
    # has no bound near the declared singular set x1 = 0, and off
    # |x1| < 0.1, where the sampler keeps the points, it stays below 1.1e3.
    path = tmp_path / "kepler.lc"
    path.write_text("[bundle]\nkind = cotangent\nbase = x1\nfiber = p1\n"
                    "exclude = \"x1=0\"\n\n[hamiltonian]\n"
                    "H = p1^2/2 + 1/x1\n")
    code, doc, _ = run_json("hj", str(path), "--alpha", "1/x1",
                            "--samples", "2000", "--json")
    assert code == 1
    (report,) = doc["results"]
    assert report["max_residual"] <= 1.1e3


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


def test_linear_coeffs_fold_a_negative_divisor(tmp_path):
    # d(u1/(-2))/du1 folds to one constant, not to the quotient -2/4.
    path = _one_coefficient_model(tmp_path, "u1/(-2)")
    _, doc, _ = run_json("tensor", path, "--name", "linear-coeffs", "--json")
    assert doc["results"][0]["entries"] == [{"index": [1, 1, 1],
                                             "expr": "-0.5"}]


def test_tensor_json_has_frame_labels():
    _, doc, _ = run_json("tensor", str(MODELS / "m4.lc"), "--name",
                         "linear-coeffs", "--json")
    result = doc["results"][0]
    assert result["frame"] == {"horizontal": "H_i", "vertical": "V_A"}
    assert all("index" in entry for entry in result["entries"])


# ---------------------------------------------------------------------------
# Coverage: every public operation is reachable from a CLI verb
# ---------------------------------------------------------------------------

# Operation-to-verb coverage map: every public operation of the
# computational modules is reachable from a CLI verb.
COVERAGE = {
    "geometry.h_apply": "tensor",
    "geometry.linear_coeffs": "tensor",
    "geometry.covariant_derivative": "check",
    "geometry.tension": "tensor",
    "geometry.curvature": "tensor",
    "geometry.vh_curvature": "tensor",
    "geometry.hh_curvature": "tensor",
    "geometry.hh_curvature_commutator": "tensor",
    "geometry.check_homogeneous": "check",
    "geometry.check_basic": "check",
    "geometry.flatness_check": "check",
    "geometry.axioms_check": "check",
    "geometry.bianchi_check": "bianchi",
    "geometry.tension_identities_check": "bianchi",
    "geometry.integral_section_residual": "tensor",
    "geometry.pullback_connection_coeffs": "tensor",
    "affine.homogenize": "tensor",
    "affine.affine_linearization": "tensor",
    "affine.affine_covariant_derivative": "check",
    "affine.check_affine_structure": "check",
    "affine.check_homogenized": "check",
    "sode.sode_connection": "sode",
    "sode.jacobi_endomorphism": "sode",
    "sode.nonautonomous_connection": "sode",
    "sode.homogeneous_sode": "sode",
    "sode.linearizability_report": "sode",
    "sode.decoupling_check": "sode",
    "cotangent.torsion_form": "tensor",
    "cotangent.dh": "tensor",
    "cotangent.dv": "tensor",
    "cotangent.hamiltonian_field": "tensor",
    "cotangent.poisson": "check",
    "cotangent.canonical_poisson": "check",
    "cotangent.integrable_connection": "hj",
    "cotangent.integrable_report": "hj",
    "cotangent.hj_verify": "hj",
    "cotangent.geodesic_model": "hj",
    "cotangent.cyclic_curvature_check": "check",
    "cotangent.cotangent_checks": "check",
    "transport.horizontal_flow": "transport",
    "transport.parallel_transport": "transport",
    "transport.transport_oracle": "transport",
    "transport.relative_gap": "transport",
    "transport.holonomy_probe": "transport",
    "transport.holonomy_curvature": "transport",
    "transport.sode_flow": "sode",
}


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
    assert err == ("error: --samples must be an integer from 1 to 2000000, "
                   "got 1000000000000\n")


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


@pytest.mark.parametrize("suite", ["all", "homogeneous"])
def test_a_base_named_like_the_extension_is_homogenized(tmp_path, suite):
    path = tmp_path / "z1.lc"
    path.write_text("[bundle]\nkind = affine\nbase = z1\nfiber = y1\n\n"
                    "[connection]\nGamma[1,1] = y1^2\n")
    code, doc, _ = run_json("check", str(path), "--suite", suite,
                            "--samples", "50", "--json")
    assert code == 0
    assert all(result["passed"] for result in doc["results"])


def test_sode_homogenize_names_the_velocities_apart_from_the_base(tmp_path):
    path = tmp_path / "w1.lc"
    path.write_text("[bundle]\nkind = jet\nbase = t, w1\nfiber = v1\n\n"
                    "[sode]\nf1 = -w1\n")
    code, out, err = run_cli("sode", str(path), "--homogenize")
    assert (code, err) == (0, "")
    assert out == ("homogeneous extension forces:\n  _w0: 0\n"
                   "  _w1: _w0*_w0*-w1\n")


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


# Options of the other verbs, each given where it does not apply.
INAPPLICABLE = (
    (("hj", "geodesic_const", "--integrals", "p1,p2", "--alpha", "0,0"),
     "--integrals does not apply without --metric"),
    (("transport", "m4", "--holonomy", "1,2", "--field", "1,0"),
     "--field does not apply to --holonomy"),
    (("transport", "m4", "--holonomy", "1,2", "--fiber", "1,0"),
     "--fiber does not apply to --holonomy"),
    (("transport", "m4", "--holonomy", "1,2", "--oracle"),
     "--oracle does not apply to --holonomy"),
    (("transport", "m4", "--holonomy", "1,2", "--central"),
     "--central does not apply to --holonomy"),
    (("transport", "m4", "--field", "1,0", "--central"),
     "--central does not apply without --oracle"),
    (("hj", "m4", "--metric", "[[1]]", "--alpha", "0", "--samples", "5"),
     "--metric does not apply to a model file"),
    (("sode", "oscillator", "--classify", "--at", "x1=0.3,v1=0.5"),
     "--at does not apply without --jacobi"),
    (("check", "m4", "--suite", "flat", "--section", "x1,x2"),
     "--section does not apply to --suite flat"),
    (("transport", "m4", "--holonomy", "1,2", "--time", "7"),
     "--time does not apply to --holonomy"),
    (("transport", "m4", "--holonomy", "1,2", "--step", "5e-3"),
     "--step does not apply to --holonomy"),
    (("transport", "m4", "--holonomy", "1,2", "--fd-eps", "3"),
     "--fd-eps does not apply to --holonomy"),
    (("transport", "m4", "--field", "1,0", "--fd-eps", "2"),
     "--fd-eps does not apply without --oracle"),
    (("transport", "m4", "--field", "1,0", "--oracle", "--eps", "5"),
     "--eps does not apply without --holonomy"),
    # A zero is a value given, not an option left out.
    (("transport", "m4", "--field", "1,0", "--eps", "0"),
     "--eps does not apply without --holonomy"),
    (("sode", "oscillator_pair", "--jacobi", "--time", "3"),
     "--time does not apply without --flow"),
    (("sode", "oscillator_pair", "--homogenize", "--step", "0.1"),
     "--step does not apply without --flow"),
    (("sode", "oscillator_pair", "--jacobi", "--samples", "9"),
     "--samples does not apply without --classify or --split"),
    (("sode", "oscillator_pair", "--flow", "1,0,0,1", "--seed", "0"),
     "--seed does not apply without --classify or --split"),
    (("sode", "oscillator_pair", "--flow", "1,0,0,1", "--tol", "1e-6"),
     "--tol does not apply without --classify or --split"),
)


@pytest.mark.parametrize("argv, message", [
    pytest.param(*case, id=" ".join(case[0])) for case in INAPPLICABLE])
def test_verbs_reject_options_that_do_not_apply(argv, message):
    verb, model, *rest = argv
    code, out, err = run_cli(verb, str(MODELS / f"{model}.lc"), *rest)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# argparse's own errors; a name ending in .lc is a shipped model.
PARSER_ERRORS = (
    (("info", "m4.lc", "--samples", "7", "--seed", "3", "--tol", "5"),
     "unrecognized arguments: --samples 7 --seed 3 --tol 5"),
    (("info", "m4.lc", "--tol", "nan"), "unrecognized arguments: --tol nan"),
    (("tensor", "m4.lc", "--name", "curvature", "--seed", "1"),
     "unrecognized arguments: --seed 1"),
    (("transport", "m4.lc", "--field", "1,0", "--samples", "5"),
     "unrecognized arguments: --samples 5"),
    (("sode", "oscillator.lc", "--flow", "-1,0"),
     "argument --flow: expected one argument; a value that begins with "
     "'-' is written --flow=-1,0"),
    (("transport", "m4.lc", "--field", "-1,0", "--from", "x1=0"),
     "argument --field: expected one argument; a value that begins with "
     "'-' is written --field=-1,0"),
    (("sode", "oscillator.lc", "--flo", "-1,0"),
     "argument --flow: expected one argument; a value that begins with "
     "'-' is written --flow=-1,0"),
    (("sode", "oscillator.lc", "--flow"),
     "argument --flow: expected one argument; a value that begins with "
     "'-' is written --flow=VALUE"),
    (("check", "m4.lc", "--samples", "x"),
     "argument --samples: invalid int value: 'x'"),
    (("transport", "m4.lc", "--field", "1,0", "--time", "soon"),
     "argument --time: invalid float value: 'soon'"),
    (("info", "m4.lc", "--json=1"),
     "argument --json: ignored explicit argument '1'"),
    (("tensor", "m4.lc"), "the following arguments are required: --name"),
    ((), "the following arguments are required: verb"),
)


M4_START = "x1=0,x2=0,u1=1,u2=1"
# An empty value is a value given: refused as malformed, not dropped.
EMPTY_VALUES = (
    (("sode", "oscillator_pair.lc", "--jacobi", "--split="),
     'split must look like "1 2|3" or "1|2"'),
    (("sode", "oscillator_pair.lc", "--jacobi", "--flow="),
     "--flow needs comma-separated numbers, got ''"),
    (("transport", "m4.lc", "--holonomy=", "--from", M4_START),
     "--holonomy needs two base directions such as \"1,2\", got ''"),
    (("transport", "m4.lc", "--field", "1,0", "--fiber=", "--from", M4_START),
     "--fiber needs comma-separated numbers, got ''"),
    (("transport", "m4.lc", "--field="),
     "transport needs --field (or --holonomy)"),
    (("check", "m4.lc", "--section="), "empty component in --section"),
    (("hj", "geodesic_const.lc", "--alpha="), "empty component in --alpha"),
    (("hj", "--metric=[[1]]", "--integrals=", "--alpha=0"),
     "empty component in --integrals"),
)


@pytest.mark.parametrize("argv, message", [
    pytest.param(*case, id=" ".join(case[0]) or "no-verb")
    for case in PARSER_ERRORS + EMPTY_VALUES])
def test_usage_errors_end_in_one_error_line(argv, message):
    code, out, err = run_cli(*(str(MODELS / a) if a.endswith(".lc") else a
                               for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# An invalid choice: how argparse quotes the list of choices differs
# between Python versions, so the line is pinned up to that list, and
# each choice must appear in it.
INVALID_CHOICES = (
    (("check", "m4.lc", "--suite", "none"),
     "argument --suite: invalid choice: 'none' (choose from ",
     ("all", "basic", "homogeneous", "flat", "axioms", "bianchi",
      "tension-identities", "affine", "cotangent", "sode")),
    (("nonsense-verb",),
     "argument verb: invalid choice: 'nonsense-verb' (choose from ",
     ("info", "tensor", "check", "bianchi", "transport", "sode", "hj")),
)


@pytest.mark.parametrize("argv, head, choices", [
    pytest.param(*case, id=" ".join(case[0])) for case in INVALID_CHOICES])
def test_invalid_choices_end_in_one_error_line(argv, head, choices):
    code, out, err = run_cli(*(str(MODELS / a) if a.endswith(".lc") else a
                               for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {head}") and err.endswith(")\n")
    assert err.count("\n") == 1
    listed = err[len(f"error: {head}"):-len(")\n")].split(", ")
    assert [c.strip("'") for c in listed] == list(choices)


def _shipped(argv):
    """`argv` with each name ending in .lc read as a shipped model."""
    return [str(MODELS / a) if a.endswith(".lc") else a for a in argv]


TRANSPORT = ("transport", "m4.lc", "--from", M4_START)
FIELD_RUN = (*TRANSPORT, "--field", "1,0")
ORACLE_RUN = (*FIELD_RUN, "--oracle")
HOLONOMY_RUN = (*TRANSPORT, "--holonomy", "1,2")
FLOW_RUN = ("sode", "oscillator_pair.lc", "--flow", "1,0,0,1")
CLASSIFY_RUN = ("sode", "oscillator_pair.lc", "--classify")
JACOBI_RUN = ("sode", "oscillator_pair.lc", "--jacobi")
VALUES = {"--field": ("1,0",), "--fiber": ("1,0",), "--time": ("0.5",),
          "--step": ("0.01",), "--oracle": (), "--fd-eps": ("1e-5",),
          "--central": (), "--eps": ("0.01",), "--samples": ("20",),
          "--seed": ("3",), "--tol": ("1e-6",)}
# Per (verb, flag, refusal phrase) of the option table: a run that reads
# the flag, one that does not, and the refusal that the second ends in.
MODES = {
    ("tensor", "--at", "to --name {name}"): (
        ("tensor", "m4.lc", "--name", "curvature", "--at", M4_START),
        ("tensor", "affine_quadratic.lc", "--name", "homogenized-gamma",
         "--at", "x1=0.3,y1=0.5"),
        "--at does not apply to --name homogenized-gamma"),
    ("tensor", "--section", "to --name {name}"): (
        ("tensor", "quadratic.lc", "--name", "pullback-coeffs",
         "--section", "x1"),
        ("tensor", "m4.lc", "--name", "curvature", "--section", "x1,x2"),
        "--section does not apply to --name curvature"),
    ("tensor", "--function", "to --name {name}"): (
        ("tensor", "potential_1d.lc", "--name", "dh", "--function", "p1^2"),
        ("tensor", "m4.lc", "--name", "curvature", "--function", "x1"),
        "--function does not apply to --name curvature"),
    ("check", "--section", "to --suite {suite}"): (
        ("check", "quadratic.lc", "--suite", "basic", "--section", "x1^2",
         "--samples", "10"),
        ("check", "m4.lc", "--suite", "flat", "--section", "x1,x2"),
        "--section does not apply to --suite flat"),
    **{("transport", flag, "to --holonomy"): (
        (*ORACLE_RUN, flag, *VALUES[flag]), (*HOLONOMY_RUN, flag, *VALUES[flag]),
        f"{flag} does not apply to --holonomy")
       for flag in ("--field", "--fiber", "--time", "--step", "--oracle",
                    "--fd-eps", "--central")},
    **{("transport", flag, "without --oracle"): (
        (*ORACLE_RUN, flag, *VALUES[flag]), (*FIELD_RUN, flag, *VALUES[flag]),
        f"{flag} does not apply without --oracle")
       for flag in ("--fd-eps", "--central")},
    ("transport", "--eps", "without --holonomy"): (
        (*HOLONOMY_RUN, "--eps", "0.01"), (*ORACLE_RUN, "--eps", "0.01"),
        "--eps does not apply without --holonomy"),
    ("sode", "--at", "without --jacobi"): (
        (*JACOBI_RUN, "--at", "x1=0.3,x2=0.1,v1=0.5,v2=0"),
        (*CLASSIFY_RUN, "--at", "x1=0.3,x2=0.1,v1=0.5,v2=0"),
        "--at does not apply without --jacobi"),
    **{("sode", flag, "without --flow"): (
        (*FLOW_RUN, flag, *VALUES[flag]), (*JACOBI_RUN, flag, *VALUES[flag]),
        f"{flag} does not apply without --flow")
       for flag in ("--time", "--step")},
    **{("sode", flag, "without --classify or --split"): (
        (*CLASSIFY_RUN, flag, *VALUES[flag]),
        (*JACOBI_RUN, flag, *VALUES[flag]),
        f"{flag} does not apply without --classify or --split")
       for flag in ("--samples", "--seed", "--tol")},
    ("hj", "--metric", "to a model file"): (
        ("hj", "--metric", "[[1,0],[0,1]]", "--alpha", "0.3,0.7"),
        ("hj", "geodesic_const.lc", "--alpha", "0.3,0.7", "--metric",
         "[[1]]"),
        "--metric does not apply to a model file"),
    ("hj", "--integrals", "without --metric"): (
        ("hj", "--metric", "[[2,1],[1,1]]", "--alpha", "0.3,0.7",
         "--integrals", "p1,p2"),
        ("hj", "geodesic_const.lc", "--alpha", "0.3,0.7", "--integrals",
         "p1,p2"),
        "--integrals does not apply without --metric"),
}


def _table():
    """The option table as {verb: {flag: option}}."""
    return {verb: {option.flag: option for option in options}
            for verb, (_, _, options) in cli._VERBS.items()}


def test_every_mode_of_the_option_table_has_its_runs():
    assert set(MODES) == {(verb, flag, phrase)
                          for verb, options in _table().items()
                          for flag, option in options.items()
                          for phrase, _ in option.modes}


def test_the_option_table_has_53_settable_values():
    assert sum(map(len, _table().values())) == 53


@pytest.mark.parametrize("key", list(MODES), ids=" ".join)
def test_an_option_is_refused_exactly_where_its_mode_does_not_read_it(key):
    read, unread, refusal = MODES[key]
    code, out, err = run_cli(*_shipped(unread))
    assert (code, out, err) == (2, "", f"error: {refusal}\n")
    code, _, err = run_cli(*_shipped(read), "--json")
    assert code in (0, 1) and err == "", err


def test_refusals_come_before_the_model_is_read():
    code, out, err = run_cli("transport", "no-such-file.lc", "--holonomy",
                             "1,2", "--time", "2")
    assert (code, out) == (2, "")
    assert err == "error: --time does not apply to --holonomy\n"


# A Hamiltonian without first integrals: a model with no connection.
NO_CONNECTION = ("[bundle]\nkind = cotangent\nbase = x1\nfiber = p1\n\n"
                 "[hamiltonian]\nH = p1^2/2 + x1^2/2\n")
NO_CONNECTION_LINE = ("this model declares no connection (a Hamiltonian "
                      "section without first integrals); the requested "
                      "command needs one")
GEODESIC_FIELD_RUN = ("transport", "geodesic_const.lc", "--field", "1,0",
                      "--from", "x1=0,x2=0,p1=1,p2=1")
# Per (verb, message) row of `cli._NEEDS`: a run that holds the row, one
# that does not, and the error line that the second ends in.
NEEDS = {
    **{(verb, NO_CONNECTION_LINE): (
        read, (verb, "no_connection.lc", *rest), NO_CONNECTION_LINE)
       for verb, read, rest in (
           ("tensor", ("tensor", "potential_1d.lc", "--name", "curvature"),
            ("--name", "curvature")),
           ("check", ("check", "potential_1d.lc", "--samples", "10"), ()),
           ("bianchi", ("bianchi", "m4.lc", "--samples", "10"), ()),
           ("transport", GEODESIC_FIELD_RUN, ("--field", "1")))},
    ("tensor", "--name jacobi needs a model with a [sode] section"): (
        ("tensor", "oscillator_pair.lc", "--name", "jacobi"),
        ("tensor", "m4.lc", "--name", "jacobi"),
        "--name jacobi needs a model with a [sode] section"),
    ("tensor", "--name {name} needs --section"): (
        ("tensor", "quadratic.lc", "--name", "integral-residual",
         "--section", "x1"),
        ("tensor", "quadratic.lc", "--name", "integral-residual"),
        "--name integral-residual needs --section"),
    ("tensor", "--name {name} needs --function"): (
        ("tensor", "potential_1d.lc", "--name", "hamiltonian-field",
         "--function", "p1^2"),
        ("tensor", "potential_1d.lc", "--name", "hamiltonian-field"),
        "--name hamiltonian-field needs --function"),
    ("transport", "transport needs --field (or --holonomy)"): (
        FIELD_RUN, TRANSPORT, "transport needs --field (or --holonomy)"),
    ("transport", "holonomy probes need at least two base directions"): (
        HOLONOMY_RUN, ("transport", "linear.lc", "--holonomy", "1,2"),
        "holonomy probes need at least two base directions"),
    ("transport", "--oracle applies to vector-like models"): (
        ORACLE_RUN, ("transport", "affine_quadratic.lc", "--field", "1",
                     "--oracle"),
        "--oracle applies to vector-like models"),
    ("sode", "this model has no [sode] section"): (
        JACOBI_RUN, ("sode", "m4.lc", "--jacobi"),
        "this model has no [sode] section"),
    ("sode", "--classify applies to autonomous models"): (
        CLASSIFY_RUN, ("sode", "jet_oscillator.lc", "--classify"),
        "--classify applies to autonomous models"),
    ("sode", "--homogenize applies to non-autonomous models"): (
        ("sode", "jet_oscillator.lc", "--homogenize"),
        ("sode", "oscillator.lc", "--homogenize"),
        "--homogenize applies to non-autonomous models"),
    ("sode", "sode verb needs at least one of --classify, --split, --jacobi, "
             "--homogenize, --flow"): (
        FLOW_RUN, ("sode", "oscillator_pair.lc"),
        "sode verb needs at least one of --classify, --split, --jacobi, "
        "--homogenize, --flow"),
    ("hj", "hj needs a model with a [hamiltonian] section (or --metric)"): (
        ("hj", "geodesic_const.lc", "--samples", "10"),
        ("hj", "m4.lc", "--alpha", "x1"),
        "hj needs a model with a [hamiltonian] section (or --metric)"),
    ("hj", "hj needs --alpha and/or a first-integral family"): (
        ("hj", "no_connection.lc", "--alpha", "x1", "--samples", "10"),
        ("hj", "no_connection.lc"),
        "hj needs --alpha and/or a first-integral family"),
}


def _model_argv(argv, tmp_path):
    """`_shipped(argv)`, with `no_connection.lc` a model of NO_CONNECTION."""
    path = tmp_path / "no_connection.lc"
    path.write_text(NO_CONNECTION)
    shipped = str(MODELS / path.name)
    return [str(path) if a == shipped else a for a in _shipped(argv)]


def test_every_need_of_the_needs_table_has_its_runs():
    assert set(NEEDS) == {(verb, message)
                          for verb, rows in cli._NEEDS.items()
                          for _, message in rows}


@pytest.mark.parametrize("key", list(NEEDS),
                         ids=lambda key: " ".join(key)[:50])
def test_a_run_is_refused_exactly_where_it_lacks_a_need(key, tmp_path):
    read, unread, refusal = NEEDS[key]
    code, out, err = run_cli(*_model_argv(unread, tmp_path))
    assert (code, out, err) == (2, "", f"error: {refusal}\n")
    code, _, err = run_cli(*_model_argv(read, tmp_path), "--json")
    assert code in (0, 1) and err == "", err


@pytest.mark.parametrize("argv", [("hj",), ("hj", ""),
                                  ("hj", "--alpha", "x1")], ids=" ".join)
def test_hj_without_a_model_or_metric_is_refused_by_the_loader(argv):
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (
        2, "", "error: hj needs a model file or --metric\n")


@pytest.mark.parametrize("directions", ["1,2", "1,1", "2,1", "1"])
def test_holonomy_on_one_base_direction_names_the_model_not_the_value(
        directions):
    code, out, err = run_cli("transport", str(MODELS / "linear.lc"),
                             "--holonomy", directions)
    assert (code, out, err) == (
        2, "", "error: holonomy probes need at least two base directions\n")


def test_model_file_that_is_not_utf8_exits_2(tmp_path):
    path = tmp_path / "latin1.lc"
    path.write_bytes("[bundle]\nkind = vector\nbase = x\xe9\n"
                     .encode("latin-1"))
    code, out, err = run_cli("info", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read model file: 'utf-8' codec ")
    assert err.count("\n") == 1


BEFORE_WORK = (
    (("transport", "affine_quadratic.lc", "--field", "1", "--oracle"),
     "--oracle applies to vector-like models"),
    (("transport", "linear.lc", "--holonomy", "1,2"),
     "holonomy probes need at least two base directions"),
    (("sode", "oscillator.lc", "--classify", "--homogenize"),
     "--homogenize applies to non-autonomous models"),
    (("sode", "oscillator.lc", "--jacobi", "--homogenize"),
     "--homogenize applies to non-autonomous models"),
    (("sode", "oscillator_pair.lc", "--classify", "--jacobi", "--at", "x1"),
     "bad point component 'x1'; use name=value"),
    (("sode", "oscillator_pair.lc", "--classify", "--flow", "1,x"),
     "--flow needs comma-separated numbers, got '1,x'"),
    (("sode", "oscillator_pair.lc", "--classify", "--flow", "1,2"),
     "state needs 4 components (x1, x2, v1, v2)"),
    (("hj", "--metric", "[[1]]"),
     "hj needs --alpha and/or a first-integral family"),
    (("hj", "geodesic_const.lc", "--alpha", "1", "--samples", "20000"),
     "1-form needs 2 components"),
    (("hj", "geodesic_const.lc", "--alpha", "p1,1", "--samples", "20000"),
     "alpha[1] may use only x1, x2; found ['p1']"),
    (("sode", "oscillator_pair.lc", "--split", "1|1", "--samples", "20000"),
     "split must partition 1..2, got (1,) | (1,)"),
)


@pytest.mark.parametrize("argv, line", BEFORE_WORK,
                         ids=[" ".join(argv) for argv, _ in BEFORE_WORK])
def test_refusals_come_before_any_work(monkeypatch, argv, line):
    import linconn.model as model

    def work(*args, **kwargs):
        raise AssertionError("work began before the refusal")

    for module, name in ((cli._transport, "parallel_transport"),
                         (cli._transport, "holonomy_probe"),
                         (cli._transport, "sode_flow"),
                         (cli._suites, "run_checks"),
                         (cli._suites, "sample_points"),
                         (model, "sample_points"),
                         (cli._sode, "jacobi_endomorphism"),
                         (cli._sode, "homogeneous_sode")):
        monkeypatch.setattr(module, name, work)
    code, out, err = run_cli(*_shipped(argv))
    assert (code, out, err) == (2, "", f"error: {line}\n")


TRANSPORT_REFUSALS = (
    (("transport", "m4.lc", "--field", "u1,1"),
     "base vector field[1] may use only x1, x2; found ['u1']"),
    (("transport", "m4.lc", "--field", "1,1", "--fiber", "1,2,3"),
     "transported vector needs 2 components, got 3"),
    (("transport", "affine_quadratic.lc", "--field", "1", "--fiber",
      "1,2,3"),
     "transported vector needs 2 components, got 3"),
)


@pytest.mark.parametrize("argv, line", TRANSPORT_REFUSALS,
                         ids=[" ".join(argv) for argv, _ in
                              TRANSPORT_REFUSALS])
def test_transport_refuses_its_field_and_vector_before_the_coefficients(
        monkeypatch, argv, line):
    def build(*args, **kwargs):
        raise AssertionError("transport coefficients built before the "
                             "refusal")

    monkeypatch.setattr(cli._transport, "_transport_coeffs", build)
    code, out, err = run_cli(*_shipped(argv))
    assert (code, out, err) == (2, "", f"error: {line}\n")


SUITE_REFUSALS = (
    (("check", "m4.lc", "--suite", "basic", "--samples", "20000"),
     "--suite basic needs --section"),
    (("check", "jet_oscillator.lc", "--suite", "sode"),
     "--suite sode needs an autonomous [sode] model"),
    (("check", "affine_quadratic.lc", "--suite", "flat", "--samples",
      "20000"),
     "--suite flat expects kind vector, tangent or cotangent, got "
     "kind=affine"),
    (("check", "m4.lc", "--suite", "cotangent"),
     "--suite cotangent expects kind cotangent, got kind=vector"),
    (("check", "m4.lc", "--suite", "affine"),
     "--suite affine expects kind affine or jet, got kind=vector"),
)


@pytest.mark.parametrize("argv, line", SUITE_REFUSALS,
                         ids=[" ".join(argv) for argv, _ in SUITE_REFUSALS])
def test_a_suite_the_run_cannot_run_is_refused_before_the_draw(
        monkeypatch, argv, line):
    import linconn.model as model

    def draw(*args, **kwargs):
        raise AssertionError("samples drawn before the refusal")

    for module in (cli._suites, model):
        monkeypatch.setattr(module, "sample_points", draw)
    code, out, err = run_cli(*_shipped(argv))
    assert (code, out, err) == (2, "", f"error: {line}\n")


VECTOR_SUITES = ["homogeneous", "flat", "axioms", "bianchi",
                 "tension-identities"]


@pytest.mark.parametrize("name, selected", [
    ("m4", VECTOR_SUITES),
    ("oscillator", VECTOR_SUITES + ["sode"]),
    ("geodesic_const", VECTOR_SUITES + ["cotangent"]),
    ("affine_quadratic", ["affine"]),
    ("jet_oscillator", ["affine"]),
])
def test_suite_all_selects_by_kind_as_before(name, selected):
    """`--suite all` runs each suite on the kinds of its `all_kinds`, and
    `basic` where a section is given."""
    doc = load_model((MODELS / f"{name}.lc").read_text())
    assert [e.name for e in cli._suites._selected(doc, ["all"], {})] == \
        selected
    assert [e.name for e in cli._suites._selected(
        doc, ["all"], {"section": object()})] == ["basic"] + selected


@pytest.mark.parametrize("name", ["affine_quadratic", "jet_oscillator"])
def test_homogeneous_named_alone_homogenizes_an_affine_model(name):
    """The homogeneity suite takes every kind, though `--suite all` runs
    it on the vector-like ones alone: an affine or jet model is
    homogenized first."""
    code, doc, _ = run_json("check", str(MODELS / f"{name}.lc"), "--suite",
                            "homogeneous", "--samples", "10", "--json")
    assert code == 0
    assert [r["name"] for r in doc["results"]] == ["homogeneous"]


MALFORMED_NUMBER = "unexpected trailing input '.3' at offset 3 (expected " \
    "end of input)"
GAMMA_MODEL = ("[bundle]\nkind = vector\nbase = x1\nfiber = u1\n\n"
               "[connection]\nGamma[1,1] = {}\n")


# An `info` run reads a GAMMA_MODEL whose coefficient is its second item.
@pytest.mark.parametrize("argv, line", [
    (("info", "1.2.3*u1"),
     f"line 7: cannot parse Gamma[1,1]: {MALFORMED_NUMBER}"),
    (("info", "²"),
     "line 7: cannot parse Gamma[1,1]: unexpected character '²' at offset 0"),
    (("transport", "m4.lc", "--field", "1.2.3,1"),
     f"cannot parse --field: {MALFORMED_NUMBER}"),
    (("hj", "--metric", '[["1.2.3"]]'), MALFORMED_NUMBER)],
    ids=["info 1.2.3", "info superscript two", "transport --field",
         "hj --metric"])
def test_a_malformed_number_exits_2_with_one_error_line(argv, line,
                                                        tmp_path):
    if argv[0] == "info":
        path = tmp_path / "m.lc"
        path.write_text(GAMMA_MODEL.format(argv[1]), encoding="utf-8")
        argv = ("info", str(path))
    code, out, err = run_cli(*_shipped(argv))
    assert (code, out, err) == (2, "", f"error: {line}\n")


def test_handlers_refuse_nothing_and_one_loader_reads_every_model():
    source = Path(cli.__file__).read_text(encoding="utf-8")
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    handlers = [name for name in functions if name.startswith("_cmd_")]
    assert sorted(handlers) == sorted(f"_cmd_{verb}" for verb in cli._VERBS)
    for name in handlers:
        assert not any(isinstance(node, ast.Raise)
                       for node in ast.walk(functions[name])), name
    callers = [name for name, function in functions.items()
               for node in ast.walk(function)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_load"]
    assert callers == ["run"]
    assert "_require_connection" not in source
    assert "_model_text" not in source


RANGE_ERRORS = (
    (("check", "m4.lc", "--samples", "2000001"),
     "--samples must be an integer from 1 to 2000000, got 2000001"),
    (("check", "m4.lc", "--samples", "0"),
     "--samples must be an integer from 1 to 2000000, got 0"),
    (("hj", "geodesic_const.lc", "--seed", "-1", "--alpha", "0"),
     "--seed must be an integer >= 0, got -1"),
    (("bianchi", "m4.lc", "--tol", "nan"),
     "--tol must be a finite number >= 0, got nan"),
)


@pytest.mark.parametrize("argv, line", [
    pytest.param(*case, id=" ".join(case[0])) for case in RANGE_ERRORS])
def test_range_errors_name_their_flag(argv, line):
    code, out, err = run_cli(*_shipped(argv))
    assert (code, out, err) == (2, "", f"error: {line}\n")


README = (REPO / "README.md").read_text(encoding="utf-8")


def test_readme_options_and_defaults_match_the_option_table():
    table = _table()
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", README, re.M))
    assert set(rows) == set(table)
    for verb, options in table.items():
        assert set(re.findall(r"--[a-z-]+", rows[verb])) == \
            set(options) - {"model", "--json"}, verb
    paragraph = README[README.index("The defaults are"):]
    paragraph = paragraph[:paragraph.index(". ")]
    defaults = {flag: option.default for options in table.values()
                for flag, option in options.items()
                if option.default is not None}
    written = dict(re.findall(r"`(--[a-z-]+) ([^`]+)`", paragraph))
    assert set(written) == set(defaults)
    for flag, text in written.items():
        assert type(defaults[flag])(text) == defaults[flag], flag


ASYMMETRIC = ("[bundle]\nkind = cotangent\nbase = x1, x2\nfiber = p1, p2\n\n"
              "[connection]\nGamma[1,1] = 0\nGamma[1,2] = x1*p2\n"
              "Gamma[2,1] = 0\nGamma[2,2] = 0\n")
ASYMMETRIC_WARNING = ("warning: hamiltonian_field: connection is not "
                      "symmetric; the Hamiltonian decomposition is only valid "
                      "for symmetric connections\n")
UNSPECIFIED = ("warning: coordinates ['x1', 'x2', 'u1', 'u2'] not specified; "
               "base defaults to 0, fiber to 0\n")


# A name ending in .lc is a shipped model, or the asymmetric one above.
STDERR = (
    # A note of a run that fails is not printed.
    (("transport", "m4.lc", "--holonomy", "1,2", "--eps", "-0"), 2,
     "error: holonomy eps^2 must be finite and exceed the rounding unit "
     "2.22e-16 of the start point, got eps=-0.0\n"),
    (("transport", "m4.lc", "--field", "1,0", "--time", "1e308", "--step",
      "1e-300"), 2,
     "error: time span must be finite and take at most 10000000 steps, got "
     "1e+308 at step 1e-300\n"),
    (("transport", "m4.lc", "--holonomy", "1,2"), 0, UNSPECIFIED),
    (("tensor", "asymmetric.lc", "--name", "hamiltonian-field", "--function",
      "p1"), 0, ASYMMETRIC_WARNING),
)


@pytest.mark.parametrize("argv, code, err", [
    pytest.param(*case, id=" ".join(case[0])) for case in STDERR])
def test_stderr_is_one_error_line_or_only_warning_lines(tmp_path, argv, code,
                                                        err):
    (tmp_path / "asymmetric.lc").write_text(ASYMMETRIC)
    argv = _shipped(str(tmp_path / a) if a == "asymmetric.lc" else a
                    for a in argv)
    assert run_cli(*argv)[::2] == (code, err)
    # Warnings turned into errors are still reported as warnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv)[::2] == (code, err)


def test_warnings_as_errors_in_a_fresh_process(tmp_path):
    path = tmp_path / "asymmetric.lc"
    path.write_text(ASYMMETRIC)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               PYTHONWARNINGS="error")
    proc = subprocess.run(
        [sys.executable, "-m", "linconn.cli", "tensor", str(path), "--name",
         "hamiltonian-field", "--function", "p1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ASYMMETRIC_WARNING)
    assert proc.stdout.startswith("hamiltonian_field\n")


def test_loading_first_integrals_imports_no_numpy_random(tmp_path):
    # The transversality probes and those of the symmetry test, which an
    # asymmetric connection's Hamiltonian field runs, are fixed sets of
    # plain floats.
    path = tmp_path / "asymmetric.lc"
    path.write_text(ASYMMETRIC)
    code = ("import sys\nfrom linconn.cli import run\n"
            f"assert run(['info', {str(MODELS / 'potential_1d.lc')!r}]) == 0\n"
            "assert 'numpy.random' not in sys.modules\n"
            f"assert run(['tensor', {str(path)!r}, '--name', "
            "'hamiltonian-field', '--function', 'p1']) == 0\n"
            "assert 'numpy.random' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ("--help",), ("--version",), *((verb, "--help") for verb in cli._VERBS)],
    ids=" ".join)
def test_help_and_version_exit_0(argv):
    code, out, err = run_cli(*argv)
    assert code == 0 and out and err == ""


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
