"""Tests of the benchmark itself: seeded inputs, the correctness gate and
the tracer. Run from the repository root:

    python3 -m pytest -q bench
"""

import io
import json
import math
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import layers  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, public_functions, self_times  # noqa: E402

import linconn.cli  # noqa: E402
from linconn.expr import (  # noqa: E402
    Add, Call, Const, Mul, Neg, Pow, Sub, Var, evaluate,
)
from linconn.model import DEFAULT_BOX, load_model  # noqa: E402

MODELS = ROOT / "models"
VALIDATOR = gate.make_validator(str(ROOT / "schema" / "report.schema.json"))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        # Through the module attribute, as a traced worker calls it.
        code = linconn.cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def test_same_seed_same_model_bytes(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    paths_a = workloads.write_synthetic(str(first), 5)
    paths_b = workloads.write_synthetic(str(second), 5)
    for n in workloads.SYNTHETIC_SIZES:
        assert Path(paths_a[n]).read_bytes() == Path(paths_b[n]).read_bytes()
    assert workloads.synthetic_model_text(3, 5) != \
        workloads.synthetic_model_text(3, 6)
    for name in workloads.WORKLOADS:
        ops_a = workloads.operations(name, 5, "models", str(first))
        ops_b = workloads.operations(name, 5, "models", str(first))
        assert [op.argv for op in ops_a] == [op.argv for op in ops_b]


def test_seed_changes_constants_only():
    """The template fixes every tree shape; the seed draws numbers."""
    def shape(text):
        return re.sub(r"\d+\.\d+", "c", text.split("\n", 1)[1])

    for n in workloads.SYNTHETIC_SIZES:
        shapes = {shape(workloads.synthetic_model_text(n, seed))
                  for seed in range(20)}
        assert len(shapes) == 1


def _total(e) -> bool:
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Call):
        return e.fn in workloads.TOTAL_FUNCTIONS and _total(e.arg)
    if isinstance(e, Pow):
        exponent = e.right
        return (isinstance(exponent, Const) and exponent.value >= 0
                and float(exponent.value).is_integer() and _total(e.left))
    if isinstance(e, (Add, Sub, Mul)):
        return _total(e.left) and _total(e.right)
    if isinstance(e, Neg):
        return _total(e.arg)
    return False


@pytest.mark.parametrize("seed", range(25))
def test_generated_coefficients_are_total_on_the_box(seed):
    rng = np.random.default_rng(seed)
    lo, hi = DEFAULT_BOX
    for n in workloads.SYNTHETIC_SIZES:
        doc = load_model(workloads.synthetic_model_text(n, seed))
        m = doc.connection
        names = m.bundle.coords
        points = [dict(zip(names, rng.uniform(lo, hi, size=len(names))))
                  for _ in range(32)]
        points += [dict.fromkeys(names, lo), dict.fromkeys(names, hi)]
        for row in m.gamma:
            for e in row:
                assert _total(e), e
                for env in points:
                    assert math.isfinite(evaluate(e, env))


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

M4_CHECK = workloads.Operation(
    "check-m4", ("check", str(MODELS / "m4.lc"), "--suite", "all", "--json",
                 "--samples", "20"),
    "check", {"verdicts": {"homogeneous": False, "flat": False}})
TRANSPORT = workloads.Operation(
    "transport-m4", ("transport", str(MODELS / "m4.lc"), "--field", "1,x1",
                     "--from", "x1=0.1,x2=0.2,u1=0.7,u2=0.9", "--time", "0.1",
                     "--central", "--oracle", "--json"),
    "transport", {"gap": 1e-8})
HOLONOMY = workloads.Operation(
    "holonomy-m4", ("transport", str(MODELS / "m4.lc"), "--holonomy", "1,2",
                    "--eps", "0.01", "--from", "x1=0.1,x2=0.2,u1=0.7,u2=0.9",
                    "--json"),
    "holonomy", {"eps": 0.01})
FLOW = workloads.Operation(
    "flow", ("sode", str(MODELS / "oscillator_pair.lc"), "--flow", "1,0,0,1",
             "--time", "1", "--json"),
    "flow", {"time": 1.0})


@pytest.fixture(scope="module")
def outputs():
    return {op.id: run_cli(op.argv) for op in (M4_CHECK, TRANSPORT, HOLONOMY,
                                                 FLOW)}


def _edit(stdout, change):
    doc = json.loads(stdout)
    change(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("op", [M4_CHECK, TRANSPORT, HOLONOMY, FLOW],
                         ids=lambda op: op.id)
def test_gate_accepts_seed_outputs(outputs, op):
    code, out, err = outputs[op.id]
    assert gate.problems(op, code, out, err, VALIDATOR) == []


def test_gate_rejects_flipped_verdict(outputs):
    code, out, err = outputs[M4_CHECK.id]

    def flip(doc):
        doc["results"][0]["passed"] = True
    assert gate.problems(M4_CHECK, code, _edit(out, flip), err, VALIDATOR)

    def fail_bianchi(doc):
        for report in doc["results"]:
            if report["name"] == "bianchi":
                report["passed"] = False
    assert gate.problems(M4_CHECK, code, _edit(out, fail_bianchi), err,
                         VALIDATOR)


def test_gate_rejects_schema_invalid_document(outputs):
    code, out, err = outputs[M4_CHECK.id]
    assert gate.problems(M4_CHECK, code,
                         _edit(out, lambda d: d.pop("status")), err, VALIDATOR)
    assert gate.problems(M4_CHECK, code, out[:-10], err, VALIDATOR)


def test_gate_rejects_wrong_exit_code_and_traceback(outputs):
    code, out, err = outputs[M4_CHECK.id]
    assert gate.problems(M4_CHECK, 0, out, err, VALIDATOR)
    trace = "Traceback (most recent call last):\n  ...\nValueError: x\n"
    assert gate.problems(M4_CHECK, code, out, trace, VALIDATOR)


def test_gate_rejects_oracle_gap_above_bound(outputs):
    code, out, err = outputs[TRANSPORT.id]

    def widen(doc):
        doc["results"][0]["oracle_relative_gap"] = 1e-6
    assert gate.problems(TRANSPORT, code, _edit(out, widen), err, VALIDATOR)


def test_gate_rejects_holonomy_off_curvature(outputs):
    code, out, err = outputs[HOLONOMY.id]

    def off(doc):
        result = doc["results"][0]
        result["defect_over_eps2"][0] = result["symbolic_curvature"][0] + 1.0
    assert gate.problems(HOLONOMY, code, _edit(out, off), err, VALIDATOR)


def test_gate_rejects_flow_off_closed_form(outputs):
    code, out, err = outputs[FLOW.id]

    def off(doc):
        doc["results"][0]["final"][1] += 1e-6
    assert gate.problems(FLOW, code, _edit(out, off), err, VALIDATOR)


def test_runner_counts_changed_repeat_as_failed():
    runner = bench_run.Runner(VALIDATOR, time.monotonic() + 60)
    runner.first_stdout[HOLONOMY.id] = "different bytes"
    rec = runner.run(HOLONOMY, trace=False)
    assert not rec["ok"]
    assert (runner.attempted, runner.failed) == (1, 1)


def test_runner_kills_an_operation_at_the_run_deadline():
    slow = workloads.Operation(
        "slow-flow", ("sode", str(MODELS / "oscillator_pair.lc"), "--flow",
                      "1,0,0,1", "--time", "10", "--step", "1e-4", "--json"),
        "flow", {"time": 10.0})
    runner = bench_run.Runner(VALIDATOR, time.monotonic() + 0.5)
    start = time.monotonic()
    rec = runner.run(slow, trace=False)
    assert time.monotonic() - start < 5
    assert not rec["ok"]
    assert runner.failed == 1


# ---------------------------------------------------------------------------
# Tracer and per-layer metrics
# ---------------------------------------------------------------------------

def test_tracer_keeps_json_bytes_and_records_spans():
    argv = ("check", str(MODELS / "geodesic_const.lc"), "--json",
            "--samples", "10")
    plain = run_cli(argv)
    originals = public_functions()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cli(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert public_functions() == originals
    assert tracer.calls["expr.simplify"] > 0
    assert tracer.calls["geometry.linear_coeffs"] > 0
    names = {span[1] for span in tracer.spans}
    assert {"cli.run", "model.load_model", "expr.compile_fn",
            "geometry.evaluate_components", "cotangent.torsion_form"} <= names
    # Recursive simplify opens a span only at its outermost entry.
    spans_of_simplify = sum(1 for span in tracer.spans
                            if span[1] == "expr.simplify")
    assert spans_of_simplify < tracer.calls["expr.simplify"]
    selfs = self_times(tracer.spans)
    total = sum(end - start for _, name, start, end, _ in tracer.spans
                if name == "cli.run")
    assert all(v > -1e-9 for v in selfs.values())
    assert sum(selfs.values()) == pytest.approx(total, rel=1e-6)
    assert tracer.counters["expr.compiled_unique_nodes"] <= \
        tracer.counters["expr.compiled_nodes"]
    # The check verb and its cotangent suite each draw the 10 samples.
    assert tracer.counters["model.samples_returned"] == 20


def test_removed_function_is_reported_absent():
    record = {"spans": [(0, "cli.run", 0.0, 1.0, None)],
              "calls": {"cli.run": 1}, "counters": {},
              "traced": ["cli.run", "expr.simplify"]}
    values, absent = layers.derive([record], 1.5)
    assert "transport.sode_flow_s" in absent
    assert "expr.simplify_s" not in absent
    assert values["cli.run_self_s"] == 1.0
    assert values["trace.overhead_ratio"] == 1.5
    assert set(values) == {name for name, *_ in layers.PER_LAYER}


# ---------------------------------------------------------------------------
# Benchmark definition
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        bench_run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, *_ in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "symbolic", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
