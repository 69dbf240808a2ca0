"""Per-operation correctness gate.

`problems(op, exit_code, stdout, stderr, validator)` returns the reasons an
operation's output is wrong; an empty list means it passed. The benchmark
counts an operation with any problem as failed. Byte-identity of repeated
operations is checked by the runner, which sees every repeat.
"""

from __future__ import annotations

import json
import math

import jsonschema

from workloads import Operation

# Holonomy: defect/eps^2 converges to the curvature with first order in
# eps; this is the constant of that O(eps), relative to 1 + |curvature|.
HOLONOMY_ORDER_CONSTANT = 10.0
# RK4 at step 1e-4 over t = 10 reproduces cos/sin far below this.
FLOW_TOLERANCE = 1e-8


def make_validator(schema_path: str) -> jsonschema.protocols.Validator:
    with open(schema_path, "r", encoding="utf-8") as handle:
        schema = json.load(handle)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def expected_exit(op: Operation) -> int:
    """1 only where a verdict is known to fail, else 0."""
    verdicts = op.expect.get("verdicts", {})
    return 1 if any(v is False for v in verdicts.values()) else 0


def _check_reports(op: Operation, results: list) -> list[str]:
    """Known verdicts must match; every other check report must pass."""
    out = []
    verdicts = op.expect.get("verdicts", {})
    names = set()
    for report in results:
        if report.get("type") not in ("check", "classification"):
            out.append(f"unexpected result type {report.get('type')!r}")
            continue
        name = report["name"]
        names.add(name)
        want = verdicts.get(name, True)
        if report["passed"] is not want:
            kind = "verdict" if name in verdicts else "theorem-level check"
            out.append(f"{kind} {name}: passed={report['passed']}, "
                       f"expected {want}")
    missing = sorted(set(verdicts) - names)
    if missing:
        out.append(f"missing reports {missing}")
    if not results:
        out.append("no reports")
    return out


def _check_transport(op: Operation, result: dict) -> list[str]:
    out = []
    for key in ("status", "flow_status"):
        if result.get(key) != "ok":
            out.append(f"{key} is {result.get(key)!r}")
    steps = round(result["time"] / result["step"])
    if result["steps"] != steps:
        out.append(f"{result['steps']} steps, expected {steps}")
    gap = result.get("oracle_relative_gap")
    if gap is None or not gap <= op.expect["gap"]:
        out.append(f"oracle gap {gap} above {op.expect['gap']}")
    return out


def _check_holonomy(op: Operation, result: dict) -> list[str]:
    eps = op.expect["eps"]
    out = []
    for A, (probe, symbolic) in enumerate(zip(result["defect_over_eps2"],
                                               result["symbolic_curvature"])):
        bound = HOLONOMY_ORDER_CONSTANT * eps * (1.0 + abs(symbolic))
        if not abs(probe - symbolic) <= bound:
            out.append(f"holonomy component {A + 1}: probe {probe} vs "
                       f"curvature {symbolic}, bound {bound:.3g}")
    return out


def _check_flow(op: Operation, result: dict) -> list[str]:
    """oscillator_pair from (1, 0, 0, 1): x = (cos t, sin t), v = x'."""
    t = op.expect["time"]
    exact = (math.cos(t), math.sin(t), -math.sin(t), math.cos(t))
    out = []
    if result.get("status") != "ok":
        out.append(f"flow status {result.get('status')!r}")
    err = max(abs(a - b) for a, b in zip(result["final"], exact))
    if len(result["final"]) != 4 or not err <= FLOW_TOLERANCE:
        out.append(f"flow final state off the closed form by {err:.3g}")
    return out


def problems(op: Operation, exit_code: int, stdout: str, stderr: str,
             validator) -> list[str]:
    out = []
    if "Traceback (most recent call last)" in stderr:
        out.append("traceback on stderr")
    want = expected_exit(op)
    if exit_code != want:
        out.append(f"exit code {exit_code}, expected {want}")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return out + [f"stdout is not JSON: {exc}"]
    schema_errors = [e.message for e in validator.iter_errors(doc)]
    if schema_errors:
        return out + [f"schema: {schema_errors[0]}"]
    if doc["command"] != list(op.argv):
        out.append("command echo differs from argv")
    if (doc["status"] == "fail") != (exit_code == 1):
        out.append(f"status {doc['status']!r} with exit code {exit_code}")
    results = doc["results"]
    try:
        if op.kind in ("check", "bianchi", "hj", "sode"):
            out += _check_reports(op, results)
        elif len(results) != 1:
            out.append(f"{len(results)} results, expected 1")
        elif op.kind == "transport":
            out += _check_transport(op, results[0])
        elif op.kind == "holonomy":
            out += _check_holonomy(op, results[0])
        elif op.kind == "flow":
            out += _check_flow(op, results[0])
        else:
            out.append(f"no gate for operation kind {op.kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        out.append(f"malformed result: {exc!r}")
    return out
