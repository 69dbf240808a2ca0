"""Command-line surface: it parses arguments, dispatches to the library
and renders the results, with no mathematics of its own.

Verbs: tensor, check, transport, sode, hj, bianchi, info. Each verb returns
the result dicts of its JSON document and prints nothing. With --json the
document is printed: fixed key order, floats with 17 significant digits,
no timestamps. Otherwise `_print_result` renders each result dict as text,
so a run that fails part-way prints no partial report. Exit codes: 0
success / all checks passed, 1 a check failed, 2 usage or validation
errors. No expression is too deep to process; only source text nested
deeper than the parser takes (about 195 parentheses) is a parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import sys
from typing import Sequence

from . import __version__
from .expr import (EvalError, Expr, ParseError, ZERO, _flat, _memo,
                   evaluate, is_zero, parse, to_string)
from .model import (
    ConnectionModel, ModelDocument, ModelError, PointE, SectionModel,
    load_model, sample_points,
)
from . import affine as _affine
from . import cotangent as _cotangent
from . import geometry as _geometry
from . import sode as _sode
from . import suites as _suites
from . import transport as _transport

SCHEMA_VERSION = 1

# Operation-to-verb coverage map; the test suite checks that every public
# operation of the computational modules appears here.
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


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Deterministic JSON
# ---------------------------------------------------------------------------

def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_value(v)}"
                          for k, v in value.items())
        return "{" + inner + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def emit_json(doc: dict) -> bytes:
    """Serialize a report document: stable key order as constructed,
    floats with 17 significant digits."""
    return (_json_value(doc) + "\n").encode("utf-8")


def _document(args, model_text: str, results: list, status: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "linconn", "version": __version__},
        "model_digest": hashlib.sha256(model_text.encode("utf-8")).hexdigest(),
        "command": list(args._argv),
        "status": status,
        "results": results,
    }


# ---------------------------------------------------------------------------
# Small parsers for option payloads
# ---------------------------------------------------------------------------

def _parse_point(text: str | None, m: ConnectionModel, flag: str) -> PointE:
    bundle = m.bundle
    values: dict[str, float] = {}
    if text:
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise UsageError(f"bad point component {item!r}; use name=value")
            name, _, raw = item.partition("=")
            name = name.strip()
            if name not in bundle.coords:
                raise UsageError(f"unknown coordinate {name!r}")
            try:
                values[name] = float(raw)
            except ValueError:
                raise UsageError(f"bad value for {name!r}: {raw!r}") from None
            if not math.isfinite(values[name]):
                raise UsageError(f"{flag} coordinate {name!r} must be a finite "
                                 f"number, got {raw.strip()!r}")
    fiber_default = 1.0 if m.excluded else 0.0
    missing = [c for c in bundle.coords if c not in values]
    if missing:
        print(f"warning: coordinates {missing} not specified; base defaults "
              f"to 0, fiber to {fiber_default:g}", file=sys.stderr)
    base = tuple(values.get(c, 0.0) for c in bundle.base_coords)
    fiber = tuple(values.get(c, fiber_default) for c in bundle.fiber_coords)
    return PointE(base=base, fiber=fiber)


def _parse_exprs(text: str, what: str) -> tuple[Expr, ...]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError(f"empty component in {what}")
        try:
            out.append(parse(chunk))
        except ParseError as exc:
            raise UsageError(f"cannot parse {what}: {exc}") from exc
    return tuple(out)


def _parse_split(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if "|" not in text:
        raise UsageError("split must look like \"1 2|3\" or \"1|2\"")
    left, right = text.split("|", 1)

    def group(chunk):
        items = chunk.replace(",", " ").split()
        try:
            return tuple(int(v) for v in items)
        except ValueError:
            raise UsageError(f"bad split group {chunk!r}") from None

    return group(left), group(right)


def _require_connection(doc: ModelDocument) -> ConnectionModel:
    if doc.connection is None:
        raise UsageError("this model declares no connection (a Hamiltonian "
                         "section without first integrals); the requested "
                         "command needs one")
    return doc.connection


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{what} needs comma-separated numbers, "
                         f"got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{what} needs finite numbers, got {text!r}")
    return values


def _parse_directions(text: str, n: int) -> tuple[int, int]:
    try:
        i, j = (int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"--holonomy needs two base directions such as "
                         f"\"1,2\", got {text!r}") from None
    if not (1 <= i <= n and 1 <= j <= n):
        raise UsageError(f"--holonomy directions must lie in 1..{n}, "
                         f"got {text!r}")
    return i, j


def _metric_entry(value) -> Expr:
    """One `hj --metric` entry: an expression string or a finite number
    (JSON `true`, `null`, `NaN`, an overflowing literal or a list is none)."""
    if isinstance(value, str):
        return parse(value)
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return parse(str(value))
    raise UsageError(f"--metric entries must be finite numbers or expression "
                     f"strings, got {json.dumps(value)}")


def _load(args) -> ModelDocument:
    """Read and parse the model file, keeping its text for the digest of
    the JSON report."""
    try:
        with open(args.model, "r", encoding="utf-8") as handle:
            args._model_text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read model file: {exc}") from exc
    return load_model(args._model_text)


# ---------------------------------------------------------------------------
# Results and their text rendering
# ---------------------------------------------------------------------------

def _tensor_result(field, m: ConnectionModel, at: PointE | None) -> dict:
    entries = []
    env = at.env(m.bundle) if at is not None else None
    for idx, e in field.items():
        row = {"index": [i + 1 for i in idx], "expr": to_string(e)}
        if env is not None:
            row["value"] = 0.0 if is_zero(e) else evaluate(e, env)
        entries.append(row)
    return {
        "type": "tensor",
        "name": field.name,
        "signature": list(field.signature),
        "frame": {"horizontal": "H_i", "vertical": "V_A"},
        "entries": entries,
    }


def _components_result(name: str, labels: Sequence[str], exprs: Sequence[Expr],
                       m: ConnectionModel, at: PointE | None) -> dict:
    env = at.env(m.bundle) if at is not None else None
    entries = []
    for label, e in zip(labels, exprs):
        row = {"component": label, "expr": to_string(e)}
        if env is not None:
            row["value"] = 0.0 if is_zero(e) else evaluate(e, env)
        entries.append(row)
    return {"type": "components", "name": name,
            "frame": {"horizontal": "H_i", "vertical": "V_A"},
            "entries": entries}


def _print_tensor(result: dict):
    header = result["name"]
    if "signature" in result:
        header += f"  (slots: {', '.join(result['signature'])})"
    print(header)
    for row in result["entries"]:
        if "index" in row:
            label = "[" + ",".join(str(i) for i in row["index"]) + "]"
        else:
            label = row["component"]
        line = f"  {label:<18} {row['expr']}"
        if "value" in row:
            line += f"  = {row['value']:.12g}"
        print(line)


def _print_report(report: dict, indent: str = ""):
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{indent}{report['name']}: {status}  max_residual={report['max_residual']:.3e} "
          f"tol={report['tolerance']:.1e} samples={report['samples']}")
    for key, value in report.get("labels", {}).items():
        print(f"{indent}  {key} = {value}")
    for sub in report.get("subreports", []):
        _print_report(sub, indent + "  ")


def _print_result(result: dict):
    """Text rendering of one entry of the JSON document's `results`."""
    kind = result["type"]
    if kind in ("check", "classification"):
        _print_report(result)
    elif kind in ("tensor", "components"):
        _print_tensor(result)
    elif kind == "info":
        print(f"kind={result['kind']} n={result['n']} k={result['k']}")
        print("base:", ", ".join(result["base"]))
        print("fiber:", ", ".join(result["fiber"]))
        for A, row in enumerate(result.get("gamma", []), start=1):
            for i, e in enumerate(row, start=1):
                print(f"Gamma[{A},{i}] = {e}")
        if result.get("excluded"):
            print("excluded zero locus:", "; ".join(result["excluded"]))
    elif kind == "holonomy":
        i, j = result["directions"]
        print(f"holonomy defect/eps^2 around ({i},{j}) at "
              f"eps={result['eps']:g}:")
        for A, (probe, symbolic) in enumerate(
                zip(result["defect_over_eps2"], result["symbolic_curvature"]),
                start=1):
            print(f"  component {A}: probe={probe:.10g} "
                  f"symbolic={symbolic:.10g}")
    elif kind == "transport":
        flow = result["flow_final"]
        print(f"flow final: {tuple(flow['base'])} {tuple(flow['fiber'])} "
              f"[{result['status']}]")
        print(f"transported vector: {tuple(result['transported'])}")
        if "oracle" in result:
            print(f"oracle: {tuple(result['oracle'])} "
                  f"relative gap {result['oracle_relative_gap']:.3e}")
    elif kind == "homogeneous_sode":
        print("homogeneous extension forces:")
        for v, f in zip(result["velocities"], result["forces"]):
            print(f"  {v}: {f}")
    else:
        print(f"flow final state: {result['final']}")


# ---------------------------------------------------------------------------
# Verbs: each returns (results, status) and prints nothing
# ---------------------------------------------------------------------------

def _cmd_info(args) -> tuple[list, str]:
    doc = _load(args)
    bundle = doc.bundle
    info = {
        "type": "info",
        "kind": bundle.kind,
        "base": list(bundle.base_coords),
        "fiber": list(bundle.fiber_coords),
        "n": bundle.n,
        "k": bundle.k,
        "sections": {
            "connection": doc.connection is not None,
            "sode": doc.sode is not None,
            "hamiltonian": doc.hamiltonian is not None,
        },
    }
    if doc.connection is not None:
        info["gamma"] = [[to_string(e) for e in row]
                         for row in doc.connection.gamma]
        info["excluded"] = [to_string(e) for e in doc.connection.excluded]
    return [info], "ok"


def _gamma(m: ConnectionModel, name: str) -> _geometry.TensorField:
    return _geometry._tensor(name, (_geometry.FIBER_VEC, _geometry.BASE_COV),
                             (m.k, m.n), lambda A, i: m.gamma[A][i])


_TENSOR_BUILDERS = {
    "gamma": lambda m: _gamma(m, "gamma"),
    "linear-coeffs": _geometry.linear_coeffs,
    "tension": _geometry.tension,
    "curvature": _geometry.curvature,
    "vh-curvature": _geometry.vh_curvature,
    "hh-curvature": _geometry.hh_curvature,
    "hh-curvature-commutator": _geometry.hh_curvature_commutator,
    "torsion-form": _cotangent.torsion_form,
    "affine-coeffs-0": lambda m: _affine.affine_linearization(m).coeffs_0,
    "affine-coeffs-lin": lambda m: _affine.affine_linearization(m).coeffs_lin,
}

# Builders that need --section.
_SECTION_BUILDERS = {
    "integral-residual": _geometry.integral_section_residual,
    "pullback-coeffs": _geometry.pullback_connection_coeffs,
}

# Names that need --function.
_FUNCTION_NAMES = ("dh", "dv", "hamiltonian-field")


def _cmd_tensor(args) -> tuple[list, str]:
    doc = _load(args)
    m = _require_connection(doc)
    name = args.name
    if name not in (*_TENSOR_BUILDERS, *_SECTION_BUILDERS, *_FUNCTION_NAMES,
                    "jacobi", "homogenized-gamma"):
        raise UsageError(f"unknown tensor name {name!r}")
    # The homogenized model has coordinates of its own, so --at names none.
    for flag, value, applies in (
            ("--section", args.section, name in _SECTION_BUILDERS),
            ("--function", args.function, name in _FUNCTION_NAMES),
            ("--at", args.at, name != "homogenized-gamma")):
        if value is not None and not applies:
            raise UsageError(f"{flag} does not apply to --name {name}")
    at = _parse_point(args.at, m, "--at") if args.at is not None else None
    if name in _TENSOR_BUILDERS:
        result = _tensor_result(_TENSOR_BUILDERS[name](m), m, at)
    elif name == "jacobi":
        if doc.sode is None:
            raise UsageError("--name jacobi needs a model with a [sode] section")
        result = _tensor_result(_sode.jacobi_endomorphism(doc.sode), m, at)
    elif name == "homogenized-gamma":
        hom = _affine.homogenize(m).model
        result = _tensor_result(_gamma(hom, "homogenized_gamma"), hom, None)
    elif name in _SECTION_BUILDERS:
        if not args.section:
            raise UsageError(f"--name {name} needs --section")
        section = SectionModel(_parse_exprs(args.section, "--section"))
        result = _tensor_result(_SECTION_BUILDERS[name](m, section), m, at)
    else:
        if not args.function:
            raise UsageError(f"--name {name} needs --function")
        f, *rest = _parse_exprs(args.function, "--function")
        if rest:
            raise UsageError(f"--function has {1 + len(rest)} expressions, "
                             "expected 1")
        if name == "dh":
            title, comps = "horizontal_differential", _cotangent.dh(m, f)
            labels = [f"dx^{i+1}" for i in range(m.n)]
        elif name == "dv":
            title, comps = "vertical_differential", _cotangent.dv(m, f)
            labels = [f"d/dx^{i+1}" for i in range(m.n)]
        else:
            U = _cotangent.hamiltonian_field(m, f)
            title, comps = "hamiltonian_field", U.horizontal + U.vertical
            labels = [f"H_{i+1}" for i in range(m.n)] + \
                     [f"V^{A+1}" for A in range(m.k)]
        result = _components_result(title, labels, comps, m, at)
    return [result], "ok"


def _checks(args, suites: Sequence[str],
            section: str | None = None) -> tuple[list, str]:
    """Run the named check suites on the model's connection."""
    doc = _load(args)
    _require_connection(doc)
    parsed = (lambda: SectionModel(_parse_exprs(section, "--section"))) \
        if section else None
    reports = _suites.run_checks(doc, suites, args.samples, args.seed,
                                 args.tol, parsed)
    return _check_results(reports)


def _check_results(reports) -> tuple[list, str]:
    results = [{"type": "check", **report.to_dict()} for report in reports]
    return results, "pass" if all(r.passed for r in reports) else "fail"


def _cmd_check(args) -> tuple[list, str]:
    return _checks(args, [args.suite], args.section)


def _cmd_bianchi(args) -> tuple[list, str]:
    return _checks(args, ["bianchi", "tension-identities"])


def _cmd_transport(args) -> tuple[list, str]:
    doc = _load(args)
    m = _require_connection(doc)
    p0 = _parse_point(getattr(args, "from"), m, "--from")
    if args.holonomy:
        i, j = _parse_directions(args.holonomy, m.n)
        defect = _transport.holonomy_probe(m, p0, i - 1, j - 1, args.eps)
        symbolic = _transport.holonomy_curvature(m, p0, i - 1, j - 1)
        return [{
            "type": "holonomy",
            "directions": [i, j],
            "eps": args.eps,
            "defect_over_eps2": list(defect),
            "symbolic_curvature": list(symbolic),
        }], "ok"

    if not args.field:
        raise UsageError("transport needs --field (or --holonomy)")
    X = _parse_exprs(args.field, "--field")
    size = m.k + 1 if m.bundle.kind in ("affine", "jet") else m.k
    if args.fiber:
        b0 = _parse_floats(args.fiber, "--fiber")
    else:
        b0 = tuple(1.0 if idx == 0 else 0.0 for idx in range(size))
    spec = _transport.CurveSpec(start=p0, t_span=args.time, step=args.step,
                                field=X)
    result = _transport.parallel_transport(m, spec, b0)
    payload = {
        "type": "transport",
        "from": {"base": list(p0.base), "fiber": list(p0.fiber)},
        "time": args.time,
        "step": args.step,
        "flow_final": {"base": list(result.final.base),
                       "fiber": list(result.final.fiber)},
        "flow_status": result.status,
        "transported": list(result.final_fiber),
        "status": result.status,
        "steps": result.steps,
    }
    if args.oracle:
        if m.bundle.kind in ("affine", "jet"):
            raise UsageError("--oracle applies to vector-like models")
        oracle = _transport.transport_oracle(m, X, p0, b0, args.time,
                                             args.step, fd_eps=args.fd_eps,
                                             central=args.central)
        payload["oracle"] = list(oracle)
        payload["oracle_relative_gap"] = _transport.relative_gap(
            result.final_fiber, oracle)
    return [payload], "ok"


def _cmd_sode(args) -> tuple[list, str]:
    doc = _load(args)
    if doc.sode is None:
        raise UsageError("this model has no [sode] section")
    s = doc.sode
    m = _require_connection(doc)
    results: list = []
    if args.classify and not s.autonomous:
        raise UsageError("--classify applies to autonomous models")
    split = _parse_split(args.split) if args.split else None
    # --classify and --split check the same seeded sample set, in one pass.
    if args.classify or split:
        pts = sample_points(m, args.samples, seed=args.seed)
        suites = []
        if args.classify:
            suites.append(functools.partial(
                _sode.linearizability_report.suite, s, pts, args.tol))
        if split:
            suites.append(functools.partial(
                _sode.decoupling_check.suite, s, split, pts, args.tol))
        results += [{"type": "classification", **report.to_dict()}
                    for report in _geometry.run_suites(suites)]
    if args.jacobi:
        at = _parse_point(args.at, m, "--at") if args.at is not None else None
        results.append(_tensor_result(_sode.jacobi_endomorphism(s), m, at))
    if args.homogenize:
        if s.autonomous:
            raise UsageError("--homogenize applies to non-autonomous models")
        hom = _sode.homogeneous_sode(s)
        results.append({
            "type": "homogeneous_sode",
            "base": list(hom.base_coords),
            "velocities": list(hom.velocity_coords),
            "forces": [to_string(f) for f in hom.forces],
        })
    if args.flow:
        state0 = _parse_floats(args.flow, "--flow")
        flow = _transport.sode_flow(s, state0, args.time, args.step)
        results.append({
            "type": "flow",
            "state0": list(state0),
            "time": args.time,
            "step": args.step,
            "final": list(flow.final.base) + list(flow.final.fiber),
            "status": flow.status,
        })
    if not results:
        raise UsageError("sode verb needs at least one of --classify, "
                         "--split, --jacobi, --homogenize, --flow")
    return results, "ok"


def _cmd_hj(args) -> tuple[list, str]:
    if args.metric:
        try:
            rows = json.loads(args.metric)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad --metric payload: {exc}") from exc
        if not (isinstance(rows, list)
                and all(isinstance(row, list) for row in rows)):
            raise UsageError(f"--metric needs a JSON list of rows such as "
                             f"[[1,0],[0,1]], got {args.metric!r}")
        g_inv = [[_metric_entry(v) for v in row] for row in rows]
        ham = _cotangent.geodesic_model(g_inv)
        if args.integrals:
            integrals = _parse_exprs(args.integrals, "--integrals")
            ham = _cotangent.HamiltonianModel(bundle=ham.bundle, H=ham.H,
                                              first_integrals=integrals)
        doc = ModelDocument(bundle=ham.bundle, hamiltonian=ham,
                            source=f"metric:{args.metric}")
        if ham.first_integrals is not None:
            doc.connection = _cotangent.integrable_connection(ham)
        args._model_text = doc.source
    else:
        if not args.model:
            raise UsageError("hj needs a model file or --metric")
        doc = _load(args)
        if doc.hamiltonian is None:
            raise UsageError("hj needs a model with a [hamiltonian] section "
                             "(or --metric)")
        ham = doc.hamiltonian

    sampler = doc.connection if doc.connection is not None else \
        ConnectionModel(ham.bundle,
                        [[ZERO] * ham.bundle.n] * ham.bundle.k)
    pts = sample_points(sampler, args.samples, seed=args.seed)
    suites = []
    if ham.first_integrals is not None and doc.connection is not None:
        suites.append(functools.partial(_cotangent.integrable_report.suite,
                                        ham, doc.connection, pts, args.tol))
    if args.alpha:
        # --alpha is parsed when its check starts, as in a run of one check
        # after the other.
        suites.append(lambda: _cotangent.hj_verify.suite(
            ham, _cotangent.OneFormOnM(_parse_exprs(args.alpha, "--alpha")),
            pts, args.tol, doc.connection))
    reports = _geometry.run_suites(suites)
    if not reports:
        raise UsageError("hj needs --alpha and/or a first-integral family")
    return _check_results(reports)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linconn",
        description="Linearize nonlinear connections, evaluate their "
                    "tensors, run diagnostic checks and transports.")
    parser.add_argument("--version", action="version",
                        version=f"linconn {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("model", help="model file path")
        p.add_argument("--json", action="store_true",
                       help="emit a deterministic JSON document")
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("info", help="describe a model file")
    common(p)

    p = sub.add_parser("tensor", help="evaluate a named tensor")
    common(p)
    p.add_argument("--name", required=True)
    p.add_argument("--at", help="point, e.g. \"x1=0,u1=1\"")
    p.add_argument("--section", help="comma-separated section components")
    p.add_argument("--function", help="scalar function on the total space")

    p = sub.add_parser("check", help="run a diagnostic check suite")
    common(p)
    p.add_argument("--suite", default="all",
                   choices=["all", "homogeneous", "basic", "flat", "axioms",
                            "bianchi", "tension-identities", "affine",
                            "cotangent", "sode"])
    p.add_argument("--section", help="section for --suite basic")

    p = sub.add_parser("bianchi", help="curvature and tension identities")
    common(p)

    p = sub.add_parser("transport", help="flows, transport and holonomy")
    common(p)
    p.add_argument("--field", help="base vector field components")
    p.add_argument("--from", dest="from", default=None,
                   help="start point, e.g. \"x1=0,u1=1\"")
    p.add_argument("--fiber", help="transported vector components")
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3,
                   help="RK4 step of a --field transport; the --holonomy "
                        "legs step at |eps|/50")
    p.add_argument("--oracle", action="store_true",
                   help="compare against the fiber-derivative oracle")
    p.add_argument("--fd-eps", type=float, default=1e-5)
    p.add_argument("--central", action="store_true",
                   help="central differences in the oracle")
    p.add_argument("--holonomy", help="two base directions, e.g. \"1,2\"")
    p.add_argument("--eps", type=float, default=1e-2)

    p = sub.add_parser("sode", help="second-order equation diagnostics")
    common(p)
    p.add_argument("--classify", action="store_true")
    p.add_argument("--split", help="index split, e.g. \"1|2\"")
    p.add_argument("--jacobi", action="store_true")
    p.add_argument("--at")
    p.add_argument("--homogenize", action="store_true")
    p.add_argument("--flow", help="initial state, comma separated")
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)

    p = sub.add_parser("hj", help="Hamilton-Jacobi verification")
    p.add_argument("model", nargs="?", default=None, help="model file path")
    common(p, model=False)
    p.add_argument("--alpha", help="candidate 1-form components")
    p.add_argument("--metric", help="inverse metric as a JSON matrix")
    p.add_argument("--integrals", help="first integrals for --metric")
    return parser


_HANDLERS = {
    "info": _cmd_info,
    "tensor": _cmd_tensor,
    "check": _cmd_check,
    "bianchi": _cmd_bianchi,
    "transport": _cmd_transport,
    "sode": _cmd_sode,
    "hj": _cmd_hj,
}


def run(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 2
    args._argv = argv
    args._model_text = None
    handler = _HANDLERS[args.verb]
    try:
        if not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise UsageError(f"--tol must be a finite number >= 0, "
                             f"got {args.tol!r}")
        results, status = handler(args)
    except (UsageError, ModelError, ParseError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _memo.clear()
        _flat.clear()
    try:
        if args.json:
            doc = _document(args, args._model_text or "", results, status)
            text = emit_json(doc).decode("utf-8")
            # In pieces the stream buffers whole: a single larger write
            # that a closing reader cuts short is dropped without an error.
            for start in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
                sys.stdout.write(text[start:start + io.DEFAULT_BUFFER_SIZE])
        else:
            for result in results:
                _print_result(result)
            if status == "fail":
                print("status: FAIL")
        sys.stdout.flush()
    except BrokenPipeError:
        # What is still buffered goes to os.devnull, so that the flush at
        # exit cannot fail a second time.
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written",
              file=sys.stderr)
        return 2
    return 1 if status == "fail" else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
