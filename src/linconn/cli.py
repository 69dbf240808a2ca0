"""Command-line surface: it parses arguments, dispatches to the library
and renders the results, with no mathematics of its own.

Verbs: tensor, check, transport, sode, hj, bianchi, info. Each verb returns
the result dicts of its JSON document and prints nothing. The sampled
checks of check, bianchi, sode and hj run only through
`suites.run_checks`. One table, `_VERBS`, gives each verb's options;
the parser, the defaults and the refusals are built from it. `_NEEDS`
gives what a verb needs of its arguments and model, refused before work.
With --json the document is printed: fixed key order, floats with 17
significant digits, no timestamps. Otherwise `_print_result` renders each
result dict as text, so a run that fails part-way prints no partial
report. Exit codes: 0 success / all checks passed, 1 a check failed, 2
usage or validation errors; only `run` writes to stderr. No expression
is too deep to process; only source text nested deeper than the parser
takes (about 195 parentheses) is a parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import warnings
from typing import NamedTuple, Sequence

from . import __version__
from .expr import (EvalError, Expr, ParseError, _memo, evaluate, is_zero,
                   parse, to_string)
from .model import (_MAX_SAMPLES, AFFINE, VECTOR_LIKE, ConnectionModel,
                    ModelDocument, ModelError, PointE, SectionModel,
                    hamiltonian_document, load_model, validate_section)
from . import affine as _affine
from . import cotangent as _cotangent
from . import geometry as _geometry
from . import sode as _sode
from . import suites as _suites
from . import transport as _transport

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors raised as `UsageError`, so that each
    ends in one `error:` line like every other usage error."""

    def error(self, message):
        raise UsageError(message)


def _missing_value(message: str, argv: Sequence[str]) -> str:
    """argparse's `message` and, for an option given no value, how to pass
    one that begins with a minus sign, which argparse reads as an option.
    The value named is the first such argument after the option or a
    prefix of it, which argparse takes for the option."""
    flag, _, rest = message.removeprefix("argument ").partition(": ")
    if rest != "expected one argument":
        return message
    value = next((v for f, v in zip(argv, argv[1:])
                  if len(f) > 2 and flag.startswith(f)
                  and v.startswith("-") and not v.startswith("--")), "VALUE")
    return f"{message}; a value that begins with '-' is written {flag}={value}"


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


def _document(argv: list, source: str, results: list, status: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "linconn", "version": __version__},
        "model_digest": hashlib.sha256(source.encode("utf-8")).hexdigest(),
        "command": argv,
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
        warnings.warn(f"coordinates {missing} not specified; base defaults "
                      f"to 0, fiber to {fiber_default:g}")
    base = tuple(values.get(c, 0.0) for c in bundle.base_coords)
    fiber = tuple(values.get(c, fiber_default) for c in bundle.fiber_coords)
    return PointE(base=base, fiber=fiber)


def _parse_exprs(text: str, what: str, count=None) -> tuple[Expr, ...]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError(f"empty component in {what}")
        try:
            out.append(parse(chunk))
        except ParseError as exc:
            raise UsageError(f"cannot parse {what}: {exc}") from exc
    if count is not None and len(out) != count:
        raise UsageError(f"{what} has {len(out)} expressions, expected "
                         f"{count}")
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


def _parse_metric(text: str) -> list[list[Expr]]:
    """The rows of an `hj --metric` inverse metric: a JSON list of rows of
    expression strings and finite numbers (JSON `true`, `null`, `NaN`, an
    overflowing literal or a list is none)."""
    def entry(value) -> Expr:
        if isinstance(value, str):
            return parse(value)
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return parse(str(value))
        raise UsageError(f"--metric entries must be finite numbers or "
                         f"expression strings, got {json.dumps(value)}")

    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad --metric payload: {exc}") from exc
    if not (isinstance(rows, list)
            and all(isinstance(row, list) for row in rows)):
        raise UsageError(f"--metric needs a JSON list of rows such as "
                         f"[[1,0],[0,1]], got {text!r}")
    return [[entry(v) for v in row] for row in rows]


def _load(args) -> ModelDocument:
    """The run's document, once every `_NEEDS` row of its verb holds."""
    if getattr(args, "metric", None) is not None:
        ham = _cotangent.geodesic_model(_parse_metric(args.metric))
        integrals = _parse_exprs(args.integrals, "--integrals") \
            if args.integrals is not None else None
        doc = hamiltonian_document(ham.bundle, ham.H, integrals, (),
                                   f"metric:{args.metric}")
    elif args.verb == "hj" and not args.model:
        raise UsageError("hj needs a model file or --metric")
    else:
        try:
            with open(args.model, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeError) as exc:
            raise UsageError(f"cannot read model file: {exc}") from exc
        doc = load_model(text)
    for holds, message in _NEEDS.get(args.verb, ()):
        if not holds(args, doc):
            raise UsageError(message.format_map(vars(args)))
    return doc


# ---------------------------------------------------------------------------
# Results and their text rendering
# ---------------------------------------------------------------------------

def _components_result(name: str, items, m: ConnectionModel,
                       at: PointE | None,
                       signature: Sequence[str] | None = None) -> dict:
    """A `components` result of (label, expression) `items`; with a
    `signature`, a `tensor` result whose labels are 0-based indices."""
    env = at.env(m.bundle) if at is not None else None
    entries = []
    for label, e in items:
        row = {"component": label} if signature is None else \
            {"index": [i + 1 for i in label]}
        row["expr"] = to_string(e)
        if env is not None:
            row["value"] = 0.0 if is_zero(e) else evaluate(e, env)
        entries.append(row)
    head = {"type": "components", "name": name} if signature is None else \
        {"type": "tensor", "name": name, "signature": list(signature)}
    return {**head, "frame": {"horizontal": "H_i", "vertical": "V_A"},
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
        print(f"flow final state: {result['final']} [{result['status']}]")


# ---------------------------------------------------------------------------
# Verbs: each takes (args, doc), returns (results, status), prints nothing
# ---------------------------------------------------------------------------

def _cmd_info(args, doc: ModelDocument) -> tuple[list, str]:
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
_TENSOR_NAMES = (*_TENSOR_BUILDERS, *_SECTION_BUILDERS, *_FUNCTION_NAMES,
                 "jacobi", "homogenized-gamma")


def _cmd_tensor(args, doc: ModelDocument) -> tuple[list, str]:
    m, name = doc.connection, args.name
    at = _parse_point(args.at, m, "--at") if args.at is not None else None
    if name in _TENSOR_BUILDERS:
        field = _TENSOR_BUILDERS[name](m)
    elif name == "jacobi":
        field = _sode.jacobi_endomorphism(doc.sode)
    elif name == "homogenized-gamma":
        m = _affine.homogenize(m)
        field = _gamma(m, "homogenized_gamma")
    elif name in _SECTION_BUILDERS:
        section = SectionModel(_parse_exprs(args.section, "--section"))
        field = _SECTION_BUILDERS[name](m, section)
    else:
        f, = _parse_exprs(args.function, "--function", 1)
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
        return [_components_result(title, zip(labels, comps), m, at)], "ok"
    return [_components_result(field.name, field.items(), m, at,
                               field.signature)], "ok"


def _checks(args, doc: ModelDocument, suites: Sequence[str],
            kind: str = "check", **options) -> tuple[list, str]:
    """The reports of the named suites, as results of type `kind`, and
    the status they give."""
    reports = _suites.run_checks(doc, suites, args.samples, args.seed,
                                 args.tol, **options)
    results = [{"type": kind, **report.to_dict()} for report in reports]
    return results, "pass" if all(r.passed for r in reports) else "fail"


def _cmd_check(args, doc: ModelDocument) -> tuple[list, str]:
    section = None
    if args.section is not None:
        section = SectionModel(_parse_exprs(args.section, "--section"))
        validate_section(doc.connection, section)
    return _checks(args, doc, [args.suite], section=section)


def _cmd_bianchi(args, doc: ModelDocument) -> tuple[list, str]:
    return _checks(args, doc, ["bianchi", "tension-identities"])


def _cmd_transport(args, doc: ModelDocument) -> tuple[list, str]:
    m = doc.connection
    p0 = _parse_point(getattr(args, "from"), m, "--from")
    if args.holonomy is not None:
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

    X = _parse_exprs(args.field, "--field")
    size = m.k + 1 if m.bundle.kind in AFFINE else m.k
    b0 = _parse_floats(args.fiber, "--fiber") if args.fiber is not None \
        else tuple(1.0 if idx == 0 else 0.0 for idx in range(size))
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
        oracle = _transport.transport_oracle(
            m, X, p0, b0, args.time, args.step, fd_eps=args.fd_eps,
            central=args.central)
        payload["oracle"] = list(oracle)
        payload["oracle_relative_gap"] = _transport.relative_gap(
            result.final_fiber, oracle)
    return [payload], "ok"


def _cmd_sode(args, doc: ModelDocument) -> tuple[list, str]:
    s, m = doc.sode, doc.connection
    split = s.split(_parse_split(args.split)) if args.split is not None \
        else None
    at = _parse_point(args.at, m, "--at") if args.at is not None else None
    state0 = s.state(_parse_floats(args.flow, "--flow")) \
        if args.flow is not None else None
    # --classify and --split check the same seeded sample set, in one pass.
    names = ["sode"] * args.classify + ["decoupling"] * (split is not None)
    results = _checks(args, doc, names, "classification",
                      split=split)[0] if names else []
    if args.jacobi:
        phi = _sode.jacobi_endomorphism(s)
        results.append(_components_result(phi.name, phi.items(), m, at,
                                          phi.signature))
    if args.homogenize:
        hom = _sode.homogeneous_sode(s)
        results.append({
            "type": "homogeneous_sode",
            "base": list(hom.base_coords),
            "velocities": list(hom.velocity_coords),
            "forces": [to_string(f) for f in hom.forces],
        })
    if state0 is not None:
        flow = _transport.sode_flow(s, state0, args.time, args.step)
        results.append({
            "type": "flow",
            "state0": list(state0),
            "time": args.time,
            "step": args.step,
            "final": list(flow.final.base) + list(flow.final.fiber),
            "status": flow.status,
        })
    return results, "ok"


def _cmd_hj(args, doc: ModelDocument) -> tuple[list, str]:
    alpha = doc.hamiltonian.one_form(_parse_exprs(args.alpha, "--alpha")) \
        if args.alpha is not None else None
    names = ["integrable"] * (doc.connection is not None) + \
        ["hamilton-jacobi"] * (alpha is not None)
    return _checks(args, doc, names, alpha=alpha)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Option(NamedTuple):
    """One option of one verb. Left out, it parses as None and takes
    `default`. Given, it is refused as `--flag does not apply <phrase>` by
    the first (phrase, reads) of `modes` where `reads(args)` is false, or
    as `--flag must be <what>` where `check`, (test, what), fails."""
    flag: str
    dest: str
    help: str | None
    default: object
    modes: tuple
    check: tuple | None
    settings: dict


def _opt(flag: str, help: str | None = None, default=None, modes=(),
         check=None, **settings) -> _Option:
    if default is not None:
        shown = format(default, "g") if isinstance(default, float) else default
        help = f"{help} (default {shown})"
    return _Option(flag, flag.lstrip("-").replace("-", "_"), help, default,
                   tuple(modes), check, settings)


_MODEL = _opt("model", "model file path")
_JSON = _opt("--json", "emit a deterministic JSON document",
             action="store_true")
_TO_HOLONOMY = ("to --holonomy", lambda a: a.holonomy is None)
_ORACLE = ("without --oracle", lambda a: a.oracle)
_FLOW = ("without --flow", lambda a: a.flow is not None)


def _sampling(*modes) -> tuple[_Option, ...]:
    return (_opt("--samples", "sample points", 100, modes,
                 (lambda v: 1 <= v <= _MAX_SAMPLES,
                  f"an integer from 1 to {_MAX_SAMPLES}"), type=int),
            _opt("--seed", "seed of the sample points", 0, modes,
                 (lambda v: v >= 0, "an integer >= 0"), type=int),
            _opt("--tol", "residual tolerance", 1e-8, modes,
                 (lambda v: math.isfinite(v) and v >= 0,
                  "a finite number >= 0"), type=float))


# Per verb: its handler, its help and its options, in the order of --help.
_VERBS = {
    "info": (_cmd_info, "describe a model file", (_MODEL, _JSON)),
    "tensor": (_cmd_tensor, "evaluate a named tensor", (
        _MODEL, _JSON,
        _opt("--name", check=(lambda v: v in _TENSOR_NAMES,
                              "one of " + ", ".join(_TENSOR_NAMES)),
             required=True),
        # The homogenized model has coordinates of its own: --at names none.
        _opt("--at", "point, e.g. \"x1=0,u1=1\"", modes=[
            ("to --name {name}", lambda a: a.name != "homogenized-gamma")]),
        _opt("--section", "comma-separated section components", modes=[
            ("to --name {name}", lambda a: a.name in _SECTION_BUILDERS)]),
        _opt("--function", "scalar function on the total space", modes=[
            ("to --name {name}", lambda a: a.name in _FUNCTION_NAMES)]))),
    "check": (_cmd_check, "run a diagnostic check suite", (
        _MODEL, _JSON, *_sampling(),
        _opt("--suite", "check suite", "all",
             choices=["all", *(e.name for e in _suites.SUITES
                               if e.all_kinds)]),
        _opt("--section", "section for --suite basic", modes=[
            ("to --suite {suite}", lambda a: a.suite in ("basic", "all"))]))),
    "bianchi": (_cmd_bianchi, "curvature and tension identities",
                (_MODEL, _JSON, *_sampling())),
    "transport": (_cmd_transport, "flows, transport and holonomy", (
        _MODEL, _JSON,
        _opt("--field", "base vector field components", modes=[_TO_HOLONOMY]),
        _opt("--from", "start point, e.g. \"x1=0,u1=1\""),
        _opt("--fiber", "transported vector components", modes=[_TO_HOLONOMY]),
        _opt("--time", "flow time", 1.0, [_TO_HOLONOMY], type=float),
        _opt("--step", "RK4 step", 1e-3, [_TO_HOLONOMY], type=float),
        _opt("--oracle", "compare against the fiber-derivative oracle",
             modes=[_TO_HOLONOMY], action="store_true"),
        _opt("--fd-eps", "finite-difference step of the oracle", 1e-5,
             [_TO_HOLONOMY, _ORACLE], type=float),
        _opt("--central", "central differences in the oracle",
             modes=[_TO_HOLONOMY, _ORACLE], action="store_true"),
        _opt("--holonomy", "two base directions, e.g. \"1,2\""),
        _opt("--eps", "side of the holonomy rectangle, whose legs step at "
             "|eps|/50", 1e-2,
             [("without --holonomy", lambda a: a.holonomy is not None)],
             type=float))),
    "sode": (_cmd_sode, "second-order equation diagnostics", (
        _MODEL, _JSON,
        *_sampling(("without --classify or --split",
                    lambda a: a.classify or a.split is not None)),
        _opt("--classify", action="store_true"),
        _opt("--split", "index split, e.g. \"1|2\""),
        _opt("--jacobi", action="store_true"),
        _opt("--at", modes=[("without --jacobi", lambda a: a.jacobi)]),
        _opt("--homogenize", action="store_true"),
        _opt("--flow", "initial state, comma separated"),
        _opt("--time", "flow time", 1.0, [_FLOW], type=float),
        _opt("--step", "RK4 step", 1e-3, [_FLOW], type=float))),
    "hj": (_cmd_hj, "Hamilton-Jacobi verification", (
        _opt("model", "model file path", nargs="?"), _JSON, *_sampling(),
        _opt("--alpha", "candidate 1-form components"),
        _opt("--metric", "inverse metric as a JSON matrix",
             modes=[("to a model file", lambda a: not a.model)]),
        _opt("--integrals", "first integrals for --metric",
             modes=[("without --metric", lambda a: a.metric is not None)]))),
}

_CONNECTION = (lambda a, d: d.connection is not None,
               "this model declares no connection (a Hamiltonian section "
               "without first integrals); the requested command needs one")
# Per verb: what a run needs of its arguments `a` and its model `d`, as
# ordered (holds(a, d), message) rows; `_load` refuses the first that fails.
_NEEDS = {
    "tensor": (
        _CONNECTION,
        (lambda a, d: a.name != "jacobi" or d.sode is not None,
         "--name jacobi needs a model with a [sode] section"),
        (lambda a, d: a.name not in _SECTION_BUILDERS or a.section,
         "--name {name} needs --section"),
        (lambda a, d: a.name not in _FUNCTION_NAMES or a.function,
         "--name {name} needs --function")),
    "check": (_CONNECTION,),
    "bianchi": (_CONNECTION,),
    "transport": (
        _CONNECTION,
        (lambda a, d: a.field or a.holonomy is not None,
         "transport needs --field (or --holonomy)"),
        (lambda a, d: a.holonomy is None or d.bundle.n >= 2,
         "holonomy probes need at least two base directions"),
        (lambda a, d: not a.oracle or d.bundle.kind in VECTOR_LIKE,
         "--oracle applies to vector-like models")),
    "sode": (
        (lambda a, d: d.sode is not None, "this model has no [sode] section"),
        (lambda a, d: not a.classify or d.sode.autonomous,
         "--classify applies to autonomous models"),
        (lambda a, d: not a.homogenize or not d.sode.autonomous,
         "--homogenize applies to non-autonomous models"),
        (lambda a, d: a.classify or a.jacobi or a.homogenize
         or a.split is not None or a.flow is not None,
         "sode verb needs at least one of --classify, --split, --jacobi, "
         "--homogenize, --flow")),
    "hj": (
        (lambda a, d: d.hamiltonian is not None,
         "hj needs a model with a [hamiltonian] section (or --metric)"),
        (lambda a, d: a.alpha is not None or d.connection is not None,
         "hj needs --alpha and/or a first-integral family")),
}


def _parser(verb: str | None) -> argparse.ArgumentParser:
    """The parser of every verb, with the options of `verb` alone."""
    parser = _Parser(
        prog="linconn",
        description="Linearize nonlinear connections, evaluate their "
                    "tensors, run diagnostic checks and transports.")
    parser.add_argument("--version", action="version",
                        version=f"linconn {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (_, help, options) in _VERBS.items():
        p = sub.add_parser(name, help=help)
        for option in options if name == verb else ():
            p.add_argument(option.flag, help=option.help, **option.settings)
    return parser


def _apply_options(args):
    """Give each option left out its default, then refuse each one given,
    in the order of the table, as its `_Option` says."""
    values, options = vars(args), _VERBS[args.verb][2]
    given = [o for o in options
             if values[o.dest] is not None and values[o.dest] is not False]
    values.update([(o.dest, o.default) for o in options
                   if values[o.dest] is None])
    for option in given:
        for phrase, reads in option.modes:
            if not reads(args):
                raise UsageError(f"{option.flag} does not apply "
                                 f"{phrase.format_map(values)}")
        value = values[option.dest]
        if option.check and not option.check[0](value):
            raise UsageError(f"{option.flag} must be {option.check[1]}, "
                             f"got {value!r}")


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command line. Its report goes to stdout; stderr gets one
    `error:` line on exit 2, else one `warning:` line per distinct note or
    library warning of the run."""
    argv = list(sys.argv[1:] if argv is None else argv)
    verb = next((a for a in argv if not a.startswith("-")), None)
    try:
        args = _parser(verb).parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 2
    except UsageError as exc:
        print(f"error: {_missing_value(str(exc), argv)}", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _apply_options(args)
            doc = _load(args)
            results, status = _VERBS[args.verb][0](args, doc)
    except (UsageError, ModelError, ParseError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _memo.clear()
    try:
        if args.json:
            text = emit_json(_document(argv, doc.source, results,
                                       status)).decode("utf-8")
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
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return 1 if status == "fail" else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
