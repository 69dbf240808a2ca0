"""Per-layer metrics of a traced run, derived from spans, call counts and
work counters (see tracer.py).

Each metric names the traced functions it reads. A metric whose functions
are all gone from the program (a later refactor removed them) is reported
as absent, with value 0, instead of failing the benchmark.
"""

from __future__ import annotations

from collections import Counter

from tracer import INTEGRATORS, self_times

# Tensor builders of geometry; the rest of geometry other than
# evaluate_components is residual assembly in the check functions.
TENSOR_BUILDERS = tuple(f"geometry.{name}" for name in (
    "h_apply", "linear_coeffs", "covariant_derivative", "tension",
    "curvature", "vh_curvature", "hh_curvature", "hh_curvature_commutator",
    "dh_field", "dv_field"))

# (name, unit, better, kind, functions): kind is "self" (sum of self
# times), "calls" (sum of entries), "counter" (a tracer work counter, read
# by the first function's hook) or "module" (self time of every traced
# function of the module).
PER_LAYER = [
    ("expr.simplify_s", "s", "lower", "self", ("expr.simplify",)),
    ("expr.simplify_calls", "count", "lower", "calls", ("expr.simplify",)),
    ("expr.diff_s", "s", "lower", "self", ("expr.diff",)),
    ("expr.diff_calls", "count", "lower", "calls", ("expr.diff",)),
    ("geometry.tensor_s", "s", "lower", "self", TENSOR_BUILDERS),
    ("geometry.linear_coeffs_calls", "count", "lower", "calls",
     ("geometry.linear_coeffs",)),
    ("geometry.curvature_calls", "count", "lower", "calls",
     ("geometry.curvature",)),
    ("geometry.hh_curvature_calls", "count", "lower", "calls",
     ("geometry.hh_curvature",)),
    ("geometry.check_self_s", "s", "lower", "check", ()),
    ("expr.compile_fn_s", "s", "lower", "self", ("expr.compile_fn",)),
    ("expr.compile_fn_calls", "count", "lower", "calls", ("expr.compile_fn",)),
    ("expr.compiled_nodes", "count", "lower", "counter", ("expr.compile_fn",)),
    ("expr.compiled_unique_nodes", "count", "lower", "counter",
     ("expr.compile_fn",)),
    ("geometry.evaluate_components_s", "s", "lower", "self",
     ("geometry.evaluate_components",)),
    ("geometry.component_evals", "count", "lower", "counter",
     ("geometry.evaluate_components",)),
    ("model.sample_points_s", "s", "lower", "self", ("model.sample_points",)),
    ("model.samples_returned", "count", "lower", "counter",
     ("model.sample_points",)),
    ("affine.self_s", "s", "lower", "module", ("affine",)),
    ("sode.self_s", "s", "lower", "module", ("sode",)),
    ("cotangent.self_s", "s", "lower", "module", ("cotangent",)),
    ("transport.horizontal_flow_s", "s", "lower", "self",
     ("transport.horizontal_flow",)),
    ("transport.parallel_transport_s", "s", "lower", "self",
     ("transport.parallel_transport",)),
    ("transport.transport_oracle_s", "s", "lower", "self",
     ("transport.transport_oracle",)),
    ("transport.holonomy_probe_s", "s", "lower", "self",
     ("transport.holonomy_probe",)),
    ("transport.sode_flow_s", "s", "lower", "self", ("transport.sode_flow",)),
    ("transport.rk4_steps", "count", "lower", "counter", INTEGRATORS),
    ("transport.steps_per_s", "1/s", "higher", "rate", INTEGRATORS),
    ("model.load_model_s", "s", "lower", "self", ("model.load_model",)),
    ("expr.parse_s", "s", "lower", "self", ("expr.parse",)),
    ("cli.run_self_s", "s", "lower", "self", ("cli.run",)),
    ("cli.emit_json_s", "s", "lower", "self", ("cli.emit_json",)),
    ("expr.evaluate_calls", "count", "lower", "calls", ("expr.evaluate",)),
    ("trace.overhead_ratio", "1", "lower", "overhead", ()),
]


def derive(records: list[dict], overhead_ratio: float
           ) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of one traced pass.

    `records` are the worker records of the pass's operations, each with
    its spans, calls, counters and the list of traced functions. Returns
    (values, absent metric names).
    """
    selfs: Counter = Counter()
    calls: Counter = Counter()
    counters: Counter = Counter()
    traced: set[str] = set()
    for rec in records:
        selfs.update(self_times(rec["spans"]))
        calls.update(rec["calls"])
        counters.update(rec["counters"])
        traced.update(rec["traced"])

    def module_fns(module: str) -> list[str]:
        return [name for name in traced if name.startswith(module + ".")]

    check_fns = [name for name in module_fns("geometry")
                 if name not in TENSOR_BUILDERS
                 and name != "geometry.evaluate_components"]
    values: dict[str, float] = {}
    absent: list[str] = []
    for name, _, _, kind, fns in PER_LAYER:
        if kind == "module":
            fns = tuple(module_fns(fns[0]))
        elif kind == "check":
            fns = tuple(check_fns)
        if kind != "overhead" and not any(fn in traced for fn in fns):
            absent.append(name)
            values[name] = 0.0
        elif kind in ("self", "module", "check"):
            values[name] = sum(selfs[fn] for fn in fns)
        elif kind == "calls":
            values[name] = sum(calls[fn] for fn in fns)
        elif kind == "counter":
            values[name] = counters[name]
        elif kind == "rate":
            busy = sum(selfs[fn] for fn in fns)
            values[name] = counters["transport.rk4_steps"] / busy if busy else 0.0
        else:
            values[name] = overhead_ratio
    return values, absent
