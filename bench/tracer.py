"""Span tracer applied to linconn from outside, for the traced run only.

`Tracer.install` wraps every public function defined in a `linconn`
module and rebinds the wrapper in every `linconn` module namespace that
binds the original, so calls through `from .expr import simplify` and
through `geometry.curvature` are both seen. The program's source is not
touched, and nothing here is imported by an untraced run.

Span rules:
- a span records (id, name, start, end, parent id);
- a function already open on the stack (a recursive `simplify` or
  `diff`) opens no new span, but every entry counts toward its calls;
- a function's self time is its span minus the spans of the traced
  functions it calls, derived afterwards by `self_times`.

Work counters are computed here from arguments and return values, never
by the program: nodes and unique subtrees of the trees handed to
`compile_fn`, components x samples of `evaluate_components`, points
returned by `sample_points`, and the `.steps` of integrator results.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter

PACKAGE = "linconn"

# Integrators whose results carry `.steps` (RK4 steps taken).
INTEGRATORS = ("transport.horizontal_flow", "transport.parallel_transport",
               "transport.sode_flow")


def _modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if isinstance(mod, types.ModuleType)
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions() -> dict[str, types.FunctionType]:
    """Public functions defined in the linconn modules, by 'module.name'."""
    out = {}
    for mod in _modules():
        short = mod.__name__.rpartition(".")[2]
        for attr, value in vars(mod).items():
            if (isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                    and value.__name__ == attr):
                out[f"{short}.{attr}"] = value
    return out


class Tracer:
    """Holds spans and counters of one operation in memory."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._open: Counter[str] = Counter()
        self._seen_subtrees: set = set()
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.traced: list[str] = []

    # -- counters computed from arguments and results --------------------
    def _count_compiled(self, e):
        """Tree nodes (with multiplicity) and subtrees not yet seen in this
        operation, walking Expr.children()."""
        sizes: dict[int, int] = {}

        def size(node) -> int:
            got = sizes.get(id(node))
            if got is None:
                got = 1 + sum(size(c) for c in node.children())
                sizes[id(node)] = got
            return got

        self.counters["expr.compiled_nodes"] += size(e)
        todo = [e]
        seen = self._seen_subtrees
        while todo:
            node = todo.pop()
            if node in seen:
                continue
            seen.add(node)
            todo.extend(node.children())
        self.counters["expr.compiled_unique_nodes"] = len(seen)

    def _before(self, name: str, bound: inspect.BoundArguments):
        # Positional order, not parameter names: compile_fn(e, names) and
        # evaluate_components(m, comps, samples).
        args = list(bound.arguments.values())
        if name == "expr.compile_fn":
            self._count_compiled(args[0])
        elif name == "geometry.evaluate_components":
            self.counters["geometry.component_evals"] += \
                len(args[1]) * len(args[2])

    def _after(self, name: str, result):
        if name == "model.sample_points":
            self.counters["model.samples_returned"] += len(result)
        elif name in INTEGRATORS:
            self.counters["transport.rk4_steps"] += result.steps

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name: str, fn):
        hooked = name in ("expr.compile_fn", "geometry.evaluate_components")
        after = name == "model.sample_points" or name in INTEGRATORS
        signature = inspect.signature(fn) if hooked else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if self._open[name]:
                return fn(*args, **kwargs)
            if hooked:
                self._before(name, signature.bind(*args, **kwargs))
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            self._open[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._open[name] -= 1
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent))
            if after:
                self._after(name, result)
            return result

        return wrapper

    def install(self):
        originals = public_functions()
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in originals.items()}
        self.traced = sorted(originals)
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def self_times(spans) -> Counter:
    """Self time per function name: span duration minus child spans."""
    child_time: Counter = Counter()
    for _, _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: Counter = Counter()
    for span_id, name, start, end, _ in spans:
        out[name] += (end - start) - child_time[span_id]
    return out
