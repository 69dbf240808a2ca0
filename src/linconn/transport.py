"""Numerical integration: horizontal flows, linearized parallel transport,
the fiber-derivative transport oracle and holonomy probes.

Every integration runs through one core, `_rk4`. An entry point only
describes its state layout: the names of the state slots and one
right-hand-side expression per slot. The core generates the whole
classical fixed-step RK4 loop as one Python function on plain floats
(`_kernel`), with the state slots as locals and each stage rendered from
the same plan as `compile_vector`, single-reader entries inline
(`expr._render`); reproducibility and a clean convergence order beat
adaptivity at this scale. A flow returns its end state, the number of
steps it took and its status, and keeps nothing per step. A faulting
step is taken once more stage by stage (`_replay`), which names the
subexpression and the point.

The kernel runs lean rows, which end every flow on the bits, step count,
status and fault of the full rows. A lift or transport row is a sum
-(0.0 + p1 + p2 + ...) of products, added and multiplied left to right
(`_flow_rows`). Its lean form keeps the leading `0.0 +`, which turns a
-0.0 first term into 0.0. So the running sum is never -0.0, and adding a
product of zero (+-0.0) leaves it as it is. Such a product is skipped
where each of its other factors is a constant, a base velocity, or a
factor of a product without a zero factor. An inf or nan in such a
factor, which would make the skipped product nan, then leaves the lean
row non-finite too, so the step faults either way. Factors 1.0 are
dropped: x*1.0 == x for every float. `_kernel` folds each row's
negation into the step. `_replay` explains a fault on the full rows:
after a skipped nan, a lean row can step on to another fault later in
the same step.

A transport and its oracle share one run (`transport_and_oracle`): each
perturbed start fiber of the oracle is one more copy of the fiber in the
transport's state, renamed apart and moved by the lift alone. A row reads
only the base and its own slots, so each copy steps as the flow from its
start would alone. Its lean rows may skip more products of zero, since
more factors are live in the joint run; in a run that ends `ok` every
live factor stayed finite, so those products were +-0.0 and the bits are
those of the separate flows. A run that ends any other way is run again
as the separate flows, which give the statuses and the messages.

Rules shared by every integration:

- The step must be a positive finite number and the time span finite
  and at most `_MAX_STEPS` steps long, else `ModelError`. The core takes
  max(1, round(|T|/step)) equal steps of T/steps, so a negative span
  integrates backwards.
- A flow ends with a status. `ok`: it ran the full span.
  `truncated:<t>`: it left a declared box. `excluded:<t>`: an
  excluded-set predicate came within 1e-6 of zero at a step end, or
  changed sign between two consecutive step ends (a step that jumped
  over the locus). A stopped flow ends at the last state before
  <t>; nothing is extrapolated.
- A non-finite state, or a right-hand side undefined at a stage, raises
  `ModelError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Mapping, Sequence

from .expr import (
    Const, EvalError, Expr, Neg, ONE, Var, ZERO, _define, _memo, _plan,
    _render, compile_vector, diff, evaluate, is_zero, substitute,
)
from .affine import affine_linearization
from .geometry import TensorField, _tensor, curvature, linear_coeffs
from .model import (AFFINE, ConnectionModel, ModelError, PointE, _fresh,
                    require_coords)

__all__ = [
    "CurveSpec", "FlowResult", "TransportResult", "horizontal_flow",
    "parallel_transport", "transport_oracle", "transport_and_oracle",
    "relative_gap", "holonomy_probe", "holonomy_curvature", "sode_flow",
]


# Distance from an excluded-set predicate's zero at which a step end counts
# as on the locus.
_MARGIN = 1e-6

# The most steps one integration may take: 100 times the longest flow
# (1e5 steps) that the benchmark or the tests run.
_MAX_STEPS = 10 ** 7


@dataclass(frozen=True)
class CurveSpec:
    """A base curve for transport: either flow-generated by a base vector
    field, an explicit parameterized curve c(t), or a vertical (fiber-only)
    curve along which transport is trivial."""

    start: PointE
    t_span: float
    step: float = 1e-3
    field: tuple[Expr, ...] | None = None      # base vector field X(x)
    curve: tuple[Expr, ...] | None = None      # parameterized c(t), parameter "t"
    vertical: bool = False

    def __post_init__(self):
        _check_span(self.t_span, self.step)
        modes = sum((self.field is not None, self.curve is not None,
                     self.vertical))
        if modes != 1:
            raise ModelError("curve must be exactly one of: flow-generated, "
                             "parameterized, vertical")


@dataclass
class FlowResult:
    """The end of a flow in the total space."""

    final: PointE
    steps: int
    status: str = "ok"    # ok | truncated:<t> | excluded:<t>


@dataclass
class TransportResult:
    """The end of a transport: the point the joint horizontal flow reached
    and the transported vector there."""

    final: PointE
    final_fiber: tuple[float, ...]
    steps: int
    status: str = "ok"


def _check_span(T: float, step: float):
    """The step and time rules shared by every integration."""
    if not (math.isfinite(step) and step > 0.0):
        raise ModelError(f"step must be a positive finite number, got {step!r}")
    if not (math.isfinite(T) and abs(T) / step <= _MAX_STEPS):
        raise ModelError(f"time span must be finite and take at most "
                         f"{_MAX_STEPS} steps, got {T!r} at step {step!r}")


def _rk4(names: Sequence[str], rhs: Sequence[Expr], y0: Sequence[float],
         T: float, step: float, excluded: Sequence[Expr] = (),
         box: Mapping[str, tuple[float, float]] | None = None,
         lean: Sequence[Expr] | None = None):
    """The integrator core: classical fixed-step RK4 on the state whose
    slots are `names`, with one right-hand-side expression per slot, run
    as one generated kernel (`_kernel`), built once per distinct flow and
    kept in the expression memo. The kernel runs `lean`, rows that step
    bit for bit as `rhs` does (by default `rhs` itself). Returns
    (final_state, steps, status): the last state kept, as a list of
    floats, and the number of steps that reached it."""
    _check_span(T, step)
    bounded = [slot for slot, name in enumerate(names)
               if box is not None and name in box]
    n_steps = max(1, int(round(abs(T) / step)))
    h = T / n_steps
    lean = tuple(rhs if lean is None else lean)
    key = (tuple(names), lean, tuple(excluded), tuple(bounded))
    kernel = _memo.get(key)
    if kernel is None:
        kernel = _memo[key] = _kernel(names, lean, excluded, bounded)
    # Plain floats: on numpy scalars a division by zero gives inf.
    y, steps, t, status = kernel([float(v) for v in y0], n_steps, h, 0.5 * h,
                                 h / 6.0, [box[names[slot]] for slot in bounded])
    if status is None:
        _replay(names, rhs, excluded, y, t, h)
    if status != "ok":
        status = f"{status}:{t:.6g}"
    return y, steps, status


def _kernel(names: Sequence[str], rhs: Sequence[Expr],
            excluded: Sequence[Expr], bounded: Sequence[int]):
    """Generate the whole fixed-step loop of `_rk4` as one function
    `(y, n_steps, h, half, sixth, bounds) -> (state, steps, t, status)`.

    The state slots are locals, and each of the four stages is the plan of
    `rhs` rendered inline on that stage's input. Each step computes, in
    this order, `y + half*k1`, `y + half*k2`, `y + h*k3` and
    `y + sixth*(((k1 + 2k2) + 2k3) + k4)`; another association changes the
    last bits of every flow. A row -a is rendered as a, and its slot steps
    as `y - half*a` and `y + sixth*(((-a1 - 2a2) - 2a3) - a4)`: IEEE
    negation is exact, and x + (-y) is x - y bit for bit, signed zeros
    included. (`y - sixth*(((a1 + 2a2) + 2a3) + a4)` is not: a sum of
    zeros of both signs is 0.0 whichever way they are negated, and
    -0.0 - 0.0 is -0.0 where -0.0 + 0.0 is 0.0.) A step end is checked as
    the rules above say: every slot finite, then the excluded-set
    predicates, then the box `bounds`, one (lo, hi) pair per slot in
    `bounded`. `t` is summed step by step. The status is "ok", "excluded"
    or "truncated", the last two with the state before the step and the
    time after it. On a fault (an arithmetic or domain error anywhere in a
    step, or a non-finite state) the status is None, with the state and
    time at the start of the faulting step, for `_replay` to explain.
    """
    count = len(names)
    negated = [type(row) is Neg for row in rhs]
    body = [row.arg if neg else row for row, neg in zip(rhs, negated)]
    rhs_plan, test_plan = _plan(body, names), _plan(excluded, names)
    state = [f"s{i}" for i in range(count)]
    new = [f"n{i}" for i in range(count)]
    previous = [f"w{j}" for j in range(len(excluded))]
    keep = f"[{', '.join(state)}]"

    step, inputs, ks = [], state, []
    for k, scale in enumerate(("half", "half", "h", None), 1):
        lines, out = _render(rhs_plan, inputs, f"t{k}_")
        step += lines
        ks.append(out)
        if scale:
            inputs = [f"x{k}_{i}" for i in range(count)]
            step += [f"{x} = {s} {'-' if neg else '+'} {scale} * {c}"
                     for x, s, c, neg in zip(inputs, state, out, negated)]
    for n, s, neg, (a, b, c, d) in zip(new, state, negated, zip(*ks)):
        if neg:
            total = f"((-{a} - 2.0 * {b}) - 2.0 * {c}) - {d}"
        else:
            total = f"(({a} + 2.0 * {b}) + 2.0 * {c}) + {d}"
        step.append(f"{n} = {s} + sixth * ({total})")
    step += [f"if not ({' and '.join(f'_isfinite({n})' for n in new)}):",
             f"    return {keep}, steps, t, None"]
    tests, tested = _render(test_plan, new, "p")
    step += tests
    start, started = _render(test_plan, state, "p")
    start += [f"{w} = {p}" for w, p in zip(previous, started)]

    code = [f"{', '.join(state)}, = y"]
    if bounded:
        code.append(", ".join(f"(lo{j}, hi{j})" for j in range(len(bounded)))
                    + ", = bounds")
    code.append("t = 0.0")
    if excluded:
        code += ["try:", *_indent(start),
                 "except (ArithmeticError, ValueError):",
                 "    return y, 0, t, None"]
    loop = ["try:", *_indent(step),
            "except (ArithmeticError, ValueError):",
            f"    return {keep}, steps, t, None",
            "t += h"]
    if excluded:
        near = " or ".join(f"abs({p}) < {_MARGIN!r} or {p} * {w} < 0.0"
                           for p, w in zip(tested, previous))
        loop += [f"if {near}:", f"    return {keep}, steps, t, 'excluded'"]
    if bounded:
        inside = " and ".join(f"lo{j} <= {new[slot]} <= hi{j}"
                              for j, slot in enumerate(bounded))
        loop += [f"if not ({inside}):",
                 f"    return {keep}, steps, t, 'truncated'"]
    loop += [f"{a} = {b}" for a, b in zip(state + previous, new + tested)]
    code += ["for steps in range(n_steps):", *_indent(loop),
             f"return {keep}, n_steps, t, 'ok'"]
    source = ("def _f(y, n_steps, h, half, sixth, bounds):\n"
              + "".join(f"    {line}\n" for line in code))
    return _define(source, _isfinite=math.isfinite)


def _indent(lines: Sequence[str]) -> list[str]:
    return ["    " + line for line in lines]


def _replay(names: Sequence[str], rhs: Sequence[Expr],
            excluded: Sequence[Expr], y: list, t: float, h: float):
    """Raise the ModelError of the step from state `y` at time `t` that
    the kernel stopped in, by taking it once more stage by stage through
    `compile_vector`, which names the faulting subexpression and point."""
    f = compile_vector(rhs, names)
    predicates = compile_vector(excluded, names)
    half, sixth = 0.5 * h, h / 6.0
    try:
        predicates(y)
        k1 = f(y)
        k2 = f([a + half * k for a, k in zip(y, k1)])
        k3 = f([a + half * k for a, k in zip(y, k2)])
        k4 = f([a + h * k for a, k in zip(y, k3)])
        new = [a + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
               for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        t += h
        if not all(map(math.isfinite, new)):
            raise ModelError(f"non-finite state at t={t:.6g}")
        predicates(new)
    except EvalError as exc:
        raise ModelError(f"right-hand side undefined near t={t:.6g}: "
                         f"{exc}") from None
    raise RuntimeError(f"RK4 kernel stopped at t={t:.6g} on a step that "
                       f"replays without a fault")


def _on_base(m: ConnectionModel, what: str, exprs: Sequence[Expr],
             allowed: Sequence[str]) -> tuple[Expr, ...]:
    """`exprs` as the components of a base `what`: one per base
    direction, each using only the names `allowed`."""
    if len(exprs) != m.n:
        raise ModelError(f"{what} needs {m.n} components")
    require_coords(what + "[{}]", exprs, allowed)
    return tuple(exprs)


def _lift(m: ConnectionModel, xdot: Sequence[Expr]) -> list[list[tuple]]:
    """The fiber rows of the horizontal lift of base velocities, as
    products for `_flow_rows`: udot^A = -sum_i Gamma[A][i] xdot^i."""
    return [[(m.gamma[A][i], xdot[i]) for i in range(m.n)]
            for A in range(m.k)]


def _flow_rows(xdot: Sequence[Expr], sums: Sequence[Sequence[tuple]]):
    """The rows of a flow whose first slots move with the base velocities
    `xdot`, and each further slot with -(0.0 + p1 + p2 + ...): one product
    per factor tuple of its entry in `sums`, added and multiplied left to
    right. Returns the full rows and their lean form (see the module
    docstring)."""
    def has_zero(factors):
        return any(map(is_zero, factors))

    live = set(xdot).union(*(factors for terms in sums for factors in terms
                             if not has_zero(factors)))
    rows, lean = list(xdot), list(xdot)
    for terms in sums:
        total = kept = ZERO
        for factors in terms:
            total = total + reduce(mul, factors)
            if not (has_zero(factors) and all(
                    type(f) is Const or f in live for f in factors)):
                kept = kept + reduce(
                    mul, [f for f in factors if f is not ONE] or [ONE])
        rows.append(-total)
        lean.append(-kept)
    return rows, lean


def horizontal_flow(m: ConnectionModel, X: Sequence[Expr], p0: PointE,
                    T: float, step: float,
                    box: Mapping[str, tuple[float, float]] | None = None) -> FlowResult:
    """Integrate the horizontal lift of a base vector field. Along the
    resulting curve the fiber point is parallel for the nonlinear
    connection."""
    X = _on_base(m, "base vector field", X, m.bundle.base_coords)
    rows, lean = _flow_rows(X, _lift(m, X))
    y, steps, status = _rk4(m.bundle.coords, rows, p0.values(m.bundle), T,
                            step, m.excluded, box, lean)
    return FlowResult(final=PointE(base=tuple(y[:m.n]), fiber=tuple(y[m.n:])),
                      steps=steps, status=status)


def _transported_size(m: ConnectionModel) -> int:
    """The length of a transported vector: k + 1 on the affine kinds,
    whose transport carries the distinguished component, and k otherwise."""
    return m.k + 1 if m.bundle.kind in AFFINE else m.k


def _transport_coeffs(m: ConnectionModel) -> TensorField:
    """Transport coefficients [A][i][B], a tensor of expressions.

    Vector-like bundles transport k-vectors with the linearized
    coefficients. Affine and jet bundles transport extended (k+1)-vectors;
    the distinguished component has a zero row, so it stays constant.
    """
    if m.bundle.kind not in AFFINE:
        return linear_coeffs(m)
    lin = affine_linearization(m)

    def rule(A: int, i: int, B: int) -> Expr:
        if A == 0:
            return ZERO
        if B == 0:
            return lin.coeffs_0[A - 1, i]
        return lin.coeffs_lin[A - 1, i, B - 1]

    size = _transported_size(m)
    return _tensor("transport_coeffs", lin.coeffs_lin.signature,
                   (size, m.n, size), rule)


def parallel_transport(m: ConnectionModel, curve: CurveSpec,
                       b0: Sequence[float]) -> TransportResult:
    """Linearized parallel transport along a base curve.

    Along a horizontal curve the transported vector solves
    bdot^A + coeff[A][i][B](x(t), u(t)) xdot^i b^B = 0, integrated jointly
    with the nonlinear horizontal flow. Along vertical curves transport is
    the identity on the fiber.
    """
    return _transport(m, curve, b0, {})[0]


def _transport(m: ConnectionModel, curve: CurveSpec, b0: Sequence[float],
               copies: Mapping[str, Sequence[float]]):
    """`parallel_transport`, with one more copy of the fiber for each stem
    and start fiber in `copies`, named from the stem apart from the other
    slots and carried by the same horizontal lift in the same run. A copy
    of a run that ends `ok` ends bit for bit where the fiber of
    `horizontal_flow` from its start does, and each copy is tested
    against the model's excluded set. Returns the result and the end
    fiber of each copy."""
    b0 = tuple(float(v) for v in b0)
    size = _transported_size(m)
    if len(b0) != size:
        raise ModelError(f"transported vector needs {size} components, "
                         f"got {len(b0)}")
    if curve.vertical:
        return TransportResult(final=curve.start, final_fiber=b0, steps=0), ()

    coords = m.bundle.coords
    b_names = _fresh(coords, "b", size)
    if curve.field is not None:
        xdot = _on_base(m, "base vector field", curve.field,
                        m.bundle.base_coords)
        param = ()
    else:
        # Explicit parameterized curve: track the parameter as an extra
        # state slot, named apart from the coordinates, so the velocity
        # expressions see it.
        _on_base(m, "base curve", curve.curve, ("t",))
        param = _fresh(coords, "tau", 1)
        xdot = tuple(substitute(diff(c, "t"), {"t": Var(param[0])})
                     for c in curve.curve)
    coeffs = _transport_coeffs(m)
    lift = _lift(m, xdot)
    sums = lift + [[(coeffs[A, i, B], xdot[i], Var(b_names[B]))
                    for i in range(m.n) for B in range(size)]
                   for A in range(size)]
    names = coords + b_names
    y0 = curve.start.values(m.bundle) + b0
    excluded = dict.fromkeys(m.excluded)
    for stem, start in copies.items():
        copy = _fresh(names + param, stem, m.k)
        rename = {u: Var(c) for u, c in zip(m.bundle.fiber_coords, copy)}
        sums += [[tuple(substitute(f, rename) for f in factors)
                  for factors in row] for row in lift]
        excluded.update(dict.fromkeys(substitute(e, rename)
                                      for e in m.excluded))
        names += copy
        y0 += tuple(start)
    rows, lean = _flow_rows(xdot, sums)
    clock = [ONE] * len(param)
    y, steps, status = _rk4(names + param, rows + clock,
                            y0 + (0.0,) * len(param), curve.t_span,
                            curve.step, tuple(excluded), lean=lean + clock)
    n = len(coords)
    ends = [tuple(y[j:j + m.k]) for j in range(n + size, len(names), m.k)]
    return TransportResult(
        final=PointE(base=tuple(y[:m.n]), fiber=tuple(y[m.n:n])),
        final_fiber=tuple(y[n:n + size]), steps=steps, status=status), ends


def _perturbed(m: ConnectionModel, p0: PointE, b0: Sequence[float],
               fd_eps: float, central: bool) -> tuple[tuple[float, ...], ...]:
    """The start fibers of the oracle's perturbed flows: u + fd_eps*b and,
    if `central`, u - fd_eps*b. Refuses a step the oracle cannot
    difference with and a vector of the wrong length."""
    if not (math.isfinite(fd_eps) and fd_eps > 0.0):
        raise ModelError(f"fd_eps must be a positive finite number, "
                         f"got {fd_eps!r}")
    if central and not math.isfinite(2.0 * fd_eps):
        raise ModelError(f"fd_eps={fd_eps!r} is too large for central "
                         f"differences: 2*fd_eps overflows")
    b0 = [float(v) for v in b0]
    if len(b0) != m.bundle.k:
        raise ModelError(f"fiber vector needs {m.bundle.k} components")
    plus = tuple(u + fd_eps * b for u, b in zip(p0.fiber, b0))
    minus = tuple(u - fd_eps * b for u, b in zip(p0.fiber, b0))
    starts = (plus, minus) if central else (plus,)
    # A perturbation lost in rounding differences a flow with itself, and
    # the oracle would read 0 whatever the transport is.
    if any(b0) and p0.fiber in starts:
        raise ModelError(f"fd_eps={fd_eps!r} is lost in the rounding of the "
                         f"start fiber: fd_eps*b leaves it unchanged")
    return starts


def _quotients(plus: Sequence[float], other: Sequence[float], fd_eps: float,
               central: bool) -> tuple[float, ...]:
    """The oracle's difference quotients of the flow from u + fd_eps*b
    against that from u - fd_eps*b (`central`) or from u; refused where
    one overflows."""
    width = 2.0 * fd_eps if central else fd_eps
    quotients = tuple((p - q) / width for p, q in zip(plus, other))
    if not all(map(math.isfinite, quotients)):
        raise ModelError(f"oracle difference quotient is not finite at "
                         f"fd_eps={fd_eps!r}")
    return quotients


def transport_oracle(m: ConnectionModel, X: Sequence[Expr], p0: PointE,
                     b0: Sequence[float], T: float, step: float,
                     fd_eps: float = 1e-5, central: bool = False) -> tuple[float, ...]:
    """Implementation-independent oracle for parallel transport: the
    derivative of the nonlinear horizontal flow with respect to the fiber
    initial condition, computed by finite differences of two (or three)
    independent flow integrations."""
    starts = _perturbed(m, p0, b0, fd_eps, central)

    def flow_fiber(fiber) -> tuple[float, ...]:
        start = PointE(base=p0.base, fiber=tuple(fiber))
        result = horizontal_flow(m, X, start, T, step)
        if result.status != "ok":
            raise ModelError(f"oracle flow stopped early: {result.status}")
        return result.final.fiber

    plus, other = [flow_fiber(fiber) for fiber in
                   (starts if central else starts + (p0.fiber,))]
    return _quotients(plus, other, fd_eps, central)


def transport_and_oracle(m: ConnectionModel, curve: CurveSpec,
                         b0: Sequence[float], fd_eps: float = 1e-5,
                         central: bool = False
                         ) -> tuple[TransportResult, tuple[float, ...]]:
    """`parallel_transport` along the flow of a base field and its
    `transport_oracle`, as one RK4 run: the transport's slots and a copy
    of the fiber from each perturbed start. The copies read the lift, not
    the linearization. The forward oracle differences its copy against
    the transport's own fiber, which is `horizontal_flow` from the start
    bit for bit. Only a run that ends `ok` is taken: on a stop or a fault
    the transport and then the oracle run apart, and raise or return what
    they do alone. Returns (TransportResult, oracle)."""
    if curve.field is None:
        raise ModelError("the transport oracle needs a flow-generated curve")
    try:
        starts = _perturbed(m, curve.start, b0, fd_eps, central)
        result, ends = _transport(m, curve, b0,
                                  dict(zip(("plus", "minus"), starts)))
    except ModelError:
        result = None
    if result is None or result.status != "ok":
        result = parallel_transport(m, curve, b0)
        return result, transport_oracle(m, curve.field, curve.start, b0,
                                        curve.t_span, curve.step, fd_eps,
                                        central)
    other = ends[1] if central else result.final.fiber
    return result, _quotients(ends[0], other, fd_eps, central)


def relative_gap(values: Sequence[float], reference: Sequence[float]) -> float:
    """The largest gap |a - b| / max(1, |b|) between `values` and the
    `reference` (such as a transport and its oracle), component by
    component."""
    return max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(values, reference))


def _check_directions(m: ConnectionModel, i: int, j: int):
    """Refuse base directions i, j outside 0 .. n-1."""
    if not (0 <= i < m.n and 0 <= j < m.n):
        raise ModelError(f"holonomy directions must lie in 0..{m.n - 1}, "
                         f"got {i}, {j}")


def holonomy_probe(m: ConnectionModel, p0: PointE, i: int, j: int,
                   eps: float, step: float | None = None) -> tuple[float, ...]:
    """Transport the fiber point around the coordinate rectangle
    (+eps e_i, +eps e_j, -eps e_i, -eps e_j) with four horizontal flow
    legs and return (u_final - u_initial)/eps^2.

    As eps -> 0 this converges, with first order in eps, to the curvature
    components [.][i][j] at p0. The sign convention (leg order i then
    j) is calibrated once against the symbolic curvature in the test
    suite and frozen; a negative eps runs the same rectangle mirrored
    and converges to the same limit. `eps^2` must exceed the rounding unit
    of the start coordinates, or the defect is lost in rounding and the
    probe reads 0. The legs step at `step`, by default |eps|/50.
    """
    # From about 1.34e154 on, eps^2 overflows.
    unit = math.ulp(max(1.0, *(abs(v) for v in p0.base + p0.fiber)))
    if not (abs(eps) < 1e154 and eps ** 2 > unit):
        raise ModelError(f"holonomy eps^2 must be finite and exceed the "
                         f"rounding unit {unit:.3g} of the start point, "
                         f"got eps={eps!r}")
    if m.bundle.n < 2:
        raise ModelError("holonomy probes need at least two base directions")
    _check_directions(m, i, j)
    if i == j:
        raise ModelError("holonomy probe needs two distinct base directions")
    if step is None:
        step = abs(eps) / 50.0
    legs = [(i, eps), (j, eps), (i, -eps), (j, -eps)]
    current = p0
    for direction, span in legs:
        X = [ZERO] * m.bundle.n
        X[direction] = ONE
        result = horizontal_flow(m, X, current, span, step)
        if result.status != "ok":
            raise ModelError(f"holonomy leg stopped early: {result.status}")
        current = result.final
    return tuple((a - b) / eps ** 2 for a, b in zip(current.fiber, p0.fiber))


def holonomy_curvature(m: ConnectionModel, p0: PointE, i: int,
                       j: int) -> tuple[float, ...]:
    """The symbolic curvature components R[A, i, j] at p0, A = 0 .. k-1:
    the limit of `holonomy_probe(m, p0, i, j, eps)` as eps -> 0."""
    _check_directions(m, i, j)
    R = curvature(m)
    env = p0.env(m.bundle)
    return tuple(0.0 if is_zero(R[A, i, j]) else evaluate(R[A, i, j], env)
                 for A in range(m.k))


def sode_flow(s, state0: Sequence[float], T: float, step: float) -> FlowResult:
    """Integrate a second-order equation field: xdot = v, vdot = f(x, v)
    (plus tdot = 1 through the time coordinate in the non-autonomous
    case, where the state starts with t)."""
    names = s.coords
    state0 = s.state(state0)
    clock = () if s.autonomous else (ONE,)
    rows = clock + tuple(Var(v) for v in s.velocity_coords) + s.forces
    y, steps, status = _rk4(names, rows, state0, T, step, s.excluded)
    n = len(s.base_coords)
    return FlowResult(final=PointE(base=tuple(y[:n]), fiber=tuple(y[n:])),
                      steps=steps, status=status)
