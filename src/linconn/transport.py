"""Numerical integration: horizontal flows, linearized parallel transport,
the fiber-derivative transport oracle and holonomy probes.

Every integration runs through one core, `_rk4`. An entry point only
describes its state layout: the names of the state slots and one
right-hand-side expression per slot. The core generates the whole
classical fixed-step RK4 loop as one Python function on plain floats
(`_kernel`), with the state slots as locals and each stage rendered from
the same plan as `compile_vector`; reproducibility and a clean
convergence order beat adaptivity at this scale. A flow returns its end
state, the number of steps it took and its status, and keeps nothing per
step. A faulting step is taken once more stage by stage (`_replay`),
which names the subexpression and the point.

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
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    EvalError, Expr, ONE, Var, ZERO, _define, _memo, _plan, _render,
    compile_vector, diff, substitute, variables,
)
from .model import ConnectionModel, ModelError, PointE

__all__ = [
    "CurveSpec", "FlowResult", "TransportResult", "horizontal_flow",
    "parallel_transport", "transport_oracle", "holonomy_probe", "sode_flow",
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
         box: Mapping[str, tuple[float, float]] | None = None):
    """The integrator core: classical fixed-step RK4 on the state whose
    slots are `names`, with one right-hand-side expression per slot, run
    as one generated kernel (`_kernel`), built once per distinct flow and
    kept in the expression memo. Returns (final_state, steps, status): the
    last state kept, as a list of floats, and the number of steps that
    reached it."""
    _check_span(T, step)
    bounded = [slot for slot, name in enumerate(names)
               if box is not None and name in box]
    n_steps = max(1, int(round(abs(T) / step)))
    h = T / n_steps
    key = (tuple(names), tuple(rhs), tuple(excluded), tuple(bounded))
    kernel = _memo.get(key)
    if kernel is None:
        kernel = _memo[key] = _kernel(names, rhs, excluded, bounded)
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
    last bits of every flow. A step end is checked as the rules above say:
    every slot finite, then the excluded-set predicates, then the box
    `bounds`, one (lo, hi) pair per slot in `bounded`. `t` is summed step by
    step. The status is "ok", "excluded" or "truncated", the last two with
    the state before the step and the time after it. On a fault (an
    arithmetic or domain error anywhere in a step, or a non-finite state)
    the status is None, with the state and time at the start of the
    faulting step, for `_replay` to explain.
    """
    count = len(names)
    rhs_plan, test_plan = _plan(rhs, names), _plan(excluded, names)
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
            step += [f"{x} = {s} + {scale} * {c}"
                     for x, s, c in zip(inputs, state, out)]
    step += [f"{n} = {s} + sixth * ((({a} + 2.0 * {b}) + 2.0 * {c}) + {d})"
             for n, s, a, b, c, d in zip(new, state, *ks)]
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


def _fresh(taken: Sequence[str], stem: str, count: int) -> tuple[str, ...]:
    """`count` state-slot names stem0, stem1, ... that avoid `taken`."""
    names = tuple(f"{stem}{j}" for j in range(count))
    if set(names) & set(taken):
        return _fresh(taken, "_" + stem, count)
    return names


def _base_field(m: ConnectionModel, X: Sequence[Expr]) -> tuple[Expr, ...]:
    if len(X) != m.n:
        raise ModelError(f"base vector field needs {m.n} components")
    for comp in X:
        extra = variables(comp) - set(m.bundle.base_coords)
        if extra:
            raise ModelError(f"base vector field uses non-base coordinate(s) "
                             f"{sorted(extra)}")
    return tuple(X)


def _lift(m: ConnectionModel, xdot: Sequence[Expr]) -> list[Expr]:
    """Right-hand side of the horizontal lift of base velocities:
    xdot^i, then udot^A = -sum_i Gamma[A][i] xdot^i."""
    rows = list(xdot)
    for A in range(m.k):
        total: Expr = ZERO
        for i in range(m.n):
            total = total + m.gamma[A][i] * xdot[i]
        rows.append(-total)
    return rows


def horizontal_flow(m: ConnectionModel, X: Sequence[Expr], p0: PointE,
                    T: float, step: float,
                    box: Mapping[str, tuple[float, float]] | None = None) -> FlowResult:
    """Integrate the horizontal lift of a base vector field. Along the
    resulting curve the fiber point is parallel for the nonlinear
    connection."""
    y, steps, status = _rk4(m.bundle.coords, _lift(m, _base_field(m, X)),
                            p0.values(m.bundle), T, step, m.excluded, box)
    return FlowResult(final=PointE(base=tuple(y[:m.n]), fiber=tuple(y[m.n:])),
                      steps=steps, status=status)


def _transport_coeffs(m: ConnectionModel) -> np.ndarray:
    """Transport coefficients as an object grid [A][i][B] of expressions.

    Vector-like bundles transport k-vectors with the linearized
    coefficients. Affine and jet bundles transport extended (k+1)-vectors;
    the distinguished component has a zero row, so it stays constant.
    """
    if m.bundle.kind in ("affine", "jet"):
        from .affine import affine_linearization

        lin = affine_linearization(m)
        grid = np.full((m.k + 1, m.n, m.k + 1), ZERO, dtype=object)
        grid[1:, :, 0] = lin.coeffs_0.components
        grid[1:, :, 1:] = lin.coeffs_lin.components
        return grid
    from .geometry import linear_coeffs

    return linear_coeffs(m).components


def parallel_transport(m: ConnectionModel, curve: CurveSpec,
                       b0: Sequence[float]) -> TransportResult:
    """Linearized parallel transport along a base curve.

    Along a horizontal curve the transported vector solves
    bdot^A + coeff[A][i][B](x(t), u(t)) xdot^i b^B = 0, integrated jointly
    with the nonlinear horizontal flow. Along vertical curves transport is
    the identity on the fiber.
    """
    b0 = tuple(float(v) for v in b0)
    coeffs = _transport_coeffs(m)
    size = coeffs.shape[0]
    if len(b0) != size:
        raise ModelError(f"transported vector needs {size} components, "
                         f"got {len(b0)}")
    if curve.vertical:
        return TransportResult(final=curve.start, final_fiber=b0, steps=0)

    coords = m.bundle.coords
    b_names = _fresh(coords, "b", size)
    if curve.field is not None:
        xdot, param = _base_field(m, curve.field), ()
    else:
        # Explicit parameterized curve: track the parameter as an extra
        # state slot, named apart from the coordinates, so the velocity
        # expressions see it.
        if len(curve.curve) != m.n:
            raise ModelError(f"base curve needs {m.n} components")
        for comp in curve.curve:
            if variables(comp) - {"t"}:
                raise ModelError("base curve components may use only the "
                                 "parameter t")
        param = _fresh(coords, "tau", 1)
        xdot = tuple(substitute(diff(c, "t"), {"t": Var(param[0])})
                     for c in curve.curve)
    rows = _lift(m, xdot)
    for A in range(size):
        total: Expr = ZERO
        for i in range(m.n):
            for B in range(size):
                total = total + coeffs[A, i, B] * xdot[i] * Var(b_names[B])
        rows.append(-total)
    y, steps, status = _rk4(
        coords + b_names + param, rows + [ONE] * len(param),
        curve.start.values(m.bundle) + b0 + (0.0,) * len(param),
        curve.t_span, curve.step, m.excluded)
    n = len(coords)
    return TransportResult(
        final=PointE(base=tuple(y[:m.n]), fiber=tuple(y[m.n:n])),
        final_fiber=tuple(y[n:n + size]), steps=steps, status=status)


def transport_oracle(m: ConnectionModel, X: Sequence[Expr], p0: PointE,
                     b0: Sequence[float], T: float, step: float,
                     fd_eps: float = 1e-5, central: bool = False) -> tuple[float, ...]:
    """Implementation-independent oracle for parallel transport: the
    derivative of the nonlinear horizontal flow with respect to the fiber
    initial condition, computed by finite differences of two (or three)
    independent flow integrations."""
    if not (math.isfinite(fd_eps) and fd_eps > 0.0):
        raise ModelError(f"fd_eps must be a positive finite number, "
                         f"got {fd_eps!r}")
    b0 = [float(v) for v in b0]
    if len(b0) != m.bundle.k:
        raise ModelError(f"fiber vector needs {m.bundle.k} components")
    plus = tuple(u + fd_eps * b for u, b in zip(p0.fiber, b0))
    minus = tuple(u - fd_eps * b for u, b in zip(p0.fiber, b0))
    # A perturbation lost in rounding differences a flow with itself, and
    # the oracle would read 0 whatever the transport is.
    if any(b0) and p0.fiber in ((plus, minus) if central else (plus,)):
        raise ModelError(f"fd_eps={fd_eps!r} is lost in the rounding of the "
                         f"start fiber: fd_eps*b leaves it unchanged")

    def flow_fiber(fiber) -> tuple[float, ...]:
        start = PointE(base=p0.base, fiber=tuple(fiber))
        result = horizontal_flow(m, X, start, T, step)
        if result.status != "ok":
            raise ModelError(f"oracle flow stopped early: {result.status}")
        return result.final.fiber

    plus = flow_fiber(plus)
    if central:
        minus = flow_fiber(minus)
        return tuple((p - q) / (2.0 * fd_eps) for p, q in zip(plus, minus))
    base_val = flow_fiber(p0.fiber)
    return tuple((p - q) / fd_eps for p, q in zip(plus, base_val))


def holonomy_probe(m: ConnectionModel, p0: PointE, i: int, j: int,
                   eps: float, step: float | None = None) -> tuple[float, ...]:
    """Transport the fiber point around the coordinate rectangle
    (+eps e_i, +eps e_j, -eps e_i, -eps e_j) with four horizontal flow
    legs and return (u_final - u_initial)/eps^2.

    As eps -> 0 this converges, with first order in eps, to the curvature
    component grid [.][i][j] at p0. The sign convention (leg order i then
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


def sode_flow(s, state0: Sequence[float], T: float, step: float) -> FlowResult:
    """Integrate a second-order equation field: xdot = v, vdot = f(x, v)
    (plus tdot = 1 through the time coordinate in the non-autonomous
    case, where the state starts with t)."""
    names = s.coords
    if len(state0) != len(names):
        raise ModelError(f"state needs {len(names)} components "
                         f"({', '.join(names)})")
    clock = () if s.autonomous else (ONE,)
    rows = clock + tuple(Var(v) for v in s.velocity_coords) + s.forces
    y, steps, status = _rk4(names, rows, state0, T, step, s.excluded)
    n = len(s.base_coords)
    return FlowResult(final=PointE(base=tuple(y[:n]), fiber=tuple(y[n:])),
                      steps=steps, status=status)
