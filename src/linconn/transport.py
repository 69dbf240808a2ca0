"""Numerical integration: horizontal flows, linearized parallel transport,
the fiber-derivative transport oracle and holonomy probes.

Every integration runs through one core, `_rk4`. An entry point only
describes its state layout: the names of the state slots and one
right-hand-side expression per slot. The core compiles that tuple once
and takes classical fixed-step RK4 steps; reproducibility and a clean
convergence order beat adaptivity at this scale.

Rules shared by every integration:

- The step must be a positive finite number and the time span finite
  and at most `_MAX_STEPS` steps long, else `ModelError`. The core takes
  max(1, round(|T|/step)) equal steps of T/steps, so a negative span
  integrates backwards.
- A trajectory ends with a status. `ok`: it ran the full span.
  `truncated:<t>`: it left a declared box. `excluded:<t>`: an
  excluded-set predicate came within 1e-6 of zero at a step end, or
  changed sign between two consecutive step ends (a step that jumped
  over the locus). A stopped trajectory ends at the last state before
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
    EvalError, Expr, ONE, Var, ZERO, compile_vector, diff, substitute, variables,
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
    """A trajectory in the total space."""

    times: list[float]
    points: list[PointE]
    steps: int
    status: str = "ok"    # ok | truncated:<t> | excluded:<t>

    @property
    def final(self) -> PointE:
        return self.points[-1]


@dataclass
class TransportResult:
    final_fiber: tuple[float, ...]
    trajectory: list[tuple[float, PointE, tuple[float, ...]]]
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
    slots are `names`, with one right-hand-side expression per slot,
    compiled once. Returns (times, states, status)."""
    _check_span(T, step)
    f = compile_vector(rhs, names)
    predicates = compile_vector(excluded, names)
    bounds = [(slot, box[name]) for slot, name in enumerate(names)
              if box is not None and name in box]
    n_steps = max(1, int(round(abs(T) / step)))
    h = T / n_steps
    y = np.array(y0, dtype=float)
    times = [0.0]
    states = [y]
    t = 0.0
    status = "ok"
    try:
        # Plain floats: on numpy scalars a division by zero gives inf.
        previous = predicates(y.tolist())
        for _ in range(n_steps):
            k1 = np.array(f(y.tolist()))
            k2 = np.array(f((y + 0.5 * h * k1).tolist()))
            k3 = np.array(f((y + 0.5 * h * k2).tolist()))
            k4 = np.array(f((y + h * k3).tolist()))
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            if not np.all(np.isfinite(y)):
                raise ModelError(f"non-finite state at t={t:.6g}")
            # A predicate near zero, or one that changed sign since the last
            # step end, means the step reached or jumped over the locus.
            values = predicates(y.tolist())
            if any(abs(p) < _MARGIN or p * q < 0.0
                   for p, q in zip(values, previous)):
                status = f"excluded:{t:.6g}"
                break
            if any(not lo <= y[slot] <= hi for slot, (lo, hi) in bounds):
                status = f"truncated:{t:.6g}"
                break
            previous = values
            times.append(t)
            states.append(y)
    except EvalError as exc:
        raise ModelError(f"right-hand side undefined near t={t:.6g}: "
                         f"{exc}") from None
    return times, states, status


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


def _point_from_state(m: ConnectionModel, y: np.ndarray) -> PointE:
    n = m.n
    return PointE(base=tuple(float(v) for v in y[:n]),
                  fiber=tuple(float(v) for v in y[n:n + m.k]))


def horizontal_flow(m: ConnectionModel, X: Sequence[Expr], p0: PointE,
                    T: float, step: float,
                    box: Mapping[str, tuple[float, float]] | None = None) -> FlowResult:
    """Integrate the horizontal lift of a base vector field. Along the
    resulting curve the fiber point is parallel for the nonlinear
    connection."""
    times, states, status = _rk4(m.bundle.coords, _lift(m, _base_field(m, X)),
                                 p0.values(m.bundle), T, step, m.excluded, box)
    return FlowResult(times=times,
                      points=[_point_from_state(m, y) for y in states],
                      steps=len(times) - 1, status=status)


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
        return TransportResult(final_fiber=b0,
                               trajectory=[(0.0, curve.start, b0)],
                               steps=0, status="ok")

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
    times, states, status = _rk4(
        coords + b_names + param, rows + [ONE] * len(param),
        curve.start.values(m.bundle) + b0 + (0.0,) * len(param),
        curve.t_span, curve.step, m.excluded)
    n = len(coords)
    trajectory = [(t, _point_from_state(m, y),
                   tuple(float(v) for v in y[n:n + size]))
                  for t, y in zip(times, states)]
    return TransportResult(final_fiber=trajectory[-1][2],
                           trajectory=trajectory,
                           steps=len(times) - 1, status=status)


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
    b0 = np.array(b0, dtype=float)
    if len(b0) != m.bundle.k:
        raise ModelError(f"fiber vector needs {m.bundle.k} components")
    fiber0 = np.array(p0.fiber, dtype=float)

    def flow_fiber(fiber: np.ndarray) -> np.ndarray:
        start = PointE(base=p0.base, fiber=tuple(fiber))
        result = horizontal_flow(m, X, start, T, step)
        if result.status != "ok":
            raise ModelError(f"oracle flow stopped early: {result.status}")
        return np.array(result.final.fiber, dtype=float)

    plus = flow_fiber(fiber0 + fd_eps * b0)
    if central:
        minus = flow_fiber(fiber0 - fd_eps * b0)
        derivative = (plus - minus) / (2.0 * fd_eps)
    else:
        base_val = flow_fiber(fiber0)
        derivative = (plus - base_val) / fd_eps
    return tuple(float(v) for v in derivative)


def holonomy_probe(m: ConnectionModel, p0: PointE, i: int, j: int,
                   eps: float, step: float | None = None) -> tuple[float, ...]:
    """Transport the fiber point around the coordinate rectangle
    (+eps e_i, +eps e_j, -eps e_i, -eps e_j) with four horizontal flow
    legs and return (u_final - u_initial)/eps^2.

    As eps -> 0 this converges, with first order in eps, to the curvature
    component grid [.][i][j] at p0. The sign convention (leg order i then
    j) is calibrated once against the symbolic curvature in the test
    suite and frozen.
    """
    if m.bundle.n < 2:
        raise ModelError("holonomy probes need at least two base directions")
    if i == j:
        raise ModelError("holonomy probe needs two distinct base directions")
    if step is None:
        step = eps / 50.0
    legs = [(i, eps), (j, eps), (i, -eps), (j, -eps)]
    current = p0
    for direction, span in legs:
        X = [ZERO] * m.bundle.n
        X[direction] = ONE
        result = horizontal_flow(m, X, current, span, step)
        if result.status != "ok":
            raise ModelError(f"holonomy leg stopped early: {result.status}")
        current = result.final
    defect = np.array(current.fiber) - np.array(p0.fiber)
    return tuple(float(v) / eps ** 2 for v in defect)


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
    times, states, status = _rk4(names, rows, state0, T, step, s.excluded)
    n = len(s.base_coords)
    points = [PointE(base=tuple(float(v) for v in y[:n]),
                     fiber=tuple(float(v) for v in y[n:]))
              for y in states]
    return FlowResult(times=times, points=points, steps=len(times) - 1,
                      status=status)
