"""Connections built from second-order differential equation fields.

An autonomous force field f^i(x, v) induces a connection on the tangent
bundle with coefficients -1/2 df^i/dv^j; a time-dependent force induces
an affine connection on the first jet bundle. The Jacobi endomorphism and
the derived linearizability and decoupling diagnostics live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import (Const, Expr, Var, ZERO, diff, is_zero, simplify, substitute,
                   variables)
from .geometry import (
    BASE_COV, FIBER_VEC, CheckReport, Residuals, TensorField, _flat_set,
    _suite, _tensor, combine_reports, dh_field, dv_field, linear_coeffs,
    tension,
)
from .model import BundleModel, ConnectionModel, ModelError

__all__ = [
    "SodeModel", "sode_connection", "jacobi_endomorphism",
    "nonautonomous_connection", "homogeneous_sode",
    "linearizability_report", "decoupling_check",
]


@dataclass(frozen=True)
class SodeModel:
    """A second-order equation field.

    Autonomous: coordinates (x^i, v^i) and forces f^i(x, v).
    Non-autonomous: coordinates (t, x^i, v^i) and forces f^i(t, x, v);
    the time coordinate comes first in `base_coords`.
    """

    autonomous: bool
    base_coords: tuple[str, ...]
    velocity_coords: tuple[str, ...]
    forces: tuple[Expr, ...]
    excluded: tuple[Expr, ...] = ()

    def __post_init__(self):
        expected = len(self.velocity_coords)
        if self.autonomous and len(self.base_coords) != expected:
            raise ModelError("autonomous second-order field needs one "
                             "velocity per position coordinate")
        if not self.autonomous and len(self.base_coords) != expected + 1:
            raise ModelError("non-autonomous second-order field needs "
                             "base = (t, x^1..x^m) and one velocity per x")
        if len(self.forces) != expected:
            raise ModelError(f"need {expected} forces, got {len(self.forces)}")
        allowed = set(self.coords)
        for idx, f in enumerate(self.forces):
            unknown = variables(f) - allowed
            if unknown:
                raise ModelError(f"f{idx + 1} references unknown "
                                 f"coordinate(s) {sorted(unknown)}")

    @property
    def coords(self) -> tuple[str, ...]:
        return self.base_coords + self.velocity_coords

    @property
    def n(self) -> int:
        return len(self.velocity_coords)

    def field_apply(self, g: Expr) -> Expr:
        """Apply the second-order vector field to a function:
        (d/dt +) v^i d/dx^i + f^i d/dv^i."""
        out: Expr = ZERO
        if not self.autonomous:
            out = out + diff(g, self.base_coords[0])
        positions = self.base_coords if self.autonomous else self.base_coords[1:]
        for i, x in enumerate(positions):
            out = out + Var(self.velocity_coords[i]) * diff(g, x)
        for i, v in enumerate(self.velocity_coords):
            out = out + self.forces[i] * diff(g, v)
        return simplify(out)


def sode_connection(s: SodeModel) -> ConnectionModel:
    """Connection induced on the tangent bundle by an autonomous field:
    coefficients -1/2 df^i/dv^j."""
    if not s.autonomous:
        raise ModelError("sode_connection expects an autonomous field; "
                         "use nonautonomous_connection")
    bundle = BundleModel("tangent", s.base_coords, s.velocity_coords)
    half = Const(0.5)
    gamma = [[simplify(-(half * diff(s.forces[i], v)))
              for v in s.velocity_coords] for i in range(s.n)]
    # gamma rows are indexed by the fiber (velocity) slot, columns by the
    # base direction; the induced matrix is -1/2 df^i/dv^j at [i][j].
    return ConnectionModel(bundle, gamma, excluded=s.excluded)


def jacobi_endomorphism(s: SodeModel) -> TensorField:
    """Jacobi endomorphism [i][j]:
    -df^i/dx^j - sum_k c^i_k c^k_j - field(c^i_j), with c the induced
    connection coefficients and `field` the second-order vector field."""
    m = sode_connection(s) if s.autonomous else _velocity_connection(s)
    positions = s.base_coords if s.autonomous else s.base_coords[1:]
    n = s.n

    def rule(i: int, j: int) -> Expr:
        e: Expr = -diff(s.forces[i], positions[j])
        for k_ in range(n):
            e = e - m.gamma[i][k_ if s.autonomous else 1 + k_] * \
                m.gamma[k_][j if s.autonomous else 1 + j]
        e = e - s.field_apply(m.gamma[i][j if s.autonomous else 1 + j])
        return simplify(e)

    return _tensor("jacobi", (FIBER_VEC, BASE_COV), (n, n), rule)


def _velocity_connection(s: SodeModel) -> ConnectionModel:
    """Shared helper: the jet-bundle connection of a non-autonomous field."""
    bundle = BundleModel("jet", s.base_coords, s.velocity_coords)
    half = Const(0.5)
    n = s.n
    gamma = []
    for i in range(n):
        f = s.forces[i]
        time_coeff: Expr = ZERO
        for k_, v in enumerate(s.velocity_coords):
            time_coeff = time_coeff + Var(v) * (half * diff(f, v))
        time_coeff = simplify(time_coeff - f)
        row = [time_coeff]
        for v in s.velocity_coords:
            row.append(simplify(-(half * diff(f, v))))
        gamma.append(row)
    return ConnectionModel(bundle, gamma, excluded=s.excluded)


def nonautonomous_connection(s: SodeModel) -> ConnectionModel:
    """Affine connection induced on the first jet bundle: the time column
    is 1/2 v^k df^i/dv^k - f^i and the space columns are -1/2 df^i/dv^j."""
    if s.autonomous:
        raise ModelError("nonautonomous_connection expects a time-dependent "
                         "field; use sode_connection")
    return _velocity_connection(s)


def homogeneous_sode(s: SodeModel) -> SodeModel:
    """Extension of a non-autonomous field to an autonomous, degree-2
    homogeneous field on the extended velocity space (w0, w^i):

        force for w0 slot: 0
        force for w^i slot: (w0)^2 f^i(t, x, w/w0)

    The hyperplane w0 = 0 is excluded.
    """
    if s.autonomous:
        raise ModelError("homogeneous_sode expects a non-autonomous field")
    w_names = tuple(f"w{j}" for j in range(s.n + 1))
    clash = set(w_names) & set(s.base_coords)
    if clash:
        raise ModelError(f"coordinates {sorted(clash)} collide with the "
                         "extended velocity names w0..wn")
    w0 = Var("w0")
    bindings = {v: Var(w_names[i + 1]) / w0
                for i, v in enumerate(s.velocity_coords)}
    forces: list[Expr] = [ZERO]
    for f in s.forces:
        forces.append(simplify(w0 * w0 * substitute(f, bindings)))
    return SodeModel(autonomous=True, base_coords=s.base_coords,
                     velocity_coords=w_names, forces=tuple(forces),
                     excluded=(w0,))


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def _parallel_residuals(m: ConnectionModel, lin, field_: TensorField) -> dict[str, Expr]:
    """Residual components of D(field) = 0 with the linearization itself
    correcting both base and fiber slots (the natural auxiliary connection
    on the tangent bundle)."""
    comps: dict[str, Expr] = {}
    for i in range(m.n):
        for idx, e in dh_field(m, lin, field_, i, base_corr=True).items():
            if not is_zero(e):
                comps[f"dh_{i + 1}({field_.label(idx)})"] = e
    for d in range(m.k):
        for idx, e in dv_field(m, field_, d).items():
            if not is_zero(e):
                comps[f"dv_{d + 1}({field_.label(idx)})"] = e
    return comps


LABEL_NONE = "none"
LABEL_LINEAR_VELOCITIES = "linear-in-velocities"
LABEL_CONSTANT_A = "linear-in-velocities-constant-A"
LABEL_LINEAR_ALL = "linear-in-all-variables"


@_suite
def linearizability_report(s: SodeModel, samples: np.ndarray,
                           tol: float) -> CheckReport:
    """Sampled linearizability certificate for an autonomous field.

    FLAT (both curvature blocks vanish) is the criterion for coordinates
    in which the equation is linear in velocities; a parallel tension
    refines it to constant velocity coefficients; a parallel Jacobi
    endomorphism upgrades it to linear in all variables. The strongest
    applicable label is emitted; all three booleans are reported.
    """
    if not s.autonomous:
        raise ModelError("linearizability_report expects an autonomous field")
    m = sode_connection(s)
    lin = linear_coeffs(m)
    sets = [_flat_set(m, samples, tol),
            Residuals("tension_parallel", m,
                      _parallel_residuals(m, lin, tension(m)), samples, tol),
            Residuals("jacobi_parallel", m,
                      _parallel_residuals(m, lin, jacobi_endomorphism(s)),
                      samples, tol)]
    subs = yield sets
    flat, t_par, phi_par = (sub.passed for sub in subs)
    if flat and phi_par:
        label = LABEL_LINEAR_ALL
    elif flat and t_par:
        label = LABEL_CONSTANT_A
    elif flat:
        label = LABEL_LINEAR_VELOCITIES
    else:
        label = LABEL_NONE
    return combine_reports(
        "linearizability", subs, tol, samples,
        labels={"classification": label, "flat": flat,
                "tension_parallel": t_par, "jacobi_parallel": phi_par})


@_suite
def decoupling_check(s: SodeModel, split: tuple[Sequence[int], Sequence[int]],
                     samples: np.ndarray, tol: float) -> CheckReport:
    """Block-vanishing conditions for a candidate coordinate split
    (1-based index groups).

    The equations restrict to the first group (SUBMERSIVE) when the
    connection and Jacobi blocks mapping the second group into the first
    vanish; they DECOUPLE when the transposed blocks vanish as well.
    """
    first, second = (tuple(int(i) for i in group) for group in split)
    if not first or not second:
        raise ModelError("both sides of the split must be nonempty")
    indices = sorted(first + second)
    if indices != list(range(1, s.n + 1)):
        raise ModelError(f"split must partition 1..{s.n}, got {first} | {second}")

    m = sode_connection(s) if s.autonomous else _velocity_connection(s)
    phi = jacobi_endomorphism(s)
    offset = 0 if s.autonomous else 1

    def block(rows, cols, tag):
        comps = {}
        for i in rows:
            for a in cols:
                e = m.gamma[i - 1][offset + a - 1]
                if not is_zero(e):
                    comps[f"gamma[{i},{a}]"] = e
                e = phi[i - 1, a - 1]
                if not is_zero(e):
                    comps[f"jacobi[{i},{a}]"] = e
        return Residuals(tag, m, comps, samples, tol)

    subs = yield [block(first, second, "first_from_second_block"),
                  block(second, first, "second_from_first_block")]
    submersive = subs[0].passed
    decoupled = submersive and subs[1].passed
    label = "decoupled" if decoupled else ("submersive" if submersive else "coupled")
    return combine_reports(
        "decoupling", subs, tol, samples,
        labels={"classification": label, "submersive": submersive,
                "decoupled": decoupled,
                "split": [list(first), list(second)]})
