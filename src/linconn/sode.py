"""Connections built from second-order differential equation fields.

`sode_connection` reads an autonomous force field f^i(x, v) as a
connection on the tangent bundle and a time-dependent one as an affine
connection on the first jet bundle, both with the field's excluded set.
The Jacobi endomorphism and the diagnostics built on them live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .affine import _homogeneous_extension
from .expr import Const, Expr, Var, ZERO, diff, simplify
from .geometry import (
    BASE_COV, FIBER_VEC, CheckReport, Residuals, TensorField, _flat_set,
    _suite, _tensor, combine_reports, dh_field, dv_field, linear_coeffs,
    tension,
)
from .model import BundleModel, ConnectionModel, ModelError, require_coords

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
        require_coords("f{}", self.forces, self.coords)
        require_coords("excluded-set predicate", self.excluded, self.coords)

    @property
    def coords(self) -> tuple[str, ...]:
        return self.base_coords + self.velocity_coords

    @property
    def n(self) -> int:
        return len(self.velocity_coords)

    def state(self, values: Sequence[float]) -> tuple[float, ...]:
        """`values` as a state of `coords`, refused unless it has one
        component per coordinate."""
        if len(values) != len(self.coords):
            raise ModelError(f"state needs {len(self.coords)} components "
                             f"({', '.join(self.coords)})")
        return tuple(values)

    def split(self, groups: tuple[Sequence[int], Sequence[int]]
              ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """`groups` as a split of the indices 1..n, refused unless both
        sides are nonempty and together they partition 1..n."""
        first, second = (tuple(int(i) for i in group) for group in groups)
        if not first or not second:
            raise ModelError("both sides of the split must be nonempty")
        if sorted(first + second) != list(range(1, self.n + 1)):
            raise ModelError(f"split must partition 1..{self.n}, "
                             f"got {first} | {second}")
        return first, second

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
    """Connection induced by the field, with its excluded set: row i
    holds -1/2 df^i/dv^j in the column of x^j, and for a time-dependent
    field (a jet-bundle connection) 1/2 v^k df^i/dv^k - f^i first."""
    half = Const(0.5)
    gamma = []
    for f in s.forces:
        halves = [half * diff(f, v) for v in s.velocity_coords]
        row = []
        if not s.autonomous:
            time_coeff: Expr = ZERO
            for v, e in zip(s.velocity_coords, halves):
                time_coeff = time_coeff + Var(v) * e
            row.append(simplify(time_coeff - f))
        gamma.append(row + [simplify(-e) for e in halves])
    bundle = BundleModel("tangent" if s.autonomous else "jet",
                         s.base_coords, s.velocity_coords)
    return ConnectionModel(bundle, gamma, excluded=s.excluded)


def jacobi_endomorphism(s: SodeModel) -> TensorField:
    """Jacobi endomorphism [i][j]:
    -df^i/dx^j - sum_k c^i_k c^k_j - field(c^i_j), with c the induced
    connection coefficients of the space directions and `field` the
    second-order vector field."""
    m = sode_connection(s)
    offset = 0 if s.autonomous else 1
    positions = s.base_coords[offset:]
    n = s.n

    def rule(i: int, j: int) -> Expr:
        e: Expr = -diff(s.forces[i], positions[j])
        for k_ in range(n):
            e = e - m.gamma[i][offset + k_] * m.gamma[k_][offset + j]
        e = e - s.field_apply(m.gamma[i][offset + j])
        return simplify(e)

    return _tensor("jacobi", (FIBER_VEC, BASE_COV), (n, n), rule)


def nonautonomous_connection(s: SodeModel) -> ConnectionModel:
    """Affine connection induced on the first jet bundle by a
    time-dependent field: `sode_connection` of a field it accepts."""
    if s.autonomous:
        raise ModelError("nonautonomous_connection expects a time-dependent "
                         "field; use sode_connection")
    return sode_connection(s)


def homogeneous_sode(s: SodeModel) -> SodeModel:
    """Extension of a non-autonomous field to an autonomous, degree-2
    homogeneous field on the extended velocity space (w0, w^i):

        force for w0 slot: 0
        force for w^i slot: (w0)^2 f^i(t, x, w/w0)

    The hyperplane w0 = 0 is excluded, and so is each predicate p of the
    field's excluded set, as p(t, x, w/w0).
    """
    if s.autonomous:
        raise ModelError("homogeneous_sode expects a non-autonomous field")
    names, forces, excluded = _homogeneous_extension(
        "w", s.base_coords, s.velocity_coords, s.forces, 2, s.excluded)
    return SodeModel(autonomous=True, base_coords=s.base_coords,
                     velocity_coords=names, forces=(ZERO, *forces),
                     excluded=excluded)


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
            comps[f"dh_{i + 1}({field_.label(idx)})"] = e
    for d in range(m.k):
        for idx, e in dv_field(m, field_, d).items():
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
    first, second = s.split(split)

    m = sode_connection(s)
    phi = jacobi_endomorphism(s)
    offset = 0 if s.autonomous else 1

    def block(rows, cols, tag):
        comps = {}
        for i in rows:
            for a in cols:
                comps[f"gamma[{i},{a}]"] = m.gamma[i - 1][offset + a - 1]
                comps[f"jacobi[{i},{a}]"] = phi[i - 1, a - 1]
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
