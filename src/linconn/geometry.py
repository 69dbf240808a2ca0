"""Linearization core for vector-bundle connections.

All component formulas are written in the anholonomic frame {H_i, V_A},
where H_i = d/dx^i - Gamma[A][i] d/du^A spans the horizontal distribution
and V_A = d/du^A the vertical one. The fiber derivative of the coefficient
matrix gives the induced linear connection on the pullback bundle; from it
come the tension, the curvature blocks and the identity checks.

Identity checks use the auxiliary compatible connection induced by the
coordinate-flat connection on the base: base slots need no correction
terms and the torsion vanishes on coordinate frames. The tangent-bundle
case may instead correct base slots with the linearized coefficients
themselves (pass `base_corr`), which is the natural choice there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expr import (
    _CHUNK, Expr, ExprError, Var, ZERO, _columns, _compile, _fault, _plan, diff,
    is_zero, random_polynomial, simplify, substitute,
)
from .model import ConnectionModel, ModelError, PointE, SectionModel

__all__ = [
    "TensorField", "VectorFieldOnE", "CheckReport",
    "h_apply", "linear_coeffs", "covariant_derivative", "tension",
    "curvature", "vh_curvature", "hh_curvature", "hh_curvature_commutator",
    "check_homogeneous", "check_basic", "flatness_check", "axioms_check",
    "bianchi_check", "tension_identities_check",
    "integral_section_residual", "pullback_connection_coeffs",
    "evaluate_components", "residual_check", "combine_reports",
]

# Slot descriptors for tensor signatures.
BASE_VEC = "base-vector"
BASE_COV = "base-covector"
FIBER_VEC = "fiber-vector"
FIBER_COV = "fiber-covector"

_VECTOR_LIKE = ("vector", "tangent", "cotangent")


@dataclass(frozen=True)
class TensorField:
    """Grid of component expressions with a variance signature."""

    name: str
    signature: tuple[str, ...]
    components: np.ndarray  # object ndarray of Expr

    def __post_init__(self):
        if self.components.ndim != len(self.signature):
            raise ValueError("component rank does not match the signature")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.components.shape

    def __getitem__(self, idx) -> Expr:
        return self.components[idx]

    def items(self) -> Iterable[tuple[tuple[int, ...], Expr]]:
        for idx in np.ndindex(*self.components.shape):
            yield idx, self.components[idx]

    def label(self, idx: tuple[int, ...]) -> str:
        inner = ",".join(str(i + 1) for i in idx)
        return f"{self.name}[{inner}]"


def _grid(shape: tuple[int, ...]) -> np.ndarray:
    return np.empty(shape, dtype=object)


def _tensor(name: str, signature: tuple[str, ...], grid: np.ndarray) -> TensorField:
    return TensorField(name=name, signature=signature, components=grid)


@dataclass(frozen=True)
class VectorFieldOnE:
    """A vector field on the total space, components in the frame {H_i, V_A}."""

    horizontal: tuple[Expr, ...]
    vertical: tuple[Expr, ...]

    def apply(self, m: ConnectionModel, f: Expr) -> Expr:
        """Directional derivative U(f)."""
        out: Expr = ZERO
        for i, comp in enumerate(self.horizontal):
            out = out + comp * h_apply(m, f, i)
        for A, comp in enumerate(self.vertical):
            out = out + comp * diff(f, m.bundle.fiber_coords[A])
        return simplify(out)


@dataclass
class CheckReport:
    """Structured pass/fail outcome with per-sample residual data."""

    name: str
    passed: bool
    max_residual: float
    tolerance: float
    samples: int
    worst_point: PointE | None = None
    details: tuple = ()
    subreports: tuple = ()
    labels: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "samples": self.samples,
        }
        if self.worst_point is not None:
            out["worst_point"] = {"base": list(self.worst_point.base),
                                  "fiber": list(self.worst_point.fiber)}
        if self.details:
            out["details"] = [
                {"component": label, "max_residual": value}
                for label, value in self.details]
        if self.labels:
            out["labels"] = dict(sorted(self.labels.items()))
        if self.subreports:
            out["subreports"] = [sub.to_dict() for sub in self.subreports]
        return out


def _require_vector_like(m: ConnectionModel, op: str):
    if m.bundle.kind not in _VECTOR_LIKE:
        raise ModelError(
            f"{op} expects a vector-bundle connection (kind vector, tangent "
            f"or cotangent); affine and jet models are handled by their own "
            f"module, got kind={m.bundle.kind}")


# ---------------------------------------------------------------------------
# Frame machinery and tensors
# ---------------------------------------------------------------------------

def h_apply(m: ConnectionModel, e: Expr, i: int) -> Expr:
    """Apply the horizontal frame field of the i-th base direction to a
    function: H_i(e) = de/dx^i - sum_A Gamma[A][i] de/du^A."""
    bundle = m.bundle
    out: Expr = diff(e, bundle.base_coords[i])
    for A, u in enumerate(bundle.fiber_coords):
        d = diff(e, u)
        if not is_zero(d):
            out = out - m.gamma[A][i] * d
    return simplify(out)


def linear_coeffs(m: ConnectionModel) -> TensorField:
    """Coefficients of the induced linear connection: the fiber derivative
    of the coefficient matrix, grid [A][i][B]."""
    _require_vector_like(m, "linear_coeffs")
    k, n = m.k, m.n
    grid = _grid((k, n, k))
    for A in range(k):
        for i in range(n):
            for B in range(k):
                grid[A, i, B] = diff(m.gamma[A][i], m.bundle.fiber_coords[B])
    return _tensor("linear_coeffs", (FIBER_VEC, BASE_COV, FIBER_COV), grid)


def covariant_derivative(m: ConnectionModel, U: VectorFieldOnE,
                         sigma: SectionModel | Sequence[Expr]) -> tuple[Expr, ...]:
    """Covariant derivative of a section along a vector field, component A:

        sum_i U^i (H_i(sigma^A) + sum_B coeff[A][i][B] sigma^B)
        + sum_B U^B d(sigma^A)/du^B
    """
    _require_vector_like(m, "covariant_derivative")
    comps = sigma.components if isinstance(sigma, SectionModel) else tuple(sigma)
    if len(comps) != m.k:
        raise ModelError(f"section has {len(comps)} components, expected {m.k}")
    if len(U.horizontal) != m.n or len(U.vertical) != m.k:
        raise ModelError("vector field components do not match the bundle")
    lin = linear_coeffs(m)
    fiber = m.bundle.fiber_coords
    out = []
    for A in range(m.k):
        total: Expr = ZERO
        for i in range(m.n):
            bracket: Expr = h_apply(m, comps[A], i)
            for B in range(m.k):
                bracket = bracket + lin[A, i, B] * comps[B]
            total = total + U.horizontal[i] * bracket
        for B in range(m.k):
            total = total + U.vertical[B] * diff(comps[A], fiber[B])
        out.append(simplify(total))
    return tuple(out)


def tension(m: ConnectionModel) -> TensorField:
    """Tension tensor, grid [A][i]: the failure of degree-1 homogeneity,
    gamma[A][i] - sum_B d(gamma[A][i])/du^B u^B."""
    _require_vector_like(m, "tension")
    lin = linear_coeffs(m)
    grid = _grid((m.k, m.n))
    for A in range(m.k):
        for i in range(m.n):
            e: Expr = m.gamma[A][i]
            for B, u in enumerate(m.bundle.fiber_coords):
                e = e - lin[A, i, B] * Var(u)
            grid[A, i] = simplify(e)
    return _tensor("tension", (FIBER_VEC, BASE_COV), grid)


def curvature(m: ConnectionModel) -> TensorField:
    """Curvature of the nonlinear connection, grid [A][i][j]:
    H_j(gamma[A][i]) - H_i(gamma[A][j]); antisymmetric in i, j."""
    k, n = m.k, m.n
    grid = _grid((k, n, n))
    for A in range(k):
        for i in range(n):
            grid[A, i, i] = ZERO
        for i in range(n):
            for j in range(i + 1, n):
                e = simplify(h_apply(m, m.gamma[A][i], j) -
                             h_apply(m, m.gamma[A][j], i))
                grid[A, i, j] = e
                grid[A, j, i] = simplify(-e)
    return _tensor("curvature", (FIBER_VEC, BASE_COV, BASE_COV), grid)


def vh_curvature(m: ConnectionModel) -> TensorField:
    """Vertical-horizontal curvature block of the linear connection,
    grid [C][i][A][B] = d^2 gamma[C][i] / du^A du^B; symmetric in A, B.
    Vanishing characterizes pullbacks of linear connections."""
    _require_vector_like(m, "vh_curvature")
    k, n = m.k, m.n
    fiber = m.bundle.fiber_coords
    grid = _grid((k, n, k, k))
    for C in range(k):
        for i in range(n):
            first = [diff(m.gamma[C][i], fiber[A]) for A in range(k)]
            for A in range(k):
                for B in range(k):
                    grid[C, i, A, B] = diff(first[A], fiber[B])
    return _tensor("vh_curvature", (FIBER_VEC, BASE_COV, FIBER_COV, FIBER_COV), grid)


def hh_curvature(m: ConnectionModel) -> TensorField:
    """Horizontal-horizontal curvature block, grid [B][i][j][A]:
    minus the fiber derivative of the nonlinear curvature,
    -d(R[B][i][j])/du^A; antisymmetric in i, j."""
    _require_vector_like(m, "hh_curvature")
    R = curvature(m)
    k, n = m.k, m.n
    fiber = m.bundle.fiber_coords
    grid = _grid((k, n, n, k))
    for B in range(k):
        for i in range(n):
            for j in range(n):
                for A in range(k):
                    grid[B, i, j, A] = simplify(-diff(R[B, i, j], fiber[A]))
    return _tensor("hh_curvature", (FIBER_VEC, BASE_COV, BASE_COV, FIBER_COV), grid)


def hh_curvature_commutator(m: ConnectionModel) -> TensorField:
    """Second, independent route to the horizontal-horizontal block via the
    commutator of horizontal covariant derivatives:

        H_i(c[B][j][A]) - H_j(c[B][i][A])
          + sum_C (c[B][i][C] c[C][j][A] - c[B][j][C] c[C][i][A])

    with c the linearized coefficients. Used as a cross-check against
    `hh_curvature`.
    """
    _require_vector_like(m, "hh_curvature_commutator")
    lin = linear_coeffs(m)
    k, n = m.k, m.n
    grid = _grid((k, n, n, k))
    for B in range(k):
        for i in range(n):
            for j in range(n):
                for A in range(k):
                    e: Expr = h_apply(m, lin[B, j, A], i) - h_apply(m, lin[B, i, A], j)
                    for C in range(k):
                        e = e + lin[B, i, C] * lin[C, j, A]
                        e = e - lin[B, j, C] * lin[C, i, A]
                    grid[B, i, j, A] = simplify(e)
    return _tensor("hh_curvature_commutator",
                   (FIBER_VEC, BASE_COV, BASE_COV, FIBER_COV), grid)


# ---------------------------------------------------------------------------
# Covariant derivatives of tensor fields along the projection
# ---------------------------------------------------------------------------

def dh_field(m: ConnectionModel, lin: TensorField, field_: TensorField,
             i: int, base_corr: bool = False) -> np.ndarray:
    """Horizontal covariant derivative of a tensor field along direction i.

    Fiber-vector slots pick up +coeff corrections, fiber-covector slots
    -coeff. Base slots are corrected the same way only when `base_corr`
    is set (tangent-bundle case, where the auxiliary connection is the
    linearization itself); otherwise the coordinate-flat auxiliary
    connection leaves them untouched.
    """
    comps = field_.components
    out = _grid(comps.shape)
    for idx in np.ndindex(*comps.shape):
        e: Expr = h_apply(m, comps[idx], i)
        for slot, kind in enumerate(field_.signature):
            corrected = kind in (FIBER_VEC, FIBER_COV) or \
                (base_corr and kind in (BASE_VEC, BASE_COV))
            if not corrected:
                continue
            c = idx[slot]
            size = comps.shape[slot]
            up = kind in (FIBER_VEC, BASE_VEC)
            for C in range(size):
                swapped = idx[:slot] + (C,) + idx[slot + 1:]
                if up:
                    e = e + lin[c, i, C] * comps[swapped]
                else:
                    e = e - lin[C, i, c] * comps[swapped]
        out[idx] = simplify(e)
    return out


def dv_field(m: ConnectionModel, field_: TensorField, d: int) -> np.ndarray:
    """Vertical covariant derivative: a plain fiber partial, since basic
    frames are parallel along vertical directions for any compatible
    auxiliary connection."""
    comps = field_.components
    out = _grid(comps.shape)
    u = m.bundle.fiber_coords[d]
    for idx in np.ndindex(*comps.shape):
        out[idx] = diff(comps[idx], u)
    return out


# ---------------------------------------------------------------------------
# Numeric evaluation of component grids
# ---------------------------------------------------------------------------

def evaluate_components(m: ConnectionModel,
                        comps: Mapping[str, Expr],
                        samples: np.ndarray):
    """Evaluate labeled expressions at sample points: a float array with
    one point per row in `bundle.coords` order, as `sample_points` draws.

    Returns (max_residual, worst_point, details) where details lists the
    per-component maxima in label order, and worst_point is the `PointE`
    of the first row that reaches the maximum. A domain error or a
    non-finite value raises EvalError.

    All components run as one plan over columns of samples. Where that
    meets any fault, the scalar path decides, label by label and sample by
    sample, so the values and the first error are those of a per-point
    evaluation.
    """
    names = m.bundle.coords
    maxima = _column_maxima(tuple(comps.values()), names, samples)
    if maxima is None:
        rows = samples.tolist()
        maxima = [_scalar_maximum(label, e, names, rows)
                  for label, e in comps.items()]
    max_res, worst_row = 0.0, 0
    details = []
    for label, (local, where) in zip(comps, maxima):
        if local > max_res:
            max_res, worst_row = local, where
        details.append((label, local))
    worst = None
    if len(samples):
        row = samples[worst_row].tolist()
        worst = PointE(base=tuple(row[:m.n]), fiber=tuple(row[m.n:]))
    return max_res, worst, tuple(details)


def _column_maxima(exprs: Sequence[Expr], names: Sequence[str],
                   samples: np.ndarray):
    """Per expression, its largest absolute value over `samples` and the
    first row that reaches it; None where the scalar path must decide."""
    try:
        plan = _plan(exprs, names)
    except ExprError:  # an unbound variable: report it in label order
        return None
    maxima = [(0.0, 0)] * len(exprs)
    for start in range(0, len(samples), _CHUNK):
        columns = _columns(plan, samples[start:start + _CHUNK])
        if columns is None:
            return None
        for k, column in enumerate(columns):
            column = np.abs(column)
            where = int(column.argmax())
            if column[where] > maxima[k][0]:
                maxima[k] = (float(column[where]), start + where)
    return maxima


def _scalar_maximum(label: str, e: Expr, names: Sequence[str],
                    rows: Sequence[Sequence[float]]):
    fn = _compile((e,), names, vector=False)
    column = np.abs([fn(vec) for vec in rows])
    finite = np.isfinite(column)
    if not finite.all():
        raise _fault((e,), names, rows[int(np.argmin(finite))],
                     f"non-finite value of {label}")
    where = int(np.argmax(column)) if len(column) else 0
    return float(column.max(initial=0.0)), where


def residual_check(name: str, m: ConnectionModel, comps: Mapping[str, Expr],
                   samples: np.ndarray, tol: float,
                   labels: Mapping | None = None) -> CheckReport:
    """Build a CheckReport from labeled residual expressions."""
    if not comps:
        return CheckReport(name=name, passed=True, max_residual=0.0,
                           tolerance=tol, samples=len(samples),
                           labels={"vacuous": True, **(labels or {})})
    max_res, worst, details = evaluate_components(m, comps, samples)
    return CheckReport(name=name, passed=max_res <= tol, max_residual=max_res,
                       tolerance=tol, samples=len(samples), worst_point=worst,
                       details=details, labels=dict(labels or {}))


def combine_reports(name: str, subs: Sequence[CheckReport], tol: float,
                    samples: np.ndarray,
                    labels: Mapping | None = None) -> CheckReport:
    """One report over sub-reports: it passes when all of them pass, and
    its maximum residual and worst point are those of the first sub-report
    with the largest residual."""
    worst = max(subs, key=lambda s: s.max_residual)
    return CheckReport(name=name, passed=all(s.passed for s in subs),
                       max_residual=worst.max_residual, tolerance=tol,
                       samples=len(samples), worst_point=worst.worst_point,
                       subreports=tuple(subs), labels=dict(labels or {}))


def _field_residuals(field_: TensorField) -> dict[str, Expr]:
    return {field_.label(idx): e for idx, e in field_.items() if not is_zero(e)}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_homogeneous(m: ConnectionModel, samples: np.ndarray,
                      tol: float) -> CheckReport:
    """Homogeneity check: the connection is homogeneous iff the tension
    vanishes. Also reports whether the linearized coefficients are
    fiber-independent (which together with homogeneity means the
    connection is linear wherever it is smooth on the zero section)."""
    t = tension(m)
    report = residual_check("homogeneous", m, _field_residuals(t), samples, tol)
    theta_max = 0.0
    if m.bundle.kind in _VECTOR_LIKE:
        theta = vh_curvature(m)
        comps = _field_residuals(theta)
        if comps:
            theta_max, _, _ = evaluate_components(m, comps, samples)
    report.labels["homogeneous"] = report.passed
    report.labels["linear_on_samples"] = bool(report.passed and theta_max <= tol)
    return report


def check_basic(m: ConnectionModel, sigma: SectionModel,
                samples: np.ndarray, tol: float) -> CheckReport:
    """A section is basic iff its covariant derivative along every vertical
    direction vanishes, i.e. all fiber partials of its components."""
    comps: dict[str, Expr] = {}
    for A, comp in enumerate(sigma.components):
        for B, u in enumerate(m.bundle.fiber_coords):
            e = diff(comp, u)
            if not is_zero(e):
                comps[f"d(sigma[{A + 1}])/d{u}"] = e
    return residual_check("basic", m, comps, samples, tol)


def flatness_check(m: ConnectionModel, samples: np.ndarray,
                   tol: float) -> CheckReport:
    """Sampled flatness certificate: both curvature blocks of the linear
    connection below tolerance on the sample set."""
    theta = vh_curvature(m)
    hh = hh_curvature(m)
    comps = {**_field_residuals(theta), **_field_residuals(hh)}
    report = residual_check("flat", m, comps, samples, tol)
    report.labels["flat_on_samples"] = report.passed
    return report


def axioms_check(m: ConnectionModel, samples: np.ndarray, tol: float,
                 seed: int = 0) -> CheckReport:
    """Leibniz rule and function-linearity of the covariant derivative,
    exercised on seeded random polynomial data."""
    rng = np.random.default_rng(seed)
    names = m.bundle.coords
    f = random_polynomial(names, rng)
    sigma = tuple(random_polynomial(names, rng) for _ in range(m.k))
    U = VectorFieldOnE(
        horizontal=tuple(random_polynomial(names, rng, degree=1) for _ in range(m.n)),
        vertical=tuple(random_polynomial(names, rng, degree=1) for _ in range(m.k)),
    )
    f_sigma = tuple(simplify(f * s) for s in sigma)
    d_sigma = covariant_derivative(m, U, sigma)
    lhs_leibniz = covariant_derivative(m, U, f_sigma)
    u_of_f = U.apply(m, f)
    comps: dict[str, Expr] = {}
    for A in range(m.k):
        e = simplify(lhs_leibniz[A] - (u_of_f * sigma[A] + f * d_sigma[A]))
        if not is_zero(e):
            comps[f"leibniz[{A + 1}]"] = e
    fU = VectorFieldOnE(
        horizontal=tuple(simplify(f * c) for c in U.horizontal),
        vertical=tuple(simplify(f * c) for c in U.vertical),
    )
    lhs_tensorial = covariant_derivative(m, fU, sigma)
    for A in range(m.k):
        e = simplify(lhs_tensorial[A] - f * d_sigma[A])
        if not is_zero(e):
            comps[f"tensoriality[{A + 1}]"] = e
    return residual_check("covariant_derivative_axioms", m, comps, samples, tol)


def bianchi_check(m: ConnectionModel, samples: np.ndarray,
                  tol: float) -> CheckReport:
    """The three differential identities tying the curvature blocks
    together, written with the coordinate-flat auxiliary connection on
    coordinate frames (where the auxiliary torsion vanishes).

    Identity 1: cyclic sum of the horizontal derivative of the HH block
    against the VH block contracted with the nonlinear curvature.
    Identity 2: vertical derivative of the HH block against the
    antisymmetrized horizontal derivative of the VH block.
    Identity 3: symmetry of the vertical derivative of the VH block.
    """
    _require_vector_like(m, "bianchi_check")
    k, n = m.k, m.n
    fiber = m.bundle.fiber_coords
    lin = linear_coeffs(m)
    R = curvature(m)
    theta = vh_curvature(m)
    hh = hh_curvature(m)

    subs = []

    # Identity 1 (cyclic, vacuous for n < 2).
    comps1: dict[str, Expr] = {}
    if n >= 2:
        dh_hh = [dh_field(m, lin, hh, i) for i in range(n)]
        triples = [t for t in itertools.product(range(n), repeat=3)
                   if t <= (t[1], t[2], t[0]) and t <= (t[2], t[0], t[1])]
        for (i, j, l) in triples:
            for A in range(k):
                for B in range(k):
                    e: Expr = ZERO
                    for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
                        e = e + dh_hh[a][B, b, c, A]
                        for C in range(k):
                            e = e - theta[B, a, A, C] * R[C, b, c]
                    e = simplify(e)
                    if not is_zero(e):
                        comps1[f"cyclic[{i+1},{j+1},{l+1};{A+1},{B+1}]"] = e
    subs.append(residual_check("bianchi_1_cyclic", m, comps1, samples, tol,
                               labels={} if n >= 2 else {"vacuous": True}))

    # Identity 2.
    comps2: dict[str, Expr] = {}
    dh_theta = [dh_field(m, lin, theta, i) for i in range(n)]
    for D in range(k):
        dv_hh = dv_field(m, hh, D)
        for i in range(n):
            for j in range(i + 1, n):
                for A in range(k):
                    for B in range(k):
                        e = simplify(dv_hh[B, i, j, A] -
                                     (dh_theta[i][B, j, A, D] -
                                      dh_theta[j][B, i, A, D]))
                        if not is_zero(e):
                            comps2[f"vertical_of_hh[{B+1},{i+1},{j+1},{A+1};{D+1}]"] = e
    subs.append(residual_check("bianchi_2_mixed", m, comps2, samples, tol))

    # Identity 3.
    comps3: dict[str, Expr] = {}
    for C in range(k):
        for i in range(n):
            for A in range(k):
                for B in range(k):
                    for D in range(B + 1, k):
                        e = simplify(diff(theta[C, i, A, B], fiber[D]) -
                                     diff(theta[C, i, A, D], fiber[B]))
                        if not is_zero(e):
                            comps3[f"third_fiber_symmetry[{C+1},{i+1},{A+1};{B+1},{D+1}]"] = e
    subs.append(residual_check("bianchi_3_vertical_symmetry", m, comps3,
                               samples, tol))

    return combine_reports("bianchi", subs, tol, samples)


def tension_identities_check(m: ConnectionModel, samples: np.ndarray,
                             tol: float) -> CheckReport:
    """Differential identities satisfied by the tension.

    (a) The vertical derivative of the tension cancels the VH block
        contracted with the canonical section:
        d(t[A][i])/du^D + sum_B u^B theta[A][i][B][D] = 0.
    (b) The antisymmetrized horizontal derivative of the tension cancels
        the nonlinear curvature plus the HH block contracted with the
        canonical section.
    """
    _require_vector_like(m, "tension_identities_check")
    k, n = m.k, m.n
    fiber = m.bundle.fiber_coords
    lin = linear_coeffs(m)
    t = tension(m)
    theta = vh_curvature(m)
    R = curvature(m)
    hh = hh_curvature(m)

    comps_a: dict[str, Expr] = {}
    for A in range(k):
        for i in range(n):
            for D in range(k):
                e: Expr = diff(t[A, i], fiber[D])
                for B in range(k):
                    e = e + Var(fiber[B]) * theta[A, i, B, D]
                e = simplify(e)
                if not is_zero(e):
                    comps_a[f"vertical_of_tension[{A+1},{i+1};{D+1}]"] = e
    sub_a = residual_check("tension_identity_vertical", m, comps_a, samples, tol)

    comps_b: dict[str, Expr] = {}
    if n >= 2:
        dh_t = [dh_field(m, lin, t, i) for i in range(n)]
        for A in range(k):
            for i in range(n):
                for j in range(i + 1, n):
                    e = dh_t[i][A, j] - dh_t[j][A, i] + R[A, i, j]
                    for B in range(k):
                        e = e + hh[A, i, j, B] * Var(fiber[B])
                    e = simplify(e)
                    if not is_zero(e):
                        comps_b[f"horizontal_of_tension[{A+1};{i+1},{j+1}]"] = e
    sub_b = residual_check("tension_identity_horizontal", m, comps_b, samples,
                           tol, labels={} if n >= 2 else {"vacuous": True})

    return combine_reports("tension_identities", (sub_a, sub_b), tol, samples)


# ---------------------------------------------------------------------------
# Integral sections
# ---------------------------------------------------------------------------

def integral_section_residual(m: ConnectionModel,
                              alpha: SectionModel) -> TensorField:
    """Residual of the integral-section equation, grid [A][i]:
    d(alpha^A)/dx^i + gamma[A][i](x, alpha(x))."""
    from .model import validate_section

    info = validate_section(m, alpha)
    if not info.basic:
        raise ModelError("integral sections must be basic "
                         "(components in base coordinates only)")
    bindings = {u: alpha.components[B]
                for B, u in enumerate(m.bundle.fiber_coords)}
    grid = _grid((m.k, m.n))
    for A in range(m.k):
        for i, x in enumerate(m.bundle.base_coords):
            grid[A, i] = simplify(diff(alpha.components[A], x) +
                                  substitute(m.gamma[A][i], bindings))
    return _tensor("integral_section_residual", (FIBER_VEC, BASE_COV), grid)


def pullback_connection_coeffs(m: ConnectionModel,
                               alpha: SectionModel) -> TensorField:
    """Linearized coefficients restricted to the graph of a basic section,
    grid [A][i][B] of expressions on the base."""
    from .model import validate_section

    info = validate_section(m, alpha)
    if not info.basic:
        raise ModelError("pullback coefficients require a basic section")
    lin = linear_coeffs(m)
    bindings = {u: alpha.components[B]
                for B, u in enumerate(m.bundle.fiber_coords)}
    grid = _grid((m.k, m.n, m.k))
    for A in range(m.k):
        for i in range(m.n):
            for B in range(m.k):
                grid[A, i, B] = simplify(substitute(lin[A, i, B], bindings))
    return _tensor("pullback_coeffs", (FIBER_VEC, BASE_COV, FIBER_COV), grid)
