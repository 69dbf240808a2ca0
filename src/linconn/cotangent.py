"""Cotangent-bundle specializations.

On the cotangent bundle the coefficient matrix carries two base-type
indices: the horizontal frame reads H_i = d/dx^i - G(i,j) d/dp_j, where
G(i,j) is stored as gamma[j][i] (fiber row, base column, as everywhere
else). A connection is symmetric exactly when its horizontal subbundle is
Lagrangian for the canonical symplectic form, i.e. G(i,j) = G(j,i); for
symmetric connections the horizontal/vertical split reproduces Hamiltonian
vector fields and the canonical Poisson bracket.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import (
    Const, Div, Expr, Var, ZERO, compile_fn, diff, is_zero,
    random_polynomial, simplify, substitute, variables,
)
from .geometry import (
    BASE_COV, CheckReport, Residuals, TensorField, VectorFieldOnE,
    _field_residuals, _suite, _tensor, combine_reports, curvature,
    evaluate_components, h_apply,
)
from .model import BundleModel, ConnectionModel, ModelError, sample_points

__all__ = [
    "HamiltonianModel", "OneFormOnM", "TransversalityError",
    "AsymmetricConnectionWarning", "torsion_form", "dh", "dv",
    "hamiltonian_field", "poisson", "canonical_poisson",
    "integrable_connection", "integrable_report", "hj_verify",
    "geodesic_model", "cyclic_curvature_check", "cotangent_checks",
]


class TransversalityError(ModelError):
    """The fiber-derivative matrix of the candidate first integrals is
    singular, so they do not define a horizontal distribution."""


class AsymmetricConnectionWarning(UserWarning):
    """Hamiltonian decompositions assume a symmetric connection."""


@dataclass(frozen=True)
class HamiltonianModel:
    """A Hamiltonian on a cotangent chart, optionally with a complete
    family of first integrals (one per base dimension)."""

    bundle: BundleModel
    H: Expr
    first_integrals: tuple[Expr, ...] | None = None

    def __post_init__(self):
        if self.bundle.kind != "cotangent":
            raise ModelError("HamiltonianModel requires a cotangent bundle")
        allowed = set(self.bundle.coords)
        for name, e in self._named():
            unknown = variables(e) - allowed
            if unknown:
                raise ModelError(f"{name} references unknown coordinate(s) "
                                 f"{sorted(unknown)}")
        if self.first_integrals is not None and \
                len(self.first_integrals) != self.bundle.n:
            raise ModelError(f"need {self.bundle.n} first integrals")

    def _named(self):
        yield "H", self.H
        for i, f in enumerate(self.first_integrals or ()):
            yield f"f{i + 1}", f


@dataclass(frozen=True)
class OneFormOnM:
    """A 1-form on the base, components in base coordinates only."""

    components: tuple[Expr, ...]


def _require_cotangent(m: ConnectionModel, op: str):
    if m.bundle.kind != "cotangent":
        raise ModelError(f"{op} expects a cotangent model, "
                         f"got kind={m.bundle.kind}")


def _g(m: ConnectionModel, i: int, j: int) -> Expr:
    """Coefficient G(i,j) of d/dp_j in the horizontal lift H_i."""
    return m.gamma[j][i]


def torsion_form(m: ConnectionModel) -> TensorField:
    """Antisymmetric part of the coefficient matrix, [i][j] =
    (G(i,j) - G(j,i))/2; identically zero iff the connection is
    symmetric (Lagrangian horizontal subbundle)."""
    _require_cotangent(m, "torsion_form")
    half = Const(0.5)

    def rule(i: int, j: int) -> Expr:
        if i == j:
            return ZERO
        if i > j:
            return simplify(-rule(j, i))
        return simplify(half * (_g(m, i, j) - _g(m, j, i)))

    return _tensor("torsion_form", (BASE_COV, BASE_COV), (m.n, m.n), rule)


def is_symmetric(m: ConnectionModel, probes: int = 16) -> bool:
    """Symmetry test: structural zero of the torsion form, falling back to
    evaluation on a small deterministic grid off the excluded set."""
    comps = _field_residuals(torsion_form(m))
    if not comps:
        return True
    pts = sample_points(m, probes, seed=20240917)
    max_res, _, _ = evaluate_components(m, comps, pts)
    return max_res <= 1e-12


def dh(m: ConnectionModel, f: Expr) -> tuple[Expr, ...]:
    """Horizontal differential: component i is H_i(f)."""
    _require_cotangent(m, "dh")
    return tuple(h_apply(m, f, i) for i in range(m.n))


def dv(m: ConnectionModel, f: Expr) -> tuple[Expr, ...]:
    """Vertical differential: component i is df/dp_i."""
    _require_cotangent(m, "dv")
    return tuple(diff(f, p) for p in m.bundle.fiber_coords)


def _warn_if_asymmetric(m: ConnectionModel, op: str):
    if not is_symmetric(m):
        warnings.warn(f"{op}: connection is not symmetric; the Hamiltonian "
                      "decomposition is only valid for symmetric connections",
                      AsymmetricConnectionWarning, stacklevel=3)


def hamiltonian_field(m: ConnectionModel, f: Expr) -> VectorFieldOnE:
    """Hamiltonian vector field of a function, split in the frame
    {H_i, V^i}: horizontal components dv(f), vertical components -dh(f).
    For symmetric connections this reproduces the canonical equations."""
    _warn_if_asymmetric(m, "hamiltonian_field")
    return VectorFieldOnE(horizontal=dv(m, f),
                          vertical=tuple(simplify(-e) for e in dh(m, f)))


def poisson(m: ConnectionModel, f: Expr, g: Expr) -> Expr:
    """Poisson bracket through the connection split:
    <dh f, dv g> - <dh g, dv f>. Equals the canonical bracket whenever
    the connection is symmetric."""
    _warn_if_asymmetric(m, "poisson")
    dh_f, dv_f = dh(m, f), dv(m, f)
    dh_g, dv_g = dh(m, g), dv(m, g)
    out: Expr = ZERO
    for i in range(m.n):
        out = out + dh_f[i] * dv_g[i] - dh_g[i] * dv_f[i]
    return simplify(out)


def canonical_poisson(bundle: BundleModel, f: Expr, g: Expr) -> Expr:
    """Connection-independent canonical bracket, the oracle for `poisson`:
    sum_i (df/dx^i dg/dp_i - dg/dx^i df/dp_i)."""
    if bundle.kind != "cotangent":
        raise ModelError("canonical_poisson expects a cotangent bundle")
    out: Expr = ZERO
    for x, p in zip(bundle.base_coords, bundle.fiber_coords):
        out = out + diff(f, x) * diff(g, p) - diff(g, x) * diff(f, p)
    return simplify(out)


# ---------------------------------------------------------------------------
# Completely integrable systems
# ---------------------------------------------------------------------------

def _det(matrix: list[list[Expr]]) -> Expr:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total: Expr = ZERO
    for col in range(n):
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        term = matrix[0][col] * _det(minor)
        total = total + term if col % 2 == 0 else total - term
    return simplify(total)


def integrable_connection(h: HamiltonianModel) -> ConnectionModel:
    """Connection whose horizontal distribution is spanned by the
    Hamiltonian vector fields of a complete first-integral family.

    The coefficients solve sum_j G(i,j) df_k/dp_j = df_k/dx^i for each
    base direction i, by Cramer's rule; the zero locus of the
    transversality determinant det[df_k/dp_j] is excluded.
    """
    if h.first_integrals is None:
        raise ModelError("integrable_connection needs a complete family of "
                         "first integrals")
    bundle = h.bundle
    n = bundle.n
    M = [[diff(f, p) for p in bundle.fiber_coords] for f in h.first_integrals]
    det = _det(M)
    if is_zero(det) or _zero_on_probes(bundle, det):
        raise TransversalityError(
            "transversality failure: det[df_k/dp_j] vanishes identically")

    def coefficient(i: int, j: int) -> Expr:  # G(i,j)
        x = bundle.base_coords[i]
        replaced = [[diff(f, x) if c == j else row[c] for c in range(n)]
                    for f, row in zip(h.first_integrals, M)]
        return simplify(Div(_det(replaced), det))

    gamma = [[coefficient(i, j) for i in range(n)] for j in range(n)]
    return ConnectionModel(bundle, gamma, excluded=(det,))


def _zero_on_probes(bundle: BundleModel, e: Expr, count: int = 25) -> bool:
    fn = compile_fn(e, bundle.coords)
    probes = np.random.default_rng(20240917).uniform(
        0.3, 1.7, size=(count, len(bundle.coords)))
    return not any(abs(fn(vals)) > 1e-12 for vals in probes.tolist())


def _integrable_sets(h: HamiltonianModel, m: ConnectionModel,
                     samples: np.ndarray, tol: float) -> list[Residuals]:
    if h.first_integrals is None:
        raise ModelError("integrable_report needs first integrals")
    comps_inv: dict[str, Expr] = {}
    for (a, fa), (b, fb) in itertools.combinations(
            enumerate(h.first_integrals, start=1), 2):
        e = canonical_poisson(h.bundle, fa, fb)
        if not is_zero(e):
            comps_inv[f"involution[{a},{b}]"] = e

    comps_fi: dict[str, Expr] = {}
    for idx, f in enumerate(h.first_integrals, start=1):
        e = canonical_poisson(h.bundle, h.H, f)
        if not is_zero(e):
            comps_fi[f"first_integral[{idx}]"] = e

    comps_dh: dict[str, Expr] = {}
    for idx, f in enumerate(h.first_integrals, start=1):
        for i, e in enumerate(dh(m, f), start=1):
            if not is_zero(e):
                comps_dh[f"horizontal_differential[{idx};{i}]"] = e

    return [Residuals("involution", m, comps_inv, samples, tol),
            Residuals("first_integrals_of_H", m, comps_fi, samples, tol),
            Residuals("defining_relations", m, comps_dh, samples, tol),
            Residuals("torsion", m, _field_residuals(torsion_form(m)),
                      samples, tol)]


@_suite
def integrable_report(h: HamiltonianModel, m: ConnectionModel,
                      samples: np.ndarray, tol: float) -> CheckReport:
    """Diagnostics for a connection built from first integrals: canonical
    involution of the family, the first-integral property against H, the
    defining horizontal-differential residuals and the torsion."""
    subs = yield _integrable_sets(h, m, samples, tol)
    return combine_reports("integrable_structure", subs, tol, samples)


# ---------------------------------------------------------------------------
# Hamilton-Jacobi verification
# ---------------------------------------------------------------------------

@_suite
def hj_verify(h: HamiltonianModel, alpha: OneFormOnM,
              samples: np.ndarray, tol: float,
              connection: ConnectionModel | None = None) -> CheckReport:
    """Verify a candidate Hamilton-Jacobi solution.

    (i)   closedness: d(alpha_i)/dx^j - d(alpha_j)/dx^i = 0;
    (ii)  level: the pullback of H along alpha is locally constant;
    (iii) when a connection is attached, alpha is one of its integral
          sections: d(alpha_j)/dx^i + G(i,j)(x, alpha(x)) = 0.

    Residuals are functions on the base; samples provide the base values.
    """
    bundle = h.bundle
    if len(alpha.components) != bundle.n:
        raise ModelError(f"1-form needs {bundle.n} components")
    for idx, comp in enumerate(alpha.components, start=1):
        extra = variables(comp) - set(bundle.base_coords)
        if extra:
            raise ModelError(f"alpha[{idx}] must be basic; found "
                             f"coordinate(s) {sorted(extra)}")

    helper = ConnectionModel(bundle, [[ZERO] * bundle.n] * bundle.n) \
        if connection is None else connection

    comps_closed: dict[str, Expr] = {}
    for i in range(bundle.n):
        for j in range(i + 1, bundle.n):
            e = simplify(diff(alpha.components[i], bundle.base_coords[j]) -
                         diff(alpha.components[j], bundle.base_coords[i]))
            if not is_zero(e):
                comps_closed[f"closedness[{i+1},{j+1}]"] = e

    bindings = {p: alpha.components[i]
                for i, p in enumerate(bundle.fiber_coords)}
    h_on_graph = simplify(substitute(h.H, bindings))
    comps_level: dict[str, Expr] = {}
    for i, x in enumerate(bundle.base_coords, start=1):
        e = diff(h_on_graph, x)
        if not is_zero(e):
            comps_level[f"level[{i}]"] = e
    sets = [Residuals("closedness", helper, comps_closed, samples, tol,
                      {} if bundle.n > 1 else {"vacuous": True}),
            Residuals("level", helper, comps_level, samples, tol)]
    if connection is not None:
        comps_int: dict[str, Expr] = {}
        for i in range(bundle.n):
            for j in range(bundle.n):
                e = simplify(diff(alpha.components[j], bundle.base_coords[i]) +
                             substitute(_g(connection, i, j), bindings))
                if not is_zero(e):
                    comps_int[f"integral_section[{i+1},{j+1}]"] = e
        sets.append(Residuals("integral_section", connection, comps_int,
                              samples, tol))

    subs = yield sets
    return combine_reports("hamilton_jacobi", subs, tol, samples)


def geodesic_model(g_inv: Sequence[Sequence[Expr]],
                   base_coords: Sequence[str] | None = None,
                   fiber_coords: Sequence[str] | None = None) -> HamiltonianModel:
    """Quadratic Hamiltonian of an inverse metric:
    H = 1/2 sum_ij g^-1[i][j](x) p_i p_j."""
    n = len(g_inv)
    rows = [list(row) for row in g_inv]
    if any(len(row) != n for row in rows):
        raise ModelError("inverse metric must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if not is_zero(simplify(rows[i][j] - rows[j][i])):
                raise ModelError("inverse metric must be symmetric")
    base = tuple(base_coords) if base_coords else tuple(f"x{i+1}" for i in range(n))
    fiber = tuple(fiber_coords) if fiber_coords else tuple(f"p{i+1}" for i in range(n))
    bundle = BundleModel("cotangent", base, fiber)
    half = Const(0.5)
    H: Expr = ZERO
    for i in range(n):
        for j in range(n):
            H = H + half * rows[i][j] * Var(fiber[i]) * Var(fiber[j])
    for row in rows:
        for e in row:
            extra = variables(e) - set(base)
            if extra:
                raise ModelError(f"inverse metric entries must be basic; "
                                 f"found {sorted(extra)}")
    return HamiltonianModel(bundle=bundle, H=simplify(H))


def _cyclic_set(m: ConnectionModel, samples: np.ndarray,
                tol: float) -> Residuals:
    _require_cotangent(m, "cyclic_curvature_check")
    R = curvature(m)
    n = m.n
    comps: dict[str, Expr] = {}
    triples = [t for t in itertools.product(range(n), repeat=3)
               if t <= (t[1], t[2], t[0]) and t <= (t[2], t[0], t[1])]
    for (i, j, l) in triples:
        e: Expr = ZERO
        for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
            e = e + R[c, a, b]
        e = simplify(e)
        if not is_zero(e):
            comps[f"cyclic[{i+1},{j+1},{l+1}]"] = e
    return Residuals("cyclic_curvature", m, comps, samples, tol)


@_suite
def cyclic_curvature_check(m: ConnectionModel, samples: np.ndarray,
                           tol: float) -> CheckReport:
    """For symmetric connections the curvature satisfies the cyclic
    identity sum_cyc <R(X,Y), Z> = 0 on coordinate frames."""
    report, = yield [_cyclic_set(m, samples, tol)]
    return report


@_suite
def cotangent_checks(m: ConnectionModel, count: int, tol: float,
                     seed: int = 0,
                     h: HamiltonianModel | None = None) -> list[CheckReport]:
    """The cotangent suite on `count` seeded sample points.

    Symmetry of the connection (vanishing torsion form); for a symmetric
    connection also the cyclic curvature identity, the Poisson bracket
    through the split against the canonical bracket, and the decomposition
    <dh f, U^h> + <dv f, U^v> = U(f) of the differential along Hamiltonian
    fields U, both on four seeded pairs of random polynomials; with a
    first-integral family `h`, its integrable-structure report.
    """
    _require_cotangent(m, "cotangent_checks")
    pts = sample_points(m, count, seed=seed)
    reports = yield [Residuals("symmetric", m,
                               _field_residuals(torsion_form(m)), pts, tol)]
    sets = []
    if reports[0].passed:
        # Evaluated before the Poisson residuals are built: `poisson` and
        # `hamiltonian_field` may evaluate the torsion at probe points.
        reports += (yield [_cyclic_set(m, pts, tol)])
        rng = np.random.default_rng(seed)
        comps_poisson: dict[str, Expr] = {}
        comps_decomp: dict[str, Expr] = {}
        for trial in range(4):
            f = random_polynomial(m.bundle.coords, rng)
            g = random_polynomial(m.bundle.coords, rng)
            residual = simplify(poisson(m, f, g) -
                                canonical_poisson(m.bundle, f, g))
            if not is_zero(residual):
                comps_poisson[f"poisson_vs_canonical[{trial}]"] = residual
            U = hamiltonian_field(m, g)
            pairing: Expr = ZERO
            for d, u in zip(dh(m, f) + dv(m, f), U.horizontal + U.vertical):
                pairing = pairing + d * u
            residual = simplify(pairing - U.apply(m, f))
            if not is_zero(residual):
                comps_decomp[f"differential_decomposition[{trial}]"] = residual
        sets = [Residuals("poisson_vs_canonical", m, comps_poisson, pts, tol),
                Residuals("differential_decomposition", m, comps_decomp, pts,
                          tol)]
    integrable = _integrable_sets(h, m, pts, tol) \
        if h is not None and h.first_integrals else []
    subs = yield sets + integrable
    reports += subs[:len(sets)]
    if integrable:
        reports.append(combine_reports("integrable_structure",
                                       subs[len(sets):], tol, pts))
    return reports
