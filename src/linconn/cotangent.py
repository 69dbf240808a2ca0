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
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import (
    Const, Div, Expr, Var, ZERO, compile_fn, diff, is_zero,
    random_polynomial, simplify, substitute,
)
from .geometry import (
    BASE_COV, CheckReport, Residuals, TensorField, VectorFieldOnE,
    _cyclic_triples, _field_residuals, _suite, _tensor, combine_reports,
    curvature, h_apply,
)
from .model import (COTANGENT, DEFAULT_BOX, EXCLUDED_MARGIN, BundleModel,
                    ConnectionModel, ModelError, require_coords, require_kind,
                    sample_points)

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
        require_kind(self.bundle, COTANGENT, "HamiltonianModel")
        require_coords("H", (self.H,), self.bundle.coords)
        require_coords("f{}", self.first_integrals or (), self.bundle.coords)
        if self.first_integrals is not None and \
                len(self.first_integrals) != self.bundle.n:
            raise ModelError(f"need {self.bundle.n} first integrals")

    def one_form(self, components: Sequence[Expr]) -> OneFormOnM:
        """`components` as a 1-form on the base, refused unless it has one
        component per base coordinate and each uses base coordinates
        only."""
        if len(components) != self.bundle.n:
            raise ModelError(f"1-form needs {self.bundle.n} components")
        require_coords("alpha[{}]", components, self.bundle.base_coords)
        return OneFormOnM(tuple(components))


@dataclass(frozen=True)
class OneFormOnM:
    """A 1-form on the base, components in base coordinates only."""

    components: tuple[Expr, ...]


def _g(m: ConnectionModel, i: int, j: int) -> Expr:
    """Coefficient G(i,j) of d/dp_j in the horizontal lift H_i."""
    return m.gamma[j][i]


def torsion_form(m: ConnectionModel) -> TensorField:
    """Antisymmetric part of the coefficient matrix, [i][j] =
    (G(i,j) - G(j,i))/2; identically zero iff the connection is
    symmetric (Lagrangian horizontal subbundle)."""
    require_kind(m.bundle, COTANGENT, "torsion_form")
    half = Const(0.5)

    def rule(i: int, j: int) -> Expr:
        if i == j:
            return ZERO
        if i > j:
            return simplify(-rule(j, i))
        return simplify(half * (_g(m, i, j) - _g(m, j, i)))

    return _tensor("torsion_form", (BASE_COV, BASE_COV), (m.n, m.n), rule)


def is_symmetric(m: ConnectionModel) -> bool:
    """Symmetry test: structural zero of the torsion form, falling back to
    16 fixed probes in the default sampling box, off the excluded set."""
    comps = [e for _, e in torsion_form(m).items() if not is_zero(e)]
    return not comps or _zero_on_probes(m.bundle, comps, DEFAULT_BOX,
                                        m.excluded, count=16)


def dh(m: ConnectionModel, f: Expr) -> tuple[Expr, ...]:
    """Horizontal differential: component i is H_i(f)."""
    require_kind(m.bundle, COTANGENT, "dh")
    return tuple(h_apply(m, f, i) for i in range(m.n))


def dv(m: ConnectionModel, f: Expr) -> tuple[Expr, ...]:
    """Vertical differential: component i is df/dp_i."""
    require_kind(m.bundle, COTANGENT, "dv")
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
    require_kind(bundle, COTANGENT, "canonical_poisson")
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
    if is_zero(det) or _zero_on_probes(bundle, [det], (0.3, 1.7)):
        raise TransversalityError(
            "transversality failure: det[df_k/dp_j] vanishes identically")

    def coefficient(i: int, j: int) -> Expr:  # G(i,j)
        x = bundle.base_coords[i]
        replaced = [[diff(f, x) if c == j else row[c] for c in range(n)]
                    for f, row in zip(h.first_integrals, M)]
        return simplify(Div(_det(replaced), det))

    gamma = [[coefficient(i, j) for i in range(n)] for j in range(n)]
    # A constant determinant is nonzero here, so it excludes nothing.
    return ConnectionModel(bundle, gamma,
                           excluded=() if type(det) is Const else (det,))


def _zero_on_probes(bundle: BundleModel, exprs: Sequence[Expr],
                    box: tuple[float, float], excluded: Sequence[Expr] = (),
                    count: int = 25) -> bool:
    """Whether every one of `exprs` is within 1e-12 of zero at the first
    `count` fixed probes in box^d, leaving out each probe where a
    predicate of `excluded` is within the sampler's `EXCLUDED_MARGIN`
    (no probe left reads as not zero). Probe k has coordinate j at
    lo + (hi - lo)*frac(0.5 + k*exp(1/j)), a Weyl sequence of plain
    floats (1 and the exp(1/j) are independent over the rationals)."""
    lo, hi = box
    near = [compile_fn(p, bundle.coords) for p in excluded]
    values = [compile_fn(e, bundle.coords) for e in exprs]
    probes = ([lo + (hi - lo) * ((0.5 + k * math.exp(1 / j)) % 1.0)
               for j in range(1, len(bundle.coords) + 1)]
              for k in range(1, count + 1))
    kept = [point for point in probes
            if not any(abs(p(point)) < EXCLUDED_MARGIN for p in near)]
    return bool(kept) and all(abs(fn(point)) <= 1e-12
                              for point in kept for fn in values)


def _integrable_sets(h: HamiltonianModel, m: ConnectionModel,
                     samples: np.ndarray, tol: float) -> list[Residuals]:
    if h.first_integrals is None:
        raise ModelError("integrable_report needs first integrals")
    integrals = list(enumerate(h.first_integrals, start=1))
    comps_inv = {f"involution[{a},{b}]": canonical_poisson(h.bundle, fa, fb)
                 for (a, fa), (b, fb) in itertools.combinations(integrals, 2)}
    comps_fi = {f"first_integral[{idx}]": canonical_poisson(h.bundle, h.H, f)
                for idx, f in integrals}
    comps_dh = {f"horizontal_differential[{idx};{i}]": e
                for idx, f in integrals
                for i, e in enumerate(dh(m, f), start=1)}

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
    alpha = h.one_form(alpha.components)

    helper = ConnectionModel(bundle, [[ZERO] * bundle.n] * bundle.n) \
        if connection is None else connection

    comps_closed: dict[str, Expr] = {}
    for i in range(bundle.n):
        for j in range(i + 1, bundle.n):
            e = simplify(diff(alpha.components[i], bundle.base_coords[j]) -
                         diff(alpha.components[j], bundle.base_coords[i]))
            comps_closed[f"closedness[{i+1},{j+1}]"] = e

    bindings = {p: alpha.components[i]
                for i, p in enumerate(bundle.fiber_coords)}
    h_on_graph = simplify(substitute(h.H, bindings))
    comps_level = {f"level[{i}]": diff(h_on_graph, x)
                   for i, x in enumerate(bundle.base_coords, start=1)}
    sets = [Residuals("closedness", helper, comps_closed, samples, tol,
                      {} if bundle.n > 1 else {"vacuous": True}),
            Residuals("level", helper, comps_level, samples, tol)]
    if connection is not None:
        comps_int: dict[str, Expr] = {}
        for i in range(bundle.n):
            for j in range(bundle.n):
                e = simplify(diff(alpha.components[j], bundle.base_coords[i]) +
                             substitute(_g(connection, i, j), bindings))
                comps_int[f"integral_section[{i+1},{j+1}]"] = e
        sets.append(Residuals("integral_section", connection, comps_int,
                              samples, tol))

    subs = yield sets
    return combine_reports("hamilton_jacobi", subs, tol, samples)


def geodesic_model(g_inv: Sequence[Sequence[Expr]]) -> HamiltonianModel:
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
    base = tuple(f"x{i+1}" for i in range(n))
    fiber = tuple(f"p{i+1}" for i in range(n))
    bundle = BundleModel("cotangent", base, fiber)
    half = Const(0.5)
    H: Expr = ZERO
    for i in range(n):
        for j in range(n):
            H = H + half * rows[i][j] * Var(fiber[i]) * Var(fiber[j])
    for i, row in enumerate(rows, start=1):
        require_coords(f"inverse metric[{i},{{}}]", row, base)
    return HamiltonianModel(bundle=bundle, H=simplify(H))


def _cyclic_set(m: ConnectionModel, samples: np.ndarray,
                tol: float) -> Residuals:
    require_kind(m.bundle, COTANGENT, "cyclic_curvature_check")
    R = curvature(m)
    comps: dict[str, Expr] = {}
    for (i, j, l) in _cyclic_triples(m.n):
        e: Expr = ZERO
        for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
            e = e + R[c, a, b]
        e = simplify(e)
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
    require_kind(m.bundle, COTANGENT, "cotangent_checks")
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
            comps_poisson[f"poisson_vs_canonical[{trial}]"] = residual
            U = hamiltonian_field(m, g)
            pairing: Expr = ZERO
            for d, u in zip(dh(m, f) + dv(m, f), U.horizontal + U.vertical):
                pairing = pairing + d * u
            residual = simplify(pairing - U.apply(m, f))
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
