"""Linearization of connections on affine bundles.

An affine-bundle connection is extended to the degree-1 homogeneous
connection on the enlarged vector bundle with one extra fiber coordinate
z0 (the affine fiber sits at z0 = 1, the model vector bundle at z0 = 0),
linearized there, and restricted back; the extended fiber is z0..zk, or
_z0.. where the base uses those names. The restriction is implemented by
direct formulas on the affine model; the homogenized model serves as an
independent oracle. `_homogeneous_extension` builds the extension, and
`sode.homogeneous_sode`'s degree-2 one, both keeping the excluded set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import Expr, Var, ZERO, ONE, diff, simplify, substitute
from .geometry import (
    BASE_COV, FIBER_COV, FIBER_VEC, CheckReport, Residuals, TensorField,
    VectorFieldOnE, _fiber_derivative, _homogeneous_report,
    _homogeneous_sets, _random_field, _suite, _tensor, check_homogeneous,
    combine_reports, h_apply, linear_coeffs,
)
from .model import (
    AFFINE, BundleModel, ConnectionModel, ModelError, SectionModel, _fresh,
    require_kind, sample_points,
)

__all__ = [
    "AffineLinearization", "homogenize",
    "affine_linearization", "affine_covariant_derivative",
    "check_homogenized", "check_affine_structure",
]

@dataclass(frozen=True)
class AffineLinearization:
    """Linearization data of an affine connection.

    coeffs_0[A][i] is the coefficient pairing with the distinguished
    extended-fiber direction (the value of the coefficient matrix minus
    its fiber-linear part); coeffs_lin[A][i][B] is the fiber derivative
    of the coefficient matrix.
    """

    coeffs_0: TensorField
    coeffs_lin: TensorField


def _homogeneous_extension(stem: str, base: Sequence[str],
                           fiber: Sequence[str], exprs: Sequence[Expr],
                           degree: int, excluded: Sequence[Expr]):
    """The degree-`degree` homogeneous extension over the fiber `fiber`:
    the extended fiber names stem0..stemk, named apart from `base`, each e
    of `exprs` as stem0^degree * e(x, stem/stem0), and the excluded set:
    stem0 = 0, then each predicate p of `excluded` as p(x, stem/stem0)."""
    names = _fresh(base, stem, len(fiber) + 1)
    s0 = Var(names[0])
    bindings = {y: Var(name) / s0 for y, name in zip(fiber, names[1:])}
    scale: Expr = s0
    for _ in range(degree - 1):
        scale = scale * s0
    scaled = tuple(simplify(scale * substitute(e, bindings)) for e in exprs)
    return names, scaled, (s0, *(substitute(p, bindings) for p in excluded))


def homogenize(m: ConnectionModel) -> ConnectionModel:
    """The homogeneous extension of an affine model, fiber z0..zk: row 0
    is zero, row A is z0 * gamma[A][i](x, z/z0), and it excludes z0 = 0
    and each excluded predicate p of `m` as p(x, z/z0)."""
    require_kind(m.bundle, AFFINE, "homogenize")
    names, scaled, excluded = _homogeneous_extension(
        "z", m.bundle.base_coords, m.bundle.fiber_coords,
        [e for row in m.gamma for e in row], 1, m.excluded)
    gamma = [[ZERO] * m.n] + [scaled[A * m.n:(A + 1) * m.n]
                              for A in range(m.k)]
    return ConnectionModel(BundleModel("vector", m.bundle.base_coords, names),
                           gamma, excluded)


def affine_linearization(m: ConnectionModel) -> AffineLinearization:
    """Linearization computed directly on the affine model (not through
    homogenization): the fiber-linear part and its complement."""
    require_kind(m.bundle, AFFINE, "affine_linearization")
    lin = _tensor("affine_coeffs_lin", (FIBER_VEC, BASE_COV, FIBER_COV),
                  (m.k, m.n, m.k), _fiber_derivative(m))

    def rule_0(A: int, i: int) -> Expr:
        e: Expr = m.gamma[A][i]
        for B, y in enumerate(m.bundle.fiber_coords):
            e = e - Var(y) * lin[A, i, B]
        return simplify(e)

    return AffineLinearization(
        coeffs_0=_tensor("affine_coeffs_0", (FIBER_VEC, BASE_COV), (m.k, m.n),
                         rule_0),
        coeffs_lin=lin)


def affine_covariant_derivative(m: ConnectionModel, U: VectorFieldOnE,
                                sigma: SectionModel | Sequence[Expr]) -> tuple[Expr, ...]:
    """Covariant derivative of an extended section (k+1 components, the
    distinguished component first):

        component 0: U(sigma^0)
        component A: sum_i U^i [H_i(sigma^A) + c0[A][i] sigma^0
                                + sum_B c[A][i][B] sigma^B]
                     + sum_C U^C d(sigma^A)/dy^C
    """
    require_kind(m.bundle, AFFINE, "affine_covariant_derivative")
    comps = sigma.components if isinstance(sigma, SectionModel) else tuple(sigma)
    if len(comps) != m.k + 1:
        raise ModelError(f"extended section needs {m.k + 1} components, "
                         f"got {len(comps)}")
    if len(U.horizontal) != m.n or len(U.vertical) != m.k:
        raise ModelError("vector field components do not match the bundle")
    lin = affine_linearization(m)
    fiber = m.bundle.fiber_coords
    sigma0, rest = comps[0], comps[1:]
    out = [simplify(U.apply(m, sigma0))]
    for A in range(m.k):
        total: Expr = ZERO
        for i in range(m.n):
            bracket: Expr = h_apply(m, rest[A], i)
            bracket = bracket + lin.coeffs_0[A, i] * sigma0
            for B in range(m.k):
                # Component-first product mirrors the tree shape used in
                # affine_linearization, so the canonical-section identity
                # cancels structurally, not just numerically.
                bracket = bracket + rest[B] * lin.coeffs_lin[A, i, B]
            total = total + U.horizontal[i] * bracket
        for C in range(m.k):
            total = total + U.vertical[C] * diff(rest[A], fiber[C])
        out.append(simplify(total))
    return tuple(out)


def _homogenized_samples(hom: ConnectionModel, count: int, seed: int):
    z0 = hom.bundle.fiber_coords[0]
    return sample_points(hom, count, box={z0: (0.5, 2.0)}, seed=seed)


@_suite
def check_homogenized(hom: ConnectionModel, count: int, tol: float,
                      seed: int = 0) -> CheckReport:
    """Homogeneity check of an extension that `homogenize` returns, on
    `count` seeded points with z0 in [0.5, 2], off the excluded z0 = 0."""
    samples = _homogenized_samples(hom, count, seed)
    return (yield from check_homogeneous.suite(hom, samples, tol))


@_suite
def check_affine_structure(m: ConnectionModel, samples: np.ndarray,
                           tol: float, seed: int = 0) -> CheckReport:
    """Structural checks of the affine linearization.

    (i)   The distinguished component of the covariant derivative of any
          extended section equals the directional derivative of its
          distinguished component (the dual distinguished section is
          parallel).
    (ii)  The homogenized model passes the homogeneity check.
    (iii) Linearizing the homogenized model and restricting to z0 = 1,
          z = y reproduces the direct affine linearization.
    """
    require_kind(m.bundle, AFFINE, "check_affine_structure")
    from .expr import random_polynomial

    rng = np.random.default_rng(seed)
    names = m.bundle.coords

    # (i) distinguished-component residual for random section and field.
    sigma = tuple(random_polynomial(names, rng) for _ in range(m.k + 1))
    U = _random_field(m, rng)
    derivative = affine_covariant_derivative(m, U, sigma)
    residual0 = simplify(derivative[0] - U.apply(m, sigma[0]))
    sub_i, = yield [Residuals("distinguished_section_parallel", m,
                              {"distinguished_component": residual0},
                              samples, tol)]

    # (ii) homogeneity of the homogeneous extension.
    hom = homogenize(m)
    hom_samples = _homogenized_samples(hom, max(len(samples), 1), seed)

    # (iii) restriction consistency: evaluate the homogenized linear
    # coefficients at z0 = 1, z = y against the direct formulas.
    direct = affine_linearization(m)
    ext_lin = linear_coeffs(hom)
    restrict = dict(zip(hom.bundle.fiber_coords,
                        (ONE, *map(Var, m.bundle.fiber_coords))))
    comps_iii: dict[str, Expr] = {}
    for A in range(m.k):
        for i in range(m.n):
            e = simplify(substitute(ext_lin[A + 1, i, 0], restrict) -
                         direct.coeffs_0[A, i])
            comps_iii[f"restriction_c0[{A+1},{i+1}]"] = e
            for B in range(m.k):
                e = simplify(substitute(ext_lin[A + 1, i, B + 1], restrict) -
                             direct.coeffs_lin[A, i, B])
                comps_iii[f"restriction_lin[{A+1},{i+1},{B+1}]"] = e

    *hom_reports, sub_iii = yield [
        *_homogeneous_sets(hom, hom_samples, tol),
        Residuals("restriction_consistency", m, comps_iii, samples, tol)]
    sub_ii = _homogeneous_report(hom_reports, tol)
    sub_ii.name = "homogenized_is_homogeneous"
    return combine_reports("affine_structure", (sub_i, sub_ii, sub_iii), tol,
                           samples)
