"""Linearization of connections on affine bundles.

An affine-bundle connection is extended to the degree-1 homogeneous
connection on the enlarged vector bundle with one extra fiber coordinate
z0 (the affine fiber sits at z0 = 1, the model vector bundle at z0 = 0),
linearized there, and restricted back. The restriction is implemented by
direct formulas on the affine model; the homogenized model serves as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import Expr, Var, ZERO, ONE, diff, is_zero, simplify, substitute
from .geometry import (
    BASE_COV, FIBER_COV, FIBER_VEC, CheckReport, Residuals, TensorField,
    VectorFieldOnE, _fiber_derivative, _homogeneous_report,
    _homogeneous_sets, _suite, _tensor, check_homogeneous, combine_reports,
    h_apply, linear_coeffs,
)
from .model import (
    BundleModel, ConnectionModel, ModelError, SectionModel, sample_points,
)

__all__ = [
    "HomogenizedModel", "AffineLinearization", "homogenize",
    "affine_linearization", "affine_covariant_derivative",
    "check_homogenized", "check_affine_structure",
]

_AFFINE_KINDS = ("affine", "jet")


def _require_affine(m: ConnectionModel, op: str):
    if m.bundle.kind not in _AFFINE_KINDS:
        raise ModelError(f"{op} expects an affine or jet model, "
                         f"got kind={m.bundle.kind}")


@dataclass(frozen=True)
class HomogenizedModel:
    """Homogeneous extension of an affine model on the enlarged bundle.

    Fiber coordinates are z0, z1..zk over the same base; the coefficient
    for z0 vanishes identically and the remaining rows are the degree-1
    homogeneous extensions of the affine coefficients. The hyperplane
    z0 = 0 is excluded.
    """

    model: ConnectionModel
    origin: ConnectionModel

    @property
    def z_coords(self) -> tuple[str, ...]:
        return self.model.bundle.fiber_coords


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


def homogenize(m: ConnectionModel) -> HomogenizedModel:
    """Extend an affine model to the homogeneous model on the enlarged
    bundle: row 0 is zero and row A is z0 * gamma[A][i](x, z/z0)."""
    _require_affine(m, "homogenize")
    bundle = m.bundle
    z_names = tuple(f"z{j}" for j in range(bundle.k + 1))
    clash = set(z_names) & set(bundle.base_coords)
    if clash:
        raise ModelError(f"base coordinates {sorted(clash)} collide with the "
                         "extended fiber names z0..zk")
    z0 = Var("z0")
    bindings = {y: Var(z_names[B + 1]) / z0
                for B, y in enumerate(bundle.fiber_coords)}
    gamma = [[ZERO for _ in range(bundle.n)]]
    for A in range(bundle.k):
        row = []
        for i in range(bundle.n):
            row.append(simplify(z0 * substitute(m.gamma[A][i], bindings)))
        gamma.append(row)
    ext_bundle = BundleModel("vector", bundle.base_coords, z_names)
    ext = ConnectionModel(ext_bundle, gamma, excluded=(z0,))
    return HomogenizedModel(model=ext, origin=m)


def affine_linearization(m: ConnectionModel) -> AffineLinearization:
    """Linearization computed directly on the affine model (not through
    homogenization): the fiber-linear part and its complement."""
    _require_affine(m, "affine_linearization")
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
    _require_affine(m, "affine_covariant_derivative")
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


def _homogenized_samples(hom: HomogenizedModel, count: int, seed: int):
    return sample_points(hom.model, count, box={hom.z_coords[0]: (0.5, 2.0)},
                         seed=seed)


@_suite
def check_homogenized(hom: HomogenizedModel, count: int, tol: float,
                      seed: int = 0) -> CheckReport:
    """Homogeneity check of the homogeneous extension on `count` seeded
    points sampled with z0 in [0.5, 2], away from the excluded z0 = 0."""
    samples = _homogenized_samples(hom, count, seed)
    return (yield from check_homogeneous.suite(hom.model, samples, tol))


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
    _require_affine(m, "check_affine_structure")
    from .expr import random_polynomial

    rng = np.random.default_rng(seed)
    names = m.bundle.coords

    # (i) distinguished-component residual for random section and field.
    sigma = tuple(random_polynomial(names, rng) for _ in range(m.k + 1))
    U = VectorFieldOnE(
        horizontal=tuple(random_polynomial(names, rng, degree=1) for _ in range(m.n)),
        vertical=tuple(random_polynomial(names, rng, degree=1) for _ in range(m.k)),
    )
    derivative = affine_covariant_derivative(m, U, sigma)
    residual0 = simplify(derivative[0] - U.apply(m, sigma[0]))
    comps_i = {} if is_zero(residual0) else {"distinguished_component": residual0}
    # Evaluated before `homogenize`, which may refuse the model.
    sub_i, = yield [Residuals("distinguished_section_parallel", m, comps_i,
                              samples, tol)]

    # (ii) homogeneity of the homogeneous extension.
    hom = homogenize(m)
    hom_samples = _homogenized_samples(hom, max(len(samples), 1), seed)

    # (iii) restriction consistency: evaluate the homogenized linear
    # coefficients at z0 = 1, z = y against the direct formulas.
    direct = affine_linearization(m)
    ext_lin = linear_coeffs(hom.model)
    restrict = {"z0": ONE}
    restrict.update({hom.z_coords[B + 1]: Var(y)
                     for B, y in enumerate(m.bundle.fiber_coords)})
    comps_iii: dict[str, Expr] = {}
    for A in range(m.k):
        for i in range(m.n):
            e = simplify(substitute(ext_lin[A + 1, i, 0], restrict) -
                         direct.coeffs_0[A, i])
            if not is_zero(e):
                comps_iii[f"restriction_c0[{A+1},{i+1}]"] = e
            for B in range(m.k):
                e = simplify(substitute(ext_lin[A + 1, i, B + 1], restrict) -
                             direct.coeffs_lin[A, i, B])
                if not is_zero(e):
                    comps_iii[f"restriction_lin[{A+1},{i+1},{B+1}]"] = e

    *hom_reports, sub_iii = yield [
        *_homogeneous_sets(hom.model, hom_samples, tol),
        Residuals("restriction_consistency", m, comps_iii, samples, tol)]
    sub_ii = _homogeneous_report(hom_reports, tol)
    sub_ii.name = "homogenized_is_homogeneous"
    return combine_reports("affine_structure", (sub_i, sub_ii, sub_iii), tol,
                           samples)
