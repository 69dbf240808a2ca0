"""Linearizing a connection on an affine bundle.

Affine bundles have no zero section, so the fiber-derivative trick does
not apply directly. The connection is first extended to a degree-1
homogeneous connection on a bundle with one extra fiber coordinate z0
(the affine fibers sit at z0 = 1), linearized there, and restricted
back. `homogenize` returns that connection; its fiber is z0..zk, or
_z0.. where the base already uses those names. The restriction has an
extra coefficient block, and the dual distinguished section is
parallel: transported vectors never leak out of the affine fiber.
"""

from linconn import (
    CurveSpec, PointE, VectorFieldOnE, affine_covariant_derivative,
    affine_linearization, check_affine_structure, homogenize,
    parallel_transport, parse, sample_points,
)
from linconn.model import BundleModel, ConnectionModel

b = BundleModel("affine", ("x1",), ("y1",))
m = ConnectionModel(b, [[parse("y1^2")]])

hom = homogenize(m)
z = hom.bundle.fiber_coords
print(f"homogeneous extension (fiber {', '.join(z)}):")
for name, row in zip(z, hom.gamma):
    print(f"  row {name}: {[str(e) for e in row]}")

lin = affine_linearization(m)
print(f"\ndirect linearization: affine part {lin.coeffs_0[0, 0]}, "
      f"linear part {lin.coeffs_lin[0, 0, 0]}")

U = VectorFieldOnE(horizontal=(parse("x1 + y1"),), vertical=(parse("2*y1"),))
derivative = affine_covariant_derivative(m, U, (parse("1"), parse("y1")))
print(f"canonical-section derivative (should equal the vertical part): "
      f"{[str(e) for e in derivative]}")

pts = sample_points(m, 100, seed=5)
report = check_affine_structure(m, pts, 1e-9)
for sub in report.subreports:
    print(f"{sub.name}: {'pass' if sub.passed else 'fail'} "
          f"(max residual {sub.max_residual:.2e})")

spec = CurveSpec(start=PointE((0.0,), (0.4,)), t_span=1.0, step=1e-3,
                 field=(parse("1"),))
out = parallel_transport(m, spec, (1.0, 0.2))
print(f"\ntransport of an affine-fiber vector: weight stays "
      f"{out.final_fiber[0]:.12f}, model-fiber part {out.final_fiber[1]:.6f}")
