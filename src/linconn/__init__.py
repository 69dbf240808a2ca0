"""linconn: linearization of nonlinear connections on vector and affine bundles.

A small symbolic-numeric engine. Connections are declared through
closed-form coefficient expressions on a single chart; the package
computes the induced linear connection on the pullback bundle, the
associated tensors (tension, curvature blocks, Jacobi endomorphism),
parallel transport, and a family of diagnostic checks, each backed by
an independent numeric oracle.
"""

from .expr import (
    Expr, Const, Var, ExprError, ParseError, EvalError,
    parse, evaluate, diff, simplify, substitute, variables, to_string,
)
from .model import (
    BundleModel, ConnectionModel, ModelDocument, PointE, SectionModel,
    ModelError, load_model, dump_model, validate_section, sample_points,
)
from .geometry import (
    TensorField, VectorFieldOnE, CheckReport,
    h_apply, linear_coeffs, covariant_derivative, tension, curvature,
    vh_curvature, hh_curvature, hh_curvature_commutator,
    check_homogeneous, check_basic, flatness_check, axioms_check,
    bianchi_check, tension_identities_check,
    integral_section_residual, pullback_connection_coeffs,
)
from .affine import (
    AffineLinearization, homogenize, affine_linearization,
    affine_covariant_derivative, check_homogenized, check_affine_structure,
)
from .sode import (
    SodeModel, sode_connection, jacobi_endomorphism,
    nonautonomous_connection, homogeneous_sode,
    linearizability_report, decoupling_check,
)
from .cotangent import (
    HamiltonianModel, OneFormOnM, TransversalityError,
    torsion_form, dh, dv, hamiltonian_field, poisson, canonical_poisson,
    integrable_connection, integrable_report, hj_verify, geodesic_model,
    cyclic_curvature_check, cotangent_checks,
)
from .transport import (
    CurveSpec, TransportResult, FlowResult,
    horizontal_flow, parallel_transport, transport_oracle,
    holonomy_probe, sode_flow,
)

__version__ = "0.1.0"
