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

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable, Mapping, Sequence

import numpy as np

from .expr import (
    Expr, ExprError, Var, ZERO, _sample_columns, _scalar_rows, diff, is_zero,
    random_polynomial, simplify, substitute,
)
from .model import (VECTOR_LIKE, ConnectionModel, ModelError, PointE,
                    SectionModel, require_coords, require_kind,
                    validate_section)

__all__ = [
    "TensorField", "VectorFieldOnE", "CheckReport",
    "h_apply", "linear_coeffs", "covariant_derivative", "tension",
    "curvature", "vh_curvature", "hh_curvature", "hh_curvature_commutator",
    "check_homogeneous", "check_basic", "flatness_check", "axioms_check",
    "bianchi_check", "tension_identities_check",
    "integral_section_residual", "pullback_connection_coeffs",
    "Residuals", "evaluate_components", "combine_reports", "run_suites",
]

# Slot descriptors for tensor signatures.
BASE_VEC = "base-vector"
BASE_COV = "base-covector"
FIBER_VEC = "fiber-vector"
FIBER_COV = "fiber-covector"

@dataclass(frozen=True)
class TensorField:
    """Component expressions with a variance signature: `components` maps
    every index tuple of `shape`, in row-major order, to its expression."""

    name: str
    signature: tuple[str, ...]
    shape: tuple[int, ...]
    components: dict[tuple[int, ...], Expr]

    def __post_init__(self):
        if len(self.shape) != len(self.signature):
            raise ValueError("component rank does not match the signature")

    def __getitem__(self, idx: tuple[int, ...]) -> Expr:
        return self.components[idx]

    def items(self) -> Iterable[tuple[tuple[int, ...], Expr]]:
        return self.components.items()

    def label(self, idx: tuple[int, ...]) -> str:
        inner = ",".join(str(i + 1) for i in idx)
        return f"{self.name}[{inner}]"


def _tensor(name: str, signature: tuple[str, ...], shape: tuple[int, ...],
            rule: Callable[..., Expr]) -> TensorField:
    """The tensor whose component at each index of `shape` is `rule(*idx)`,
    built in row-major order."""
    indices = itertools.product(*map(range, shape))
    return TensorField(name, signature, shape,
                       {idx: rule(*idx) for idx in indices})


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


def _fiber_derivative(m: ConnectionModel) -> Callable[[int, int, int], Expr]:
    """The rule [A][i][B] = d(gamma[A][i])/du^B of the linearized
    coefficients, shared with the affine linearization."""
    fiber = m.bundle.fiber_coords
    return lambda A, i, B: diff(m.gamma[A][i], fiber[B])


def linear_coeffs(m: ConnectionModel) -> TensorField:
    """Coefficients of the induced linear connection: the fiber derivative
    of the coefficient matrix, [A][i][B]."""
    require_kind(m.bundle, VECTOR_LIKE, "linear_coeffs")
    return _tensor("linear_coeffs", (FIBER_VEC, BASE_COV, FIBER_COV),
                   (m.k, m.n, m.k), _fiber_derivative(m))


def covariant_derivative(m: ConnectionModel, U: VectorFieldOnE,
                         sigma: SectionModel | Sequence[Expr]) -> tuple[Expr, ...]:
    """Covariant derivative of a section along a vector field, component A:

        sum_i U^i (H_i(sigma^A) + sum_B coeff[A][i][B] sigma^B)
        + sum_B U^B d(sigma^A)/du^B
    """
    require_kind(m.bundle, VECTOR_LIKE, "covariant_derivative")
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
    """Tension tensor [A][i]: the failure of degree-1 homogeneity,
    gamma[A][i] - sum_B d(gamma[A][i])/du^B u^B."""
    require_kind(m.bundle, VECTOR_LIKE, "tension")
    lin = linear_coeffs(m)

    def rule(A: int, i: int) -> Expr:
        e: Expr = m.gamma[A][i]
        for B, u in enumerate(m.bundle.fiber_coords):
            e = e - lin[A, i, B] * Var(u)
        return simplify(e)

    return _tensor("tension", (FIBER_VEC, BASE_COV), (m.k, m.n), rule)


def curvature(m: ConnectionModel) -> TensorField:
    """Curvature of the nonlinear connection [A][i][j]:
    H_j(gamma[A][i]) - H_i(gamma[A][j]); antisymmetric in i, j."""
    def rule(A: int, i: int, j: int) -> Expr:
        if i == j:
            return ZERO
        if i > j:
            return simplify(-rule(A, j, i))
        return simplify(h_apply(m, m.gamma[A][i], j) -
                        h_apply(m, m.gamma[A][j], i))

    return _tensor("curvature", (FIBER_VEC, BASE_COV, BASE_COV),
                   (m.k, m.n, m.n), rule)


def vh_curvature(m: ConnectionModel) -> TensorField:
    """Vertical-horizontal curvature block of the linear connection,
    [C][i][A][B] = d^2 gamma[C][i] / du^A du^B; symmetric in A, B.
    Vanishing characterizes pullbacks of linear connections."""
    require_kind(m.bundle, VECTOR_LIKE, "vh_curvature")
    fiber = m.bundle.fiber_coords
    return _tensor(
        "vh_curvature", (FIBER_VEC, BASE_COV, FIBER_COV, FIBER_COV),
        (m.k, m.n, m.k, m.k),
        lambda C, i, A, B: diff(diff(m.gamma[C][i], fiber[A]), fiber[B]))


def hh_curvature(m: ConnectionModel) -> TensorField:
    """Horizontal-horizontal curvature block [B][i][j][A]:
    minus the fiber derivative of the nonlinear curvature,
    -d(R[B][i][j])/du^A; antisymmetric in i, j."""
    require_kind(m.bundle, VECTOR_LIKE, "hh_curvature")
    R = curvature(m)
    fiber = m.bundle.fiber_coords
    return _tensor(
        "hh_curvature", (FIBER_VEC, BASE_COV, BASE_COV, FIBER_COV),
        (m.k, m.n, m.n, m.k),
        lambda B, i, j, A: simplify(-diff(R[B, i, j], fiber[A])))


def hh_curvature_commutator(m: ConnectionModel) -> TensorField:
    """Second, independent route to the horizontal-horizontal block via the
    commutator of horizontal covariant derivatives:

        H_i(c[B][j][A]) - H_j(c[B][i][A])
          + sum_C (c[B][i][C] c[C][j][A] - c[B][j][C] c[C][i][A])

    with c the linearized coefficients. Used as a cross-check against
    `hh_curvature`.
    """
    require_kind(m.bundle, VECTOR_LIKE, "hh_curvature_commutator")
    lin = linear_coeffs(m)

    def rule(B: int, i: int, j: int, A: int) -> Expr:
        e: Expr = h_apply(m, lin[B, j, A], i) - h_apply(m, lin[B, i, A], j)
        for C in range(m.k):
            e = e + lin[B, i, C] * lin[C, j, A]
            e = e - lin[B, j, C] * lin[C, i, A]
        return simplify(e)

    return _tensor("hh_curvature_commutator",
                   (FIBER_VEC, BASE_COV, BASE_COV, FIBER_COV),
                   (m.k, m.n, m.n, m.k), rule)


# ---------------------------------------------------------------------------
# Covariant derivatives of tensor fields along the projection
# ---------------------------------------------------------------------------

def dh_field(m: ConnectionModel, lin: TensorField, field_: TensorField,
             i: int, base_corr: bool = False) -> TensorField:
    """Horizontal covariant derivative of a tensor field along direction i,
    with the field's signature and shape.

    Fiber-vector slots pick up +coeff corrections, fiber-covector slots
    -coeff. Base slots are corrected the same way only when `base_corr`
    is set (tangent-bundle case, where the auxiliary connection is the
    linearization itself); otherwise the coordinate-flat auxiliary
    connection leaves them untouched. A correction with a zero factor is
    skipped, not built: its sum would fold it away.
    """
    def rule(*idx: int) -> Expr:
        e: Expr = h_apply(m, field_[idx], i)
        skipped = False
        for slot, kind in enumerate(field_.signature):
            corrected = kind in (FIBER_VEC, FIBER_COV) or \
                (base_corr and kind in (BASE_VEC, BASE_COV))
            if not corrected:
                continue
            c = idx[slot]
            up = kind in (FIBER_VEC, BASE_VEC)
            for C in range(field_.shape[slot]):
                coeff = lin[c, i, C] if up else lin[C, i, c]
                value = field_[idx[:slot] + (C,) + idx[slot + 1:]]
                if is_zero(coeff) or is_zero(value):
                    skipped = True
                elif up:
                    e = e + coeff * value
                else:
                    e = e - coeff * value
        e = simplify(e)
        # Folded into a sum, a skipped product would turn -0.0 into 0.0.
        return ZERO if skipped and is_zero(e) else e

    return _tensor(f"dh_{i + 1}({field_.name})", field_.signature,
                   field_.shape, rule)


def dv_field(m: ConnectionModel, field_: TensorField, d: int) -> TensorField:
    """Vertical covariant derivative, with the field's signature and shape:
    a plain fiber partial, since basic frames are parallel along vertical
    directions for any compatible auxiliary connection."""
    u = m.bundle.fiber_coords[d]
    return _tensor(f"dv_{d + 1}({field_.name})", field_.signature,
                   field_.shape, lambda *idx: diff(field_[idx], u))


# ---------------------------------------------------------------------------
# Residual sets and their evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Residuals:
    """One residual set: labeled expressions of `m` whose largest absolute
    value over `samples`, against `tol`, makes the report `name`. An
    expression that is structurally zero is no residual, and is dropped."""

    name: str
    m: ConnectionModel
    comps: Mapping[str, Expr]
    samples: np.ndarray
    tol: float
    labels: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "comps", {
            label: e for label, e in self.comps.items() if not is_zero(e)})

    def report(self, result=None) -> CheckReport:
        """The report of this set from `result`, its (max_residual,
        worst_point, details) as `evaluate_components` gives them, which
        is evaluated here when None. A set without residuals passes
        without an evaluation."""
        count = len(self.samples)
        if not self.comps:
            return CheckReport(name=self.name, passed=True, max_residual=0.0,
                               tolerance=self.tol, samples=count,
                               labels={"vacuous": True, **self.labels})
        max_res, worst, details = result or evaluate_components(
            self.m, self.comps, self.samples)
        return CheckReport(name=self.name, passed=max_res <= self.tol,
                           max_residual=max_res, tolerance=self.tol,
                           samples=count, worst_point=worst, details=details,
                           labels=dict(self.labels))


class _Union(dict):
    """The distinct expressions of the label mappings `sets`, residual sets
    over one sample set, each keyed by itself."""

    def __init__(self, sets: Sequence[Mapping[str, Expr]]):
        super().__init__((e, e) for comps in sets for e in comps.values())
        self.sets = sets


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

    `run_suites` passes a `_Union` of several residual sets over the same
    samples: their distinct expressions run as one plan, and the result
    is the list of what each set alone gives, or None where the columns
    fault. Each output of a plan is computed by the same operations
    whatever else the plan holds, so no value depends on the company.
    """
    names = m.bundle.coords
    maxima = _column_maxima(tuple(comps.values()), names, samples)
    if isinstance(comps, _Union):
        if maxima is None:
            return None
        found = dict(zip(comps, maxima))
        return [_summary(m, labeled, [found[e] for e in labeled.values()],
                         samples) for labeled in comps.sets]
    if maxima is None:
        rows = samples.tolist()
        maxima = [_scalar_maximum(label, e, names, rows)
                  for label, e in comps.items()]
    return _summary(m, comps, maxima, samples)


def _summary(m: ConnectionModel, comps: Mapping[str, Expr], maxima,
             samples: np.ndarray):
    """(max_residual, worst_point, details) of labeled expressions from
    their per-expression (maximum, first row) pairs."""
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
    maxima = [(0.0, 0)] * len(exprs)
    try:
        for rows, columns in _sample_columns(exprs, names, samples):
            if columns is None:
                return None
            for k, column in enumerate(map(np.abs, columns)):
                where = int(column.argmax())
                if column[where] > maxima[k][0]:
                    maxima[k] = (float(column[where]), rows.start + where)
    except ExprError:  # an unbound variable: report it in label order
        return None
    return maxima


def _scalar_maximum(label: str, e: Expr, names: Sequence[str],
                    rows: Sequence[Sequence[float]]):
    values, fault = _scalar_rows((e,), names, rows)
    column = np.abs([vals[0] for vals in values])
    finite = np.isfinite(column)
    if not finite.all():
        raise fault(int(np.argmin(finite)), f"non-finite value of {label}")
    where = int(np.argmax(column)) if len(column) else 0
    return float(column.max(initial=0.0)), where


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


# A check suite is a generator: it yields lists of `Residuals`, receives
# their reports in the same order, and returns its result, a report or a
# list of them. It yields more than once only where it needs a verdict
# before it can build further sets. Where a set it yields fails to
# evaluate, it is not resumed: it fails with that set's error.
Suite = Generator[list, list, object]


def run_suites(suites: Sequence[Suite]) -> list:
    """The results of check suites, in order, from one evaluation pass per
    distinct sample set and round.

    The suites advance together, and each round's sets are evaluated by
    `_merged`. A suite that raises, when it starts or while it builds its
    sets, or one of whose sets fails to evaluate, ends there, and the
    suites after it are dropped. Its error is raised once the suites
    before it have finished. So the values and the first error are those
    of a run that evaluates each set on its own, suite by suite.
    """
    results: list = [None] * len(suites)
    replies: dict[int, list | None] = dict.fromkeys(range(len(suites)))
    failed = None
    while replies:
        asked = {}
        for k, reply in replies.items():
            gen = suites[k]
            try:
                errors = [r for r in reply or () if isinstance(r, Exception)]
                if errors:  # the suite is not resumed: it fails with it
                    raise errors[0]
                sets = gen.send(reply)
                # Sets without residuals need no evaluation, nor a round.
                while not any(rs.comps for rs in sets):
                    sets = gen.send([rs.report() for rs in sets])
                asked[k] = sets
            except StopIteration as stop:
                results[k] = stop.value
            except Exception as exc:
                failed = exc  # raised once the suites before it finish
                break
        reports = iter(_merged([rs for sets in asked.values()
                                for rs in sets]))
        replies = {k: [next(reports) for _ in sets]
                   for k, sets in asked.items()}
    if failed is not None:
        raise failed
    return results


def _merged(sets: Sequence[Residuals]) -> list:
    """The reports of `sets`, with one `evaluate_components` call per
    distinct sample set: equal bit for bit, on the same coordinates. Where
    a group's columns fault, its sets are evaluated on their own, in
    order, up to the first that raises: that set and every set of the
    group after it get its error in place of a report."""
    groups: list[list[Residuals]] = []
    for rs in filter(lambda rs: rs.comps, sets):
        group = next((g for g in groups if _same_points(g[0], rs)), None)
        if group is None:
            groups.append([rs])
        else:
            group.append(rs)
    results: dict = {}
    for group in groups:
        first = group[0]
        found = evaluate_components(
            first.m, _Union([rs.comps for rs in group]), first.samples)
        for at, rs in enumerate(group):
            try:
                results[rs] = rs.report(found[at] if found else None)
            except Exception as exc:
                results.update(dict.fromkeys(group[at:], exc))
                break
    return [results[rs] if rs.comps else rs.report() for rs in sets]


def _same_points(a: Residuals, b: Residuals) -> bool:
    """Whether two sets are evaluated at the same points: their samples
    equal bit for bit (so -0.0 is not 0.0), read as the same coordinates.
    The bits are compared without a copy."""
    x, y = a.samples, b.samples
    return (a.m.bundle.coords == b.m.bundle.coords and a.m.n == b.m.n and
            (x is y or x.shape == y.shape and x.dtype == y.dtype == np.float64
             and np.array_equal(x.view(np.uint64), y.view(np.uint64))))


def _suite(gen: Callable[..., Generator]):
    """The public check made from the function `gen` that builds a suite:
    the check runs that suite on its own and returns its result. `gen`
    stays reachable as the check's `suite`, for runs that evaluate
    several suites together."""
    @functools.wraps(gen)
    def check(*args, **kwargs):
        return run_suites([gen(*args, **kwargs)])[0]

    check.suite = gen
    return check


def _random_field(m: ConnectionModel, rng) -> VectorFieldOnE:
    """A field on E of random linear polynomials, horizontal ones first."""
    parts = [random_polynomial(m.bundle.coords, rng, degree=1)
             for _ in range(m.n + m.k)]
    return VectorFieldOnE(horizontal=tuple(parts[:m.n]),
                          vertical=tuple(parts[m.n:]))


def _cyclic_triples(n: int) -> list[tuple[int, int, int]]:
    """One index triple of range(n) per cyclic class: the least rotation."""
    return [t for t in itertools.product(range(n), repeat=3)
            if t <= (t[1], t[2], t[0]) and t <= (t[2], t[0], t[1])]


def _field_residuals(field_: TensorField) -> dict[str, Expr]:
    return {field_.label(idx): e for idx, e in field_.items()}


# ---------------------------------------------------------------------------
# Checks: each one a suite, run on its own by its public function
# ---------------------------------------------------------------------------

def _homogeneous_sets(m: ConnectionModel, samples: np.ndarray,
                      tol: float) -> list[Residuals]:
    return [Residuals("homogeneous", m, _field_residuals(tension(m)),
                      samples, tol),
            Residuals("vh_curvature", m, _field_residuals(vh_curvature(m)),
                      samples, tol)]


def _homogeneous_report(reports: Sequence[CheckReport],
                        tol: float) -> CheckReport:
    report, theta = reports
    report.labels["homogeneous"] = report.passed
    report.labels["linear_on_samples"] = bool(
        report.passed and theta.max_residual <= tol)
    return report


@_suite
def check_homogeneous(m: ConnectionModel, samples: np.ndarray,
                      tol: float) -> CheckReport:
    """Homogeneity check: the connection is homogeneous iff the tension
    vanishes. Also reports whether the linearized coefficients are
    fiber-independent (which together with homogeneity means the
    connection is linear wherever it is smooth on the zero section)."""
    reports = yield _homogeneous_sets(m, samples, tol)
    return _homogeneous_report(reports, tol)


@_suite
def check_basic(m: ConnectionModel, sigma: SectionModel,
                samples: np.ndarray, tol: float) -> CheckReport:
    """A section is basic iff its covariant derivative along every vertical
    direction vanishes, i.e. all fiber partials of its components."""
    comps: dict[str, Expr] = {}
    for A, comp in enumerate(sigma.components):
        for B, u in enumerate(m.bundle.fiber_coords):
            comps[f"d(sigma[{A + 1}])/d{u}"] = diff(comp, u)
    report, = yield [Residuals("basic", m, comps, samples, tol)]
    return report


def _flat_set(m: ConnectionModel, samples: np.ndarray,
              tol: float) -> Residuals:
    comps = {**_field_residuals(vh_curvature(m)),
             **_field_residuals(hh_curvature(m))}
    return Residuals("flat", m, comps, samples, tol)


@_suite
def flatness_check(m: ConnectionModel, samples: np.ndarray,
                   tol: float) -> CheckReport:
    """Sampled flatness certificate: both curvature blocks of the linear
    connection below tolerance on the sample set."""
    report, = yield [_flat_set(m, samples, tol)]
    report.labels["flat_on_samples"] = report.passed
    return report


@_suite
def axioms_check(m: ConnectionModel, samples: np.ndarray, tol: float,
                 seed: int = 0) -> CheckReport:
    """Leibniz rule and function-linearity of the covariant derivative,
    exercised on seeded random polynomial data."""
    rng = np.random.default_rng(seed)
    names = m.bundle.coords
    f = random_polynomial(names, rng)
    sigma = tuple(random_polynomial(names, rng) for _ in range(m.k))
    U = _random_field(m, rng)
    f_sigma = tuple(simplify(f * s) for s in sigma)
    d_sigma = covariant_derivative(m, U, sigma)
    lhs_leibniz = covariant_derivative(m, U, f_sigma)
    u_of_f = U.apply(m, f)
    comps: dict[str, Expr] = {}
    for A in range(m.k):
        e = simplify(lhs_leibniz[A] - (u_of_f * sigma[A] + f * d_sigma[A]))
        comps[f"leibniz[{A + 1}]"] = e
    fU = VectorFieldOnE(
        horizontal=tuple(simplify(f * c) for c in U.horizontal),
        vertical=tuple(simplify(f * c) for c in U.vertical),
    )
    lhs_tensorial = covariant_derivative(m, fU, sigma)
    for A in range(m.k):
        e = simplify(lhs_tensorial[A] - f * d_sigma[A])
        comps[f"tensoriality[{A + 1}]"] = e
    report, = yield [Residuals("covariant_derivative_axioms", m, comps,
                               samples, tol)]
    return report


@_suite
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
    require_kind(m.bundle, VECTOR_LIKE, "bianchi_check")
    k, n = m.k, m.n
    fiber = m.bundle.fiber_coords
    lin = linear_coeffs(m)
    R = curvature(m)
    theta = vh_curvature(m)
    hh = hh_curvature(m)

    # Identity 1 (cyclic, vacuous for n < 2).
    comps1: dict[str, Expr] = {}
    if n >= 2:
        dh_hh = [dh_field(m, lin, hh, i) for i in range(n)]
        for (i, j, l) in _cyclic_triples(n):
            for A in range(k):
                for B in range(k):
                    e: Expr = ZERO
                    for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
                        e = e + dh_hh[a][B, b, c, A]
                        for C in range(k):
                            if not (is_zero(theta[B, a, A, C]) or
                                    is_zero(R[C, b, c])):
                                e = e - theta[B, a, A, C] * R[C, b, c]
                    e = simplify(e)
                    comps1[f"cyclic[{i+1},{j+1},{l+1};{A+1},{B+1}]"] = e

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
                        comps2[f"vertical_of_hh[{B+1},{i+1},{j+1},{A+1};{D+1}]"] = e

    # Identity 3.
    comps3: dict[str, Expr] = {}
    for C in range(k):
        for i in range(n):
            for A in range(k):
                for B in range(k):
                    for D in range(B + 1, k):
                        e = simplify(diff(theta[C, i, A, B], fiber[D]) -
                                     diff(theta[C, i, A, D], fiber[B]))
                        comps3[f"third_fiber_symmetry[{C+1},{i+1},{A+1};{B+1},{D+1}]"] = e

    subs = yield [
        Residuals("bianchi_1_cyclic", m, comps1, samples, tol,
                  {} if n >= 2 else {"vacuous": True}),
        Residuals("bianchi_2_mixed", m, comps2, samples, tol),
        Residuals("bianchi_3_vertical_symmetry", m, comps3, samples, tol)]
    return combine_reports("bianchi", subs, tol, samples)


@_suite
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
    require_kind(m.bundle, VECTOR_LIKE, "tension_identities_check")
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
                comps_a[f"vertical_of_tension[{A+1},{i+1};{D+1}]"] = e

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
                    comps_b[f"horizontal_of_tension[{A+1};{i+1},{j+1}]"] = e

    subs = yield [
        Residuals("tension_identity_vertical", m, comps_a, samples, tol),
        Residuals("tension_identity_horizontal", m, comps_b, samples, tol,
                  {} if n >= 2 else {"vacuous": True})]
    return combine_reports("tension_identities", subs, tol, samples)


# ---------------------------------------------------------------------------
# Integral sections
# ---------------------------------------------------------------------------

def integral_section_residual(m: ConnectionModel,
                              alpha: SectionModel) -> TensorField:
    """Residual of the integral-section equation [A][i]:
    d(alpha^A)/dx^i + gamma[A][i](x, alpha(x))."""
    validate_section(m, alpha)
    require_coords("section component {}", alpha.components,
                   m.bundle.base_coords)
    bindings = {u: alpha.components[B]
                for B, u in enumerate(m.bundle.fiber_coords)}
    base = m.bundle.base_coords
    return _tensor(
        "integral_section_residual", (FIBER_VEC, BASE_COV), (m.k, m.n),
        lambda A, i: simplify(diff(alpha.components[A], base[i]) +
                              substitute(m.gamma[A][i], bindings)))


def pullback_connection_coeffs(m: ConnectionModel,
                               alpha: SectionModel) -> TensorField:
    """Linearized coefficients restricted to the graph of a basic section,
    [A][i][B], expressions on the base."""
    validate_section(m, alpha)
    require_coords("section component {}", alpha.components,
                   m.bundle.base_coords)
    lin = linear_coeffs(m)
    bindings = {u: alpha.components[B]
                for B, u in enumerate(m.bundle.fiber_coords)}
    return _tensor("pullback_coeffs", (FIBER_VEC, BASE_COV, FIBER_COV),
                   lin.shape,
                   lambda A, i, B: simplify(substitute(lin[A, i, B], bindings)))
