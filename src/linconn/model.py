"""Bundle and connection declarations, model-file loading and sampling.

A model fixes a single coordinate chart: `n` base coordinates, `k` fiber
coordinates and a k-by-n matrix of coefficient expressions. Singular sets
are declared, never inferred; samplers keep away from them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    _CHUNK, Expr, ParseError, _columns, _plan, compile_vector, parse, simplify,
    to_string, variables,
)

__all__ = [
    "KINDS", "ModelError", "BundleModel", "ConnectionModel", "PointE",
    "SectionModel", "ModelDocument", "load_model", "dump_model",
    "validate_section", "sample_points", "parse_predicate",
]

KINDS = ("vector", "affine", "tangent", "cotangent", "jet")

DEFAULT_BOX = (-1.0, 1.0)

# The most points one draw may hold: 100 times the largest draw (20,000
# points) that the benchmark or the tests make. A larger count would only
# fill memory until the process is killed.
_MAX_SAMPLES = 2_000_000


class ModelError(Exception):
    """Invalid model declaration. Carries a line number when loading files."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class BundleModel:
    """A chart: bundle kind plus base and fiber coordinate names."""

    kind: str
    base_coords: tuple[str, ...]
    fiber_coords: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown bundle kind {self.kind!r}")
        if len(self.base_coords) < 1 or len(self.fiber_coords) < 1:
            raise ModelError("need at least one base and one fiber coordinate")
        names = self.base_coords + self.fiber_coords
        if len(set(names)) != len(names):
            raise ModelError("coordinate names must be distinct")
        if self.kind in ("tangent", "cotangent") and self.k != self.n:
            raise ModelError(
                f"kind={self.kind} requires fiber dimension equal to base "
                f"dimension, got k={self.k}, n={self.n}")
        if self.kind == "jet" and self.k != self.n - 1:
            raise ModelError(
                f"kind=jet requires k = n-1 (base starts with the time "
                f"coordinate), got k={self.k}, n={self.n}")

    @property
    def n(self) -> int:
        return len(self.base_coords)

    @property
    def k(self) -> int:
        return len(self.fiber_coords)

    @property
    def coords(self) -> tuple[str, ...]:
        return self.base_coords + self.fiber_coords


@dataclass(frozen=True)
class PointE:
    """A point of the total space in the chart."""

    base: tuple[float, ...]
    fiber: tuple[float, ...]

    def env(self, bundle: BundleModel) -> dict[str, float]:
        if len(self.base) != bundle.n or len(self.fiber) != bundle.k:
            raise ModelError("point dimensions do not match the bundle")
        env = dict(zip(bundle.base_coords, self.base))
        env.update(zip(bundle.fiber_coords, self.fiber))
        return env

    def values(self, bundle: BundleModel) -> tuple[float, ...]:
        return tuple(self.base) + tuple(self.fiber)


@dataclass(frozen=True)
class SectionModel:
    """A section given by component expressions (one per fiber coordinate,
    or k+1 components for sections of the extended bundle of an affine
    model)."""

    components: tuple[Expr, ...]


class ConnectionModel:
    """A nonlinear connection: bundle plus the coefficient matrix.

    `gamma[A][i]` is the coefficient multiplying the fiber direction A in
    the horizontal lift of the base direction i (the matrix entry of
    the frame field H_i = d/dx^i - gamma[A][i] d/du^A).
    """

    def __init__(self, bundle: BundleModel, gamma: Sequence[Sequence[Expr]],
                 excluded: Sequence[Expr] = ()):
        self.bundle = bundle
        rows = [tuple(row) for row in gamma]
        if len(rows) != bundle.k or any(len(row) != bundle.n for row in rows):
            raise ModelError(
                f"coefficient matrix must be {bundle.k}x{bundle.n}")
        allowed = set(bundle.coords)
        for A, row in enumerate(rows):
            for i, entry in enumerate(row):
                unknown = variables(entry) - allowed
                if unknown:
                    raise ModelError(
                        f"Gamma[{A + 1},{i + 1}] references unknown "
                        f"coordinate(s) {sorted(unknown)}")
        self.gamma: tuple[tuple[Expr, ...], ...] = tuple(rows)
        for e in excluded:
            unknown = variables(e) - allowed
            if unknown:
                raise ModelError(
                    f"excluded-set predicate references unknown "
                    f"coordinate(s) {sorted(unknown)}")
        self.excluded: tuple[Expr, ...] = tuple(excluded)

    @property
    def n(self) -> int:
        return self.bundle.n

    @property
    def k(self) -> int:
        return self.bundle.k

    def __repr__(self):
        return (f"<ConnectionModel kind={self.bundle.kind} "
                f"n={self.n} k={self.k}>")


@dataclass
class ModelDocument:
    """Result of loading a model file.

    Exactly one of the connection-defining sections was present; for a
    Hamiltonian section without first integrals the connection is None.
    `excluded` holds the predicates the file declared, which `dump_model`
    writes back; the connection's own `excluded` may add derived ones.
    """

    bundle: BundleModel
    connection: "ConnectionModel | None" = None
    sode: object = None          # SodeModel, when a forces section is present
    hamiltonian: object = None   # HamiltonianModel, for cotangent models
    source: str = ""
    excluded: tuple[Expr, ...] = ()


# ---------------------------------------------------------------------------
# Predicates for singular sets
# ---------------------------------------------------------------------------

def parse_predicate(text: str) -> Expr:
    """Parse an excluded-set predicate such as "u1=0" into an expression
    whose zero locus is the excluded set."""
    if "=" in text:
        lhs, rhs = text.split("=", 1)
        return simplify(parse(lhs) - parse(rhs))
    return parse(text)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

_GAMMA_KEY = re.compile(r"^Gamma\[(\d+),(\d+)\]$")
_FORCE_KEY = re.compile(r"^f(\d+)$")


def _strip_comment(line: str) -> str:
    out = []
    for c in line:
        if c == "#":
            break
        out.append(c)
    return "".join(out).strip()


def _unquote(value: str) -> str:
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    return value


def load_model(text: str) -> ModelDocument:
    """Parse and validate the line-oriented model-file format."""
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in ("bundle", "connection", "sode", "hamiltonian"):
                raise ModelError(f"unknown section [{current}]", lineno)
            if current in sections:
                raise ModelError(f"duplicate section [{current}]", lineno)
            sections[current] = []
            continue
        if current is None:
            raise ModelError("content before any section header", lineno)
        if "=" not in line:
            raise ModelError("expected 'key = value'", lineno)
        key, value = line.split("=", 1)
        sections[current].append((lineno, key.strip(), value.strip()))

    if "bundle" not in sections:
        raise ModelError("missing [bundle] section")
    bundle, excluded = _parse_bundle(sections["bundle"])

    defining = [name for name in ("connection", "sode", "hamiltonian")
                if name in sections]
    if len(defining) > 1:
        raise ModelError(
            f"sections {defining} both define the connection; use exactly one")
    if not defining:
        raise ModelError(
            "one of [connection], [sode] or [hamiltonian] is required")

    doc = ModelDocument(bundle=bundle, source=text, excluded=excluded)
    name = defining[0]
    if name == "connection":
        doc.connection = _parse_connection(bundle, excluded, sections["connection"])
    elif name == "sode":
        doc.sode, doc.connection = _parse_sode(bundle, excluded, sections["sode"])
    else:
        doc.hamiltonian, doc.connection = _parse_hamiltonian(
            bundle, excluded, sections["hamiltonian"])
    return doc


def _parse_bundle(entries) -> tuple[BundleModel, tuple[Expr, ...]]:
    kind = None
    base: tuple[str, ...] | None = None
    fiber: tuple[str, ...] | None = None
    excluded: tuple[Expr, ...] = ()
    seen: set[str] = set()
    for lineno, key, value in entries:
        if key in seen:
            raise ModelError(f"duplicate bundle key {key!r}", lineno)
        seen.add(key)
        if key == "kind":
            kind = value
            if kind not in KINDS:
                raise ModelError(f"unknown kind {kind!r}", lineno)
        elif key == "base":
            base = tuple(s.strip() for s in value.split(",") if s.strip())
        elif key == "fiber":
            fiber = tuple(s.strip() for s in value.split(",") if s.strip())
        elif key == "exclude":
            text = _unquote(value)
            if text:
                try:
                    excluded = (parse_predicate(text),)
                except ParseError as exc:
                    raise ModelError(f"bad exclude predicate: {exc}", lineno) from exc
        else:
            raise ModelError(f"unknown bundle key {key!r}", lineno)
    if kind is None or base is None or fiber is None:
        raise ModelError("[bundle] requires kind, base and fiber")
    try:
        bundle = BundleModel(kind, base, fiber)
    except ModelError as exc:
        raise ModelError(str(exc)) from None
    return bundle, excluded


def _parse_entry_expr(lineno: int, key: str, value: str) -> Expr:
    try:
        return parse(value)
    except ParseError as exc:
        raise ModelError(f"cannot parse {key}: {exc}", lineno) from exc


def _parse_connection(bundle, excluded, entries) -> ConnectionModel:
    grid: dict[tuple[int, int], Expr] = {}
    for lineno, key, value in entries:
        match = _GAMMA_KEY.match(key)
        if not match:
            raise ModelError(f"unknown connection key {key!r}; "
                             "expected Gamma[A,i]", lineno)
        A, i = int(match.group(1)), int(match.group(2))
        if not (1 <= A <= bundle.k and 1 <= i <= bundle.n):
            raise ModelError(
                f"Gamma[{A},{i}] out of range for a {bundle.k}x{bundle.n} "
                "coefficient matrix", lineno)
        if (A, i) in grid:
            raise ModelError(f"duplicate entry Gamma[{A},{i}]", lineno)
        entry = _parse_entry_expr(lineno, key, value)
        unknown = variables(entry) - set(bundle.coords)
        if unknown:
            raise ModelError(
                f"Gamma[{A},{i}] references unknown coordinate(s) "
                f"{sorted(unknown)}", lineno)
        grid[(A, i)] = entry
    missing = [(A, i) for A in range(1, bundle.k + 1)
               for i in range(1, bundle.n + 1) if (A, i) not in grid]
    if missing:
        raise ModelError("missing connection entries: " +
                         ", ".join(f"Gamma[{A},{i}]" for A, i in missing))
    gamma = [[grid[(A, i)] for i in range(1, bundle.n + 1)]
             for A in range(1, bundle.k + 1)]
    return ConnectionModel(bundle, gamma, excluded)


def _parse_sode(bundle, excluded, entries):
    from .sode import SodeModel, nonautonomous_connection, sode_connection

    if bundle.kind == "tangent":
        autonomous = True
        count = bundle.n
    elif bundle.kind == "jet":
        autonomous = False
        count = bundle.k
    else:
        raise ModelError(
            f"[sode] requires kind=tangent or kind=jet, got {bundle.kind}")
    forces: dict[int, Expr] = {}
    for lineno, key, value in entries:
        match = _FORCE_KEY.match(key)
        if not match:
            raise ModelError(f"unknown sode key {key!r}; expected f1..f{count}",
                             lineno)
        idx = int(match.group(1))
        if not (1 <= idx <= count):
            raise ModelError(f"force index f{idx} out of range 1..{count}",
                             lineno)
        entry = _parse_entry_expr(lineno, key, value)
        unknown = variables(entry) - set(bundle.coords)
        if unknown:
            raise ModelError(f"f{idx} references unknown coordinate(s) "
                             f"{sorted(unknown)}", lineno)
        forces[idx] = entry
    missing = [i for i in range(1, count + 1) if i not in forces]
    if missing:
        raise ModelError("missing forces: " + ", ".join(f"f{i}" for i in missing))
    sode = SodeModel(
        autonomous=autonomous,
        base_coords=bundle.base_coords,
        velocity_coords=bundle.fiber_coords,
        forces=tuple(forces[i] for i in range(1, count + 1)),
    )
    connection = sode_connection(sode) if autonomous else nonautonomous_connection(sode)
    if excluded:
        connection = ConnectionModel(connection.bundle, connection.gamma, excluded)
    return sode, connection


def _parse_hamiltonian(bundle, excluded, entries):
    from .cotangent import HamiltonianModel, integrable_connection

    if bundle.kind != "cotangent":
        raise ModelError(
            f"[hamiltonian] requires kind=cotangent, got {bundle.kind}")
    H: Expr | None = None
    integrals: dict[int, Expr] = {}
    for lineno, key, value in entries:
        if key == "H":
            H = _parse_entry_expr(lineno, key, value)
            continue
        match = _FORCE_KEY.match(key)
        if not match:
            raise ModelError(f"unknown hamiltonian key {key!r}", lineno)
        idx = int(match.group(1))
        if not (1 <= idx <= bundle.n):
            raise ModelError(f"first-integral index f{idx} out of range", lineno)
        integrals[idx] = _parse_entry_expr(lineno, key, value)
    if H is None:
        raise ModelError("[hamiltonian] requires H")
    for name, e in [("H", H)] + [(f"f{i}", e) for i, e in integrals.items()]:
        unknown = variables(e) - set(bundle.coords)
        if unknown:
            raise ModelError(f"{name} references unknown coordinate(s) "
                             f"{sorted(unknown)}")
    first_integrals = None
    if integrals:
        missing = [i for i in range(1, bundle.n + 1) if i not in integrals]
        if missing:
            raise ModelError("incomplete first-integral family; missing " +
                             ", ".join(f"f{i}" for i in missing))
        first_integrals = tuple(integrals[i] for i in range(1, bundle.n + 1))
    ham = HamiltonianModel(bundle=bundle, H=H, first_integrals=first_integrals)
    connection = None
    if first_integrals is not None:
        connection = integrable_connection(ham)
        if excluded:
            merged = tuple(connection.excluded) + tuple(excluded)
            connection = ConnectionModel(connection.bundle, connection.gamma, merged)
    return ham, connection


def dump_model(doc: ModelDocument) -> str:
    """Serialize a document back into the model-file format."""
    bundle = doc.bundle
    lines = ["[bundle]",
             f"kind = {bundle.kind}",
             "base = " + ", ".join(bundle.base_coords),
             "fiber = " + ", ".join(bundle.fiber_coords)]
    for e in doc.excluded:
        lines.append(f'exclude = "{to_string(e)}=0"')
    if doc.sode is not None:
        lines.append("")
        lines.append("[sode]")
        for i, f in enumerate(doc.sode.forces, start=1):
            lines.append(f"f{i} = {to_string(f)}")
    elif doc.hamiltonian is not None:
        lines.append("")
        lines.append("[hamiltonian]")
        lines.append(f"H = {to_string(doc.hamiltonian.H)}")
        if doc.hamiltonian.first_integrals:
            for i, f in enumerate(doc.hamiltonian.first_integrals, start=1):
                lines.append(f"f{i} = {to_string(f)}")
    elif doc.connection is not None:
        lines.append("")
        lines.append("[connection]")
        for A in range(bundle.k):
            for i in range(bundle.n):
                lines.append(f"Gamma[{A + 1},{i + 1}] = "
                             f"{to_string(doc.connection.gamma[A][i])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Section validation and sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionInfo:
    basic: bool


def validate_section(m: ConnectionModel, s: SectionModel,
                     extended: bool = False) -> SectionInfo:
    """Check component count and variable usage; report whether the section
    is syntactically basic (no fiber coordinate appears)."""
    expected = m.k + 1 if extended else m.k
    if len(s.components) != expected:
        raise ModelError(
            f"section has {len(s.components)} components, expected {expected}")
    allowed = set(m.bundle.coords)
    fiber = set(m.bundle.fiber_coords)
    basic = True
    for idx, comp in enumerate(s.components):
        used = variables(comp)
        unknown = used - allowed
        if unknown:
            raise ModelError(
                f"section component {idx + 1} references unknown "
                f"coordinate(s) {sorted(unknown)}")
        if used & fiber:
            basic = False
    return SectionInfo(basic=basic)


def sample_points(m: ConnectionModel, count: int,
                  box: Mapping[str, tuple[float, float]] | None = None,
                  seed: int = 0, margin: float = 0.1) -> np.ndarray:
    """Deterministic sample of points avoiding the declared excluded set.

    A sample set is one float64 array of shape (count, n + k): one point
    per row, coordinates in `bundle.coords` order. `box` maps coordinate
    names to intervals; unspecified coordinates use [-1, 1]. Points where
    any excluded-set predicate is within `margin` of zero are rejected and
    redrawn. At most `_MAX_SAMPLES` points are drawn.
    """
    if count < 1:
        raise ModelError("count must be >= 1")
    if count > _MAX_SAMPLES:
        raise ModelError(f"count must be at most {_MAX_SAMPLES}, got {count}")
    if seed < 0:
        raise ModelError(f"seed must be >= 0, got {seed}")
    bundle = m.bundle
    intervals = []
    for name in bundle.coords:
        lo, hi = (box or {}).get(name, DEFAULT_BOX)
        if not (hi > lo):
            raise ModelError(f"degenerate box for {name}: [{lo}, {hi}]")
        intervals.append((lo, hi))
    lows, highs = np.array(intervals).T
    rng = np.random.default_rng(seed)
    plan = _plan(m.excluded, bundle.coords)
    limit = 1000 * count
    blocks: list[np.ndarray] = []
    taken = attempts = 0
    while taken < count:
        if attempts == limit:
            raise ModelError("could not sample off the excluded set; "
                             "box too close to the singular locus")
        # One block of the same stream that one draw per coordinate gives.
        block = rng.uniform(lows, highs,
                            size=(min(_CHUNK, limit - attempts), len(intervals)))
        attempts += len(block)
        blocks.append(_off_excluded(m, plan, block, margin, count - taken))
        taken += len(blocks[-1])
    return np.concatenate(blocks)


def _off_excluded(m: ConnectionModel, plan, block, margin: float, need: int):
    """The first `need` rows of `block` where no excluded-set predicate is
    within `margin` of zero. If the plan's columns fault, the compiled
    predicates decide row by row, so no row after the last one taken is
    evaluated."""
    columns = _columns(plan, block)
    if columns is None:
        predicates = compile_vector(m.excluded, m.bundle.coords)
        taken: list[int] = []
        for row, vals in enumerate(block.tolist()):
            if len(taken) == need:
                break
            if not any(abs(p) < margin for p in predicates(vals)):
                taken.append(row)
        return block[taken]
    near = np.zeros(len(block), dtype=bool)
    for column in columns:
        near |= np.abs(column) < margin
    return block[~near][:need]
