"""Bundle and connection declarations, model-file loading and sampling.

A model fixes a single coordinate chart: `n` base coordinates, `k` fiber
coordinates and a k-by-n matrix of coefficient expressions. Singular sets
are declared, never inferred; samplers keep away from them.

This module owns four rules of a model's chart, and no other module
repeats them:

- Kinds: the kind groups stand beside `KINDS`, and `require_kind` is the
  one guard of an operation or section that takes only some kinds.
- Coordinates: `require_coords` refuses an expression that uses a name
  outside an allowed set, naming its label and, for a file entry, its
  line.
- Indexed entries: `_read_entries` reads the `Gamma[A,i]`, `fN` and `H`
  lines of `[connection]`, `[sode]` and `[hamiltonian]` alike.
- Added names: `_fresh` names the coordinates a construction adds to a
  chart apart from the chart's own.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    Expr, ParseError, _is_identifier, _sample_columns, _scalar_rows, parse,
    simplify, to_string, variables,
)

__all__ = [
    "KINDS", "VECTOR_LIKE", "AFFINE", "SECOND_ORDER", "COTANGENT",
    "require_kind", "require_coords", "ModelError", "BundleModel",
    "ConnectionModel", "PointE", "SectionModel", "ModelDocument",
    "hamiltonian_document", "load_model",
    "dump_model",
    "validate_section", "sample_points", "parse_predicate",
]

KINDS = ("vector", "affine", "tangent", "cotangent", "jet")
# The kinds each construction takes: linearization on the vector-like
# kinds, homogenization then restriction on the affine ones; a
# second-order field lives on a tangent or jet chart, a Hamiltonian on a
# cotangent one.
VECTOR_LIKE = ("vector", "tangent", "cotangent")
AFFINE = ("affine", "jet")
SECOND_ORDER = ("tangent", "jet")
COTANGENT = ("cotangent",)

DEFAULT_BOX = (-1.0, 1.0)

# A sample point is redrawn where an excluded-set predicate is within this
# of zero.
EXCLUDED_MARGIN = 0.1

# The most points one draw may hold: 100 times the largest draw (20,000
# points) that the benchmark or the tests make. A larger count would only
# fill memory until the process is killed.
_MAX_SAMPLES = 2_000_000

# The fewest points the sampler draws at a time, so that a few points
# still missing do not cost a draw and a plan each.
_MIN_DRAW = 2048


class ModelError(Exception):
    """Invalid model declaration. Carries a line number when loading files."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def require_kind(bundle: BundleModel, kinds: Sequence[str], what: str):
    """Refuse `what` on a bundle whose kind is not one of `kinds`."""
    if bundle.kind not in kinds:
        names = ", ".join(kinds[:-1]) + " or " * (len(kinds) > 1) + kinds[-1]
        raise ModelError(f"{what} expects kind {names}, "
                         f"got kind={bundle.kind}")


def require_coords(label: str, exprs: Sequence[Expr], allowed: Sequence[str],
                   line: int | None = None):
    """Refuse the first of `exprs` that uses a name outside `allowed`.
    `label` names it, with `{}` standing for its 1-based position; `line`
    is that of its file entry."""
    for idx, e in enumerate(exprs, start=1):
        extra = variables(e) - set(allowed)
        if extra:
            raise ModelError(f"{label.format(idx)} may use only "
                             f"{', '.join(allowed)}; found {sorted(extra)}",
                             line)


def _fresh(taken: Sequence[str], stem: str, count: int) -> tuple[str, ...]:
    """`count` names stem0, stem1, ... that avoid `taken`, or _stem0, ...
    and so on: one more leading underscore while any of them is taken."""
    names = tuple(f"{stem}{j}" for j in range(count))
    if set(names) & set(taken):
        return _fresh(taken, "_" + stem, count)
    return names


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
        for name in names:
            if not (name and _is_identifier(name)):
                raise ModelError(f"invalid coordinate name {name!r}")
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
        for A, row in enumerate(rows, start=1):
            require_coords(f"Gamma[{A},{{}}]", row, bundle.coords)
        require_coords("excluded-set predicate", excluded, bundle.coords)
        self.gamma: tuple[tuple[Expr, ...], ...] = tuple(rows)
        # Each predicate once, at its first position.
        self.excluded: tuple[Expr, ...] = tuple(dict.fromkeys(excluded))

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

def _unquote(value: str) -> str:
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    return value


def load_model(text: str) -> ModelDocument:
    """Parse and validate the line-oriented model-file format."""
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current != "bundle" and current not in _SECTIONS:
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

    defining = [name for name in _SECTIONS if name in sections]
    if len(defining) > 1:
        raise ModelError(
            f"sections {defining} both define the connection; use exactly one")
    if not defining:
        raise ModelError(
            "one of [connection], [sode] or [hamiltonian] is required")

    name = defining[0]
    groups = _read_entries(name, bundle, sections[name])
    if name == "hamiltonian":
        (H,), integrals = groups
        return hamiltonian_document(bundle, H, integrals, excluded, text)
    doc = ModelDocument(bundle=bundle, source=text, excluded=excluded)
    if name == "connection":
        entries, = groups
        doc.connection = ConnectionModel(
            bundle, [entries[A * bundle.n:(A + 1) * bundle.n]
                     for A in range(bundle.k)], excluded)
    else:
        from .sode import SodeModel, sode_connection

        forces, = groups
        doc.sode = SodeModel(
            autonomous=bundle.kind == "tangent",
            base_coords=bundle.base_coords,
            velocity_coords=bundle.fiber_coords,
            forces=forces,
            excluded=excluded,
        )
        doc.connection = sode_connection(doc.sode)
    return doc


def hamiltonian_document(bundle: BundleModel, H: Expr,
                         integrals: tuple[Expr, ...] | None,
                         excluded: tuple[Expr, ...],
                         source: str) -> ModelDocument:
    """The document of the Hamiltonian `H` on a cotangent chart. With a
    complete family of first integrals it carries their integrable
    connection, whose excluded set adds `excluded` to the locus where
    the family is not transversal."""
    from .cotangent import HamiltonianModel, integrable_connection

    ham = HamiltonianModel(bundle=bundle, H=H, first_integrals=integrals)
    doc = ModelDocument(bundle=bundle, hamiltonian=ham, source=source,
                        excluded=excluded)
    if integrals is not None:
        m = integrable_connection(ham)
        doc.connection = ConnectionModel(bundle, m.gamma,
                                         m.excluded + excluded)
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


def _read_entries(section: str, bundle: BundleModel, entries
                  ) -> list[tuple[Expr, ...] | None]:
    """The entries of a defining section, by its groups of keys (see
    `_SECTIONS`): the expressions of each group in key order, or None for
    a group left out. Refused, each on its line: a key the section does not
    take (an unknown name or an index out of range), a repeated key, an
    entry that does not parse or uses a name outside the chart. Then the
    entries missing from the first group, or from a group begun."""
    kinds, layout = _SECTIONS[section]
    require_kind(bundle, kinds, f"[{section}]")
    groups = layout(bundle.k, bundle.n)
    keys = [key for group in groups for key in group]
    read: dict[str, Expr] = {}
    for lineno, key, value in entries:
        name = _LEADING_ZEROS.sub("", key)
        if name not in keys:
            raise ModelError(
                f"unknown [{section}] key {key!r}; expected " + ", ".join(
                    group[0] + f"..{group[-1]}" * (len(group) > 1)
                    for group in groups), lineno)
        if name in read:
            raise ModelError(f"duplicate entry {name}", lineno)
        try:
            read[name] = parse(value)
        except ParseError as exc:
            raise ModelError(f"cannot parse {name}: {exc}", lineno) from exc
        require_coords(name, (read[name],), bundle.coords, lineno)
    missing = [key for idx, group in enumerate(groups)
               if idx == 0 or any(key in read for key in group)
               for key in group if key not in read]
    if missing:
        raise ModelError(f"missing [{section}] entries: " + ", ".join(missing))
    return [tuple(read[key] for key in group) if group[0] in read else None
            for group in groups]


def _forces(k: int) -> tuple[str, ...]:
    return tuple(f"f{i}" for i in range(1, k + 1))


# Per defining section: the kinds it takes, and its keys for a chart of
# k fiber and n base coordinates, in groups. The first group is required,
# each further one is all or none.
_SECTIONS = {
    "connection": (KINDS, lambda k, n: (
        tuple(f"Gamma[{A},{i}]" for A in range(1, k + 1)
              for i in range(1, n + 1)),)),
    "sode": (SECOND_ORDER, lambda k, n: (_forces(k),)),
    "hamiltonian": (COTANGENT, lambda k, n: (("H",), _forces(k))),
}

# The zeros that lead an index: `Gamma[01,1]` is `Gamma[1,1]`.
_LEADING_ZEROS = re.compile(r"(?<![0-9])0+(?=[0-9])")


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


def validate_section(m: ConnectionModel, s: SectionModel) -> SectionInfo:
    """Check component count and variable usage; report whether the section
    is syntactically basic (no fiber coordinate appears)."""
    if len(s.components) != m.k:
        raise ModelError(
            f"section has {len(s.components)} components, expected {m.k}")
    require_coords("section component {}", s.components, m.bundle.coords)
    fiber = set(m.bundle.fiber_coords)
    basic = not any(variables(comp) & fiber for comp in s.components)
    return SectionInfo(basic=basic)


def sample_points(m: ConnectionModel, count: int,
                  box: Mapping[str, tuple[float, float]] | None = None,
                  seed: int = 0) -> np.ndarray:
    """Deterministic sample of points avoiding the declared excluded set.

    A sample set is one float64 array of shape (count, n + k): one point
    per row, coordinates in `bundle.coords` order. `box` maps coordinate
    names to intervals; unspecified coordinates use [-1, 1]. Points where
    any excluded-set predicate is within `EXCLUDED_MARGIN` of zero are
    rejected and redrawn. At most `_MAX_SAMPLES` points are drawn.
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
    limit = 1000 * count
    blocks: list[np.ndarray] = []
    taken = attempts = 0
    while taken < count:
        if attempts == limit:
            raise ModelError("could not sample off the excluded set; "
                             "box too close to the singular locus")
        # One block of the same stream that one draw per coordinate gives,
        # however the draws are split. A block of more than `_MIN_DRAW`
        # rows has no more rows than points are missing, so none of its
        # chunks is evaluated in vain.
        size = min(max(count - taken, _MIN_DRAW), limit - attempts)
        attempts += size
        block = rng.uniform(lows, highs, size=(size, len(intervals)))
        for rows, columns in _sample_columns(m.excluded, bundle.coords, block):
            blocks.append(_off_excluded(m, block[rows], columns,
                                        count - taken))
            taken += len(blocks[-1])
        del block  # only the rows taken are kept
    return np.concatenate(blocks)


def _off_excluded(m: ConnectionModel, chunk, columns, need: int):
    """The first `need` rows of `chunk` where no excluded-set predicate is
    within `EXCLUDED_MARGIN` of zero, from the predicates' `columns` over it. Where
    those fault (None), the compiled predicates decide row by row, so no
    row after the last one taken is evaluated."""
    if columns is None:
        values, _ = _scalar_rows(m.excluded, m.bundle.coords, chunk.tolist())
        far = (row for row, vals in enumerate(values)
               if not any(abs(p) < EXCLUDED_MARGIN for p in vals))
        return chunk[list(itertools.islice(far, need))]
    near = np.zeros(len(chunk), dtype=bool)
    for column in columns:
        near |= np.abs(column) < EXCLUDED_MARGIN
    return chunk[~near][:need]
