"""The check suites of a run, and the runner that evaluates them.

`SUITES` is the one table of the suites `check` selects from: each entry
names the suite, the bundle kinds `--suite all` runs it on, what it cannot
run without, and how it starts on a run. `run_checks` draws the run's
sample set, selects the suites and hands them to `geometry.run_suites`,
which evaluates the residual sets of one round with one
`evaluate_components` call per distinct sample set. Sets equal bit for
bit count as one, so the cotangent suite's own draw of the run's points
joins them. Where that call faults, or anything raises, the suites run
again one at a time, so the reports and the first error are those of a
run that evaluates each set on its own, in suite order.

The section of `basic`, which the command line parses only when that
suite starts, is passed as a function, so that its errors keep that
order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import affine as _affine
from . import cotangent as _cotangent
from . import geometry as _geometry
from . import sode as _sode
from .model import (KINDS, ConnectionModel, ModelDocument, ModelError,
                    SectionModel, sample_points, validate_section)

__all__ = ["CheckRun", "SUITES", "run_checks"]

_VECTOR_LIKE = _geometry._VECTOR_LIKE
_AFFINE_KINDS = _affine._AFFINE_KINDS


@dataclass(frozen=True, eq=False)
class CheckRun:
    """The inputs of one `check` run: its model and sample set, the count
    and seed the set was drawn with, the tolerance, and the section."""

    doc: ModelDocument
    samples: np.ndarray
    count: int
    seed: int
    tol: float
    section: Callable[[], SectionModel] | None

    @property
    def m(self) -> ConnectionModel:
        return self.doc.connection


def _basic(run: CheckRun):
    section = run.section()
    validate_section(run.m, section)
    return _geometry.check_basic.suite(run.m, section, run.samples, run.tol)


def _homogeneous(run: CheckRun):
    """The model's own homogeneity, or for an affine or jet model that of
    its homogeneous extension, on points of that extension's box."""
    if run.m.bundle.kind in _AFFINE_KINDS:
        return _affine.check_homogenized.suite(
            _affine.homogenize(run.m), run.count, run.tol, run.seed)
    return _geometry.check_homogeneous.suite(run.m, run.samples, run.tol)


@dataclass(frozen=True)
class SuiteEntry:
    """A suite of `check`: `start` begins it on a run. `--suite all` runs
    it on the bundle kinds `kinds` when the run has what it `needs`."""

    name: str
    kinds: tuple[str, ...]
    needs: str | None
    start: Callable[[CheckRun], object]


# What a suite cannot run without: (whether a run has it, its name).
_NEEDS = {
    "section": (lambda run: run.section is not None, "--section"),
    "sode": (lambda run: run.doc.sode is not None and run.doc.sode.autonomous,
             "an autonomous [sode] model"),
}

# In the order `--suite all` runs them.
SUITES = tuple(SuiteEntry(*entry) for entry in (
    ("basic", KINDS, "section", _basic),
    ("homogeneous", _VECTOR_LIKE, None, _homogeneous),
    ("flat", _VECTOR_LIKE, None,
     lambda run: _geometry.flatness_check.suite(run.m, run.samples, run.tol)),
    ("axioms", _VECTOR_LIKE, None,
     lambda run: _geometry.axioms_check.suite(run.m, run.samples, run.tol,
                                              run.seed)),
    ("bianchi", _VECTOR_LIKE, None,
     lambda run: _geometry.bianchi_check.suite(run.m, run.samples, run.tol)),
    ("tension-identities", _VECTOR_LIKE, None,
     lambda run: _geometry.tension_identities_check.suite(
         run.m, run.samples, run.tol)),
    ("affine", _AFFINE_KINDS, None,
     lambda run: _affine.check_affine_structure.suite(
         run.m, run.samples, run.tol, run.seed)),
    ("cotangent", ("cotangent",), None,
     lambda run: _cotangent.cotangent_checks.suite(
         run.m, run.count, run.tol, run.seed, run.doc.hamiltonian)),
    ("sode", KINDS, "sode",
     lambda run: _sode.linearizability_report.suite(
         run.doc.sode, run.samples, run.tol)),
))


def _selected(run: CheckRun, names: Sequence[str]) -> list[SuiteEntry]:
    """The entries of `names`; "all" stands for every suite that applies to
    the model's kind and has what it needs."""
    table = {entry.name: entry for entry in SUITES}
    kind = run.m.bundle.kind
    out = []
    for name in names:
        if name == "all":
            out += [entry for entry in SUITES if kind in entry.kinds and
                    (entry.needs is None or _NEEDS[entry.needs][0](run))]
            continue
        if name not in table:
            raise ModelError(f"unknown suite {name!r}")
        entry = table[name]
        if entry.needs is not None and not _NEEDS[entry.needs][0](run):
            raise ModelError(f"--suite {name} needs {_NEEDS[entry.needs][1]}")
        out.append(entry)
    return out


def _flattened(results: list) -> list[_geometry.CheckReport]:
    return [report for result in results
            for report in (result if isinstance(result, list) else [result])]


def run_checks(doc: ModelDocument, names: Sequence[str], count: int,
               seed: int, tol: float,
               section: Callable[[], SectionModel] | None = None
               ) -> list[_geometry.CheckReport]:
    """The reports of the suites `names` on the model's connection, on
    `count` points drawn with `seed`; the suites refuse a model of the
    wrong kind with a ModelError."""
    samples = sample_points(doc.connection, count, seed=seed)
    run = CheckRun(doc, samples, count, seed, tol, section)
    suites = [functools.partial(entry.start, run)
              for entry in _selected(run, names)]
    return _flattened(_geometry.run_suites(suites))
