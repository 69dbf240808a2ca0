"""The check suites of a run, and the one runner that evaluates them.

`SUITES` is the one table of the suites `check`, `bianchi`, `sode` and
`hj` name: each entry names the suite, the bundle kinds it takes, the
kinds `--suite all` runs it on (none for those only `sode` and `hj`
name), what it cannot run without, and how it starts on a run.
`run_checks`, the one path that draws a run's sample set, selects the
suites and hands them to `geometry.run_suites`, which evaluates the
residual sets of one round with one `evaluate_components` call per
distinct sample set. Sets equal bit for bit count as one, so the
cotangent suite's own draw of the run's points joins them. Each suite
starts and runs once. One that raises ends there and drops the suites
after it, and its error is raised once the suites before it have
finished: the reports and the first error are those of a run that
evaluates each set on its own, in suite order. So the entry that
homogenizes an affine model is a generator: that work, and its error,
is its suite's. A suite the run cannot run, for the model's kind or for
what it needs, is refused before the draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import affine as _affine
from . import cotangent as _cotangent
from . import geometry as _geometry
from . import sode as _sode
from .expr import ZERO
from .model import (AFFINE, COTANGENT, KINDS, SECOND_ORDER, VECTOR_LIKE,
                    ConnectionModel, ModelDocument, ModelError, SectionModel,
                    require_kind, sample_points)

__all__ = ["CheckRun", "SUITES", "run_checks"]


@dataclass(frozen=True, eq=False)
class CheckRun:
    """The inputs of one run: its model and sample set, the count and seed
    the set was drawn with, the tolerance, and the options: the section of
    `basic`, the split of `decoupling` and the 1-form of `hamilton-jacobi`."""

    doc: ModelDocument
    samples: np.ndarray
    count: int
    seed: int
    tol: float
    section: SectionModel | None = None
    split: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    alpha: _cotangent.OneFormOnM | None = None

    @property
    def m(self) -> ConnectionModel | None:
        return self.doc.connection


def _homogeneous(run: CheckRun):
    """The model's own homogeneity, or for an affine or jet model that of
    its homogeneous extension, on points of that extension's box."""
    if run.m.bundle.kind in AFFINE:
        return (yield from _affine.check_homogenized.suite(
            _affine.homogenize(run.m), run.count, run.tol, run.seed))
    return (yield from _geometry.check_homogeneous.suite(run.m, run.samples,
                                                         run.tol))


@dataclass(frozen=True)
class SuiteEntry:
    """A suite: `start` makes its generator on a run of a model of one of
    the bundle kinds `kinds`. `--suite all` runs it on the kinds
    `all_kinds` when the run has what it `needs`. The homogeneity suite
    takes every kind but runs under `all` on the vector-like ones alone,
    so the two cannot be read from each other."""

    name: str
    kinds: tuple[str, ...]
    all_kinds: tuple[str, ...]
    needs: str | None
    start: Callable[[CheckRun], _geometry.Suite]


# What a suite cannot run without: (whether a run of the model `doc` with
# the `CheckRun` options has it, its name).
_NEEDS = {
    "section": (lambda doc, options: options.get("section") is not None,
                "--section"),
    "sode": (lambda doc, options: doc.sode is not None and
             doc.sode.autonomous, "an autonomous [sode] model"),
}

# In the order `--suite all` runs them.
SUITES = tuple(SuiteEntry(*entry) for entry in (
    ("basic", KINDS, KINDS, "section",
     lambda run: _geometry.check_basic.suite(run.m, run.section, run.samples,
                                             run.tol)),
    ("homogeneous", KINDS, VECTOR_LIKE, None, _homogeneous),
    ("flat", VECTOR_LIKE, VECTOR_LIKE, None,
     lambda run: _geometry.flatness_check.suite(run.m, run.samples, run.tol)),
    ("axioms", VECTOR_LIKE, VECTOR_LIKE, None,
     lambda run: _geometry.axioms_check.suite(run.m, run.samples, run.tol,
                                              run.seed)),
    ("bianchi", VECTOR_LIKE, VECTOR_LIKE, None,
     lambda run: _geometry.bianchi_check.suite(run.m, run.samples, run.tol)),
    ("tension-identities", VECTOR_LIKE, VECTOR_LIKE, None,
     lambda run: _geometry.tension_identities_check.suite(
         run.m, run.samples, run.tol)),
    ("affine", AFFINE, AFFINE, None,
     lambda run: _affine.check_affine_structure.suite(
         run.m, run.samples, run.tol, run.seed)),
    ("cotangent", COTANGENT, COTANGENT, None,
     lambda run: _cotangent.cotangent_checks.suite(
         run.m, run.count, run.tol, run.seed, run.doc.hamiltonian)),
    ("sode", KINDS, KINDS, "sode",
     lambda run: _sode.linearizability_report.suite(
         run.doc.sode, run.samples, run.tol)),
    ("decoupling", SECOND_ORDER, (), None,
     lambda run: _sode.decoupling_check.suite(
         run.doc.sode, run.split, run.samples, run.tol)),
    ("integrable", COTANGENT, (), None,
     lambda run: _cotangent.integrable_report.suite(
         run.doc.hamiltonian, run.m, run.samples, run.tol)),
    ("hamilton-jacobi", COTANGENT, (), None,
     lambda run: _cotangent.hj_verify.suite(
         run.doc.hamiltonian, run.alpha, run.samples, run.tol, run.m)),
))


def _selected(doc: ModelDocument, names: Sequence[str],
              options: Mapping[str, object]) -> list[SuiteEntry]:
    """The entries of `names` on a run of `doc` with `options`; "all"
    stands for every suite that `--suite all` runs on the model's kind and
    that has what it needs. A suite named on its own is refused for a kind
    it does not take, then for what it needs."""
    table = {entry.name: entry for entry in SUITES}
    has = {None: True, **{need: holds(doc, options)
                          for need, (holds, _) in _NEEDS.items()}}
    out = []
    for name in names:
        if name == "all":
            out += [entry for entry in SUITES
                    if doc.bundle.kind in entry.all_kinds and has[entry.needs]]
            continue
        if name not in table:
            raise ModelError(f"unknown suite {name!r}")
        entry = table[name]
        require_kind(doc.bundle, entry.kinds, f"--suite {name}")
        if not has[entry.needs]:
            raise ModelError(f"--suite {name} needs {_NEEDS[entry.needs][1]}")
        out.append(entry)
    return out


def run_checks(doc: ModelDocument, names: Sequence[str], count: int,
               seed: int, tol: float, **options
               ) -> list[_geometry.CheckReport]:
    """The reports of the suites `names` on `count` points drawn with
    `seed` off the model's excluded set, given the `CheckRun` options;
    a suite the run cannot run, for the model's kind or for what it needs,
    is refused before the draw."""
    entries = _selected(doc, names, options)
    # A Hamiltonian without first integrals has no connection to draw on.
    m = doc.connection or ConnectionModel(
        doc.bundle, [[ZERO] * doc.bundle.n] * doc.bundle.k, doc.excluded)
    samples = sample_points(m, count, seed=seed)
    run = CheckRun(doc, samples, count, seed, tol, **options)
    results = _geometry.run_suites([entry.start(run) for entry in entries])
    return [report for result in results
            for report in (result if isinstance(result, list) else [result])]
