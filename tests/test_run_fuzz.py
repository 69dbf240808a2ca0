"""Fuzzing `run()` with generated models of every bundle kind that a
connection comes from: vector, affine and cotangent models with a
`[connection]` section, tangent and jet models with a `[sode]` section,
and cotangent models with a `[hamiltonian]` section, with and without
first integrals. The runs take generated option payloads too: sections,
fields, points, transported vectors, holonomy directions, splits, 1-forms,
functions, inverse metrics and first integrals, as `--flag=value`, since a
value that begins with a minus sign cannot follow its flag as an argument
of its own; and the values of the numeric flags, some as arguments of
their own, so that a negative one may stop at the parser.
Whatever the coefficients and payloads, a run ends with exit code 0, 1 or
2, never with a traceback; on exit 2 stderr is one `error:` line, on exit
0 or 1 it holds only `warning:` lines, also with warnings turned into
errors, and a report validates against the JSON schema. Every generated option is one
that its run reads, so no run stops at the refusal of an option.

The text of the shipped model files is fuzzed too: each mutant, a few
line, character and keyword edits away from a shipped model, ends the
same way under every verb that reads a model file.

The coefficients are trees of the `tests/test_expr.py` operations over the
model's coordinates, powers with column exponents and with negative and
fractional ones among them, with extreme leaves: 1e308 (overflow),
1e-320 (a subnormal) and both signed zeros.
"""

import io
import json
import string
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from linconn.cli import run
from linconn.expr import Const, Neg, Var, to_string

from test_expr import _domain_combine, _power_combine

REPO = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO / "schema" / "report.schema.json").read_text())

EXTREMES = (Const(1e308), Const(1e-320), Const(-0.0), Neg(Const(0.0)))

# Per kind: the fiber coordinate's letter, and the verbs a run may take;
# `{state}` stands for a start state of the model's coordinates.
KINDS = {
    "vector": ("u", (("check", "--suite", "all"), ("bianchi",),
                     ("tensor", "--name", "curvature"))),
    "affine": ("y", (("check", "--suite", "all"), ("bianchi",))),
    "cotangent": ("p", (("check", "--suite", "all"),
                        ("check", "--suite", "cotangent"))),
    "sode": ("v", (("check", "--suite", "all"), ("sode", "--classify"),
                   ("sode", "--classify", "--split", "1|2"))),
    "jet": ("v", (("check", "--suite", "all"), ("sode", "--homogenize"),
                  ("sode", "--flow={state}"))),
    "hamiltonian": ("p", (("hj",), ("check", "--suite", "all"))),
}
# Per kind: runs that take option payloads. `{exprs}` stands for
# expressions of the model's coordinates, `{basic}` for expressions of its
# base coordinates, `{momenta}` for expressions of those of a metric's
# cotangent chart, `{function}` for one expression of the model's
# coordinates and `{differential}` for a tensor name that takes it, and
# `{point}`, `{fiber}`, `{holonomy}`, `{split}` and `{metric}` for a
# point, a transported vector, two holonomy directions, an index split
# and an inverse metric; each may also be malformed. `{time}`, `{step}`,
# `{eps}`, `{fd_eps}`, `{tol}` and `{seed}` stand for the values of those
# flags. A run with `--metric` takes no model file.
OPTION_RUNS = {
    "vector": (("check", "--suite", "basic", "--section={exprs}", "--tol",
                "{tol}"),
               ("tensor", "--name", "pullback-coeffs", "--section={basic}",
                "--at={point}"),
               ("transport", "--field={basic}", "--fiber={fiber}",
                "--from={point}", "--time", "{time}", "--step={step}"),
               ("transport", "--field={basic}", "--from={point}", "--time",
                "0.01", "--oracle", "--fd-eps", "{fd_eps}"),
               ("transport", "--holonomy={holonomy}", "--from={point}",
                "--eps", "{eps}"),
               ("bianchi", "--seed", "{seed}", "--tol={tol}")),
    "affine": (("check", "--suite", "basic", "--section={exprs}"),
               ("transport", "--field={basic}", "--fiber={fiber}",
                "--from={point}", "--time={time}", "--step", "{step}")),
    "cotangent": (("check", "--suite", "all", "--section={basic}",
                   "--seed={seed}"),
                  ("transport", "--field={exprs}", "--from={point}",
                   "--time", "0.01", "--oracle", "--central",
                   "--fd-eps={fd_eps}"),
                  ("tensor", "--name", "{differential}",
                   "--function={function}", "--at={point}")),
    "sode": (("sode", "--classify", "--split={split}", "--seed", "{seed}",
              "--tol", "{tol}"),
             ("sode", "--jacobi", "--at={point}"),
             ("sode", "--split={split}", "--flow={state}", "--time", "{time}",
              "--step", "{step}")),
    "jet": (("sode", "--split={split}"), ("sode", "--jacobi", "--at={point}"),
            ("sode", "--flow={state}", "--time={time}", "--step", "{step}")),
    "hamiltonian": (("hj", "--alpha={basic}", "--tol", "{tol}"),
                    ("hj", "--metric={metric}", "--alpha={basic}",
                     "--seed={seed}"),
                    ("hj", "--metric={metric}", "--integrals={momenta}",
                     "--alpha={basic}"),
                    ("tensor", "--name", "{differential}",
                     "--function={function}")),
}
MALFORMED = ("x1,,", "(", ",", "1e400", "zz", "x1 = 1", "")
# Values of the numeric flags: a few finite ones each, then zero, not a
# number, both infinities, an overflowing literal and no number at all.
# Every flow stays short: at most 0.5 long at a step of at least 1e-3, or
# refused.
NUMBERS = {
    "time": ("0.01", "0.5", "-0.25"),
    "step": ("0.01", "0.25", "-0.01", "1e-300"),
    "eps": ("0.01", "-0.02", "1e-9", "1e200"),
    "fd_eps": ("1e-5", "1", "-1e-5", "1e-300"),
    "tol": ("1e-8", "1e300", "-1e-8"),
}
EDGES = ("0", "nan", "inf", "-inf", "1e400", "abc", "")
SEEDS = ("0", "7", "-1", "2.5", "99999999999999999999", "x", "")
# `--samples` values that are refused before any point is drawn.
BAD_COUNTS = ("0", "-3", "2.5", "2000001", "99999999999999999999", "nan", "")
# The bundle kind of each kind that is not one itself, and the section
# that defines a model of each kind.
BUNDLE_KIND = {"sode": "tangent", "hamiltonian": "cotangent"}
SECTION = {"sode": "sode", "jet": "sode", "hamiltonian": "hamiltonian"}


def _leaf(names):
    return st.one_of(
        st.sampled_from(names).map(Var),
        st.sampled_from(EXTREMES),
        st.floats(min_value=-3.0, max_value=3.0,
                  allow_nan=False).map(lambda v: Const(round(v, 3))),
    )


def _combine(children):
    return st.one_of(_domain_combine(children), _power_combine(children))


def _texts(expressions, size):
    """Comma-separated expression texts, about `size` of them."""
    listed = st.lists(expressions.map(to_string), min_size=1,
                      max_size=size + 1).map(",".join)
    return st.one_of(listed, st.sampled_from(MALFORMED))


def _metric_entry():
    return st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.floats(width=32),
        st.sampled_from(("x1", "x2", "p1", "1/x1", "sqrt(x1)", "(", True,
                         None, [1])))


def _payloads(base, fiber, coefficient):
    """The option payload strategies, by placeholder name."""
    names = base + fiber
    item = st.tuples(st.sampled_from(names + ["zz"]),
                     st.sampled_from(("0", "0.5", "-1", "1e308", "nan",
                                      "-inf", "abc", ""))).map("=".join)
    square = st.integers(min_value=1, max_value=2).flatmap(
        lambda n: st.lists(st.lists(_metric_entry(), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    momenta = st.recursive(_leaf(["x1", "x2", "p1", "p2"]), _combine,
                           max_leaves=3)
    return {
        **{flag: st.one_of(st.sampled_from(values),
                           st.sampled_from(EDGES))
           for flag, values in NUMBERS.items()},
        "seed": st.sampled_from(SEEDS),
        "function": _texts(coefficient, 1),
        "differential": st.sampled_from(("dh", "dv", "hamiltonian-field")),
        "exprs": _texts(coefficient, len(fiber)),
        "basic": _texts(st.recursive(_leaf(base), _combine, max_leaves=3),
                        len(base)),
        "momenta": _texts(momenta, 2),
        "point": st.one_of(
            st.lists(item, max_size=len(names) + 1).map(",".join),
            st.sampled_from(MALFORMED)),
        "fiber": st.one_of(
            st.lists(st.sampled_from(("0", "-0", "1", "-1", "0.5", "1e308",
                                      "nan", "-inf", "abc")),
                     min_size=1, max_size=len(fiber) + 2).map(",".join),
            st.sampled_from(MALFORMED)),
        "holonomy": st.one_of(
            st.lists(st.integers(-1, 3).map(str), min_size=2,
                     max_size=2).map(",".join),
            st.sampled_from(("1", "1,2,3", "1.5,2", "a,b", "1,,2", ""))),
        "split": st.one_of(
            st.sampled_from(("1|2", "2|1", "1 2|", "1|1", "|", "1,2|3")),
            st.lists(st.sampled_from("0123a|, "), max_size=5).map("".join)),
        "metric": st.one_of(
            square.map(json.dumps),
            st.sampled_from(("5", "[1]", "[[1],[2,3]]", "{", "[]", "[[]]"))),
    }


@st.composite
def models(draw, kinds=tuple(KINDS), runs=None):
    """The text of a model of one of `kinds` with n = k = 1 or 2, and the
    argv of a run on it, less the model path: one of the kind's `KINDS`
    verbs, or of its `runs` with their payloads drawn."""
    kind = draw(st.sampled_from(kinds))
    letter, verbs = KINDS[kind]
    if runs is not None:
        verbs = runs[kind]
    size = draw(st.sampled_from((1, 2)))
    base = ["t"] * (kind == "jet") + [f"x{i + 1}" for i in range(size)]
    fiber = [f"{letter}{A + 1}" for A in range(size)]
    coefficient = st.recursive(_leaf(base + fiber), _combine,
                               max_leaves=6 if size == 1 else 3)
    section = SECTION.get(kind, "connection")
    lines = ["[bundle]", "kind = " + BUNDLE_KIND.get(kind, kind),
             "base = " + ", ".join(base), "fiber = " + ", ".join(fiber), "",
             f"[{section}]"]
    numbered = [f"f{i + 1}" for i in range(size)]
    if section == "sode":
        keys = numbered
    elif section == "hamiltonian":
        keys = ["H"] + numbered * draw(st.booleans())
    else:
        keys = [f"Gamma[{A + 1},{i + 1}]" for A in range(size)
                for i in range(size)]
    lines += [f"{key} = {to_string(draw(coefficient))}" for key in keys]
    state = draw(st.lists(st.sampled_from(("0", "0.5", "-1")),
                          min_size=len(base + fiber),
                          max_size=len(base + fiber)))
    template = draw(st.sampled_from(verbs))
    values = {"state": ",".join(state)}
    payloads = _payloads(base, fiber, coefficient)
    for name in sorted({field for arg in template
                        for _, field, _, _ in string.Formatter().parse(arg)
                        if field and field != "state"}):
        values[name] = draw(payloads[name])
    argv = tuple(arg.format(**values) for arg in template)
    return "\n".join(lines) + "\n", argv


BIG = ("[bundle]\nkind = vector\nbase = x1\nfiber = u1\n\n[connection]\n"
       "Gamma[1,1] = 1e308*u1^2 + 1e308*x1\n")
CHECK = KINDS["vector"][1][0]
# A power whose exponent is a column, and powers that fault at zero or
# below it, on each kind.
POWERS = ("[bundle]\nkind = {kind}\nbase = x1\nfiber = {fiber}\n\n"
          "[{section}]\n{key} = x1^{fiber} + {fiber}^-1 - x1^0.5 + 2^-x1\n")
# Powers and roots that stay finite on the whole box: the columns decide.
FINITE_POWERS = ("[bundle]\nkind = tangent\nbase = x1\nfiber = v1\n\n[sode]\n"
                 "f1 = 2^v1 - x1^2 + sqrt(x1^2 + 1)*v1^3 + (x1^2 + 1)^-0.5\n")


def _samples(argv):
    """Whether the run `argv` draws sample points, and so reads --samples."""
    return argv[0] in ("check", "bianchi", "hj") or any(
        a == "--classify" or a.startswith("--split") for a in argv)


def _assert_run_ends_cleanly(tmp_path, text, argv, samples, strict=False):
    """With `strict`, the run is made with warnings turned into errors."""
    path = tmp_path / "fuzz.lc"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    model = [] if any(a.startswith("--metric") for a in argv) else [str(path)]
    count = ["--samples", str(samples)] if _samples(argv) else []
    with redirect_stdout(out), redirect_stderr(err), \
            warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error")
        code = run([argv[0], *model, *argv[1:], "--json", *count])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert "does not apply" not in err.getvalue()
    assert "unrecognized arguments" not in err.getvalue()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert out.getvalue() == ""
    else:
        assert all(line.startswith("warning: ") for line in lines), lines
        jsonschema.validate(json.loads(out.getvalue()), SCHEMA)


_FUZZ = settings(deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.function_scoped_fixture])


@settings(_FUZZ, max_examples=40)
@given(model=models(kinds=("vector",)),
       samples=st.integers(min_value=1, max_value=50))
@example(model=(BIG, CHECK), samples=50)
@example(model=(BIG.replace("1e308*x1", "1e-320*x1/(u1 - u1)"), ("bianchi",)),
         samples=7)
def test_run_ends_in_an_exit_code_and_never_a_traceback(tmp_path, model,
                                                         samples):
    _assert_run_ends_cleanly(tmp_path, *model, samples)


@settings(_FUZZ, max_examples=60)
@given(model=models(kinds=("affine", "cotangent", "sode")),
       samples=st.integers(min_value=1, max_value=50))
@example(model=(POWERS.format(kind="affine", fiber="y1", section="connection",
                              key="Gamma[1,1]"), CHECK), samples=50)
@example(model=(POWERS.format(kind="cotangent", fiber="p1",
                              section="connection", key="Gamma[1,1]"),
                ("check", "--suite", "cotangent")), samples=50)
@example(model=(POWERS.format(kind="tangent", fiber="v1", section="sode",
                              key="f1"), ("sode", "--classify")), samples=50)
@example(model=(FINITE_POWERS, ("sode", "--classify")), samples=50)
def test_run_on_affine_cotangent_and_sode_models_never_a_traceback(
        tmp_path, model, samples):
    _assert_run_ends_cleanly(tmp_path, *model, samples)


JET = ("[bundle]\nkind = jet\nbase = t, x1\nfiber = v1\n\n[sode]\n"
       "f1 = -x1*v1^2 + 1e308*t\n")
POTENTIAL = ("[bundle]\nkind = cotangent\nbase = x1\nfiber = p1\n\n"
             "[hamiltonian]\nH = p1^2/2 + x1^2/2\nf1 = p1^2/2 + x1^2/2\n")


@settings(_FUZZ, max_examples=60)
@given(model=models(kinds=("jet", "hamiltonian")),
       samples=st.integers(min_value=1, max_value=50))
@example(model=(JET, ("sode", "--flow=0,1,-1")), samples=1)
@example(model=(JET, ("sode", "--homogenize")), samples=1)
@example(model=(POTENTIAL, ("hj",)), samples=50)
@example(model=(POTENTIAL.replace("x1^2/2\n", "x1^-1\n", 1), CHECK),
         samples=50)
def test_run_on_jet_and_hamiltonian_models_never_a_traceback(
        tmp_path, model, samples):
    _assert_run_ends_cleanly(tmp_path, *model, samples)


# A cotangent connection that is not symmetric: its Hamiltonian fields
# warn.
ASYMMETRIC = ("[bundle]\nkind = cotangent\nbase = x1, x2\nfiber = p1, p2\n\n"
              "[connection]\nGamma[1,1] = 0\nGamma[1,2] = x1*p2\n"
              "Gamma[2,1] = 0\nGamma[2,2] = 0\n")


@settings(_FUZZ, max_examples=120)
@given(model=models(runs=OPTION_RUNS),
       samples=st.one_of(st.integers(min_value=1, max_value=20),
                         st.sampled_from(BAD_COUNTS)),
       strict=st.booleans())
@example(model=(POTENTIAL, ("hj", "--metric=[[NaN]]", "--alpha=x1")),
         samples=5, strict=False)
@example(model=(JET, ("sode", "--flow=-1,0,1", "--time", "0.01")), samples=1,
         strict=False)
@example(model=(JET, ("sode", "--flow", "-1,0,1")), samples=1, strict=False)
@example(model=(POTENTIAL, ("tensor", "--name", "hamiltonian-field",
                            "--function=p1^2/x1", "--at=x1=0,p1=1")),
         samples=1, strict=True)
@example(model=(POTENTIAL, ("hj", "--alpha=x1", "--seed", "-1")),
         samples="2000001", strict=False)
@example(model=(ASYMMETRIC, ("tensor", "--name", "hamiltonian-field",
                             "--function=p1", "--at=x1=0.5")),
         samples=1, strict=True)
@example(model=(ASYMMETRIC, ("transport", "--holonomy=1,2", "--eps", "-0")),
         samples=1, strict=True)
def test_run_with_option_payloads_never_a_traceback(tmp_path, model,
                                                    samples, strict):
    _assert_run_ends_cleanly(tmp_path, *model, samples, strict)


# The text of every shipped model, and pieces of the model-file grammar
# that a mutation inserts or puts in place of a character or a word.
SHIPPED = tuple(path.read_text(encoding="utf-8")
                for path in sorted((REPO / "models").glob("*.lc")))
GRAMMAR = ("[bundle]", "[connection]", "[sode]", "[hamiltonian]", "kind",
           "base", "fiber", "exclude", "vector", "affine", "tangent",
           "cotangent", "jet", "Gamma[1,1]", "Gamma[2,1]", "f1", "f2", "H",
           "t", "x1", "x2", "u1", "v1", "p1", "=", ",", "[", "]", '"', "#",
           "\n", " ", "(", ")", "^", "*", "/", "-", "+", "0", "1", "e",
           "1e308", "ln", "sqrt", "sin", ".", "²")
WORDS = tuple(piece for piece in GRAMMAR if piece.strip())


@st.composite
def mutants(draw):
    """A shipped model's text after one to three edits: a line deleted or
    duplicated; a grammar piece inserted, or put in place of a character
    or of a word of the grammar; or a character deleted."""
    text = draw(st.sampled_from(SHIPPED))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        lines = text.splitlines(keepends=True)
        edit = draw(st.sampled_from(("delete line", "duplicate line",
                                     "insert", "replace", "delete",
                                     "word")))
        words = [word for word in WORDS if word in text]
        if edit in ("delete line", "duplicate line") and lines:
            i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[i:i + 1] = [] if edit == "delete line" else [lines[i]] * 2
            text = "".join(lines)
        elif edit == "word" and words:
            word = draw(st.sampled_from(words))
            text = text.replace(word, draw(st.sampled_from(("", *GRAMMAR))),
                                1)
        else:
            i = draw(st.integers(min_value=0, max_value=len(text)))
            piece = "" if edit == "delete" else draw(st.sampled_from(GRAMMAR))
            text = text[:i] + piece + text[i + (edit != "insert"):]
    return text


# A run of each verb that reads a model file without an option payload.
MUTANT_RUNS = (("info",), ("check",), ("tensor", "--name", "curvature"),
               ("sode", "--classify"), ("hj",))
# Coordinate names that are not identifiers once died in `check` with a
# traceback: the four reproductions are pinned as examples.
NAMES = "[bundle]\nkind = tangent\nbase = {}\nfiber = {}\n\n[sode]\nf1 = -1\n"
# So did a number with a second point and a digit that is not decimal.
GAMMA = ("[bundle]\nkind = vector\nbase = x1\nfiber = u1\n\n[connection]\n"
         "Gamma[1,1] = {}\n")


@settings(_FUZZ, max_examples=40)
@given(text=mutants())
@example(text=NAMES.format("x1", "1"))
@example(text=NAMES.format("e x1", "v1"))
@example(text=NAMES.format("x1", "v2/"))
@example(text=NAMES.format("x1", "vln("))
@example(text=GAMMA.format("1.2.3*u1"))
@example(text=GAMMA.format("²"))
def test_mutated_model_text_never_a_traceback(tmp_path, text):
    for argv in MUTANT_RUNS:
        _assert_run_ends_cleanly(tmp_path, text, argv, 5)
