"""Fuzzing `run()` with generated vector models: whatever the coefficients,
a run ends with exit code 0, 1 or 2, never with a traceback; exit 2 ends
with one `error:` line, and a report validates against the JSON schema.

The coefficients are trees of the `tests/test_expr.py` operations over the
model's coordinates, with extreme leaves: 1e308 (overflow), 1e-320 (a
subnormal) and both signed zeros.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from linconn.cli import run
from linconn.expr import Const, Neg, Var, to_string

from test_expr import _domain_combine

REPO = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO / "schema" / "report.schema.json").read_text())

EXTREMES = (Const(1e308), Const(1e-320), Const(-0.0), Neg(Const(0.0)))


def _leaf(names):
    return st.one_of(
        st.sampled_from(names).map(Var),
        st.sampled_from(EXTREMES),
        st.floats(min_value=-3.0, max_value=3.0,
                  allow_nan=False).map(lambda v: Const(round(v, 3))),
    )


@st.composite
def vector_models(draw):
    """The text of a vector model with n = k = 1 or 2."""
    size = draw(st.sampled_from((1, 2)))
    base = [f"x{i + 1}" for i in range(size)]
    fiber = [f"u{A + 1}" for A in range(size)]
    coefficient = st.recursive(_leaf(base + fiber), _domain_combine,
                               max_leaves=6 if size == 1 else 3)
    lines = ["[bundle]", "kind = vector", "base = " + ", ".join(base),
             "fiber = " + ", ".join(fiber), "", "[connection]"]
    for A in range(size):
        for i in range(size):
            lines.append(f"Gamma[{A + 1},{i + 1}] = "
                         f"{to_string(draw(coefficient))}")
    return "\n".join(lines) + "\n"


VERBS = (("check", "--suite", "all"), ("bianchi",),
         ("tensor", "--name", "curvature"))

BIG = ("[bundle]\nkind = vector\nbase = x1\nfiber = u1\n\n[connection]\n"
       "Gamma[1,1] = 1e308*u1^2 + 1e308*x1\n")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(text=vector_models(), samples=st.integers(min_value=1, max_value=50),
       verb=st.sampled_from(VERBS))
@example(text=BIG, samples=50, verb=VERBS[0])
@example(text=BIG.replace("1e308*x1", "1e-320*x1/(u1 - u1)"), samples=7,
         verb=VERBS[1])
def test_run_ends_in_an_exit_code_and_never_a_traceback(tmp_path, text,
                                                         samples, verb):
    path = tmp_path / "fuzz.lc"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([verb[0], str(path), *verb[1:], "--json",
                    "--samples", str(samples)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().splitlines()[-1].startswith("error: ")
        assert out.getvalue() == ""
    else:
        jsonschema.validate(json.loads(out.getvalue()), SCHEMA)
