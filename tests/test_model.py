from pathlib import Path

import numpy as np
import pytest

from linconn.expr import EvalError, compile_vector, evaluate, parse
from linconn.model import (
    BundleModel, ModelError, PointE, SectionModel,
    dump_model, load_model, sample_points, validate_section,
)

MODELS = Path(__file__).resolve().parents[1] / "models"

MINIMAL = """
[bundle]
kind = vector
base = x1
fiber = u1

[connection]
Gamma[1,1] = u1^2
"""


def test_load_minimal():
    doc = load_model(MINIMAL)
    assert doc.bundle.kind == "vector"
    assert doc.bundle.n == 1 and doc.bundle.k == 1
    assert evaluate(doc.connection.gamma[0][0], {"u1": 3.0}) == 9.0


def test_load_rejects_unknown_coordinate():
    bad = MINIMAL.replace("u1^2", "u7")
    with pytest.raises(ModelError) as err:
        load_model(bad)
    assert "u7" in str(err.value)


def test_load_rejects_cotangent_dimension_mismatch():
    text = """
[bundle]
kind = cotangent
base = x1, x2
fiber = p1, p2, p3

[connection]
Gamma[1,1] = 0
"""
    with pytest.raises(ModelError) as err:
        load_model(text)
    assert "fiber dimension" in str(err.value)


def test_load_reports_line_numbers():
    bad = "\n".join(["[bundle]", "kind = vector", "base = x1", "fiber = u1",
                     "[connection]", "Gamma[1,1] = sin("])
    with pytest.raises(ModelError) as err:
        load_model(bad)
    assert "line 6" in str(err.value)


def test_two_defining_sections_rejected():
    text = MINIMAL + "\n[sode]\nf1 = -x1\n"
    with pytest.raises(ModelError) as err:
        load_model(text)
    assert "exactly one" in str(err.value)


def test_missing_entries_rejected():
    text = """
[bundle]
kind = vector
base = x1, x2
fiber = u1

[connection]
Gamma[1,1] = 0
"""
    with pytest.raises(ModelError) as err:
        load_model(text)
    assert "Gamma[1,2]" in str(err.value)


def test_jet_requires_time_first():
    text = """
[bundle]
kind = jet
base = t
fiber = v1

[sode]
f1 = -v1
"""
    with pytest.raises(ModelError):
        load_model(text)


def test_comments_and_exclude():
    text = """
# a comment
[bundle]
kind = vector
base = x1   # trailing comment
fiber = u1
exclude = "u1=0"

[connection]
Gamma[1,1] = 1/u1
"""
    doc = load_model(text)
    assert len(doc.connection.excluded) == 1
    pts = sample_points(doc.connection, 50, seed=7)
    assert all(abs(p.fiber[0]) >= 0.1 for p in pts)


def test_roundtrip_serialization(m4_model):
    from linconn.model import ModelDocument

    doc = ModelDocument(bundle=m4_model.bundle, connection=m4_model)
    text = dump_model(doc)
    doc2 = load_model(text)
    pts = sample_points(m4_model, 100, seed=5)
    for p in pts:
        env = p.env(m4_model.bundle)
        for A in range(2):
            for i in range(2):
                assert evaluate(m4_model.gamma[A][i], env) == pytest.approx(
                    evaluate(doc2.connection.gamma[A][i], env), abs=1e-12)


def test_sode_and_hamiltonian_sections():
    doc = load_model("""
[bundle]
kind = tangent
base = x1
fiber = v1

[sode]
f1 = -x1
""")
    assert doc.sode is not None and doc.sode.autonomous
    assert doc.connection.bundle.kind == "tangent"

    doc = load_model("""
[bundle]
kind = cotangent
base = x1
fiber = p1

[hamiltonian]
H = p1^2/2
""")
    assert doc.hamiltonian is not None
    assert doc.connection is None  # no first integrals -> no connection

    doc = load_model("""
[bundle]
kind = cotangent
base = x1
fiber = p1

[hamiltonian]
H = p1^2/2
f1 = p1
""")
    assert doc.connection is not None


def test_validate_section(quadratic_model):
    info = validate_section(quadratic_model, SectionModel((parse("x1"),)))
    assert info.basic
    info = validate_section(quadratic_model, SectionModel((parse("u1"),)))
    assert not info.basic
    with pytest.raises(ModelError):
        validate_section(quadratic_model,
                         SectionModel((parse("x1"), parse("x1"))))
    with pytest.raises(ModelError):
        validate_section(quadratic_model, SectionModel((parse("w3"),)))


def test_sampling_determinism(m4_model):
    a = sample_points(m4_model, 3, seed=7)
    b = sample_points(m4_model, 3, seed=7)
    assert a == b
    c = sample_points(m4_model, 3, seed=8)
    assert a != c


def test_sampling_errors(m4_model):
    with pytest.raises(ModelError):
        sample_points(m4_model, 0)
    with pytest.raises(ModelError):
        sample_points(m4_model, 3, box={"x1": (1.0, 1.0)})


def _scalar_sample(m, count, box=None, seed=0, margin=0.1):
    """The sampler as one draw per coordinate and one compiled predicate
    call per point: the reference the block sampler must reproduce."""
    intervals = [(box or {}).get(name, (-1.0, 1.0)) for name in m.bundle.coords]
    rng = np.random.default_rng(seed)
    predicates = compile_vector(m.excluded, m.bundle.coords)
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ModelError("could not sample off the excluded set; "
                             "box too close to the singular locus")
        vals = [float(rng.uniform(lo, hi)) for lo, hi in intervals]
        if any(abs(p) < margin for p in predicates(vals)):
            continue
        points.append(PointE(base=tuple(vals[:m.bundle.n]),
                             fiber=tuple(vals[m.bundle.n:])))
    return points


def _outcome(sample, *args, **kwargs):
    try:
        return sample(*args, **kwargs)
    except (EvalError, ModelError) as err:
        return type(err), str(err)


def _excluding(predicate):
    return load_model(MINIMAL.replace("fiber = u1", f"fiber = u1\nexclude = "
                                      f"\"{predicate}=0\"")).connection


@pytest.mark.parametrize("count", [1, 7, 20000])
@pytest.mark.parametrize("case", ["potential_1d", "boxed", "overflowing"])
def test_block_sampler_matches_scalar_stream(case, count, m4_model):
    if case == "potential_1d":
        # Rejects every draw with |p1| < 0.1.
        text = (MODELS / "potential_1d.lc").read_text()
        m, box = load_model(text).connection, None
    elif case == "boxed":
        m, box = m4_model, {"x1": (0.5, 2.0), "u2": (-3.0, -1.0)}
    else:
        # The predicate overflows for x1 > 0.51, so those blocks go to the
        # scalar path, which takes them: inf is not near zero.
        m, box = _excluding("exp(700*x1)*exp(700*x1)"), None
    got = sample_points(m, count, box=box, seed=11)
    assert got == _scalar_sample(m, count, box=box, seed=11)
    assert all(type(v) is float for pt in got for v in pt.base + pt.fiber)


def test_block_sampler_faults_where_scalar_stream_does():
    # ln(x1) faults at the first draw with x1 <= 0, but only if that draw
    # is reached before `count` points are taken.
    m = _excluding("ln(x1)")
    cases = [(count, seed) for count in (1, 2, 3) for seed in range(8)]
    outcomes = [_outcome(sample_points, m, count, seed=seed)
                for count, seed in cases]
    assert outcomes == [_outcome(_scalar_sample, m, count, seed=seed)
                        for count, seed in cases]
    assert {type(o) for o in outcomes} == {list, tuple}


def test_sampling_gives_up_off_a_box_inside_the_margin():
    m = _excluding("x1")
    with pytest.raises(ModelError, match="could not sample off the excluded set"):
        sample_points(m, 3, box={"x1": (-0.05, 0.05)})


def test_point_env(m4_model):
    p = PointE(base=(0.1, 0.2), fiber=(0.3, 0.4))
    env = p.env(m4_model.bundle)
    assert env == {"x1": 0.1, "x2": 0.2, "u1": 0.3, "u2": 0.4}


def test_bundle_invariants():
    with pytest.raises(ModelError):
        BundleModel("vector", ("x1", "x1"), ("u1",))
    with pytest.raises(ModelError):
        BundleModel("tangent", ("x1", "x2"), ("v1",))
    with pytest.raises(ModelError):
        BundleModel("nonsense", ("x1",), ("u1",))
    b = BundleModel("jet", ("t", "x1"), ("v1",))
    assert b.n == 2 and b.k == 1
