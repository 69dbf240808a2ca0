import ast
from pathlib import Path

import numpy as np
import pytest

from linconn.expr import EvalError, compile_vector, evaluate, parse
import linconn.model as model
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
    assert all(abs(u1) >= 0.1 for _, u1 in pts.tolist())


def test_roundtrip_serialization(m4_model):
    from linconn.model import ModelDocument

    doc = ModelDocument(bundle=m4_model.bundle, connection=m4_model)
    text = dump_model(doc)
    doc2 = load_model(text)
    pts = sample_points(m4_model, 100, seed=5)
    for vals in pts.tolist():
        env = dict(zip(m4_model.bundle.coords, vals))
        for A in range(2):
            for i in range(2):
                assert evaluate(m4_model.gamma[A][i], env) == pytest.approx(
                    evaluate(doc2.connection.gamma[A][i], env), abs=1e-12)


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.lc")),
                         ids=lambda p: p.stem)
def test_dump_is_a_fixed_point_on_shipped_models(path):
    """load, dump, load, dump gives the same text: only the declared
    excluded-set predicate is written, never the transversality
    determinant a [hamiltonian] section derives."""
    first = dump_model(load_model(path.read_text()))
    assert dump_model(load_model(first)) == first


def test_dump_writes_the_declared_exclude_once():
    text = (MODELS / "potential_1d.lc").read_text()
    dumped = dump_model(load_model(text))
    assert [line for line in dumped.splitlines()
            if line.startswith("exclude")] == ['exclude = "p1=0"']
    assert "exclude" not in dump_model(
        load_model((MODELS / "geodesic_const.lc").read_text()))


@pytest.mark.parametrize("line", [
    "kind = vector", "base = x2", "fiber = u2", 'exclude = "x1=0"'])
def test_duplicate_bundle_key_rejected(line):
    """A repeated key is an error on its line, never a silent overwrite."""
    text = MINIMAL.replace("fiber = u1\n",
                           "fiber = u1\nexclude = \"u1=0\"\n" + line + "\n")
    with pytest.raises(ModelError) as err:
        load_model(text)
    key = line.split("=")[0].strip()
    assert f"duplicate bundle key {key!r}" in str(err.value)
    assert str(err.value).startswith("line 7: ")


@pytest.mark.parametrize("kind, section, lines, key", [
    ("tangent", "sode", ("f1 = -x1", "f1 = x1"), "f1"),
    ("cotangent", "hamiltonian", ("H = p1^2", "H = p1^2/2"), "H"),
    ("cotangent", "hamiltonian", ("H = p1^2", "f1 = p1", "f1 = 2*p1"), "f1"),
])
def test_duplicate_sode_or_hamiltonian_entry_rejected(kind, section, lines, key):
    """A repeated entry is an error on its line, never a silent overwrite."""
    fiber = "p1" if kind == "cotangent" else "v1"
    text = (f"[bundle]\nkind = {kind}\nbase = x1\nfiber = {fiber}\n\n"
            f"[{section}]\n" + "\n".join(lines) + "\n")
    with pytest.raises(ModelError) as err:
        load_model(text)
    assert str(err.value) == f"line {6 + len(lines)}: duplicate entry {key}"


# Per defining section: its chart, and a complete body whose second line
# is line 8 of the file.
SECTIONS = {
    "connection": ("vector", "u1", ["Gamma[1,1] = u1", "Gamma[1,2] = x1"]),
    "sode": ("tangent", "v1, v2", ["f1 = -x1", "f2 = -x2"]),
    "hamiltonian": ("cotangent", "p1, p2",
                    ["H = p1^2/2 + p2^2/2", "f1 = p1", "f2 = p2"]),
}
NO_EXPR = "unexpected end of input at offset 1 (expected an expression)"


def _section_text(section: str, second: str | None) -> str:
    kind, fiber, body = SECTIONS[section]
    lines = [body[0], *([] if second is None else [second]), *body[2:]]
    return (f"[bundle]\nkind = {kind}\nbase = x1, x2\nfiber = {fiber}\n\n"
            f"[{section}]\n" + "\n".join(lines) + "\n")


ENTRY_FAULTS = [
    ("connection", "Gamma[1] = x1", "line 8: unknown [connection] key "
     "'Gamma[1]'; expected Gamma[1,1]..Gamma[1,2]"),
    ("connection", "Gamma[2,1] = x1", "line 8: unknown [connection] key "
     "'Gamma[2,1]'; expected Gamma[1,1]..Gamma[1,2]"),
    ("connection", "Gamma[01,1] = x1", "line 8: duplicate entry Gamma[1,1]"),
    ("connection", "Gamma[1,2] = (",
     f"line 8: cannot parse Gamma[1,2]: {NO_EXPR}"),
    ("connection", "Gamma[1,2] = y",
     "line 8: Gamma[1,2] may use only x1, x2, u1; found ['y']"),
    ("connection", None, "missing [connection] entries: Gamma[1,2]"),
    ("sode", "g2 = 0", "line 8: unknown [sode] key 'g2'; expected f1..f2"),
    ("sode", "f3 = 0", "line 8: unknown [sode] key 'f3'; expected f1..f2"),
    ("sode", "f1 = 0", "line 8: duplicate entry f1"),
    ("sode", "f2 = (", f"line 8: cannot parse f2: {NO_EXPR}"),
    ("sode", "f2 = y", "line 8: f2 may use only x1, x2, v1, v2; found ['y']"),
    ("sode", None, "missing [sode] entries: f2"),
    ("hamiltonian", "K = p1",
     "line 8: unknown [hamiltonian] key 'K'; expected H, f1..f2"),
    ("hamiltonian", "f3 = p1",
     "line 8: unknown [hamiltonian] key 'f3'; expected H, f1..f2"),
    ("hamiltonian", "H = p1", "line 8: duplicate entry H"),
    ("hamiltonian", "f1 = (", f"line 8: cannot parse f1: {NO_EXPR}"),
    ("hamiltonian", "f1 = y",
     "line 8: f1 may use only x1, x2, p1, p2; found ['y']"),
    ("hamiltonian", None, "missing [hamiltonian] entries: f1"),
]


@pytest.mark.parametrize("section, second, message", ENTRY_FAULTS, ids=[
    f"{section}: {second or 'missing'}" for section, second, _ in
    ENTRY_FAULTS])
def test_one_reader_refuses_indexed_entries_alike(section, second, message):
    """`[connection]`, `[sode]` and `[hamiltonian]` share one entry reader:
    a key the section does not take, a repeated key (leading zeros of an
    index read as none), an entry that does not parse or uses a name
    outside the chart, each on its line, and a missing entry."""
    with pytest.raises(ModelError) as err:
        load_model(_section_text(section, second))
    assert str(err.value) == message


def test_hamiltonian_coordinate_fault_names_its_line():
    """The Hamiltonian itself goes through the same reader, so an unknown
    name in `H` is refused on its line too."""
    text = _section_text("hamiltonian", "f1 = p1").replace(
        "H = p1^2/2", "H = y^2/2")
    with pytest.raises(ModelError) as err:
        load_model(text)
    assert str(err.value) == \
        "line 7: H may use only x1, x2, p1, p2; found ['y']"


def test_a_first_integral_family_is_all_or_none():
    text = _section_text("hamiltonian", "f1 = p1")
    assert load_model(text.replace("f1 = p1\nf2 = p2\n", "")).connection \
        is None
    with pytest.raises(ModelError) as err:
        load_model(text.replace("H = p1^2/2 + p2^2/2\n", "").replace(
            "f2 = p2\n", ""))
    assert str(err.value) == "missing [hamiltonian] entries: H, f2"


@pytest.mark.parametrize("section, kind, message", [
    ("sode", "vector", "[sode] expects kind tangent or jet, got kind=vector"),
    ("hamiltonian", "tangent",
     "[hamiltonian] expects kind cotangent, got kind=tangent"),
])
def test_a_section_of_the_wrong_kind_is_refused_before_its_entries(
        section, kind, message):
    text = _section_text(section, "bad key = (").replace(
        f"kind = {SECTIONS[section][0]}", f"kind = {kind}")
    with pytest.raises(ModelError) as err:
        load_model(text)
    assert str(err.value) == message


def _is_kind(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "kind"


def _literal(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(map(_literal, node.elts))
    return isinstance(node, ast.Constant) and node.value in model.KINDS


def test_only_model_holds_kind_groups_and_guards():
    """Which kinds an operation takes is decided in `model` alone: no other
    module spells a group of kind names, compares a `.kind` with kind
    names of its own, or refuses a kind in an `if` of its own (what
    `require_kind` does)."""
    found = []
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        if path.stem == "model":
            continue
        tree = ast.parse(path.read_text())
        compares = {n for n in ast.walk(tree) if isinstance(n, ast.Compare)
                    and any(map(_is_kind, [n.left, *n.comparators]))}
        for node in ast.walk(tree):
            where = f"{path.stem}:{getattr(node, 'lineno', '')}"
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and \
                    node.elts and _literal(node):
                found.append(f"{where}: a group of kind names")
            if node in compares and any(
                    map(_literal, [node.left, *node.comparators])):
                found.append(f"{where}: .kind compared with kind names")
            if isinstance(node, ast.If) and compares & set(
                    ast.walk(node.test)) and any(
                    isinstance(n, ast.Raise) for b in node.body
                    for n in ast.walk(b)):
                found.append(f"{where}: a kind guard")
    assert found == []


@pytest.mark.parametrize("kind, base", [("tangent", "x1"), ("jet", "t, x1")])
def test_loaded_sode_keeps_the_declared_excluded_set(kind, base):
    doc = load_model(f"[bundle]\nkind = {kind}\nbase = {base}\nfiber = v1\n"
                     'exclude = "x1=0"\n\n[sode]\nf1 = -1/x1\n')
    assert doc.sode.excluded == (parse("x1"),)
    assert doc.connection.excluded == doc.sode.excluded


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
    a = sample_points(m4_model, 3, seed=7).tolist()
    b = sample_points(m4_model, 3, seed=7).tolist()
    assert a == b
    c = sample_points(m4_model, 3, seed=8).tolist()
    assert a != c


def test_sample_set_is_one_float_array(m4_model):
    # Disjoint intervals show which coordinate each column holds.
    box = {"x1": (10.0, 11.0), "x2": (20.0, 21.0), "u1": (30.0, 31.0),
           "u2": (40.0, 41.0)}
    pts = sample_points(m4_model, 5, box=box, seed=3)
    assert pts.dtype == np.float64 and pts.shape == (5, 4)
    for column, name in enumerate(m4_model.bundle.coords):
        lo, hi = box[name]
        assert ((lo <= pts[:, column]) & (pts[:, column] < hi)).all()


def test_sampling_errors(m4_model):
    with pytest.raises(ModelError):
        sample_points(m4_model, 0)
    with pytest.raises(ModelError):
        sample_points(m4_model, 3, box={"x1": (1.0, 1.0)})


def _scalar_sample(m, count, box=None, seed=0, margin=0.1):
    """The sampler as one draw per coordinate and one compiled predicate
    call per point: the reference the block sampler must reproduce, as a
    list of rows."""
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
        points.append(vals)
    return points


def _outcome(sample, *args, **kwargs):
    try:
        return sample(*args, **kwargs)
    except (EvalError, ModelError) as err:
        return type(err), str(err)


def _drawn_rows(*args, **kwargs):
    return sample_points(*args, **kwargs).tolist()


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
    assert got.tolist() == _scalar_sample(m, count, box=box, seed=11)
    assert got.dtype == np.float64 and got.shape == (count, len(m.bundle.coords))


def test_block_sampler_faults_where_scalar_stream_does():
    # ln(x1) faults at the first draw with x1 <= 0, but only if that draw
    # is reached before `count` points are taken.
    m = _excluding("ln(x1)")
    cases = [(count, seed) for count in (1, 2, 3) for seed in range(8)]
    outcomes = [_outcome(_drawn_rows, m, count, seed=seed)
                for count, seed in cases]
    assert outcomes == [_outcome(_scalar_sample, m, count, seed=seed)
                        for count, seed in cases]
    assert {type(o) for o in outcomes} == {list, tuple}


@pytest.mark.parametrize("predicate, count, seed, first", [
    # ln faults first at draw 2,153, before the 60th point is taken.
    ("u1^64*ln(x1 + 0.9995)", 60, 4, 2153),
    # The product overflows first at draw 2,724, and the 200th point taken
    # comes later, so that draw is kept: inf is not near zero.
    ("exp(355*x1)*exp(355*x1)*u1^64*1e-270", 200, 0, 2724),
])
def test_block_sampler_matches_scalar_stream_past_the_first_block(
        predicate, count, seed, first):
    m = _excluding(predicate)
    predicates = compile_vector(m.excluded, m.bundle.coords)
    rng = np.random.default_rng(seed)
    stream = rng.uniform(-1.0, 1.0, size=(first + 1, 2)).tolist()
    # No draw of the first block, of 2,048 rows, faults or is not finite.
    assert first >= 2048
    assert all(np.isfinite(predicates(row)).all() for row in stream[:first])
    got = _outcome(_drawn_rows, m, count, seed=seed)
    assert got == _outcome(_scalar_sample, m, count, seed=seed)
    try:
        value = predicates(stream[first])
    except EvalError:
        assert got[0] is EvalError
    else:
        assert not np.isfinite(value).all() and stream[first] in got
    for other in range(6):
        assert _outcome(_drawn_rows, m, count, seed=other) == \
            _outcome(_scalar_sample, m, count, seed=other)


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


def test_added_names_are_named_apart_from_the_chart():
    """A construction's names are stem0.., or take one more leading
    underscore for as long as any of them is taken."""
    assert model._fresh(("x1", "u1"), "z", 2) == ("z0", "z1")
    assert model._fresh(("z1", "y1"), "z", 2) == ("_z0", "_z1")
    assert model._fresh(("z0", "_z1"), "z", 2) == ("__z0", "__z1")
