"""Golden byte identity: the sha256 of the deterministic --json stdout of
fixed runs, pinned so that a change meant to make the program faster (or
smaller) cannot change a single byte of a report unnoticed.

The argv is echoed in the document, so the runs use relative paths from a
fixed working directory: the repository root for the shipped models, and
a temporary directory holding `synthetic_n3.lc` for the synthetic model.
A digest changes only with an intended change of the report; update it in
the same commit and say why.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from linconn.cli import run
from linconn.expr import parse
from linconn.model import load_model
from linconn.transport import _rk4

REPO = Path(__file__).resolve().parents[1]

# The vector-like shipped models (kind vector, tangent or cotangent): the
# ones both `check --suite all` and `bianchi` accept.
GOLDEN = {
    ("check", "flat"):
        "ca49ec4222c1ba18682786e930be7490148f34fb8ab3ff7c894d32da17cf5da0",
    ("bianchi", "flat"):
        "6e911e0039c6b4ec979468861a0f1dfcb9a6beb21593a9b29ea1127fc296d04c",
    ("check", "geodesic_const"):
        "f4f43417ce88022ff19f5a23210819eaebea9c6f794a778233168e84e539ea14",
    ("bianchi", "geodesic_const"):
        "628911aa3b0fc1fa916ae4321dd9d0fde25718c491a9d0e0dde44196253f4d37",
    ("check", "linear"):
        "18f671790fcd1e22c957215f86fcb4bd3d8da105003a1151276a609b1de5bd40",
    ("bianchi", "linear"):
        "965a9f1ed01defb84d1680a9698627808b86f38c827660ca1d1e584953b06697",
    ("check", "m4"):
        "286b9ddfb7dd5e27da467accd886c78a271ef02c5c33937fe5a5c7419d561216",
    ("bianchi", "m4"):
        "4253dbc570a0b793b188ed3ab072691b5f265f976bd1b120cc063661689bcc5f",
    ("check", "oscillator"):
        "d77c23d0148d9b7405d5443608b8fc4883067ed64a0956e6783ced596608812b",
    ("bianchi", "oscillator"):
        "6bf1208525aa85a2e33a4715363283b1363c65a0702f1ba1b0d8e36ef83f66f8",
    ("check", "oscillator_pair"):
        "92d82a79a1408ade178b197d9bf7593f5a0a9568a8f71e4a483745fecb3e8303",
    ("bianchi", "oscillator_pair"):
        "87d939fcc83b23bacf4b6d5817cb902e79e2ddf9c7bfa757405cfb96e7a8ad68",
    ("check", "potential_1d"):
        "8c631bbc40f30fa1d4256d82fc4f0656fedb978c604b971092c2db962c2dbf13",
    ("bianchi", "potential_1d"):
        "2cc6332fc2b4b19c6768e145499a2f5a2a5c3299bd962dc66cf4772850f5b985",
    ("check", "quadratic"):
        "f512722eb353f940973c545c5177e337a15865a18b184b25b7e762bfc3560bfd",
    ("bianchi", "quadratic"):
        "170c07a7c26138bb1c643249d7a0730fcc62c07f9704545c82f072c4c56227e2",
}

# The n = k = 3 model of the benchmark's synthetic family (seed 1).
SYNTHETIC_N3 = """\
# Synthetic n = k = 3 vector model, seed 1.
[bundle]
kind = vector
base = x1, x2, x3
fiber = u1, u2, u3

[connection]
Gamma[1,1] = 0.53*u1*u2 - 0.6*sin(0.96*x1)*u2 + 0.64*x2^2
Gamma[1,2] = 0.52*u2*u1 - 0.18*cos(0.67*x2)*u2 + 0.42*x3^2
Gamma[1,3] = 0.56*u3*u3 - 0.36*exp(0.41*x3)*u2 + 0.17*x1^2
Gamma[2,1] = 0.86*u2*u3 - 0.94*cos(0.7*x2)*u3 + 0.37*x3^2
Gamma[2,2] = 0.66*u3*u2 - 0.82*exp(0.57*x3)*u3 + 0.28*x1^2
Gamma[2,3] = 0.97*u1*u1 - 0.27*sin(0.77*x1)*u3 + 0.63*x2^2
Gamma[3,1] = 0.9*u3*u1 - 0.79*exp(0.44*x3)*u1 + 0.8*x1^2
Gamma[3,2] = 0.19*u1*u3 - 0.29*sin(0.65*x1)*u1 + 0.33*x2^2
Gamma[3,3] = 0.48*u2*u2 - 0.11*cos(0.72*x2)*u1 + 0.35*x3^2
"""

SYNTHETIC_N3_BIANCHI = \
    "b5923bfc03474468011bcf1d47d47ea2c57c7ad1f7ecd1830b2de993859fb492"

# The n = k = 2 and 4 models of the same family (seed 1).
SYNTHETIC_N2 = """\
# Synthetic n = k = 2 vector model, seed 1.
[bundle]
kind = vector
base = x1, x2
fiber = u1, u2

[connection]
Gamma[1,1] = 0.17*u1*u2 - 0.15*sin(0.19*x1)*u2 + 0.39*x2^2
Gamma[1,2] = 0.44*u2*u2 - 0.87*cos(0.88*x2)*u2 + 0.33*x1^2
Gamma[2,1] = 0.77*u2*u1 - 0.58*cos(0.89*x2)*u1 + 0.22*x1^2
Gamma[2,2] = 0.82*u1*u1 - 0.11*exp(0.79*x1)*u1 + 0.2*x2^2
"""

SYNTHETIC_N4 = """\
# Synthetic n = k = 4 vector model, seed 1.
[bundle]
kind = vector
base = x1, x2, x3, x4
fiber = u1, u2, u3, u4

[connection]
Gamma[1,1] = 0.83*u1*u2 - 0.69*sin(0.22*x1)*u2 + 0.9*x2^2
Gamma[1,2] = 0.42*u2*u4 - 0.98*cos(0.36*x2)*u2 + 0.92*x3^2
Gamma[1,3] = 0.12*u3*u2 - 0.24*exp(0.62*x3)*u2 + 0.34*x4^2
Gamma[1,4] = 0.8*u4*u4 - 0.3*sin(0.96*x4)*u2 + 0.63*x1^2
Gamma[2,1] = 0.2*u2*u3 - 0.5*cos(0.7*x2)*u3 + 0.86*x3^2
Gamma[2,2] = 0.72*u3*u1 - 0.94*exp(0.48*x3)*u3 + 0.35*x4^2
Gamma[2,3] = 0.84*u4*u3 - 0.55*sin(0.61*x4)*u3 + 0.68*x1^2
Gamma[2,4] = 0.27*u1*u1 - 0.26*cos(0.81*x1)*u3 + 0.99*x2^2
Gamma[3,1] = 0.74*u3*u4 - 0.21*exp(0.28*x3)*u4 + 0.59*x4^2
Gamma[3,2] = 0.31*u4*u2 - 0.85*sin(0.39*x4)*u4 + 0.79*x1^2
Gamma[3,3] = 0.75*u1*u4 - 0.41*cos(0.49*x1)*u4 + 0.17*x2^2
Gamma[3,4] = 0.44*u2*u2 - 0.71*exp(0.38*x2)*u4 + 0.58*x3^2
Gamma[4,1] = 0.95*u4*u1 - 0.46*sin(0.45*x4)*u1 + 0.77*x1^2
Gamma[4,2] = 0.91*u1*u3 - 0.16*cos(0.89*x1)*u1 + 0.15*x2^2
Gamma[4,3] = 0.4*u2*u1 - 0.43*exp(0.32*x2)*u1 + 0.19*x3^2
Gamma[4,4] = 0.47*u3*u3 - 0.56*sin(0.6*x3)*u1 + 0.11*x4^2
"""

# The benchmark's own kinds of synthetic operation: `check --suite all` on
# n = 2 and 3 and `bianchi` on n = 2 and 4 (n = 3 is pinned above).
SYNTHETIC_GOLDEN = {
    ("check", 2):
        "538c86ee245b29f65e839f008de0fd074d0fcd81fc55194ab25a4f859736f8cf",
    ("check", 3):
        "02da44e2cde51b5cfa1ed5e1cc8cce3c55a667701a216b573d9d4daceb1e6cfc",
    ("bianchi", 2):
        "4ec300a85d099f664a8f25a4bc6f63da939db4a317fb8d257a03c22eaf05c3d0",
    ("bianchi", 4):
        "bd41986fc7dc106035443acc488d8622702e7e544740cd1ac54bdb1127e2ec6e",
}

# The integrators: RK4 flows, the transport oracle, a holonomy probe and
# second-order flows, including an affine and a jet transport and a flow
# that stops at the excluded locus (`excluded:1.001`).
M4_FROM = "x1=0.3,x2=0.2,u1=1,u2=1"
INTEGRATOR_GOLDEN = {
    ("transport", "models/m4.lc", "--field", "x2,1", "--from", M4_FROM,
     "--oracle"):
        "9a52f761ace77228534cf0ae51269049daf7009c684b37ccd51b207c58d18cd7",
    ("transport", "models/linear.lc", "--field", "1", "--oracle",
     "--central", "--time", "-1"):
        "de8af38aa83612361b8bceb53fae71418ba5d05798d0daf42ad06d468cf5287a",
    ("transport", "models/affine_quadratic.lc", "--field", "1", "--fiber",
     "1,0.2", "--from", "x1=0.2,y1=0.3"):
        "5133e2df68652940bad2b565940c480f3096e57f7bd6bc23c3781b9d61e3399a",
    ("transport", "models/jet_oscillator.lc", "--field", "1,1", "--fiber",
     "1,0.5"):
        "5e0959b8d10e34731d91e6a939e7b7236ad822b4622a4f3f89acecfdffeec2a5",
    ("transport", "models/potential_1d.lc", "--field", "1", "--from",
     "x1=0,p1=1", "--time", "2"):
        "3b139dc3826d6b12a54c9d84da93fdf9c00f66963ff6106b98e1fac35d294501",
    ("transport", "models/m4.lc", "--holonomy", "1,2", "--eps", "0.01",
     "--from", M4_FROM):
        "fdcdb0743b270ce3ea5ff6cc996b5b7df6340d3c712bf0f5c752f897110454d2",
    # A coordinate started at -0.0 keeps its sign along a backward flow.
    ("transport", "models/m4.lc", "--field", "0,1", "--from",
     "x1=-0.0,x2=0.2,u1=1,u2=1", "--time", "-0.5"):
        "98d44d9dcd9c1a8afe818a94f7e930eadeffd60541afa362074c4c4de5f27e87",
    # A fiber slot started at -0.0 keeps its sign: it ends at (-0.0, 0.0).
    ("transport", "models/m4.lc", "--field=-1,0", "--from",
     "x1=0,x2=0,u1=-0,u2=0", "--time", "0.1", "--step", "0.01", "--fiber",
     "1,0"):
        "934e3399d893c98b447de70471a51d752770bbdacd0acf7a1c3c3b4ef124fd9c",
    # Velocity stage values that are zeros of both signs: the -0.0 start
    # state ends at (0.0, 0.0, 0.0, 0.0).
    ("sode", "models/oscillator_pair.lc", "--flow=-0,0,-0,0", "--time",
     "0.1", "--step", "0.1"):
        "80436eba81c02b577814d688d301337e301e1fca3eb8471124f61d3b97865e37",
    ("sode", "models/oscillator_pair.lc", "--flow", "1,0,0,1"):
        "a6a304f1fbaf76e6777ad5ec91472ee8dd19d8ca1d98a91c82ac1e70044c3792",
    ("sode", "models/jet_oscillator.lc", "--flow", "0,1,0", "--step",
     "1e-3"):
        "74ad53d73891533b8088f5d4f519e5ea91659d068b574b13454bc11fe96f1ea1",
}

# One-slot flows through the integrator core itself, the smallest state it
# steps, one per way a flow ends: (rhs, x0, T, step, excluded, box) ->
# (float.hex of the final x, steps, status).
RK4_GOLDEN = {
    ("x^2", 1.0, 0.5, 1e-3, (), None):
        ("0x1.ffffffffff926p+0", 500, "ok"),
    ("-x", -0.0, -1.0, 1e-2, (), None):
        ("-0x0.0p+0", 100, "ok"),
    ("x", 1.0, 0.3, 1e-3, ("x - 1.2",), None):
        ("0x1.3319ea72880c0p+0", 182, "excluded:0.183"),
    ("sin(x) + 1", 0.25, 2.0, 1e-3, (), (0.0, 1.5)):
        ("0x1.7fd4c81c5fb7ep+0", 741, "truncated:0.742"),
}

# Sampled reports of the other verbs and kinds: the affine and jet suites,
# `hj` and `sode --classify --split`, and 2,100-sample checks whose draw
# spans two 2,048-row sampler blocks (on `potential_1d`, rows near its
# excluded set p1 = 0 are rejected).
SAMPLED_GOLDEN = {
    ("check", "models/affine_quadratic.lc", "--suite", "all"):
        "a797e72ca660abed45a545d45027f174b7764bbeea8b84e96c528fb7a1f3cbd8",
    ("check", "models/jet_oscillator.lc", "--suite", "all"):
        "b71a1aa06afda55b85e21531af713871f6cd6a446f9813fdd98f1b00c568afae",
    ("hj", "models/geodesic_const.lc"):
        "564931a2f5b98ad2aa89d5e10e3dbe99313cb6421277475100d1a881a38c9b72",
    ("sode", "models/oscillator_pair.lc", "--classify", "--split", "1|2"):
        "9c22ca975c4eb65710a25096b394e9d1cc0f2f671890373c3818c026940bc3af",
    ("check", "models/m4.lc", "--suite", "all", "--samples", "2100"):
        "599b549d646fa2969fe72a6ade1a01bd88319e7b640da557eddf1872d0782602",
    ("check", "models/potential_1d.lc", "--suite", "all", "--samples",
     "2100"):
        "b2287d5b9f59cbc121b698f673d2b2839f30f8bf26edb18d8068e8582cd98a7b",
    ("hj", "--metric", "[[2,1],[1,1]]", "--integrals", "p1,p2", "--alpha",
     "0.3,0.7"):
        "25e5cc1d2267c94c3fe9c7abf2a9897b05782d9ba5a7b78e19e1769ae5b225de",
    ("hj", "models/potential_1d.lc", "--alpha", "sqrt(1 - x1^2)"):
        "68d6fc4ab4a555887fc8745699564d31eb06bc0538d30818ecaee0c511a6bc45",
    ("sode", "models/jet_oscillator.lc", "--homogenize"):
        "771c87ff5827723413c0ca68004a1f3df7e018d8ce0d712fbe67023cbf12bd81",
    ("sode", "models/oscillator.lc", "--classify", "--jacobi", "--at",
     "x1=0.3,v1=0.5"):
        "8c20e47c0e61d890aaf182e23cf80b330b0049bfb6e0caddeaf0352af5c02090",
}

# `tensor --name N` for every name the verb accepts, on every shipped model:
# one digest per model over the exit code and --json stdout of each run, in
# name order, so a name the model's kind rejects pins its exit code 2. The
# section builders get a basic section, `dh`, `dv` and `hamiltonian-field`
# a function (they run on cotangent models). The `--at` digest repeats the
# runs with every coordinate given.
TENSOR_NAMES = (
    "affine-coeffs-0", "affine-coeffs-lin", "curvature", "dh", "dv", "gamma",
    "hamiltonian-field", "hh-curvature", "hh-curvature-commutator",
    "homogenized-gamma", "integral-residual", "jacobi", "linear-coeffs",
    "pullback-coeffs", "tension", "torsion-form", "vh-curvature",
)
TENSOR_GOLDEN = {
    "affine_quadratic":
        "62fdc901df8042b99fc295a7fb52182131be60be261c09c26d95ae3e5dce7e6d",
    "flat":
        "3e29a0e34f43aff394b6ce22062ed251afbf48df1e12f77ff897e9ccc5903657",
    "geodesic_const":
        "ce709392111b566af6d7c557fe823362a2e168e45b4edc88755d5bac39141982",
    "jet_oscillator":
        "2398725bdecb1afee94a9eeba217abd3864a8023b880fc2b4d79c08c722ae5ba",
    "linear":
        "dda2ee8a8711f3d74218b570d1f179ea76760ca5376a035b028b0ad7f5345c3b",
    "m4":
        "dd1dfaebc95ea0de370ee15f319393505b8c851bfacb2ee32cf36e7f44f1b417",
    "oscillator":
        "080da15bab1cc697715fa29a6f23b4676a175cfaf95d8f8d2f7ed8ac378121b9",
    "oscillator_pair":
        "a53c8e2b52943e26d262fe439242f082adafbdccea9f1b7945aeddfe842a30be",
    "potential_1d":
        "480f2c728dd3a6eb2eb04bfc003884d8581d30b99a79bf3c333fa14802ea7a9d",
    "quadratic":
        "7a0d49991b8aa38c3addf7343054c2e3d21eae6fb2a5de29f3cb9110f87ce58a",
}
# On the affine and jet models, `homogenized-gamma --at` exits 2 with no
# output: its model has coordinates of its own, so `--at` does not apply
# (it was ignored, with exit 0). Every other run keeps its bytes.
TENSOR_AT_GOLDEN = {
    "affine_quadratic":
        "6a149eaab5026b8f3b76a46ac7758c85596cd99388927dab1116b349fd9e2887",
    "flat":
        "8db2257dca4cceb084b8bc988e04d9a1bff331b5e6ab5e050a76f593bfd3933f",
    "geodesic_const":
        "5e6483d04d7f276bb7fa3434f44a9ffce7a68e2602cf952d011edd182e6685a1",
    "jet_oscillator":
        "78a1f436f9232e715db21e03da65b24fd29bed69f601a1ab36ff79bd480b4253",
    "linear":
        "7fa706826277364b37a79e4cc813ef287db6b8514b44c32a20d64c08615e13f6",
    "m4":
        "c681e9969f0eac9dc326a6609f5390755a156df8d8d1029a933a77b9994e963d",
    "oscillator":
        "79b385a9e9767692d8986b3c564033e628b6a2da643e5f4804c3d8e90b3d8e04",
    "oscillator_pair":
        "3f9081f8b2d34f54b277a14a5fe7948de8fa2fd4ecefb1b4d433bfd5d6d1d41b",
    "potential_1d":
        "19a38a0ffc5bb5f687e582aec4216022033565b22262c930a3bdc06e72dd9cd0",
    "quadratic":
        "5583aaa78c400a9026312f3fa46dc9c0587e8e0decfa5d6352c6d8dd3937192a",
}

# The Jacobi endomorphism of both sode kinds, through the `sode` verb.
JACOBI_GOLDEN = {
    ("sode", "models/jet_oscillator.lc", "--jacobi", "--homogenize"):
        "2407d9fc88897ed2c6778c7220bf6a206f3ccd5b3aaa6b89aaf4f2325193f8b6",
    ("sode", "models/oscillator_pair.lc", "--jacobi"):
        "60cdc3b112ca7ffdb424f041c86665cffdd3fac7a76741e7826807a708ee1c4c",
}

ARGV = {
    "check": ("--suite", "all", "--json", "--samples", "50"),
    "bianchi": ("--json",),
}


def stdout_digest(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    assert code in (0, 1), err.getvalue()
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def tensor_runs_digest(model: str, at: bool) -> str:
    """sha256 over the exit code and --json stdout of `tensor --name N`
    for every name in TENSOR_NAMES on models/<model>.lc."""
    bundle = load_model((REPO / "models" / f"{model}.lc").read_text()).bundle
    base, fiber = bundle.base_coords, bundle.fiber_coords
    extra = {
        "--section": ",".join(f"{A + 2}*{base[A % len(base)]}^2 - 1"
                              for A in range(bundle.k)),
        "--function": f"{fiber[0]}^2*{base[0]} + sin({base[-1]})",
    }
    point = ",".join(f"{c}={v}" for c, v in zip(bundle.coords,
                                                 (0.3, 0.5, 0.7, 0.9)))
    digest = hashlib.sha256()
    for name in TENSOR_NAMES:
        argv = ["tensor", f"models/{model}.lc", "--name", name, "--json"]
        if name in ("integral-residual", "pullback-coeffs"):
            argv += ["--section", extra["--section"]]
        if name in ("dh", "dv", "hamiltonian-field"):
            argv += ["--function", extra["--function"]]
        if at:
            argv += ["--at", point]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = run(argv)
        digest.update(f"{code}\n{out.getvalue()}".encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("verb, model", sorted(GOLDEN),
                         ids=[f"{v}-{m}" for v, m in sorted(GOLDEN)])
def test_shipped_model_report_bytes(monkeypatch, verb, model):
    monkeypatch.chdir(REPO)
    digest = stdout_digest(verb, f"models/{model}.lc", *ARGV[verb])
    assert digest == GOLDEN[verb, model]


def test_synthetic_n3_bianchi_report_bytes(monkeypatch, tmp_path):
    (tmp_path / "synthetic_n3.lc").write_text(SYNTHETIC_N3)
    monkeypatch.chdir(tmp_path)
    digest = stdout_digest("bianchi", "synthetic_n3.lc", *ARGV["bianchi"])
    assert digest == SYNTHETIC_N3_BIANCHI


@pytest.mark.parametrize("verb, n", sorted(SYNTHETIC_GOLDEN),
                         ids=[f"{v}-n{n}" for v, n in
                              sorted(SYNTHETIC_GOLDEN)])
def test_synthetic_report_bytes(monkeypatch, tmp_path, verb, n):
    text = {2: SYNTHETIC_N2, 3: SYNTHETIC_N3, 4: SYNTHETIC_N4}[n]
    (tmp_path / f"synthetic_n{n}.lc").write_text(text)
    monkeypatch.chdir(tmp_path)
    digest = stdout_digest(verb, f"synthetic_n{n}.lc", *ARGV[verb])
    assert digest == SYNTHETIC_GOLDEN[verb, n]


@pytest.mark.parametrize("argv", sorted(INTEGRATOR_GOLDEN),
                         ids=[" ".join(a[:2] + a[2:4]) for a in
                              sorted(INTEGRATOR_GOLDEN)])
def test_integrator_report_bytes(monkeypatch, argv):
    monkeypatch.chdir(REPO)
    assert stdout_digest(*argv, "--json") == INTEGRATOR_GOLDEN[argv]


@pytest.mark.parametrize("argv", sorted(SAMPLED_GOLDEN),
                         ids=[" ".join(a) for a in sorted(SAMPLED_GOLDEN)])
def test_sampled_report_bytes(monkeypatch, argv):
    monkeypatch.chdir(REPO)
    assert stdout_digest(*argv, "--json") == SAMPLED_GOLDEN[argv]


@pytest.mark.parametrize("case", sorted(RK4_GOLDEN, key=repr),
                         ids=[c[0] for c in sorted(RK4_GOLDEN, key=repr)])
def test_one_slot_flow_bits(case):
    rhs, x0, T, step, excluded, box = case
    y, steps, status = _rk4(("x",), (parse(rhs),), (x0,), T, step,
                            tuple(parse(e) for e in excluded),
                            None if box is None else {"x": box})
    assert (y[0].hex(), steps, status) == RK4_GOLDEN[case]


@pytest.mark.parametrize("model", sorted(TENSOR_GOLDEN))
def test_tensor_report_bytes(monkeypatch, model):
    monkeypatch.chdir(REPO)
    assert tensor_runs_digest(model, at=False) == TENSOR_GOLDEN[model]


@pytest.mark.parametrize("model", sorted(TENSOR_AT_GOLDEN))
def test_tensor_at_report_bytes(monkeypatch, model):
    monkeypatch.chdir(REPO)
    assert tensor_runs_digest(model, at=True) == TENSOR_AT_GOLDEN[model]


@pytest.mark.parametrize("argv", sorted(JACOBI_GOLDEN),
                         ids=[" ".join(a[1:]) for a in sorted(JACOBI_GOLDEN)])
def test_jacobi_report_bytes(monkeypatch, argv):
    monkeypatch.chdir(REPO)
    assert stdout_digest(*argv, "--json") == JACOBI_GOLDEN[argv]
