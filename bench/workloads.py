"""Seeded inputs of the benchmark: the synthetic n = k model family and the
operation list of each workload.

Everything here is a pure function of the workload seed. The program under
test sees only the model files written by `write_synthetic` and the argv of
each operation; the seed never reaches it except as the CLI's own `--seed`
for its sample points.

The synthetic family keeps one fixed template per size: the seed draws only
the numeric constants. Tree shapes, and so the symbolic work of every
operation, are the same for every seed, which keeps run-to-run spread down
to machine noise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("symbolic", "sampling", "transport")

# Functions allowed in generated coefficients: each is total and finite on
# the default sampling box [-1, 1] for the constants drawn below.
TOTAL_FUNCTIONS = ("sin", "cos", "exp")

SYNTHETIC_SIZES = (2, 3, 4)

# Shipped models the sampling workload checks at many sample points.
SAMPLING_MODELS = ("m4", "quadratic", "geodesic_const", "potential_1d",
                   "affine_quadratic", "oscillator_pair", "jet_oscillator")
SAMPLING_SAMPLES = 20000


@dataclass(frozen=True)
class Operation:
    """One CLI invocation and what its output is checked against.

    `expect` holds the facts known from the model's construction (see
    `gate.py` for how each key is checked).
    """

    id: str
    argv: tuple[str, ...]
    kind: str                       # check | bianchi | transport | holonomy | flow | hj | sode
    expect: dict = field(default_factory=dict)


def _constants(rng: np.random.Generator, count: int) -> list[str]:
    """Distinct positive constants in [0.11, 0.99].

    Signs stay in the template, since the parser reads a negative literal
    as a negation node. Distinct magnitudes below 1 keep simplify from
    meeting a product or sum that folds to exactly 0 or 1, so the seed
    cannot change the shape of any derived tree.
    """
    mags = rng.choice(np.arange(11, 100), size=count, replace=False)
    return [f"{int(m) / 100:g}" for m in mags]


def synthetic_model_text(n: int, seed: int) -> str:
    """Model file of the synthetic vector family with n = k = `n`.

    Gamma[A,i] = a u_p u_q - b f(c x_r) u_s + d x_t^2, with the indices and
    the function f fixed by (A, i) and only a, b, c, d > 0 drawn from the
    seed.
    It is fiber-quadratic, so neither homogeneous nor (generically) flat.
    """
    k = n
    rng = np.random.default_rng([seed, n])
    consts = iter(_constants(rng, 4 * n * k))
    lines = [f"# Synthetic n = k = {n} vector model, seed {seed}.",
             "[bundle]",
             "kind = vector",
             "base = " + ", ".join(f"x{i + 1}" for i in range(n)),
             "fiber = " + ", ".join(f"u{A + 1}" for A in range(k)),
             "",
             "[connection]"]
    for A in range(k):
        for i in range(n):
            a, b, c, d = next(consts), next(consts), next(consts), next(consts)
            p, q, s = (A + i) % k, (A + 2 * i + 1) % k, (A + 1) % k
            r, t = (A + i) % n, (A + i + 1) % n
            fn = TOTAL_FUNCTIONS[(A + i) % len(TOTAL_FUNCTIONS)]
            lines.append(
                f"Gamma[{A + 1},{i + 1}] = {a}*u{p + 1}*u{q + 1} "
                f"- {b}*{fn}({c}*x{r + 1})*u{s + 1} + {d}*x{t + 1}^2")
    return "\n".join(lines) + "\n"


def write_synthetic(directory: str, seed: int) -> dict[int, str]:
    """Write the synthetic family into `directory`; returns size -> path."""
    paths = {}
    for n in SYNTHETIC_SIZES:
        path = os.path.join(directory, f"synthetic_n{n}.lc")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(synthetic_model_text(n, seed))
        paths[n] = path
    return paths


# Verdicts known from each model's construction; every other check report
# (axioms, bianchi, tension identities, affine structure, the cotangent
# cross-checks, linearizability) is theorem-level and must pass. A
# coefficient that is not affine in the fiber has a nonzero vertical
# curvature block, so it is not flat; one that is not of degree 1 in the
# fiber has nonzero tension, so it is not homogeneous. The affine and jet
# models run only the affine suite and carry no verdict.
_KNOWN_VERDICTS = {
    "synthetic": {"homogeneous": False, "flat": False},     # u_p u_q terms
    "m4": {"homogeneous": False, "flat": False},            # u2^2
    "quadratic": {"homogeneous": False, "flat": False},     # u1^2
    "potential_1d": {"homogeneous": False, "flat": False},  # x1/p1
    "geodesic_const": {"homogeneous": True, "flat": True},  # constant metric
    "oscillator_pair": {"homogeneous": True, "flat": True},  # linear forces
}


def _check_op(op_id: str, model_path: str, family: str, cli_seed: int,
              samples: int | None = None) -> Operation:
    argv = ["check", model_path, "--suite", "all", "--json",
            "--seed", str(cli_seed)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    return Operation(op_id, tuple(argv), "check",
                     {"verdicts": dict(_KNOWN_VERDICTS.get(family, {}))})


def operations(workload: str, seed: int, model_dir: str,
               work_dir: str) -> list[Operation]:
    """The operation list of one pass of `workload`.

    `model_dir` holds the shipped models; synthetic models are written into
    `work_dir`. The CLI's sample seed is derived from the workload seed.
    """
    rng = np.random.default_rng([seed, 7])
    cli_seed = int(rng.integers(0, 2**31 - 1))

    def shipped(name: str) -> str:
        return os.path.join(model_dir, f"{name}.lc")

    if workload == "symbolic":
        paths = write_synthetic(work_dir, seed)
        ops = []
        for n in SYNTHETIC_SIZES:
            if n < max(SYNTHETIC_SIZES):
                # The full suite at the largest size takes ~15 s; it runs
                # only through `bianchi`.
                ops.append(_check_op(f"check-n{n}", paths[n], "synthetic",
                                     cli_seed))
            ops.append(Operation(
                f"bianchi-n{n}",
                ("bianchi", paths[n], "--json", "--seed", str(cli_seed)),
                "bianchi"))
        return ops

    if workload == "sampling":
        ops = [_check_op(f"check-{name}", shipped(name), name, cli_seed,
                         SAMPLING_SAMPLES)
               for name in SAMPLING_MODELS]
        ops.append(Operation(
            "hj-geodesic_const",
            ("hj", shipped("geodesic_const"), "--json", "--seed",
             str(cli_seed), "--samples", str(SAMPLING_SAMPLES)),
            "hj"))
        ops.append(Operation(
            "sode-classify-oscillator_pair",
            ("sode", shipped("oscillator_pair"), "--classify", "--split",
             "1|2", "--json", "--seed", str(cli_seed), "--samples",
             str(SAMPLING_SAMPLES)),
            "sode"))
        return ops

    if workload == "transport":
        # Start points are drawn inside the region where every flow stays
        # away from the excluded locus and the FD oracle is valid. On
        # potential_1d, p1^2 + x1^2 is conserved, so from |x1| <= 0.3 and
        # p1 >= 0.9 the flow keeps p1 >= 0.5 up to t = 0.5.
        x1, x2 = (float(v) for v in rng.uniform(-0.5, 0.5, size=2))
        u1, u2 = (float(v) for v in rng.uniform(0.5, 1.0, size=2))
        m4_from = f"x1={x1:.3f},x2={x2:.3f},u1={u1:.3f},u2={u2:.3f}"
        px, pp = float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.9, 1.2))
        pot_from = f"x1={px:.3f},p1={pp:.3f}"
        common = ("--oracle", "--step", "1e-4", "--json")
        ops = [
            Operation("transport-m4-central",
                      ("transport", shipped("m4"), "--field", "1,x1",
                       "--from", m4_from, "--central", *common),
                      "transport", {"gap": 1e-8}),
            Operation("transport-m4-forward",
                      ("transport", shipped("m4"), "--field", "x2,1",
                       "--from", m4_from, *common),
                      "transport", {"gap": 1e-5}),
            Operation("transport-potential_1d-central",
                      ("transport", shipped("potential_1d"), "--field", "1",
                       "--from", pot_from, "--time", "0.5", "--central",
                       *common),
                      "transport", {"gap": 1e-8}),
        ]
        for eps in ("0.02", "0.01", "0.005"):
            ops.append(Operation(
                f"holonomy-m4-eps{eps}",
                ("transport", shipped("m4"), "--holonomy", "1,2", "--eps", eps,
                 "--from", m4_from, "--json"),
                "holonomy", {"eps": float(eps)}))
        ops.append(Operation(
            "sode-flow-oscillator_pair",
            ("sode", shipped("oscillator_pair"), "--flow", "1,0,0,1",
             "--time", "10", "--step", "1e-4", "--json"),
            "flow", {"time": 10.0}))
        return ops

    raise ValueError(f"unknown workload {workload!r}")
