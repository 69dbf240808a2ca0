"""linconn benchmark: one workload as a closed loop with one client.

    python3 bench/run.py --workload symbolic --seed 1 --seconds 40 --trace 0

Run from the repository root (the program is imported from `src/`). Each
operation is one CLI invocation, `linconn.cli.run(argv)`, in a fresh worker
process (bench/worker.py); operations run one after another. A pass runs
every operation of the workload once; passes repeat while another one
still fits in `--seconds` (the first pass always runs). Every output goes
through the correctness gate (gate.py), and a repeated operation must
print the same bytes as its first run.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (layers.py), with trace.overhead_ratio =
traced wall_s / untraced wall_s.

A table goes to stdout first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The full result, with the
machine facts, the commit and the seed, is written to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import gate
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

REQUIRED = ("src/linconn/cli.py", "models", "schema/report.schema.json")

# A run must end within 180 s, so a hung operation is killed in time.
RUN_LIMIT_S = 170.0

END_TO_END = [
    ("wall_s", "s"), ("cpu_s", "s"), ("op_max_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    # One worker at a time and no extra threads on a 2-core machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Runs operations in fresh workers and gates their outputs."""

    def __init__(self, validator, deadline: float):
        self.validator = validator
        self.deadline = deadline
        self.env = _worker_env()
        self.first_stdout: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, op: workloads.Operation, trace: bool) -> dict:
        job = json.dumps({"argv": list(op.argv), "trace": trace})
        spawn = time.monotonic()
        with subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py")], cwd=ROOT,
                env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True) as proc:
            try:
                out, err = proc.communicate(
                    job, timeout=max(0.1, self.deadline - spawn))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                out, err = "", "worker killed at the run's time limit"
        self.attempted += 1
        try:
            rec = json.loads(out)
        except json.JSONDecodeError:
            rec = None
        if proc.returncode != 0 or rec is None:
            self._fail(op, [f"worker exit {proc.returncode}: "
                            f"{err.strip()[-500:]}"])
            return {"op": op.id, "ok": False}
        rec["op"] = op.id
        rec["setup"] = rec["ready"] - spawn
        issues = gate.problems(op, rec["exit"], rec["stdout"], rec["stderr"],
                               self.validator)
        first = self.first_stdout.setdefault(op.id, rec["stdout"])
        if rec["stdout"] != first:
            issues.append("stdout differs from the first run of this operation")
        rec["ok"] = not issues
        if issues:
            self._fail(op, issues)
        del rec["stdout"]
        return rec

    def _fail(self, op, issues):
        self.failed += 1
        self.problems.append(f"{op.id}: " + "; ".join(issues))
        print(f"FAILED {op.id}: " + "; ".join(issues), file=sys.stderr)


def end_to_end(passes: list[list[dict]]) -> dict[str, float]:
    """Per-operation medians over passes, combined over the workload."""
    by_op: dict[str, list[dict]] = {}
    for records in passes:
        for rec in records:
            if rec["ok"]:
                by_op.setdefault(rec["op"], []).append(rec)
    if not by_op:
        return {}
    wall = {op: statistics.median(r["wall"] for r in recs)
            for op, recs in by_op.items()}
    cpu = {op: statistics.median(r["cpu"] for r in recs)
           for op, recs in by_op.items()}
    rss = {op: statistics.median(r["maxrss_kb"] for r in recs)
           for op, recs in by_op.items()}
    setups = [r["setup"] for recs in by_op.values() for r in recs]
    return {
        "wall_s": sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "op_max_s": max(wall.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss.values()) / 1024.0,
    }


def per_layer(untraced: list[list[dict]], traced: list[list[dict]]
              ) -> tuple[dict[str, float], list[str], int]:
    """Median per-layer values over the traced passes whose operations, and
    those of the untraced pass before them, all passed the gate. Returns
    (values, absent metric names, passes used)."""
    per_pass = []
    absent: list[str] = []
    for u_records, t_records in zip(untraced, traced):
        if not all(r["ok"] for r in u_records + t_records):
            continue
        ratio = sum(r["wall"] for r in t_records) / \
            sum(r["wall"] for r in u_records)
        values, absent = layers.derive(t_records, ratio)
        per_pass.append(values)
    values = {name: statistics.median(p[name] for p in per_pass)
              if per_pass else 0.0 for name, *_ in layers.PER_LAYER}
    return values, absent, len(per_pass)


def machine_facts() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def code_identity() -> dict:
    """The commit when run in a git work tree, and always a digest of the
    program's source files (a checkout may not be a git repository)."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "linconn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:>16.6g} {unit:6s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from a linconn checkout; missing {missing}",
              file=sys.stderr)
        return 2

    validator = gate.make_validator(str(ROOT / "schema" / "report.schema.json"))
    WORK.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    runner = Runner(validator, start + RUN_LIMIT_S)
    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        ops = workloads.operations(args.workload, args.seed, "models",
                                   os.path.relpath(work, ROOT))
        while True:
            pass_start = time.monotonic()
            untraced.append([runner.run(op, False) for op in ops])
            if args.trace:
                traced.append([runner.run(op, True) for op in ops])
            now = time.monotonic()
            # Another pass only if one more, as long as the last, still
            # ends within --seconds: the run measures whole passes.
            if now - start + (now - pass_start) > args.seconds:
                break
    elapsed = time.monotonic() - start

    e2e = end_to_end(untraced)
    failed = runner.failed
    if not e2e:
        failed = max(failed, 1)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "elapsed_s": elapsed,
        "machine": machine_facts(), "code": code_identity(),
        "operations": [{"id": op.id, "argv": list(op.argv)} for op in ops],
        "passes": len(untraced), "attempted": runner.attempted,
        "failed": failed, "problems": runner.problems,
        "end_to_end": e2e,
        "per_operation": {
            op.id: {key: [rec[key] for records in untraced for rec in records
                          if rec["op"] == op.id and rec["ok"]]
                    for key in ("wall", "cpu", "setup", "maxrss_kb")}
            for op in ops},
    }
    if args.trace:
        layer_values, absent, traced_passes = per_layer(untraced, traced)
        if not traced_passes:
            failed = max(failed, 1)
        result["per_layer"] = layer_values
        result["absent"] = absent
        _table(f"{args.workload}: per-layer metrics, median of "
               f"{traced_passes} traced pass(es)",
               [(name, layer_values[name], unit,
                 "absent" if name in absent else "")
                for name, unit, *_ in layers.PER_LAYER])
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit, *_ in layers.PER_LAYER}
        _write_spans(args, traced)
    else:
        metrics = {name: {"value": e2e.get(name, 0.0), "unit": unit}
                   for name, unit in END_TO_END}
    attempted = max(runner.attempted, 1)
    _table(f"{args.workload}: end-to-end, {len(untraced)} untraced pass(es), "
           f"seed {args.seed}",
           [(name, e2e.get(name, 0.0), unit, "") for name, unit in END_TO_END]
           + [("failed_ratio", failed / attempted, "1",
               f"{failed}/{attempted} operations failed")])
    result["failed"] = failed
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _write_spans(args, traced: list[list[dict]]) -> None:
    """All spans of the traced passes, one JSON array per line:
    [pass, operation id, span id, name, start, end, parent id]."""
    path = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for index, records in enumerate(traced):
            for rec in records:
                for span in rec.get("spans", ()):
                    handle.write(json.dumps([index, rec["op"], *span]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
