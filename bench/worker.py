"""One benchmark operation in a fresh process.

Run as `python3 bench/worker.py` with PYTHONPATH pointing at the program's
`src/`. It imports `linconn.cli`, notes the monotonic time at which it is
ready, reads one job as JSON from stdin ({"argv": [...], "trace": bool}),
runs `cli.run(argv)` with stdout and stderr captured, and writes one JSON
record to its stdout. A fresh process per operation gives every operation
the cold caches (such as the process-global `expr._diff_cache`) that a
user of the CLI gets on every invocation.

The tracer is imported only for a traced job.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import linconn.cli as cli

READY = time.monotonic()


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(job["argv"])
        except Exception:
            # What the interpreter would print for an uncaught exception.
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    record = {
        "ready": READY,
        "wall": wall,
        "cpu": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    if tracer is not None:
        tracer.uninstall()
        record["spans"] = tracer.spans
        record["calls"] = dict(tracer.calls)
        record["counters"] = dict(tracer.counters)
        record["traced"] = tracer.traced
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
