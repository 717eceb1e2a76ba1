"""Benchmark client: one fresh interpreter that runs a list of CLI invocations.

Reads a job from stdin:
    {"ops": [[op id, [argv...]], ...], "op_timeout_s": float,
     "trace": bool, "spans_path": str | null}
calls `nrtbounds.cli.main(argv)` once per op, in order, with stdout
captured, and writes one JSON object to stdout: per op its exit code,
seconds, captured output and error; the pass's wall time; peak RSS; the
numpy version; the seconds of the speed calibration run just before and
just after the op list; and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time


CALIBRATION_ITERS = 900_000


class OpTimeout(Exception):
    pass


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop that calls nothing in nrtbounds.

    Its time moves only with the machine's speed, so it measures that speed
    next to the ops it brackets (see run.py).  It allocates nothing in the
    loop, so the objects a version of the package leaves alive do not change it.
    """
    table = {i: i * i for i in range(256)}
    t0 = time.perf_counter()
    acc, x = 0, 0.0
    for i in range(CALIBRATION_ITERS):
        acc = (acc * 31 + table[i & 255]) % 1_000_003
        x += (i % 7) * 0.5
    return time.perf_counter() - t0


def _on_alarm(signum, frame):
    raise OpTimeout()


def run(job: dict) -> dict:
    import numpy

    from nrtbounds import cli, krawtchouk

    tracer = originals = None
    main = cli.main
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        originals = tracing.install(tracer)
        main = tracer.span(tracing.ROOT, cli.main)
    signal.signal(signal.SIGALRM, _on_alarm)
    calibration = [calibrate()]
    ops = []
    start = time.perf_counter()
    try:
        for op_id, argv in job["ops"]:
            if tracer is not None:
                tracer.op = op_id
            buf = io.StringIO()
            rc, error = None, None
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, job["op_timeout_s"])
                with contextlib.redirect_stdout(buf):
                    rc = main(argv)
            except OpTimeout:
                error = f"timeout after {job['op_timeout_s']} s"
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - t0
            ops.append({"id": op_id, "rc": rc, "seconds": seconds, "out": buf.getvalue(),
                        "error": error})
        wall = time.perf_counter() - start
        calibration.append(calibrate())
    finally:
        if originals is not None:
            tracing.restore(originals)
    result = {
        "ops": ops,
        "wall_s": wall,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, krawtchouk.krawtchouk_table)
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
    return result


if __name__ == "__main__":
    out = sys.stdout
    json.dump(run(json.load(sys.stdin)), out)
    out.write("\n")
