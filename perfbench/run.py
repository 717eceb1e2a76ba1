"""nrtbounds benchmark: CLI workloads timed end to end, with a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the package is imported from ./src).
An untraced run first times several fresh interpreters importing
`nrtbounds.cli` (setup_s), then runs rounds until --seconds have passed (at least
MIN_ROUNDS).  A round is one pass: a fresh client interpreter runs one op
list drawn from the seed (see workloads.py), one op after another; this is
a closed loop with one client.  With --trace 1 each round also runs the
same op list again with spans around the library's functions.  Every op's
output is checked against perfbench/refs/.  Metrics are medians over the
rounds.  The end-to-end times are given at a fixed reference speed of the
machine: each is scaled by a calibration loop timed next to it (see
speed_factor).  The last line of stdout is one JSON object:
    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
REFS_DIR = BENCH_DIR / "refs"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 11
MIN_ROUNDS = 3
OP_TIMEOUT_S = 60.0
HARD_CAP_S = 150.0  # the whole run, set-up included, ends well inside 180 s
# About worker.calibrate()'s time on the machine the bounds were set on (2-vCPU
# Xeon VM, Python 3.11.7); only the scale of the reported times depends on it.
REFERENCE_CALIBRATION_S = 0.15

END_TO_END = {"setup_s": "s", "wall_s": "s", "max_op_s": "s", "peak_rss_mb": "MB"}
KINDS = ("lp_I", "lp_II", "asym_lp", "asym_lp2")  # per-kind time sums, as <kind>_s


def per_layer_units() -> dict[str, str]:
    units = {f"{kind}_s": "s" for kind in KINDS}
    units["trace_overhead_frac"] = "frac"
    units["failed_frac"] = "frac"
    for name in tracing.SELF_TIMES:
        units[f"{name}.s"] = "s"
    for name in tracing.CALLS:
        units[f"{name}.calls"] = "count"
    units["krawtchouk.krawtchouk_table.misses"] = "count"
    units["krawtchouk.krawtchouk_table.hit_ratio"] = "frac"
    units["simplex.lp_cells"] = "count"
    units["cli.self_s"] = "s"
    for layer in tracing.LAYERS + ("cli",):
        units[f"share.{layer}"] = "frac"
    return units


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def speed_factor(calibration_s: list[float]) -> float:
    """Scale that turns seconds measured next to these calibration times
    into seconds at the reference speed.

    On a shared VM the speed of a core swings by up to 2x over tens of
    seconds to minutes, for the program and the calibration alike; scaled
    times keep only what the program itself changes.
    """
    return REFERENCE_CALIBRATION_S / statistics.fmean(calibration_s)


def measure_setup(env: dict[str, str]) -> tuple[float, float]:
    """Median time a fresh interpreter takes to import nrtbounds.cli, at
    reference speed and as measured.

    Timed inside the child: a parent waiting with a timeout polls, which
    would add up to 50 ms to each sample.
    """
    code = ("import time; t = time.perf_counter(); import nrtbounds.cli; "
            "dt = time.perf_counter() - t; from worker import calibrate; "
            "print(dt, calibrate())")
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=60)
        seconds, calibration = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * speed_factor([calibration]))
    return statistics.median(scaled), statistics.median(raw)


def run_pass(ops, env, trace: bool, timeout: float, spans_path: Path | None = None) -> dict:
    """One client process over ops [(op id, command string)].

    A client that dies or overruns `timeout` fails every op it did not report.
    """
    job = {
        "ops": [[op_id, shlex.split(cmd)] for op_id, cmd in ops],
        "op_timeout_s": OP_TIMEOUT_S,
        "trace": trace,
        "spans_path": str(spans_path) if spans_path else None,
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(timeout, 1.0),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"client exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return json.loads(lines[-1])
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"pass failed: {exc}", file=sys.stderr)
        return {"ops": [{"id": op_id, "rc": None, "seconds": 0.0, "out": "",
                         "error": str(exc)} for op_id, _ in ops],
                "wall_s": None, "peak_rss_mb": None}


def grade(ops, result: dict, refs: dict[str, str]) -> int:
    """Number of failed ops in one pass; prints the reason for each."""
    failed = 0
    for (op_id, cmd), rec in zip(ops, result["ops"]):
        if rec["error"] or rec["rc"] != 0:
            reason = rec["error"] or f"exit code {rec['rc']}"
        else:
            reason = check.mismatch(shlex.split(cmd), rec["out"], refs[cmd])
        if reason:
            failed += 1
            print(f"FAILED {op_id} `{cmd}`: {reason}", file=sys.stderr)
    return failed


def kind_sums(ops, result: dict) -> dict[str, float]:
    sums = {f"{kind}_s": 0.0 for kind in KINDS}
    for (_, cmd), rec in zip(ops, result["ops"]):
        name = f"{workloads.op_kind(shlex.split(cmd))}_s"
        if name in sums:
            sums[name] += rec["seconds"]
    return sums


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nrtbounds").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.monotonic()
    refs = json.loads((REFS_DIR / f"{workload}.json").read_text())["outputs"]
    env = worker_env()
    WORK_DIR.mkdir(exist_ok=True)
    setup_s, raw_setup_s = (None, None) if trace else measure_setup(env)

    rounds = []  # (ops, untraced result, traced result or None)
    attempted = failed = 0
    draws = workloads.draws(workload, seed)
    loop_start, longest = time.monotonic(), 0.0
    while True:
        elapsed = time.monotonic() - loop_start
        if len(rounds) >= MIN_ROUNDS and elapsed + longest > seconds:
            break
        remaining = HARD_CAP_S - (time.monotonic() - t_start)
        if rounds and longest > remaining:
            break
        index = len(rounds)
        ops = [(f"{index}.{slot}", cmd) for slot, (_, cmd) in enumerate(next(draws))]
        t0 = time.monotonic()
        plain = run_pass(ops, env, trace=False, timeout=remaining)
        traced = None
        if trace:
            traced = run_pass(ops, env, trace=True, timeout=remaining - (time.monotonic() - t0),
                              spans_path=WORK_DIR / f"spans-{workload}.json")
        longest = max(longest, time.monotonic() - t0)
        for result in (plain, traced):
            if result is not None:
                attempted += len(ops)
                failed += grade(ops, result, refs)
        rounds.append((ops, plain, traced))
        if plain["wall_s"] is None or (traced is not None and traced["wall_s"] is None):
            break

    complete = [(ops, p, t) for ops, p, t in rounds
                if p["wall_s"] is not None and (t is None or t["wall_s"] is not None)]
    if not complete:
        raise RuntimeError("no client completed its op list")
    median = statistics.median
    if trace:
        sums = [kind_sums(ops, p) for ops, p, _ in complete]
        metrics = {name: median(s[name] for s in sums) for name in sums[0]}
        metrics["trace_overhead_frac"] = median(
            t["wall_s"] * speed_factor(t["calibration_s"])
            / (p["wall_s"] * speed_factor(p["calibration_s"])) - 1
            for _, p, t in complete)
        metrics["failed_frac"] = failed / attempted
        layers = [t["layers"] for _, _, t in complete]
        metrics.update({name: median(layer[name] for layer in layers) for name in layers[0]})
        units = per_layer_units()
    else:
        walls = [p["wall_s"] for _, p, _ in complete]
        max_ops = [max(op["seconds"] for op in p["ops"]) for _, p, _ in complete]
        factors = [speed_factor(p["calibration_s"]) for _, p, _ in complete]
        metrics = {
            "setup_s": setup_s,
            "wall_s": median(w * f for w, f in zip(walls, factors)),
            "max_op_s": median(m * f for m, f in zip(max_ops, factors)),
            "peak_rss_mb": median(p["peak_rss_mb"] for _, p, _ in complete),
        }
        units = END_TO_END
        measured = {"setup_s": raw_setup_s, "wall_s": median(walls),
                    "max_op_s": median(max_ops), "speed_factor": median(factors)}
    env_record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(rounds), "git_sha": git_sha(), "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": complete[0][1]["numpy"],
        "nproc": os.cpu_count(), "threads": {var: env[var] for var in THREAD_VARS},
    }
    if not trace:
        env_record["measured"] = measured  # the end-to-end times before scaling
    return {
        "env": env_record,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nrtbounds" / "cli.py").is_file():
        print(f"error: no nrtbounds sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    if not (REFS_DIR / f"{args.workload}.json").is_file():
        print(f"error: no reference outputs for {args.workload}", file=sys.stderr)
        return 2
    try:
        out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in out["result"]["metrics"].items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"env": out["env"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
