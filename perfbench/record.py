"""Record the reference outputs the benchmark checks every op against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every invocation in each workload's pool once, at the current source
tree, and writes perfbench/refs/<workload>.json.  References are recorded
at a commit whose outputs are trusted and only re-recorded when an output
is meant to change.  Prints each op's seconds, which is how the slots in
workloads.py were balanced.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record(workload: str) -> None:
    cmds = workloads.pool(workload)
    ops = [(f"ref.{i}", cmd) for i, cmd in enumerate(cmds)]
    run.WORK_DIR.mkdir(exist_ok=True)
    result = run.run_pass(ops, run.worker_env(), trace=False, timeout=3600.0)
    outputs = {}
    for cmd, rec in zip(cmds, result["ops"]):
        print(f"{rec['seconds']:8.3f}  {cmd}")
        if rec["error"] or rec["rc"] != 0:
            raise SystemExit(f"{cmd}: {rec['error'] or 'exit code ' + str(rec['rc'])}")
        outputs[cmd] = rec["out"]
    run.REFS_DIR.mkdir(exist_ok=True)
    path = run.REFS_DIR / f"{workload}.json"
    payload = {"src_sha256": run.src_digest(), "outputs": outputs}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        record(name)
