"""Every invocation a benchmark workload can draw passes the benchmark's own
output check, run in-process through `cli.main`.

The benchmark grades each op against `perfbench/refs/<workload>.json` with
`perfbench/check.py`; this runs the same check in the tier-1 suite, so an
output change shows up here and not first as failed benchmark ops.  The
ops run from a temporary directory holding `perfbench/.work/`, since the
`lp --certificate` ops write there and print that relative path.
"""

from __future__ import annotations

import json
import shlex
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import workloads  # noqa: E402

from nrtbounds.cli import main  # noqa: E402

OPS = [(w, cmd) for w in workloads.WORKLOADS for cmd in workloads.pool(w)]


def _refs(workload: str) -> dict[str, str]:
    return json.loads((BENCH_DIR / "refs" / f"{workload}.json").read_text())["outputs"]


@pytest.mark.parametrize("workload,cmd", OPS, ids=[cmd for _, cmd in OPS])
def test_pool_op_matches_reference(workload, cmd, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "perfbench" / ".work").mkdir(parents=True)
    argv = shlex.split(cmd)
    assert main(argv) == 0
    assert check.mismatch(argv, capsys.readouterr().out, _refs(workload)[cmd]) is None
