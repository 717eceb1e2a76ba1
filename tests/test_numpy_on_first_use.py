"""numpy is imported where an array is built, not with the package.

Every in-process test runs with numpy already loaded, so these run in fresh
interpreters: importing the package and its CLI loads no numpy, the exact
commands run with numpy blocked, and the commands that do build arrays load
it on first use and still print their recorded outputs.  The references are
`tests/cli_golden.json` (byte for byte) and `perfbench/refs` (through the
benchmark's own check); both are only read here.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
BENCH_DIR = TESTS.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402

from test_cli_golden import COMMANDS, FIXTURE  # noqa: E402

# Runs each command of the JSON list on stdin through `cli.main` in a new
# temporary directory (see test_cli_golden._run), then prints the results and
# whether numpy got loaded.  With the argument "block", importing numpy fails.
CHILD = """
import json, os, sys, tempfile
from pathlib import Path
if sys.argv[1:] == ["block"]:
    sys.modules["numpy"] = None
from test_cli_golden import _run
results = {}
for cmd in json.load(sys.stdin):
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        results[cmd] = _run(cmd, Path(tmp))
print(json.dumps({"results": results, "numpy": sys.modules.get("numpy") is not None}))
"""


def _fresh(code: str, *args: str, stdin: str = "", flags: tuple[str, ...] = ()) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args], input=stdin, env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout


def _run_fresh(cmds: list[str], *args: str) -> dict:
    return json.loads(_fresh(CHILD, *args, stdin=json.dumps(cmds)))


def _ref(workload: str, cmd: str) -> str:
    return json.loads((BENCH_DIR / "refs" / f"{workload}.json").read_text())["outputs"][cmd]


def test_importing_the_cli_loads_no_numpy():
    code = "import sys, nrtbounds, nrtbounds.cli; print('numpy' in sys.modules)"
    assert _fresh(code).split() == ["False"]


def test_importing_the_cli_loads_no_dataclass_machinery():
    # -S: no site .pth file preloads what the package itself would load
    code = ("import sys, nrtbounds.cli; "
            "print([m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules])")
    assert _fresh(code, flags=("-S",)).split() == ["[]"]


POOL_EXACT = [
    ("lp-sweep", "lp --q 2 --r 2 --n 6 --d 4 --program I"),
    ("lp-sweep", "lp --q 2 --r 2 --n 6 --t 6 --program II"),
]


def test_exact_commands_run_with_numpy_blocked():
    cmds = COMMANDS + [cmd for _, cmd in POOL_EXACT]
    assert {"net", "verify-ooa", "macwilliams", "sphere", "lp"} == {
        shlex.split(c)[0] for c in cmds
    }
    assert any("--certificate" in c for c in cmds)
    got = _run_fresh(cmds, "block")
    golden = json.loads(FIXTURE.read_text())
    for cmd in COMMANDS:
        assert got["results"][cmd] == golden[cmd], cmd
    for workload, cmd in POOL_EXACT:
        result = got["results"][cmd]
        assert result["rc"] == 0, cmd
        assert check.mismatch(shlex.split(cmd), result["stdout"], _ref(workload, cmd)) is None


POOL_ARRAYS = [
    ("bounds-r2", "bounds --q 2 --r 2 --n 12 --d 10"),
    ("asym-grids", "asym --q 2 --r 3 --curve lp --grid 4"),
]


@pytest.mark.parametrize("workload,cmd", POOL_ARRAYS, ids=[cmd for _, cmd in POOL_ARRAYS])
def test_array_commands_load_numpy_on_first_use(workload, cmd):
    got = _run_fresh([cmd])
    result = got["results"][cmd]
    assert result["rc"] == 0
    assert check.mismatch(shlex.split(cmd), result["stdout"], _ref(workload, cmd)) is None
    assert got["numpy"]
