"""Byte-level CLI output for the commands the benchmark pool does not run.

The other CLI tests parse the JSON, so a change of key order, indentation
or number formatting would pass them.  Here `main`'s stdout, and every file
the command writes, must equal the recorded bytes in `cli_golden.json`.
Each command runs in a temporary directory that holds the input files
below, so relative paths in the output are fixed.

Re-record (only from code known to keep every byte):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from nrtbounds.cli import main

FIXTURE = Path(__file__).with_name("cli_golden.json")

INPUTS = {
    "array.txt": "2 1 2\n0 0\n0 1\n1 0\n1 1\n",
    "gen.txt": "2 2 2\n1 0 0 1\n0 1 1 0\n",
}

COMMANDS = [
    "net --q 2 --t 0 --m 2 --s 2",
    "verify-ooa --file array.txt",
    "macwilliams --gen gen.txt",
    "sphere --q 2 --r 2 --n 2 --d 2",
    "lp --q 2 --r 1 --n 3 --t 2 --program II --certificate cert.json",
]


def _run(cmd: str, cwd: Path) -> dict:
    """Exit code, stdout and every file the command left in cwd."""
    for name, text in INPUTS.items():
        (cwd / name).write_text(text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(shlex.split(cmd))
    files = {
        f.name: f.read_text()
        for f in sorted(cwd.iterdir())
        if f.is_file() and f.name not in INPUTS
    }
    return {"rc": rc, "stdout": buf.getvalue(), "files": files}


@pytest.mark.parametrize("cmd", COMMANDS)
def test_cli_output_is_byte_identical(cmd, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(cmd, tmp_path) == json.loads(FIXTURE.read_text())[cmd]


if __name__ == "__main__":
    recorded = {}
    start = os.getcwd()
    for cmd in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                recorded[cmd] = _run(cmd, Path(tmp))
            finally:
                os.chdir(start)
    FIXTURE.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {len(recorded)} commands to {FIXTURE}", file=sys.stderr)
