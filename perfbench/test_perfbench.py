"""Self-tests of the benchmark: python -m pytest perfbench"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _refs(workload: str) -> dict[str, str]:
    return json.loads((run.REFS_DIR / f"{workload}.json").read_text())["outputs"]


def _first(workload: str, seed: int, passes: int = 4):
    return list(itertools.islice(workloads.draws(workload, seed), passes))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_fixes_ops_and_mix(workload):
    assert _first(workload, 7) == _first(workload, 7)
    mix = [[label for label, _ in ops] for ops in _first(workload, 7)]
    assert mix == [[label for label, _ in ops] for ops in _first(workload, 8)]
    assert _first(workload, 7) != _first(workload, 8)
    for ops in _first(workload, 7):
        cmds = [cmd for _, cmd in ops]
        assert len(set(cmds)) == len(cmds)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_pool_entry_has_a_reference(workload):
    assert set(workloads.pool(workload)) <= set(_refs(workload))


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _ref(workload: str, prefix: str) -> tuple[list[str], str]:
    cmd = next(c for c in workloads.pool(workload) if c.startswith(prefix))
    return cmd.split(), _refs(workload)[cmd]


def test_checker_accepts_reference_and_added_fields():
    argv, want = _ref("bounds-r2", "bounds")
    assert check.mismatch(argv, want, want) is None
    table = json.loads(want)
    table["bounds"][0]["certified"] = "1/1"
    table["stats"] = {}
    assert check.mismatch(argv, json.dumps(table), want) is None


def test_checker_rejects_perturbed_rational():
    argv, want = _ref("lp-sweep", "lp")
    payload = json.loads(want)
    num, den = payload["value"].split("/")
    payload["value"] = f"{int(num) + 1}/{den}"
    assert "value" in check.mismatch(argv, json.dumps(payload), want)


def test_checker_rejects_missing_field():
    argv, want = _ref("lp-sweep", "lp")
    payload = json.loads(want)
    del payload["floor"]
    assert "missing" in check.mismatch(argv, json.dumps(payload), want)


def test_checker_float_tolerance():
    argv, want = _ref("bounds-r2", "bounds")
    table = json.loads(want)
    r2 = next(b for b in table["bounds"] if b["name"] == "r2")
    exact = r2["value"]
    r2["value"] = exact * (1 + 1e-8)
    assert check.mismatch(argv, json.dumps(table), want) is None
    r2["value"] = exact * (1 + 1e-5)
    assert "r2" in check.mismatch(argv, json.dumps(table), want)


def test_checker_csv_tolerance():
    argv, want = _ref("asym-grids", "asym --q 2 --r 2 --curve lp2")
    lines = want.splitlines()
    cells = lines[1].split(",")
    rate = float(cells[1])
    for shift, ok in ((1e-11, True), (1e-7, False)):
        cells[1] = repr(rate + shift)
        got = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
        assert (check.mismatch(argv, got, want) is None) is ok
    assert check.mismatch(argv, "\n".join(lines[:-1]) + "\n", want) is not None


def _bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "nrtbounds" or name.startswith("nrtbounds.")
        for attr, value in vars(mod).items()
    }


def test_traced_run_restores_every_name():
    cli = importlib.import_module("nrtbounds.cli")
    krawtchouk = importlib.import_module("nrtbounds.krawtchouk")
    before = _bindings()
    tracer = tracing.Tracer()
    originals = tracing.install(tracer)
    try:
        assert ("nrtbounds.delsarte", "krawtchouk_table") in originals
        assert ("nrtbounds.scheme", "shapes_of_length") in originals
        assert ("nrtbounds.cli", "solve_code_lp") in originals
        assert krawtchouk.krawtchouk_table.cache_info() is not None
        with contextlib.redirect_stdout(io.StringIO()):
            rc = tracer.span(tracing.ROOT, cli.main)(
                ["lp", "--q", "2", "--r", "2", "--n", "2", "--d", "3", "--program", "I"]
            )
    finally:
        tracing.restore(originals)
    assert rc == 0
    assert _bindings() == before
    layers = tracing.layer_metrics(tracer, krawtchouk.krawtchouk_table)
    assert layers["simplex.simplex_solve.calls"] == 1
    assert layers["simplex.lp_cells"] > 0
    assert abs(sum(layers[f"share.{x}"] for x in tracing.LAYERS + ("cli",)) - 1) < 1e-9
