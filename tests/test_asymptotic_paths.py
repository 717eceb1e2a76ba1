"""Pinned asymptotic curves: the LP maximum `lambda_asym`, the depth-2
minimum `phi_r2_with_witness` and the `asym` CSV of both curves, as recorded
from the pure-Python grid scans that preceded the numpy row scans.

The fixture `asymptotic_paths.json` holds the values as floats; a value
must agree within 1e-12 absolute.  Witnesses are not pinned, since a flat
optimum may move them further than their values; instead every witness is
checked to be feasible and to attain its value.  Where the depth-2
constraint set is empty the result must be exactly (1.0, None).

Re-record (only from code known to give the pinned values):

    PYTHONPATH=src python tests/test_asymptotic_paths.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from nrtbounds.asymptotics import (
    _phi_feasible,
    _phi_objective,
    lambda_asym,
    lambda_expression,
    phi_r2_with_witness,
)
from nrtbounds.cli import main
from nrtbounds.space import delta_crit

FIXTURE = Path(__file__).with_name("asymptotic_paths.json")
TOL = 1e-12

QS = (2, 3, 4)
# tau = (q-1)/q ends the principal branch of the LP curve.
LAMBDA_CASES = [
    (q, r, tau)
    for q in QS
    for r in (1, 2, 3, 4)
    for tau in ((0.2, (q - 1) / q) if r == 4 else (0.05, 0.2, 0.45, (q - 1) / q, 1.0))
]
# The grid reaches delta_crit; for q = 2 the first two deltas lie below the
# feasibility threshold near 0.0335, for q = 3 and 4 the third does too.
PHI_CASES = [
    (q, float(delta_crit(q, 2)) * j / den)
    for q in QS
    for j, den in [(1, 64), (1, 32)] + [(j, 16) for j in range(1, 17)]
]
CSV_CASES = [(q, 2, "lp") for q in QS] + [(q, 3, "lp") for q in QS] + [(q, 2, "lp2") for q in QS]
GRID = 8


def _csv(q: int, r: int, curve: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["asym", "--q", str(q), "--r", str(r), "--curve", curve,
                     "--grid", str(GRID)]) == 0
    return out.getvalue()


def _csv_numbers(text: str) -> list[list[float]]:
    """delta, rate and, for lp, tau of each row."""
    rows = [line.split(",") for line in text.splitlines()[1:] if line]
    return [[float(x) for x in (row[0], row[1], row[5]) if x] for row in rows]


def record() -> dict:
    return {
        "lambda": {f"{q} {r} {tau!r}": lambda_asym(q, r, tau)[0] for q, r, tau in LAMBDA_CASES},
        "phi": {f"{q} {d!r}": phi_r2_with_witness(q, d)[0] for q, d in PHI_CASES},
        "csv": {f"{q} {r} {c}": _csv_numbers(_csv(q, r, c)) for q, r, c in CSV_CASES},
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert len(pinned["lambda"]) == len(LAMBDA_CASES)
    assert len(pinned["phi"]) == len(PHI_CASES)
    assert len(pinned["csv"]) == len(CSV_CASES)
    # every q has infeasible deltas, pinned at the vacuous value
    for q in QS:
        assert sum(v == 1.0 for k, v in pinned["phi"].items() if k.startswith(f"{q} ")) >= 2


@pytest.mark.parametrize("q,r,tau", LAMBDA_CASES)
def test_lambda_asym_pinned(pinned, q, r, tau):
    value, profile = lambda_asym(q, r, tau)
    assert value == pytest.approx(pinned["lambda"][f"{q} {r} {tau!r}"], abs=TOL)
    assert len(profile) == r and min(profile) >= 0
    assert sum(profile) == pytest.approx(tau, abs=TOL)
    assert lambda_expression(q, r, profile) == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize("q,delta", PHI_CASES)
def test_phi_r2_pinned(pinned, q, delta):
    want = pinned["phi"][f"{q} {delta!r}"]
    value, witness = phi_r2_with_witness(q, delta)
    if want == 1.0:  # no feasible point when recorded
        assert (value, witness) == (1.0, None)
        return
    assert value == pytest.approx(want, abs=TOL)
    t1, t2 = witness
    assert 0 <= t1 <= (q - 1) / q**2 and 0 <= t2 <= (q - 1) / q
    assert _phi_feasible(q, t1, t2, delta)
    assert _phi_objective(q, t1, t2) == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize("q,r,curve", CSV_CASES)
def test_asym_csv_pinned(pinned, q, r, curve):
    got = _csv_numbers(_csv(q, r, curve))
    want = pinned["csv"][f"{q} {r} {curve}"]
    assert len(got) == GRID
    for got_row, want_row in zip(got, want):
        assert got_row == pytest.approx(want_row, abs=TOL)


if __name__ == "__main__":
    data = record()
    FIXTURE.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(section)}: {{\n"
            + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in cases.items())
            + "\n}"
            for section, cases in data.items()
        )
        + "\n}\n"
    )
