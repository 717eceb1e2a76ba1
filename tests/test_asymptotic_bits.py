"""Full-bit pins of the asymptotic refinements: every bit of the LP maximum
`lambda_asym` (value and profile) and of the depth-2 minimum
`phi_r2_with_witness` (value and witness), over q = 2..5 and, for the
depth-2 minimum, at every delta the CLI evaluates on some grids.

`asymptotic_paths.json` pins the values within 1e-12, which leaves room
for a change of rounding; this fixture leaves none.  It holds `float.hex`
of every float, and a result must match it exactly.  A depth-2 case with
an empty constraint set is pinned as the value 1.0 with no witness.

Re-record (only from code known to give the pinned bits):

    PYTHONPATH=src python tests/test_asymptotic_bits.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from nrtbounds.asymptotics import lambda_asym, phi_r2_with_witness
from nrtbounds.space import delta_crit

FIXTURE = Path(__file__).with_name("asymptotic_bits.json")

QS = (2, 3, 4, 5)
LAMBDA_CASES = [
    (q, r, tau)
    for q in QS
    for r in (1, 2, 3, 4)
    for tau in ((0.2, (q - 1) / q) if r == 4 else (0.05, 0.2, 0.45, (q - 1) / q, 1.0))
]


def _cli_deltas(q: int, grid: int) -> list[float]:
    """The deltas of `asym --q <q> --r 2 --curve lp2 --grid <grid>`."""
    dc = float(delta_crit(q, 2))
    return [min(dc * j / grid, dc) for j in range(1, grid + 1)]


# For every q the smallest delta has an empty constraint set.  Then every
# delta of the three lp2 ops of perfbench's asym-grids pool (grid 14), of
# `--grid 50` at six q; the six fractions of delta_crit also at q = 6, 24
# and 55, where the last t2 grid point rounds above (q-1)/q.  A delta
# listed twice is pinned once.
PHI_CASES = list(
    dict.fromkeys(
        [
            (q, float(delta_crit(q, 2)) * j / den)
            for q in QS + (6, 24, 55)
            for j, den in [(1, 64), (1, 16), (1, 8), (3, 8), (5, 8), (1, 1)]
        ]
        + [(q, d) for q in (2, 3, 4) for d in _cli_deltas(q, 14)]
        + [(q, d) for q in (2, 3, 4, 5, 7, 16) for d in _cli_deltas(q, 50)]
    )
)


def _hex(x) -> object:
    """float.hex of a float, or of each float of a tuple; None stays None."""
    if x is None:
        return None
    if isinstance(x, tuple):
        return [_hex(v) for v in x]
    return float(x).hex()


def record() -> dict:
    return {
        "lambda": {f"{q} {r} {tau!r}": _hex(lambda_asym(q, r, tau)) for q, r, tau in LAMBDA_CASES},
        "phi": {f"{q} {d!r}": _hex(phi_r2_with_witness(q, d)) for q, d in PHI_CASES},
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert len(pinned["lambda"]) == len(LAMBDA_CASES)
    assert len(pinned["phi"]) == len(PHI_CASES)
    for q in QS:  # every q has an empty constraint set
        assert [(1.0).hex(), None] in [v for k, v in pinned["phi"].items() if k.startswith(f"{q} ")]


@pytest.mark.parametrize("q,r,tau", LAMBDA_CASES)
def test_lambda_asym_bits(pinned, q, r, tau):
    assert _hex(lambda_asym(q, r, tau)) == pinned["lambda"][f"{q} {r} {tau!r}"]


@pytest.mark.parametrize("q,delta", PHI_CASES)
def test_phi_r2_bits(pinned, q, delta):
    assert _hex(phi_r2_with_witness(q, delta)) == pinned["phi"][f"{q} {delta!r}"]


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
