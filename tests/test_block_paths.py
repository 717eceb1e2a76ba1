"""Pinned three-term blocks: the exact output of `build_blocks` and the
float operator the spectral iteration reads, at every degree of six small
spaces, as recorded from the implementation that preceded the generator of
nonzero intersection numbers.

The spectral bound floors the end of a float eigenvalue enclosure, so one
ulp in an operator entry can move a reported floor.  The fixture
`block_paths.json` therefore holds the raw blocks a, b, c as exact `p/q`
strings (an entry that is not a Fraction would not match) and, bit for bit
as `float.hex`, the orthonormal blocks A, B, C of degree kappa: the slices
of `build_operator(params, kappa + 1)` (of S_n at kappa = n) whose rows are
the shapes of length kappa and whose columns are those of length kappa + 1,
kappa and kappa - 1.

Re-record (only from code known to keep every entry):

    PYTHONPATH=src python tests/test_block_paths.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from nrtbounds.scheme import build_blocks, build_operator
from nrtbounds.space import SpaceParams

FIXTURE = Path(__file__).with_name("block_paths.json")

SPACES = [(2, 2, 5), (3, 2, 4), (2, 3, 4), (3, 3, 3), (2, 4, 3), (5, 2, 3)]


def _space_name(q, r, n) -> str:
    return f"q{q} r{r} n{n}"


def _rational(x) -> str:
    return f"{x.numerator}/{x.denominator}" if type(x) is Fraction else repr(x)


def _shapes(shapes) -> list[str]:
    return [",".join(map(str, e)) for e in shapes]


def encode(blk, S, start: int) -> dict:
    """The exact blocks and the slices of the operator S whose rows are the
    block's rows, which sit at S[start:start + len(blk.rows)]."""
    out = {
        "rows": _shapes(blk.rows),
        "cols_up": _shapes(blk.cols_up),
        "cols_down": _shapes(blk.cols_down),
    }
    for name in ("a", "b", "c"):
        out[name] = [[_rational(x) for x in row] for row in getattr(blk, name)]
    stop = start + len(blk.rows)
    ortho = {
        "A": S[start:stop, stop : stop + len(blk.cols_up)],
        "B": S[start:stop, start:stop],
        "C": S[start:stop, start - len(blk.cols_down) : start],
    }
    for name, block in ortho.items():
        out[name] = [[float.hex(x) for x in row] for row in block.tolist()]
    return out


def cases(space):
    """(key, encoded blocks) for every degree of the space."""
    params = SpaceParams(*space)
    start = 0
    for kappa in range(params.n + 1):
        blk = build_blocks(params, kappa)
        S = build_operator(params, min(kappa + 1, params.n))
        yield f"{_space_name(*space)} k{kappa}", encode(blk, S, start)
        start += len(blk.rows)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_degree(pinned):
    assert len(pinned) == sum(n + 1 for _, _, n in SPACES)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: _space_name(*s))
def test_blocks_pinned(pinned, space):
    for key, blocks in cases(space):
        assert blocks == pinned[key], key


def dump(data: dict) -> str:
    """The fixture as JSON with one line per (space, degree)."""
    lines = ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(data.items())
    )
    return "{\n" + lines + "\n}\n"


if __name__ == "__main__":
    FIXTURE.write_text(dump({k: v for s in SPACES for k, v in cases(s)}))
