"""Shape enumerators of linear codes and the NRT MacWilliams transform.

A shape enumerator is a polynomial in z_0, ..., z_r whose monomial for
shape e is z_0^(e_0) z_1^(e_1) ... z_r^(e_r); reading a code in the right
space counts codewords by left-to-right shape, reading in the left space by
right-to-left shape.  The transform applies the eigenmatrix of the ordered
Hamming scheme, the multivariate Krawtchouk values K_f(e), to the
right-reading enumerator A of a code and divides by the code size:

    B_f = (1/|C|) sum_e A_e K_f(e)

is the left-reading enumerator of its dual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .krawtchouk import krawtchouk_table
from .space import (
    ArrayTable,
    LinearCode,
    Shape,
    SpaceParams,
    dual_code,
    enumerate_code,
    shape_bar_of,
    shape_of,
)

RIGHT, LEFT = "right", "left"


@dataclass(frozen=True)
class WeightEnumerator:
    params: SpaceParams
    reading: str  # "right" | "left"
    coeffs: dict[Shape, Fraction]

    def total(self) -> Fraction:
        return sum(self.coeffs.values(), Fraction(0))


def _rows_of(obj: LinearCode | ArrayTable) -> ArrayTable:
    if isinstance(obj, LinearCode):
        return enumerate_code(obj)
    return obj


def enumerator_of(obj: LinearCode | ArrayTable, reading: str = RIGHT) -> WeightEnumerator:
    """Count rows by shape (right reading) or by right-to-left shape (left
    reading)."""
    if reading not in (RIGHT, LEFT):
        raise ValueError(f"reading must be 'right' or 'left', got {reading!r}")
    table = _rows_of(obj)
    shape_fn = shape_of if reading == RIGHT else shape_bar_of
    coeffs: dict[Shape, Fraction] = {}
    for row in table.rows:
        e = shape_fn(table.params, row)
        coeffs[e] = coeffs.get(e, Fraction(0)) + 1
    return WeightEnumerator(params=table.params, reading=reading, coeffs=coeffs)


def transform(enum: WeightEnumerator, codesize: int) -> WeightEnumerator:
    """MacWilliams transform: apply the eigenmatrix, B_f = sum_e A_e K_f(e)
    divided by the code size, in exact Fractions, with K_f(e) read from
    `krawtchouk_table` row by row; flips the reading direction."""
    params = enum.params
    T = krawtchouk_table(params)
    support = [(T.index[e], c) for e, c in enum.coeffs.items() if c]
    coeffs: dict[Shape, Fraction] = {}
    for f, row in zip(T.shapes, T.rows):
        value = Fraction(sum(c * row[j] for j, c in support), codesize)
        if value:
            coeffs[f] = value
    reading = LEFT if enum.reading == RIGHT else RIGHT
    return WeightEnumerator(params=params, reading=reading, coeffs=coeffs)


def verify_duality(code: LinearCode) -> bool:
    """Exact check: the transform of the right-reading enumerator equals the
    left-reading enumerator of the exhaustively computed dual."""
    primal = enumerator_of(code, RIGHT)
    predicted = transform(primal, code.size)
    actual = enumerator_of(dual_code(code), LEFT)
    return predicted.coeffs == actual.coeffs


# ---------------------------------------------------------------------------
# JSON serialization


def enumerator_to_json(enum: WeightEnumerator) -> str:
    p = enum.params
    payload = {
        "params": {"q": p.q, "r": p.r, "n": p.n},
        "reading": enum.reading,
        "coeffs": {
            ",".join(str(c) for c in e): str(v)
            for e, v in sorted(enum.coeffs.items())
        },
    }
    return json.dumps(payload, indent=2)


def enumerator_from_json(text: str) -> WeightEnumerator:
    payload = json.loads(text)
    p = payload["params"]
    params = SpaceParams(q=p["q"], r=p["r"], n=p["n"])
    coeffs = {
        tuple(int(c) for c in key.split(",")): Fraction(val)
        for key, val in payload["coeffs"].items()
    }
    return WeightEnumerator(params=params, reading=payload["reading"], coeffs=coeffs)
