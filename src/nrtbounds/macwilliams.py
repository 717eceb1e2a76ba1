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

from collections import namedtuple
from fractions import Fraction

from .delsarte import format_rational
from .krawtchouk import krawtchouk_table
from .space import (
    ArrayTable,
    LinearCode,
    Shape,
    dual_code,
    enumerate_code,
    shape_bar_of,
    shape_key,
    shape_of,
)

RIGHT, LEFT = "right", "left"


class WeightEnumerator(namedtuple("WeightEnumerator", "params reading coeffs")):
    """Coefficients by shape, read "right" or "left"."""

    __slots__ = ()

    def total(self) -> Fraction:
        return sum(self.coeffs.values(), Fraction(0))

    def as_json_dict(self) -> dict:
        return {
            "params": self.params._asdict(),
            "reading": self.reading,
            "coeffs": {shape_key(e): format_rational(v) for e, v in sorted(self.coeffs.items())},
        }


def enumerator_of(obj: LinearCode | ArrayTable, reading: str = RIGHT) -> WeightEnumerator:
    """Count rows by shape (right reading) or by right-to-left shape (left
    reading)."""
    if reading not in (RIGHT, LEFT):
        raise ValueError(f"reading must be 'right' or 'left', got {reading!r}")
    table = enumerate_code(obj) if isinstance(obj, LinearCode) else obj
    shape_fn = shape_of if reading == RIGHT else shape_bar_of
    coeffs: dict[Shape, Fraction] = {}
    for row in table.rows:
        e = shape_fn(table.params, row)
        coeffs[e] = coeffs.get(e, Fraction(0)) + 1
    return WeightEnumerator(params=table.params, reading=reading, coeffs=coeffs)


def transform(enum: WeightEnumerator, codesize: int) -> WeightEnumerator:
    """MacWilliams transform: apply the eigenmatrix, B_f = sum_e A_e K_f(e)
    divided by the code size (`Eigenmatrix.transform`); flips the reading
    direction."""
    coeffs = krawtchouk_table(enum.params).transform(enum.coeffs, codesize)
    reading = LEFT if enum.reading == RIGHT else RIGHT
    return WeightEnumerator(params=enum.params, reading=reading, coeffs=coeffs)


def verify_duality(code: LinearCode) -> bool:
    """Exact check: the transform of the right-reading enumerator equals the
    left-reading enumerator of the exhaustively computed dual."""
    primal = enumerator_of(code, RIGHT)
    predicted = transform(primal, code.size)
    actual = enumerator_of(dual_code(code), LEFT)
    return predicted.coeffs == actual.coeffs
