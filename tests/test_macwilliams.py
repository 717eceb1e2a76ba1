import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrtbounds.krawtchouk import krawtchouk_table
from nrtbounds.macwilliams import (
    LEFT,
    RIGHT,
    WeightEnumerator,
    enumerator_of,
    transform,
)
from nrtbounds.space import (
    LinearCode,
    SpaceParams,
    dual_code,
    enumerate_shapes,
    row_reduce_mod,
    shape_count,
)


def verify_duality(code):
    """Exact check: the transform of the right-reading enumerator equals the
    left-reading enumerator of the exhaustively computed dual."""
    primal = enumerator_of(code, RIGHT)
    predicted = transform(primal, code.size)
    actual = enumerator_of(dual_code(code), LEFT)
    return predicted.coeffs == actual.coeffs


def random_code(params, rng):
    while True:
        k = rng.randint(1, params.dim)
        rows = [[rng.randrange(params.q) for _ in range(params.dim)] for _ in range(k)]
        reduced = row_reduce_mod(rows, params.q)
        if reduced:
            return LinearCode(
                params=params, generators=tuple(tuple(r) for r in reduced)
            )


def test_enumerator_of_trivial_code():
    p = SpaceParams(2, 2, 2)
    C = LinearCode(params=p, generators=())
    en = enumerator_of(C)
    assert en.coeffs == {(0, 0): Fraction(1)}


def test_enumerator_repetition_code():
    p = SpaceParams(2, 2, 1)
    C = LinearCode(params=p, generators=((1, 1),))
    en = enumerator_of(C, RIGHT)
    assert en.coeffs == {(0, 0): Fraction(1), (0, 1): Fraction(1)}
    assert en.total() == C.size


def test_transform_self_dual_example():
    p = SpaceParams(2, 2, 1)
    en = WeightEnumerator(
        params=p, reading=RIGHT, coeffs={(0, 0): Fraction(1), (0, 1): Fraction(1)}
    )
    out = transform(en, 2)
    assert out.reading == LEFT
    assert out.coeffs == en.coeffs


def test_transform_of_whole_space_is_zero_indicator():
    p = SpaceParams(3, 2, 2)
    full = WeightEnumerator(
        params=p,
        reading=RIGHT,
        coeffs={e: Fraction(shape_count(p, e)) for e in enumerate_shapes(p)},
    )
    out = transform(full, p.ambient_size)
    assert out.coeffs == {(0, 0): Fraction(1)}


def test_transform_of_int_coefficients_is_exact():
    p = SpaceParams(3, 3, 2)
    ints = WeightEnumerator(params=p, reading=RIGHT, coeffs={(0, 0, 0): 1, (1, 0, 1): 2})
    out = transform(ints, 4)
    assert all(type(v) is Fraction for v in out.coeffs.values())
    assert any(v.denominator != 1 for v in out.coeffs.values())
    fracs = {e: Fraction(c) for e, c in ints.coeffs.items()}
    assert out.coeffs == transform(WeightEnumerator(p, RIGHT, fracs), 4).coeffs


def test_double_transform_is_identity():
    p = SpaceParams(2, 2, 2)
    rng = random.Random(4)
    for _ in range(5):
        C = random_code(p, rng)
        en = enumerator_of(C, RIGHT)
        dual_size = p.ambient_size // C.size
        back = transform(transform(en, C.size), dual_size)
        assert back.coeffs == en.coeffs


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 1, 5), (2, 2, 3), (3, 2, 2), (2, 3, 3), (3, 3, 2), (5, 2, 2)]),
    st.integers(0, 2**32),
)
def test_double_transform_is_identity_property(space, seed):
    # T T = q^(nr) I: the transform with codesize |C|, then with the dual's
    # size q^(nr)/|C|, returns the original enumerator
    p = SpaceParams(*space)
    C = random_code(p, random.Random(seed))
    en = enumerator_of(C, RIGHT)
    back = transform(transform(en, C.size), p.ambient_size // C.size)
    assert back.coeffs == en.coeffs


def test_verify_duality_examples():
    p = SpaceParams(2, 2, 1)
    assert verify_duality(LinearCode(params=p, generators=((1, 1),)))
    assert verify_duality(LinearCode(params=p, generators=()))


DUALITY_SPACES = [
    (2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3),
    (2, 1, 6), (2, 3, 3), (3, 3, 2), (2, 4, 3),
]


@pytest.mark.parametrize(
    "q,r,n",
    DUALITY_SPACES,
    # the r = 2 cases keep their ids and seeds from before r was a parameter
    ids=[f"{q}-{n}" if r == 2 else f"{q}-{n}-r{r}" for q, r, n in DUALITY_SPACES],
)
def test_duality_on_random_codes(q, r, n):
    p = SpaceParams(q, r, n)
    rng = random.Random(1000 * (r - 2) + q * 10 + n)
    for _ in range(15):
        assert verify_duality(random_code(p, rng))


def test_transform_linearity_and_integrality():
    p = SpaceParams(3, 2, 2)
    rng = random.Random(21)
    for _ in range(5):
        C = random_code(p, rng)
        out = transform(enumerator_of(C, RIGHT), C.size)
        for value in out.coeffs.values():
            assert value.denominator == 1
            assert value >= 0


def test_fourier_tie_to_eigenvalues():
    # right-reading enumerator of the dual at f equals the eigenvalue
    # transform of the left-reading primal enumerator
    rng = random.Random(8)
    for q, n in [(2, 2), (3, 2)]:
        p = SpaceParams(q, 2, n)
        tbl = krawtchouk_table(p)
        for _ in range(6):
            C = random_code(p, rng)
            left_primal = enumerator_of(C, LEFT)
            dual_right = enumerator_of(dual_code(C), RIGHT)
            for f in enumerate_shapes(p):
                predicted = (
                    sum(
                        coeff * tbl[(f, e)]
                        for e, coeff in left_primal.coeffs.items()
                    )
                    / C.size
                )
                assert predicted == dual_right.coeffs.get(f, 0)


def test_transform_reads_the_table_only(monkeypatch):
    # the transform and the table it reads never call the K_multi oracle
    import nrtbounds.krawtchouk as krawtchouk_mod

    def unused(*args):
        raise AssertionError("K_multi called")

    monkeypatch.setattr(krawtchouk_mod, "K_multi", unused)
    krawtchouk_table.cache_clear()
    rng = random.Random(9)
    for space in DUALITY_SPACES:
        p = SpaceParams(*space)
        for _ in range(4):
            C = random_code(p, rng)
            assert verify_duality(C)
            en = enumerator_of(C, RIGHT)
            back = transform(transform(en, C.size), p.ambient_size // C.size)
            assert back.coeffs == en.coeffs
