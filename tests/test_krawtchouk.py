import random
from fractions import Fraction
from math import factorial

import pytest

from nrtbounds.krawtchouk import (
    K_multi,
    gamma,
    k_root_mins,
    _k_values,
    _value_planes,
    k_uni,
    krawtchouk_table,
)
from nrtbounds.space import (
    SpaceParams,
    enumerate_shapes,
    reverse_blocks,
    shape_bar_of,
    shape_count,
)
from oracles import K_fourier_oracle, representative


def k_root_min(q, nu, s):
    """Smallest root of k_s(nu, .): `k_root_mins` of the one pair (nu, s)."""
    return k_root_mins(q, [(nu, s)])[0]


def weight_w(params, e):
    """Normalized valency w(e) = q^(-n r) v_e; a probability on shapes."""
    return Fraction(shape_count(params, e), params.ambient_size)


def inner_product(params, u1, u2):
    """<u1, u2> = sum_e u1(e) u2(e) w(e) over all shapes, exact.

    u1, u2 map shapes to rationals (dict or callable).
    """
    get1 = u1.__getitem__ if hasattr(u1, "__getitem__") else u1
    get2 = u2.__getitem__ if hasattr(u2, "__getitem__") else u2
    total = Fraction(0)
    for e in enumerate_shapes(params):
        total += Fraction(get1(e)) * Fraction(get2(e)) * weight_w(params, e)
    return total


def _falling_binom(a, m: int):
    """C(a, m) = a(a-1)...(a-m+1)/m! for any real or rational a."""
    num = 1
    for j in range(m):
        num = num * (a - j)
    return num / factorial(m) if isinstance(num, float) else Fraction(num, factorial(m))


def _k_uni_by_sum(q, nu, s, x):
    return sum(
        (-1) ** l * (q - 1) ** (s - l) * _falling_binom(x, l) * _falling_binom(nu - x, s - l)
        for l in range(s + 1)
    )


def test_falling_binom():
    assert _falling_binom(5, 2) == 10
    assert _falling_binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert _falling_binom(-1, 3) == -1
    assert _falling_binom(2, 0) == 1


def test_k_uni_matches_defining_sum():
    rng = random.Random(7)
    for _ in range(300):
        q = rng.choice([2, 3, 4, 5])
        s = rng.randint(0, 9)
        nu, x = rng.randint(-12, 30), rng.randint(-12, 30)
        got = k_uni(q, nu, s, x)
        assert type(got) is Fraction and got == _k_uni_by_sum(q, nu, s, x)
        nu, x = Fraction(nu, rng.randint(1, 7)), Fraction(x, rng.randint(1, 7))
        got = k_uni(q, nu, s, x)
        assert type(got) is Fraction and got == _k_uni_by_sum(q, nu, s, x)
        nu, x = rng.uniform(s, 3 * s + 8), rng.uniform(0, s + 1)
        got = k_uni(q, nu, s, x)
        assert type(got) is float
        assert got == pytest.approx(_k_uni_by_sum(q, nu, s, x), rel=1e-12, abs=0)


def test_k_uni_examples():
    assert k_uni(2, 3, 0, 1) == 1
    assert k_uni(5, Fraction(7, 2), 0, Fraction(1, 3)) == 1
    assert k_uni(2, 3, 1, 1) == 1  # (q-1) nu - q x
    assert k_uni(2, 3, 2, 1) == -1


def test_k_uni_degree_one_closed_form():
    for q in (2, 3, 5):
        for nu in (2, 5, Fraction(7, 2)):
            for x in (0, 1, Fraction(3, 4)):
                assert k_uni(q, nu, 1, x) == (q - 1) * nu - q * x


def test_recurrence_randomized():
    # k_s(nu, x) = k_s(nu - 1, x) + (q - 1) k_{s-1}(nu - 1, x), exactly
    def holds(q, nu, s, x):
        rhs = k_uni(q, nu - 1, s, x) + (q - 1) * k_uni(q, nu - 1, s - 1, x)
        return k_uni(q, nu, s, x) == rhs

    rng = random.Random(0)
    assert holds(2, 3, 2, 1)
    for _ in range(100):
        q = rng.choice([2, 3, 4])
        s = rng.randint(1, 5)
        nu = Fraction(rng.randint(-20, 40), rng.randint(1, 7))
        x = Fraction(rng.randint(-20, 40), rng.randint(1, 7))
        assert holds(q, nu, s, x)


def test_K_multi_examples():
    p = SpaceParams(2, 2, 2)
    assert K_multi(p, (1, 0), (0, 1)) == 0
    for f in enumerate_shapes(p):
        assert K_multi(p, f, (0, 0)) == shape_count(p, f)
    for e in enumerate_shapes(p):
        total = sum(K_multi(p, f, e) for f in enumerate_shapes(p))
        assert total == (16 if e == (0, 0) else 0)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (2, 5)])
def test_r1_reduction(q, n):
    p = SpaceParams(q, 1, n)
    for s in range(n + 1):
        for e1 in range(n + 1):
            assert K_multi(p, (s,), (e1,)) == k_uni(q, n, s, e1)


@pytest.mark.parametrize("q,r,n", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_reciprocity(q, r, n):
    p = SpaceParams(q, r, n)
    tbl = krawtchouk_table(p)
    for f in enumerate_shapes(p):
        for e in enumerate_shapes(p):
            assert shape_count(p, e) * tbl[(f, e)] == shape_count(p, f) * tbl[(e, f)]


def test_linear_K():
    # the degree-one polynomial at depth i is affine in the shape e:
    # q^(i-1) (q-1) (n - e_r - ... - e_(r-i+2)) - q^i e_(r-i+1)
    for q, r, n in [(2, 2, 2), (3, 2, 3), (2, 3, 3)]:
        tbl = krawtchouk_table(SpaceParams(q, r, n))
        for i in range(1, r + 1):
            Fi = tuple(1 if j == i - 1 else 0 for j in range(r))
            for e in tbl.shapes:
                want = q ** (i - 1) * (q - 1) * (n - sum(e[r - i + 1 :])) - q**i * e[r - i]
                assert tbl[(Fi, e)] == want


@pytest.mark.parametrize("q,r,n", [(2, 2, 2), (3, 2, 2), (2, 3, 2)])
def test_linear_norm(q, r, n):
    # squared norm of the degree-one polynomial at depth i is n(q-1)q^(i-1)
    p = SpaceParams(q, r, n)
    tbl = krawtchouk_table(p)
    for i in range(1, r + 1):
        Fi = tuple(1 if j == i - 1 else 0 for j in range(r))
        col = {e: tbl[(Fi, e)] for e in enumerate_shapes(p)}
        assert inner_product(p, col, col) == n * (q - 1) * q ** (i - 1)


def test_inner_product_basics():
    p = SpaceParams(2, 1, 2)
    ones = {e: Fraction(1) for e in enumerate_shapes(p)}
    assert inner_product(p, ones, ones) == 1
    x1 = {e: Fraction(e[0]) for e in enumerate_shapes(p)}
    assert inner_product(p, x1, ones) == 1  # n(q-1) q^(i-r-1) at i=r=1, n=2


@pytest.mark.parametrize("q,r,n", [(2, 1, 3), (2, 2, 2), (3, 2, 2)])
def test_moment_identities(q, r, n):
    # first and second moments of the coordinate functions under the shape law
    p = SpaceParams(q, r, n)
    ones = {e: Fraction(1) for e in enumerate_shapes(p)}
    for i in range(1, r + 1):
        xi = {e: Fraction(e[i - 1]) for e in enumerate_shapes(p)}
        assert inner_product(p, xi, ones) == Fraction(n * (q - 1), q ** (r + 1 - i))
        assert inner_product(p, xi, xi) == Fraction(n * (q - 1), q ** (r + 1 - i)) * (
            1 + Fraction((n - 1) * (q - 1), q ** (r + 1 - i))
        )
        for j in range(1, i):
            xj = {e: Fraction(e[j - 1]) for e in enumerate_shapes(p)}
            assert inner_product(p, xi, xj) == Fraction(
                n * (n - 1) * (q - 1) ** 2, q ** (2 * r + 2 - i - j)
            )


def test_orthogonality_small():
    p = SpaceParams(3, 2, 2)
    tbl = krawtchouk_table(p)
    shapes = list(enumerate_shapes(p))
    for f in shapes:
        for g in shapes:
            ip = inner_product(
                p, {e: tbl[(f, e)] for e in shapes}, {e: tbl[(g, e)] for e in shapes}
            )
            assert ip == (shape_count(p, f) if f == g else 0)


@pytest.mark.parametrize("q,r,n", [(2, 2, 6), (2, 3, 4), (3, 2, 4)])
def test_eigenmatrix_squares_to_ambient_size(q, r, n):
    # formal self-duality: T T = q^(nr) I for T[f][e] = K_f(e)
    p = SpaceParams(q, r, n)
    tbl = krawtchouk_table(p)
    shapes = list(enumerate_shapes(p))
    for f in shapes:
        for e in shapes:
            entry = sum(tbl[(f, g)] * tbl[(g, e)] for g in shapes)
            assert entry == (p.ambient_size if f == e else 0), (f, e)


@pytest.mark.parametrize("q,r,n", [(2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_eigenmatrix_transform(q, r, n):
    p = SpaceParams(q, r, n)
    T = krawtchouk_table(p)
    rng = random.Random(q * 100 + r * 10 + n)
    A = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for e in T.shapes}
    A[T.shapes[-1]] = Fraction(0)  # a zero entry contributes nothing
    c = Fraction(rng.randint(1, 50), rng.randint(1, 50))
    B = T.transform(A, c)
    for f in T.shapes:
        direct = sum((K_multi(p, f, e) * a for e, a in A.items()), Fraction(0)) / c
        assert B.get(f, 0) == direct
        assert f in B or direct == 0  # only the nonzero entries are kept
    assert all(type(b) is Fraction for b in B.values())
    # T T = q^(nr) I, so transforming twice multiplies by q^(nr)
    again = T.transform(T.transform(A, 1), 1)
    assert again == {e: p.ambient_size * a for e, a in A.items() if a}
    assert T.transform(A, 3) == {f: b * c / 3 for f, b in B.items()}  # an int divisor
    assert T.transform({}, 1) == {}


def test_canonical_representative():
    p = SpaceParams(2, 2, 3)
    for e in enumerate_shapes(p):
        v = reverse_blocks(p, representative(p, e))
        assert shape_bar_of(p, v) == e


def test_fourier_oracle_examples():
    p = SpaceParams(2, 2, 2)
    tbl = krawtchouk_table(p)
    zero = (0, 0)
    assert K_fourier_oracle(p, zero, (1, 1)) == 1
    for f in enumerate_shapes(p):
        assert K_fourier_oracle(p, f, zero) == shape_count(p, f)
        for e in enumerate_shapes(p):
            assert K_fourier_oracle(p, f, e) == tbl[(f, e)]


def test_fourier_oracle_alternate_representatives():
    # the character sum does not depend on which representative is used
    p = SpaceParams(3, 2, 2)
    tbl = krawtchouk_table(p)
    from nrtbounds.space import enumerate_vectors
    import cmath

    groups: dict = {}
    for z in enumerate_vectors(p):
        from nrtbounds.space import shape_of

        groups.setdefault(shape_of(p, z), []).append(z)
    omega = cmath.exp(2j * cmath.pi / 3)
    rng = random.Random(5)
    for e in enumerate_shapes(p):
        reps = [v for v in enumerate_vectors(p) if shape_bar_of(p, v) == e]
        x = rng.choice(reps)
        for f in enumerate_shapes(p):
            acc = sum(omega ** (sum(a * b for a, b in zip(x, z)) % 3) for z in groups.get(f, []))
            assert abs(acc.imag) < 1e-6
            assert round(acc.real) == tbl[(f, e)]


def test_fourier_budget():
    # 2^17 vectors exceed EXHAUSTIVE_CAP; the cap is checked before any is listed
    p = SpaceParams(2, 1, 17)
    from nrtbounds.space import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        K_fourier_oracle(p, (0,), (0,))


def test_root_min_examples():
    assert k_root_min(2, 4, 1) == pytest.approx(2.0, abs=1e-12)  # (q-1) nu / q
    root = k_root_min(2, 3, 2)
    assert root == pytest.approx((3 - 3**0.5) / 2, abs=1e-12)
    with pytest.raises(ValueError):
        k_root_min(2, 2, 3)


def test_root_interlacing_on_grid():
    # smallest root grows with nu and shrinks with degree
    for q in (2, 3):
        for nu in range(6, 10):
            for s in range(1, 4):
                assert k_root_min(q, nu - 1, s) < k_root_min(q, nu, s)
                assert k_root_min(q, nu, s + 1) < k_root_min(q, nu, s)


# smallest roots as located by the earlier grid scan with bisection
ROOTS_BY_BISECTION = [
    (2, 1.5, 1, 0.75),
    (2, 10.6, 1, 5.3),
    (2, 2.5, 2, 0.45943058495790523),
    (2, 13.6, 2, 4.956091108541422),
    (2, 3.5, 3, 0.2922620262886749),
    (2, 16.6, 3, 4.843122796511279),
    (2, 4.5, 4, 0.18743798946634976),
    (2, 19.6, 4, 4.820945136668627),
    (2, 5.5, 5, 0.11971983551714108),
    (2, 22.6, 5, 4.845004099624948),
    (2, 6.5, 6, 0.07567441519892537),
    (2, 25.6, 6, 4.895917527227198),
    (2, 7.5, 7, 0.04717485505951305),
    (2, 28.6, 7, 4.963746758226645),
    (2, 8.5, 8, 0.028954903242786934),
    (2, 31.6, 8, 5.042835489218977),
    (2, 9.5, 9, 0.01748974628072534),
    (2, 34.6, 9, 5.129721382316955),
    (2, 10.5, 10, 0.010400770876193028),
    (2, 37.6, 10, 5.222167424900714),
    (3, 1.5, 1, 1.0),
    (3, 10.6, 1, 7.066666666666666),
    (3, 2.5, 2, 0.7362373841740266),
    (3, 13.6, 2, 7.153575080342701),
    (3, 3.5, 3, 0.5587867819546277),
    (3, 16.6, 3, 7.40789382346831),
    (3, 4.5, 4, 0.4299144104064472),
    (3, 19.6, 4, 7.7254329049279065),
    (3, 5.5, 5, 0.33282161906421903),
    (3, 22.6, 5, 8.073352570154384),
    (3, 6.5, 6, 0.2582016662205281),
    (3, 25.6, 6, 8.437655741014911),
    (3, 7.5, 7, 0.2002220355025689),
    (3, 28.6, 7, 8.811360655608784),
    (3, 8.5, 8, 0.15492381640008873),
    (3, 31.6, 8, 9.190625092492137),
    (3, 9.5, 9, 0.11946701252235556),
    (3, 34.6, 9, 9.573187908996783),
    (3, 10.5, 10, 0.09173220385476333),
    (3, 37.6, 10, 9.957653084433591),
    (4, 1.5, 1, 1.125),
    (4, 10.6, 1, 7.949999999999999),
    (4, 2.5, 2, 0.8961310131443374),
    (4, 13.6, 2, 8.333677012475537),
    (4, 3.5, 3, 0.7305131597737484),
    (4, 16.6, 3, 8.84306474539088),
    (4, 4.5, 4, 0.6027358551904101),
    (4, 19.6, 4, 9.398259452269759),
    (4, 5.5, 5, 0.5007686884496467),
    (4, 22.6, 5, 9.974208611877472),
    (4, 6.5, 6, 0.4177285577652058),
    (4, 25.6, 6, 10.560417738798353),
    (4, 7.5, 7, 0.34921536008946275),
    (4, 28.6, 7, 11.151782876394059),
    (4, 8.5, 8, 0.29220081612328475),
    (4, 31.6, 8, 11.745586139692012),
    (4, 9.5, 9, 0.24448764781429455),
    (4, 34.6, 9, 12.340293247101993),
    (4, 10.5, 10, 0.20441702702705622),
    (4, 37.6, 10, 12.935005443596662),
]


@pytest.mark.parametrize("q,nu,s,root", ROOTS_BY_BISECTION)
def test_root_min_matches_bisection(q, nu, s, root):
    got = k_root_min(q, nu, s)
    assert got == pytest.approx(root, rel=1e-12, abs=0)
    assert k_uni(q, nu, s, got * (1 - 1e-9)) * k_uni(q, nu, s, got * (1 + 1e-9)) < 0


def jacobi_root(q: int, nu: float, s: int) -> float:
    """The smallest eigenvalue of one Jacobi matrix, built with np.diag and
    solved on its own: the form the stacked matrices replaced."""
    import numpy as np

    j = np.arange(s, dtype=float)
    jacobi = np.diag(((q - 1) * (nu - j) + j) / q)
    off = np.sqrt(j[1:] * (q - 1) * (nu - j[1:] + 1)) / q
    jacobi += np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(jacobi)[0])


def test_stacked_roots_match_one_pair_calls():
    # one stacked eigvalsh call per degree gives each matrix the bits of a
    # call of its own; the pairs come in mixed degree order
    pairs = [(s + 0.5 + 0.37 * k, s) for s in range(1, 12) for k in range(11)]
    random.Random(5).shuffle(pairs)
    for q in (2, 3, 4, 5, 2**40):
        want = [jacobi_root(q, nu, s).hex() for nu, s in pairs]
        assert [x.hex() for x in k_root_mins(q, pairs)] == want
        assert [k_root_min(q, nu, s).hex() for nu, s in pairs] == want
    assert k_root_mins(2, iter(pairs[:3])) == k_root_mins(2, pairs[:3])
    assert k_root_mins(2, []) == []
    for bad in ([(4, 1), (2, 3)], [(4, 0)]):
        with pytest.raises(ValueError):
            k_root_mins(2, bad)


def test_roots_past_the_float_range_raise_overflow():
    # (q - 1) nu on the Jacobi diagonal overflows to inf, which eigvalsh
    # would not solve: it fails to converge, or warns and returns garbage
    for q, nu in ((2**1018, 127), (2**1023, 3)):
        for s in (1, 2):
            with pytest.raises(OverflowError, match=f"degree {s} exceeds the float range"):
                k_root_mins(q, [(nu, s)])
    # within the range: k_2(3, .) / (q-1)^2 tends to C(3 - x, 2), roots 2 and 3
    assert k_root_min(2**1000, 3, 2) == pytest.approx(2.0, rel=1e-12)


def test_gamma():
    for q in (2, 3, 5):
        assert gamma(q, 0.0) == pytest.approx((q - 1) / q, abs=1e-15)
        assert gamma(q, (q - 1) / q) == pytest.approx(0.0, abs=1e-12)
    for y in (0.1, 0.25, 0.4):
        assert gamma(2, y) == pytest.approx(0.5 - (y * (1 - y)) ** 0.5, abs=1e-14)


def test_univariate_christoffel_darboux_exact():
    # q (x - y) sum_{s<=h} k_s(x) k_s(y) / k_s(0)
    #   = (h+1)/k_h(0) * (k_{h+1}(y) k_h(x) - k_{h+1}(x) k_h(y))
    rng = random.Random(3)
    for _ in range(100):
        q = rng.choice([2, 3])
        n = Fraction(rng.randint(6, 14))
        h = rng.randint(0, 5)
        x = Fraction(rng.randint(0, 28), rng.randint(1, 5))
        y = Fraction(rng.randint(0, 28), rng.randint(1, 5))
        k = lambda s, arg: k_uni(q, n, s, arg)
        k0 = lambda s: k_uni(q, n, s, 0)
        lhs = q * (x - y) * sum(k(s, x) * k(s, y) / k0(s) for s in range(h + 1))
        rhs = Fraction(h + 1, 1) / k0(h) * (k(h + 1, y) * k(h, x) - k(h + 1, x) * k(h, y))
        assert lhs == rhs


def test_weight_w_is_probability():
    p = SpaceParams(3, 2, 3)
    assert sum(weight_w(p, e) for e in enumerate_shapes(p)) == 1


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (5, 2), (2, 7)])
def test_value_cube_covers_negative_dimensions(q, n):
    cube = list(_value_planes(q, n, -n))
    assert len(cube) == 2 * n + 1
    for nu in range(-n, n + 1):
        for x in range(n + 1):
            for s in range(n + 1):
                value = cube[nu + n][x][s]
                assert type(value) is int and value == k_uni(q, nu, s, x), (nu, x, s)


@pytest.mark.parametrize("q,n", [(2, 60), (3, 20), (7, 12)])
def test_value_planes_match_one_recurrence_per_point(q, n):
    # the planes built each from the one before hold the ints of one degree
    # recurrence per (nu, x), and round to the same floats
    import numpy as np

    planes = list(_value_planes(q, n, -n))
    direct = [[list(_k_values(q, nu, n, x)) for x in range(n + 1)] for nu in range(-n, n + 1)]
    assert planes == direct
    floats, want = np.empty((2, n + 1, n + 1, n + 1))
    for nu, plane in enumerate(_value_planes(q, n, 0)):
        floats[n - nu] = plane
    for j, x in np.ndindex(n + 1, n + 1):
        want[j, x] = list(_k_values(q, n - j, n, x))
    assert np.array_equal(floats, want)


# the spaces the tests above read the table on, and three with n_i < 0
TABLE_SPACES = [
    (2, 1, 3), (3, 1, 2), (2, 1, 5), (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2),
    (2, 2, 6), (2, 3, 4), (3, 2, 4), (3, 4, 3), (2, 5, 3),
]


def _negative_dimensions(p):
    """The count of factors k_{f_i}(n_i, .) over all (f, e) with n_i < 0."""
    r, n = p.r, p.n
    shapes = list(enumerate_shapes(p))
    count = 0
    for f in shapes:
        for e in shapes:
            xs = (n - sum(e),) + e
            count += sum(sum(xs[: r - i + 2]) - sum(f[i:]) < 0 for i in range(1, r + 1))
    return count


@pytest.mark.parametrize("q,r,n", TABLE_SPACES)
def test_table_matches_K_multi(q, r, n):
    p = SpaceParams(q, r, n)
    T = krawtchouk_table(p)
    shapes = list(enumerate_shapes(p))
    assert list(T.shapes) == shapes
    assert T.index == {e: j for j, e in enumerate(shapes)}
    assert [len(row) for row in T.rows] == [len(shapes)] * len(shapes)
    for f, row in zip(shapes, T.rows):
        assert row[0] == shape_count(p, f)  # K_f(0) = v_f
        for e, value in zip(shapes, row):
            assert type(value) is int and value == K_multi(p, f, e) == T[f, e], (f, e)


@pytest.mark.parametrize(
    "q,r,n,count", [(2, 2, 6, 0), (2, 3, 2, 7), (2, 3, 4, 84), (3, 4, 3, 234), (2, 5, 3, 1088)]
)
def test_table_spaces_reach_negative_dimensions(q, r, n, count):
    # the value cube is indexed at nu + n; an index at nu would wrap around
    assert _negative_dimensions(SpaceParams(q, r, n)) == count


def test_table_spot_entries_n30():
    p = SpaceParams(2, 2, 30)
    T = krawtchouk_table.__wrapped__(p)  # uncached: 246k entries
    shapes = list(enumerate_shapes(p))
    assert list(T.shapes) == shapes
    assert [len(row) for row in T.rows] == [len(shapes)] * len(shapes)
    assert [row[0] for row in T.rows] == [shape_count(p, f) for f in shapes]
    rng = random.Random(30)
    picks = [(rng.choice(shapes), rng.choice(shapes)) for _ in range(300)]
    picks += [((0, 0), (0, 30)), ((30, 0), (0, 30)), ((0, 30), (30, 0)), ((15, 15), (15, 15))]
    for f, e in picks:
        value = T.rows[T.index[f]][T.index[e]]
        assert type(value) is int and value == T[f, e] == K_multi(p, f, e), (f, e)
