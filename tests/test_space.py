import itertools
from fractions import Fraction
from math import comb

import pytest

from nrtbounds.space import (
    ArrayTable,
    BudgetExceeded,
    LinearCode,
    SpaceParams,
    ball_size,
    check_depth,
    check_distance,
    check_strength,
    check_weight,
    delta_crit,
    dual_code,
    enumerate_code,
    enumerate_shapes,
    enumerate_vectors,
    net_to_ooa,
    ooa_strength,
    ooa_to_net,
    ordered_distance,
    ordered_weight,
    parse_array_text,
    reverse_blocks,
    shape_bar_of,
    shape_count,
    shape_counts,
    shape_of,
    shapes_of_length,
    sphere_size,
    weight_distribution,
)
from oracles import representative


def test_shape_of_examples():
    p = SpaceParams(2, 2, 2)
    assert shape_of(p, (0, 0, 0, 0)) == (0, 0)
    assert shape_of(p, (1, 0, 0, 1)) == (1, 1)
    p1 = SpaceParams(2, 2, 1)
    assert shape_of(p1, (1, 1)) == (0, 1)


def test_shape_bar_examples():
    p1 = SpaceParams(2, 2, 1)
    assert shape_bar_of(p1, (1, 0)) == (0, 1)
    assert shape_bar_of(p1, (0, 1)) == (1, 0)
    p = SpaceParams(3, 3, 2)
    assert shape_bar_of(p, (0,) * 6) == (0, 0, 0)


@pytest.mark.parametrize("q,r,n", [(2, 2, 2), (3, 2, 1), (2, 3, 1)])
def test_shape_bar_is_shape_of_reversed_blocks(q, r, n):
    p = SpaceParams(q, r, n)
    for v in enumerate_vectors(p):
        reversed_blocks = tuple(
            s for i in range(n) for s in v[i * r : (i + 1) * r][::-1]
        )
        assert reverse_blocks(p, v) == reversed_blocks
        assert reverse_blocks(p, reversed_blocks) == v
        assert shape_bar_of(p, v) == shape_of(p, reversed_blocks)
    with pytest.raises(ValueError, match="vector length"):
        reverse_blocks(p, (0,) * (r * n + 1))


@pytest.mark.parametrize("q,r,n", [(2, 2, 3), (3, 3, 2), (2, 4, 2), (2, 1, 4)])
def test_representative_has_its_shape(q, r, n):
    p = SpaceParams(q, r, n)
    for e in enumerate_shapes(p):
        v = representative(p, e)
        assert shape_of(p, v) == e
        assert set(v) <= {0, 1} and sum(v) == sum(e)  # one 1 per nonzero block
    with pytest.raises(ValueError):
        representative(p, (n + 1,) + (0,) * (r - 1))


@pytest.mark.parametrize(
    "check,name,lo,hi",
    [
        (check_distance, "distance", 1, 7),
        (check_strength, "strength", 0, 6),
        (check_weight, "weight", 0, 6),
        (check_depth, "depth", 1, 3),
    ],
)
def test_range_checks(check, name, lo, hi):
    p = SpaceParams(2, 3, 2)
    for x in (lo, hi):
        check(p, x)
    for x in (lo - 1, hi + 1):
        with pytest.raises(ValueError, match=rf"^{name} {x} out of range \[{lo}, {hi}\]$"):
            check(p, x)


def test_weight_and_distance_examples():
    p1 = SpaceParams(2, 2, 1)
    assert ordered_weight(p1, (0, 0)) == 0
    assert ordered_weight(p1, (1, 1)) == 2
    p = SpaceParams(2, 2, 2)
    assert ordered_distance(p, (1, 0, 0, 0), (0, 0, 0, 1)) == 3


def test_distance_metric_axioms_exhaustive():
    p = SpaceParams(3, 2, 1)  # 9 vectors, all triples
    vecs = list(enumerate_vectors(p))
    for u in vecs:
        assert ordered_distance(p, u, u) == 0
        for v in vecs:
            duv = ordered_distance(p, u, v)
            assert duv == ordered_distance(p, v, u)
            assert (duv == 0) == (u == v)
            for w in vecs:
                assert duv <= ordered_distance(p, u, w) + ordered_distance(p, w, v)


def test_shape_count_examples():
    p = SpaceParams(2, 2, 2)
    assert shape_count(p, (0, 0)) == 1
    assert shape_count(p, (1, 0)) == 2
    assert shape_count(p, (1, 1)) == 4


@pytest.mark.parametrize(
    "q,r,n", [(2, 1, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2), (5, 1, 2), (4, 2, 1)]
)
def test_shape_count_matches_enumeration(q, r, n):
    p = SpaceParams(q, r, n)
    counted: dict = {}
    for v in enumerate_vectors(p):
        e = shape_of(p, v)
        counted[e] = counted.get(e, 0) + 1
    for e in enumerate_shapes(p):
        assert shape_count(p, e) == counted.get(e, 0)
    assert shape_counts(p) == counted


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_total_count_is_ambient(q, r):
    for n in range(1, 7):
        p = SpaceParams(q, r, n)
        assert sum(shape_count(p, e) for e in enumerate_shapes(p)) == p.ambient_size
        counts = shape_counts(p)
        assert list(counts) == list(enumerate_shapes(p))
        assert list(counts.values()) == [shape_count(p, e) for e in counts]


def test_sphere_sizes():
    p = SpaceParams(2, 2, 2)
    assert [sphere_size(p, d) for d in range(5)] == [1, 2, 5, 4, 4]
    assert ball_size(p, p.dim) == p.ambient_size
    assert sphere_size(p, 0) == 1


@pytest.mark.parametrize("q,r,n", [(2, 2, 2), (3, 1, 4), (2, 3, 3), (3, 2, 3), (2, 4, 2)])
def test_weight_distribution_counts_vectors(q, r, n):
    p = SpaceParams(q, r, n)
    counted = [0] * (p.dim + 1)
    for v in enumerate_vectors(p):
        counted[ordered_weight(p, v)] += 1
    assert weight_distribution(p) == counted
    for d in range(p.dim + 1):
        assert sphere_size(p, d) == counted[d]
        assert ball_size(p, d) == sum(counted[: d + 1])
    for d in (-1, p.dim + 1):
        with pytest.raises(ValueError):
            sphere_size(p, d)
        with pytest.raises(ValueError):
            ball_size(p, d)


def _weight_distribution_by_products(p):
    """The n-th power of the one-block enumerator, one product at a time."""
    block = [1] + [(p.q - 1) * p.q ** (i - 1) for i in range(1, p.r + 1)]
    sizes = [1]
    for _ in range(p.n):
        product = [0] * (len(sizes) + p.r)
        for k, s in enumerate(sizes):
            for i, c in enumerate(block):
                product[k + i] += s * c
        sizes = product
    return sizes


@pytest.mark.parametrize("q", range(2, 8))
def test_weight_distribution_matches_the_product_loop(q):
    for r in range(1, 6):
        for n in range(1, 31):
            p = SpaceParams(q, r, n)
            assert weight_distribution(p) == _weight_distribution_by_products(p), (q, r, n)


def test_delta_crit():
    assert delta_crit(2, 1) == Fraction(1, 2)
    assert delta_crit(2, 2) == Fraction(5, 8)
    assert delta_crit(3, 1) == Fraction(2, 3)
    # both closed forms agree
    for q in (2, 3, 5):
        for r in (1, 2, 3, 4):
            assert delta_crit(q, r) == 1 - Fraction(q**r - 1, r * q**r * (q - 1))


def test_enumerate_shapes():
    p = SpaceParams(2, 1, 3)
    assert list(enumerate_shapes(p)) == [(0,), (1,), (2,), (3,)]
    p = SpaceParams(2, 2, 2)
    shapes = list(enumerate_shapes(p))
    assert len(shapes) == 6
    assert shapes[0] == (0, 0)
    assert shapes == sorted(shapes)
    for r in (1, 2, 3):
        for n in (1, 2, 4):
            pp = SpaceParams(2, r, n)
            assert len(list(enumerate_shapes(pp))) == comb(n + r, r)


@pytest.mark.parametrize("r,n", [(1, 4), (2, 3), (3, 4), (4, 3), (5, 2)])
def test_enumeration_order_is_the_product_filter(r, n):
    # the order the generator must keep: every tuple of parts up to n, in
    # lexicographic order, filtered by its sum
    p = SpaceParams(2, r, n)
    walk = list(itertools.product(range(n + 1), repeat=r))
    assert list(enumerate_shapes(p)) == [e for e in walk if sum(e) <= n]
    for k in range(-1, n + 1):
        assert shapes_of_length(p, k) == [e for e in walk if sum(e) == k]
    assert shapes_of_length(p, n + 1) == []


def test_deep_blocks_enumerate_without_the_product_walk():
    # 41^40 tuples for the product filter; 861 compositions
    p = SpaceParams(2, 40, 2)
    shapes = list(enumerate_shapes(p))
    assert len(shapes) == comb(42, 2) == 861
    assert shapes[0] == (0,) * 40 and shapes[-1] == (2,) + (0,) * 39
    assert shapes == sorted(shapes)
    assert len(shapes_of_length(p, 2)) == comb(41, 2)


@pytest.mark.parametrize("q,r,n", [(2, 3, 6), (3, 4, 5)])
def test_shapes_of_length_filters_enumeration(q, r, n):
    p = SpaceParams(q, r, n)
    for k in range(n + 2):
        assert shapes_of_length(p, k) == [e for e in enumerate_shapes(p) if sum(e) == k]


def test_ooa_strength_examples():
    p = SpaceParams(2, 2, 1)
    full = ArrayTable(params=p, rows=tuple(enumerate_vectors(p)))
    res = ooa_strength(full)
    assert res.strength == 2 and res.index == 1

    pair = ArrayTable(params=p, rows=((0, 0), (1, 1)))
    res = ooa_strength(pair)
    assert res.strength == 1 and res.index == 1

    single = ArrayTable(params=p, rows=((0, 0),))
    assert ooa_strength(single).strength == 0

    with pytest.raises(ValueError):
        ooa_strength(ArrayTable(params=p, rows=()))


def test_ooa_strength_repeated_rows():
    # index 2: every row twice keeps the balance
    p = SpaceParams(2, 1, 2)
    rows = tuple(enumerate_vectors(p)) * 2
    res = ooa_strength(ArrayTable(params=p, rows=rows))
    assert res.strength == 2 and res.index == 2


def test_ooa_strength_scan_has_a_cell_budget():
    def full_space(n):
        p = SpaceParams(2, 2, n)
        return ArrayTable(params=p, rows=tuple(enumerate_vectors(p)))

    # 4096 rows over 728 left-adjusted sets fit under the cap; 65536 rows
    # reach it after 64 sets
    assert ooa_strength(full_space(6)) == (12, 1)
    with pytest.raises(BudgetExceeded, match="STRENGTH_CELL_CAP"):
        ooa_strength(full_space(8))


def test_net_conversion():
    ooa = net_to_ooa(0, 2, 2, 2)
    assert (ooa.strength, ooa.n, ooa.r, ooa.size, ooa.index) == (2, 2, 2, 4, 1)
    ooa = net_to_ooa(1, 3, 2, 2)
    assert (ooa.strength, ooa.n, ooa.r, ooa.size, ooa.index) == (2, 2, 2, 8, 2)
    for t, m, s, q in [(0, 2, 2, 2), (1, 3, 2, 2), (2, 5, 4, 3)]:
        net = ooa_to_net(net_to_ooa(t, m, s, q))
        assert (net.t, net.m, net.s, net.q) == (t, m, s, q)
    with pytest.raises(ValueError):
        net_to_ooa(3, 2, 2, 2)
    for q in (0, 1):
        with pytest.raises(ValueError):
            net_to_ooa(1, 2, 2, q)


def test_linear_code_and_dual():
    p = SpaceParams(2, 2, 1)
    C = LinearCode(params=p, generators=((1, 1),))
    assert set(enumerate_code(C).rows) == {(0, 0), (1, 1)}
    assert set(dual_code(C).rows) == {(0, 0), (1, 1)}

    trivial = LinearCode(params=p, generators=())
    assert set(dual_code(trivial).rows) == set(enumerate_vectors(p))

    with pytest.raises(ValueError):
        LinearCode(params=p, generators=((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        LinearCode(params=SpaceParams(4, 1, 2), generators=((1, 0),))


@pytest.mark.parametrize("q,r,n", [(2, 2, 2), (3, 1, 3), (5, 1, 2), (3, 2, 2)])
def test_size_product_identity(q, r, n):
    import random

    rng = random.Random(q * 100 + r * 10 + n)
    p = SpaceParams(q, r, n)
    from nrtbounds.space import row_reduce_mod

    for _ in range(5):
        rows = [[rng.randrange(q) for _ in range(p.dim)] for _ in range(rng.randint(1, p.dim))]
        reduced = row_reduce_mod(rows, q)
        if not reduced:
            continue
        C = LinearCode(params=p, generators=tuple(tuple(r_) for r_ in reduced))
        assert C.size * len(dual_code(C).rows) == p.ambient_size


def test_dual_strength_equals_distance_minus_one():
    # strength of the dual equals the minimum code distance minus 1
    p = SpaceParams(2, 2, 2)
    from nrtbounds.space import row_reduce_mod
    import random

    rng = random.Random(11)
    checked = 0
    while checked < 8:
        rows = [[rng.randrange(2) for _ in range(4)] for _ in range(rng.randint(1, 3))]
        reduced = row_reduce_mod(rows, 2)
        if not reduced:
            continue
        C = LinearCode(params=p, generators=tuple(tuple(r_) for r_ in reduced))
        words = enumerate_code(C).rows
        nonzero = [w for w in words if any(w)]
        if not nonzero:
            continue
        d = min(ordered_weight(p, w) for w in nonzero)
        res = ooa_strength(dual_code(C))
        assert res.strength == d - 1
        checked += 1


def test_array_file_roundtrip():
    text = "# comment\n2 2 2\n0 0 0 0\n1 0 0 1\n"
    table = parse_array_text(text)
    assert table.params == SpaceParams(2, 2, 2)
    assert table.rows == ((0, 0, 0, 0), (1, 0, 0, 1))
    p = table.params
    lines = [f"{p.q} {p.r} {p.n}"] + [" ".join(map(str, row)) for row in table.rows]
    assert parse_array_text("\n".join(lines) + "\n") == table
    with pytest.raises(ValueError):
        parse_array_text("2 2\n0 0\n")
    with pytest.raises(ValueError):
        parse_array_text("2 2 2\n0 0 0\n")


def test_enumerate_code_budget():
    # 2^17 codewords exceed EXHAUSTIVE_CAP; the cap is checked before any is listed
    p = SpaceParams(2, 1, 17)
    C = LinearCode(params=p, generators=tuple(tuple(int(i == j) for j in range(17)) for i in range(17)))
    with pytest.raises(BudgetExceeded):
        enumerate_code(C)


def test_delta_crit_is_mean_normalized_weight():
    for q, r, n in [(2, 2, 2), (3, 2, 1), (2, 3, 1)]:
        p = SpaceParams(q, r, n)
        total = sum(ordered_weight(p, v) for v in enumerate_vectors(p))
        assert Fraction(total, p.ambient_size * p.dim) == delta_crit(q, r)
