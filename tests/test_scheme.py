from fractions import Fraction
from itertools import islice
from math import comb, sqrt

import numpy as np
import pytest

from nrtbounds.krawtchouk import krawtchouk_table
from nrtbounds.scheme import (
    _nonzero_intersections,
    build_blocks,
    build_operator,
    operators,
    spectral_radius,
)
from nrtbounds.space import (
    SpaceParams,
    delta_crit,
    enumerate_shapes,
    shape_count,
    shapes_of_length,
    shape_weight,
)
from oracles import intersection_general


def unit_shape(r, i):
    return tuple(1 if j == i - 1 else 0 for j in range(r))


def L_coeff(p, i):
    """L_i = (q^(r-i+1) - 1) / (q^r (q-1))."""
    return Fraction(p.q ** (p.r - i + 1) - 1, p.q**p.r * (p.q - 1))


def intersection_Fi(p, f, i, h):
    """The intersection number of f with the single-part shape F_i at h."""
    return dict(_nonzero_intersections(p, f, i)).get(h, 0)


def P_eval(params, e):
    """P(e) = delta_crit * r * n - |e|'."""
    return delta_crit(params.q, params.r) * params.r * params.n - shape_weight(e)


def cd_kernel(params, L, a, e):
    """U_L(a, e) = sum_{f in L} K_f(a) K_f(e) / v_f, exact, with v_f = K_f(0)."""
    T = krawtchouk_table(params)
    zero = T.shapes[0]
    total = Fraction(0)
    for f in L:
        total += Fraction(T[f, a] * T[f, e], T[f, zero])
    return total


def cd_check(p, kappa, a, e):
    """Exact two-sided check of the Christoffel-Darboux identity at degree
    kappa:

        (P(e) - P(a)) U_kappa(a, e)
            = sum_{|f|=kappa, |h|=kappa+1} (a_kappa[f,h]/v_f)
                  (K_h(e) K_f(a) - K_f(e) K_h(a))
    """
    T = krawtchouk_table(p)
    zero = T.shapes[0]
    L = [f for mu in range(kappa + 1) for f in shapes_of_length(p, mu)]
    lhs = (P_eval(p, e) - P_eval(p, a)) * cd_kernel(p, L, a, e)
    blocks = build_blocks(p, kappa)
    rhs = Fraction(0)
    for fi, f in enumerate(blocks.rows):
        vf = T[f, zero]
        for hi, h in enumerate(blocks.cols_up):
            coeff = blocks.a[fi][hi]
            if coeff == 0:
                continue
            rhs += coeff * (T[h, e] * T[f, a] - T[f, e] * T[h, a]) / vf
    return lhs == rhs


def test_P_eval():
    p = SpaceParams(2, 2, 2)
    assert P_eval(p, (0, 0)) == Fraction(5, 2)
    assert P_eval(p, (0, 2)) == Fraction(5, 2) - 4
    values = sorted(
        (shape_weight(e), P_eval(p, e)) for e in enumerate_shapes(p)
    )
    for (w1, p1), (w2, p2) in zip(values, values[1:]):
        if w1 < w2:
            assert p1 > p2


def test_P_is_L_combination_of_linear_polynomials():
    for q, r, n in [(2, 2, 3), (3, 2, 2), (2, 3, 2)]:
        p = SpaceParams(q, r, n)
        tbl = krawtchouk_table(p)
        for e in enumerate_shapes(p):
            combo = sum(
                L_coeff(p, i) * tbl[(unit_shape(r, i), e)] for i in range(1, r + 1)
            )
            assert combo == P_eval(p, e)


def test_intersection_q2_diagonal_single_part():
    # at q=2 a lone depth-i part contributes nothing on the diagonal
    p = SpaceParams(2, 2, 4)
    assert intersection_Fi(p, (2, 0), 1, (2, 0)) == 0
    # but deeper parts absorb depth-1 kicks
    assert intersection_Fi(p, (0, 1), 1, (0, 1)) == 1


def test_intersection_up_case():
    p = SpaceParams(3, 2, 4)
    f = (1, 2)
    assert intersection_Fi(p, f, 1, (2, 2)) == f[0] + 1
    assert intersection_Fi(p, f, 2, (1, 3)) == f[1] + 1


@pytest.mark.parametrize("q,r,n", [(2, 2, 2), (3, 2, 1), (2, 3, 1), (2, 2, 3)])
def test_intersection_matches_counting_oracle(q, r, n):
    p = SpaceParams(q, r, n)
    for i in range(1, r + 1):
        Fi = unit_shape(r, i)
        for f in enumerate_shapes(p):
            for h in enumerate_shapes(p):
                assert intersection_general(p, Fi, f, h) == intersection_Fi(p, f, i, h)


def test_intersection_general_special_cases():
    p = SpaceParams(2, 2, 2)
    zero = (0, 0)
    for g in enumerate_shapes(p):
        for h in enumerate_shapes(p):
            assert intersection_general(p, zero, g, h) == (1 if g == h else 0)
    for f in enumerate_shapes(p):
        for g in enumerate_shapes(p):
            want = shape_count(p, f) if f == g else 0
            assert intersection_general(p, f, g, zero) == want


def test_linearization_identity():
    p = SpaceParams(2, 2, 2)
    tbl = krawtchouk_table(p)
    shapes = list(enumerate_shapes(p))
    for f in shapes:
        for g in shapes:
            coeffs = {h: intersection_general(p, f, g, h) for h in shapes}
            for e in shapes:
                lhs = tbl[(f, e)] * tbl[(g, e)]
                rhs = sum(coeffs[h] * tbl[(h, e)] for h in shapes)
                assert lhs == rhs


@pytest.mark.parametrize("q,r,n,kmax", [(2, 2, 5, 3), (3, 2, 5, 3), (2, 3, 3, 3), (2, 1, 5, 3)])
def test_three_term_identity_exact(q, r, n, kmax):
    p = SpaceParams(q, r, n)
    tbl = krawtchouk_table(p)
    for kappa in range(0, min(kmax, n) + 1):
        blk = build_blocks(p, kappa)
        for e in enumerate_shapes(p):
            for fi, f in enumerate(blk.rows):
                lhs = P_eval(p, e) * tbl[(f, e)]
                rhs = sum(blk.a[fi][hi] * tbl[(h, e)] for hi, h in enumerate(blk.cols_up))
                rhs += sum(blk.b[fi][hi] * tbl[(h, e)] for hi, h in enumerate(blk.rows))
                rhs += sum(blk.c[fi][hi] * tbl[(h, e)] for hi, h in enumerate(blk.cols_down))
                assert lhs == rhs


def test_block_zero_is_scalar_zero():
    blk = build_blocks(SpaceParams(2, 2, 4), 0)
    assert blk.b == ((Fraction(0),),)


def test_block_dimensions_and_structure():
    from math import comb

    for q, r, n in [(2, 2, 4), (3, 2, 3), (2, 3, 3)]:
        p = SpaceParams(q, r, n)
        for kappa in range(0, min(3, n) + 1):
            blk = build_blocks(p, kappa)
            assert len(blk.rows) == comb(kappa + r - 1, r - 1)
            S = build_operator(p, kappa)
            assert np.array_equal(S, S.T)
            assert (S >= 0).all()


@pytest.mark.parametrize("q,r,n", [(2, 2, 5), (3, 2, 4), (2, 3, 4), (2, 4, 3)])
def test_raw_blocks_are_integers_over_one_denominator(q, r, n):
    p = SpaceParams(q, r, n)
    for kappa in range(n + 1):
        blk = build_blocks(p, kappa)
        for block, cols in ((blk.a, blk.cols_up), (blk.b, blk.rows), (blk.c, blk.cols_down)):
            assert len(block) == len(blk.rows)
            for row in block:
                assert len(row) == len(cols)
                for x in row:
                    assert type(x) is Fraction
                    assert (q**r * (q - 1)) % x.denominator == 0


def test_normalized_blocks_match_raw_rescaling():
    # the orthonormal blocks are slices of the operator:
    # S[f,h] = x[f,h] sqrt(v_h / v_f) for the raw blocks x = a, b, c
    for q, r, n in [(2, 2, 4), (3, 2, 3)]:
        p = SpaceParams(q, r, n)
        S = build_operator(p, n)
        shapes = [f for mu in range(n + 1) for f in shapes_of_length(p, mu)]
        pos = {f: j for j, f in enumerate(shapes)}
        assert len(pos) == S.shape[0]
        for kappa in range(n + 1):
            blk = build_blocks(p, kappa)
            for fi, f in enumerate(blk.rows):
                vf = shape_count(p, f)
                for x, cols in ((blk.a, blk.cols_up), (blk.b, blk.rows), (blk.c, blk.cols_down)):
                    for hi, h in enumerate(cols):
                        want = float(x[fi][hi]) * (shape_count(p, h) / vf) ** 0.5
                        assert S[pos[f], pos[h]] == pytest.approx(want, rel=1e-12)


def test_detailed_balance_of_raw_operator():
    # v_h S[f,h] = v_f S[h,f] for the multiplication operator in the raw basis
    p = SpaceParams(3, 2, 3)

    def raw_entry(f, h):
        return sum(
            L_coeff(p, i) * intersection_Fi(p, f, i, h) for i in range(1, p.r + 1)
        )

    for f in enumerate_shapes(p):
        for h in enumerate_shapes(p):
            assert shape_count(p, h) * raw_entry(f, h) == shape_count(p, f) * raw_entry(h, f)


def test_spectral_radius_examples():
    lo, hi = spectral_radius(build_operator(SpaceParams(2, 1, 4), 0))
    assert lo == hi == 0.0
    for n in (2, 4, 7):
        lo, hi = spectral_radius(build_operator(SpaceParams(2, 1, n), 1))
        want = n**0.5 / 2
        assert lo - 1e-12 <= want <= hi + 1e-12  # matrix entries round once
        assert hi - lo <= 1e-10 * max(1.0, hi)


def test_spectral_radius_matches_dense_eigensolver():
    for q, r, n, kappa in [(2, 2, 6, 3), (3, 2, 5, 2), (2, 3, 4, 2)]:
        op = build_operator(SpaceParams(q, r, n), kappa)
        lo, hi = spectral_radius(op)
        top = float(np.linalg.eigvalsh(op)[-1])
        assert lo - 1e-9 <= top <= hi + 1e-9


DECIDE_CASES = [(2, 2, 8, 4), (2, 2, 6, 3), (3, 2, 5, 2), (2, 3, 4, 2), (3, 3, 5, 3)]


@pytest.mark.parametrize("q,r,n,kappa", DECIDE_CASES)
def test_spectral_radius_decide_stops_on_one_side(q, r, n, kappa):
    op = build_operator(SpaceParams(q, r, n), kappa)
    lo, hi = spectral_radius(op)
    assert spectral_radius(op, decide=None) == (lo, hi)
    for x, side in ((lo - 1.0, "above"), (hi + 1.0, "below"), (lo - 1e-3, "above")):
        lower, upper = spectral_radius(op, decide=x)
        assert lower <= upper
        assert x < lower if side == "above" else upper < x
        # decided before the enclosure is as narrow as the full run's
        assert upper - lower > hi - lo


@pytest.mark.parametrize("q,r,n,kappa", DECIDE_CASES)
def test_spectral_radius_decide_inside_margin_runs_full_width(q, r, n, kappa):
    op = build_operator(SpaceParams(q, r, n), kappa)
    full = spectral_radius(op)
    lo, hi = full
    for x in (lo, hi, (lo + hi) / 2):
        got = spectral_radius(op, decide=x)
        assert tuple(map(float.hex, got)) == tuple(map(float.hex, full))


def test_lambda_monotone_in_degree():
    p = SpaceParams(2, 2, 6)
    prev_hi = None
    for kappa in range(5):
        lo, hi = spectral_radius(build_operator(p, kappa))
        if prev_hi is not None:
            assert prev_hi < lo
        prev_hi = hi


def test_cd_kernel_positive_on_diagonal():
    p = SpaceParams(2, 2, 3)
    L = [f for mu in range(3) for f in shapes_of_length(p, mu)]
    for a in enumerate_shapes(p):
        assert cd_kernel(p, L, a, a) >= 0


def test_cd_identity_exact():
    p = SpaceParams(2, 2, 3)
    shapes = list(enumerate_shapes(p))
    for kappa in (0, 1, 2):
        for a in shapes:
            for e in shapes:
                assert cd_check(p, kappa, a, e)


def test_cd_trivial_at_equal_points():
    p = SpaceParams(3, 2, 2)
    for kappa in (0, 1):
        for a in enumerate_shapes(p):
            assert cd_check(p, kappa, a, a)


def test_operator_dimension_formula():
    from math import comb

    for q, r, n, kappa in [(2, 2, 5, 3), (2, 3, 4, 2), (3, 2, 4, 4)]:
        op = build_operator(SpaceParams(q, r, n), kappa)
        want = sum(comb(mu + r - 1, r - 1) for mu in range(kappa + 1))
        assert op.shape == (want, want)


def test_operator_is_leading_block_of_next_degree():
    for q, r, n in [(2, 2, 5), (3, 2, 4), (2, 3, 4)]:
        p = SpaceParams(q, r, n)
        ops = list(operators(p))
        assert len(ops) == n + 1
        for kappa, (small, big) in enumerate(zip(ops, ops[1:])):
            size = small.shape[0]
            assert big.shape[0] == size + len(shapes_of_length(p, kappa + 1))
            assert np.array_equal(big[:size, :size], small)
            assert big.tobytes() == build_operator(p, kappa + 1).tobytes()


def test_build_operator_enumerates_each_degree_once(monkeypatch):
    import nrtbounds.scheme as scheme_mod
    import nrtbounds.space as space_mod

    lengths, counted = [], []

    def enumerating(params, k):
        lengths.append(k)
        return shapes_of_length(params, k)

    def counting(params, e):
        counted.append(e)
        return shape_count(params, e)

    monkeypatch.setattr(scheme_mod, "shapes_of_length", enumerating)
    monkeypatch.setattr(space_mod, "shape_count", counting)
    p = SpaceParams(2, 3, 6)
    build_operator(p, 4)
    assert lengths == [0, 1, 2, 3, 4]
    # the entries are integer products of intersection numbers: no shape count
    assert counted == []
    assert not hasattr(scheme_mod, "shape_count")


def reference_operators(params):
    """S_0, S_1, ... entry by entry: L_i sqrt(m m v_h / v_f) over the
    nonzero intersection numbers m of each row f at each depth i, with the
    shape counts v, and N[f,f] / D on the diagonal."""
    q, r = params.q, params.r
    den = q**r * (q - 1)
    depths = [(i, q ** (r - i + 1) - 1) for i in range(1, r + 1)]  # L_i = N_i / den
    pos, v = {}, {}
    S = np.zeros((0, 0))
    for k in range(params.n + 1):
        shapes = shapes_of_length(params, k)
        pos.update(zip(shapes, range(len(pos), len(pos) + len(shapes))))
        v.update((h, shape_count(params, h)) for h in shapes)
        S = np.pad(S, (0, len(shapes)))
        for f in shapes:
            fi, diag = pos[f], 0
            for i, N in depths:
                for h, m in _nonzero_intersections(params, f, i):
                    if h == f:
                        diag += N * m
                    elif h in pos:
                        S[fi, pos[h]] = S[pos[h], fi] = (N / den) * sqrt(m * m * v[h] / v[f])
            S[fi, fi] = diag / den
        yield S


@pytest.mark.parametrize(
    "q,r,n,kappa",
    [
        # the spaces of the benchmark's bounds-deep workload, up to their kappa
        (3, 3, 16, 10),
        (3, 4, 10, 7),
        (2, 4, 12, 7),
        (2, 3, 22, 8),
        # every degree: a long depth-2 walk, and deep blocks whose products
        # q^(2r) n^2 outgrow 64-bit ints
        (2, 2, 30, 30),
        (2, 40, 2, 2),
        (3, 30, 2, 2),
        (2, 60, 1, 1),
        (7, 25, 2, 2),
    ],
)
def test_operator_equals_entrywise_reference(q, r, n, kappa):
    p = SpaceParams(q, r, n)
    for k, (got, want) in enumerate(zip(operators(p), reference_operators(p))):
        assert got.tobytes() == want.tobytes(), k
        if k == kappa:
            break
    assert build_operator(p, kappa).tobytes() == want.tobytes()


def test_deep_operator_memory_is_linear_in_its_entries():
    # at degree 1 every pair of unit shapes is an entry, r(r-1)/2 of them; an
    # array of their targets as r-part shapes peaks at 16 MB at r = 120
    import tracemalloc

    tracemalloc.start()
    try:
        S = build_operator(SpaceParams(2, 120, 1), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(S[1:, 1:]) >= 120 * 119
    assert peak < 8 * 2**20


def test_operator_entries_beyond_floats_exceed_the_budget(capsys):
    from nrtbounds.cli import main
    from nrtbounds.space import BudgetExceeded

    # the products q^(i+j) outgrow a float at q = 2^40, r = 30
    ops = operators(SpaceParams(2**40, 30, 1))
    assert next(ops).shape == (1, 1)
    with pytest.raises(BudgetExceeded, match="degree 1 exceed the float range"):
        next(ops)
    # the spectral bound builds S_kappa for kappa < n only, so n = 2; at
    # d = nr the hypothesis at kappa = 1 holds, and S_1 is built
    argv = ["bounds", "--q", str(2**40), "--r", "30", "--n", "2", "--d", "60"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: operator entries at degree 1 exceed the float range\n"
    )


def test_operator_cap_raises_before_allocating(monkeypatch):
    import nrtbounds.scheme as scheme_mod
    from nrtbounds.bounds import spectral_bound
    from nrtbounds.space import BudgetExceeded

    # bounds --q 2 --r 4 --n 20 --d 10 reaches kappa = 16, 4845 rows
    assert comb(16 + 4, 4) == 4845 <= scheme_mod.OPERATOR_CAP
    p = SpaceParams(2, 2, 6)  # S_k has comb(k + 2, 2) rows: 1, 3, 6, 10, 15, ...
    monkeypatch.setattr(scheme_mod, "OPERATOR_CAP", 10)
    ops = operators(p)
    assert [S.shape[0] for S in islice(ops, 4)] == [1, 3, 6, 10]
    allocated = []
    monkeypatch.setattr(np, "zeros", lambda *a, **k: allocated.append(a))
    with pytest.raises(BudgetExceeded, match="15 rows at degree 4 exceeds cap OPERATOR_CAP = 10"):
        next(ops)
    assert allocated == []
    monkeypatch.undo()
    monkeypatch.setattr(scheme_mod, "OPERATOR_CAP", 10)
    assert spectral_bound(p, 4).witness["kappa"] == 3
    with pytest.raises(BudgetExceeded, match="at degree 4"):
        spectral_bound(p, 3)
