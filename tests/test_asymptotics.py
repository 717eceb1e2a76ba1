import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrtbounds import asymptotics
from nrtbounds.asymptotics import (
    H,
    be_curve,
    gv_curve,
    h_q,
    hamming_curve,
    lambda_asym,
    lambda_expression,
    lp_curve,
    lp_curve_default_taus,
    lp_rate,
    nets_rao,
    phi_r2,
    phi_r2_with_witness,
    plotkin_curve,
    psi_nets,
    z0_solve,
)
from nrtbounds.space import BudgetExceeded, delta_crit


def closed_form_z0(q, x):
    return q * x / ((q - 1) * (1 - x))


def test_z0_closed_form_r1():
    assert z0_solve(2, 1, 0.5) == pytest.approx(2.0, abs=1e-10)
    for q in (2, 3):
        for x in [i / 100 for i in range(1, 100)]:
            assert z0_solve(q, 1, x) == pytest.approx(closed_form_z0(q, x), abs=1e-10)


def test_z0_monotone_in_x():
    for q, r in [(2, 2), (3, 2), (2, 3)]:
        values = [z0_solve(q, r, x) for x in [i / 50 for i in range(1, 50)]]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_H_matches_entropy_at_depth_one():
    for q in (2, 3):
        dc = float(delta_crit(q, 1))
        for x in [dc * i / 100 for i in range(1, 101)]:
            assert H(q, 1, x) == pytest.approx(h_q(q, x), abs=1e-10)


def test_H_is_one_at_critical_distance():
    for q in (2, 3, 4):
        for r in (1, 2, 3, 4):
            dc = float(delta_crit(q, r))
            assert H(q, r, dc) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "r, frac, want",
    [
        # 40-digit mpmath bisection of the saddle-point equation at the same x
        (2000, 0.9999, 0.99999343950780252111),
        (1100, 0.99999, 0.99999996061421609545),
    ],
    ids=["r2000", "r1100"],
)
def test_H_near_critical_distance_at_large_depth(r, frac, want):
    # z0 > 1 here, so z0^r overflows a float unless the power sums are
    # scaled; the suite turns the overflow warning into an error
    x = frac * float(delta_crit(2, r))
    assert abs(H(2, r, x) - want) < 1e-12
    assert gv_curve(2, r, x) > 0


def test_H_examples():
    assert H(2, 1, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert H(2, 1, 0.0) == 0.0


def test_curves_at_zero_and_critical():
    for q, r in [(2, 2), (3, 1)]:
        dc = float(delta_crit(q, r))
        for fn in (gv_curve, hamming_curve, plotkin_curve, be_curve):
            assert fn(q, r, 0.0) == 1.0
        assert gv_curve(q, r, dc) == pytest.approx(0.0, abs=1e-9)
        assert plotkin_curve(q, r, dc) == pytest.approx(0.0, abs=1e-9)
        assert be_curve(q, r, dc) == pytest.approx(0.0, abs=1e-9)


def test_be_below_hamming():
    q, r = 2, 2
    dc = float(delta_crit(q, r))
    for j in range(1, 400):
        delta = dc * j / 400
        assert be_curve(q, r, delta) <= hamming_curve(q, r, delta) - 1e-9


def test_gv_below_upper_curves():
    for q, r in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        dc = float(delta_crit(q, r))
        for j in range(1, 40):
            delta = dc * j / 40
            gv = gv_curve(q, r, delta)
            for fn in (hamming_curve, plotkin_curve, be_curve):
                assert gv <= fn(q, r, delta) + 1e-9


def test_curves_non_increasing():
    for q, r in [(2, 2), (3, 1)]:
        dc = float(delta_crit(q, r))
        grid = np.array([dc * j / 400 for j in range(1, 401)])
        for fn in (gv_curve, hamming_curve, plotkin_curve, be_curve):
            vals = fn(q, r, grid).tolist()  # a float call runs the same array path
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), fn.__name__


def test_lambda_asym_r1_closed_form():
    for q in (2, 3):
        for tau in (0.1, 0.3, 0.5):
            want = (
                2 * math.sqrt((1 - tau) * tau * (q - 1)) + (q - 2) * tau * (q - 1)
            ) / q
            got, profile = lambda_asym(q, 1, tau)
            assert got == pytest.approx(want, abs=1e-12)
            assert profile == (tau,)


def test_lambda_asym_zero():
    assert lambda_asym(3, 2, 0.0) == (0.0, (0.0, 0.0))


def test_lambda_asym_interior_argmax():
    for tau in (0.2, 0.4, 0.6):
        _, profile = lambda_asym(2, 2, tau)
        assert all(t > 0 for t in profile)
        assert sum(profile) == pytest.approx(tau, abs=1e-12)


def test_lambda_asym_refinement_beats_grid():
    got, profile = lambda_asym(2, 2, 0.3)
    assert got >= lambda_expression(2, 2, profile) - 1e-15
    # grid-only values never exceed the refined maximum
    for j in range(0, 201):
        point = (0.3 * j / 200, 0.3 * (200 - j) / 200)
        assert lambda_expression(2, 2, point) <= got + 1e-12


def _simplex_lattice(total, parts, steps):
    """Every point (j_1, ..., j_parts) total / steps with sum j = steps, one
    array per coordinate."""
    js = np.stack(np.meshgrid(*[np.arange(steps + 1)] * (parts - 1), indexing="ij"), -1)
    js = js.reshape(-1, parts - 1)
    js = js[js.sum(axis=1) <= steps]
    cols = [total * js[:, k] / steps for k in range(parts - 1)]
    return cols + [total * (steps - js.sum(axis=1)) / steps]


def _weak_duality_end(q, r, tau, value, profile):
    """mu' tau + a^T (mu' I - B)^(-1) a / 4, which bounds the maximum of
    lambda_expression = a.x + x^T B x (x_i = sqrt(tau_i)) on |x|^2 = tau for
    every mu' > rho(B), at mu' just above the mu of the maximiser, which
    solves (mu I - B) x = a / 2.  a and B are written out from the
    expression itself."""
    L = [(q ** (r - i + 1) - 1) / (q**r * (q - 1)) for i in range(1, r + 1)]
    a, B = np.zeros(r), np.zeros((r, r))
    for i in range(1, r + 1):
        a[i - 1] = 2 * L[i - 1] * math.sqrt((1 - tau) * (q - 1) * q ** (i - 1))
        B[i - 1, i - 1] = L[i - 1] * (q - 2) * (q**r - q ** (i - 1))
        for k in range(1, i):
            B[i - 1, k - 1] = B[k - 1, i - 1] = L[i - 1] * (q - 1) * q ** ((i + k) / 2) / q
    x = np.sqrt(profile)
    mu = max((value - a @ x / 2) / tau, np.linalg.eigvalsh(B)[-1])
    mu += 1e-13 * mu
    return mu * tau + a @ np.linalg.solve(mu * np.eye(r) - B, a) / 4


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_lambda_asym_is_the_trust_region_maximum(q, r):
    steps = {2: 2000, 3: 200, 4: 40}[r]
    for tau in (0.05, 0.2, 0.45, (q - 1) / q, 0.99, 1.0):
        value, profile = lambda_asym(q, r, tau)
        assert lambda_expression(q, r, profile) == value
        # no lattice point does better, beyond rounding; at tau = 1 a lattice
        # point whose float sum falls short of 1 gains about 1e-8 through
        # sqrt(1 - tau), so the lattice stops at 0.99
        if tau < 1:
            best = float(lambda_expression(q, r, _simplex_lattice(tau, r, steps)).max())
            assert value >= best - 4 * math.ulp(best), tau
        dual = _weak_duality_end(q, r, tau, value, profile)
        assert dual >= value * (1 - 1e-15), tau
        assert dual == pytest.approx(value, rel=1e-12, abs=0), tau


def test_lambda_asym_runs_at_large_r_and_stops_at_the_float_range():
    for q, r in [(2, 30), (2, 100), (3, 30), (5, 10)]:
        for tau in (0.3, (q - 1) / q, 1.0):
            value, profile = lambda_asym(q, r, tau)
            assert math.isfinite(value) and value > 0
            assert len(profile) == r and min(profile) >= 0
            assert sum(profile) == pytest.approx(tau, abs=1e-12)
            dual = _weak_duality_end(q, r, tau, value, profile)
            assert dual == pytest.approx(value, rel=1e-12, abs=0), (q, r, tau)
    # q^(2r-1) is the largest power of the expression: 2^1023 fits, 2^1025 does not
    assert lambda_asym(2, 512, 0.5)[0] > 0
    for q, r in [(2, 513), (3, 400), (2**64, 9), (2**1024, 1), (2, 10**9)]:
        with pytest.raises(BudgetExceeded, match="exceeds the float range"):
            lambda_asym(q, r, 0.5)


def test_array_evaluation_matches_floats():
    # the grids evaluate arrays, the refinement floats, through one formula:
    # sqrt is correctly rounded in both, so lambda_expression agrees exactly;
    # numpy's log and sqrt may differ from libm's log and pow(x, 0.5) by an ulp
    from nrtbounds.krawtchouk import gamma

    rng = np.random.default_rng(7)
    for q, r in [(2, 1), (2, 3), (3, 2), (4, 4)]:
        cols = list(rng.dirichlet(np.ones(r + 1), size=300).T[:r] * rng.uniform(0, 1, 300))
        got = lambda_expression(q, r, cols)
        want = [lambda_expression(q, r, [float(c[k]) for c in cols]) for k in range(300)]
        assert got.tolist() == want
    for q in (2, 3, 5):
        y = np.concatenate([[0.0, (q - 1) / q], rng.uniform(0, (q - 1) / q, 300)])
        assert gamma(q, y) == pytest.approx([gamma(q, float(v)) for v in y], rel=1e-15, abs=1e-16)
        x = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 300)])
        assert h_q(q, x) == pytest.approx([h_q(q, float(v)) for v in x], rel=1e-15, abs=1e-16)
        with pytest.raises(ValueError):
            h_q(q, np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            gamma(q, np.array([-0.1, 0.2]))


# coordinates of either sign, exact zeros among them; a total above 1
# makes (1 - tau) negative, which the clamp must also handle alike
_coordinate = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 4).flatmap(
        lambda r: st.lists(st.tuples(*[_coordinate] * r), min_size=1, max_size=20)
    ),
)
def test_lambda_expression_gives_floats_and_arrays_the_same_bits(q, profiles):
    # one definition serves both: each profile as floats, and all of them
    # as one array per coordinate, element for element
    r = len(profiles[0])
    cols = [np.array([p[k] for p in profiles]) for k in range(r)]
    got = [v.hex() for v in lambda_expression(q, r, cols).tolist()]
    assert got == [lambda_expression(q, r, list(p)).hex() for p in profiles]


def test_float_or_array_functions_take_a_fraction_as_one_number():
    # they tell a number from an array by its type, without numpy; a
    # Fraction, like delta_crit's, is a number
    from fractions import Fraction

    from nrtbounds.krawtchouk import gamma

    x = Fraction(1, 4)
    assert gamma(2, x) == gamma(2, 0.25)
    assert h_q(2, x) == h_q(2, 0.25)
    assert H(2, 2, x) == H(2, 2, 0.25)
    assert be_curve(2, 2, x) == be_curve(2, 2, 0.25)
    profile = (Fraction(1, 8), Fraction(1, 8))
    assert lambda_expression(2, 2, profile) == lambda_expression(2, 2, (0.125, 0.125))


def test_grid_scans_keep_the_first_best_point(monkeypatch):
    # with a constant objective every grid point ties and the refinement
    # never improves, so the scan's first point is returned, whatever the
    # block size of the objective build; the objective is cached with the
    # grid, so the grid is rebuilt with the constant one and dropped again
    # afterwards
    monkeypatch.setattr(asymptotics, "_phi_objective", lambda q, t1, t2, h1: 0.0 * t2)
    q, delta, steps = 2, 0.1, asymptotics.STEPS

    def feasible(t1, t2):
        g2, w2 = asymptotics._phi_t2_terms(q, t2)
        return g2 + w2 * asymptotics.gamma(q, t1) <= 2 * delta

    first = next(
        (t1, t2)
        for t1 in ((q - 1) / q**2 * i / steps for i in range(steps + 1))
        for t2 in ((q - 1) / q * j / steps for j in range(steps + 1))
        if feasible(t1, t2)
    )
    try:
        for block in (1, 7, asymptotics.BLOCK):
            monkeypatch.setattr(asymptotics, "BLOCK", block)
            asymptotics._phi_grid.cache_clear()
            assert phi_r2_with_witness(q, delta) == (0.0, first), block
    finally:
        asymptotics._phi_grid.cache_clear()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_phi_refinement_evaluates_each_point_once(monkeypatch, q):
    # the pattern search revisits its centre on every sweep and overlaps
    # itself after a move; each float point reaches the objective, each t2
    # the constraint terms and each t1 gamma at most once per call.  The
    # grid makes its float calls of gamma once per q, before the wrapping,
    # and a call made inside another wrapped one (gamma of t2) is the outer
    # call's
    asymptotics._phi_grid(q)
    seen, nested = set(), []

    def once(name, fn):
        def wrapped(q, *args):
            point = args[:2]  # (t1, t2) of the objective, the one value of the others
            if not nested and all(isinstance(v, float) for v in point):
                key = (name, *point)
                assert key not in seen, key
                seen.add(key)
            nested.append(name)
            try:
                return fn(q, *args)
            finally:
                nested.pop()

        monkeypatch.setattr(asymptotics, name, wrapped)

    once("_phi_objective", asymptotics._phi_objective)
    once("_phi_t2_terms", asymptotics._phi_t2_terms)
    once("gamma", asymptotics.gamma)
    dc = float(delta_crit(q, 2))
    for delta in (dc / 4, dc / 2, dc):
        seen.clear()
        assert phi_r2_with_witness(q, delta)[1] is not None
        assert {key[0] for key in seen} == {"_phi_objective", "_phi_t2_terms", "gamma"}


def test_phi_r2_returns_at_every_q():
    # at 31 of q = 2..299 (6, 24, 55, ...) the last t2 grid point
    # (q-1)/q * 200 / 200 rounds above (q-1)/q, which gamma rejects
    try:
        for q in range(2, 301):
            dc = float(delta_crit(q, 2))
            for delta in (dc / 2, dc):
                value, witness = phi_r2_with_witness(q, delta)
                assert 0 <= value < 1 and witness is not None, (q, delta)
    finally:
        asymptotics._phi_grid.cache_clear()


CURVES = (gv_curve, hamming_curve, plotkin_curve, be_curve)


def _scalar_z0(q, r, x):
    # one float bisection with libm's pow, the reference for the array one
    a = (q - 1) / q

    def g(z):
        return x * r * (1 + a * sum(z**i for i in range(1, r + 1))) - a * sum(
            i * z**i for i in range(1, r + 1)
        )

    lo, hi = 1e-30, float(max(q, r) + 1)
    while g(hi) > 0:
        hi *= 2
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def _scalar_H(q, r, x):
    if x == 0:
        return 0.0
    z0 = _scalar_z0(q, r, x)
    a = (q - 1) / q * sum(z0**i for i in range(1, r + 1))
    return x * (1 - math.log(z0, q)) + math.log(1 + a, q) / r


def _scalar_curve(fn, q, r, d):
    dc = float(delta_crit(q, r))
    if d <= 0:
        return 1.0
    if fn is hamming_curve:
        return 1.0 - _scalar_H(q, r, d / 2)
    if d >= dc:
        return 0.0
    if fn is gv_curve:
        return 1.0 - _scalar_H(q, r, d)
    if fn is plotkin_curve:
        return 1.0 - d / dc
    return 1.0 - _scalar_H(q, r, dc * (1.0 - math.sqrt(1.0 - d / dc)))


@pytest.mark.parametrize("q, r", [(2, 1), (2, 3), (3, 2), (5, 4)])
def test_sphere_exponent_arrays_match_floats(q, r):
    # a float runs through the array code, and the array code agrees with
    # one libm bisection per point to within numpy's and libm's pow and log
    # (1 - H loses relative precision near delta_crit, hence a few ulps of 1
    # absolute)
    dc = float(delta_crit(q, r))
    rng = np.random.default_rng(q * 10 + r)
    x = np.concatenate([[1e-9, dc / 2, dc], rng.uniform(0, dc, 200)])
    got = z0_solve(q, r, x)
    assert got.tolist() == [z0_solve(q, r, float(v)) for v in x]
    assert got == pytest.approx([_scalar_z0(q, r, v) for v in x.tolist()], rel=1e-15, abs=0)
    x = np.concatenate([[0.0], x])
    got = H(q, r, x)
    assert got.tolist() == [H(q, r, float(v)) for v in x]
    assert got == pytest.approx([_scalar_H(q, r, v) for v in x.tolist()], rel=1e-15, abs=5e-16)
    block = x[:200].reshape(10, 20)  # any shape is elementwise
    assert H(q, r, block).tolist() == got[:200].reshape(10, 20).tolist()
    assert H(q, r, x[1:2].reshape(())).shape == ()
    deltas = np.concatenate([[-0.1, 0.0, dc, 1.5 * dc], rng.uniform(0, dc, 200)])
    for fn in CURVES:
        if fn is hamming_curve:
            deltas = deltas[deltas <= 2 * dc]
        got = fn(q, r, deltas)
        assert isinstance(got, np.ndarray) and got.shape == deltas.shape
        floats = [fn(q, r, float(d)) for d in deltas]
        assert all(type(v) is float for v in floats) and got.tolist() == floats
        want = [_scalar_curve(fn, q, r, d) for d in deltas.tolist()]
        assert got == pytest.approx(want, rel=1e-15, abs=5e-16), fn.__name__
        assert fn(q, r, deltas[:200].reshape(20, 10)).tolist() == got[:200].reshape(20, 10).tolist()


@pytest.mark.parametrize(
    "fn, bad",
    [
        (z0_solve, 0.0),
        (z0_solve, 1.0),
        (z0_solve, math.nan),
        (H, -1e-9),
        (H, 0.9),
        (H, math.nan),
        (gv_curve, math.nan),
        (hamming_curve, 1.8),
        (hamming_curve, math.nan),
        (be_curve, math.nan),
    ],
)
def test_sphere_exponent_arrays_reject_what_floats_reject(fn, bad):
    q, r = 2, 2  # delta_crit = 5/8
    with pytest.raises(ValueError):
        fn(q, r, bad)
    x = np.full(5, 0.3)
    x[3] = bad
    with pytest.raises(ValueError):
        fn(q, r, x)


def test_array_range_errors_name_one_value():
    from nrtbounds.krawtchouk import gamma

    x = np.linspace(0.1, 0.4, 399)
    cases = [
        (lambda v: h_q(2, v), 1.5, -0.25),
        (lambda v: gamma(2, v), 0.75, -0.25),
        (lambda v: z0_solve(2, 2, v), 1.5, -0.25),
        (lambda v: H(2, 2, v), 0.75, -0.25),
    ]
    for fn, high, low in cases:
        for bad in (high, low):
            y = x.copy()
            y[200] = bad
            with pytest.raises(ValueError) as err:
                fn(y)
            message = str(err.value)
            assert str(bad) in message and len(message) < 60, message


def test_lp_curve_limits():
    # small tau: rate to 0, delta to the critical distance
    q, r = 2, 2
    dc = float(delta_crit(q, r))
    assert lp_rate(q, r, 1e-9) == pytest.approx(0.0, abs=1e-6)
    assert lp_curve(q, r, [1e-9])[0].delta == pytest.approx(dc, abs=1e-4)


def test_lp_curve_reduction_to_classical_binary():
    for tau in [j / 200 * 0.5 for j in range(1, 201)]:
        lam, _ = lambda_asym(2, 1, tau)
        delta = 0.5 - lam
        reference = h_q(2, 0.5 - math.sqrt(delta * (1 - delta)))
        assert lp_rate(2, 1, tau) == pytest.approx(reference, abs=1e-6)


def test_lp_curve_sorted_and_sized():
    pts = lp_curve(2, 2, lp_curve_default_taus(2, 25))
    assert len(pts) == 25
    deltas = [p.delta for p in pts]
    assert deltas == sorted(deltas)
    rates = [p.rate for p in pts]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_q3_r1_lp_comparison_is_reported(capsys):
    # the depth-one reduction for q = 3 is compared against the classical
    # q-ary template h_q(((q-1) - (q-2)delta - 2 sqrt((q-1)delta(1-delta)))/q)
    # and reported, not asserted: normalization conventions differ across
    # the literature for q > 2
    import math

    diffs = []
    for tau in [j / 50 * (2 / 3) for j in range(1, 50)]:
        lam, _ = lambda_asym(3, 1, tau)
        delta = float(delta_crit(3, 1)) - lam
        if not 0 < delta < 2 / 3:
            continue
        q = 3
        arg = ((q - 1) - (q - 2) * delta - 2 * math.sqrt((q - 1) * delta * (1 - delta))) / q
        if not 0 <= arg <= 1:
            continue
        diffs.append(abs(lp_rate(3, 1, tau) - h_q(3, arg)))
    assert diffs
    with capsys.disabled():
        print(f"\n[report] q=3 depth-one curve vs classical template: "
              f"max |diff| = {max(diffs):.3e} over {len(diffs)} grid points")


def test_phi_anchors():
    dc = float(delta_crit(2, 2))
    assert phi_r2(2, dc) == pytest.approx(0.0, abs=1e-9)
    assert phi_r2(2, 0.02) == 1.0
    assert phi_r2(2, 0.03) == 1.0


def test_phi_feasibility_threshold():
    # constraint minimum over the box sits near 0.0335 for q = 2
    from nrtbounds.krawtchouk import gamma

    corner = gamma(2, 0.25)  # value of the constraint at the max corner
    assert corner / 2 == pytest.approx(0.0335, abs=5e-4)
    assert phi_r2(2, corner / 2 + 1e-3) < 1.0


def test_phi_non_increasing():
    dc = float(delta_crit(2, 2))
    grid = [dc * j / 40 for j in range(2, 41)]
    vals = [phi_r2(2, d) for d in grid]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_phi_witness_is_feasible():
    val, witness = phi_r2_with_witness(2, 0.3)
    assert witness is not None
    t1, t2 = witness
    from nrtbounds.krawtchouk import gamma

    g2 = gamma(2, t2)
    assert g2 + (2 - g2) * (1 - t2) * gamma(2, t1) <= 2 * 0.3 + 1e-12


def test_psi_examples():
    pt = psi_nets(2, 1.0)
    alpha = math.sqrt(2) - 1
    assert pt.alpha == pytest.approx(alpha, abs=1e-12)
    want = math.log2((1 + alpha) / alpha) - math.log2(1 - alpha)
    assert pt.rate == pytest.approx(want, abs=1e-12)


def test_psi_residual_and_small_delta():
    for delta in (1e-9, 1e-6, 0.25, 1.0, 2.0):
        pt = psi_nets(2, delta)
        a = pt.alpha
        assert abs(delta * a * a + (delta + 1) * a - 1) < 1e-12  # the quadratic at q = 2
        assert 0 < pt.alpha <= 1
    assert psi_nets(2, 1e-9).rate == pytest.approx(0.0, abs=1e-6)
    assert psi_nets(3, 1e-9).alpha == pytest.approx(1.0, abs=1e-6)


def test_nets_rao_is_half_strength():
    for q in (2, 3):
        for delta in (0.2, 0.8, 1.0):
            assert nets_rao(q, delta) == psi_nets(q, delta / 2).rate


def test_curve_point_meta_reproduces_point():
    pts = lp_curve(2, 2, lp_curve_default_taus(2, 10))
    for pt in pts:
        tau = pt.meta["tau"]
        assert lp_rate(2, 2, tau) == pytest.approx(pt.rate, abs=1e-9)
        assert lp_curve(2, 2, [tau])[0].delta == pytest.approx(pt.delta, abs=1e-9)
