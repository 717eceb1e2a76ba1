import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrtbounds.simplex import EQ, GE, LE, LPError, make_lp, simplex_solve


def test_one_variable_toy():
    res = simplex_solve(make_lp([1], [([1], LE, 1)]))
    assert res.status == "optimal"
    assert res.objective == 1
    assert res.x == (1,)


def test_pivot_cap_raises_lp_error(monkeypatch):
    import nrtbounds.simplex as simplex_mod

    # maximize x + y with x, y <= 1: one pivot per variable
    lp = make_lp([1, 1], [([1, 0], LE, 1), ([0, 1], LE, 1)])
    assert simplex_solve(lp).objective == 2
    monkeypatch.setattr(simplex_mod, "MAX_PIVOTS", 1)
    with pytest.raises(LPError, match="after 1 pivots"):
        simplex_solve(lp)
    assert simplex_solve(make_lp([1], [([1], LE, 1)])).objective == 1  # one pivot


def test_degenerate_tie_unique_value():
    # two optimal vertices, one optimal value
    lp = make_lp([1, 1], [([1, 0], LE, 1), ([0, 1], LE, 1), ([1, 1], LE, 2)])
    res = simplex_solve(lp)
    assert res.objective == 2


def test_minimize():
    lp = make_lp([2, 3], [([1, 1], GE, 4), ([1, 0], LE, 10)], maximize=False)
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.objective == 8
    assert res.x == (4, 0)


def test_equality_constraints():
    lp = make_lp([1, 1], [([1, 1], EQ, 3), ([1, 0], LE, 2)])
    res = simplex_solve(lp)
    assert res.objective == 3


def test_unbounded_with_ray():
    res = simplex_solve(make_lp([1], [([-1], LE, 1)]))
    assert res.status == "unbounded"
    assert res.ray == (1,)


def test_infeasible():
    res = simplex_solve(make_lp([1], [([1], LE, 1), ([1], GE, 2)]))
    assert res.status == "infeasible"


def test_exact_rational_answer():
    lp = make_lp(
        [Fraction(1, 3), Fraction(1, 7)],
        [([Fraction(2, 5), 1], LE, Fraction(9, 11)), ([1, 0], LE, 1)],
    )
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.objective == Fraction(1, 3) + Fraction(1, 7) * (
        Fraction(9, 11) - Fraction(2, 5)
    )


def test_duals_on_binding_constraints():
    # max x + y st x <= 2, y <= 3: both bind, duals are the objective weights
    lp = make_lp([1, 1], [([1, 0], LE, 2), ([0, 1], LE, 3)])
    res = simplex_solve(lp)
    assert res.duals == (1, 1)


def test_dual_is_rhs_sensitivity():
    rng = random.Random(12)
    for _ in range(30):
        nvars = rng.randint(1, 4)
        nrows = rng.randint(1, 4)
        c = [Fraction(rng.randint(0, 5)) for _ in range(nvars)]
        rows = []
        for _ in range(nrows):
            coeffs = [Fraction(rng.randint(0, 4)) for _ in range(nvars)]
            rows.append((coeffs, LE, Fraction(rng.randint(1, 9))))
        # box to keep everything bounded
        for j in range(nvars):
            rows.append(([Fraction(int(j == i)) for i in range(nvars)], LE, Fraction(10)))
        res = simplex_solve(make_lp(c, rows))
        assert res.status == "optimal"
        # weak duality: dual objective equals primal objective
        dual_obj = sum(y * rhs for y, (_, _, rhs) in zip(res.duals, rows))
        assert dual_obj == res.objective
        assert all(y >= 0 for y in res.duals)


def test_against_floating_solver():
    scipy = pytest.importorskip("scipy.optimize")
    rng = random.Random(99)
    for _ in range(40):
        nvars = rng.randint(1, 5)
        nrows = rng.randint(1, 5)
        c = [rng.randint(-3, 5) for _ in range(nvars)]
        rows = []
        A_ub, b_ub = [], []
        for _ in range(nrows):
            coeffs = [rng.randint(-2, 4) for _ in range(nvars)]
            rhs = rng.randint(0, 8)
            rows.append((coeffs, LE, rhs))
            A_ub.append(coeffs)
            b_ub.append(rhs)
        for j in range(nvars):
            coeffs = [int(j == i) for i in range(nvars)]
            rows.append((coeffs, LE, 7))
            A_ub.append(coeffs)
            b_ub.append(7)
        exact = simplex_solve(make_lp(c, rows))
        ref = scipy.linprog(
            [-x for x in c], A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * nvars
        )
        assert exact.status == "optimal" and ref.status == 0
        assert float(exact.objective) == pytest.approx(-ref.fun, abs=1e-6)


# ---------------------------------------------------------------------------
# Exact optimality and unboundedness properties on random fractional programs

rationals = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6])
)


@st.composite
def programs(draw):
    nvars = draw(st.integers(1, 4))
    vector = st.lists(rationals, min_size=nvars, max_size=nvars)
    rows = draw(
        st.lists(
            st.tuples(vector, st.sampled_from([LE, GE, EQ]), rationals),
            min_size=1,
            max_size=4,
        )
    )
    return make_lp(draw(vector), rows, maximize=draw(st.booleans()))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# max x s.t. x/2 >= 1/3: phase 2 enters the surplus of a scaled row, and
# moving the surplus by one raises x by two
SURPLUS_RAY = make_lp([1], [([Fraction(1, 2)], GE, Fraction(1, 3))])


def _assert_primal_feasible(lp, res):
    assert all(v >= 0 for v in res.x)
    for con in lp.constraints:
        lhs = _dot(con.coeffs, res.x)
        assert {LE: lhs <= con.rhs, GE: lhs >= con.rhs, EQ: lhs == con.rhs}[con.rel]
    assert _dot(lp.objective, res.x) == res.objective


def _assert_dual_feasible_with_equal_value(lp, res):
    # y is the rate of change of the optimum in each rhs: a <= row can only
    # help a maximum, a >= row only hurt it, and the reverse for a minimum
    sense = 1 if lp.maximize else -1
    for con, y in zip(lp.constraints, res.duals):
        assert {LE: sense * y >= 0, GE: sense * y <= 0, EQ: True}[con.rel]
    for j, c in enumerate(lp.objective):
        column = [con.coeffs[j] for con in lp.constraints]
        assert sense * (_dot(column, res.duals) - c) >= 0
    assert _dot(res.duals, [con.rhs for con in lp.constraints]) == res.objective


def _assert_improving_recession_direction(lp, res):
    assert all(v >= 0 for v in res.ray) and any(v > 0 for v in res.ray)
    for con in lp.constraints:
        lhs = _dot(con.coeffs, res.ray)
        assert {LE: lhs <= 0, GE: lhs >= 0, EQ: lhs == 0}[con.rel]
    gain = _dot(lp.objective, res.ray)
    assert gain > 0 if lp.maximize else gain < 0


@settings(max_examples=500, deadline=None)
@example(SURPLUS_RAY)
@given(programs())
def test_result_proves_its_status(lp):
    """An optimum is primal and dual feasible with equal values (strong
    duality); an unbounded result carries an improving recession ray."""
    res = simplex_solve(lp)
    if res.status == "optimal":
        _assert_primal_feasible(lp, res)
        _assert_dual_feasible_with_equal_value(lp, res)
    elif res.status == "unbounded":
        _assert_improving_recession_direction(lp, res)
    else:
        assert res.status == "infeasible"


def test_ray_through_a_surplus_column():
    res = simplex_solve(SURPLUS_RAY)
    assert res.status == "unbounded"
    assert res.ray == (2,)
