import random
from fractions import Fraction
from math import lcm

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
    # max x/3 + y/7 s.t. 2x/5 + y <= 9/11, x <= 1, as integers: the
    # objective times 21 and the first row times 55
    lp = make_lp([7, 3], [([22, 55], LE, 45), ([1, 0], LE, 1)])
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.x == (1, Fraction(45 - 22, 55))
    assert res.objective == 7 + 3 * Fraction(45 - 22, 55)


@pytest.mark.parametrize("bad", [Fraction(1), 1.0, True])
def test_make_lp_takes_ints_only(bad):
    with pytest.raises(TypeError):
        make_lp([bad], [([1], LE, 1)])
    with pytest.raises(TypeError):
        make_lp([1], [([bad], LE, 1)])
    with pytest.raises(TypeError):
        make_lp([1], [([1], LE, bad)])


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
        c = [rng.randint(0, 5) for _ in range(nvars)]
        rows = []
        for _ in range(nrows):
            coeffs = [rng.randint(0, 4) for _ in range(nvars)]
            rows.append((coeffs, LE, rng.randint(1, 9)))
        # box to keep everything bounded
        for j in range(nvars):
            rows.append(([int(j == i) for i in range(nvars)], LE, 10))
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


def test_infeasible_exactly_when_highs_finds_no_point():
    """`infeasible` is the one status that carries no certificate, so it is
    checked against HiGHS on the same rows under a zero objective, where
    HiGHS cannot mistake an unbounded program for an infeasible one."""
    scipy = pytest.importorskip("scipy.optimize")
    rng = random.Random(23)
    statuses = set()
    for _ in range(1000):
        nvars, nrows = rng.randint(1, 4), rng.randint(1, 4)
        c = [rng.randint(-6, 6) for _ in range(nvars)]
        rows = []
        for _ in range(nrows):
            coeffs = [rng.randint(-6, 6) for _ in range(nvars)]
            rows.append((coeffs, rng.choice((LE, GE, EQ)), rng.randint(-6, 6)))
        maximize = rng.random() < 0.5
        res = simplex_solve(make_lp(c, rows, maximize))
        statuses.add(res.status)
        A_ub = [a if rel == LE else [-v for v in a] for a, rel, _ in rows if rel != EQ]
        b_ub = [b if rel == LE else -b for _, rel, b in rows if rel != EQ]
        eq = [(a, b) for a, rel, b in rows if rel == EQ]
        kw = dict(
            A_ub=A_ub or None,
            b_ub=b_ub or None,
            A_eq=[a for a, _ in eq] or None,
            b_eq=[b for _, b in eq] or None,
            bounds=[(0, None)] * nvars,
        )
        feasible = scipy.linprog([0] * nvars, **kw)
        assert feasible.status in (0, 2)
        assert (res.status == "infeasible") == (feasible.status == 2), rows
        if res.status == "optimal":
            sense = -1 if maximize else 1
            ref = scipy.linprog([sense * v for v in c], **kw)
            assert ref.status == 0
            assert float(res.objective) == pytest.approx(sense * ref.fun, abs=1e-6)
    assert statuses == {"optimal", "infeasible", "unbounded"}


# ---------------------------------------------------------------------------
# Exact optimality and unboundedness properties on random rational programs,
# each multiplied out to an integer program


def integer_program(objective, rows, maximize):
    """The rational program (objective, rows, maximize) as an integer one:
    row i times s_i, the lcm of its denominators, and the objective times c,
    the lcm of its own.  Returns (program, [s_i], c); the integer program
    has the same x and rays, c times the objective, and c y_i / s_i as its
    dual on row i."""

    def times_lcm(values):
        s = lcm(*(Fraction(v).denominator for v in values))
        return [int(v * s) for v in values], s

    c_int, c = times_lcm(objective)
    int_rows, scales = [], []
    for coeffs, rel, rhs in rows:
        row, s = times_lcm([*coeffs, rhs])
        int_rows.append((row[:-1], rel, row[-1]))
        scales.append(s)
    return make_lp(c_int, int_rows, maximize), scales, c


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
    return integer_program(draw(vector), rows, draw(st.booleans()))[0]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# max x s.t. 3x >= 2: phase 2 enters the surplus, and moving the surplus by
# one raises x by a third
SURPLUS_RAY = make_lp([1], [([3], GE, 2)])


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
    assert res.ray == (Fraction(1, 3),)
