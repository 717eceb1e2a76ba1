import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrtbounds import delsarte, simplex
from nrtbounds.simplex import LPError, make_lp, simplex_solve
from nrtbounds.space import SpaceParams


def test_one_variable_toy():
    res = simplex_solve(make_lp([1], [([1], 1)]))
    assert res.objective == 1
    assert res.x == (1,)


def test_pivot_cap_raises_lp_error(monkeypatch):
    import nrtbounds.simplex as simplex_mod

    # maximize x + y with x, y <= 1: one pivot per variable
    lp = make_lp([1, 1], [([1, 0], 1), ([0, 1], 1)])
    assert simplex_solve(lp).objective == 2
    monkeypatch.setattr(simplex_mod, "MAX_PIVOTS", 1)
    with pytest.raises(LPError, match="after 1 pivots"):
        simplex_solve(lp)
    assert simplex_solve(make_lp([1], [([1], 1)])).objective == 1  # one pivot


def test_degenerate_tie_unique_value():
    # two optimal vertices, one optimal value
    lp = make_lp([1, 1], [([1, 0], 1), ([0, 1], 1), ([1, 1], 2)])
    res = simplex_solve(lp)
    assert res.objective == 2


def test_minimize():
    # minimize 2x - 3y st x + y <= 4, x <= 10, as maximize -2x + 3y: the
    # minimum and its duals are the negated maximum and duals
    res = simplex_solve(make_lp([-2, 3], [([1, 1], 4), ([1, 0], 10)]))
    assert -res.objective == -12
    assert res.x == (0, 4)
    assert [-y for y in res.duals] == [-3, 0]


def test_unbounded_raises():
    # the Delsarte program is bounded, so an unbounded one was built wrong
    with pytest.raises(LPError, match="unbounded program: no row limits entering variable 0"):
        simplex_solve(make_lp([1], [([-1], 1)]))


def test_infeasible():
    # x <= 1 and x >= 2 has no point; written as <= rows it needs the
    # negative rhs of -x <= -2, which make_lp refuses, since every program
    # it builds has the feasible point x = 0
    with pytest.raises(ValueError, match="negative right-hand side"):
        make_lp([1], [([1], 1), ([-1], -2)])


def test_make_lp_checks_arity():
    with pytest.raises(ValueError, match="arity"):
        make_lp([1, 1], [([1], 1)])


def test_exact_rational_answer():
    # max x/3 + y/7 s.t. 2x/5 + y <= 9/11, x <= 1, as integers: the
    # objective times 21 and the first row times 55
    lp = make_lp([7, 3], [([22, 55], 45), ([1, 0], 1)])
    res = simplex_solve(lp)
    assert res.x == (1, Fraction(45 - 22, 55))
    assert res.objective == 7 + 3 * Fraction(45 - 22, 55)


@pytest.mark.parametrize("bad", [Fraction(1), 1.0, True])
def test_make_lp_takes_ints_only(bad):
    with pytest.raises(TypeError):
        make_lp([bad], [([1], 1)])
    with pytest.raises(TypeError):
        make_lp([1], [([bad], 1)])
    with pytest.raises(TypeError):
        make_lp([1], [([1], bad)])


def test_duals_on_binding_constraints():
    # max x + y st x <= 2, y <= 3: both bind, duals are the objective weights
    lp = make_lp([1, 1], [([1, 0], 2), ([0, 1], 3)])
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
            rows.append((coeffs, rng.randint(1, 9)))
        # box to keep everything bounded
        for j in range(nvars):
            rows.append(([int(j == i) for i in range(nvars)], 10))
        res = simplex_solve(make_lp(c, rows))
        # weak duality: dual objective equals primal objective
        dual_obj = sum(y * rhs for y, (_, rhs) in zip(res.duals, rows))
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
            rows.append((coeffs, rhs))
            A_ub.append(coeffs)
            b_ub.append(rhs)
        for j in range(nvars):
            coeffs = [int(j == i) for i in range(nvars)]
            rows.append((coeffs, 7))
            A_ub.append(coeffs)
            b_ub.append(7)
        exact = simplex_solve(make_lp(c, rows))
        ref = scipy.linprog(
            [-x for x in c], A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * nvars
        )
        assert ref.status == 0
        assert float(exact.objective) == pytest.approx(-ref.fun, abs=1e-6)


def test_optimal_exactly_when_highs_finds_an_optimum():
    """Unboxed random programs: the simplex raises LPError exactly when
    HiGHS finds no optimum on the same rows, and otherwise returns HiGHS's
    value.  (On some unbounded programs HiGHS's presolve reports infeasible
    instead; x = 0 is feasible, and each program that raises is proved
    unbounded.)"""
    scipy = pytest.importorskip("scipy.optimize")
    rng = random.Random(23)
    raised = set()
    for _ in range(1000):
        nvars, nrows = rng.randint(1, 4), rng.randint(1, 4)
        c = [rng.randint(-6, 6) for _ in range(nvars)]
        rows = [
            ([rng.randint(-6, 6) for _ in range(nvars)], rng.randint(0, 6))
            for _ in range(nrows)
        ]
        ref = scipy.linprog(
            [-v for v in c],
            A_ub=[a for a, _ in rows],
            b_ub=[b for _, b in rows],
            bounds=[(0, None)] * nvars,
        )
        lp = make_lp(c, rows)
        try:
            res = simplex_solve(lp)
        except LPError as exc:
            assert "unbounded" in str(exc) and ref.status != 0, rows
            _assert_unbounded(lp)
            raised.add(True)
            continue
        raised.add(False)
        assert ref.status == 0, rows
        assert float(res.objective) == pytest.approx(-ref.fun, abs=1e-6)
    assert raised == {False, True}


# ---------------------------------------------------------------------------
# Exact optimality and unboundedness properties on random rational programs,
# each multiplied out to an integer program


def integer_program(objective, rows):
    """The rational program (objective, rows of coeffs . x <= rhs) as an
    integer one: row i times s_i, the lcm of its denominators, and the
    objective times c, the lcm of its own.  Returns (program, [s_i], c);
    the integer program has the same x, c times the objective, and
    c y_i / s_i as its dual on row i, and is unbounded where the rational
    one is."""

    def times_lcm(values):
        s = lcm(*(Fraction(v).denominator for v in values))
        return [int(v * s) for v in values], s

    c_int, c = times_lcm(objective)
    int_rows, scales = [], []
    for coeffs, rhs in rows:
        row, s = times_lcm([*coeffs, rhs])
        int_rows.append((row[:-1], row[-1]))
        scales.append(s)
    return make_lp(c_int, int_rows), scales, c


def _rationals(low):
    return st.builds(Fraction, st.integers(low, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))


@st.composite
def programs(draw):
    nvars = draw(st.integers(1, 4))
    vector = st.lists(_rationals(-6), min_size=nvars, max_size=nvars)
    rows = draw(st.lists(st.tuples(vector, _rationals(0)), min_size=1, max_size=4))
    return integer_program(draw(vector), rows)[0]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# max x + y s.t. x <= 3, x - 2y <= 1: after two pivots the slack of the
# second row (variable 3) enters, and no row limits it
SLACK_UNBOUNDED = make_lp([1, 1], [([1, 0], 3), ([1, -2], 1)])


def _assert_primal_feasible(lp, res):
    assert all(v >= 0 for v in res.x)
    for con in lp.constraints:
        assert _dot(con.coeffs, res.x) <= con.rhs
    assert _dot(lp.objective, res.x) == res.objective


def _assert_dual_feasible_with_equal_value(lp, res):
    # y is the rate of change of the optimum in each rhs, and a <= row can
    # only help a maximum
    assert all(y >= 0 for y in res.duals)
    for j, c in enumerate(lp.objective):
        column = [con.coeffs[j] for con in lp.constraints]
        assert _dot(column, res.duals) >= c
    assert _dot(res.duals, [con.rhs for con in lp.constraints]) == res.objective


def _assert_improving_recession_direction(lp, ray):
    assert all(v >= 0 for v in ray) and any(v > 0 for v in ray)
    for con in lp.constraints:
        assert _dot(con.coeffs, ray) <= 0
    assert _dot(lp.objective, ray) > 0


def _assert_unbounded(lp):
    """An improving recession direction of lp exists: the optimum of
    max c.d over A d <= 0, sum d <= 1, d >= 0, a bounded program, is one
    exactly when lp is unbounded."""
    box = [*((con.coeffs, 0) for con in lp.constraints), ([1] * len(lp.objective), 1)]
    _assert_improving_recession_direction(lp, simplex_solve(make_lp(lp.objective, box)).x)


@settings(max_examples=500, deadline=None)
@example(SLACK_UNBOUNDED)
@given(programs())
def test_result_proves_its_status(lp):
    """An optimum is primal and dual feasible with equal values (strong
    duality); a program that raises LPError has an improving recession
    direction."""
    try:
        res = simplex_solve(lp)
    except LPError as exc:
        assert "unbounded" in str(exc)
        _assert_unbounded(lp)
        return
    _assert_primal_feasible(lp, res)
    _assert_dual_feasible_with_equal_value(lp, res)


def test_unbounded_through_a_slack_column():
    with pytest.raises(LPError, match="unbounded program: no row limits entering variable 3"):
        simplex_solve(SLACK_UNBOUNDED)
    _assert_unbounded(SLACK_UNBOUNDED)


# ---------------------------------------------------------------------------
# Row scaling, and the per-row denominators of the integer tableau


def solve_recording_pivots(lp):
    """simplex_solve(lp), or the message of the LPError it raised, and the
    (row, slot) of every pivot it took."""
    pivots = []
    pivot = simplex._Tableau.pivot

    def recording_pivot(tab, row, k):
        pivots.append((row, k))
        pivot(tab, row, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex._Tableau, "pivot", recording_pivot)
        try:
            return simplex_solve(lp), pivots
        except LPError as exc:
            return str(exc), pivots


@st.composite
def scaled_programs(draw):
    """A drawn program and a factor k_i in [1, 12] for each row."""
    lp = draw(programs())
    m = len(lp.constraints)
    return lp, draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))


@settings(max_examples=300, deadline=None)
@example((SLACK_UNBOUNDED, [12, 5]))
@given(scaled_programs())
def test_row_scaling_keeps_the_pivots(case):
    """Row i times k_i: the same pivots, objective and x, and y_i / k_i as
    the dual of row i; or the same pivots up to the same unbounded entering
    variable.  A scaled row has gcd >= k_i, so the tableau divides most of
    them by their gcd."""
    lp, scales = case
    scaled = make_lp(
        lp.objective,
        [([k * a for a in con.coeffs], k * con.rhs) for con, k in zip(lp.constraints, scales)],
    )
    res, pivots = solve_recording_pivots(lp)
    res_k, pivots_k = solve_recording_pivots(scaled)
    assert pivots_k == pivots
    if isinstance(res, str):
        assert res_k == res and "unbounded" in res
    else:
        assert (res_k.objective, res_k.x) == (res.objective, res.x)
        assert res_k.duals == tuple(y / k for y, k in zip(res.duals, scales))


def _fraction_dictionary(T, basis):
    """B^-1 T and |det B| in Fractions, B the columns `basis` of T; row c
    of the result is the row of basis[c]."""
    rows = [[Fraction(v) for v in row] for row in T]
    det = Fraction(1)
    for c, j in enumerate(basis):
        piv = next(i for i in range(c, len(rows)) if rows[i][j])
        rows[c], rows[piv] = rows[piv], rows[c]
        a = rows[c][j]
        det *= a
        rows[c] = [v / a for v in rows[c]]
        for i, row in enumerate(rows):
            if i != c and row[j]:
                f = row[j]
                rows[i] = [v - f * w for v, w in zip(row, rows[c])]
    return rows, abs(det)


def _code_program(q, r, n, d):
    """The integer program delsarte.solve_code_lp solves."""
    programs = []

    def capture(lp):
        programs.append(lp)
        return simplex_solve(lp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delsarte, "simplex_solve", capture)
        delsarte.solve_code_lp(SpaceParams(q, r, n), d)
    return programs[0]


@pytest.mark.parametrize("q, r, n, d", [(2, 2, 6, 4), (2, 3, 4, 5)])
def test_rows_over_their_own_denominators(q, r, n, d):
    """After every pivot, row i over den[i] is row i of B^-1 [A' | I | b']
    for the gcd-reduced rows A' | b', computed afresh in Fractions, R over
    its den is the reduced-cost row, and den[i] is |det B| at the pivot
    that last changed row i (its entry in the entering column was not 0)."""
    lp = _code_program(q, r, n, d)
    m = len(lp.constraints)
    T = []
    for i, con in enumerate(lp.constraints):
        g = gcd(*con.coeffs, con.rhs) or 1
        slack = [int(j == i) for j in range(m)]
        T.append([*(a // g for a in con.coeffs), *slack, con.rhs // g])
    cost = [*lp.objective, *[0] * m]
    dictionary, reduced = T, cost  # of the slack basis, where |det B| = 1
    last_det = [1] * (m + 1)
    pivots = 0
    pivot = simplex._Tableau.pivot

    def checking(tab, row, k):
        nonlocal dictionary, reduced, pivots
        entering = tab.nonbasic[k]
        column = [*(row[entering] for row in dictionary), reduced[entering]]
        pivot(tab, row, k)
        dictionary, det = _fraction_dictionary(T, tab.basis)
        reduced = [
            c - sum(cost[b] * dictionary[i][j] for i, b in enumerate(tab.basis))
            for j, c in enumerate([*cost, 0])
        ]
        for i, v in enumerate(column):
            if v:
                last_det[i] = det
        for i in range(m):
            assert [Fraction(v, tab.den[i]) for v in tab.M[i]] == [
                *(dictionary[i][j] for j in tab.nonbasic),
                dictionary[i][-1],
            ]
        assert [Fraction(v, tab.den[m]) for v in tab.R] == [
            *(reduced[j] for j in tab.nonbasic),
            reduced[-1],
        ]
        assert tab.den == last_det
        assert tab.D == det
        pivots += 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex._Tableau, "pivot", checking)
        simplex_solve(lp)
    assert pivots > 20
    # the reduction was real: some rows have a gcd above 1
    assert any(gcd(*con.coeffs, con.rhs) > 1 for con in lp.constraints)
