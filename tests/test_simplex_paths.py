"""Pinned simplex results: the exact output of every program below, as
recorded from the Fraction-tableau simplex that preceded the integer one.

Bland's rule fixes the pivot path, so a solver that keeps the path gives
bit-identical objective, x and duals.  The fixture
`simplex_paths.json` holds those results as rational strings for seeded
random programs and for the code programs of four small spaces, together
with the distributions and certificates `delsarte` builds from them.

The random programs were drawn with fractional data, all three relations
`<=`, `>=` and `==`, right-hand sides of either sign and both senses, for
the two-phase solver that came before the one-phase one.  Each is read as
the program the simplex takes (`as_upper_bounds`): a `>=` row negated, an
`==` row as two rows, a minimization as the maximization of the negated
objective.  Where that gives a negative right-hand side, x = 0 is not
feasible, the program lies outside the solver's domain and `make_lp` must
refuse it, and no pin is kept.  Otherwise the pin is read: bit for bit
where each row is one `<=` row with a slack, the path the two-phase solver
took too, and by status and optimal value where an `==` row or a `>=` row
with right-hand side 0 sent that solver through its phase 1.

The simplex takes integer programs only, and the Delsarte programs are
integer programs, so their pins are compared bit for bit.  A random
program is multiplied out to integers first, row i by s_i and the
objective by c (`test_simplex.integer_program`); its pin is then read
through that map: the same x, c times the objective, c y_i / s_i as the
dual of row i.  A random program pinned as unbounded must raise LPError:
the simplex solves only the bounded Delsarte program, and keeps no ray.
The Delsarte pins still hold the status "optimal" and no ray, which
`encode` writes for every result.

The array program has no pins of its own: `delsarte.solve_ooa_lp` solves
it through the code program, and `array_program_dual` below, the array
program's LP dual solved by the same simplex, cross-checks its value.

Re-record the Delsarte sections (only from a solver known to keep the
path); the random section stays as it is:

    PYTHONPATH=src python tests/test_simplex_paths.py
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nrtbounds import delsarte
from nrtbounds.krawtchouk import krawtchouk_table
from nrtbounds.simplex import LPError, make_lp, simplex_solve
from nrtbounds.space import SpaceParams, enumerate_shapes, shape_weight
from test_simplex import (
    _assert_dual_feasible_with_equal_value,
    _assert_improving_recession_direction,
    _assert_primal_feasible,
    integer_program,
)

FIXTURE = Path(__file__).with_name("simplex_paths.json")

# The relations of the random programs.
LE, GE, EQ = "<=", ">=", "=="

# Random programs: a contiguous block of seeds, plus four seeds that were
# pinned for the path the two-phase solver's phase 1 took on them; all four
# have a negative right-hand side in the one-phase form.
RANDOM_SEEDS = list(range(300))
PATH_SENSITIVE_SEEDS = [3324, 6673, 9825, 10546]
ALL_SEEDS = sorted(set(RANDOM_SEEDS) | set(PATH_SENSITIVE_SEEDS))

# The spaces of the benchmark's lp-sweep workload: every distance.
SPACES = [(2, 2, 6), (3, 2, 6), (2, 3, 4), (2, 4, 3)]
# Distributions and certificates are pinned on these two.
DELSARTE_SPACES = [(2, 2, 6), (2, 3, 4)]


def random_program(seed: int):
    """(objective, rows, maximize) of a small program with fractional data:
    most rows carry a non-unit denominator, and right-hand sides take
    either sign."""
    rng = random.Random(seed)
    nvars, nrows = rng.randint(1, 5), rng.randint(1, 5)

    def frac():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))

    rows = [
        ([frac() for _ in range(nvars)], rng.choice((LE, LE, GE, EQ)), frac())
        for _ in range(nrows)
    ]
    return [frac() for _ in range(nvars)], rows, rng.random() < 0.5


def as_upper_bounds(objective, rows, maximize):
    """The program to maximize, with rows coeffs . x <= rhs: a >= row
    negated, an == row as itself and its negation, and a minimization as
    its negated objective."""
    upper = []
    for coeffs, rel, rhs in rows:
        if rel != GE:
            upper.append((coeffs, rhs))
        if rel != LE:
            upper.append(([-a for a in coeffs], -rhs))
    return [v if maximize else -v for v in objective], upper


def one_phase_seeds():
    """The seeds whose programs the one-phase simplex takes."""
    return [
        seed
        for seed in ALL_SEEDS
        if all(rhs >= 0 for _, rhs in as_upper_bounds(*random_program(seed))[1])
    ]


def _strs(values):
    return None if values is None else [str(v) for v in values]


def encode(res) -> dict:
    """An optimum as the fixture holds it, with the status and ray the
    solver once returned."""
    return {
        "status": "optimal",
        "objective": str(res.objective),
        "x": _strs(res.x),
        "duals": _strs(res.duals),
        "ray": None,
    }


def _key(e) -> str:
    return ",".join(map(str, e))


def _rationals(mapping) -> dict:
    return {_key(e): str(v) for e, v in sorted(mapping.items())}


def array_program_dual(params: SpaceParams, t: int) -> Fraction:
    """1 + the optimum of the array program at strength t, from its LP dual.

    The array program minimizes sum_{e != 0} B_e over B >= 0 subject to
    sum_{e != 0} K_f(e) B_e = -v_f at each f != 0 with |f|' <= t, and >= -v_f
    above, v_f = K_f(0).  Its dual maximizes -sum_f v_f y_f subject to
    sum_f K_f(e) y_f <= 1 at each e != 0, with y_f >= 0 on the >= rows and
    y_f = u_f - w_f, u, w >= 0, on the == rows.  Every right-hand side is
    1, so the one-phase simplex solves it, and by strong duality its
    optimum is the array program's.
    """
    T = krawtchouk_table(params)
    columns, objective = [], []  # one per dual variable, column[e] = K_f(e)
    for f, row in zip(T.shapes[1:], T.rows[1:]):
        for sign in (1, -1) if shape_weight(f) <= t else (1,):
            columns.append([sign * k for k in row[1:]])
            objective.append(-sign * row[0])
    rows = [([col[e] for col in columns], 1) for e in range(len(T.shapes) - 1)]
    return 1 + simplex_solve(make_lp(objective, rows)).objective


def code_programs(params: SpaceParams):
    """(name, solver call) for every code distance."""
    for d in range(2, params.dim + 2):
        yield f"I d{d}", lambda d=d: delsarte.solve_code_lp(params, d)


def solve_capturing(call):
    """Run a delsarte solver; return its result and the simplex results
    it used."""
    seen = []

    def recording(lp):
        seen.append(simplex_solve(lp))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delsarte, "simplex_solve", recording)
        return call(), seen


def _space_name(q, r, n) -> str:
    return f"q{q} r{r} n{n}"


def delsarte_cases(space):
    """(key, simplex results, distribution, certificate) for every code
    program of the space."""
    for name, call in code_programs(SpaceParams(*space)):
        out, seen = solve_capturing(call)
        cert = out.certificate
        yield (
            f"{_space_name(*space)} {name}",
            [encode(res) for res in seen],
            _rationals(out.distribution),
            {"F0": str(cert.F0), "F": _rationals(cert.F)},
        )


def record() -> dict:
    data = {
        "random": json.loads(FIXTURE.read_text())["random"],
        "delsarte": {},
        "distributions": {},
        "certificates": {},
    }
    for space in SPACES:
        for key, results, distribution, cert in delsarte_cases(space):
            data["delsarte"].update({key: res for res in results})
            if space in DELSARTE_SPACES:
                data["distributions"][key] = distribution
                data["certificates"][key] = cert
    return data


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert set(pinned["random"]) == {str(s) for s in one_phase_seeds()}
    statuses = {v["status"] for v in pinned["random"].values()}
    assert statuses == {"optimal", "unbounded"}
    assert len(pinned["delsarte"]) == sum(SpaceParams(*s).dim for s in SPACES)


def _fractions(values):
    return [Fraction(v) for v in values]


@pytest.mark.parametrize("seed", ALL_SEEDS)
def test_random_program_pinned(pinned, seed):
    objective, rows, maximize = random_program(seed)
    upper = as_upper_bounds(objective, rows, maximize)
    if str(seed) not in pinned["random"]:
        with pytest.raises(ValueError, match="negative right-hand side"):
            integer_program(*upper)
        return
    lp, s, c = integer_program(*upper)
    pin = pinned["random"][str(seed)]
    if pin["status"] == "unbounded":
        # the pinned ray proves the program unbounded
        _assert_improving_recession_direction(lp, _fractions(pin["ray"]))
        with pytest.raises(LPError, match="unbounded"):
            simplex_solve(lp)
        return
    res = simplex_solve(lp)
    sense = 1 if maximize else -1
    if not all(rel == LE or rel == GE and rhs < 0 for _, rel, rhs in rows):
        # the two-phase solver took its phase 1 here: the value and a proof
        assert res.objective == sense * c * Fraction(pin["objective"])
        _assert_primal_feasible(lp, res)
        _assert_dual_feasible_with_equal_value(lp, res)
    else:
        assert list(res.x) == _fractions(pin["x"])
        assert res.objective == sense * c * Fraction(pin["objective"])
        # a >= row was negated to a <= row, and its dual with it
        flips = [1 if rel == LE else -1 for _, rel, _ in rows]
        assert list(res.duals) == [
            sense * flip * c * y / si for y, si, flip in zip(_fractions(pin["duals"]), s, flips)
        ]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: _space_name(*s))
def test_delsarte_programs_pinned(pinned, space):
    for key, results, distribution, cert in delsarte_cases(space):
        assert results == [pinned["delsarte"][key]], key
        if space in DELSARTE_SPACES:
            assert distribution == pinned["distributions"][key], key
            assert cert == pinned["certificates"][key], key


@pytest.mark.parametrize("space", SPACES, ids=lambda s: _space_name(*s))
def test_array_program_through_code_program(space):
    # an exactly feasible B (B >= 0, B_0 = 1, T B = 0 at 1 <= |f|' <= t and
    # T B >= 0 above) whose value sum B is the bound its certificate proves
    # for every array of strength t: so B is optimal, and its value is the
    # optimum of the array program's LP dual
    p = SpaceParams(*space)
    tbl = krawtchouk_table(p)
    shapes = list(enumerate_shapes(p))
    for t in range(p.dim + 1):
        res = delsarte.solve_ooa_lp(p, t)
        check = delsarte.check_certificate(res.certificate)
        assert check.accepted and check.ooa_bound == res.bound, t
        assert res.bound == array_program_dual(p, t), t
        B = res.distribution
        assert B[shapes[0]] == 1 and all(b > 0 for b in B.values())
        assert sum(B.values()) == res.bound
        for f in shapes[1:]:
            TB = sum(tbl[(f, e)] * b for e, b in B.items())
            assert TB == 0 if shape_weight(f) <= t else TB >= 0, (t, f)


def dump(data: dict) -> str:
    """The fixture as JSON with one line per case."""
    sections = []
    for section, cases in sorted(data.items()):
        lines = ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(cases.items())
        )
        sections.append(f"{json.dumps(section)}: {{\n{lines}\n}}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    FIXTURE.write_text(dump(record()))
