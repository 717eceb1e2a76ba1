"""Pinned simplex results: the exact output of every program below, as
recorded from the Fraction-tableau simplex that preceded the integer one.

Bland's rule fixes the pivot path, so a solver that keeps the path gives
bit-identical status, objective, x, duals and ray.  The fixture
`simplex_paths.json` holds those results as rational strings for seeded
random programs (fractional data, all three relations, negative right-hand
sides, both senses; optimal, infeasible and unbounded) and for the Delsarte
programs of four small spaces, together with the distributions and
certificates `delsarte` builds from them.  The array programs are those of
`solve_ooa_lp_direct` below, the array program solved by a simplex of its
own; `delsarte.solve_ooa_lp` goes through the code program instead.

The simplex takes integer programs only, and the Delsarte programs are
integer programs, so their pins are compared bit for bit.  A random
program is multiplied out to integers first, row i by s_i and the
objective by c (`test_simplex.integer_program`); its pin is then read
through that map: the same x, c times the objective, c y_i / s_i as the
dual of row i, and a positive multiple of the ray.  The Fraction-era
solver ran phase 1 on the artificials of the unmultiplied rows, so on the
`PATH_SENSITIVE_SEEDS` it took another path; there the integer program's
own result is pinned in `INTEGER_PATHS` instead.

Re-record the Delsarte sections (only from a solver known to keep the
path); the random section stays as it is:

    PYTHONPATH=src python tests/test_simplex_paths.py
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from nrtbounds import delsarte
from nrtbounds.krawtchouk import krawtchouk_table
from nrtbounds.simplex import EQ, GE, LE, make_lp, simplex_solve
from nrtbounds.space import SpaceParams, enumerate_shapes, shape_weight
from test_simplex import _assert_improving_recession_direction, integer_program

FIXTURE = Path(__file__).with_name("simplex_paths.json")

# Random programs pinned: a contiguous block of seeds, plus seeds on which
# giving every artificial the phase-1 cost -1, instead of the Fraction-era
# -L/s_i (row i multiplied out by s_i, L = lcm(s)), leaves Bland's path and
# changes the result.
RANDOM_SEEDS = list(range(300))
PATH_SENSITIVE_SEEDS = [3324, 6673, 9825, 10546]
ALL_SEEDS = sorted(set(RANDOM_SEEDS) | set(PATH_SENSITIVE_SEEDS))

# The integer programs of the path-sensitive seeds, solved by the integer
# simplex with phase-1 costs -1: unbounded, as in the fixture, on another ray.
INTEGER_PATHS = {
    3324: ["1/69", "17/230", "29/345", "0"],
    6673: ["16/5", "1", "92/45"],
    9825: ["0", "2/67", "3/67", "11/201"],
    10546: ["1", "45/8", "13/2", "0", "81/8"],
}

# The spaces of the benchmark's lp-sweep workload: every distance and strength.
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


def _strs(values):
    return None if values is None else [str(v) for v in values]


def encode(res) -> dict:
    return {
        "status": res.status,
        "objective": None if res.objective is None else str(res.objective),
        "x": _strs(res.x),
        "duals": _strs(res.duals),
        "ray": _strs(res.ray),
    }


def _key(e) -> str:
    return ",".join(map(str, e))


def _rationals(mapping) -> dict:
    return {_key(e): str(v) for e, v in sorted(mapping.items())}


def solve_ooa_lp_direct(params: SpaceParams, t: int):
    """The array program at strength t solved by its own simplex: its
    bound and its distribution B."""
    T = krawtchouk_table(params)
    zero, free = T.shapes[0], T.shapes[1:]
    # row f != 0: sum_{e != 0} K_f(e) B_e = or >= -K_f(0) = -v_f
    rows = [
        (list(row[1:]), EQ if shape_weight(f) <= t else GE, -row[0])
        for f, row in zip(free, T.rows[1:])
    ]
    # through delsarte's name, so that `solve_capturing` records this program too
    res = delsarte.simplex_solve(make_lp([1] * len(free), rows, maximize=False))
    assert res.status == "optimal", res.status
    distribution = {zero: Fraction(1)}
    distribution.update((e, val) for e, val in zip(free, res.x) if val != 0)
    return SimpleNamespace(bound=1 + res.objective, distribution=distribution)


def delsarte_programs(params: SpaceParams):
    """(name, solver call) for every code distance and array strength."""
    for d in range(2, params.dim + 2):
        yield f"I d{d}", lambda d=d: delsarte.solve_code_lp(params, d)
    for t in range(0, params.dim + 1):
        yield f"II t{t}", lambda t=t: solve_ooa_lp_direct(params, t)


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
    """(key, simplex results, distribution, certificate or None) for every
    program of the space."""
    for name, call in delsarte_programs(SpaceParams(*space)):
        out, seen = solve_capturing(call)
        cert = getattr(out, "certificate", None)
        yield (
            f"{_space_name(*space)} {name}",
            [encode(res) for res in seen],
            _rationals(out.distribution),
            cert and {"F0": str(cert.F0), "F": _rationals(cert.F)},
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
                if cert:
                    data["certificates"][key] = cert
    return data


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert set(pinned["random"]) == {str(s) for s in ALL_SEEDS}
    statuses = {v["status"] for v in pinned["random"].values()}
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert len(pinned["delsarte"]) == sum(2 * SpaceParams(*s).dim + 1 for s in SPACES)


def _fractions(values):
    return [Fraction(v) for v in values]


@pytest.mark.parametrize("seed", ALL_SEEDS)
def test_random_program_pinned(pinned, seed):
    lp, s, c = integer_program(*random_program(seed))
    res = simplex_solve(lp)
    pin = pinned["random"][str(seed)]
    assert res.status == pin["status"]
    if seed in INTEGER_PATHS:
        assert list(res.ray) == _fractions(INTEGER_PATHS[seed])
        _assert_improving_recession_direction(lp, res)
    elif res.status == "optimal":
        assert list(res.x) == _fractions(pin["x"])
        assert res.objective == c * Fraction(pin["objective"])
        assert list(res.duals) == [
            c * y / si for y, si in zip(_fractions(pin["duals"]), s)
        ]
    elif res.status == "unbounded":
        ray = _fractions(pin["ray"])
        j = next(j for j, v in enumerate(ray) if v)
        factor = res.ray[j] / ray[j]
        assert factor > 0 and list(res.ray) == [factor * v for v in ray]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: _space_name(*s))
def test_delsarte_programs_pinned(pinned, space):
    for key, results, distribution, cert in delsarte_cases(space):
        expected = [pinned["delsarte"][key]] if key in pinned["delsarte"] else []
        assert results == expected, key
        if space in DELSARTE_SPACES:
            assert distribution == pinned["distributions"][key], key
            assert cert == pinned["certificates"].get(key), key


@pytest.mark.parametrize("space", SPACES, ids=lambda s: _space_name(*s))
def test_array_program_through_code_program(space):
    # an exactly feasible B (B >= 0, B_0 = 1, T B = 0 at 1 <= |f|' <= t and
    # T B >= 0 above) whose value sum B is the bound its certificate proves
    # for every array of strength t: so B is optimal, and its value is the
    # optimum the array program's own simplex finds
    p = SpaceParams(*space)
    tbl = krawtchouk_table(p)
    shapes = list(enumerate_shapes(p))
    for t in range(p.dim + 1):
        res = delsarte.solve_ooa_lp(p, t)
        check = delsarte.check_certificate(res.certificate)
        assert check.accepted and check.ooa_bound == res.bound, t
        assert res.bound == solve_ooa_lp_direct(p, t).bound, t
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
