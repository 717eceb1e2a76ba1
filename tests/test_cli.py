import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from math import isfinite

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrtbounds.cli import build_parser, main
from nrtbounds.delsarte import certificate_from_json, check_certificate, format_rational
from nrtbounds.space import ArrayTable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "nrtbounds 0.1.0" in capsys.readouterr().out


def test_main_repeats_in_one_process(capsys):
    # the parser is built once per process; a usage error or --version in
    # one call changes nothing in the calls after it
    calls = [
        ("--version",),
        ("sphere", "--q", "2", "--r", "2"),  # argparse: --n is required
        ("lp", "--q", "2", "--r", "2", "--n", "3", "--d", "4", "--program", "I"),
        ("sphere", "--q", "1", "--r", "2", "--n", "2"),  # ValueError
        ("bounds", "--q", "2", "--r", "1", "--n", "3", "--d", "2"),
    ]
    seen = {}
    for argv in calls + calls[::-1] + calls:
        result = run(capsys, *argv)
        assert seen.setdefault(argv, result) == result, argv
    assert [seen[argv][0] for argv in calls] == [0, 2, 0, 2, 0]
    assert "required: --n" in seen[calls[1]][2]
    assert build_parser() is build_parser()


def test_sphere(capsys):
    code, out, _ = run(capsys, "sphere", "--q", "2", "--r", "2", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"q": 2, "r": 2, "n": 2}
    assert [s["count"] for s in payload["shapes"]] == [1, 2, 4, 1, 4, 4]
    assert payload["total"] == 16
    assert payload["sphere_sizes"] == [1, 2, 5, 4, 4]


def test_sphere_stratum(capsys):
    code, out, _ = run(capsys, "sphere", "--q", "2", "--r", "2", "--n", "2", "--d", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["sphere_size"] == 5
    assert all(s["weight"] == 2 for s in payload["shapes"])


def test_sphere_shape_cap_exits_3(capsys, monkeypatch):
    import nrtbounds.cli as cli_mod

    def unbuilt(params):
        raise AssertionError("shapes built")

    # q2 r30 n5 has C(35, 5) = 324632 shapes; the cap refuses them unbuilt
    with monkeypatch.context() as m:
        m.setattr(cli_mod, "enumerate_shapes", unbuilt)
        code, out, err = run(capsys, "sphere", "--q", "2", "--r", "30", "--n", "5")
    assert code == 3
    assert out == ""
    assert err == "budget exceeded: 324632 shapes exceed cap SPHERE_SHAPE_CAP = 65536\n"
    # q2 r2 n2 has 6 shapes, with or without a weight stratum
    space = ("sphere", "--q", "2", "--r", "2", "--n", "2")
    for argv in (space, space + ("--d", "2")):
        monkeypatch.setattr(cli_mod, "SPHERE_SHAPE_CAP", 6)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli_mod, "SPHERE_SHAPE_CAP", 5)
        assert run(capsys, *argv)[0] == 3


def test_sphere_bad_params(capsys):
    code, _, err = run(capsys, "sphere", "--q", "1", "--r", "2", "--n", "2")
    assert code == 2
    assert "q" in err


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "--q", "2", "--r", "2", "--n", "2", "--d", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_upper"] == "singleton"
    by_name = {b["name"]: b for b in payload["bounds"]}
    assert by_name["plotkin"]["value"] == "8/3"
    assert by_name["singleton"]["value"] == "2/1"
    inapplicable = [b for b in payload["bounds"] if not b["applicable"]]
    for b in inapplicable:
        assert b["reason"]


def test_bounds_d1(capsys):
    code, out, _ = run(capsys, "bounds", "--q", "2", "--r", "2", "--n", "2", "--d", "1")
    payload = json.loads(out)
    assert code == 0
    by_name = {b["name"]: b for b in payload["bounds"]}
    assert by_name["singleton"]["value"] == "16/1"


def test_lp_program_one(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "lp", "--q", "2", "--r", "2", "--n", "1", "--d", "2",
        "--program", "I", "--certificate", str(cert),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2/1"
    saved = json.loads(cert.read_text())
    assert saved["d"] == 2 and saved["F0"] == "1/1"


def test_lp_program_two(capsys):
    code, out, _ = run(
        capsys, "lp", "--q", "2", "--r", "1", "--n", "3", "--t", "2", "--program", "II"
    )
    assert code == 0
    assert json.loads(out)["value"] == "4/1"
    code, out, _ = run(
        capsys, "lp", "--q", "2", "--r", "1", "--n", "3", "--t", "0", "--program", "II"
    )
    assert json.loads(out)["value"] == "1/1"


def test_lp_missing_threshold(capsys):
    code, _, err = run(
        capsys, "lp", "--q", "2", "--r", "1", "--n", "3", "--program", "I"
    )
    assert code == 2


def test_asym_csv(capsys):
    code, out, _ = run(
        capsys, "asym", "--q", "2", "--r", "2", "--curve", "be", "--grid", "10"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,rate,curve,q,r,meta"
    assert len(lines) == 11  # header + exactly the requested grid
    first = lines[1].split(",")
    assert first[2] == "be" and first[3] == "2" and first[4] == "2"
    # rate near 1 at the smallest delta
    assert float(first[1]) > 0.8


@pytest.mark.parametrize("grid", [100, 1000])
@pytest.mark.parametrize("curve", ["gv", "be", "hamming", "plotkin"])
def test_asym_curve_csv_matches_float_calls(capsys, curve, grid):
    # the CLI evaluates the whole grid in one array call; it must print what
    # one float call per point prints
    from nrtbounds import asymptotics
    from nrtbounds.space import delta_crit

    fn = getattr(asymptotics, f"{curve}_curve")
    for q, r in [(2, 2), (3, 4)]:
        code, out, _ = run(
            capsys, "asym", "--q", str(q), "--r", str(r), "--curve", curve, "--grid", str(grid)
        )
        assert code == 0
        dc = float(delta_crit(q, r))
        want = ["delta,rate,curve,q,r,meta"]
        for j in range(1, grid + 1):
            delta = dc * j / grid
            want.append(f"{delta:.12g},{fn(q, r, delta):.12g},{curve},{q},{r},")
        assert out == "\n".join(want) + "\n\n"  # print adds a newline


def test_asym_psi_and_lp(capsys):
    code, out, _ = run(
        capsys, "asym", "--q", "2", "--r", "1", "--curve", "psi", "--grid", "5"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 6
    code, out, _ = run(
        capsys, "asym", "--q", "2", "--r", "1", "--curve", "lp", "--grid", "5"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    deltas = [float(r[0]) for r in rows]
    assert deltas == sorted(deltas)


def test_asym_lp2_requires_r2(capsys):
    code, _, err = run(capsys, "asym", "--q", "2", "--r", "1", "--curve", "lp2")
    assert code == 2


def test_asym_lp2_ends_at_the_critical_distance(capsys):
    # for q = 5, 0.88 * 5 / 5 rounds above delta_crit = 0.88
    code, out, err = run(capsys, "asym", "--q", "5", "--r", "2", "--curve", "lp2", "--grid", "5")
    assert code == 0, err
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[0]) == 0.88 and abs(float(last[1])) < 1e-9


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_asym_grid_below_one_is_usage_error(capsys, grid):
    code, out, err = run(
        capsys, "asym", "--q", "2", "--r", "2", "--curve", "gv", "--grid", grid
    )
    assert code == 2
    assert out == ""
    assert "--grid" in err and len(err.splitlines()) == 1


def test_verify_ooa(capsys, tmp_path):
    path = tmp_path / "arr.txt"
    path.write_text("2 2 1\n0 0\n1 1\n")
    code, out, _ = run(capsys, "verify-ooa", "--file", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["strength"] == 1 and payload["index"] == 1


def test_macwilliams_command(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("2 2 1\n1 1\n")
    code, out, _ = run(capsys, "macwilliams", "--gen", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["primal"]["coeffs"] == payload["dual"]["coeffs"]


def test_net_command(capsys):
    code, out, _ = run(capsys, "net", "--q", "2", "--t", "0", "--m", "2", "--s", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ooa"] == {
        "strength": 2, "n": 2, "r": 2, "q": 2, "index": 1, "size": 4,
    }
    code, _, _ = run(capsys, "net", "--q", "2", "--t", "3", "--m", "2", "--s", "2")
    assert code == 2


def test_net_rejects_alphabet_below_two(capsys):
    code, out, err = run(capsys, "net", "--q", "0", "--t", "1", "--m", "2", "--s", "2")
    assert code == 2
    assert out == ""
    assert "q" in err and len(err.splitlines()) == 1


def test_lp_program_two_certificate(capsys, tmp_path):
    # the code certificate at d = t+1, reloaded, bounds the array program
    cert = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "lp", "--q", "2", "--r", "2", "--n", "3", "--t", "3",
        "--program", "II", "--certificate", str(cert),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"] == str(cert)
    reloaded = certificate_from_json(cert.read_text())
    assert reloaded.d == 4
    chk = check_certificate(reloaded)
    assert chk.accepted
    assert format_rational(chk.ooa_bound) == payload["value"]


# The file `lp --q 2 --r 2 --n 3 --t 3 --program II --certificate` wrote when
# the CLI solved program I a second time for the certificate.
PROGRAM_TWO_CERTIFICATE = """{
  "q": 2,
  "r": 2,
  "n": 3,
  "d": 4,
  "F0": "1/1",
  "F": {
    "0,1": "1/3",
    "1,0": "2/3",
    "1,1": "1/6",
    "2,0": "1/3"
  }
}"""


def test_lp_program_two_certificate_solves_once(capsys, tmp_path, monkeypatch):
    import nrtbounds.delsarte as delsarte

    calls = []
    solve = delsarte.simplex_solve

    def counted(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(delsarte, "simplex_solve", counted)
    cert = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        "lp", "--q", "2", "--r", "2", "--n", "3", "--t", "3",
        "--program", "II", "--certificate", str(cert),
    )
    assert code == 0
    assert len(calls) == 1
    assert cert.read_text() == PROGRAM_TWO_CERTIFICATE


def test_budget_exit_code(capsys, tmp_path):
    # generator file over the enumeration cap: 2^17 codewords
    p = 2
    dim = 17
    rows = ["2 1 17"]
    for i in range(dim):
        rows.append(" ".join("1" if j == i else "0" for j in range(dim)))
    path = tmp_path / "big.txt"
    path.write_text("\n".join(rows) + "\n")
    code, _, err = run(capsys, "macwilliams", "--gen", str(path))
    assert code == 3


def test_out_file(capsys, tmp_path):
    target = tmp_path / "sphere.json"
    code, out, err = run(
        capsys, "sphere", "--q", "2", "--r", "1", "--n", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""  # content went to the file, log to stderr
    assert "sphere.json" in err
    assert json.loads(target.read_text())["total"] == 4


def test_internal_check_exit_code(capsys, tmp_path, monkeypatch):
    import nrtbounds.cli as cli_mod

    path = tmp_path / "gen.txt"
    path.write_text("2 2 1\n1 1\n")
    # the code {00, 11} is its own dual; a one-row table is not
    monkeypatch.setattr(
        cli_mod, "dual_code", lambda code: ArrayTable(params=code.params, rows=((0, 0),))
    )
    code, _, err = run(capsys, "macwilliams", "--gen", str(path))
    assert code == 4
    assert "check failed" in err


@pytest.mark.parametrize(
    "module,name",
    [
        ("nrtbounds.delsarte", "LPError"),
        ("nrtbounds.scheme", "SpectralConvergenceError"),
        ("nrtbounds.krawtchouk", "BracketingError"),
        ("nrtbounds.asymptotics", "RootBracketError"),
    ],
)
def test_numerical_failure_exit_code(capsys, monkeypatch, module, name):
    import importlib

    import nrtbounds.cli as cli_mod

    error = getattr(importlib.import_module(module), name)

    def fail(*args, **kwargs):
        raise error("no convergence")

    monkeypatch.setattr(cli_mod, "best_bounds", fail)
    code, out, err = run(capsys, "bounds", "--q", "2", "--r", "2", "--n", "2", "--d", "4")
    assert code == 4
    assert out == ""
    assert "no convergence" in err and len(err.splitlines()) == 1


def test_spectral_iteration_cap_exits_4(capsys, monkeypatch):
    # the Collatz-Wielandt loop ends after MAX_ITER steps with an error,
    # which the CLI reports as a numerical failure
    import nrtbounds.scheme as scheme_mod
    from nrtbounds.space import SpaceParams

    monkeypatch.setattr(scheme_mod, "MAX_ITER", 2)
    op = scheme_mod.build_operator(SpaceParams(2, 2, 6), 3)
    with pytest.raises(scheme_mod.SpectralConvergenceError, match="after 2 iterations"):
        scheme_mod.spectral_radius(op)
    code, out, err = run(capsys, "bounds", "--q", "2", "--r", "2", "--n", "6", "--d", "8")
    assert code == 4
    assert out == ""
    assert "after 2 iterations" in err and len(err.splitlines()) == 1


def test_simplex_pivot_cap_exits_4(capsys, monkeypatch):
    import nrtbounds.simplex as simplex_mod

    monkeypatch.setattr(simplex_mod, "MAX_PIVOTS", 1)
    argv = ("lp", "--q", "2", "--r", "2", "--n", "3", "--d", "4", "--program", "I")
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err == "internal check failed: no optimum after 1 pivots in one phase\n"


def test_operator_cap_exits_3(capsys, monkeypatch):
    import nrtbounds.scheme as scheme_mod

    # q2 r2 n6 at d3 reaches kappa = 4, and S_4 has 15 rows
    argv = ("bounds", "--q", "2", "--r", "2", "--n", "6", "--d", "3")
    monkeypatch.setattr(scheme_mod, "OPERATOR_CAP", 15)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(scheme_mod, "OPERATOR_CAP", 14)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == (
        "budget exceeded: operator of 15 rows at degree 4 exceeds cap OPERATOR_CAP = 14\n"
    )


CURVES = ["gv", "hamming", "plotkin", "be", "lp", "lp2", "psi", "psirao"]


@pytest.mark.parametrize("curve", CURVES)
def test_asym_checks_q_and_r_for_every_curve(capsys, curve):
    for q, r in [("1", "2"), ("2", "0")]:
        code, out, err = run(capsys, "asym", "--q", q, "--r", r, "--curve", curve, "--grid", "2")
        assert code == 2, (q, r)
        assert out == ""
        assert err == "error: need q >= 2 and r >= 1\n"


@pytest.mark.parametrize(
    "curve,r,q",
    [
        (curve, r, q)
        for curve in CURVES
        for r in (1, 2)
        for q in (2**520, 2**1024)
        if (curve, r) != ("lp2", 1)  # a usage error, exit 2
    ],
)
def test_asym_beyond_the_float_range_ends_in_0_or_3(capsys, curve, r, q):
    code, out, _ = run(capsys, "asym", "--q", str(q), "--r", str(r), "--curve", curve, "--grid", "2")
    assert code in (0, 3)
    if code == 3:
        assert out == ""
    for line in filter(None, out.splitlines()[1:]):
        delta, rate, *_, meta = line.split(",")
        assert all(isfinite(float(x)) for x in (delta, rate, meta or 0)), line


def test_exit_code_sweep(capsys):
    # every edge argument ends in a documented exit code, never a traceback
    calls = []
    for q, r in [(q, r) for q in (1, 2, 3) for r in (0, 1, 2)]:
        common = ["--q", str(q), "--r", str(r)]
        for n in (1, 2):
            space = common + ["--n", str(n)]
            calls.append(["sphere", *space])
            for k in sorted({-1, 0, 1, n * r, n * r + 1, n * r + 2}):
                calls.append(["sphere", *space, "--d", str(k)])
                calls.append(["bounds", *space, "--d", str(k)])
                calls.append(["lp", *space, "--d", str(k), "--program", "I"])
                calls.append(["lp", *space, "--t", str(k), "--program", "II"])
        for curve in CURVES:
            for grid in (0, 1, 2):
                calls.append(["asym", *common, "--curve", curve, "--grid", str(grid)])
    for argv in calls:
        assert main(argv) in (0, 2, 3, 4), argv
    # the lp curve runs at any r whose powers q^(2r-1) stay in the float range
    for r in (6, 14, 100):
        argv = ["asym", "--q", "2", "--r", str(r), "--curve", "lp", "--grid", "1"]
        assert main(argv) == 0, argv
    for q, r in [("2", "513"), ("1099511627776", "30")]:
        argv = ["asym", "--q", q, "--r", r, "--curve", "lp", "--grid", "1"]
        assert main(argv) == 3, argv
    # the exact LP refuses more than LP_SHAPE_CAP shapes (q2 r2 n17 has 171)
    argv = ["lp", "--q", "2", "--r", "2", "--n", "17", "--d", "10", "--program", "I"]
    assert main(argv) == 3, argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        # the spectral bound used to reach kappa = n, report 0 and divide by it
        ("bounds", "--q", "1048576", "--r", "2", "--n", "3", "--d", "2"),
        # singleton is 2^1120, beyond the float range that ranking went through
        ("bounds", "--q", "1099511627776", "--r", "30", "--n", "1", "--d", "3"),
        # the spectral formula's numerator is past the float range
        ("bounds", "--q", "1099511627776", "--r", "7", "--n", "5", "--d", "18"),
    ],
)
def test_bounds_at_huge_q_end_in_a_documented_exit(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code in (0, 3)
    if code == 0:
        uppers = [
            b for b in json.loads(out)["bounds"]
            if b["applicable"] and b["side"] == "upper-on-code-size"
        ]
        assert uppers and all(b["floor"] >= 1 for b in uppers)


# eigvalsh gives the smallest root of k_59(60, .) as 0.0 and the root behind
# beta at (s1, s2) = (57, 2) as -1.1e-14; the depth-2 scan divided by them
UNRESOLVED_ROOTS = ("bounds", "--q", "2", "--r", "2", "--n", "60", "--d", "70")


def upper_floors(out: str) -> dict[str, int]:
    """The floor of every applicable upper bound on code size."""
    return {
        b["name"]: b["floor"]
        for b in json.loads(out)["bounds"]
        if b["applicable"] and b["side"] == "upper-on-code-size"
    }


def test_depth2_bound_skips_unresolved_roots(capsys):
    code, out, err = run(capsys, *UNRESOLVED_ROOTS)
    assert (code, err) == (0, "")
    floors = upper_floors(out)
    assert "r2" in floors and min(floors.values()) >= 1


def bounds_argv(q: int, r: int, n: int, d: int) -> tuple[str, ...]:
    return ("bounds", "--q", str(q), "--r", str(r), "--n", str(n), "--d", str(d))


@st.composite
def sweep_argv(draw):
    """bounds at q, r, n from the sweep's grid and one of five distances."""
    q = draw(st.sampled_from([2, 3, 5, 2**10, 2**40, 2**64]))
    r = draw(st.sampled_from([1, 2, 3, 7, 30]))
    n = draw(st.sampled_from([1, 2, 3, 5]))
    d = draw(st.sampled_from([1, 2, 3, n * r // 2 + 1, n * r]))
    return bounds_argv(q, r, n, d)


# the calls of the sweep's grid that ended in a traceback before the float
# range and the kappa = n witness were handled: 22 OverflowErrors and 2
# ZeroDivisionErrors
GRID_TRACEBACKS = [
    (2**10, 30, 5, 150),
    (2**40, 1, 5, 2),
    (2**40, 7, 2, 8),
    *((2**40, 7, 5, d) for d in (1, 2, 3, 18, 35)),
    *((2**40, 30, 1, d) for d in (1, 2, 3)),
    *((2**64, 7, 3, d) for d in (1, 2, 3, 21)),
    *((2**64, 7, 5, d) for d in (1, 2, 3, 18, 35)),
    *((2**64, 30, 1, d) for d in (1, 2, 3, 16)),
]
# the depth-2 calls whose floats left the float range: 16 OverflowErrors (in
# the float eigenmatrix, in the bound's value and in the root scan), two
# certificates rejected for NaN coefficients, and one accepted with 22 of its
# 28 coefficients non-finite; each must end in exit 0 or 3
DEPTH2_FLOAT_RANGE = [
    bounds_argv(*args)
    for args in [
        (2**40, 2, 14, 15),
        (2**40, 2, 14, 28),
        (2**64, 2, 10, 20),
        (2**64, 2, 14, 28),
        *((2**e, 2, n, 2 * n) for e in (100, 300) for n in (6, 10, 14)),
        *((q, 2, 2, d) for q in (2**1024, 3**700) for d in (1, 2, 3)),
        (2**20, 2, 14, 15),
        (2**40, 2, 10, 11),
        (2**64, 2, 6, 12),
    ]
]
SWEEP_EXAMPLES = [
    *(bounds_argv(*args) for args in GRID_TRACEBACKS),
    bounds_argv(2**20, 2, 3, 2),  # the spectral bound's zero at kappa = n
    UNRESOLVED_ROOTS,
    *DEPTH2_FLOAT_RANGE,
]


def with_examples(test):
    for argv in SWEEP_EXAMPLES:
        test = example(argv)(test)
    return test


@settings(max_examples=40, deadline=None)
@with_examples
@given(sweep_argv())
def test_bounds_sweep_ends_in_a_documented_exit(argv):
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = main(list(argv))
    assert code in ((0, 3) if argv in DEPTH2_FLOAT_RANGE else (0, 2, 3, 4)), argv
    if code == 0:
        assert all(floor >= 1 for floor in upper_floors(out.getvalue()).values()), argv
        q, r, n = (int(x) for x in argv[2:7:2])
        arrays = [
            b["floor"] for b in json.loads(out.getvalue())["bounds"]
            if b["applicable"] and b["side"] == "lower-on-ooa-size"
        ]
        assert all(floor <= q ** (n * r) for floor in arrays), argv


def test_asym_psirao_is_nets_rao(capsys):
    from nrtbounds.asymptotics import nets_rao

    code, out, _ = run(capsys, "asym", "--q", "3", "--r", "2", "--curve", "psirao", "--grid", "4")
    assert code == 0
    want = ["delta,rate,curve,q,r,meta"]
    for j in range(1, 5):
        want.append(f"{j / 4:.12g},{nets_rao(3, j / 4):.12g},psirao,3,2,")
    assert out == "\n".join(want) + "\n\n"


def test_macwilliams_over_the_cap_is_not_verified(capsys, tmp_path):
    # a one-row code of length 17: its dual is 2^16 of 2^17 vectors, and the
    # exhaustive scan refuses the 2^17-vector space
    path = tmp_path / "gen.txt"
    path.write_text("2 1 17\n" + " ".join(["1"] + ["0"] * 16) + "\n")
    code, out, err = run(capsys, "macwilliams", "--gen", str(path))
    assert code == 0
    assert json.loads(out)["verified"] is False
    assert err == "ambient too large, duality not re-verified\n"


def test_reloaded_certificate_that_fails_exits_4(capsys, tmp_path, monkeypatch):
    import nrtbounds.cli as cli_mod

    def drop_a_term(text):
        cert = certificate_from_json(text)
        F = dict(cert.F)
        F.pop(next(iter(F)))
        return cert._replace(F=F)

    monkeypatch.setattr(cli_mod, "certificate_from_json", drop_a_term)
    code, out, err = run(
        capsys,
        "lp", "--q", "2", "--r", "2", "--n", "3", "--d", "4",
        "--program", "I", "--certificate", str(tmp_path / "cert.json"),
    )
    assert code == 4
    assert out == ""
    assert err == "internal check failed: reloaded certificate failed verification\n"
