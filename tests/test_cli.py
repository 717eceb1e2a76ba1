import json

import pytest

from nrtbounds.cli import main
from nrtbounds.delsarte import certificate_from_json, check_certificate, format_rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "nrtbounds 0.1.0" in capsys.readouterr().out


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
    monkeypatch.setattr(cli_mod, "verify_duality", lambda code: False)
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
