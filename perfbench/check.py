"""Compare one CLI output with its reference output.

JSON outputs (`lp`, `bounds`): every field of the reference must be present;
fields the reference lacks are ignored.  Exact leaves (rational strings,
integers, names, flags) must be identical.  Floats must agree within the
relative tolerance the package's tests pin for that bound: 1e-9 for the
spectral bounds (tests/test_bounds.py), 1e-6 for the depth-2 bounds.  The
`tolerance` field is a half-width that depends on how an enclosure is
computed, so only its presence and sign are checked.

CSV outputs (`asym`): header, row count and the curve, q and r columns
must be identical; delta, rate and meta (tau) agree within 1e-9 absolute,
the tolerance tests/test_asymptotics.py pins for lp_rate, lp_delta and
phi_r2.
"""

from __future__ import annotations

import json
import math

BOUND_REL_TOL = {"spectral": 1e-9, "spectral-ooa": 1e-9, "r2": 1e-6, "r2-ooa": 1e-6}
DEFAULT_REL_TOL = 1e-9
CURVE_ABS_TOL = 1e-9


def mismatch(argv: list[str], got: str, want: str) -> str | None:
    """None when got matches the reference want, else the first difference."""
    if argv[0] == "asym":
        return _csv(got, want)
    try:
        got_json = json.loads(got)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    want_json = json.loads(want)
    if argv[0] == "bounds":
        return _bound_table(got_json, want_json)
    return _tree(got_json, want_json, "", DEFAULT_REL_TOL)


def _bound_table(got, want) -> str | None:
    rest = {k: v for k, v in want.items() if k != "bounds"}
    err = _tree(got, rest, "", DEFAULT_REL_TOL)
    if err or "bounds" not in want:
        return err
    if not isinstance(got.get("bounds"), list):
        return "bounds: missing"
    by_name = {b.get("name"): b for b in got["bounds"] if isinstance(b, dict)}
    for bound in want["bounds"]:
        name = bound["name"]
        if name not in by_name:
            return f"bounds.{name}: missing"
        tol = BOUND_REL_TOL.get(name, DEFAULT_REL_TOL)
        err = _tree(by_name[name], bound, f"bounds.{name}", tol)
        if err:
            return err
    return None


def _tree(got, want, path: str, rel_tol: float) -> str | None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object"
        for key, value in want.items():
            sub = f"{path}.{key}" if path else key
            if key not in got:
                return f"{sub}: missing"
            if key == "tolerance":
                if (value is None) != (got[key] is None) or (
                    value is not None and not _nonnegative_number(got[key])
                ):
                    return f"{sub}: {got[key]!r}, reference {value!r}"
                continue
            err = _tree(got[key], value, sub, rel_tol)
            if err:
                return err
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: expected a list of {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            err = _tree(g, w, f"{path}[{i}]", rel_tol)
            if err:
                return err
        return None
    if isinstance(want, float):
        ok = _is_number(got) and math.isclose(got, want, rel_tol=rel_tol, abs_tol=0.0)
        return None if ok else f"{path}: {got!r}, reference {want!r} (rel tol {rel_tol})"
    if json.dumps(got) != json.dumps(want):
        return f"{path}: {got!r}, reference {want!r}"
    return None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _nonnegative_number(x) -> bool:
    return _is_number(x) and x >= 0


def _csv(got: str, want: str) -> str | None:
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if not got_rows or got_rows[0] != want_rows[0]:
        return "csv: header differs"
    if len(got_rows) != len(want_rows):
        return f"csv: {len(got_rows) - 1} rows, reference {len(want_rows) - 1}"
    header = want_rows[0]
    for i, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        if len(g) != len(w):
            return f"csv row {i}: {len(g)} columns, reference {len(w)}"
        for col, gv, wv in zip(header, g, w):
            if col in ("curve", "q", "r") or wv == "":
                if gv != wv:
                    return f"csv row {i} {col}: {gv!r}, reference {wv!r}"
                continue
            try:
                close = abs(float(gv) - float(wv)) <= CURVE_ABS_TOL
            except ValueError:
                close = False
            if not close:
                return f"csv row {i} {col}: {gv!r}, reference {wv!r} (abs tol {CURVE_ABS_TOL})"
    return None
