"""Command-line surface: JSON tables and CSV curves on stdout (or --out).

Each `cmd_*` only computes and returns its payload: a dict of records,
Fractions and shape-keyed maps as the library returns them, or CSV text
for `asym`.  This module alone knows the output format: `_json` turns a
payload into JSON values, and `main` alone writes it, once.  Exit codes:
0 success, 2 usage error (ValueError, OSError), 3 budget or scale cap
exceeded (BudgetExceeded), 4 internal consistency failure (CheckFailure,
which every solver, certificate and root-finding failure subclasses, or a
failed assert).
Logs go to stderr so output stays pipeline-composable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import ceil, comb, floor, isfinite

from . import __version__
from .asymptotics import (
    be_curve,
    curve_grid,
    gv_curve,
    hamming_curve,
    lp_curve,
    lp_curve_default_taus,
    nets_rao,
    phi_r2,
    plotkin_curve,
    psi_nets,
)
from .bounds import BoundTable, best_bounds
from .delsarte import (
    CertificateCheck,
    DualCertificate,
    check_certificate,
    solve_code_lp,
    solve_ooa_lp,
)
from .macwilliams import enumerator_of, transform
from .space import (
    BudgetExceeded,
    CheckFailure,
    LinearCode,
    NetParams,
    SpaceParams,
    delta_crit,
    dual_code,
    net_to_ooa,
    ooa_strength,
    read_array_file,
    shape_counts,
    shape_weight,
    sphere_size,
    weight_distribution,
)

USAGE_ERROR, BUDGET_ERROR, CHECK_ERROR = 2, 3, 4
SPHERE_SHAPE_CAP = 1 << 16  # most shapes `sphere` lists


def _params(args) -> SpaceParams:
    return SpaceParams(q=args.q, r=args.r, n=args.n)


def _shape_key(e: tuple[int, ...]) -> str:
    """The text of a shape in JSON: its parts joined by commas."""
    return ",".join(map(str, e))


_power_of_ten = functools.cache(lambda k: 10**k)


def _json(x):
    """The JSON value of a payload.  A record is its fields in declaration
    order, a Fraction is "p/q" ("2/1" for an integer), a map keyed by shapes
    (the package's only tuple keys) has `_shape_key` keys in shape order,
    and lists and tuples are arrays.  Raises BudgetExceeded on an integer
    longer than the interpreter's int-to-str limit, which json would
    refuse to write."""
    if hasattr(x, "_asdict"):
        return {k: _json(v) for k, v in x._asdict().items()}
    if isinstance(x, Fraction):
        return f"{_json(x.numerator)}/{_json(x.denominator)}"
    if isinstance(x, int):
        # 0 means no limit, as on interpreters older than 3.10.7 without one
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and abs(x) >= _power_of_ten(limit):
            raise BudgetExceeded(
                f"an output integer has more than {limit} digits, the "
                "interpreter's int-to-str limit (sys.get_int_max_str_digits())"
            )
        return x
    if isinstance(x, dict):
        if x and isinstance(next(iter(x)), tuple):
            return {_shape_key(e): _json(v) for e, v in sorted(x.items())}
        return {k: _json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json(v) for v in x]
    return x


def cmd_sphere(args) -> dict:
    params = _params(args)
    count = comb(params.n + params.r, params.r)  # the shapes, before any is built
    if count > SPHERE_SHAPE_CAP:
        raise BudgetExceeded(f"{count} shapes exceed cap SPHERE_SHAPE_CAP = {SPHERE_SHAPE_CAP}")
    counts = shape_counts(params)
    shapes = sorted(counts, key=lambda e: (shape_weight(e), e))
    if args.d is not None:
        shapes = [e for e in shapes if shape_weight(e) == args.d]
    payload = {
        "params": params,
        "shapes": [
            {
                "shape": _shape_key(e),
                "weight": shape_weight(e),
                "count": counts[e],
            }
            for e in shapes
        ],
    }
    if args.d is not None:
        payload["sphere_size"] = sphere_size(params, args.d)  # checks the weight
    else:
        payload["total"] = params.ambient_size
        payload["sphere_sizes"] = weight_distribution(params)
    return payload


def cmd_bounds(args) -> BoundTable:
    """The bound table, with float values at 12 significant digits."""
    table = best_bounds(_params(args), args.d)
    bounds = tuple(
        b._replace(value=float(f"{b.value:.12g}")) if isinstance(b.value, float) else b
        for b in table.bounds
    )
    return table._replace(bounds=bounds)


def _load_certificate(path: str) -> DualCertificate:
    """The certificate in a file `_save_certificate` wrote."""
    with open(path, "r", encoding="utf-8") as fh:
        saved = json.load(fh)
    return DualCertificate(
        params=SpaceParams(q=saved["q"], r=saved["r"], n=saved["n"]),
        d=saved["d"],
        F0=Fraction(saved["F0"]),
        F={tuple(map(int, k.split(","))): Fraction(v) for k, v in saved["F"].items()},
    )


def _save_certificate(path: str, cert: DualCertificate) -> CertificateCheck:
    """Write the certificate (the space's parameters, then d, F0 and the
    shape-keyed F), read it back, and re-verify the reloaded copy."""
    saved = {**cert.params._asdict(), "d": cert.d, "F0": cert.F0, "F": cert.F}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_json(saved), indent=2))
    return check_certificate(_load_certificate(path))


def cmd_lp(args) -> dict:
    params = _params(args)
    # the program's parameter, its solver, the rounding printed under its
    # own name, and the bound of the reloaded certificate that must match
    key, solve, rounding, certified = (
        ("d", solve_code_lp, floor, "code_bound")
        if args.program == "I"
        else ("t", solve_ooa_lp, ceil, "ooa_bound")
    )
    k = getattr(args, key)
    if k is None:
        raise ValueError(f"program {args.program} needs --{key}")
    res = solve(params, k)
    payload = {
        "params": params,
        "program": args.program,
        key: k,
        "value": res.bound,
        rounding.__name__: rounding(res.bound),
    }
    if args.certificate:
        chk = _save_certificate(args.certificate, res.certificate)
        if not chk.accepted or getattr(chk, certified) != res.bound:
            raise CheckFailure("reloaded certificate failed verification")
        payload["certificate"] = args.certificate
    return payload


def cmd_asym(args) -> str:
    q, r, grid = args.q, args.r, args.grid
    dc = float(delta_crit(q, r))  # checks q >= 2 and r >= 1 for every curve
    if grid < 1:
        raise ValueError(f"--grid must be at least 1, got {grid}")
    if q > sys.float_info.max:  # the curves evaluate q in floats
        raise BudgetExceeded(f"q of {q.bit_length()} bits exceeds the float range")
    rows: list[tuple[float, float, str]] = []  # delta, rate, meta
    name = args.curve
    if name in ("gv", "hamming", "plotkin", "be"):
        fn = dict(gv=gv_curve, hamming=hamming_curve, plotkin=plotkin_curve, be=be_curve)[name]
        deltas, rates = curve_grid(fn, q, r, grid)
        rows = [(delta, rate, "") for delta, rate in zip(deltas, rates)]
    elif name == "lp":
        for pt in lp_curve(q, r, lp_curve_default_taus(q, grid)):
            rows.append((pt.delta, pt.rate, f"{pt.meta['tau']:.12g}"))
    elif name == "lp2":
        if r != 2:
            raise ValueError("curve lp2 is defined for r = 2")
        for j in range(1, grid + 1):
            delta = min(dc * j / grid, dc)  # the last step may round above dc
            rows.append((delta, phi_r2(q, delta), ""))
    elif name == "psi":
        for j in range(1, grid + 1):
            delta = j / grid
            pt = psi_nets(q, delta)
            rows.append((delta, pt.rate, f"{pt.alpha:.12g}"))
    else:  # psirao; argparse admits no other curve
        for j in range(1, grid + 1):
            delta = j / grid
            rows.append((delta, nets_rao(q, delta), ""))
    lines = ["delta,rate,curve,q,r,meta"]
    for delta, rate, meta in rows:
        if not (isfinite(delta) and isfinite(rate)):
            raise BudgetExceeded(f"{name} curve point ({delta}, {rate}) is outside the float range")
        lines.append(f"{delta:.12g},{rate:.12g},{name},{q},{r},{meta}")
    return "\n".join(lines) + "\n"


def cmd_verify_ooa(args) -> dict:
    table = read_array_file(args.file)
    return {
        "params": table.params,
        "rows": len(table.rows),
        **ooa_strength(table)._asdict(),
    }


def cmd_macwilliams(args) -> dict:
    table = read_array_file(args.gen)
    code = LinearCode(params=table.params, generators=table.rows)
    primal = enumerator_of(code, "right")
    dual = transform(primal, code.size)
    payload = {
        "params": code.params,
        "k": code.k,
        "primal": primal,
        "dual": dual,
    }
    try:
        exhaustive = dual_code(code)
    except BudgetExceeded:
        payload["verified"] = False
        print("ambient too large, duality not re-verified", file=sys.stderr)
        return payload
    if enumerator_of(exhaustive, "left").coeffs != dual.coeffs:
        raise CheckFailure("transform disagrees with the exhaustive dual")
    payload["verified"] = True
    return payload


def cmd_net(args) -> dict:
    ooa = net_to_ooa(args.t, args.m, args.s, args.q)
    net = NetParams(t=args.t, m=args.m, s=args.s, q=args.q)
    return {"net": net, "ooa": ooa}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="nrtbounds",
        description="Combinatorics and bounds for codes and orthogonal arrays "
        "in the ordered Hamming space.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # every command writes its output through `main`, so each takes --out
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write output to this file instead of stdout")
    subparsers = parser.add_subparsers(dest="command", required=True)
    sub = functools.partial(subparsers.add_parser, parents=[out])

    def add_common(p, n=True):
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--r", type=int, required=True)
        if n:
            p.add_argument("--n", type=int, required=True)

    p = sub("sphere", help="shape counts and sphere sizes")
    add_common(p)
    p.add_argument("--d", type=int, help="restrict to one weight stratum")
    p.set_defaults(fn=cmd_sphere)

    p = sub("bounds", help="all bounds at a given distance")
    add_common(p)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=cmd_bounds)

    p = sub("lp", help="exact Delsarte linear program")
    add_common(p)
    p.add_argument("--d", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--program", choices=["I", "II"], required=True)
    p.add_argument(
        "--certificate",
        help="write the dual certificate here and re-verify it (program II: "
        "the code certificate at d = t+1)",
    )
    p.set_defaults(fn=cmd_lp)

    p = sub("asym", help="asymptotic curve as CSV")
    add_common(p, n=False)
    p.add_argument(
        "--curve",
        choices=["gv", "hamming", "plotkin", "be", "lp", "lp2", "psi", "psirao"],
        required=True,
    )
    p.add_argument("--grid", type=int, default=100)
    p.set_defaults(fn=cmd_asym)

    p = sub("verify-ooa", help="strength and index of an array file")
    p.add_argument("--file", required=True)
    p.set_defaults(fn=cmd_verify_ooa)

    p = sub("macwilliams", help="enumerator and dual of a generator file")
    p.add_argument("--gen", required=True)
    p.set_defaults(fn=cmd_macwilliams)

    p = sub("net", help="net parameters to array parameters")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(fn=cmd_net)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        payload = args.fn(args)
        text = payload if isinstance(payload, str) else json.dumps(_json(payload), indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print(text)
        return 0
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except (CheckFailure, AssertionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return CHECK_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
