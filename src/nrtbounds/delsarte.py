"""Exact Delsarte linear programs for ordered codes and orthogonal arrays.

The code program maximizes the total distance distribution mass subject to
nonnegativity of its Krawtchouk transform; the array program minimizes it
subject to vanishing transform up to the strength.  Both are normalized by
pinning the zero-shape coefficient to 1, so the reported values are
1 + optimum.  Optimal dual solutions of the code program are returned as
polynomial certificates F = F_0 + sum_{e != 0} F_e K_e with

    F_0 > 0,  F_e >= 0,  F(e) <= 0 whenever |e|' >= d,

which certify  M <= F(0)/F_0  for codes and  M' >= q^(nr) F_0/F(0)  for
arrays of strength d-1.

The array program is not solved by a simplex of its own: the scheme is
formally self-dual, so its eigenmatrix T[f][e] = K_f(e) satisfies
T T = q^(nr) I, and the array optimum at strength t is q^(nr) over the code
optimum at distance t+1, attained by the transform of the code optimum (see
`solve_ooa_lp`).  The direct array simplex is kept as `_solve_ooa_lp_direct`,
the reference the tests compare against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .krawtchouk import krawtchouk_table
from .simplex import EQ, GE, LE, make_lp, simplex_solve
from .space import Shape, SpaceParams, shape_weight


class LPError(Exception):
    """The solver returned a status that signals a constraint-assembly bug."""


@dataclass(frozen=True)
class DualCertificate:
    """Coefficients of a feasibility certificate F = F0 + sum F_e K_e."""

    params: SpaceParams
    d: int
    F0: Fraction | float
    F: dict[Shape, Fraction | float]  # keys are nonzero shapes


@dataclass(frozen=True)
class CertificateCheck:
    accepted: bool
    code_bound: Fraction | float | None = None
    ooa_bound: Fraction | float | None = None
    reason: str | None = None
    witness: Shape | None = None


@dataclass(frozen=True)
class CodeLPResult:
    params: SpaceParams
    d: int
    bound: Fraction
    distribution: dict[Shape, Fraction]
    certificate: DualCertificate


@dataclass(frozen=True)
class OoaLPResult:
    params: SpaceParams
    t: int
    bound: Fraction
    distribution: dict[Shape, Fraction]
    # the code certificate at d = t+1, which bounds arrays of strength t;
    # None from the direct array simplex
    certificate: DualCertificate | None = None


def check_certificate(cert: DualCertificate, tol: float = 0.0) -> CertificateCheck:
    """Verify the sign conditions and emit both bounds.

    F is evaluated at every shape in one pass over the eigenmatrix rows of
    its terms.  With tol = 0 every comparison is exact.  With tol > 0
    (float certificates) the conditions are relaxed to F_e >= -tol*scale and
    F(e) <= tol*scale, where scale is the largest |F(e)| over all shapes.
    """
    T = krawtchouk_table(cert.params)
    terms = [0] * len(T.shapes)
    for g, coeff in cert.F.items():
        terms = list(map(add, terms, [coeff * k for k in T.rows[T.index[g]]]))
    values = [cert.F0 + v for v in terms]
    scale = max(1.0, max(abs(float(v)) for v in values)) if tol else 0
    if not cert.F0 > 0:
        return CertificateCheck(accepted=False, reason="F0 must be positive")
    for e, coeff in cert.F.items():
        if coeff < -tol * scale:
            return CertificateCheck(
                accepted=False, reason="negative transform coefficient", witness=e
            )
    for e, val in zip(T.shapes, values):
        if shape_weight(e) >= cert.d and val > tol * scale:
            return CertificateCheck(
                accepted=False, reason="F positive at excluded shape", witness=e
            )
    f_at_zero = values[0]
    return CertificateCheck(
        accepted=True,
        code_bound=f_at_zero / cert.F0,
        ooa_bound=cert.params.ambient_size * cert.F0 / f_at_zero,
    )


def solve_code_lp(params: SpaceParams, d: int) -> CodeLPResult:
    """Largest-code bound: maximize sum of A_e over shapes of weight >= d,
    with A at the zero shape pinned to 1 and the Krawtchouk transform of A
    nonnegative at every shape.  Returns 1 + optimum."""
    if not 1 <= d <= params.dim + 1:
        raise ValueError(f"distance {d} out of range [1, {params.dim + 1}]")
    T = krawtchouk_table(params)
    shapes, zero = T.shapes, T.shapes[0]
    free = [j for j, e in enumerate(shapes) if shape_weight(e) >= d]  # all other A_e are fixed

    if not free:
        cert = DualCertificate(params=params, d=d, F0=Fraction(1), F={})
        return CodeLPResult(
            params=params,
            d=d,
            bound=Fraction(1),
            distribution={zero: Fraction(1)},
            certificate=cert,
        )

    # row f: -sum_e K_f(e) A_e <= K_f(0) = v_f
    rows = [([-row[j] for j in free], LE, row[0]) for row in T.rows]
    lp = make_lp([1] * len(free), rows, maximize=True)
    res = simplex_solve(lp)
    if res.status != "optimal":
        raise LPError(f"code program returned {res.status}")

    distribution = {zero: Fraction(1)}
    for j, val in zip(free, res.x):
        if val != 0:
            distribution[shapes[j]] = val
    y = dict(zip(shapes, res.duals))
    cert = DualCertificate(
        params=params,
        d=d,
        F0=1 + y[zero],
        F={f: y[f] for f in shapes if f != zero and y[f] != 0},
    )
    bound = 1 + res.objective
    check = check_certificate(cert)
    if not check.accepted or check.code_bound != bound:
        raise LPError("extracted dual certificate failed verification")
    return CodeLPResult(
        params=params, d=d, bound=bound, distribution=distribution, certificate=cert
    )


def solve_ooa_lp(params: SpaceParams, t: int) -> OoaLPResult:
    """Smallest-array bound: minimize sum B_e over B >= 0 with B_0 = 1 and
    the transform of B vanishing at every nonzero shape of weight <= t and
    nonnegative above.  Solved through the code program at d = t+1.

    Let A be the code optimum, M = sum A its value, and T[f][e] = K_f(e),
    so that T T = q^(nr) I.  Then B = T A / M is feasible here (B >= 0 as
    T A >= 0, B_0 = 1, and T B = q^(nr) A / M vanishes at 1 <= |e|' <= t)
    with value q^(nr)/M.  Conversely any feasible B' gives the code point
    T B' / sum B' of value q^(nr) / sum B' <= M.  So q^(nr)/M is the optimum.
    The code program's dual certificate at d = t+1 is returned with it: it
    certifies q^(nr) F_0/F(0) = q^(nr)/M for arrays of strength t.
    """
    if not 0 <= t <= params.dim:
        raise ValueError(f"strength {t} out of range [0, {params.dim}]")
    code = solve_code_lp(params, t + 1)
    T = krawtchouk_table(params)
    # A over one common denominator, so each B_f is one integer sum
    den = lcm(*(a.denominator for a in code.distribution.values()))
    nums = [
        (T.index[e], a.numerator * (den // a.denominator)) for e, a in code.distribution.items()
    ]
    scale = den * code.bound
    distribution = {}
    for f, row in zip(T.shapes, T.rows):
        b = sum(row[j] * a for j, a in nums) / scale
        if b != 0:
            distribution[f] = b
    return OoaLPResult(
        params=params,
        t=t,
        bound=params.ambient_size / code.bound,
        distribution=distribution,
        certificate=code.certificate,
    )


def _solve_ooa_lp_direct(params: SpaceParams, t: int) -> OoaLPResult:
    """The array program solved by its own simplex: the reference that
    `solve_ooa_lp` is tested against."""
    if not 0 <= t <= params.dim:
        raise ValueError(f"strength {t} out of range [0, {params.dim}]")
    T = krawtchouk_table(params)
    zero, free = T.shapes[0], T.shapes[1:]
    # row f != 0: sum_{e != 0} K_f(e) B_e = or >= -K_f(0) = -v_f
    rows = [
        (list(row[1:]), EQ if shape_weight(f) <= t else GE, -row[0])
        for f, row in zip(free, T.rows[1:])
    ]
    lp = make_lp([1] * len(free), rows, maximize=False)
    res = simplex_solve(lp)
    if res.status != "optimal":
        raise LPError(f"array program returned {res.status}")
    distribution = {zero: Fraction(1)}
    for e, val in zip(free, res.x):
        if val != 0:
            distribution[e] = val
    return OoaLPResult(
        params=params, t=t, bound=1 + res.objective, distribution=distribution
    )


# ---------------------------------------------------------------------------
# Certificate serialization


def format_rational(x: Fraction) -> str:
    fr = Fraction(x)
    return f"{fr.numerator}/{fr.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


def shape_key(e: Shape) -> str:
    return ",".join(str(c) for c in e)


def parse_shape_key(key: str) -> Shape:
    return tuple(int(c) for c in key.split(","))


def certificate_to_json(cert: DualCertificate) -> str:
    p = cert.params
    payload = {
        "q": p.q,
        "r": p.r,
        "n": p.n,
        "d": cert.d,
        "F0": format_rational(cert.F0),
        "F": {shape_key(e): format_rational(v) for e, v in sorted(cert.F.items())},
    }
    return json.dumps(payload, indent=2)


def certificate_from_json(text: str) -> DualCertificate:
    payload = json.loads(text)
    params = SpaceParams(q=payload["q"], r=payload["r"], n=payload["n"])
    return DualCertificate(
        params=params,
        d=payload["d"],
        F0=parse_rational(payload["F0"]),
        F={parse_shape_key(k): parse_rational(v) for k, v in payload["F"].items()},
    )
