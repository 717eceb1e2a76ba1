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
`solve_ooa_lp`).

Results and certificates are records of Fractions keyed by shape; the
certificate file's format is the CLI's (`cli._save_certificate`).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, lcm
from operator import add

from .krawtchouk import krawtchouk_table
from .simplex import LPError, make_lp, simplex_solve
from .space import (
    BudgetExceeded,
    SpaceParams,
    check_distance,
    check_strength,
    shape_weight,
)


# largest exact program solved, in shapes^2 times the bits of q^(nr): q2 r2
# n16 has 153^2 * 33 = 772,497, and q2 r2 n17 has 171^2 * 35 = 1,023,435
LP_BIT_CAP = 800_000


class DualCertificate(namedtuple("DualCertificate", "params d F0 F")):
    """Coefficients of a feasibility certificate F = F0 + sum F_e K_e;
    the keys of the dict F are nonzero shapes."""

    __slots__ = ()


CertificateCheck = namedtuple(
    "CertificateCheck", "accepted code_bound ooa_bound reason witness", defaults=(None,) * 4
)
CodeLPResult = namedtuple("CodeLPResult", "params d bound distribution certificate")
# certificate is the code certificate at d = t+1, which bounds arrays of strength t
OoaLPResult = namedtuple("OoaLPResult", "params t bound distribution certificate")


def check_certificate(cert: DualCertificate) -> CertificateCheck:
    """Verify the sign conditions of an exact certificate and emit both
    bounds as Fractions.

    F is evaluated at every shape in one pass over the eigenmatrix rows of
    its terms, in ints: F0 and every F_g (ints or Fractions) are multiplied
    by the lcm of their denominators, which scales every value of F by the
    same positive integer and so keeps every sign and every ratio.
    """
    T = krawtchouk_table(cert.params)
    L = lcm(cert.F0.denominator, *(v.denominator for v in cert.F.values()))
    F0 = cert.F0.numerator * (L // cert.F0.denominator)
    F = {g: v.numerator * (L // v.denominator) for g, v in cert.F.items()}
    terms = [0] * len(T.shapes)
    for g, coeff in F.items():
        terms = list(map(add, terms, [coeff * k for k in T.rows[T.index[g]]]))
    values = [F0 + v for v in terms]
    if not F0 > 0:
        return CertificateCheck(accepted=False, reason="F0 must be positive")
    for e, coeff in F.items():
        if coeff < 0:
            return CertificateCheck(
                accepted=False, reason="negative transform coefficient", witness=e
            )
    for e, val in zip(T.shapes, values):
        if shape_weight(e) >= cert.d and val > 0:
            return CertificateCheck(
                accepted=False, reason="F positive at excluded shape", witness=e
            )
    f_at_zero = values[0]
    return CertificateCheck(
        accepted=True,
        code_bound=Fraction(f_at_zero, F0),
        ooa_bound=Fraction(cert.params.ambient_size * F0, f_at_zero),
    )


def solve_code_lp(params: SpaceParams, d: int) -> CodeLPResult:
    """Largest-code bound: maximize sum of A_e over shapes of weight >= d,
    with A at the zero shape pinned to 1 and the Krawtchouk transform of A
    nonnegative at every shape.  Returns 1 + optimum.  Raises BudgetExceeded,
    before the eigenmatrix is built, when shapes^2 (the program's entries)
    times the bits of q^(nr) (their size) exceeds LP_BIT_CAP."""
    check_distance(params, d)
    count = comb(params.n + params.r, params.r)  # shapes: r parts summing to <= n
    # q^(nr) >= 2^(nr) has at least nr + 1 bits, so a program past the cap
    # at nr + 1 bits is refused before q^(nr) is computed
    bits = params.dim + 1
    if count * count * bits <= LP_BIT_CAP:
        bits = params.ambient_size.bit_length()
    if count * count * bits > LP_BIT_CAP:
        raise BudgetExceeded(
            f"exact LP on {count} shapes over q^(nr) of at least {bits} bits "
            f"exceeds cap LP_BIT_CAP = {LP_BIT_CAP} (shapes^2 * bits)"
        )
    T = krawtchouk_table(params)
    shapes, zero = T.shapes, T.shapes[0]
    free = [j for j, e in enumerate(shapes) if shape_weight(e) >= d]  # all other A_e are fixed

    # row f: -sum_e K_f(e) A_e <= K_f(0) = v_f
    rows = [([-row[j] for j in free], row[0]) for row in T.rows]
    lp = make_lp([1] * len(free), rows)
    res = simplex_solve(lp)

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
    check_strength(params, t)
    code = solve_code_lp(params, t + 1)
    return OoaLPResult(
        params=params,
        t=t,
        bound=params.ambient_size / code.bound,
        distribution=krawtchouk_table(params).transform(code.distribution, code.bound),
        certificate=code.certificate,
    )
