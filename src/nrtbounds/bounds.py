"""Finite-length bounds on ordered codes and orthogonal arrays.

Every bound is a pure function of the space parameters and the distance d
(codes) or strength t (arrays), returning a BoundResult.  Values are exact
rationals wherever the formula is rational; the two bounds that involve
eigenvalues or polynomial roots return floats with an explicit error bar.
A bound whose precondition fails returns an inapplicable result rather than
raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, floor

import numpy as np

from .delsarte import CertificateCheck, DualCertificate, check_certificate, format_rational
from .krawtchouk import BracketingError, K_multi, _k_values, k_root_min, krawtchouk_table
from .scheme import operators, spectral_radius
from .space import (
    Shape,
    SpaceParams,
    ball_size,
    delta_crit,
    shape_count,
    shape_weight,
    weight_distribution,
)

UPPER_CODE = "upper-on-code-size"
LOWER_CODE = "lower-on-code-size"
LOWER_OOA = "lower-on-ooa-size"


@dataclass(frozen=True)
class BoundResult:
    name: str
    side: str
    applicable: bool
    value: Fraction | float | None = None
    floor: int | None = None
    tolerance: float | None = None  # half-width for float values
    witness: dict | None = None
    reason: str | None = None  # why inapplicable

    def as_json_dict(self) -> dict:
        val: str | float | None
        if self.value is None:
            val = None
        elif isinstance(self.value, Fraction):
            val = format_rational(self.value)
        else:
            val = float(f"{self.value:.12g}")
        witness = None
        if self.witness is not None:
            witness = {
                k: (format_rational(v) if isinstance(v, Fraction) else v)
                for k, v in self.witness.items()
            }
        return {
            "name": self.name,
            "side": self.side,
            "applicable": self.applicable,
            "value": val,
            "floor": self.floor,
            "tolerance": self.tolerance,
            "witness": witness,
            "reason": self.reason,
        }


def _exact(name: str, side: str, value: Fraction, witness: dict | None = None) -> BoundResult:
    value = Fraction(value)
    return BoundResult(
        name=name,
        side=side,
        applicable=True,
        value=value,
        floor=floor(value),
        witness=witness,
    )


def _inapplicable(name: str, side: str, reason: str) -> BoundResult:
    return BoundResult(name=name, side=side, applicable=False, reason=reason)


def _check_d(params: SpaceParams, d: int) -> None:
    if not 1 <= d <= params.dim + 1:
        raise ValueError(f"distance {d} out of range [1, {params.dim + 1}]")


# ---------------------------------------------------------------------------
# Elementary bounds


def singleton(params: SpaceParams, d: int) -> BoundResult:
    _check_d(params, d)
    return _exact("singleton", UPPER_CODE, Fraction(params.q ** (params.dim - d + 1)))


def plotkin(params: SpaceParams, d: int) -> BoundResult:
    """d / (d - n r delta_crit), valid only above the critical distance."""
    _check_d(params, d)
    mean = delta_crit(params.q, params.r) * params.dim
    if d <= mean:
        return _inapplicable("plotkin", UPPER_CODE, "requires d > n r delta_crit")
    return _exact("plotkin", UPPER_CODE, Fraction(d) / (d - mean))


def dual_plotkin_ooa(params: SpaceParams, t: int) -> BoundResult:
    """q^(nr) (1 - n r delta_crit / (t+1)), valid for t > n r delta_crit - 1."""
    mean = delta_crit(params.q, params.r) * params.dim
    if not t > mean - 1:
        return _inapplicable(
            "dual-plotkin", LOWER_OOA, "requires t > n r delta_crit - 1"
        )
    return _exact(
        "dual-plotkin", LOWER_OOA, params.ambient_size * (1 - mean / (t + 1))
    )


def hamming(params: SpaceParams, d: int) -> BoundResult:
    """q^(rn) / ball(tau) with tau = floor((d-1)/2)."""
    _check_d(params, d)
    tau = (d - 1) // 2
    return _exact(
        "hamming",
        UPPER_CODE,
        Fraction(params.ambient_size, ball_size(params, tau)),
        witness={"tau": tau},
    )


def rao(params: SpaceParams, t: int) -> BoundResult:
    """ball(tau) with tau = floor(t/2)."""
    if not 0 <= t <= params.dim:
        raise ValueError(f"strength {t} out of range [0, {params.dim}]")
    tau = t // 2
    return _exact(
        "rao", LOWER_OOA, Fraction(ball_size(params, tau)), witness={"tau": tau}
    )


def johnson(params: SpaceParams, d: int, w: int) -> BoundResult:
    """Constant-weight bound dn / (dn - 2wn + w^2/(r delta_crit))."""
    _check_d(params, d)
    dc = delta_crit(params.q, params.r)
    denom = Fraction(d * params.n) - 2 * w * params.n + Fraction(w * w) / (params.r * dc)
    if denom <= 0:
        return _inapplicable(
            "johnson", UPPER_CODE, "requires d >= 2w - w^2/(n r delta_crit)"
        )
    return _exact(
        "johnson", UPPER_CODE, Fraction(d * params.n) / denom, witness={"w": w}
    )


def bassalygo_elias(params: SpaceParams, d: int) -> BoundResult:
    """Translate-count bound: minimum over admissible weights w of

        q^(rn) * d * n / (S_w * (dn - 2wn + w^2/(r delta_crit))).

    A weight w is admissible when w <= n r delta_crit (1 - sqrt(1 - d/(n r
    delta_crit))); the radical condition is tested exactly as
    (n r delta_crit - w)^2 >= n r delta_crit (n r delta_crit - d).
    """
    _check_d(params, d)
    dc = delta_crit(params.q, params.r)
    mean = dc * params.dim  # n r delta_crit
    if d > mean:
        return _inapplicable(
            "bassalygo-elias", UPPER_CODE, "requires d <= n r delta_crit"
        )
    spheres = weight_distribution(params)
    best: Fraction | None = None
    best_w = None
    w = 0
    while w <= mean and (mean - w) ** 2 >= mean * (mean - d):
        inner = johnson(params, d, w)
        if inner.applicable:
            candidate = Fraction(params.ambient_size, spheres[w]) * inner.value
            if best is None or candidate < best:
                best, best_w = candidate, w
        w += 1
    if best is None:
        return _inapplicable("bassalygo-elias", UPPER_CODE, "no admissible weight")
    return _exact("bassalygo-elias", UPPER_CODE, best, witness={"w": best_w})


def gilbert(params: SpaceParams, d: int) -> BoundResult:
    """Existence: some code of distance d has at least ceil(q^(nr)/ball(d-1))
    words."""
    _check_d(params, d)
    ball = ball_size(params, min(d - 1, params.dim))
    value = -(-params.ambient_size // ball)  # ceiling
    return _exact("gilbert", LOWER_CODE, Fraction(value))


def varshamov(params: SpaceParams, t: int) -> int:
    """Least m such that sum_{i<=t-tau} S_{i,n-1} < q^(m-tau+1) for every
    tau = 1..t-1, guaranteeing an [nr, nr-m] linear code of distance > t and
    a linear array of strength t and dimension m."""
    if t < 1:
        raise ValueError("strength must be >= 1")
    if params.n >= 2:
        sub = SpaceParams(q=params.q, r=params.r, n=params.n - 1)
        balls = list(accumulate(weight_distribution(sub)))
        sphere_sums = [balls[min(k, sub.dim)] for k in range(t)]
    else:
        sphere_sums = [1] * t  # single-block space: only the zero vector remains
    m = 0
    while True:
        if all(
            sphere_sums[t - tau] < params.q ** (m - tau + 1) for tau in range(1, t)
        ):
            return m
        m += 1


# ---------------------------------------------------------------------------
# Spectral bound


def spectral_bound(params: SpaceParams, d: int) -> BoundResult:
    """Upper bound from the truncated multiplication operator: the smallest
    degree kappa whose predecessor eigenvalue dominates P at weight d gives

        4 r delta_crit (n - kappa) (q^r - 1)^kappa C(n, kappa)
            / (delta_crit r n - lambda_kappa).

    Eigenvalue enclosures are used conservatively: the hypothesis is tested
    against the lower end, the denominator against the upper end.  Below
    kappa only the side of the threshold matters, so each hypothesis degree
    stops its iteration once its enclosure clears the threshold
    (`spectral_radius(..., decide=)`, which decides it as the full-width
    enclosure would); only degree kappa, whose ends give the value, its
    tolerance and its witness, runs to the full width.  The operators come
    from one `operators` walk, so each is built once, and S_kappa only
    once the hypothesis at kappa - 1 holds.
    """
    _check_d(params, d)
    dc = delta_crit(params.q, params.r)
    mean = dc * params.dim
    threshold = mean - d  # P(e) at |e|' = d
    ops = operators(params)
    for kappa, prev in zip(range(1, params.n + 1), ops):
        lo_prev, _ = spectral_radius(prev, decide=float(threshold))
        if not threshold <= Fraction(lo_prev):
            continue
        lo_k, hi_k = spectral_radius(next(ops))
        if Fraction(hi_k) >= mean:
            break  # larger kappa only grows the eigenvalue
        numerator = (
            4
            * dc
            * params.r
            * (params.n - kappa)
            * (params.q**params.r - 1) ** kappa
            * comb(params.n, kappa)
        )
        value_hi = float(numerator) / float(mean - Fraction(hi_k))
        value_lo = float(numerator) / float(mean - Fraction(lo_k))
        return BoundResult(
            name="spectral",
            side=UPPER_CODE,
            applicable=True,
            value=value_hi,
            floor=floor(value_hi),
            tolerance=abs(value_hi - value_lo),
            witness={"kappa": kappa, "lambda": hi_k},
        )
    return _inapplicable("spectral", UPPER_CODE, "no admissible degree kappa <= n")


def _reciprocal(params: SpaceParams, name: str, code: BoundResult) -> BoundResult:
    """Array bound q^(nr) / M at strength t from a float code bound M at
    distance t + 1, with the code bound's witness and error bar carried over."""
    if not code.applicable:
        return _inapplicable(name, LOWER_OOA, code.reason)
    value = params.ambient_size / code.value
    hi = params.ambient_size / (code.value - code.tolerance) if code.tolerance else value
    return BoundResult(
        name=name,
        side=LOWER_OOA,
        applicable=True,
        value=value,
        floor=floor(value),
        tolerance=abs(hi - value),
        witness=code.witness,
    )


def spectral_bound_ooa(params: SpaceParams, t: int) -> BoundResult:
    """Reciprocal form of the spectral bound for arrays of strength t."""
    return _reciprocal(params, "spectral-ooa", spectral_bound(params, t + 1))


# ---------------------------------------------------------------------------
# Depth-2 root bound


@dataclass(frozen=True)
class R2Witness:
    s1: int
    s2: int
    alpha: float
    beta: float

    def as_dict(self) -> dict:
        return {"s1": self.s1, "s2": self.s2, "alpha": self.alpha, "beta": self.beta}


def _solve_alpha(q: int, nu: float, s2: int, left: float) -> float:
    """Solve W(alpha) = -W(0) for W(x) = k_{s2+1}(nu, x) / k_{s2}(nu, x),
    with alpha between left, the smallest root of k_{s2+1}, and the
    smallest root of k_{s2}.  Both values of W come from one recurrence
    pass."""
    w0 = (q - 1) * (nu - s2) / (s2 + 1)

    def g(x: float) -> float:
        *_, denom, numer = _k_values(q, nu, s2 + 1, x)
        if denom == 0.0:
            return float("-inf")
        return numer / denom + w0

    if s2 >= 1:
        right = k_root_min(q, nu, s2)
    else:
        right = 2 * (q - 1) * nu / q + 1  # beyond the affine solution
    width = right - left
    lo = left + 1e-9 * width
    hi = right - 1e-9 * width
    if not (g(lo) > 0 and g(hi) < 0):
        raise BracketingError(
            f"ratio equation not bracketed on ({left}, {right}) for s2={s2}"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # the bracket cannot shrink any further
            break
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _r2_candidates(params: SpaceParams, d_cap: float):
    """Admissible (s1, s2, alpha, beta) tuples with alpha + 2 beta <= d_cap."""
    n = params.n
    q = params.q
    for s1 in range(1, n + 1):
        for s2 in range(0, n + 1):
            if s1 + s2 > n:  # needs (s1, s2) to be a valid shape
                continue
            if not n - s2 > s1:  # smallest root of degree s1 needs n - s2 > s1
                continue
            beta = k_root_min(q, n - s2, s1)
            nu = n - beta
            if not nu > s2 + 1:
                continue
            left = k_root_min(q, nu, s2 + 1)
            if left + 2 * beta > d_cap:
                continue  # alpha >= left, so alpha + 2 beta > d_cap as well
            try:
                alpha = _solve_alpha(q, nu, s2, left)
            except BracketingError:
                continue
            if alpha + 2 * beta <= d_cap:
                yield R2Witness(s1=s1, s2=s2, alpha=alpha, beta=beta)


def _r2_value(params: SpaceParams, w: R2Witness) -> float:
    q, n = params.q, params.n
    vs = shape_count(params, (w.s1 - 1, w.s2))
    return (
        4
        * (n - w.beta - w.s2)
        * (n - w.s2 - w.s1 + 1) ** 2
        * (q - 1) ** 3
        * (w.alpha + 2 * w.beta)
        * vs
        / (q**3 * w.alpha**2 * w.beta**2)
    )


def r2_bound(params: SpaceParams, d: int) -> BoundResult:
    """Depth-2 upper bound built from Krawtchouk root positions.

    Scans all admissible degree pairs (s1, s2), takes the smallest bound
    value, and assembles the underlying sign-certificate for the winning
    pair, requiring acceptance at float tolerance 1e-8.
    """
    if params.r != 2:
        return _inapplicable("r2", UPPER_CODE, "defined for block depth r = 2")
    _check_d(params, d)
    best: tuple[float, R2Witness] | None = None
    for w in _r2_candidates(params, float(d)):
        value = _r2_value(params, w)
        key = (value, w.s1 + w.s2, (w.s1, w.s2))
        if best is None or key < (best[0], best[1].s1 + best[1].s2, (best[1].s1, best[1].s2)):
            best = (value, w)
    if best is None:
        return _inapplicable("r2", UPPER_CODE, "no admissible degree pair")
    value, w = best
    _, check = r2_certificate(params, d, w)
    if not check.accepted:
        raise AssertionError(
            f"depth-2 certificate rejected for witness {w}: {check.reason}"
        )
    return BoundResult(
        name="r2",
        side=UPPER_CODE,
        applicable=True,
        value=value,
        floor=floor(value),
        tolerance=1e-8 * value,
        witness=w.as_dict(),
    )


def r2_ooa_bound(params: SpaceParams, t: int) -> BoundResult:
    """Reciprocal form of the depth-2 bound for arrays of strength t."""
    return _reciprocal(params, "r2-ooa", r2_bound(params, t + 1))


def r2_region(params: SpaceParams, w: R2Witness) -> list[Shape]:
    """Shapes (f1, f2) with f2 <= s2 and f1 at most the largest degree whose
    smallest root still exceeds beta."""
    q, n = params.q, params.n
    region = []
    for f2 in range(0, w.s2 + 1):
        phi = 0
        while phi + 1 <= n - f2 - 1 and f2 + phi + 1 <= n:
            root = k_root_min(q, n - f2, phi + 1)
            if root > w.beta + 1e-12:
                phi += 1
            else:
                break
        for f1 in range(0, phi + 1):
            region.append((f1, f2))
    return region


def r2_certificate(
    params: SpaceParams, d: int, w: R2Witness
) -> tuple[DualCertificate, CertificateCheck]:
    """Assemble F(e) = (P(e) - P(a)) U_L(a, e)^2 for a = (alpha, beta) and the
    region L of the winning witness, expand it over the Krawtchouk basis, and
    run the certificate checker at float tolerance 1e-8.

    Over a float copy K of the eigenmatrix, with valencies v = K[:, 0], both
    steps are matrix products: U_L(a, .) = (K_f(a) / v_f)_{f in L} K[L], and
    F_g = <F, K_g> / v_g gives the coefficients K (F v) / (q^(nr) v)."""
    a = (w.alpha, w.beta)
    T = krawtchouk_table(params)
    K = np.array(T.rows, dtype=float)
    v = K[:, 0]
    region = r2_region(params, w)
    rows = [T.index[f] for f in region]
    k_at_a = np.array([K_multi(params, f, a) for f in region])
    u = (k_at_a / v[rows]) @ K[rows]
    # P(e) - P(a) = (alpha + 2 beta) - |e|', the mean delta_crit r n cancels
    P = (w.alpha + 2 * w.beta) - np.array([shape_weight(e) for e in T.shapes], dtype=float)
    coeffs = (K @ (P * u * u * v) / (params.ambient_size * v)).tolist()
    cert = DualCertificate(
        params=params, d=d, F0=coeffs[0], F=dict(zip(T.shapes[1:], coeffs[1:]))
    )
    return cert, check_certificate(cert, tol=1e-8)


# ---------------------------------------------------------------------------
# Aggregation


@dataclass(frozen=True)
class BoundTable:
    params: SpaceParams
    d: int
    bounds: tuple[BoundResult, ...]
    best_upper: str | None
    best_lower: str | None

    def as_json_dict(self) -> dict:
        return {
            "params": {"q": self.params.q, "r": self.params.r, "n": self.params.n},
            "d": self.d,
            "bounds": [b.as_json_dict() for b in self.bounds],
            "best_upper": self.best_upper,
            "best_lower": self.best_lower,
        }


def best_bounds(params: SpaceParams, d: int) -> BoundTable:
    """Evaluate every bound at distance d (strength d-1 for the array side);
    inapplicable bounds are included with their reason, never dropped."""
    _check_d(params, d)
    spectral = spectral_bound(params, d)
    results: list[BoundResult] = [
        singleton(params, d),
        plotkin(params, d),
        hamming(params, d),
        bassalygo_elias(params, d),
        gilbert(params, d),
        spectral,
    ]
    if params.r == 2:
        r2 = r2_bound(params, d)
        results.append(r2)
    t = d - 1
    results.append(rao(params, t))
    results.append(dual_plotkin_ooa(params, t))
    results.append(_reciprocal(params, "spectral-ooa", spectral))
    if params.r == 2:
        results.append(_reciprocal(params, "r2-ooa", r2))

    uppers = [b for b in results if b.applicable and b.side == UPPER_CODE]
    lowers = [b for b in results if b.applicable and b.side == LOWER_CODE]
    best_upper = min(uppers, key=lambda b: (float(b.value), b.name)).name if uppers else None
    best_lower = max(lowers, key=lambda b: (float(b.value), b.name)).name if lowers else None
    return BoundTable(
        params=params,
        d=d,
        bounds=tuple(results),
        best_upper=best_upper,
        best_lower=best_lower,
    )


def bound_table_json(table: BoundTable) -> str:
    return json.dumps(table.as_json_dict(), indent=2)
