"""Finite-length bounds on ordered codes and orthogonal arrays.

Every bound is a pure function of the space parameters and the distance d
(codes) or strength t (arrays), returning a BoundResult.  Values are exact
rationals wherever the formula is rational; the two bounds that involve
eigenvalues or polynomial roots return floats with an explicit error bar.
A distance or strength outside the space raises ValueError (the checks in
`space`); a bound whose precondition fails returns an inapplicable result
rather than raising.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb, floor

from .delsarte import CertificateCheck, DualCertificate, format_rational
from .krawtchouk import BracketingError, K_multi, _k_values, _value_cube, k_root_min, k_root_mins
from .scheme import operators, spectral_radius
from .space import (
    BudgetExceeded,
    CheckFailure,
    Shape,
    SpaceParams,
    ball_size,
    check_distance,
    check_strength,
    check_weight,
    delta_crit,
    enumerate_shapes,
    shape_count,
    weight_distribution,
)

UPPER_CODE = "upper-on-code-size"
LOWER_CODE = "lower-on-code-size"
LOWER_OOA = "lower-on-ooa-size"


class BoundResult(
    namedtuple(
        "BoundResult",
        "name side applicable value floor tolerance witness reason",
        defaults=(None,) * 5,
    )
):
    """One bound: value is a Fraction or a float (with tolerance, its
    half-width), witness a dict of the parameters that attain it, and
    reason says why an inapplicable bound does not apply."""

    __slots__ = ()

    def as_json_dict(self) -> dict:
        """The fields in declaration order, with exact values as "p/q"
        strings and float values at 12 significant digits."""
        out = self._asdict()
        if isinstance(self.value, Fraction):
            out["value"] = format_rational(self.value)
        elif self.value is not None:
            out["value"] = float(f"{self.value:.12g}")
        if self.witness is not None:
            out["witness"] = {
                k: (format_rational(v) if isinstance(v, Fraction) else v)
                for k, v in self.witness.items()
            }
        return out


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


def _float(name: str, side: str, value: float, tolerance: float, witness: dict) -> BoundResult:
    return BoundResult(name, side, True, value, floor(value), tolerance, witness)


def _inapplicable(name: str, side: str, reason: str) -> BoundResult:
    return BoundResult(name=name, side=side, applicable=False, reason=reason)


# ---------------------------------------------------------------------------
# Elementary bounds


def singleton(params: SpaceParams, d: int) -> BoundResult:
    check_distance(params, d)
    return _exact("singleton", UPPER_CODE, Fraction(params.q ** (params.dim - d + 1)))


def plotkin(params: SpaceParams, d: int) -> BoundResult:
    """d / (d - n r delta_crit), valid only above the critical distance."""
    check_distance(params, d)
    mean = delta_crit(params.q, params.r) * params.dim
    if d <= mean:
        return _inapplicable("plotkin", UPPER_CODE, "requires d > n r delta_crit")
    return _exact("plotkin", UPPER_CODE, Fraction(d) / (d - mean))


def dual_plotkin_ooa(params: SpaceParams, t: int) -> BoundResult:
    """q^(nr) (1 - n r delta_crit / (t+1)), valid for t > n r delta_crit - 1."""
    check_strength(params, t)
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
    check_distance(params, d)
    tau = (d - 1) // 2
    return _exact(
        "hamming",
        UPPER_CODE,
        Fraction(params.ambient_size, ball_size(params, tau)),
        witness={"tau": tau},
    )


def rao(params: SpaceParams, t: int) -> BoundResult:
    """ball(tau) with tau = floor(t/2)."""
    check_strength(params, t)
    tau = t // 2
    return _exact(
        "rao", LOWER_OOA, Fraction(ball_size(params, tau)), witness={"tau": tau}
    )


def johnson(params: SpaceParams, d: int, w: int) -> BoundResult:
    """Constant-weight bound dn / (dn - 2wn + w^2/(r delta_crit))."""
    check_distance(params, d)
    check_weight(params, w)
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
    check_distance(params, d)
    dc = delta_crit(params.q, params.r)
    mean = dc * params.dim  # n r delta_crit
    if d > mean:
        return _inapplicable(
            "bassalygo-elias", UPPER_CODE, "requires d <= n r delta_crit"
        )
    spheres = weight_distribution(params)
    best: Fraction | None = None
    best_w = None
    w = 0  # always admissible, with johnson applicable (denominator dn > 0)
    while w <= mean and (mean - w) ** 2 >= mean * (mean - d):
        inner = johnson(params, d, w)
        if inner.applicable:
            candidate = Fraction(params.ambient_size, spheres[w]) * inner.value
            if best is None or candidate < best:
                best, best_w = candidate, w
        w += 1
    return _exact("bassalygo-elias", UPPER_CODE, best, witness={"w": best_w})


def gilbert(params: SpaceParams, d: int) -> BoundResult:
    """Existence: some code of distance d has at least ceil(q^(nr)/ball(d-1))
    words."""
    check_distance(params, d)
    ball = ball_size(params, d - 1)
    value = -(-params.ambient_size // ball)  # ceiling
    return _exact("gilbert", LOWER_CODE, Fraction(value))


def varshamov(params: SpaceParams, t: int) -> int:
    """Least m such that sum_{i<=t-tau} S_{i,n-1} < q^(m-tau+1) for every
    tau = 1..t-1, guaranteeing an [nr, nr-m] linear code of distance > t and
    a linear array of strength t and dimension m."""
    if not 1 <= t <= params.dim:
        raise ValueError(f"strength {t} out of range [1, {params.dim}]")
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
    once the hypothesis at kappa - 1 holds; no more than the operator in
    hand and, while `operators` builds the next, its predecessor are alive.
    """
    check_distance(params, d)
    dc = delta_crit(params.q, params.r)
    mean = dc * params.dim
    threshold = mean - d  # P(e) at |e|' = d
    ops = operators(params)
    # kappa = n is never admissible: lambda_n = P(0) = delta_crit r n exactly
    for kappa in range(1, params.n):
        S = next(ops)  # S_(kappa-1)
        lo_prev, _ = spectral_radius(S, decide=float(threshold))
        if not threshold <= Fraction(lo_prev):
            continue
        # rebinding S leaves S_(kappa-1) to `operators` alone, which drops it
        # once S_kappa is built, before its spectral radius runs
        S = next(ops)
        lo_k, hi_k = spectral_radius(S)
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
        try:  # float() of a Fraction raises past the float range, / rounds to inf
            value_hi = float(numerator) / float(mean - Fraction(hi_k))
            value_lo = float(numerator) / float(mean - Fraction(lo_k))
            witness = {"kappa": kappa, "lambda": hi_k}
            return _float("spectral", UPPER_CODE, value_hi, abs(value_hi - value_lo), witness)
        except OverflowError:
            raise BudgetExceeded(
                f"spectral bound at degree {kappa} exceeds the float range"
            ) from None
    return _inapplicable("spectral", UPPER_CODE, "no admissible degree kappa <= n")


def _reciprocal(params: SpaceParams, name: str, code: BoundResult) -> BoundResult:
    """Array bound q^(nr) / M at strength t from a code bound M at distance
    t + 1, with the code bound's witness and, for a float M, its error bar
    carried over; exact for an exact M.  Raises BudgetExceeded when a float
    quotient leaves the float range."""
    if not code.applicable:
        return _inapplicable(name, LOWER_OOA, code.reason)
    if isinstance(code.value, Fraction):
        return _exact(name, LOWER_OOA, params.ambient_size / code.value, code.witness)
    try:  # int / float raises past the float range, float / float rounds to inf
        value = params.ambient_size / code.value
        hi = params.ambient_size / (code.value - code.tolerance)
        return _float(name, LOWER_OOA, value, abs(hi - value), code.witness)
    except OverflowError:
        raise BudgetExceeded(
            f"{name} bound q^{params.dim} / {code.value:.6g} exceeds the float range"
        ) from None


def spectral_bound_ooa(params: SpaceParams, t: int) -> BoundResult:
    """Reciprocal form of the spectral bound for arrays of strength t."""
    check_strength(params, t)
    return _reciprocal(params, "spectral-ooa", spectral_bound(params, t + 1))


# ---------------------------------------------------------------------------
# Depth-2 root bound


R2Witness = namedtuple("R2Witness", "s1 s2 alpha beta")


def _solve_alpha(q: int, nu: float, s2: int, left: float, right: float) -> float:
    """Solve W(alpha) = -W(0) for W(x) = k_{s2+1}(nu, x) / k_{s2}(nu, x),
    with alpha between left, the smallest root of k_{s2+1}, and right, the
    smallest root of k_{s2} (for s2 = 0, a point beyond the affine
    solution).  Both values of W come from one recurrence pass."""
    w0 = (q - 1) * (nu - s2) / (s2 + 1)

    def g(x: float) -> float:
        *_, denom, numer = _k_values(q, nu, s2 + 1, x)
        if denom == 0.0:
            return float("-inf")
        return numer / denom + w0

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


def _r2_value(params: SpaceParams, s1: int, s2: int, alpha: float, beta: float, vs: int) -> float:
    """The depth-2 bound of the pair (s1, s2) at the point (alpha, beta),
    with vs = shape_count((s1 - 1, s2)).  For beta > 0 it falls as alpha
    grows: its alpha factor (alpha + 2 beta) / alpha^2 has the derivative
    -(alpha + 4 beta) / alpha^3."""
    q, n = params.q, params.n
    return (
        4
        * (n - beta - s2)
        * (n - s2 - s1 + 1) ** 2
        * (q - 1) ** 3
        * (alpha + 2 * beta)
        * vs
        / (q**3 * alpha**2 * beta**2)
    )


def _r2_pairs(params: SpaceParams, d_cap: float) -> list[tuple]:
    """The degree pairs (s1, s2) that can give a candidate with
    alpha + 2 beta <= d_cap, as tuples (lower, s1, s2, nu, beta, left,
    right, vs) sorted by lower, a lower bound on the pair's value.

    beta is the smallest root of k_{s1}(n - s2, .), nu = n - beta, and left
    and right are the smallest roots of k_{s2+1}(nu, .) and k_{s2}(nu, .),
    which bracket alpha.  Each kind of root comes from one `k_root_mins`
    call, and right only for the pairs whose left end is within the cap.
    As alpha <= min(right, d_cap - 2 beta) and the value falls as alpha
    grows, the value there is the lower bound; the cap is widened by a few
    roundings of d_cap, since alpha + 2 beta is compared in floats.  A pair
    is skipped unless beta > 0, 0 < left < right and that alpha bound is
    > 0: otherwise its roots are below what the float eigenvalues resolve.
    """
    q, n = params.q, params.n
    degrees = [(s1, s2) for s1 in range(1, n + 1) for s2 in range(n + 1) if n - s2 > s1]
    betas = k_root_mins(q, ((n - s2, s1) for s1, s2 in degrees))
    # nu > s2 + 1 makes every root of degree s2 + 1 real and inside (0, nu)
    rooted = [(s1, s2, b, n - b) for (s1, s2), b in zip(degrees, betas) if b > 0 and n - b > s2 + 1]
    lefts = k_root_mins(q, ((nu, s2 + 1) for _, s2, _, nu in rooted))
    # alpha >= left, so a pair whose left end is past the cap has no candidate
    capped = [(*p, left) for p, left in zip(rooted, lefts) if left + 2 * p[2] <= d_cap]
    rights = iter(k_root_mins(q, ((nu, s2) for _, s2, _, nu, _ in capped if s2 >= 1)))
    slack = 2**-50 * d_cap
    out = []
    for s1, s2, beta, nu, left in capped:
        right = next(rights) if s2 >= 1 else 2 * (q - 1) * nu / q + 1
        if not (0 < left < right and min(right, d_cap - 2 * beta) > 0):
            continue
        vs = shape_count(params, (s1 - 1, s2))
        lower = _r2_value(params, s1, s2, min(right, d_cap - 2 * beta + slack), beta, vs)
        out.append((lower, s1, s2, nu, beta, left, right, vs))
    return sorted(out)


def r2_bound(params: SpaceParams, d: int) -> BoundResult:
    """Depth-2 upper bound built from Krawtchouk root positions.

    Takes the smallest bound value over the admissible degree pairs
    (s1, s2).  The pairs are solved for alpha in the order of their lower
    bounds, and the scan stops at the first lower bound above the best
    value (less a 1e-12 relative margin for its roundings), since no later
    pair can win.  Then it assembles the underlying sign-certificate for
    the winning pair, and raises CheckFailure unless `r2_certificate`
    accepts it.  Raises BudgetExceeded when the roots, the value or the
    certificate leave the float range.
    """
    check_distance(params, d)
    if params.r != 2:
        return _inapplicable("r2", UPPER_CODE, "defined for block depth r = 2")
    # smallest value, then fewest degrees, then smallest (s1, s2), which is unique
    d_cap, best = float(d), None
    try:  # a float conversion of q, of a valency or of q^(nr) raises past the float range
        for lower, s1, s2, nu, beta, left, right, vs in _r2_pairs(params, d_cap):
            if best is not None and lower * (1 - 1e-12) > best[0]:
                break
            try:
                alpha = _solve_alpha(params.q, nu, s2, left, right)
            except BracketingError:
                continue
            if alpha + 2 * beta <= d_cap:
                w = R2Witness(s1=s1, s2=s2, alpha=alpha, beta=beta)
                ranked = (_r2_value(params, s1, s2, alpha, beta, vs), s1 + s2, s1, s2, w)
                best = ranked if best is None else min(best, ranked)
        if best is None:
            return _inapplicable("r2", UPPER_CODE, "no admissible degree pair")
        value, *_, w = best
        _, check = r2_certificate(params, d, w)
        result = _float("r2", UPPER_CODE, value, 1e-8 * value, w._asdict())
    except OverflowError:
        raise BudgetExceeded(f"depth-2 bound on q^{params.dim} words exceeds the float range") from None
    if not check.accepted:
        raise CheckFailure(f"depth-2 certificate rejected for witness {w}: {check.reason}")
    return result


def r2_ooa_bound(params: SpaceParams, t: int) -> BoundResult:
    """Reciprocal form of the depth-2 bound for arrays of strength t."""
    check_strength(params, t)
    return _reciprocal(params, "r2-ooa", r2_bound(params, t + 1))


def r2_region(params: SpaceParams, w: R2Witness) -> list[Shape]:
    """Shapes (f1, f2) with f2 <= s2 and f1 at most the largest degree whose
    smallest root still exceeds beta."""
    q, n = params.q, params.n
    region = []
    for f2 in range(0, w.s2 + 1):
        phi = 0
        while phi + 1 <= n - f2 - 1:
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
    check it in floats.

    The float eigenmatrix K_f(e) = q^f2 k_f1(n - f2, e2) k_f2(n - e2, e1) is
    two fancy-indexed products over `_value_cube`.  With valencies
    v = K[:, 0], U_L(a, .) = (K_f(a) / v_f)_{f in L} K[L], and F_g =
    <F, K_g> / v_g gives the coefficients K (F v) / (q^(nr) v).  Accepted
    when F_0 > 0, F_g >= -m, and F = coeffs @ K <= m wherever |e|' >= d,
    for m = 1e-8 max(1, max |F|); BudgetExceeded when K, the coefficients
    or F are not all finite."""
    import numpy as np

    q, n, a = params.q, params.n, (w.alpha, w.beta)
    shapes = list(enumerate_shapes(params))
    f1, f2 = np.array(shapes).T
    cube = np.array(_value_cube(q, n)[n:], dtype=float)  # cube[nu][x][s] for nu = 0..n
    region = r2_region(params, w)
    rows = [shapes.index(f) for f in region]
    with np.errstate(over="ignore", invalid="ignore"):
        K = float(q) ** f2[:, None] * cube[n - f2[:, None], f2, f1[:, None]] * cube[n - f2, f1, f2[:, None]]
        v = K[:, 0]
        u = (np.array([K_multi(params, f, a) for f in region]) / v[rows]) @ K[rows]
        # P(e) - P(a) = (alpha + 2 beta) - |e|', the mean delta_crit r n cancels
        coeffs = K @ ((w.alpha + 2 * w.beta - (f1 + 2 * f2)) * u * u * v) / (params.ambient_size * v)
        F = coeffs @ K
    if not all(np.isfinite(x).all() for x in (K, coeffs, F)):
        raise BudgetExceeded("depth-2 certificate exceeds the float range")
    margin = 1e-8 * max(1.0, np.abs(F).max())
    negative = np.flatnonzero(coeffs[1:] < -margin) + 1
    positive = np.flatnonzero((f1 + 2 * f2 >= d) & (F > margin))
    F0, at_zero = float(coeffs[0]), float(F[0])
    if not F0 > 0:
        check = CertificateCheck(False, reason="F0 must be positive")
    elif negative.size:
        check = CertificateCheck(False, reason="negative transform coefficient", witness=shapes[negative[0]])
    elif positive.size:
        check = CertificateCheck(False, reason="F positive at excluded shape", witness=shapes[positive[0]])
    else:
        check = CertificateCheck(True, at_zero / F0, params.ambient_size * F0 / at_zero)
    return DualCertificate(params, d, F0, dict(zip(shapes[1:], coeffs[1:].tolist()))), check


# ---------------------------------------------------------------------------
# Aggregation


class BoundTable(namedtuple("BoundTable", "params d bounds best_upper best_lower")):
    __slots__ = ()

    def as_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "params": self.params._asdict(),
            "bounds": [b.as_json_dict() for b in self.bounds],
        }


def best_bounds(params: SpaceParams, d: int) -> BoundTable:
    """Evaluate every bound at distance d (strength d-1 for the array side);
    inapplicable bounds are included with their reason, never dropped."""
    check_distance(params, d)
    spectral, t = spectral_bound(params, d), d - 1
    results: list[BoundResult] = [
        singleton(params, d),
        plotkin(params, d),
        hamming(params, d),
        bassalygo_elias(params, d),
        gilbert(params, d),
        spectral,
        r2 := r2_bound(params, d),
        rao(params, t),
        dual_plotkin_ooa(params, t),
        _reciprocal(params, "spectral-ooa", spectral),
        _reciprocal(params, "r2-ooa", r2),
    ]

    uppers = [b for b in results if b.applicable and b.side == UPPER_CODE]
    lowers = [b for b in results if b.applicable and b.side == LOWER_CODE]
    best_upper = min(uppers, key=lambda b: (Fraction(b.value), b.name)).name if uppers else None
    best_lower = max(lowers, key=lambda b: (Fraction(b.value), b.name)).name if lowers else None
    return BoundTable(
        params=params,
        d=d,
        bounds=tuple(results),
        best_upper=best_upper,
        best_lower=best_lower,
    )
