"""Asymptotic rate-versus-distance curves for the ordered Hamming space.

The sphere-volume exponent H is computed through the unique positive root
of its saddle-point equation; the linear-programming curve maximizes the
limiting eigenvalue expression over weight profiles, a trust-region
subproblem solved through one eigendecomposition per (q, r) and one
bisection per tau; the depth-2 curve minimizes a two-parameter entropy
expression under a root-position constraint, on a grid scanned with numpy
in blocks of about BLOCK points and refined locally on floats.
Everything here is double precision; exactness is not meaningful for
these quantities.  The sphere-exponent curves are written for arrays and
evaluate a whole grid in one call; a float runs through them as a
one-element array.  Only the functions that build arrays import numpy, so
importing this module does not load it; the dispatchers that also take
floats test for a Python scalar, and their float calls import nothing.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple

from .krawtchouk import _SCALARS, _extremes, gamma
from .space import BudgetExceeded, CheckFailure, delta_crit


CurvePoint = namedtuple("CurvePoint", "delta rate meta")
NetCurvePoint = namedtuple("NetCurvePoint", "delta rate alpha")


class RootBracketError(CheckFailure):
    """The saddle-point equation of H has no sign change to bracket its root."""


def _power_sums(q: int, r: int, z):
    """A scale s and, both divided by s^r, the sums 1 + A(z) and
    ((q-1)/q) sum_{i=1..r} i z^i, with A(z) = ((q-1)/q) (z + ... + z^r),
    elementwise on an array z > 0.

    s = 1 where z^r <= 2^512, which keeps both sums (at most r^2 z^r) far
    inside the float range, and the sums are the unscaled ones bit for bit.
    Above that s = z, and each power z^i / s^r is taken as
    (z/s)^i (1/s)^(r-i), a product of two numbers in [0, 1], so nothing
    overflows at large r.
    """
    import numpy as np

    s = np.where(r * np.log2(z) > 512, z, 1.0)
    u, w = z / s, 1.0 / s
    terms = [u**i * w ** (r - i) for i in range(1, r + 1)]
    c = (q - 1) / q
    return s, w**r + c * sum(terms), c * sum(i * t for i, t in enumerate(terms, start=1))


def _elementwise(fn):
    """Let fn(q, r, x), written for an array x, take a float x too."""

    @functools.wraps(fn)
    def at(q: int, r: int, x):
        if not isinstance(x, _SCALARS):
            return fn(q, r, x)
        import numpy as np

        return float(fn(q, r, np.array([float(x)]))[0])

    return at


@_elementwise
def z0_solve(q: int, r: int, x):
    """Unique positive root z0 of  x r (1 + A(z)) = ((q-1)/q) sum i z^i,
    at a float or elementwise on an array.

    The root grows with x and reaches q at the critical distance, so the
    initial bracket is expanded geometrically until it straddles the root.
    Each element bisects on its own and stops once its bracket cannot
    shrink any further.
    """
    import numpy as np

    lo, hi = _extremes(x)
    if not (0 < lo and hi < 1):
        raise ValueError(f"x={hi if 0 < lo else lo} outside (0, 1)")

    def g(z):  # the equation divided by s^r > 0, which keeps its sign
        _, one_plus_a, rhs = _power_sums(q, r, z)
        return x * r * one_plus_a - rhs

    lo = np.full(x.shape, 1e-30)
    hi = np.full(x.shape, float(max(q, r) + 1))
    for _ in range(201):
        grow = g(hi) > 0
        if not grow.any():
            break
        hi[grow] *= 2
    else:
        raise RootBracketError(f"no sign change up to z={hi.max()}")
    live = np.ones(x.shape, dtype=bool)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        live &= (mid != lo) & (mid != hi)  # the bracket cannot shrink any further
        if not live.any():
            break
        up = g(mid) > 0
        lo = np.where(live & up, mid, lo)
        hi = np.where(live & ~up, mid, hi)
    return 0.5 * (lo + hi)


def h_q(q: int, x):
    """q-ary entropy -x log_q(x/(q-1)) - (1-x) log_q(1-x), with 0 log 0 = 0,
    at a float or elementwise on an array."""
    if isinstance(x, _SCALARS):
        log = math.log
    else:
        import numpy as np

        log = np.log
    lo, hi = _extremes(x)
    if not (0 <= lo and hi <= 1):
        raise ValueError(f"x={hi if 0 <= lo else lo} outside [0, 1]")
    log_q = math.log(q)
    a, b = x / (q - 1), 1 - x
    # a zero argument is read as 1, whose log is 0
    return -(x * (log(a + (a == 0)) / log_q)) - b * (log(b + (b == 0)) / log_q)


@_elementwise
def H(q: int, r: int, x):
    """Sphere-volume exponent x (1 - log_q z0) + (1/r) log_q(1 + A(z0)), with
    H(0) = 0, at a float or elementwise on an array."""
    import numpy as np

    dc = float(delta_crit(q, r))
    lo, hi = _extremes(x)
    if not (0 <= lo and hi <= dc):
        raise ValueError(f"x={hi if 0 <= lo else lo} outside [0, delta_crit]")
    y = np.where(x > 0, x, dc)  # any root will do where x = 0
    z0, log_q = z0_solve(q, r, y), math.log(q)
    s, one_plus_a, _ = _power_sums(q, r, z0)  # log(1 + A(z0)) = r log s + log(one_plus_a)
    h = y * (1 - np.log(z0) / log_q) + (r * np.log(s) + np.log(one_plus_a)) / log_q / r
    return np.where(x > 0, h, 0.0)


# ---------------------------------------------------------------------------
# Elementary curves (rate as a function of relative distance), each at a
# float or elementwise on an array


def _cut(delta: np.ndarray, inside, dc=math.nan) -> np.ndarray:
    """1 at delta <= 0, 0 at delta >= dc (never when dc is NaN), and
    inside(delta) in between."""
    import numpy as np

    out = np.where(delta <= 0, 1.0, 0.0)
    mid = ~((delta <= 0) | (delta >= dc))  # NaN goes to inside: H rejects it, plotkin passes it on
    if mid.any():
        out[mid] = inside(delta[mid])
    return out


@_elementwise
def gv_curve(q: int, r: int, delta):
    return _cut(delta, lambda d: 1.0 - H(q, r, d), float(delta_crit(q, r)))


@_elementwise
def hamming_curve(q: int, r: int, delta):
    return _cut(delta, lambda d: 1.0 - H(q, r, d / 2))


@_elementwise
def plotkin_curve(q: int, r: int, delta):
    dc = float(delta_crit(q, r))
    return _cut(delta, lambda d: 1.0 - d / dc, dc)


@_elementwise
def be_curve(q: int, r: int, delta):
    import numpy as np

    dc = float(delta_crit(q, r))
    return _cut(delta, lambda d: 1.0 - H(q, r, dc * (1.0 - np.sqrt(1.0 - d / dc))), dc)


def curve_grid(curve, q: int, r: int, grid: int) -> tuple[list[float], list[float]]:
    """An elementary curve at delta_crit j / grid, j = 1..grid, in one array
    call; returns the deltas and the rates."""
    import numpy as np

    deltas = float(delta_crit(q, r)) * np.arange(1, grid + 1) / grid
    return deltas.tolist(), curve(q, r, deltas).tolist()


# ---------------------------------------------------------------------------
# The limiting eigenvalue expression and the LP curve


@functools.lru_cache(maxsize=None)
def _lambda_constants(q: int, r: int) -> tuple[tuple, ...]:
    """For i = 1..r: L_i, q^(i-1), q^r - q^(i-1) and the cross powers
    q^(i+k), k = 1..i-1, of `lambda_expression`.  Raises BudgetExceeded
    when the largest power, q^(2r-1), exceeds the float range; the first
    test decides that without building q^(2r-1) at large r."""
    m = 2 * r - 1
    if (q.bit_length() - 1) * m >= 1024 or q**m > sys.float_info.max:
        raise BudgetExceeded(f"cross power {q}^{m} of the LP curve exceeds the float range")
    return tuple(
        (
            (q ** (r - i + 1) - 1) / (q**r * (q - 1)),
            q ** (i - 1),
            q**r - q ** (i - 1),
            tuple(q ** (i + k) for k in range(1, i)),
        )
        for i in range(1, r + 1)
    )


def lambda_expression(q: int, r: int, taus):
    """Limiting scaled eigenvalue contribution of a weight profile
    (tau_1, ..., tau_r) with tau = sum tau_i:

        sum_i L_i [ 2 sqrt((1-tau) tau_i (q-1) q^(i-1))
                    + (q-2) tau_i (q^r - q^(i-1))
                    + 2 (q-1)/q sum_{k<i} sqrt(tau_k tau_i q^(i+k)) ].

    Each tau_i is a float, or an array holding one profile per entry.
    Negative parts are clamped to 0 as (x + |x|) / 2, which is 2x / 2 or 0
    exactly.  Sums are plain left-to-right loops from 0, as `sum` adds
    arrays, so a float and an array give the same bits (`sum` of floats is
    compensated from Python 3.12 on).
    """
    constants = _lambda_constants(q, r)  # first: it checks the float range
    tau = 0
    for t in taus:
        tau = tau + t
    if isinstance(tau, _SCALARS):
        sqrt = math.sqrt
    else:
        import numpy as np

        sqrt = np.sqrt
    clamped = [(t + abs(t)) * 0.5 for t in taus]  # products of these need no clamp
    cross = 2.0 * (q - 1) / q
    total = 0.0
    for ti, (li, low, high, powers) in zip(clamped, constants):
        x = (1 - tau) * ti * (q - 1) * low
        term = 2.0 * sqrt((x + abs(x)) * 0.5)
        term += (q - 2) * ti * high
        pairs = 0
        for tk, power in zip(clamped, powers):
            pairs = pairs + sqrt(tk * ti * power)
        term += cross * pairs
        total += li * term
    return total


BLOCK = 4096  # grid points per array call of the depth-2 grid and scan


@functools.lru_cache(maxsize=None)
def _lambda_spectrum(q: int, r: int):
    """`lambda_expression` as a.x + x^T B x at x_i = sqrt(tau_i), with
    a = sqrt(1 - tau) a0 and

        a0_i = 2 L_i sqrt((q-1) q^(i-1)),   B_ii = L_i (q-2) (q^r - q^(i-1)),
        B_ik = B_ki = L_i (q-1) sqrt(q^(i+k)) / q   for k < i.

    Returns the gaps rho(B) - lambda_j of the eigenvalues in ascending
    order (the last is 0), the eigenvectors (columns) and the components of
    a0 along them."""
    import numpy as np

    constants = _lambda_constants(q, r)  # first: it checks the float range
    a0, B = np.empty(r), np.empty((r, r))
    for i, (li, low, high, powers) in enumerate(constants):
        a0[i] = 2.0 * li * math.sqrt((q - 1) * low)
        B[i, i] = li * (q - 2) * high
        for k, power in enumerate(powers):
            B[i, k] = B[k, i] = li * (q - 1) * math.sqrt(power) / q
    lam, V = np.linalg.eigh(B)
    return lam[-1] - lam, V, V.T @ a0


def lambda_asym(q: int, r: int, tau: float) -> tuple[float, tuple[float, ...]]:
    """Maximum of the limiting eigenvalue expression over weight profiles
    with total tau; returns (max, argmax).

    The expression is a.x + x^T B x on the sphere |x|^2 = tau
    (`_lambda_spectrum`), a trust-region subproblem with a >= 0 and B >= 0
    entrywise.  Its global maximum is at x = (mu I - B)^(-1) a / 2 for the
    mu > rho(B) with |x(mu)|^2 = tau (Moré and Sorensen 1983; Gander, Golub
    and von Matt 1989), and x >= 0, from the Neumann series of
    (mu I - B)^(-1), so it is a weight profile.  In the eigenbasis, with
    mu = rho(B) + s and w_j = (a.v_j)^2 / 4, |x|^2 = sum_j w_j / (s + gap_j)^2
    falls from infinity to 0 on s > 0; s is bisected until its bracket
    cannot shrink, and taken from rho(B) it keeps every digit at large
    rho(B).  At tau = 1 (a = 0) x is the Perron vector.  The profile is x^2
    with its last part set to tau less the others (0 if they pass tau),
    then raised until the float sum is not short of tau: `lambda_expression`
    adds the parts left to right, and at tau = 1 a sum one ulp short adds
    about 1e-8 through its sqrt(1 - tau) term.  The maximum is
    `lambda_expression` at the profile; it agrees with the weak-duality
    bound mu tau + sum_j w_j / (s + gap_j) to rounding.
    """
    if not 0 <= tau <= 1:
        raise ValueError(f"tau={tau} outside [0, 1]")
    if tau == 0:
        return 0.0, (0.0,) * r
    if r == 1:
        return lambda_expression(q, 1, (tau,)), (tau,)
    gaps, V, c0 = _lambda_spectrum(q, r)
    if tau == 1:
        x = V[:, -1]
    else:
        w = (1 - tau) / 4 * c0 * c0
        # the top term alone reaches tau at lo; at hi no term passes its share
        lo, hi = math.sqrt(w[-1] / tau), math.sqrt(w.sum() / tau)
        while lo < (s := 0.5 * (lo + hi)) < hi:
            if (w / (s + gaps) ** 2).sum() > tau:
                lo = s
            else:
                hi = s
        x = V @ (math.sqrt(1 - tau) / 2 * c0 / (hi + gaps))
    parts = (x * x).tolist()
    head = 0
    for t in parts[:-1]:
        head = head + t
    parts[-1] = max(tau - head, 0.0)
    while head + parts[-1] < tau:
        parts[-1] = math.nextafter(parts[-1], math.inf)
    return lambda_expression(q, r, parts), tuple(parts)


def lp_rate(q: int, r: int, tau: float) -> float:
    return (h_q(q, tau) + tau * math.log((q**r - 1) / (q - 1), q)) / r


def lp_curve(q: int, r: int, taus) -> list[CurvePoint]:
    """Parametric linear-programming curve over the supplied tau grid,
    emitted in ascending delta order."""
    dc, points = float(delta_crit(q, r)), []
    for tau in taus:
        lam, profile = lambda_asym(q, r, tau)
        meta = {"tau": tau, "profile": profile}
        points.append(CurvePoint(dc - lam / r, lp_rate(q, r, tau), meta))
    points.sort(key=lambda pt: pt.delta)
    return points


def lp_curve_default_taus(q: int, grid: int) -> list[float]:
    """Principal branch: tau in (0, (q-1)/q], where the entropy term is
    increasing and delta decreases with tau."""
    top = (q - 1) / q
    return [top * j / grid for j in range(1, grid + 1)]


# ---------------------------------------------------------------------------
# Depth-2 curve


def _phi_objective(q: int, t1, t2, h1=None):
    """Depth-2 objective at (t1, t2), at floats or elementwise on arrays;
    h1, when given, is h_q(q, t1)."""
    h1 = h_q(q, t1) if h1 is None else h1
    return 0.5 * (t2 + h1 + (1 - t1) * h_q(q, t2 / (1 - t1)))


def _phi_t2_terms(q: int, t2):
    """The part of the root-position constraint that depends on t2 alone:
    gamma(q, t2) and (2 - gamma(q, t2)) (1 - t2)."""
    g2 = gamma(q, t2)
    return g2, (2 - g2) * (1 - t2)


def _phi_constraint(q: int, t1, t2, t2_terms=None, g1=None):
    """Left side g2 + w2 g1 of the root-position constraint at (t1, t2), at
    floats or elementwise on arrays that broadcast; t2_terms, when given, is
    `_phi_t2_terms(q, t2)`, and g1 is gamma(q, t1)."""
    g2, w2 = t2_terms or _phi_t2_terms(q, t2)
    return g2 + w2 * (gamma(q, t1) if g1 is None else g1)


def _phi_feasible(q: int, t1, t2, delta: float, t2_terms=None, g1=None):
    """Root-position constraint: `_phi_constraint` at most 2 delta."""
    return _phi_constraint(q, t1, t2, t2_terms, g1) <= 2 * delta


def phi_r2(q: int, delta: float) -> float:
    """Depth-2 asymptotic upper bound on the rate at relative distance
    delta; returns the vacuous value 1 when the constraint set is empty."""
    return phi_r2_with_witness(q, delta)[0]


@functools.lru_cache(maxsize=8)
def _phi_grid(q: int, steps: int):
    """The depth-2 grid, the same for every delta: the t1 column and the t2
    row (clamped to (q-1)/q, which its last point can round above), each at
    steps + 1 points, the left side of the constraint at every point, and
    the objective, built t1 by row in blocks of about BLOCK points; gamma
    and h_q of each t1 are float calls, as in the refinement."""
    import numpy as np

    t1 = (q - 1) / q**2 * np.arange(steps + 1) / steps
    t2 = np.minimum((q - 1) / q * np.arange(steps + 1) / steps, (q - 1) / q)
    g1 = np.array([[gamma(q, v)] for v in t1.tolist()])
    h1 = np.array([[h_q(q, v)] for v in t1.tolist()])
    lhs = _phi_constraint(q, t1[:, None], t2, g1=g1)
    obj = np.empty_like(lhs)
    per = max(1, BLOCK // (steps + 1))  # t1 rows per block
    for i in range(0, steps + 1, per):
        obj[i : i + per] = _phi_objective(q, t1[i : i + per, None], t2, h1[i : i + per])
    return t1, t2, lhs, obj


def phi_r2_with_witness(q: int, delta: float):
    """Depth-2 minimum at delta and a point (t1, t2) attaining it, or
    (1.0, None) where no point of the grid meets the constraint.

    The 201 x 201 `_phi_grid` is scanned t1 by row, in blocks of about
    BLOCK points, for the first minimum over its feasible points in
    row-major order; a pattern search on floats refines it.  A sweep visits
    the 5 x 5 stencil t + (-1, -1/2, 0, 1/2, 1) x radius, clamped to the
    box, and moves at once to a feasible point that improves on the best by
    more than 1e-16, so the rest of the sweep is taken around the new
    centre; a sweep without a move shrinks both radii by 0.3, until both
    are at most 1e-12.  Each point is evaluated once per call: its
    objective (inf where infeasible) is kept, as are gamma and h_q of each
    t1 and the constraint terms of each t2.
    """
    if not 0 < delta <= float(delta_crit(q, 2)):
        raise ValueError(f"delta={delta} outside (0, delta_crit]")
    import numpy as np

    steps = 200
    t1_col, t2_row, lhs, obj = _phi_grid(q, steps)
    per = max(1, BLOCK // (steps + 1))  # t1 rows per block
    val = math.inf
    for i in range(0, steps + 1, per):
        vals = np.where(lhs[i : i + per] <= 2 * delta, obj[i : i + per], np.inf)
        k = int(vals.argmin())  # the first minimum of the block, row by row
        if vals.flat[k] < val:
            row, col = divmod(k, steps + 1)
            val, t1, t2 = float(vals.flat[k]), float(t1_col[i + row]), float(t2_row[col])
    if val == math.inf:
        return 1.0, None
    t1_max, t2_max = (q - 1) / q**2, (q - 1) / q
    radius1, radius2 = t1_max / steps, t2_max / steps
    at_t1, at_t2, at_point = {}, {}, {}  # [gamma, h_q or None]; t2 terms; objective or inf
    while radius1 > 1e-12 or radius2 > 1e-12:
        improved = False
        for di in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for dj in (-1.0, -0.5, 0.0, 0.5, 1.0):
                # from the centre as it stands: it moves within a sweep
                c1, c2 = t1 + di * radius1, t2 + dj * radius2
                c1 = 0.0 if c1 < 0.0 else t1_max if c1 > t1_max else c1
                c2 = 0.0 if c2 < 0.0 else t2_max if c2 > t2_max else c2
                cv = at_point.get((c1, c2))
                if cv is None:
                    terms1 = at_t1.get(c1) or at_t1.setdefault(c1, [gamma(q, c1), None])
                    terms2 = at_t2.get(c2) or at_t2.setdefault(c2, _phi_t2_terms(q, c2))
                    cv = math.inf
                    if _phi_feasible(q, c1, c2, delta, terms2, terms1[0]):
                        if terms1[1] is None:
                            terms1[1] = h_q(q, c1)
                        cv = _phi_objective(q, c1, c2, terms1[1])
                    at_point[c1, c2] = cv
                if cv < val - 1e-16:
                    val, t1, t2 = cv, c1, c2
                    improved = True
        if not improved:
            radius1 *= 0.3
            radius2 *= 0.3
    return val, (t1, t2)


# ---------------------------------------------------------------------------
# Digital-net curves (rate m/s versus relative strength (m-t)/s)


def psi_nets(q: int, delta: float) -> NetCurvePoint:
    """Existence exponent for digital nets: the root alpha of

        delta a^2 + (q-1)(delta+1) a - (q-1) = 0        (positive branch)

    plugged into  delta - 1 + log_q((q-1+a)/a) - delta log_q(1-a).
    Raises BudgetExceeded when ((q-1)(delta+1))^2 leaves the float range.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    b = (q - 1) * (delta + 1)
    if not math.isfinite(b * b):
        raise BudgetExceeded(f"((q-1)(delta+1))^2 at delta = {delta} exceeds the float range")
    disc = math.sqrt(b * b + 4 * delta * (q - 1))
    alpha = 2 * (q - 1) / (b + disc)  # rationalized positive root
    rate = delta - 1 + math.log((q - 1 + alpha) / alpha, q) - delta * math.log(1 - alpha, q)
    return NetCurvePoint(delta=delta, rate=rate, alpha=alpha)


def nets_rao(q: int, delta: float) -> float:
    """Strength-halving companion: every net family has rate at least
    Psi(delta/2)."""
    return psi_nets(q, delta / 2).rate
