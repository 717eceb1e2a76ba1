"""Asymptotic rate-versus-distance curves for the ordered Hamming space.

The sphere-volume exponent H is computed through the unique positive root
of its saddle-point equation; the linear-programming curve maximizes the
limiting eigenvalue expression over weight profiles; the depth-2 curve
minimizes a two-parameter entropy expression under a root-position
constraint.  Everything here is double precision with deterministic grids
and local refinement; exactness is not meaningful for these quantities.
The grids are scanned with numpy one row at a time, through the same
functions that the refinement calls on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .krawtchouk import gamma
from .space import delta_crit


@dataclass(frozen=True)
class CurvePoint:
    delta: float
    rate: float
    meta: dict


@dataclass(frozen=True)
class NetCurvePoint:
    delta: float
    rate: float
    alpha: float


class RootBracketError(Exception):
    pass


def _poly_sum(q: int, r: int, z: float) -> float:
    """A(z) = ((q-1)/q) (z + z^2 + ... + z^r)."""
    return (q - 1) / q * sum(z**i for i in range(1, r + 1))


def z0_solve(q: int, r: int, x: float) -> float:
    """Unique positive root z0 of  x r (1 + A(z)) = ((q-1)/q) sum i z^i.

    The root grows with x and reaches q at the critical distance, so the
    initial bracket is expanded geometrically until it straddles the root.
    """
    if not 0 < x < 1:
        raise ValueError(f"x={x} outside (0, 1)")

    def g(z: float) -> float:
        rhs = (q - 1) / q * sum(i * z**i for i in range(1, r + 1))
        return x * r * (1 + _poly_sum(q, r, z)) - rhs

    lo = 1e-30
    hi = float(max(q, r) + 1)
    grow = 0
    while g(hi) > 0:
        hi *= 2
        grow += 1
        if grow > 200:
            raise RootBracketError(f"no sign change up to z={hi}")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # the bracket cannot shrink any further
            break
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _nonneg(x):
    """max(x, 0) for a float or an array, exactly: x + |x| is 2x or 0."""
    return (x + abs(x)) * 0.5


def h_q(q: int, x):
    """q-ary entropy -x log_q(x/(q-1)) - (1-x) log_q(1-x), with 0 log 0 = 0,
    at a float or elementwise on an array."""
    array = isinstance(x, np.ndarray)
    lo, hi = (x.min(), x.max()) if array else (x, x)
    if lo < 0 or hi > 1:
        raise ValueError(f"x={x} outside [0, 1]")
    log, log_q = (np.log if array else math.log), math.log(q)
    a, b = x / (q - 1), 1 - x
    # a zero argument is read as 1, whose log is 0
    return -(x * (log(a + (a == 0)) / log_q)) - b * (log(b + (b == 0)) / log_q)


def H(q: int, r: int, x: float) -> float:
    """Sphere-volume exponent: x (1 - log_q z0) + (1/r) log_q(1 + A(z0))."""
    if x == 0:
        return 0.0
    if not 0 < x <= float(delta_crit(q, r)):
        raise ValueError(f"x={x} outside (0, delta_crit]")
    z0 = z0_solve(q, r, x)
    return x * (1 - math.log(z0, q)) + math.log(1 + _poly_sum(q, r, z0), q) / r


# ---------------------------------------------------------------------------
# Elementary curves (rate as a function of relative distance)


def gv_curve(q: int, r: int, delta: float) -> float:
    dc = float(delta_crit(q, r))
    if delta <= 0:
        return 1.0
    if delta >= dc:
        return 0.0
    return 1.0 - H(q, r, delta)


def hamming_curve(q: int, r: int, delta: float) -> float:
    if delta <= 0:
        return 1.0
    return 1.0 - H(q, r, delta / 2)


def plotkin_curve(q: int, r: int, delta: float) -> float:
    dc = float(delta_crit(q, r))
    if delta <= 0:
        return 1.0
    if delta >= dc:
        return 0.0
    return 1.0 - delta / dc


def be_curve(q: int, r: int, delta: float) -> float:
    dc = float(delta_crit(q, r))
    if delta <= 0:
        return 1.0
    if delta >= dc:
        return 0.0
    inner = dc * (1.0 - math.sqrt(1.0 - delta / dc))
    return 1.0 - H(q, r, inner)


# ---------------------------------------------------------------------------
# The limiting eigenvalue expression and the LP curve


def lambda_expression(q: int, r: int, taus):
    """Limiting scaled eigenvalue contribution of a weight profile
    (tau_1, ..., tau_r) with tau = sum tau_i:

        sum_i L_i [ 2 sqrt((1-tau) tau_i (q-1) q^(i-1))
                    + (q-2) tau_i (q^r - q^(i-1))
                    + 2 (q-1)/q sum_{k<i} sqrt(tau_k tau_i q^(i+k)) ].

    Each tau_i is a float, or an array holding one profile per entry.
    """
    tau = sum(taus)
    sqrt = np.sqrt if isinstance(tau, np.ndarray) else math.sqrt
    total = 0.0
    for i in range(1, r + 1):
        li = (q ** (r - i + 1) - 1) / (q**r * (q - 1))
        ti = _nonneg(taus[i - 1])
        term = 2.0 * sqrt(_nonneg((1 - tau) * ti * (q - 1) * q ** (i - 1)))
        term += (q - 2) * ti * (q**r - q ** (i - 1))
        term += (
            2.0
            * (q - 1)
            / q
            * sum(sqrt(_nonneg(taus[k - 1] * ti) * q ** (i + k)) for k in range(1, i))
        )
        total += li * term
    return total


def _lattice(total: float, parts: int, steps: int) -> list[np.ndarray]:
    """Deterministic lattice on {x >= 0, sum x = total}, one array per
    coordinate.  Coordinate k takes the steps j/steps, j = 0..steps, of what
    coordinates 1..k-1 left, the last coordinate takes the rest, and the
    points are in lexicographic order of their step indices."""
    j = np.arange(steps + 1)
    rest = np.array([total], dtype=float)
    cols: list[np.ndarray] = []
    for _ in range(parts - 1):
        head = np.multiply.outer(rest, j) / steps
        cols = [c.repeat(steps + 1) for c in cols] + [head.ravel()]
        rest = (rest[:, None] - head).ravel()
    return cols + [rest]


def _lattice_rows(total: float, parts: int, steps: int):
    """The points of `_lattice`, in order, in blocks of columns: one block
    per step of the first coordinate when parts > 2, else one block."""
    if parts <= 2:
        yield _lattice(total, parts, steps)
        return
    for j in range(steps + 1):
        head = total * j / steps
        rest = _lattice(total - head, parts - 1, steps)
        yield [np.full(len(rest[0]), head)] + rest


def lambda_asym(q: int, r: int, tau: float) -> tuple[float, tuple[float, ...]]:
    """Maximum of the limiting eigenvalue expression over weight profiles
    with total tau; returns (max, argmax).

    Dense simplex grid followed by concave pairwise-transfer refinement.
    """
    if not 0 <= tau <= 1:
        raise ValueError(f"tau={tau} outside [0, 1]")
    if tau == 0:
        return 0.0, (0.0,) * r
    if r == 1:
        return lambda_expression(q, 1, (tau,)), (tau,)
    steps = 200 if r <= 3 else 40
    best_val = -math.inf
    for cols in _lattice_rows(tau, r, steps):
        vals = lambda_expression(q, r, cols)
        k = int(np.argmax(vals))  # the first maximum of the row
        if vals[k] > best_val:
            best_val, taus = float(vals[k]), [float(c[k]) for c in cols]
    # pairwise mass transfers; the expression is concave along each line
    for _ in range(200):
        improved = 0.0
        for i in range(r):
            for j in range(i + 1, r):
                mass = taus[i] + taus[j]
                if mass == 0:
                    continue
                lo, hi = 0.0, mass

                def value_at(x: float) -> float:
                    trial = list(taus)
                    trial[i], trial[j] = x, mass - x
                    return lambda_expression(q, r, trial)

                for _ in range(80):
                    m1 = lo + (hi - lo) / 3
                    m2 = hi - (hi - lo) / 3
                    if value_at(m1) < value_at(m2):
                        lo = m1
                    else:
                        hi = m2
                x = 0.5 * (lo + hi)
                new_val = value_at(x)
                if new_val > best_val:
                    improved += new_val - best_val
                    best_val = new_val
                    taus[i], taus[j] = x, mass - x
        if improved < 1e-14:
            break
    return best_val, tuple(taus)


def lp_rate(q: int, r: int, tau: float) -> float:
    return (h_q(q, tau) + tau * math.log((q**r - 1) / (q - 1), q)) / r


def lp_ooa_rate(q: int, r: int, tau: float) -> float:
    """Array-side reflection of the code curve: arrays of the matching
    relative strength have rate at least 1 minus the code rate."""
    return 1.0 - lp_rate(q, r, tau)


def lp_delta(q: int, r: int, tau: float) -> float:
    return lp_curve(q, r, [tau])[0].delta


def lp_curve(q: int, r: int, taus) -> list[CurvePoint]:
    """Parametric linear-programming curve over the supplied tau grid,
    emitted in ascending delta order."""
    points = []
    for tau in taus:
        lam, profile = lambda_asym(q, r, tau)
        delta = float(delta_crit(q, r)) - lam / r
        points.append(
            CurvePoint(
                delta=delta,
                rate=lp_rate(q, r, tau),
                meta={"tau": tau, "profile": profile},
            )
        )
    points.sort(key=lambda pt: pt.delta)
    return points


def lp_curve_default_taus(q: int, grid: int) -> list[float]:
    """Principal branch: tau in (0, (q-1)/q], where the entropy term is
    increasing and delta decreases with tau."""
    top = (q - 1) / q
    return [top * j / grid for j in range(1, grid + 1)]


# ---------------------------------------------------------------------------
# Depth-2 curve


def _phi_objective(q: int, t1: float, t2):
    """Depth-2 objective at (t1, t2); t2 is a float or an array."""
    return 0.5 * (t2 + h_q(q, t1) + (1 - t1) * h_q(q, t2 / (1 - t1)))


def _phi_t2_terms(q: int, t2):
    """The part of the root-position constraint that depends on t2 alone:
    gamma(q, t2) and (2 - gamma(q, t2)) (1 - t2)."""
    g2 = gamma(q, t2)
    return g2, (2 - g2) * (1 - t2)


def _phi_feasible(q: int, t1: float, t2, delta: float, t2_terms=None):
    """Root-position constraint at (t1, t2); t2 is a float or an array, and
    t2_terms, when given, is `_phi_t2_terms(q, t2)`."""
    g2, w2 = t2_terms or _phi_t2_terms(q, t2)
    return g2 + w2 * gamma(q, t1) <= 2 * delta


def phi_r2(q: int, delta: float) -> float:
    """Depth-2 asymptotic upper bound on the rate at relative distance
    delta; returns the vacuous value 1 when the constraint set is empty."""
    value, _ = phi_r2_with_witness(q, delta)
    return value


def phi_r2_with_witness(q: int, delta: float):
    if not 0 < delta <= float(delta_crit(q, 2)):
        raise ValueError(f"delta={delta} outside (0, delta_crit]")
    t1_max = (q - 1) / q**2
    t2_max = (q - 1) / q
    steps = 200
    t2_row = t2_max * np.arange(steps + 1) / steps
    row_terms = _phi_t2_terms(q, t2_row)  # the same on every t1 row
    best = None
    for i in range(steps + 1):
        t1 = t1_max * i / steps
        t2 = t2_row[_phi_feasible(q, t1, t2_row, delta, row_terms)]
        if not t2.size:
            continue
        vals = _phi_objective(q, t1, t2)
        k = int(np.argmin(vals))  # the first minimum of the row
        if best is None or vals[k] < best[0]:
            best = (float(vals[k]), t1, float(t2[k]))
    if best is None:
        return 1.0, None
    val, t1, t2 = best
    radius1 = t1_max / steps
    radius2 = t2_max / steps
    while radius1 > 1e-12 or radius2 > 1e-12:
        improved = False
        for di in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for dj in (-1.0, -0.5, 0.0, 0.5, 1.0):
                c1 = min(max(t1 + di * radius1, 0.0), t1_max)
                c2 = min(max(t2 + dj * radius2, 0.0), t2_max)
                if not _phi_feasible(q, c1, c2, delta):
                    continue
                cv = _phi_objective(q, c1, c2)
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
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    b = (q - 1) * (delta + 1)
    disc = math.sqrt(b * b + 4 * delta * (q - 1))
    alpha = 2 * (q - 1) / (b + disc)  # rationalized positive root
    rate = (
        delta
        - 1
        + math.log((q - 1 + alpha) / alpha, q)
        - delta * math.log(1 - alpha, q)
    )
    return NetCurvePoint(delta=delta, rate=rate, alpha=alpha)


def psi_quadratic_residual(q: int, delta: float, alpha: float) -> float:
    return delta * alpha * alpha + (q - 1) * (delta + 1) * alpha - (q - 1)


def nets_rao(q: int, delta: float) -> float:
    """Strength-halving companion: every net family has rate at least
    Psi(delta/2)."""
    return psi_nets(q, delta / 2).rate
