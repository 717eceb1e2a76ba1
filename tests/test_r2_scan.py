"""The depth-2 root scan and certificate against the forms they replaced.

`_solve_alpha` reads k_{s2}(nu, x) and k_{s2+1}(nu, x) from one recurrence
pass and stops once the bracket cannot shrink, `r2_bound` bisects only the
pairs whose lower bound can still beat the best value found, with their
roots from one stacked eigenvalue call per degree, and `r2_certificate` is
two matrix products.  The references below are the earlier forms: 80
bisection steps with two separate `k_uni` evaluations each, a bisection
for every pair with roots one at a time, the value formula on the witness,
and two shape-by-shape loops.  The scans must agree bit for bit, the
certificate coefficients to 1e-12 of the largest.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil

import pytest

import nrtbounds.bounds as bounds_mod
from nrtbounds.bounds import (
    R2Witness,
    _r2_pairs,
    _solve_alpha,
    r2_bound,
    r2_certificate,
    r2_region,
)
from nrtbounds.krawtchouk import (
    BracketingError,
    K_multi,
    _k_values,
    k_root_min,
    k_uni,
    krawtchouk_table,
)
from nrtbounds.space import SpaceParams, delta_crit, enumerate_shapes, shape_count
from test_scheme import P_eval

# the spaces of the bounds-r2 benchmark workload
R2_SPACES = [(4, 8), (3, 9), (2, 12)]
# and more, up to n = 30 and q = 16, for the pruned scan
SCAN_SPACES = R2_SPACES + [(2, 8), (5, 6), (2, 30), (3, 14), (7, 5), (16, 4), (3, 20)]


def bracket(q: int, nu: float, s2: int) -> tuple[float, float]:
    """The ends (left, right) of the alpha bisection, one root at a time."""
    left = k_root_min(q, nu, s2 + 1)
    if s2 >= 1:
        return left, k_root_min(q, nu, s2)
    return left, 2 * (q - 1) * nu / q + 1


@lru_cache(maxsize=None)
def solve_alpha_two_passes(q: int, nu: float, s2: int) -> float:
    """The bisection with k_{s2} and k_{s2+1} from two `k_uni` calls."""
    w0 = (q - 1) * (nu - s2) / (s2 + 1)

    def g(x: float) -> float:
        denom = float(k_uni(q, nu, s2, x))
        if denom == 0.0:
            return float("-inf")
        return float(k_uni(q, nu, s2 + 1, x)) / denom + w0

    left, right = bracket(q, nu, s2)
    width = right - left
    lo = left + 1e-9 * width
    hi = right - 1e-9 * width
    if not (g(lo) > 0 and g(hi) < 0):
        raise BracketingError(f"not bracketed for s2={s2}")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_solving_every_pair(params: SpaceParams, d_cap: float) -> list[R2Witness]:
    """The candidate scan that bisects every admissible pair."""
    n, q = params.n, params.q
    out = []
    for s1 in range(1, n + 1):
        for s2 in range(0, n + 1):
            if s1 + s2 > n or not n - s2 > s1:
                continue
            beta = k_root_min(q, n - s2, s1)
            nu = n - beta
            if not nu > s2 + 1:
                continue
            try:
                alpha = solve_alpha_two_passes(q, nu, s2)
            except (BracketingError, ValueError):
                continue
            if alpha + 2 * beta <= d_cap:
                out.append(R2Witness(s1=s1, s2=s2, alpha=alpha, beta=beta))
    return out


def value_of(params: SpaceParams, w: R2Witness) -> float:
    """The depth-2 bound of a witness, in the formula's own order."""
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


def full_scan_minimum(params: SpaceParams, d: int):
    """(value, witness) of the full scan's winner: smallest value, then
    fewest degrees, then smallest (s1, s2); None without a candidate."""
    ranked = [
        (value_of(params, w), w.s1 + w.s2, w.s1, w.s2, w)
        for w in scan_solving_every_pair(params, float(d))
    ]
    if not ranked:
        return None
    value, *_, w = min(ranked)
    return value, w


def scanned_pairs(q: int, n: int):
    """(s2, nu) for every pair (s1, s2) the scan bisects on q r2 n."""
    for s1 in range(1, n + 1):
        for s2 in range(0, n + 1 - s1):
            if n - s2 > s1:
                nu = n - k_root_min(q, n - s2, s1)
                if nu > s2 + 1:
                    yield s2, nu


@pytest.mark.parametrize("q,n", R2_SPACES)
def test_one_pass_alpha_is_bit_identical(q, n):
    solved = 0
    for s2, nu in scanned_pairs(q, n):
        try:
            want = solve_alpha_two_passes(q, nu, s2).hex()
        except BracketingError:
            want = None
        try:
            got = _solve_alpha(q, nu, s2, *bracket(q, nu, s2)).hex()
        except BracketingError:
            got = None
        assert got == want, (s2, nu)
        solved += want is not None
    assert solved >= 20


@pytest.mark.parametrize("q,n", R2_SPACES)
def test_alpha_bisection_stops_when_the_bracket_stops_moving(q, n, monkeypatch):
    # the reference evaluates W at both ends and then 80 times; once the
    # midpoint equals an end the bracket cannot move, and the solve stops
    calls = []

    def counting(*args):
        calls.append(args)
        return _k_values(*args)

    monkeypatch.setattr(bounds_mod, "_k_values", counting)
    counts = []
    for s2, nu in scanned_pairs(q, n):
        before = len(calls)
        try:
            _solve_alpha(q, nu, s2, *bracket(q, nu, s2))
        except BracketingError:
            continue
        counts.append(len(calls) - before)
    assert max(counts) <= 82
    assert sum(counts) < 0.9 * 82 * len(counts)


@pytest.mark.parametrize("q,n", SCAN_SPACES)
def test_candidates_match_full_scan_at_every_d(q, n, monkeypatch):
    # r2_bound's value and witness are the full scan's minimum bit for bit,
    # while it bisects only some of the pairs the full scan bisects
    params = SpaceParams(q, 2, n)
    calls = []

    def counting(*args):
        calls.append(args)
        return _solve_alpha(*args)

    monkeypatch.setattr(bounds_mod, "_solve_alpha", counting)
    for d in range(1, params.dim + 2):
        want = full_scan_minimum(params, d)
        got = r2_bound(params, d)
        if want is None:
            assert not got.applicable, d
            continue
        value, w = want
        assert got.applicable, d
        assert got.value.hex() == value.hex(), d
        assert (got.witness["s1"], got.witness["s2"]) == (w.s1, w.s2), d
        assert got.witness["alpha"].hex() == w.alpha.hex(), d
        assert got.witness["beta"].hex() == w.beta.hex(), d
    pairs = sum(1 for _ in scanned_pairs(q, n))
    assert 0 < len(calls) < pairs * (params.dim + 1)


@pytest.mark.parametrize("n", [60, 80])
def test_pairs_skip_roots_below_float_resolution(n):
    # float eigenvalues put some roots at or below 0 here: at n = 60 three
    # betas and two left ends, at n = 80 42 betas, and 13 left ends at or
    # past their right end; the scan keeps none of those pairs
    params = SpaceParams(2, 2, n)
    for d in (n // 2, 2 * n):
        pairs = _r2_pairs(params, float(d))
        assert pairs, d
        for lower, s1, s2, nu, beta, left, right, vs in pairs:
            assert beta > 0 and 0 < left < right and 0 < lower < float("inf"), (d, s1, s2)
        assert [p[0] for p in pairs] == sorted(p[0] for p in pairs)


def certificate_by_loops(params: SpaceParams, w: R2Witness) -> list[float]:
    """The coefficients F_0, F_g of the depth-2 certificate, in shape order,
    from the shape-by-shape loops that the matrix products replaced."""
    a = (w.alpha, w.beta)
    region = r2_region(params, w)
    shapes = list(enumerate_shapes(params))
    table = krawtchouk_table(params)
    counts = {f: shape_count(params, f) for f in shapes}
    k_at_a = {f: K_multi(params, f, a) for f in region}
    p_at_a = float(delta_crit(params.q, 2) * params.dim) - (w.alpha + 2 * w.beta)

    def F(e) -> float:
        u = sum(k_at_a[f] * table[f, e] / counts[f] for f in region)
        return (float(P_eval(params, e)) - p_at_a) * u * u

    values = {e: F(e) for e in shapes}
    coeffs = []
    for g in shapes:
        acc = 0.0
        for e in shapes:
            acc += values[e] * table[g, e] * counts[e]
        coeffs.append(acc / (params.ambient_size * counts[g]))
    return coeffs


@pytest.mark.parametrize("q,n", R2_SPACES + [(2, 8)])
def test_certificate_products_match_loops(q, n):
    # every candidate witness of the scan at any d, checked at the smallest
    # d that admits it, where the sign conditions are strictest
    params = SpaceParams(q, 2, n)
    shapes = list(enumerate_shapes(params))
    witnesses = dict.fromkeys(
        w for d in range(1, params.dim + 2) for w in scan_solving_every_pair(params, float(d))
    )
    assert len(witnesses) >= 20
    for w in witnesses:
        cert, chk = r2_certificate(params, max(1, ceil(w.alpha + 2 * w.beta)), w)
        assert chk.accepted, (w, chk.reason)
        want = certificate_by_loops(params, w)
        got = [cert.F0] + [cert.F[g] for g in shapes[1:]]
        largest = max(abs(c) for c in want)
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-12 * largest, w
