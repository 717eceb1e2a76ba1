"""The depth-2 root scan and certificate against the forms they replaced.

`_solve_alpha` reads k_{s2}(nu, x) and k_{s2+1}(nu, x) from one recurrence
pass and stops once the bracket cannot shrink, `_r2_candidates` skips the
bisection of a pair whose bracket's left end already exceeds the cap, and
`r2_certificate` is two matrix products.  The references below are the
earlier forms: 80 bisection steps with two separate `k_uni` evaluations
each, a bisection for every pair, and two shape-by-shape loops.  The scans
must agree bit for bit, the certificate coefficients to 1e-12 of the
largest.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil

import pytest

import nrtbounds.bounds as bounds_mod
from nrtbounds.bounds import (
    R2Witness,
    _r2_candidates,
    _solve_alpha,
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
from nrtbounds.scheme import P_eval
from nrtbounds.space import SpaceParams, delta_crit, enumerate_shapes, shape_count

# the spaces of the bounds-r2 benchmark workload
R2_SPACES = [(4, 8), (3, 9), (2, 12)]


@lru_cache(maxsize=None)
def solve_alpha_two_passes(q: int, nu: float, s2: int) -> float:
    """The bisection with k_{s2} and k_{s2+1} from two `k_uni` calls."""
    w0 = (q - 1) * (nu - s2) / (s2 + 1)

    def g(x: float) -> float:
        denom = float(k_uni(q, nu, s2, x))
        if denom == 0.0:
            return float("-inf")
        return float(k_uni(q, nu, s2 + 1, x)) / denom + w0

    left = k_root_min(q, nu, s2 + 1)
    if s2 >= 1:
        right = k_root_min(q, nu, s2)
    else:
        right = 2 * (q - 1) * nu / q + 1
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
            got = _solve_alpha(q, nu, s2, k_root_min(q, nu, s2 + 1)).hex()
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
            _solve_alpha(q, nu, s2, k_root_min(q, nu, s2 + 1))
        except BracketingError:
            continue
        counts.append(len(calls) - before)
    assert max(counts) <= 82
    assert sum(counts) < 0.9 * 82 * len(counts)


@pytest.mark.parametrize("q,n", R2_SPACES)
def test_candidates_match_full_scan_at_every_d(q, n, monkeypatch):
    params = SpaceParams(q, 2, n)
    calls = []

    def counting(*args):
        calls.append(args)
        return _solve_alpha(*args)

    monkeypatch.setattr(bounds_mod, "_solve_alpha", counting)
    for d in range(1, params.dim + 2):
        want = scan_solving_every_pair(params, float(d))
        assert list(_r2_candidates(params, float(d))) == want, d
    pairs = sum(1 for _ in scanned_pairs(q, n))
    assert 0 < len(calls) < pairs * (params.dim + 1)


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
        w for d in range(1, params.dim + 2) for w in _r2_candidates(params, float(d))
    )
    assert len(witnesses) >= 20
    for w in witnesses:
        cert, chk = r2_certificate(params, max(1, ceil(w.alpha + 2 * w.beta)), w)
        assert chk.accepted, (w, chk.reason)
        want = certificate_by_loops(params, w)
        got = [cert.F0] + [cert.F[g] for g in shapes[1:]]
        largest = max(abs(c) for c in want)
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-12 * largest, w
