"""The depth-2 root scan against the scan it replaced.

`_solve_alpha` reads k_{s2}(nu, x) and k_{s2+1}(nu, x) from one recurrence
pass, and `_r2_candidates` skips the bisection of a pair whose bracket's left
end already exceeds the cap.  The references below are the earlier forms: two
separate `k_uni` evaluations per bisection step, and a bisection for every
pair.  Both must agree bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

import nrtbounds.bounds as bounds_mod
from nrtbounds.bounds import R2Witness, _r2_candidates, _solve_alpha
from nrtbounds.krawtchouk import BracketingError, k_root_min, k_uni
from nrtbounds.space import SpaceParams

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
