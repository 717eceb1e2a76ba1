"""The spectral bound's degree scan against the linear scan it replaced.

`spectral_bound` decides each hypothesis degree kappa - 1 from an enclosure
that stops once it clears the threshold, and runs the full-width iteration
only at kappa.  The reference below is the earlier scan: a full-width
enclosure at every degree it visits.  The two must agree bit for bit on every
field of the result.
"""

from __future__ import annotations

import gc
import weakref
from fractions import Fraction
from math import comb, floor

import pytest

import nrtbounds.bounds as bounds_mod
from nrtbounds.bounds import UPPER_CODE, BoundResult, spectral_bound
from nrtbounds.scheme import build_operator, spectral_radius
from nrtbounds.space import SpaceParams, delta_crit


def linear_scan(params: SpaceParams, d: int) -> BoundResult:
    """The spectral bound with a full-width enclosure at every degree."""
    dc = delta_crit(params.q, params.r)
    mean = dc * params.dim
    threshold = mean - d
    lam = {}

    def enclosure(k):
        if k not in lam:
            lam[k] = spectral_radius(build_operator(params, k))
        return lam[k]

    for kappa in range(1, params.n + 1):
        lo_prev, _ = enclosure(kappa - 1)
        if not threshold <= Fraction(lo_prev):
            continue
        lo_k, hi_k = enclosure(kappa)
        if Fraction(hi_k) >= mean:
            break
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
    return BoundResult(
        name="spectral",
        side=UPPER_CODE,
        applicable=False,
        reason="no admissible degree kappa <= n",
    )


def _fields(res: BoundResult):
    as_hex = lambda x: float.hex(x) if isinstance(x, float) else x  # noqa: E731
    witness = None
    if res.witness is not None:
        witness = {k: as_hex(v) for k, v in res.witness.items()}
    return (
        res.name,
        res.side,
        res.applicable,
        as_hex(res.value),
        res.floor,
        as_hex(res.tolerance),
        witness,
        res.reason,
    )


SMALL = [(2, 1, 12), (3, 1, 8), (2, 2, 8), (3, 2, 6), (4, 2, 5), (2, 3, 6), (3, 3, 4), (2, 4, 4)]


@pytest.mark.parametrize("q,r,n", SMALL)
def test_scan_matches_linear_scan_every_distance(q, r, n):
    p = SpaceParams(q, r, n)
    applicable = 0
    for d in range(1, p.dim + 2):
        got = spectral_bound(p, d)
        assert _fields(got) == _fields(linear_scan(p, d)), d
        applicable += got.applicable
    assert applicable  # the sweep reaches the full-width branch


DEEP = [
    (3, 3, 16, 14), (3, 3, 16, 15), (3, 4, 10, 13), (3, 4, 10, 14),
    (2, 4, 12, 14), (2, 4, 12, 15), (2, 4, 12, 16), (2, 3, 22, 22), (2, 3, 22, 23),
]


@pytest.mark.parametrize("q,r,n,d", DEEP)
def test_scan_matches_linear_scan_deep(q, r, n, d):
    p = SpaceParams(q, r, n)
    got = spectral_bound(p, d)
    assert got.applicable
    assert _fields(got) == _fields(linear_scan(p, d))


@pytest.mark.parametrize("q,r,n,d", [(2, 4, 9, 10), (2, 2, 8, 3), (3, 3, 5, 9)])
def test_each_operator_is_collectable_before_the_next_radius(q, r, n, d, monkeypatch):
    # when spectral_radius runs on S_k, no earlier operator is alive: the
    # scan holds only the operator in hand
    seen = []

    def watching(S, **kwargs):
        gc.collect()
        assert [ref() is None for ref in seen] == [True] * len(seen), len(seen)
        seen.append(weakref.ref(S))
        return spectral_radius(S, **kwargs)

    monkeypatch.setattr(bounds_mod, "spectral_radius", watching)
    params = SpaceParams(q, r, n)
    assert spectral_bound(params, d) == linear_scan(params, d)
    assert len(seen) >= 3
