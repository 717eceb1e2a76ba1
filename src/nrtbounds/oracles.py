"""Brute-force ground truth for tests and acceptance runs.

Deliberately independent of the main modules: weight and balance are
recomputed from scratch here with plain loops, so a bug in the fast paths
cannot hide.  Every search has hard caps and raises BudgetExceeded instead
of ever returning a wrong answer.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .space import BudgetExceeded, SpaceParams


SearchBudget = namedtuple(
    "SearchBudget",
    "max_ambient max_ooa_ambient max_ooa_rows max_nodes",
    defaults=(1 << 12, 1 << 8, 32, 20_000_000),
)


DEFAULT_BUDGET = SearchBudget()


def _weight(q: int, r: int, n: int, v: tuple[int, ...]) -> int:
    total = 0
    for i in range(n):
        for j in range(r - 1, -1, -1):
            if v[i * r + j] != 0:
                total += j + 1
                break
    return total


def _shape(q: int, r: int, n: int, v: tuple[int, ...]) -> tuple[int, ...]:
    e = [0] * r
    for i in range(n):
        for j in range(r - 1, -1, -1):
            if v[i * r + j] != 0:
                e[j] += 1
                break
    return tuple(e)


def _distance(q: int, r: int, n: int, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    diff = tuple((a - b) % q for a, b in zip(u, v))
    return _weight(q, r, n, diff)


def _max_clique(
    params: SpaceParams, d: int, candidates: list[tuple[int, ...]], budget: SearchBudget
) -> int:
    """Largest subset of candidates with pairwise distance >= d, searched
    depth-first over lexicographically increasing candidates with bitset
    compatibility masks."""
    q, r, n = params.q, params.r, params.n
    k = len(candidates)
    compat = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if _distance(q, r, n, candidates[i], candidates[j]) >= d:
                compat[i] |= 1 << j
                compat[j] |= 1 << i

    best = 0
    nodes = 0

    def extend(chosen: int, allowed: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget.max_nodes:
            raise BudgetExceeded("search node budget exhausted")
        if chosen + bin(allowed).count("1") <= best:
            return
        if allowed == 0:
            best = max(best, chosen)
            return
        rest = allowed
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            if chosen + bin(allowed).count("1") <= best:
                return
            extend(chosen + 1, allowed & compat[i] & ~((1 << (i + 1)) - 1))
            allowed ^= low
        best = max(best, chosen)

    extend(0, (1 << k) - 1)
    return best


def brute_force_max_code(
    params: SpaceParams, d: int, budget: SearchBudget = DEFAULT_BUDGET
) -> int:
    """Exact maximum size of a code with minimum distance d.

    Translation-normalized: the zero vector is assumed in the code, and the
    rest is the largest clique among the vectors of weight >= d.
    """
    q, r, n = params.q, params.r, params.n
    if params.ambient_size > budget.max_ambient:
        raise BudgetExceeded(
            f"ambient {params.ambient_size} exceeds cap {budget.max_ambient}"
        )
    if d < 1:
        raise ValueError("distance must be >= 1")
    if d > r * n:
        return 1
    if d == 1:
        return params.ambient_size  # any set of vectors qualifies
    candidates = [
        v for v in itertools.product(range(q), repeat=r * n) if _weight(q, r, n, v) >= d
    ]
    return _max_clique(params, d, candidates, budget) + 1  # plus the zero vector


def constant_weight_max(
    params: SpaceParams, d: int, w: int, budget: SearchBudget = DEFAULT_BUDGET
) -> int:
    """Exact maximum size of a distance-d code on the weight-w sphere."""
    q, r, n = params.q, params.r, params.n
    if params.ambient_size > budget.max_ambient:
        raise BudgetExceeded(
            f"ambient {params.ambient_size} exceeds cap {budget.max_ambient}"
        )
    if w == 0:
        return 1
    sphere = [
        v
        for v in itertools.product(range(q), repeat=r * n)
        if _weight(q, r, n, v) == w
    ]
    return _max_clique(params, d, sphere, budget)


def intersection_general(
    params: SpaceParams,
    f: tuple[int, ...],
    g: tuple[int, ...],
    h: tuple[int, ...],
) -> int:
    """Exact intersection number: the count of z with shape(z) = g and
    shape(z - x) = f, for a fixed x of shape h (the first in enumeration
    order; the count is the same for every x of that shape)."""
    q, r, n = params.q, params.r, params.n
    if params.ambient_size > DEFAULT_BUDGET.max_ambient:
        raise BudgetExceeded(
            f"ambient {params.ambient_size} exceeds cap {DEFAULT_BUDGET.max_ambient}"
        )
    vectors = list(itertools.product(range(q), repeat=r * n))
    shapes = [_shape(q, r, n, v) for v in vectors]
    x = next((v for v, e in zip(vectors, shapes) if e == h), None)
    if x is None:
        raise ValueError(f"no vector of shape {h}")
    count = 0
    for z, e in zip(vectors, shapes):
        if e == g and _shape(q, r, n, tuple((a - b) % q for a, b in zip(z, x))) == f:
            count += 1
    return count


def brute_force_min_ooa(
    params: SpaceParams, t: int, budget: SearchBudget = DEFAULT_BUDGET
) -> int:
    """Exact minimum number of rows of an array of strength t (rows may
    repeat).  Candidate sizes are scanned in multiples of q^t; the first
    size admitting a balanced multiset is returned."""
    q, r, n = params.q, params.r, params.n
    if params.ambient_size > budget.max_ooa_ambient:
        raise BudgetExceeded(
            f"ambient {params.ambient_size} exceeds cap {budget.max_ooa_ambient}"
        )
    if t == 0:
        return 1
    if t > r * n:
        raise ValueError(f"strength {t} out of range [0, {r * n}]")
    vectors = list(itertools.product(range(q), repeat=r * n))

    # left-adjusted coordinate sets as block-prefix length profiles
    profiles = []

    def compositions(i: int, remaining: int, acc: list[int]) -> None:
        if i == n:
            if remaining == 0:
                profiles.append(tuple(acc))
            return
        hi = min(r, remaining)
        lo = max(0, remaining - r * (n - i - 1))
        for ti in range(lo, hi + 1):
            acc.append(ti)
            compositions(i + 1, remaining - ti, acc)
            acc.pop()

    compositions(0, t, [])
    projections = []  # per vector, per profile: pattern id
    for v in vectors:
        per = []
        for prof in profiles:
            key = 0
            for i, ti in enumerate(prof):
                for j in range(ti):
                    key = key * q + v[i * r + j]
            per.append(key)
        projections.append(per)
    npatterns = q**t

    size = q**t
    nodes = 0
    while size <= budget.max_ooa_rows:
        theta = size // npatterns
        counts = [[0] * npatterns for _ in profiles]

        def place(remaining: int, start: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExceeded("search node budget exhausted")
            if remaining == 0:
                return all(
                    all(c == theta for c in counts[pi]) for pi in range(len(profiles))
                )
            for vi in range(start, len(vectors)):
                ok = True
                per = projections[vi]
                for pi in range(len(profiles)):
                    if counts[pi][per[pi]] + 1 > theta:
                        ok = False
                        break
                if not ok:
                    continue
                for pi in range(len(profiles)):
                    counts[pi][per[pi]] += 1
                if place(remaining - 1, vi):
                    return True
                for pi in range(len(profiles)):
                    counts[pi][per[pi]] -= 1
            return False

        # translation-normalized: the all-zero row can be assumed present
        per0 = projections[0]
        for pi in range(len(profiles)):
            counts[pi][per0[pi]] += 1
        if place(size - 1, 0):
            return size
        for pi in range(len(profiles)):
            counts[pi][per0[pi]] -= 1
        size += q**t
    raise BudgetExceeded(f"no array of at most {budget.max_ooa_rows} rows found")
