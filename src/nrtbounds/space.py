"""Combinatorics of the ordered Hamming (NRT) space.

The ambient space consists of vectors of n blocks of r symbols over an
alphabet of size q (residues mod q).  Vectors are stored flat, block-major:
position ``i*r + j`` holds symbol ``j`` (0-based) of block ``i``.

The *shape* of a vector is the tuple ``e = (e_1, ..., e_r)`` where ``e_i``
counts blocks whose rightmost nonzero symbol sits at in-block position i
(1-based); all-zero blocks are counted by ``e_0 = n - sum(e)``.  The NRT
weight of a vector of shape e is ``sum(i * e_i)``.  The dual space reads
each block right to left: its shape ``shape_bar_of`` is the shape of the
vector under ``reverse_blocks``.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from fractions import Fraction
from math import factorial, prod
from operator import itemgetter, sub

Shape = tuple[int, ...]
Vector = tuple[int, ...]


class BudgetExceeded(Exception):
    """Raised when an exhaustive computation would exceed its stated cap."""


class CheckFailure(Exception):
    """An internal consistency check failed; every solver, certificate and
    root-finding failure subclasses this one."""


EXHAUSTIVE_CAP = 1 << 16  # largest code or space an exhaustive scan walks
# most row projections a strength scan makes; the q2 r2 n6 space takes 4096
# rows times 728 left-adjusted sets, 2,981,888
STRENGTH_CELL_CAP = 1 << 22


class SpaceParams(namedtuple("SpaceParams", "q r n")):
    """Alphabet size q, block depth r, number of blocks n."""

    __slots__ = ()

    def __new__(cls, q: int, r: int, n: int) -> SpaceParams:
        if q < 2:
            raise ValueError(f"alphabet size q must be >= 2, got {q}")
        if r < 1:
            raise ValueError(f"block depth r must be >= 1, got {r}")
        if n < 1:
            raise ValueError(f"block count n must be >= 1, got {n}")
        return super().__new__(cls, q, r, n)

    @property
    def ambient_size(self) -> int:
        return self.q ** (self.r * self.n)

    @property
    def dim(self) -> int:
        """Total number of symbol positions, r*n."""
        return self.r * self.n


def validate_vector(params: SpaceParams, v: Vector) -> None:
    if len(v) != params.dim:
        raise ValueError(f"vector length {len(v)} != r*n = {params.dim}")
    if any(not (0 <= s < params.q) for s in v):
        raise ValueError("symbol out of range [0, q)")


def blocks(params: SpaceParams, v: Vector) -> tuple[tuple[int, ...], ...]:
    r = params.r
    return tuple(v[i * r : (i + 1) * r] for i in range(params.n))


def vector_sub(params: SpaceParams, u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    q = params.q
    return tuple((a - b) % q for a, b in zip(u, v))


def shape_of(params: SpaceParams, v: Vector) -> Shape:
    """Shape read left-to-right: e_i counts blocks with top nonzero at depth i."""
    validate_vector(params, v)
    r = params.r
    e = [0] * r
    for block in blocks(params, v):
        for j in range(r - 1, -1, -1):
            if block[j] != 0:
                e[j] += 1
                break
    return tuple(e)


def reverse_blocks(params: SpaceParams, v: Vector) -> Vector:
    """v with the symbols of each block in reverse order: the dual space
    reads each block right to left."""
    validate_vector(params, v)
    return tuple(s for block in blocks(params, v) for s in reversed(block))


def shape_bar_of(params: SpaceParams, v: Vector) -> Shape:
    """Shape read right-to-left: e_j counts blocks whose first nonzero symbol
    is at position r - j + 1 (all earlier positions zero)."""
    return shape_of(params, reverse_blocks(params, v))


def shape_length(e: Shape) -> int:
    """|e| = number of nonzero blocks."""
    return sum(e)


def shape_weight(e: Shape) -> int:
    """|e|' = sum of i * e_i, the NRT weight of any vector of shape e."""
    return sum((i + 1) * c for i, c in enumerate(e))


def validate_shape(params: SpaceParams, e: Shape) -> None:
    if len(e) != params.r:
        raise ValueError(f"shape has {len(e)} parts, expected r = {params.r}")
    if any(c < 0 for c in e):
        raise ValueError("shape parts must be nonnegative")
    if sum(e) > params.n:
        raise ValueError(f"shape length {sum(e)} exceeds n = {params.n}")


def check_distance(params: SpaceParams, d: int) -> None:
    if not 1 <= d <= params.dim + 1:
        raise ValueError(f"distance {d} out of range [1, {params.dim + 1}]")


def check_strength(params: SpaceParams, t: int) -> None:
    if not 0 <= t <= params.dim:
        raise ValueError(f"strength {t} out of range [0, {params.dim}]")


def check_weight(params: SpaceParams, w: int) -> None:
    if not 0 <= w <= params.dim:
        raise ValueError(f"weight {w} out of range [0, {params.dim}]")


def check_depth(params: SpaceParams, i: int) -> None:
    if not 1 <= i <= params.r:
        raise ValueError(f"depth {i} out of range [1, {params.r}]")


def ordered_weight(params: SpaceParams, v: Vector) -> int:
    return shape_weight(shape_of(params, v))


def ordered_distance(params: SpaceParams, u: Vector, v: Vector) -> int:
    return ordered_weight(params, vector_sub(params, u, v))


def shape_count(params: SpaceParams, e: Shape) -> int:
    """Number of vectors of shape e:

        multinomial(n; e_0, ..., e_r) * (q-1)^|e| * q^(|e|' - |e|)
    """
    validate_shape(params, e)
    e0 = params.n - sum(e)
    multinom = factorial(params.n) // (factorial(e0) * prod(factorial(c) for c in e))
    return multinom * (params.q - 1) ** shape_length(e) * params.q ** (
        shape_weight(e) - shape_length(e)
    )


def shape_counts(params: SpaceParams) -> dict[Shape, int]:
    """`shape_count` of every shape, keyed by shape in lexicographic order.

    With j the first part of e above 0 (0-based), e - u_j comes earlier in
    that order, and one more block at depth j + 1 gives

        count(e) = count(e - u_j) * (e_0 + 1) * (q-1) q^j / e_j,

    an exact division, so each shape costs one product and one division
    where `shape_count` computes n! afresh.
    """
    q, n = params.q, params.n
    counts = {}
    for e in enumerate_shapes(params):
        j = next((i for i, c in enumerate(e) if c), None)
        if j is None:
            counts[e] = 1
        else:
            prev = (*e[:j], e[j] - 1, *e[j + 1 :])
            counts[e] = counts[prev] * (n - sum(e) + 1) * (q - 1) * q**j // e[j]
    return counts


def _compositions(total: int, parts: int, exact: bool = True):
    """The tuples of `parts` nonnegative ints that sum to `total`, or to at
    most `total` when not `exact`, in lexicographic order.  They are the
    gaps of the cut sequences 0 <= c_1 <= ... <= c_m <= total (m = parts - 1
    cuts closed by `total`, or m = parts open ones), which
    `combinations_with_replacement` yields in lexicographic order: O(parts)
    work per tuple, however many tuples of parts up to `total` there are."""
    closing = (total,) if exact else ()
    return (
        tuple(map(sub, (*cuts, *closing), (0, *cuts)))
        for cuts in itertools.combinations_with_replacement(range(total + 1), parts - len(closing))
    )


def enumerate_shapes(params: SpaceParams):
    """All shapes of the space in lexicographic order, starting with zero."""
    yield from _compositions(params.n, params.r, exact=False)


def shapes_of_length(params: SpaceParams, k: int) -> list[Shape]:
    """Shapes with exactly k nonzero blocks, lexicographically ordered."""
    if not 0 <= k <= params.n:
        return []
    return list(_compositions(k, params.r))


def weight_distribution(params: SpaceParams) -> list[int]:
    """Sphere sizes S_0, ..., S_{nr}: S_d vectors have NRT weight d.

    They are the coefficients of the n-th power of the one-block enumerator
    P(z) = 1 + (q-1)(z + q z^2 + ... + q^(r-1) z^r), since a block's weight
    is the depth of its top nonzero symbol and the blocks are independent.
    J. C. P. Miller's recurrence for a power of a series with P(0) = 1
    (Knuth, TAOCP vol. 2, sec. 4.7) gives them in O(n r^2) steps:

        S_k = sum_{j=1..min(k,r)} ((n+1) j - k) p_j S_{k-j} / k,

    with p_j the coefficient of z^j in P; the sum is a multiple of k, so
    the division is exact.
    """
    q, r, n = params
    p = [1] + [(q - 1) * q ** (i - 1) for i in range(1, r + 1)]
    sizes = [1]
    for k in range(1, n * r + 1):
        terms = (((n + 1) * j - k) * p[j] * sizes[k - j] for j in range(1, min(k, r) + 1))
        sizes.append(sum(terms) // k)
    return sizes


def sphere_size(params: SpaceParams, d: int) -> int:
    """Number of vectors at NRT weight exactly d."""
    check_weight(params, d)
    return weight_distribution(params)[d]


def ball_size(params: SpaceParams, d: int) -> int:
    """Number of vectors at NRT weight at most d."""
    check_weight(params, d)
    return sum(weight_distribution(params)[: d + 1])


def delta_crit(q: int, r: int) -> Fraction:
    """Mean normalized weight of a uniform random vector:

        1 - (1/r) * sum_{i=1..r} q^(-i)
    """
    if q < 2 or r < 1:
        raise ValueError("need q >= 2 and r >= 1")
    return 1 - Fraction(1, r) * sum(Fraction(1, q**i) for i in range(1, r + 1))


def enumerate_vectors(params: SpaceParams):
    yield from itertools.product(range(params.q), repeat=params.dim)


# ---------------------------------------------------------------------------
# Ordered orthogonal arrays


class ArrayTable(namedtuple("ArrayTable", "params rows")):
    """A multiset of rows of the space (duplicates allowed)."""

    __slots__ = ()

    def __new__(cls, params: SpaceParams, rows: tuple[Vector, ...]) -> ArrayTable:
        for row in rows:
            validate_vector(params, row)
        return super().__new__(cls, params, rows)


# index is |A| / q^strength when strength >= 1, else None
StrengthResult = namedtuple("StrengthResult", "strength index")


def left_adjusted_sets(params: SpaceParams, t: int):
    """Compositions (t_1, ..., t_n) with 0 <= t_i <= r and sum t; composition
    i selects the first t_i positions of block i."""

    def rec(i: int, remaining: int, acc: list[int]):
        if i == params.n:
            if remaining == 0:
                yield tuple(acc)
            return
        # cannot place more than r per block nor leave an unfillable remainder
        max_here = min(params.r, remaining)
        min_here = max(0, remaining - params.r * (params.n - i - 1))
        for ti in range(min_here, max_here + 1):
            acc.append(ti)
            yield from rec(i + 1, remaining - ti, acc)
            acc.pop()

    yield from rec(0, t, [])


def ooa_strength(table: ArrayTable) -> StrengthResult:
    """Largest t such that every left-adjusted t-set projection is balanced.

    Returns strength 0 (index None) when even single positions are unbalanced.
    Raises BudgetExceeded before the scan projects more than
    STRENGTH_CELL_CAP cells, one cell being one row projected onto one set.
    """
    if not table.rows:
        raise ValueError("empty table has no strength")
    params, rows = table.params, table.rows
    cells = 0

    def balanced(t: int) -> bool:
        nonlocal cells
        if len(rows) % params.q**t != 0:
            return False
        theta = len(rows) // params.q**t
        for comp in left_adjusted_sets(params, t):
            cells += len(rows)
            if cells > STRENGTH_CELL_CAP:
                raise BudgetExceeded(
                    f"strength scan of {len(rows)} rows exceeds cap "
                    f"STRENGTH_CELL_CAP = {STRENGTH_CELL_CAP} cells"
                )
            positions = [i * params.r + j for i, ti in enumerate(comp) for j in range(ti)]
            counts = Counter(map(itemgetter(*positions), rows))
            # q^t keys whose counts sum to theta q^t all equal theta iff none exceeds it
            if len(counts) != params.q**t or max(counts.values()) != theta:
                return False
        return True

    best = 0
    while best < params.dim and balanced(best + 1):
        best += 1
    index = len(rows) // params.q**best if best >= 1 else None
    return StrengthResult(strength=best, index=index)


# ---------------------------------------------------------------------------
# Nets <-> OOAs


NetParams = namedtuple("NetParams", "t m s q")
OoaParams = namedtuple("OoaParams", "strength n r q index size")


def net_to_ooa(t: int, m: int, s: int, q: int) -> OoaParams:
    """Parameters of the orthogonal array equivalent to a (t, m, s)-net in
    base q: strength m - t, s blocks of depth m - t, index q^t, size q^m."""
    if not 0 <= t <= m:
        raise ValueError(f"need 0 <= t <= m, got t={t}, m={m}")
    if s < 1:
        raise ValueError("need s >= 1")
    if q < 2:
        raise ValueError(f"alphabet size q must be >= 2, got {q}")
    return OoaParams(strength=m - t, n=s, r=m - t, q=q, index=q**t, size=q**m)


def ooa_to_net(ooa: OoaParams) -> NetParams:
    if ooa.strength != ooa.r:
        raise ValueError("net-equivalent arrays have strength equal to block depth")
    m = ooa.strength + _ilog(ooa.index, ooa.q)
    return NetParams(t=m - ooa.strength, m=m, s=ooa.n, q=ooa.q)


def _ilog(value: int, base: int) -> int:
    k = 0
    while base**k < value:
        k += 1
    if base**k != value:
        raise ValueError(f"{value} is not a power of {base}")
    return k


# ---------------------------------------------------------------------------
# Linear codes over prime fields


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def row_reduce_mod(rows: list[list[int]], q: int) -> list[list[int]]:
    """Row echelon form mod prime q; returns the nonzero rows."""
    mat = [list(row) for row in rows]
    pivot_row = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for i in range(pivot_row, len(mat)):
            if mat[i][col] % q != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = pow(mat[pivot_row][col], -1, q)
        mat[pivot_row] = [(x * inv) % q for x in mat[pivot_row]]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col] % q != 0:
                factor = mat[i][col]
                mat[i] = [(a - factor * b) % q for a, b in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return mat[:pivot_row]


class LinearCode(namedtuple("LinearCode", "params generators")):
    """A linear code given by k independent generator rows; q must be prime."""

    __slots__ = ()

    def __new__(cls, params: SpaceParams, generators: tuple[Vector, ...]) -> LinearCode:
        if not is_prime(params.q):
            raise ValueError("linear codes are supported for prime q only")
        for g in generators:
            validate_vector(params, g)
        reduced = row_reduce_mod([list(g) for g in generators], params.q)
        if len(reduced) != len(generators):
            raise ValueError("generator rows are linearly dependent")
        return super().__new__(cls, params, generators)

    @property
    def k(self) -> int:
        return len(self.generators)

    @property
    def size(self) -> int:
        return self.params.q**self.k


def enumerate_code(code: LinearCode) -> ArrayTable:
    """All q^k codewords (exhaustive; refuses above EXHAUSTIVE_CAP)."""
    if code.size > EXHAUSTIVE_CAP:
        raise BudgetExceeded(f"code size {code.size} exceeds cap {EXHAUSTIVE_CAP}")
    q = code.params.q
    dim = code.params.dim
    words = []
    for coeffs in itertools.product(range(q), repeat=code.k):
        word = [0] * dim
        for c, g in zip(coeffs, code.generators):
            if c:
                for j in range(dim):
                    word[j] = (word[j] + c * g[j]) % q
        words.append(tuple(word))
    return ArrayTable(params=code.params, rows=tuple(words))


def dual_code(code: LinearCode) -> ArrayTable:
    """All vectors orthogonal to every generator under the dot product mod q,
    found by exhaustive scan of the ambient space (up to EXHAUSTIVE_CAP)."""
    params = code.params
    if params.ambient_size > EXHAUSTIVE_CAP:
        raise BudgetExceeded(f"ambient size {params.ambient_size} exceeds cap {EXHAUSTIVE_CAP}")
    rows = []
    for y in enumerate_vectors(params):
        if all(sum(a * b for a, b in zip(g, y)) % params.q == 0 for g in code.generators):
            rows.append(y)
    return ArrayTable(params=params, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Plain-text array files: line 1 is "q r n", then one row of r*n symbols per
# line, block-major.  Lines starting with '#' are comments.


def parse_array_text(text: str) -> ArrayTable:
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty array file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError("header must be 'q r n'")
    q, r, n = (int(x) for x in header)
    params = SpaceParams(q=q, r=r, n=n)
    rows = []
    for line in lines[1:]:
        symbols = tuple(int(x) for x in line.split())
        if len(symbols) != params.dim:
            raise ValueError(f"row has {len(symbols)} symbols, expected {params.dim}")
        rows.append(symbols)
    return ArrayTable(params=params, rows=tuple(rows))


def read_array_file(path) -> ArrayTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_array_text(fh.read())
