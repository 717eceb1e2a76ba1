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
from collections import namedtuple
from fractions import Fraction
from math import factorial, prod
from operator import sub

Shape = tuple[int, ...]
Vector = tuple[int, ...]


class BudgetExceeded(Exception):
    """Raised when an exhaustive computation would exceed its stated cap."""


class CheckFailure(Exception):
    """An internal consistency check failed; every solver, certificate and
    root-finding failure subclasses this one."""


EXHAUSTIVE_CAP = 1 << 16  # largest code or space an exhaustive scan walks


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


def representative(params: SpaceParams, e: Shape) -> Vector:
    """A fixed vector of shape e: for each depth i, e_i blocks carry a single
    1 at depth i, followed by the n - |e| zero blocks."""
    validate_shape(params, e)
    r = params.r
    vec = ()
    for i, count in enumerate(e):  # the blocks with their 1 at depth i + 1
        vec += ((0,) * i + (1,) + (0,) * (r - 1 - i)) * count
    return vec + (0,) * (r * (params.n - sum(e)))


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


def shape_key(e: Shape) -> str:
    """The text key of a shape in JSON output: its parts joined by commas."""
    return ",".join(str(c) for c in e)


def parse_shape_key(key: str) -> Shape:
    return tuple(int(c) for c in key.split(","))


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
    1 + (q-1)(z + q z^2 + ... + q^(r-1) z^r), since a block's weight is the
    depth of its top nonzero symbol and the blocks are independent.
    """
    q = params.q
    block = [1] + [(q - 1) * q ** (i - 1) for i in range(1, params.r + 1)]
    sizes = [1]
    for _ in range(params.n):
        product = [0] * (len(sizes) + params.r)
        for k, s in enumerate(sizes):
            for i, c in enumerate(block):
                product[k + i] += s * c
        sizes = product
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


def _project(params: SpaceParams, row: Vector, comp: tuple[int, ...]) -> tuple[int, ...]:
    r = params.r
    out = []
    for i, ti in enumerate(comp):
        out.extend(row[i * r : i * r + ti])
    return tuple(out)


def _has_strength(table: ArrayTable, t: int) -> bool:
    params = table.params
    m = len(table.rows)
    if m % params.q**t != 0:
        return False
    theta = m // params.q**t
    for comp in left_adjusted_sets(params, t):
        counts: dict[tuple[int, ...], int] = {}
        for row in table.rows:
            key = _project(params, row, comp)
            counts[key] = counts.get(key, 0) + 1
            if counts[key] > theta:
                return False
        if len(counts) != params.q**t:
            return False
    return True


def ooa_strength(table: ArrayTable) -> StrengthResult:
    """Largest t such that every left-adjusted t-set projection is balanced.

    Returns strength 0 (index None) when even single positions are unbalanced.
    """
    if not table.rows:
        raise ValueError("empty table has no strength")
    params = table.params
    best = 0
    for t in range(1, params.dim + 1):
        if _has_strength(table, t):
            best = t
        else:
            break
    index = len(table.rows) // params.q**best if best >= 1 else None
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
    pivots = []
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
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [row for row in mat[:pivot_row]]


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
