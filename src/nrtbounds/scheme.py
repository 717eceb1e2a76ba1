"""Association-scheme operators for the ordered Hamming space.

Multiplication by the affine function P(e) = delta_crit * r * n - |e|' acts
block-tridiagonally on the Krawtchouk basis, grouped by shape length.  This
module builds the exact rational coefficient blocks, the float symmetric
operators truncated at each degree in turn (the blocks under the orthonormal
rescaling), and encloses an operator's largest eigenvalue with
Collatz-Wielandt bounds.

The blocks sum the intersection numbers of `_nonzero_intersections` as
integers.  The float operator needs only their products m_i(f,h) m_i(h,f),
which by detailed balance equal the rescaled squares m_i(f,h)^2 v_h / v_f,
so it reads no shape count v: `operators` restates those products in closed
form, as Python ints in small tables.  What ties the two is
`test_scheme.py::test_normalized_blocks_match_raw_rescaling` and the pins in
`tests/test_block_paths.py`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import islice
from math import comb, sqrt
from operator import mul

from .space import (
    BudgetExceeded,
    CheckFailure,
    Shape,
    SpaceParams,
    check_depth,
    shape_length,
    shapes_of_length,
)


def _L_terms(params: SpaceParams, i: int) -> tuple[int, int]:
    """Numerator and denominator of L_i = (q^(r-i+1) - 1) / (q^r (q-1)),
    unreduced, so that every depth shares the denominator q^r (q-1)."""
    check_depth(params, i)
    q, r = params.q, params.r
    return q ** (r - i + 1) - 1, q**r * (q - 1)


# ---------------------------------------------------------------------------
# Intersection numbers


def _bump(f: Shape, j: int, delta: int) -> Shape:
    out = list(f)
    out[j] += delta
    return tuple(out)


def _nonzero_intersections(params: SpaceParams, f: Shape, i: int):
    """The pairs (h, m) of a shape h of the space and its nonzero
    intersection number m with the single-part shape F_i at depth i: the
    count of z with shape(z) = f and shape(z - x) = F_i, for a fixed x of
    shape h.  There are at most 2i + 1 such pairs.

    Adding a depth-i perturbation to a vector of shape h can: create a new
    depth-i block, annihilate one, move a block between depths k < i and i,
    keep a depth-i block at depth i, or vanish inside a block whose top
    symbol sits deeper than i.  With k < i:

      h = f + delta_i              -> f_i + 1
      h = f                        -> q^(i-1) (f_i (q-2) + (q-1) sum_{j>i} f_j)
      h = f + delta_k - delta_i    -> (f_k + 1)(q-1) q^(i-1)
      h = f - delta_k + delta_i    -> (f_i + 1)(q-1) q^(k-1)
      h = f - delta_i              -> (n - |f| + 1) q^(i-1) (q-1)
    """
    q, n = params.q, params.n
    ii = i - 1  # 0-based slot of depth i
    step = (q - 1) * q ** (i - 1)
    if shape_length(f) < n:
        yield _bump(f, ii, 1), f[ii] + 1
    same = q ** (i - 1) * (f[ii] * (q - 2) + (q - 1) * sum(f[i:]))
    if same:
        yield f, same
    for kk in range(ii):  # 0-based slot of depth k < i
        if f[ii]:
            yield _bump(_bump(f, kk, 1), ii, -1), (f[kk] + 1) * step
        if f[kk]:
            yield _bump(_bump(f, kk, -1), ii, 1), (f[ii] + 1) * (q - 1) * q**kk
    if f[ii]:
        yield _bump(f, ii, -1), (n - shape_length(f) + 1) * step


# ---------------------------------------------------------------------------
# Three-term blocks


class ThreeTermBlocks(namedtuple("ThreeTermBlocks", "params kappa rows cols_up cols_down a b c")):
    """Coefficient blocks of multiplication by P at degree kappa, in the K_f
    basis.

    The blocks (a, b, c) are exact rationals over the denominator
    q^r (q-1).  Rows are indexed by shapes of length kappa, columns by
    length kappa+1 / kappa / kappa-1, all in lexicographic order.
    """

    __slots__ = ()


def _degree(params: SpaceParams, k: int):
    """The shapes of length k in lexicographic order and their positions in
    that order."""
    shapes = tuple(shapes_of_length(params, k))
    return shapes, {h: j for j, h in enumerate(shapes)}


def build_blocks(params: SpaceParams, kappa: int) -> ThreeTermBlocks:
    """Raw entries x[f,h] = sum_i L_i m_i over the nonzero intersection
    numbers m_i of each row shape f with F_i (`_nonzero_intersections`),
    summed as integers N[f,h] = sum_i N_i m_i, where L_i = N_i / D over the
    common D = q^r (q-1)."""
    if kappa > params.n:
        raise ValueError(f"degree {kappa} exceeds n = {params.n}")
    terms = [_L_terms(params, i) for i in range(1, params.r + 1)]
    # columns of shape length kappa+1, kappa, kappa-1: side = kappa + 1 - |h|
    sides, index = zip(*(_degree(params, k) for k in (kappa + 1, kappa, kappa - 1)))
    rows = sides[1]
    nums = [[[0] * len(cols) for _ in rows] for cols in sides]
    for fi, f in enumerate(rows):
        for i, (N, _) in enumerate(terms, start=1):
            for h, m in _nonzero_intersections(params, f, i):
                side = kappa + 1 - shape_length(h)
                nums[side][fi][index[side][h]] += N * m
    den = terms[0][1]
    a, b, c = (tuple(tuple(Fraction(x, den) for x in row) for row in block) for block in nums)
    return ThreeTermBlocks(
        params=params, kappa=kappa, rows=rows, cols_up=sides[0], cols_down=sides[2], a=a, b=b, c=c
    )


# ---------------------------------------------------------------------------
# The truncated multiplication operator and its spectral radius


OPERATOR_CAP = 5000  # most rows of a dense operator S_k (5000^2 floats: 200 MB)


def operators(params: SpaceParams):
    """The symmetric operators S_0, S_1, ..., S_n in turn: S_k is P-
    multiplication projected onto polynomials of degree <= k, in the
    orthonormal basis, with rows and columns the shapes of length 0..k,
    grouped by length and lexicographic within a length.  Each yield is a
    new array, S_(k-1) in its leading block and the entries of the shapes
    of length k scattered in at once.  Raises BudgetExceeded before it
    allocates a degree of more than OPERATOR_CAP rows, or on an entry
    beyond the float range.

    S[f,h] = x[f,h] sqrt(v_h/v_f), the raw entries of `build_blocks` under
    the diagonal similarity.  The diagonal S[f,f] is the int/int division
    N[f,f] / D, which rounds correctly and so equals float(Fraction(N[f,f],
    D)); N[f,f] = sum_i N_i m_i(f,f) (the case h = f of
    `_nonzero_intersections`) is a linear form sum_j c_j f_j.  Off the
    diagonal a single depth i reaches h, and by detailed balance,
    v_h m_i(f,h) = v_f m_i(h,f),

        S[f,h] = L_i sqrt(m_i(f,h)^2 v_h / v_f) = L_i sqrt(m_i(f,h) m_i(h,f)),

    the root of an integer product, the same from either side, so S is
    symmetric bit for bit.  The entries of a shape f of length k, and the
    cases of `_nonzero_intersections` whose numbers they multiply, are

      h = f - delta_i (f_i >= 1), cases "f - delta_i" and "f + delta_i":
          (n - k + 1)(q-1) q^(i-1) f_i
      h = f + delta_j - delta_i (j < i, f_i >= 1), cases
      "f + delta_k - delta_i" and "f - delta_k + delta_i":
          (f_j + 1) f_i (q-1)^2 q^(i+j-2)

    So the operator reads no shape count.  Each degree forms these products
    as Python ints in two small tables, over (i, f_i) and over
    (i, j, (f_j + 1) f_i), rounds each entry once as L_i sqrt(product), and
    picks the entries by the shapes' parts.  The rows of the shapes h come
    from an exact int key of each shape, so an entry costs O(1) however
    many parts a shape has.
    """
    import numpy as np

    q, r, n = params.q, params.r, params.n
    terms = [_L_terms(params, i) for i in range(1, r + 1)]
    den = terms[0][1]
    L = [N / den for N, _ in terms]
    w = [N * q**i for i, (N, _) in enumerate(terms)]  # N_i q^(i-1) at 0-based slot i
    c = [w[j] * (q - 2) + (q - 1) * sum(w[:j]) for j in range(r)]  # N[f,f] = sum_j c_j f_j
    same = np.zeros((r, r, 0))  # same[i, j, u] at u = (f_j + 1) f_i, read for j < i
    key = [(n + 1) ** t for t in range(r)]  # shape f -> its key sum_t f_t (n+1)^t
    unit = np.array(key, dtype=object)  # the key of delta_t
    pos: dict[int, int] = {}  # row of each shape entered so far, by key
    S = np.zeros((0, 0))
    for k in range(n + 1):
        start, size = len(pos), len(pos) + comb(k + r - 1, r - 1)
        if size > OPERATOR_CAP:
            raise BudgetExceeded(
                f"operator of {size} rows at degree {k} exceeds cap OPERATOR_CAP = {OPERATOR_CAP}"
            )
        shapes = shapes_of_length(params, k)
        keys = [sum(map(mul, key, f)) for f in shapes]
        pos.update(zip(keys, range(start, size)))
        step = (n - k + 1) * (q - 1)
        new_u = range(same.shape[2], (k + 1) ** 2 // 4 + 1)  # (f_j + 1) f_i <= (k + 1)^2 / 4
        try:
            diagonal = [sum(map(mul, c, f)) / den for f in shapes]
            down = [[L[i] * sqrt(step * q**i * x) for x in range(k + 1)] for i in range(r)]
            grown = [
                [[L[i] * sqrt((q - 1) ** 2 * q ** (i + j) * u) if j < i else 0.0 for u in new_u]
                 for j in range(r)]
                for i in range(r)
            ]
        except OverflowError:
            raise BudgetExceeded(f"operator entries at degree {k} exceed the float range") from None
        same = np.concatenate((same, grown), axis=2)
        F = np.array(shapes, dtype=np.intp)
        # h = f - delta_i at each part f_i >= 1 ...
        f_at, i_at = np.nonzero(F)
        key_at = np.array(keys, dtype=object)[f_at] - unit[i_at]
        # ... and h = f + delta_j - delta_i at each j < i: the i_at[t] entries of
        # part t are j = 0, 1, ..., i_at[t] - 1
        each = np.repeat(np.arange(len(f_at)), i_at)
        f_of, i_of = f_at[each], i_at[each]
        j_of = np.arange(len(each)) - np.repeat(np.cumsum(i_at) - i_at, i_at)
        targets = np.concatenate((key_at, key_at[each] + unit[j_of]))
        here = np.arange(start, size)
        rows = np.concatenate((here, start + f_at, start + f_of))
        cols = np.concatenate(
            (here, np.fromiter(map(pos.__getitem__, targets), dtype=np.intp, count=len(targets)))
        )
        vals = np.concatenate(
            (
                diagonal,
                np.array(down)[i_at, F[f_at, i_at]],
                same[i_of, j_of, (F[f_of, j_of] + 1) * F[f_of, i_of]],
            )
        )
        S_next = np.zeros((size, size))
        S_next[:start, :start] = S
        # each entry and its mirror, the diagonal twice
        S_next[np.concatenate((rows, cols)), np.concatenate((cols, rows))] = np.concatenate(
            (vals, vals)
        )
        S = S_next
        yield S


def build_operator(params: SpaceParams, kappa: int) -> np.ndarray:
    """The operator truncated at degree kappa (see `operators`)."""
    if kappa > params.n:
        raise ValueError(f"degree {kappa} exceeds n = {params.n}")
    return next(islice(operators(params), kappa, None))


class SpectralConvergenceError(CheckFailure):
    """Power iteration failed to certify the requested enclosure width."""


REL_TOL = 1e-10  # relative width of a full enclosure
MAX_ITER = 10**6


def spectral_radius(M: np.ndarray, decide: float | None = None) -> tuple[float, float]:
    """Enclosure (lower, upper) of the largest eigenvalue of the operator M.

    Power iteration from the all-ones vector on the shifted matrix M + mI
    (m = max row sum + 1, so the iterate stays strictly positive), with
    Collatz-Wielandt ratio bounds min_i (Mx)_i/x_i <= rho <= max_i (Mx)_i/x_i
    at every step, for at most MAX_ITER steps.

    With `decide=x` the same iteration also returns its current pair as
    soon as the pair is decided: upper < x - margin or lower > x + margin,
    with margin = 1e-9 (m + |x|).  A decided pair answers "lower >= x?" as
    the full-width pair (lo, hi) would.  M is entrywise nonnegative, so
    0 <= rho < m; at REL_TOL the full width hi - lo is at most
    1e-10 max(1, hi) < 1e-10 m; and each ratio is a sum of nonnegative
    terms, rounded to a relative error near dim 2^-53.  The margin is more
    than ten times that width and rounding together.  So, up to rounding,
    lo <= rho <= upper < x when the pair stops below x, and
    lo >= hi - width >= rho - width >= lower - width > x when it stops
    above.  A threshold within the margin of the enclosure never stops the
    iteration, and the full-width pair is returned bit for bit as without
    `decide`.
    """
    import numpy as np

    dim = M.shape[0]
    if dim == 1:
        return (float(M[0, 0]), float(M[0, 0]))
    m = float(M.sum(axis=1).max()) + 1.0
    shifted = M.copy()
    shifted.flat[:: dim + 1] += m
    x, y, ratios = np.ones(dim), np.empty(dim), np.empty(dim)
    if decide is not None:
        below = decide - 1e-9 * (m + abs(decide))
        above = decide + 1e-9 * (m + abs(decide))
    for _ in range(MAX_ITER):
        np.matmul(shifted, x, out=y)
        np.divide(y, x, out=ratios)
        lower, upper = float(ratios.min() - m), float(ratios.max() - m)
        if upper - lower <= REL_TOL * max(1.0, abs(upper)):
            return (lower, upper)
        if decide is not None and (upper < below or lower > above):
            return (lower, upper)
        np.divide(y, y.max(), out=x)
    raise SpectralConvergenceError(
        f"no enclosure of width {REL_TOL} after {MAX_ITER} iterations"
    )
