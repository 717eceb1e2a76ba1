"""Association-scheme operators for the ordered Hamming space.

Multiplication by the affine function P(e) = delta_crit * r * n - |e|' acts
block-tridiagonally on the Krawtchouk basis, grouped by shape length.  This
module builds the raw (exact rational) and orthonormally rescaled (float)
coefficient blocks, assembles the symmetric operator truncated at a given
degree, and encloses its largest eigenvalue with Collatz-Wielandt bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import sqrt

import numpy as np

from .krawtchouk import krawtchouk_table
from .space import (
    BudgetExceeded,
    Shape,
    SpaceParams,
    delta_crit,
    enumerate_vectors,
    shape_count,
    shape_length,
    shape_of,
    shape_weight,
    shapes_of_length,
    vector_sub,
)


def _L_terms(params: SpaceParams, i: int) -> tuple[int, int]:
    """Numerator and denominator of L_i = (q^(r-i+1) - 1) / (q^r (q-1)),
    unreduced, so that every depth shares the denominator q^r (q-1)."""
    q, r = params.q, params.r
    if not 1 <= i <= r:
        raise ValueError(f"depth {i} out of range [1, {r}]")
    return q ** (r - i + 1) - 1, q**r * (q - 1)


def L_coeff(params: SpaceParams, i: int) -> Fraction:
    """L_i = (q^(r-i+1) - 1) / (q^r (q-1))."""
    return Fraction(*_L_terms(params, i))


def P_eval(params: SpaceParams, e: Shape) -> Fraction:
    """P(e) = delta_crit * r * n - |e|'."""
    return delta_crit(params.q, params.r) * params.r * params.n - shape_weight(e)


# ---------------------------------------------------------------------------
# Intersection numbers


def _bump(f: Shape, j: int, delta: int) -> Shape:
    out = list(f)
    out[j] += delta
    return tuple(out)


def _nonzero_intersections(params: SpaceParams, f: Shape, i: int):
    """The pairs (h, m) of a shape h of the space and its nonzero
    intersection number m = intersection_Fi(f, i, h), at most 2i + 1.

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


def intersection_Fi(params: SpaceParams, f: Shape, i: int, h: Shape) -> int:
    """Intersection number with a single-part first index at depth i: the
    count of z with shape(z) = f and shape(z - x) = F_i, for a fixed x of
    shape h.  Nonzero only for the moves listed in `_nonzero_intersections`.
    """
    if not 1 <= i <= params.r:
        raise ValueError(f"depth {i} out of range [1, {params.r}]")
    return next((m for g, m in _nonzero_intersections(params, f, i) if g == h), 0)


def intersection_general(
    params: SpaceParams, f: Shape, g: Shape, h: Shape, cap: int = 1 << 12
) -> int:
    """Brute-force intersection number: the count of z with shape(z) = g and
    shape(z - x) = f, for a fixed x of shape h."""
    if params.ambient_size > cap:
        raise BudgetExceeded(
            f"ambient size {params.ambient_size} exceeds oracle cap {cap}"
        )
    x = _representative_of_shape(params, h)
    count = 0
    for z in enumerate_vectors(params):
        if shape_of(params, z) == g and shape_of(params, vector_sub(params, z, x)) == f:
            count += 1
    return count


def _representative_of_shape(params: SpaceParams, h: Shape):
    r = params.r
    vec = []
    for depth in range(1, r + 1):
        block = [0] * r
        block[depth - 1] = 1
        vec.extend(block * h[depth - 1])
    vec.extend([0] * (r * (params.n - sum(h))))
    return tuple(vec)


# ---------------------------------------------------------------------------
# Three-term blocks


def _over(nums: tuple[tuple[int, ...], ...], den: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x, den) for x in row) for row in nums)


@dataclass(frozen=True)
class ThreeTermBlocks:
    """Coefficient blocks of multiplication by P at degree kappa.

    Raw blocks (a, b, c) are exact rationals in the K_f basis, held as
    integer numerators (a_num, b_num, c_num) over the one denominator
    den = q^r (q-1) and turned into Fractions only when read; the rescaled
    blocks (A, B, C) are floats in the orthonormal basis.  Rows are indexed
    by shapes of length kappa, columns by length kappa+1 / kappa / kappa-1,
    all in lexicographic order.
    """

    params: SpaceParams
    kappa: int
    rows: tuple[Shape, ...]
    cols_up: tuple[Shape, ...]
    cols_down: tuple[Shape, ...]
    a_num: tuple[tuple[int, ...], ...]
    b_num: tuple[tuple[int, ...], ...]
    c_num: tuple[tuple[int, ...], ...]
    den: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    @cached_property
    def a(self) -> tuple[tuple[Fraction, ...], ...]:
        return _over(self.a_num, self.den)

    @cached_property
    def b(self) -> tuple[tuple[Fraction, ...], ...]:
        return _over(self.b_num, self.den)

    @cached_property
    def c(self) -> tuple[tuple[Fraction, ...], ...]:
        return _over(self.c_num, self.den)


@lru_cache(maxsize=8)
def _degree(params: SpaceParams, k: int):
    """The shapes of length k in lexicographic order, their positions in
    that order, and their counts v.  Consecutive degrees' blocks share
    column degrees, and the last few degrees cover a scan over kappa."""
    shapes = tuple(shapes_of_length(params, k)) if k >= 0 else ()
    index = {h: j for j, h in enumerate(shapes)}
    return shapes, index, {h: shape_count(params, h) for h in shapes}


def build_blocks(params: SpaceParams, kappa: int) -> ThreeTermBlocks:
    """Raw entries x[f,h] = sum_i L_i m_i over the nonzero intersection
    numbers m_i = intersection_Fi(f, i, h) of each row shape f; orthonormal
    entries by the diagonal similarity X[f,h] = x[f,h] sqrt(v_h/v_f).

    The raw entries are summed as integers N[f,h] = sum_i N_i m_i, where
    L_i = N_i / D over the common D = q^r (q-1).  The diagonal X[f,f] is
    the int/int division N[f,f] / D, which rounds correctly and so equals
    float(Fraction(N[f,f], D)).  Off the diagonal a single depth i reaches
    h, and X is taken as float(L_i) sqrt(m_i^2 v_h / v_f).  The rational
    under the root is the same for (f, h) and (h, f), so B is symmetric and
    C is the previous degree's A transposed, bit for bit; in the up and
    down blocks it is an integer.
    """
    if kappa > params.n:
        raise ValueError(f"degree {kappa} exceeds n = {params.n}")
    terms = [_L_terms(params, i) for i in range(1, params.r + 1)]
    den = terms[0][1]
    depths = [(i, N, N / den) for i, (N, _) in enumerate(terms, start=1)]
    # columns of shape length kappa+1, kappa, kappa-1: side = kappa + 1 - |h|
    sides, index, v = zip(*(_degree(params, k) for k in (kappa + 1, kappa, kappa - 1)))
    rows = sides[1]
    nums = [[[0] * len(cols) for _ in rows] for cols in sides]
    ortho = [np.zeros((len(rows), len(cols))) for cols in sides]
    for fi, f in enumerate(rows):
        for i, N, Lf in depths:
            for h, m in _nonzero_intersections(params, f, i):
                side = kappa + 1 - shape_length(h)
                j = index[side][h]
                nums[side][fi][j] += N * m
                if h != f:
                    ortho[side][fi, j] = Lf * sqrt(m * m * v[side][h] / v[1][f])
        ortho[1][fi, fi] = nums[1][fi][fi] / den
    a_num, b_num, c_num = (tuple(tuple(row) for row in block) for block in nums)
    A, B, C = ortho
    return ThreeTermBlocks(
        params=params,
        kappa=kappa,
        rows=rows,
        cols_up=sides[0],
        cols_down=sides[2],
        a_num=a_num,
        b_num=b_num,
        c_num=c_num,
        den=den,
        A=A,
        B=B,
        C=C,
    )


# ---------------------------------------------------------------------------
# The truncated multiplication operator and its spectral radius


@dataclass(frozen=True)
class OperatorS:
    """Symmetric block-tridiagonal matrix of P-multiplication projected onto
    polynomials of degree <= kappa, in the orthonormal basis."""

    params: SpaceParams
    kappa: int
    shapes: tuple[Shape, ...]  # row/column index, grouped by length
    matrix: np.ndarray


def build_operator(params: SpaceParams, kappa: int) -> OperatorS:
    if kappa > params.n:
        raise ValueError(f"degree {kappa} exceeds n = {params.n}")
    return assemble_operator([build_blocks(params, mu) for mu in range(kappa + 1)])


def assemble_operator(blocks: list[ThreeTermBlocks]) -> OperatorS:
    """The operator truncated at degree kappa from the blocks of degrees
    0..kappa, in order; its rows are the blocks' row shapes."""
    kappa = len(blocks) - 1
    offsets = [0]
    for blk in blocks:
        offsets.append(offsets[-1] + len(blk.rows))
    mat = np.zeros((offsets[-1], offsets[-1]))
    for mu, blk in enumerate(blocks):
        o, o2 = offsets[mu], offsets[mu + 1]
        mat[o:o2, o:o2] = blk.B
        if mu < kappa:
            o3 = offsets[mu + 2]
            mat[o:o2, o2:o3] = blk.A
            mat[o2:o3, o:o2] = blk.A.T
    shapes = tuple(s for blk in blocks for s in blk.rows)
    return OperatorS(params=blocks[0].params, kappa=kappa, shapes=shapes, matrix=mat)


class SpectralConvergenceError(Exception):
    """Power iteration failed to certify the requested enclosure width."""


def spectral_radius(
    op: OperatorS,
    rel_tol: float = 1e-10,
    max_iter: int = 10**6,
    decide: float | None = None,
) -> tuple[float, float]:
    """Enclosure (lower, upper) of the largest eigenvalue.

    Power iteration from the all-ones vector on the shifted matrix M + mI
    (m = max row sum + 1, so the iterate stays strictly positive), with
    Collatz-Wielandt ratio bounds min_i (Mx)_i/x_i <= rho <= max_i (Mx)_i/x_i
    at every step.  When plain iteration converges too slowly the same
    iteration is accelerated by repeated squaring of the shifted matrix,
    which preserves nonnegativity and hence the validity of the bounds.

    With `decide=x` the same iteration also returns its current pair as
    soon as the pair is decided: upper < x - margin or lower > x + margin,
    with margin = 1e-9 (m + |x|).  A decided pair answers "lower >= x?" as
    the full-width pair (lo, hi) would.  M is entrywise nonnegative, so
    0 <= rho < m; at the default rel_tol the full width hi - lo is at most
    1e-10 max(1, hi) < 1e-10 m; and each ratio is a sum of nonnegative
    terms, rounded to a relative error near dim 2^-53.  The margin is more
    than ten times that width and rounding together.  So, up to rounding,
    lo <= rho <= upper < x when the pair stops below x, and
    lo >= hi - width >= rho - width >= lower - width > x when it stops
    above.  A threshold within the margin of the enclosure never stops the
    iteration, and the full-width pair is returned bit for bit as without
    `decide`.
    """
    M = op.matrix
    dim = M.shape[0]
    if dim == 1:
        return (float(M[0, 0]), float(M[0, 0]))
    m = float(M.sum(axis=1).max()) + 1.0
    shifted = M + m * np.eye(dim)
    x = np.ones(dim)
    if decide is not None:
        below = decide - 1e-9 * (m + abs(decide))
        above = decide + 1e-9 * (m + abs(decide))

    def settled(lower: float, upper: float) -> bool:
        if upper - lower <= rel_tol * max(1.0, abs(upper)):
            return True
        return decide is not None and (upper < below or lower > above)

    def bounds_at(vec: np.ndarray) -> tuple[float, float]:
        y = shifted @ vec
        ratios = y / vec
        return float(ratios.min() - m), float(ratios.max() - m)

    plain_budget = min(max_iter, 4000)
    it = 0
    while it < plain_budget:
        y = shifted @ x
        ratios = y / x
        lower, upper = float(ratios.min() - m), float(ratios.max() - m)
        if settled(lower, upper):
            return (lower, upper)
        x = y / y.max()
        it += 1

    # squaring acceleration: x <- (M + mI)^(2^k) * ones, renormalized
    power = shifted.copy()
    x = np.ones(dim)
    squarings = 0
    while it < max_iter:
        x = power @ np.ones(dim)
        x = x / x.max()
        if (x <= 0).any():
            raise SpectralConvergenceError("iterate lost positivity")
        lower, upper = bounds_at(x)
        if settled(lower, upper):
            return (lower, upper)
        power = power @ power
        power = power / power.max()
        squarings += 1
        it += 1
        if squarings > 120:
            break
    raise SpectralConvergenceError(
        f"no enclosure of width {rel_tol} after {it} iterations"
    )


# ---------------------------------------------------------------------------
# Christoffel-Darboux


def cd_kernel(params: SpaceParams, L, a: Shape, e: Shape) -> Fraction:
    """U_L(a, e) = sum_{f in L} K_f(a) K_f(e) / v_f, exact."""
    table = krawtchouk_table(params)
    total = Fraction(0)
    for f in L:
        total += Fraction(table[(f, a)] * table[(f, e)], shape_count(params, f))
    return total


def cd_check(params: SpaceParams, kappa: int, a: Shape, e: Shape) -> bool:
    """Exact two-sided check of the Christoffel-Darboux identity at degree
    kappa:

        (P(e) - P(a)) U_kappa(a, e)
            = sum_{|f|=kappa, |h|=kappa+1} (a_kappa[f,h]/v_f)
                  (K_h(e) K_f(a) - K_f(e) K_h(a))
    """
    table = krawtchouk_table(params)
    L = [f for mu in range(kappa + 1) for f in shapes_of_length(params, mu)]
    lhs = (P_eval(params, e) - P_eval(params, a)) * cd_kernel(params, L, a, e)
    blocks = build_blocks(params, kappa)
    rhs = Fraction(0)
    for fi, f in enumerate(blocks.rows):
        vf = shape_count(params, f)
        for hi, h in enumerate(blocks.cols_up):
            coeff = blocks.a[fi][hi]
            if coeff == 0:
                continue
            rhs += (
                coeff
                * (table[(h, e)] * table[(f, a)] - table[(f, e)] * table[(h, a)])
                / vf
            )
    return lhs == rhs
