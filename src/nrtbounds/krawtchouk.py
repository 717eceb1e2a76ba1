"""Univariate and multivariate Krawtchouk polynomials for the NRT space.

The univariate polynomial of degree s in x, with "dimension" argument nu
(which may be any real number, not just an integer), is

    k_s(nu, x) = sum_{l=0}^{s} (-1)^l (q-1)^(s-l) C(x, l) C(nu - x, s - l)

with C(a, m) = a (a-1) ... (a-m+1) / m! the falling-factorial binomial.
Values are computed by the three-term recurrence in the degree, which is a
polynomial identity in nu and x: in integers at integer arguments, in
Fractions at exact ones, in floats otherwise.  The smallest root is the
smallest eigenvalue of the symmetric Jacobi matrix of that recurrence.

The multivariate family K_f, indexed by shapes f, gives the eigenvalues of
the ordered Hamming association scheme.  It factors into univariate
polynomials:

    K_f(x) = q^(|f|' - |f|) * prod_{i=1..r} k_{f_i}(n_i, x_{r-i+1}),
    n_i = x_0 + x_1 + ... + x_{r-i+1} - (f_{i+1} + ... + f_r),  x_0 = n - |x|.

At a shape e every factor is an integer value k_s(nu, x) with
-n <= nu <= n and 0 <= x, s <= n, so `krawtchouk_table` reads them all from
one cube of such values, filled by one degree recurrence per (nu, x).  It
returns the exact eigenmatrix T[f][e] = K_f(e) as one dense `Eigenmatrix`:
the shapes in `enumerate_shapes` order, each row a tuple of Python ints
(the values overflow int64), and the zero column the valencies
K_f(0) = v_f.  Consumers read its rows, single entries by `T[f, e]`, or
its product with a vector by `T.transform`.
`K_multi` evaluates the product directly, at shapes and at real or rational
points, and is the oracle the matrix is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm
from operator import mul

from .space import (
    CheckFailure,
    Shape,
    SpaceParams,
    enumerate_shapes,
    shape_length,
    shape_weight,
    validate_shape,
)


def k_uni(q: int, nu, s: int, x):
    """Univariate Krawtchouk value k_s(nu, x) by the recurrence in the degree

        (j+1) k_{j+1} = ((q-1)(nu-j) + j - q x) k_j - (q-1)(nu-j+1) k_{j-1},

    from k_0 = 1 and k_{-1} = 0; exact (a Fraction) for exact inputs.
    """
    if s < 0:
        raise ValueError("degree must be nonnegative")
    *_, value = _k_values(q, nu, s, x)
    return Fraction(value) if isinstance(value, int) else value


def _k_values(q: int, nu, s: int, x):
    """Yield k_0(nu, x), ..., k_s(nu, x) by the degree recurrence of
    `k_uni`: ints at integer nu and x, Fractions at exact ones, floats
    otherwise."""
    integral = isinstance(nu, int) and isinstance(x, int)
    exact = isinstance(nu, (int, Fraction)) and isinstance(x, (int, Fraction))
    prev, cur = 0, (1 if integral else Fraction(1) if exact else 1.0)
    yield cur
    for j in range(s):
        num = ((q - 1) * (nu - j) + j - q * x) * cur - (q - 1) * (nu - j + 1) * prev
        # at integer nu and x every k_j is an integer (a sum of products of
        # integer binomials), so the floor division is exact
        prev, cur = cur, (num // (j + 1) if integral else num / (j + 1))
        yield cur


def K_multi(params: SpaceParams, f: Shape, x) -> int | float:
    """Multivariate Krawtchouk K_f evaluated at x.

    x is a shape (integer tuple) for exact integer results, or a tuple of
    reals for the analytic continuation used by the depth-2 bound machinery.
    """
    validate_shape(params, f)
    if len(x) != params.r:
        raise ValueError("evaluation point must have r coordinates")
    r, n = params.r, params.n
    integral = all(isinstance(c, int) for c in x)
    exact = integral or all(isinstance(c, (int, Fraction)) for c in x)
    xs = (n - sum(x),) + tuple(x)  # xs[j] = x_j for j = 0..r
    # an integer, since the weight of a shape is at least its length; at a
    # shape every factor below is an int too, so K_f(x) is a product of ints
    value = params.q ** (shape_weight(f) - shape_length(f))
    if not integral:
        value = Fraction(value) if exact else float(value)
    for i in range(1, r + 1):
        nu = sum(xs[: r - i + 2]) - sum(f[i:])
        *_, k = _k_values(params.q, nu, f[i - 1], x[r - i])
        value *= k
    return value


def _value_cube(q: int, n: int) -> list[list[list[int]]]:
    """cube[nu + n][x][s] = k_s(nu, x) for integers -n <= nu <= n and
    0 <= x, s <= n, one degree recurrence per (nu, x).  The offset keeps
    nu < 0 from indexing the list from its end."""
    return [[list(_k_values(q, nu, n, x)) for x in range(n + 1)] for nu in range(-n, n + 1)]


class Eigenmatrix:
    """T[f][e] = K_f(e) over the shapes of a space, in `enumerate_shapes`
    order, so row and column 0 belong to the zero shape; index maps a
    shape to its position in `shapes`."""

    __slots__ = ("shapes", "index", "rows")

    def __init__(
        self,
        shapes: tuple[Shape, ...],
        index: dict[Shape, int],
        rows: tuple[tuple[int, ...], ...],
    ) -> None:
        self.shapes, self.index, self.rows = shapes, index, rows

    def __getitem__(self, key: tuple[Shape, Shape]) -> int:
        f, e = key
        return self.rows[self.index[f]][self.index[e]]

    def transform(self, A: dict[Shape, Fraction], c: int | Fraction) -> dict[Shape, Fraction]:
        """The nonzero entries of B = T A / c, B_f = sum_e K_f(e) A_e / c,
        for A and a nonzero rational c.  A is put over one common
        denominator D, so each B_f is one integer sum divided by D c."""
        den = lcm(*(a.denominator for a in A.values()))
        terms = [(self.index[e], a.numerator * (den // a.denominator)) for e, a in A.items() if a]
        scale = den * c
        B = {}
        for f, row in zip(self.shapes, self.rows):
            b = sum(row[j] * a for j, a in terms)
            if b:
                B[f] = Fraction(b, scale)
        return B


@lru_cache(maxsize=None)
def krawtchouk_table(params: SpaceParams) -> Eigenmatrix:
    """The eigenmatrix: every K_f(e) for f, e over the shapes of the space.

    By the factorization in the module docstring, K_f(e) is q^(|f|'-|f|)
    times the r values k_{f_i}(n_i, e_{r-i+1}), each read from
    `_value_cube`: n_i = S - T, with S a prefix sum of (x_0, e_1, ..., e_r)
    and T a suffix sum of f, lies in -n..n, and n_i < 0 occurs from r = 3
    on.
    """
    q, r, n = params.q, params.r, params.n
    cube = _value_cube(q, n)
    shapes = tuple(enumerate_shapes(params))
    # points[i] holds, for every e, the prefix sum S = x_0 + ... + x_{r-i}
    # and the point x_{r-i} of the factor at depth i + 1
    points = []
    for e in shapes:
        prefix = list(accumulate(e, initial=n - sum(e)))  # x_0, x_0 + x_1, ...
        points.append([(prefix[r - i], e[r - 1 - i]) for i in range(r)])
    points = list(zip(*points))
    rows = []
    for f in shapes:
        values = [q ** (shape_weight(f) - shape_length(f))] * len(shapes)
        for i in range(r):
            planes = cube[n - sum(f[i + 1 :]) :]  # planes[S] holds nu = S - T
            s = f[i]
            values = list(map(mul, values, [planes[S][x][s] for S, x in points[i]]))
        rows.append(tuple(values))
    return Eigenmatrix(shapes, {e: j for j, e in enumerate(shapes)}, tuple(rows))


# ---------------------------------------------------------------------------
# Roots and the limiting root-position function


class BracketingError(CheckFailure):
    """Raised when no sign change brackets the root of an equation."""


def k_root_min(q: int, nu: float, s: int) -> float:
    """Smallest root of k_s(nu, .): `k_root_mins` of the one pair (nu, s)."""
    return k_root_mins(q, [(nu, s)])[0]


def k_root_mins(q: int, pairs) -> list[float]:
    """Smallest roots of k_s(nu, .) for the pairs (nu, s), in their order.

    Each is the smallest eigenvalue of the s x s symmetric Jacobi matrix of
    the degree recurrence (Golub and Welsch 1969).  The pairs are grouped by
    degree, and each degree's matrices go to one stacked `eigvalsh` call,
    which gives every matrix the same bits as a call of its own.  Requires
    s >= 1 and nu > s for every pair, so that all s roots are real and lie
    inside (0, nu).
    """
    pairs = list(pairs)
    by_degree: dict[int, list[int]] = {}  # degree -> positions of its pairs
    for k, (nu, s) in enumerate(pairs):
        if s < 1:
            raise ValueError("degree must be >= 1")
        if not nu > s:
            raise ValueError(f"need nu > s for real roots inside (0, nu); got nu={nu}, s={s}")
        by_degree.setdefault(s, []).append(k)
    if not pairs:
        return []
    import numpy as np

    roots = [0.0] * len(pairs)
    for s, ks in by_degree.items():
        nu = np.array([float(pairs[k][0]) for k in ks])[:, None]
        i, j = np.arange(s), np.arange(s, dtype=float)
        jacobi = np.zeros((len(ks), s, s))
        jacobi[:, i, i] = ((q - 1) * (nu - j) + j) / q
        off = np.sqrt(j[1:] * (q - 1) * (nu - j[1:] + 1)) / q
        jacobi[:, i[1:], i[:-1]] = off
        jacobi[:, i[:-1], i[1:]] = off
        for k, root in zip(ks, np.linalg.eigvalsh(jacobi)[:, 0].tolist()):
            roots[k] = root
    return roots


# The numbers the float-or-array functions take as one value; anything else
# is an array.  A type test, not a numpy one, so their float calls import
# nothing (np.float64 subclasses float).
_SCALARS = (int, float, Fraction)


def _extremes(x):
    """(x, x) of a number, or (min, max) of an array."""
    return (x, x) if isinstance(x, _SCALARS) else (x.min(), x.max())


def gamma(q: int, y):
    """Limit of the scaled smallest Krawtchouk root, at a float or
    elementwise on an array:

        (q-1)/q - ((q-2)/q) y - (2/q) sqrt((q-1) y (1-y))
    """
    lo, hi = _extremes(y)
    if not (0 <= lo and hi <= (q - 1) / q):  # name the extreme, not the array
        raise ValueError(f"y={hi if 0 <= lo else lo} outside [0, (q-1)/q]")
    return (q - 1) / q - (q - 2) / q * y - 2 / q * ((q - 1) * y * (1 - y)) ** 0.5
