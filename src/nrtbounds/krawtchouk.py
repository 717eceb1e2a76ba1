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
K_f(0) = v_f.  Consumers read its rows, or single entries by `T[f, e]`.
`K_multi` evaluates the product directly, at shapes and at real or rational
points, and is the oracle the matrix is tested against.

An independent cross-check evaluates K_f(e) as a character sum over all
vectors of shape f against a fixed representative with right-to-left shape e.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

import numpy as np

from .space import (
    BudgetExceeded,
    Shape,
    SpaceParams,
    enumerate_shapes,
    enumerate_vectors,
    shape_count,
    shape_length,
    shape_of,
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
    value = _k_recurrence(q, nu, s, x)
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


def _k_recurrence(q: int, nu, s: int, x):
    """k_s(nu, x) for s >= 0, the last value of `_k_values`."""
    *_, value = _k_values(q, nu, s, x)
    return value


def uni_recurrence_check(q: int, nu, s: int, x) -> bool:
    """k_s(nu, x) == k_s(nu-1, x) + (q-1) k_{s-1}(nu-1, x), exact."""
    if s < 1:
        raise ValueError("degree must be >= 1")
    lhs = k_uni(q, nu, s, x)
    rhs = k_uni(q, nu - 1, s, x) + (q - 1) * k_uni(q, nu - 1, s - 1, x)
    return lhs == rhs


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
        value *= _k_recurrence(params.q, nu, f[i - 1], x[r - i])
    return value


def _value_cube(q: int, n: int) -> list[list[list[int]]]:
    """cube[nu + n][x][s] = k_s(nu, x) for integers -n <= nu <= n and
    0 <= x, s <= n, one degree recurrence per (nu, x).  The offset keeps
    nu < 0 from indexing the list from its end."""
    return [[list(_k_values(q, nu, n, x)) for x in range(n + 1)] for nu in range(-n, n + 1)]


@dataclass(frozen=True)
class Eigenmatrix:
    """T[f][e] = K_f(e) over the shapes of a space, in `enumerate_shapes`
    order, so row and column 0 belong to the zero shape."""

    shapes: tuple[Shape, ...]
    index: dict[Shape, int]  # shape -> its position in `shapes`
    rows: tuple[tuple[int, ...], ...]

    def __getitem__(self, key: tuple[Shape, Shape]) -> int:
        f, e = key
        return self.rows[self.index[f]][self.index[e]]


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
# Character-sum cross-check


def canonical_bar_representative(params: SpaceParams, e: Shape):
    """A fixed vector whose right-to-left shape equals e: for each j, e_j
    blocks carry a single 1 at position r - j + 1."""
    validate_shape(params, e)
    r = params.r
    vec = []
    for j in range(1, r + 1):
        block = [0] * r
        block[r - j] = 1
        vec.extend(block * e[j - 1])
    vec.extend([0] * (r * (params.n - sum(e))))
    return tuple(vec)


def K_fourier_oracle(
    params: SpaceParams, f: Shape, e: Shape, cap: int = 1 << 16
) -> int:
    """K_f(e) as the character sum over vectors z of shape f of omega^(x.z),
    where x is a representative of right-to-left shape e.

    Exact integers for q = 2 (omega = -1); for q > 2, complex double
    arithmetic with the imaginary part required to vanish to 1e-6.
    """
    validate_shape(params, f)
    validate_shape(params, e)
    if params.ambient_size > cap:
        raise BudgetExceeded(
            f"character sum over {params.ambient_size} vectors exceeds cap {cap}"
        )
    x = canonical_bar_representative(params, e)
    groups = _vectors_by_shape(params)
    zs = groups.get(f, ())
    q = params.q
    if q == 2:
        total = 0
        for z in zs:
            dot = sum(a * b for a, b in zip(x, z)) % 2
            total += 1 if dot == 0 else -1
        return total
    omega = cmath.exp(2j * cmath.pi / q)
    acc = 0 + 0j
    for z in zs:
        dot = sum(a * b for a, b in zip(x, z)) % q
        acc += omega**dot
    if abs(acc.imag) >= 1e-6:
        raise AssertionError(f"character sum has imaginary part {acc.imag}")
    return round(acc.real)


@lru_cache(maxsize=None)
def _vectors_by_shape(params: SpaceParams) -> dict[Shape, tuple]:
    groups: dict[Shape, list] = {}
    for z in enumerate_vectors(params):
        groups.setdefault(shape_of(params, z), []).append(z)
    return {k: tuple(v) for k, v in groups.items()}


# ---------------------------------------------------------------------------
# Linear polynomials and the inner product


def linear_K(params: SpaceParams, i: int) -> tuple:
    """Affine coefficients (c_0, c_1, ..., c_r) of the degree-1 polynomial
    indexed by the single-part shape with its part at depth i:

        q^(i-1) (q-1) (n - x_r - ... - x_{r-i+2}) - q^i x_{r-i+1}
    """
    if not 1 <= i <= params.r:
        raise ValueError(f"depth {i} out of range [1, {params.r}]")
    q, r, n = params.q, params.r, params.n
    coeffs = [0] * (r + 1)
    coeffs[0] = q ** (i - 1) * (q - 1) * n
    for j in range(r - i + 2, r + 1):
        coeffs[j] = -(q ** (i - 1)) * (q - 1)
    coeffs[r - i + 1] = -(q**i)
    return tuple(coeffs)


def eval_linear(coeffs: tuple, x) -> Fraction:
    return coeffs[0] + sum(c * xi for c, xi in zip(coeffs[1:], x))


def weight_w(params: SpaceParams, e: Shape) -> Fraction:
    """Normalized valency w(e) = q^(-n r) v_e; a probability on shapes."""
    return Fraction(shape_count(params, e), params.ambient_size)


def inner_product(params: SpaceParams, u1, u2) -> Fraction:
    """<u1, u2> = sum_e u1(e) u2(e) w(e) over all shapes, exact.

    u1, u2 map shapes to rationals (dict or callable).
    """
    get1 = u1.__getitem__ if hasattr(u1, "__getitem__") else u1
    get2 = u2.__getitem__ if hasattr(u2, "__getitem__") else u2
    total = Fraction(0)
    for e in enumerate_shapes(params):
        total += Fraction(get1(e)) * Fraction(get2(e)) * weight_w(params, e)
    return total


# ---------------------------------------------------------------------------
# Roots and the limiting root-position function


class BracketingError(Exception):
    """Raised when no sign change brackets the root of an equation."""


def k_root_min(q: int, nu: float, s: int) -> float:
    """Smallest root of k_s(nu, .), the smallest eigenvalue of the s x s
    symmetric Jacobi matrix of the degree recurrence (Golub and Welsch 1969).

    Requires nu > s so that all s roots are real and lie inside (0, nu).
    """
    if s < 1:
        raise ValueError("degree must be >= 1")
    if not nu > s:
        raise ValueError(f"need nu > s for real roots inside (0, nu); got nu={nu}, s={s}")
    nu, j = float(nu), np.arange(s, dtype=float)
    jacobi = np.diag(((q - 1) * (nu - j) + j) / q)
    off = np.sqrt(j[1:] * (q - 1) * (nu - j[1:] + 1)) / q
    jacobi += np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(jacobi)[0])


def gamma(q: int, y):
    """Limit of the scaled smallest Krawtchouk root, at a float or
    elementwise on an array:

        (q-1)/q - ((q-2)/q) y - (2/q) sqrt((q-1) y (1-y))
    """
    lo, hi = (y.min(), y.max()) if isinstance(y, np.ndarray) else (y, y)
    if not (0 <= lo and hi <= (q - 1) / q):
        raise ValueError(f"y={y} outside [0, (q-1)/q]")
    return (q - 1) / q - (q - 2) / q * y - 2 / q * ((q - 1) * y * (1 - y)) ** 0.5
