"""One-phase primal simplex for integer programs with Bland's rule.

It solves  maximize c.x  subject to  A x <= b,  x >= 0,  with b >= 0: the
one program shape the Delsarte LP builds.  x = 0 is feasible, so the only
phase starts from the slack basis and no program is infeasible; a
minimization is the maximization of the negated objective.  `make_lp`
takes int data only; a rational program is multiplied out to integers by
its caller.

The Delsarte code program is bounded.  It maximizes sum A_e over shapes
e != 0 subject to T A >= -v, T[f][e] = K_f(e); a recession direction
A >= 0 has T A >= 0, whose sum is 0 as column e of T sums to q^(nr) [e = 0],
so T A = 0 and A = T T A / q^(nr) = 0.  So an entering variable that no
row limits means a program built wrong, and raises LPError.

The dictionary of the current basis is held as integer numerators
(integer pivoting on a dictionary, as in Avis's lrs; Edmonds 1967, Bareiss
1968) of gcd-reduced rows, each over its own denominator (see `_Tableau`).
Only the nonbasic columns are stored, since every basic column is a
multiple of a unit vector, and every pivot updates the numerators by exact
integer divisions, so no Fraction and no gcd enters the inner loop.
Results are exact Fractions; the duals, which certificate extraction
reads, are the final reduced costs of the slacks.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import count
from math import gcd

from .space import CheckFailure

# most pivots the simplex may take; Bland's rule cannot cycle, so reaching
# it means a broken pivot rule, not a hard program
MAX_PIVOTS = 2_000


class LPError(CheckFailure):
    """The solver failed, or the program is unbounded, which signals a
    constraint-assembly bug."""


Constraint = namedtuple("Constraint", "coeffs rhs")  # coeffs . x <= rhs
# maximize objective . x subject to the constraints and x >= 0
LinearProgram = namedtuple("LinearProgram", "objective constraints")
# an optimum: its value, a basic optimal x and the duals of the rows
SimplexResult = namedtuple("SimplexResult", "objective x duals")


def make_lp(objective, rows) -> LinearProgram:
    """rows: iterable of (coeffs, rhs), each the row coeffs . x <= rhs.
    Every number must be an int; anything else, bool included, raises
    TypeError.  A row of another length than the objective, or with a
    negative rhs, raises ValueError."""
    cons = tuple(Constraint(tuple(coeffs), rhs) for coeffs, rhs in rows)
    objective = tuple(objective)
    for v in (*objective, *(v for con in cons for v in (*con.coeffs, con.rhs))):
        if type(v) is not int:
            raise TypeError(f"program data must be int, not {type(v).__name__}")
    for con in cons:
        if len(con.coeffs) != len(objective):
            raise ValueError("constraint arity mismatch")
        if con.rhs < 0:
            raise ValueError(f"negative right-hand side {con.rhs}: x = 0 must be feasible")
    return LinearProgram(objective=objective, constraints=cons)


class _Tableau:
    """The dictionary of the current basis as integer numerators M, each
    row over its own denominator.

    Variables are numbered structural | slack, and the slacks are the first
    basis.  Row i of the program enters divided by g[i], the gcd of its
    coefficients and right-hand side: the reduced program has the same
    feasible x, and its slack is the original one over g[i].  `nonbasic[k]`
    is the variable in slot k, M[i][k] / den[i] is the tableau entry of row
    i in that variable's column, and M[i][-1] / den[i] is the row's
    right-hand side.  The reduced-cost row R is one more such row, over
    den[m]: R / den[m] = c - c_B B^-1 A over the nonbasic slots, and
    R[-1] / den[m] is minus the objective value.

    D > 0 is |det B| for the current basis B of the reduced integer
    tableau [A' | I | b'].  Each row was last rewritten at some pivot, and
    den[i] is the D of that pivot: since then its pivot-column entries were
    0, so its values have not changed, and M[i] is, up to the sign of that
    det B, a row of minors of the reduced tableau.  Multiplied by D / den[i]
    it is the row of minors for the current basis, an integer row.  A pivot
    on p = M[row][k] first brings the pivot row to D; a row with f =
    M[i][k] != 0 becomes (a p - f b) / den[i] with -f D / den[i] in slot
    k, both exact divisions because the results are the minors for the new
    basis, whose |det B| is p (Sylvester's identity; Bareiss 1968).

    Dividing a row by a positive number changes no pivot.  Bland's rule
    reads only the signs of R, which a positive den[m] and the positive
    scale g[i] of a slack's column keep; the ratio test compares, row by
    row, rhs / t of the entering column, which den[i] does not change and
    g[j] of an entering slack scales in every row alike.  So the pivots are
    those of the unreduced program over one common denominator, and the
    results are the same fractions once the dual of row i, read from the
    reduced program, is divided by g[i].
    """

    def __init__(self, lp: LinearProgram):
        self.nvars, self.m = len(lp.objective), len(lp.constraints)
        self.basis = list(range(self.nvars, self.nvars + self.m))
        self.nonbasic = list(range(self.nvars))
        rows = [[*con.coeffs, con.rhs] for con in lp.constraints]
        self.g = [gcd(*row) or 1 for row in rows]  # 0 only for a zero row
        self.M = [[a // g for a in row] for row, g in zip(rows, self.g)]
        self.R = [*lp.objective, 0]  # the slacks cost nothing
        self.D = 1
        self.den = [1] * (self.m + 1)  # den[m] is R's

    def pivot(self, row: int, k: int) -> None:
        """Exchange basis[row] with the variable in slot k; M[row][k] > 0."""
        D, den, piv_row = self.D, self.den, self.M[row]
        if den[row] != D:
            piv_row[:] = [a * D // den[row] for a in piv_row]
        p = piv_row[k]
        # row `row` keeps its numerators; the new denominator is p, and slot
        # k takes the leaving variable, whose column was D e_row
        for i, Mi in enumerate(self.M + [self.R]):
            f = Mi[k]
            if f and i != row:
                d = den[i]
                Mi[:] = [(a * p - f * b) // d for a, b in zip(Mi, piv_row)]
                Mi[k] = -(f * D // d)
                den[i] = p
        piv_row[k] = D
        den[row] = self.D = p
        self.basis[row], self.nonbasic[k] = self.nonbasic[k], self.basis[row]

    def run(self) -> None:
        """Pivot by Bland's rule to an optimum.  Raises LPError on an
        entering variable that no row limits, or rather than take more than
        MAX_PIVOTS pivots."""
        R = self.R
        for pivots in count():
            # the lowest variable, not the lowest slot, with R > 0
            enter = min(((j, k) for k, j in enumerate(self.nonbasic) if R[k] > 0), default=None)
            if enter is None:
                return
            j, k = enter
            leave_row = None
            for i, Mi in enumerate(self.M):
                t = Mi[k]
                # the least rhs / t, ties to the lowest basic variable; both t > 0
                if t > 0 and (
                    leave_row is None
                    or (cross := Mi[-1] * best_t - best_rhs * t) < 0
                    or cross == 0 and self.basis[i] < self.basis[leave_row]
                ):
                    leave_row, best_rhs, best_t = i, Mi[-1], t
            if leave_row is None:
                raise LPError(f"unbounded program: no row limits entering variable {j}")
            if pivots == MAX_PIVOTS:
                raise LPError(f"no optimum after {MAX_PIVOTS} pivots in one phase")
            self.pivot(leave_row, k)


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    tab = _Tableau(lp)
    tab.run()
    x = [Fraction(0)] * tab.nvars
    for i, j in enumerate(tab.basis):
        if j < tab.nvars:
            x[j] = Fraction(tab.M[i][-1], tab.den[i])
    # the dual of row i is minus the reduced cost of its slack, +e_i at
    # cost zero, which is zero while the slack is basic; the reduced row
    # is row i over g[i], so its dual is g[i] times row i's
    slot = {j: k for k, j in enumerate(tab.nonbasic)}
    slacks = range(tab.nvars, tab.nvars + tab.m)
    den_R = tab.den[-1]
    duals = [
        Fraction(-tab.R[slot[j]] if j in slot else 0, den_R * g) for j, g in zip(slacks, tab.g)
    ]
    return SimplexResult(objective=Fraction(-tab.R[-1], den_R), x=tuple(x), duals=tuple(duals))
