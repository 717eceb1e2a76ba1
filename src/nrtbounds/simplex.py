"""One-phase primal simplex for integer programs with Bland's rule.

It solves  maximize c.x  subject to  A x <= b,  x >= 0,  with b >= 0: the
one program shape the Delsarte LP builds.  x = 0 is feasible, so the only
phase starts from the slack basis and no program is infeasible; a
minimization is the maximization of the negated objective.  `make_lp`
takes int data only; a rational program is multiplied out to integers by
its caller.

The dictionary of the current basis is held as integer numerators over one
positive common denominator (integer pivoting on a dictionary, as in
Avis's lrs; Edmonds 1967, Bareiss 1968): only the nonbasic columns are
stored, since every basic column is the denominator times a unit vector,
and every pivot updates the numerators by an exact integer division, so
no Fraction and no gcd enters the inner loop.  Results are exact
fractions.Fraction values and deterministic.  The duals, which certificate
extraction reads, are the final reduced costs of the slacks.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import count

from .space import CheckFailure

# most pivots the simplex may take; Bland's rule cannot cycle, so reaching
# it means a broken pivot rule, not a hard program
MAX_PIVOTS = 2_000


class LPError(CheckFailure):
    """The solver failed, or returned a status that signals a
    constraint-assembly bug."""


Constraint = namedtuple("Constraint", "coeffs rhs")  # coeffs . x <= rhs
# maximize objective . x subject to the constraints and x >= 0
LinearProgram = namedtuple("LinearProgram", "objective constraints")
# status is "optimal" or "unbounded"; a ray certifies unboundedness
SimplexResult = namedtuple("SimplexResult", "status objective x duals ray", defaults=(None,) * 4)


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
    """The dictionary of the current basis as integer numerators M over one
    common denominator D.

    Variables are numbered structural | slack, and the slacks are the first
    basis, at D = 1.  `nonbasic[k]` is the variable in slot k, M[i][k] / D
    is the tableau entry of row i in that variable's column, and M[i][-1] / D
    is the row's right-hand side.  D > 0 is |det B| for the current basis B
    of the initial integer tableau, and each M[i][k] is, up to the sign of
    det B, a minor of that tableau, so the update in `pivot` divides exactly
    (Sylvester's identity; Bareiss 1968).  The reduced-cost row R is one
    more such row, R / D = c - c_B B^-1 A over the nonbasic slots, and
    R[-1] / D is minus the objective value.
    """

    def __init__(self, lp: LinearProgram):
        self.nvars, self.m = len(lp.objective), len(lp.constraints)
        self.basis = list(range(self.nvars, self.nvars + self.m))
        self.nonbasic = list(range(self.nvars))
        self.M = [[*con.coeffs, con.rhs] for con in lp.constraints]
        self.D = 1
        self.R = [*lp.objective, 0]  # the slacks cost nothing

    def pivot(self, row: int, k: int) -> None:
        """Exchange basis[row] with the variable in slot k; M[row][k] > 0."""
        D, piv_row = self.D, self.M[row]
        p = piv_row[k]
        # row `row` keeps its numerators; the new denominator is p, and slot
        # k takes the leaving variable, whose column was D e_row
        for i, Mi in enumerate(self.M + [self.R]):
            if i == row:
                continue
            f = Mi[k]
            if f:
                Mi[:] = [(a * p - f * b) // D for a, b in zip(Mi, piv_row)]
            elif p != D:
                Mi[:] = [a * p // D for a in Mi]
            Mi[k] = -f
        piv_row[k] = D
        self.D = p
        self.basis[row], self.nonbasic[k] = self.nonbasic[k], self.basis[row]

    def run(self) -> int | None:
        """Pivot by Bland's rule; return None at an optimum, or the slot of
        an entering variable that no row limits.  Raises LPError rather than
        take more than MAX_PIVOTS pivots."""
        R = self.R
        for pivots in count():
            # the lowest variable, not the lowest slot, with R > 0
            enter = min(((j, k) for k, j in enumerate(self.nonbasic) if R[k] > 0), default=None)
            if enter is None:
                return None
            k = enter[1]
            leave_row = None
            for i in range(self.m):
                t = self.M[i][k]
                if t > 0:
                    rhs = self.M[i][-1]
                    if leave_row is not None:
                        # rhs/t against best_rhs/best_t; both t are positive
                        cross, best_cross = rhs * best_t, best_rhs * t
                        if cross > best_cross or (
                            cross == best_cross and self.basis[i] > self.basis[leave_row]
                        ):
                            continue
                    leave_row, best_rhs, best_t = i, rhs, t
            if leave_row is None:
                return k
            if pivots == MAX_PIVOTS:
                raise LPError(f"no optimum after {MAX_PIVOTS} pivots in one phase")
            self.pivot(leave_row, k)

    def basic_values(self, column: int) -> list[Fraction]:
        """Column `column` of M over D, read into the structural variables."""
        values = [Fraction(0)] * self.nvars
        for i, j in enumerate(self.basis):
            if j < self.nvars:
                values[j] = Fraction(self.M[i][column], self.D)
        return values


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    tab = _Tableau(lp)
    k = tab.run()
    if k is not None:
        # raising the entering variable by one moves each basic variable by
        # minus its tableau entry
        ray = [-v for v in tab.basic_values(k)]
        if tab.nonbasic[k] < tab.nvars:
            ray[tab.nonbasic[k]] = Fraction(1)
        return SimplexResult(status="unbounded", ray=tuple(ray))
    # the dual of row i is minus the reduced cost of its slack, +e_i at
    # cost zero, which is zero while the slack is basic
    slot = {j: k for k, j in enumerate(tab.nonbasic)}
    slacks = range(tab.nvars, tab.nvars + tab.m)
    duals = [Fraction(-tab.R[slot[j]] if j in slot else 0, tab.D) for j in slacks]
    return SimplexResult(
        status="optimal",
        objective=Fraction(-tab.R[-1], tab.D),
        x=tuple(tab.basic_values(-1)),
        duals=tuple(duals),
    )
