"""Two-phase primal simplex for integer programs with Bland's rule.

Small dense dictionaries only.  `make_lp` takes int data only; a rational
program is multiplied out to integers by its caller.  The dictionary of
the current basis is held as integer numerators over one positive common
denominator (integer pivoting on a dictionary, as in Avis's lrs; Edmonds
1967, Bareiss 1968): only the nonbasic columns are stored, since every
basic column is the denominator times a unit vector, and every pivot
updates the numerators by an exact integer division, so no Fraction and
no gcd enters the inner loop.  Results are exact fractions.Fraction
values and deterministic.  Dual values are recovered from the final
reduced costs on each row's seed column (its slack or artificial), which
makes optimal dual solutions available to certificate extraction.
"""

from __future__ import annotations

from collections.abc import Container
from collections import namedtuple
from fractions import Fraction
from itertools import count

from .space import CheckFailure

LE, GE, EQ = "<=", ">=", "=="

# most pivots one phase may take; Bland's rule cannot cycle, so reaching it
# means a broken pivot rule, not a hard program
MAX_PIVOTS = 2_000


class LPError(CheckFailure):
    """The solver failed, or returned a status that signals a
    constraint-assembly bug."""


Constraint = namedtuple("Constraint", "coeffs rel rhs")


class LinearProgram(namedtuple("LinearProgram", "objective constraints maximize", defaults=[True])):
    """maximize (or minimize) c.x subject to constraints, x >= 0."""

    __slots__ = ()


# status is "optimal", "unbounded" or "infeasible"; a ray certifies unboundedness
SimplexResult = namedtuple("SimplexResult", "status objective x duals ray", defaults=(None,) * 4)


def make_lp(objective, rows, maximize=True) -> LinearProgram:
    """rows: iterable of (coeffs, rel, rhs).  Every number must be an int;
    anything else, bool included, raises TypeError."""
    cons = tuple(Constraint(tuple(coeffs), rel, rhs) for coeffs, rel, rhs in rows)
    objective = tuple(objective)
    for v in (*objective, *(v for con in cons for v in (*con.coeffs, con.rhs))):
        if type(v) is not int:
            raise TypeError(f"program data must be int, not {type(v).__name__}")
    return LinearProgram(objective=objective, constraints=cons, maximize=maximize)


class _Tableau:
    """The dictionary of the current basis as integer numerators M over one
    common denominator D.

    Variables are numbered structural | slack/surplus | artificial.  The
    basic column of row i is always D e_i, so only the nonbasic columns are
    stored: `nonbasic[k]` is the variable in slot k, M[i][k] / D is the
    tableau entry of row i in that variable's column, and M[i][-1] / D is the
    row's right-hand side.  D > 0 is |det B| for the current basis B of the
    initial integer tableau, and each M[i][k] is, up to the sign of det B, a
    minor of that tableau.  The update in `pivot` therefore divides exactly
    (Sylvester's identity; Bareiss 1968), so entries stay integers and never
    need a gcd.  The reduced-cost row R is one more such row,
    R / D = c - c_B B^-1 A over the nonbasic slots, kept current by every
    pivot.
    """

    def __init__(self, lp: LinearProgram):
        self.nvars = len(lp.objective)
        m = len(lp.constraints)
        for con in lp.constraints:
            if len(con.coeffs) != self.nvars:
                raise ValueError("constraint arity mismatch")
        self.flip = []  # row sign flips applied to reach rhs >= 0
        rows = []
        rels = []
        for con in lp.constraints:
            row = [*con.coeffs, con.rhs]
            rel = con.rel
            if row[-1] < 0:
                row = [-a for a in row]
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
                self.flip.append(-1)
            else:
                self.flip.append(1)
            rows.append(row)
            rels.append(rel)

        self.ncols = self.nvars
        self.seed_col = [None] * m  # +e_i column used for dual readout
        self.artificial = {}  # artificial column -> its row
        surplus = []  # (row, column) of each surplus
        for i, rel in enumerate(rels):
            if rel != EQ:
                if rel == LE:
                    self.seed_col[i] = self.ncols
                else:
                    surplus.append((i, self.ncols))
                self.ncols += 1
        for i, rel in enumerate(rels):
            if rel in (GE, EQ):
                self.artificial[self.ncols] = i
                self.seed_col[i] = self.ncols
                self.ncols += 1

        # the seed columns (slacks and artificials) are the first basis, at
        # D = 1; the structural and surplus columns are nonbasic
        self.basis = list(self.seed_col)
        self.nonbasic = [*range(self.nvars), *(j for _, j in surplus)]
        self.M = [row[:-1] + [0] * len(surplus) + row[-1:] for row in rows]
        for k, (i, _) in enumerate(surplus, start=self.nvars):
            self.M[i][k] = -1
        self.D = 1
        self.R = None  # set by run()
        self.m = m
        self.active = [True] * m

    def pivot(self, row: int, k: int) -> None:
        """Exchange basis[row] with the variable in slot k."""
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
        if p < 0:  # only in the artificial drive-out; keep D > 0
            for Mi in self.M + [self.R]:
                Mi[:] = [-a for a in Mi]
            self.D = -p
        self.basis[row], self.nonbasic[k] = self.nonbasic[k], self.basis[row]

    def run(self, c: list[int], forbid: Container[int]) -> tuple[str, int | None]:
        """Maximize c.x (integer costs by variable) from the current basis;
        Bland's rule; returns ("optimal", None) or ("unbounded", entering
        slot).  Raises LPError rather than take more than MAX_PIVOTS
        pivots."""
        D = self.D
        R = [D * c[j] for j in self.nonbasic] + [0]
        for i in range(self.m):
            cb = c[self.basis[i]]
            if cb and self.active[i]:
                R = [a - cb * b for a, b in zip(R, self.M[i])]
        self.R = R  # pivot() updates it in place
        for pivots in count():
            # the lowest variable, not the lowest slot, with R > 0
            enter = min(
                ((j, k) for k, j in enumerate(self.nonbasic) if R[k] > 0 and j not in forbid),
                default=None,
            )
            if enter is None:
                return "optimal", None
            k = enter[1]
            leave_row = None
            for i in range(self.m):
                t = self.M[i][k]
                if t > 0 and self.active[i]:
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
                return "unbounded", k
            if pivots == MAX_PIVOTS:
                raise LPError(f"no optimum after {MAX_PIVOTS} pivots in one phase")
            self.pivot(leave_row, k)

    def solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.nvars
        for i in range(self.m):
            if self.active[i] and self.basis[i] < self.nvars:
                x[self.basis[i]] = Fraction(self.M[i][-1], self.D)
        return x


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    sign = 1 if lp.maximize else -1
    c_struct = [sign * c for c in lp.objective]
    tab = _Tableau(lp)

    # phase 1: maximize minus the sum of the artificials
    if tab.artificial:
        c1 = [0] * tab.ncols
        for j in tab.artificial:
            c1[j] = -1
        status, _ = tab.run(c1, forbid=())
        assert status == "optimal"  # phase 1 is always bounded
        if tab.R[-1] != 0:  # -D times the phase-1 optimum
            return SimplexResult(status="infeasible")
        # drive artificials out of the basis (all sit at value zero here)
        for i in range(tab.m):
            if tab.basis[i] in tab.artificial:
                pivot = min(
                    (
                        (j, k)
                        for k, j in enumerate(tab.nonbasic)
                        if j not in tab.artificial and tab.M[i][k] != 0
                    ),
                    default=None,
                )
                if pivot is None:
                    tab.active[i] = False  # redundant constraint
                else:
                    tab.pivot(i, pivot[1])

    # phase 2
    c2 = c_struct + [0] * (tab.ncols - tab.nvars)
    status, k = tab.run(c2, forbid=tab.artificial)
    if status == "unbounded":
        enter = tab.nonbasic[k]
        ray = [Fraction(0)] * tab.nvars
        if enter < tab.nvars:
            ray[enter] = Fraction(1)
        for i in range(tab.m):
            if tab.active[i] and tab.basis[i] < tab.nvars:
                ray[tab.basis[i]] = Fraction(-tab.M[i][k], tab.D)
        return SimplexResult(status="unbounded", ray=tuple(ray))

    x = tab.solution()
    value = sum((ci * xi for ci, xi in zip(c_struct, x)), Fraction(0))
    slot = {j: k for k, j in enumerate(tab.nonbasic)}
    duals = []
    for i in range(tab.m):
        if not tab.active[i]:
            duals.append(Fraction(0))
            continue
        # the seed column is +e_i of row i, with cost zero, and R / D holds
        # the reduced costs (zero while the seed column is basic)
        j = tab.seed_col[i]
        reduced = tab.R[slot[j]] if j in slot else 0
        duals.append(sign * tab.flip[i] * Fraction(-reduced, tab.D))
    return SimplexResult(
        status="optimal",
        objective=sign * value,
        x=tuple(x),
        duals=tuple(duals),
    )
