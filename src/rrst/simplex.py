"""Exact simplex on a fraction-free integer tableau.

Minimizes an integer objective over the columns x >= 0 of a block program
(one == row of ones per block of columns) and the <= cuts added to it,
with every pivot and solution value exact, so "optimal" means optimal,
not optimal-up-to-epsilon.  The program arrives as the relaxation builds
it: each block's int costs and its int rhs, then each cut as the
ascending structural columns of a row of ones and its int rhs.  Only the
solver builds programs, from an instance that is already checked, so the
session takes them as given: no block is empty, every entry is an int
and every block rhs is non-negative.  The tableau holds Python ints over
one common denominator and pivots by exact integer division, with no gcd
(see SimplexSession), and a vertex comes back the same way: int
numerators over that denominator, with no Fraction built.

SimplexSession starts at the closed-form optimum of the block program
and keeps the optimal tableau alive, so cutting planes can be added and
reoptimized with the dual simplex instead of solving from scratch.  A
session holds an optimal tableau, or it has raised InfeasibleModel and is
spent.  Its pivot rule breaks every tie by lowest index (leaving row by
basic column, entering column by index), which makes every run
deterministic: identical programs yield byte-identical solutions.  Its
pivots are the solver's one size bound: past _PIVOT_LIMIT a session
raises TooLarge.
"""

from __future__ import annotations

from collections import namedtuple
from operator import sub

from .errors import InfeasibleModel, TooLarge

_PIVOT_LIMIT = 2_000_000


class VertexSolution(namedtuple("VertexSolution", "values den objective")):
    """A basic optimal solution over one positive denominator: column j's
    value is ``values[j] / den`` and the objective value is
    ``objective / den``, all ints."""

    __slots__ = ()
    values: list
    den: int
    objective: int


class SimplexSession:
    """Tableau that stays warm across cutting-plane rounds.

    The session takes a block program as a list of ``(costs, rhs)``, one
    per block: the block's columns follow the previous block's, one per
    cost, under the row 1ᵀx_block == rhs.  Such a program's optimum is
    known in closed form (Dantzig & Van Slyke 1967): each row puts its rhs
    on the cheapest column of its block, the lowest index winning a tie,
    which is where a two-phase solve under Bland's rule ends too.  The
    session starts there, with no pivot; afterwards only <= cuts arrive,
    and the dual simplex repairs them.  A batch of cuts no point
    satisfies raises InfeasibleModel.

    Column layout: the structural columns of the blocks, then one slack
    column per cut in order of addition, so column indices never move and
    the lowest-index tie-breaks keep meaning the same thing for the
    session's whole life.

    The tableau is fraction-free.  ``rows`` (one per basic variable, rhs in
    the last slot) and the reduced-cost row ``cost`` hold Python ints, and
    every entry stands for itself divided by ``den``, one positive common
    denominator: the absolute determinant of the current basis.  Each basic
    column is ``den`` times a unit vector.  A pivot divides exactly
    (Edmonds 1967, Bareiss 1968), sign tests read the ints directly and
    ratio tests cross-multiply, so the pivots are those of the rational
    tableau.  The starting basis is a unit matrix, so ``den`` starts at 1
    and each row is its constraint.

    A cut joins in canonical form: ``den`` times its row, minus each basic
    row whose basic column the cut holds, with its own slack basic at
    ``den``.  Every coefficient of a cut is 1, so the basic rows it
    touches are summed in one pass over the columns and the sum is
    subtracted once.
    """

    def __init__(self, blocks):
        self._pivots = 0
        self.nvars = self.ncols = width = sum(len(costs) for costs, _ in blocks)
        self.den = 1
        self.rows = []
        self.basis = []
        self.cost = []
        objective = 0
        for costs, rhs in blocks:
            start = len(self.cost)
            row = [0] * (width + 1)
            row[start:start + len(costs)] = [1] * len(costs)
            row[-1] = rhs
            self.rows.append(row)
            # the cheapest column of the block, the lowest index winning a tie
            cheapest = min(costs)
            self.basis.append(start + costs.index(cheapest))
            self.cost.extend(c - cheapest for c in costs)
            objective += rhs * cheapest
        self.cost.append(-objective)

    # --- core pivoting ------------------------------------------------

    def _pivot(self, r, c):
        rows = self.rows
        row = rows[r]
        p = row[c]
        if p < 0:
            p = -p
            rows[r] = row = [-v for v in row]
        d = self.den
        others = [other for other in rows if other is not row]
        others.append(self.cost)
        if p == d:
            # (p*a - f*b) / d = a - f*b/d: rows with f == 0 do not move, and
            # the others change only at the pivot row's nonzeros.  Between
            # 69% and 91% of the pivots on the benchmark workloads.
            nonzero = [(j, b) for j, b in enumerate(row) if b]
            for other in others:
                f = other[c]
                if f:
                    for j, b in nonzero:
                        other[j] -= f * b // d
        else:
            # exact by Sylvester's identity: every entry is a minor of the
            # starting integer tableau
            for other in others:
                f = other[c]
                if f:
                    other[:] = [(p * a - f * b) // d for a, b in zip(other, row)]
                else:
                    other[:] = [p * a // d for a in other]
        self.den = p
        self.basis[r] = c
        self._pivots += 1
        if self._pivots > _PIVOT_LIMIT:
            raise TooLarge(f"simplex pivots exceeded {_PIVOT_LIMIT}")

    def _canonical(self, columns, rhs):
        """``den`` times the row x(columns) <= rhs over the current columns,
        with every basic column eliminated: minus the column sums of the
        basic rows whose basic column is one of ``columns``."""
        den = self.den
        row = [0] * self.ncols + [den * rhs]
        for j in columns:
            row[j] = den
        terms = [other for b, other in zip(self.basis, self.rows) if row[b]]
        if not terms:
            return row
        return list(map(sub, row, map(sum, zip(*terms))))

    # --- warm cut addition ---------------------------------------------

    def add_cuts(self, cuts):
        """Append the <= cuts ``(columns, rhs)``, each the ascending
        structural columns of a row of ones and an int rhs, then reoptimize
        once with the dual simplex.

        The tableau stays primally optimal (reduced costs nonnegative), so
        only feasibility needs repair; Bland-style tie-breaking keeps the
        walk finite and deterministic.  InfeasibleModel when no point
        satisfies the grown program.
        """
        # a cut has no entry in the slack column of an earlier cut of the
        # batch, so the rows before the batch are all it is canonicalized
        # against
        width = self.ncols
        new_rows = [self._canonical(columns, rhs) for columns, rhs in cuts]

        zeros = [0] * len(new_rows)
        for row in self.rows:
            row[-1:-1] = zeros
        self.cost[-1:-1] = zeros
        for k, row in enumerate(new_rows):
            row[-1:-1] = zeros
            row[width + k] = self.den
            self.rows.append(row)
            self.basis.append(width + k)
        self.ncols = width + len(new_rows)

        self._dual_loop()

    def _dual_loop(self):
        """Repair primal feasibility while keeping reduced costs >= 0.

        Leaving row: smallest basic column index among negative rows;
        entering: dual ratio test with lowest-index tie-break.
        """
        rows = self.rows
        cost = self.cost
        while True:
            leave = -1
            for i, row in enumerate(rows):
                if row[-1] < 0 and (leave < 0 or self.basis[i] < self.basis[leave]):
                    leave = i
            if leave < 0:
                return
            row = rows[leave]
            # minimum cost / -a over a < 0, compared as
            # cost * best_na < best_cost * na with na = -a
            enter = -1
            for j in range(self.ncols):
                a = row[j]
                if a < 0 and (enter < 0 or cost[j] * best_na < best_cost * -a):
                    enter, best_cost, best_na = j, cost[j], -a
            if enter < 0:
                # the row's rhs is negative and no column can raise it
                raise InfeasibleModel("the cuts leave no feasible point")
            self._pivot(leave, enter)

    # --- extraction -----------------------------------------------------

    def result(self) -> VertexSolution:
        """The optimal vertex of the current tableau."""
        n = self.nvars
        values = [0] * n
        for row, b in zip(self.rows, self.basis):
            if b < n:
                values[b] = row[-1]
        # the cost row's rhs is -den times the objective value
        return VertexSolution(values, self.den, -self.cost[-1])
