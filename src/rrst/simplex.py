"""Exact simplex on a fraction-free integer tableau.

Minimizes an integer objective over {x >= 0 : Ax <= / == b} with integer A
and b, with every pivot and solution value exact, so "optimal" means
optimal, not optimal-up-to-epsilon.  Every row of the relaxations this
package builds is a 0/+-1 combination with an integer right-hand side and
every cost is an int, so programs are integer by construction and
LinearProgram rejects anything else.  The tableau holds Python ints over
one common denominator and pivots by exact integer division, with no gcd
(see SimplexSession); vertices come back as rationals (``Rat``).  The
pivot rule is Bland's (lowest index enters; ratio ties leave by lowest
basic index), which cannot cycle and makes every run deterministic:
identical programs yield byte-identical solutions.

SimplexSession solves cold with two phases and keeps the optimal tableau
alive, so cutting planes can be added and reoptimized with the dual
simplex instead of solving from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, IterationLimit, MalformedProgram
from .rational import ZERO, Rat, rat

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
    """A basic optimal solution: values, the basis that certifies it is a
    vertex, and the exact objective value."""

    values: dict
    basis: tuple
    objective_value: Rat


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SimplexSession:
    """Tableau that stays warm across cutting-plane rounds.

    Column layout: structural columns (one per variable, in declaration
    order), then one slack column per inequality row in order of addition.
    Artificial columns used by phase 1 are appended last and removed once
    feasibility is established, so column indices of real variables never
    move and Bland's lowest-index rule keeps meaning the same thing for
    the session's whole life.

    The tableau is fraction-free.  ``rows`` (one per basic variable, rhs in
    the last slot) and the reduced-cost row ``cost`` hold Python ints, and
    every entry stands for itself divided by ``den``, one positive common
    denominator: the absolute determinant of the current basis.  Each basic
    column is ``den`` times a unit vector.  A pivot divides exactly
    (Edmonds 1967, Bareiss 1968), sign tests read the ints directly and
    ratio tests cross-multiply, so the pivots are those of the rational
    tableau.  The program is integer, so each constraint enters as it is
    with its slack or artificial at coefficient 1, and every artificial
    weighs 1 in phase 1.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.status = None
        self._build_columns(lp)
        self._build_rows(lp)
        self._solve_two_phase()

    # --- construction -------------------------------------------------

    def _build_columns(self, lp):
        self.col_ids: list = list(lp.variables)  # per-column identifier
        self.var_col: dict = {var: col for col, var in enumerate(self.col_ids)}

    def _integer_row(self, coeffs, rhs, width):
        """The constraint as ints over `width` columns plus the rhs."""
        row = [0] * width + [rhs]
        for var, v in coeffs.items():
            row[self.var_col[var]] = v
        return row

    def _build_rows(self, lp):
        """Build the integer rows and the starting basis."""
        # slack columns are assigned up front so rows are built at full width
        self.slack_of_constraint: dict[int, int] = {}
        for ci, con in enumerate(lp.constraints):
            if con.rel == LE:
                self.slack_of_constraint[ci] = len(self.col_ids)
                self.col_ids.append(("slack", ci))
        width = len(self.col_ids)

        self.den = 1
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        needs_artificial = []  # row indices
        for ci, con in enumerate(lp.constraints):
            row = self._integer_row(con.coeffs, con.rhs, width)
            slack = self.slack_of_constraint.get(ci)
            if slack is not None:
                row[slack] = 1
            if row[-1] < 0:
                # flip so phase 1 starts from b >= 0; a flipped slack
                # carries coefficient -1 and cannot start in the basis
                row = [-v for v in row]
                slack = None
            if slack is None:
                needs_artificial.append(len(self.rows))
            self.rows.append(row)
            self.basis.append(slack)

        # initial basis: slack where possible, artificial otherwise
        self.artificial_cols: list[int] = []
        if needs_artificial:
            zeros = [0] * len(needs_artificial)
            for row in self.rows:
                row[-1:-1] = zeros
            for i in needs_artificial:
                art = len(self.col_ids)
                self.col_ids.append(("artificial", i))
                self.artificial_cols.append(art)
                self.rows[i][art] = 1
                self.basis[i] = art
        self.ncols = len(self.col_ids)

    # --- core pivoting ------------------------------------------------

    def _pivot(self, r, c, cost_rows):
        rows = self.rows
        row = rows[r]
        p = row[c]
        if p < 0:
            p = -p
            rows[r] = row = [-v for v in row]
        d = self.den
        others = [other for other in rows if other is not row]
        others += cost_rows
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

    def _primal_loop(self, cost, extra_cost_rows, banned):
        """Bland's rule: lowest eligible column with negative reduced cost
        enters; ratio ties resolved by lowest basic column index."""
        rows = self.rows
        basis = self.basis
        while True:
            enter = -1
            for j in range(self.ncols):
                if cost[j] < 0 and j not in banned:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            # minimum rhs / a over a > 0, compared as rhs * best_a < best_rhs * a
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave, best_rhs, best_a = i, row[-1], a
                        continue
                    lhs = row[-1] * best_a
                    rhs = best_rhs * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, best_rhs, best_a = i, row[-1], a
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter, [cost] + extra_cost_rows)

    def _canonical(self, row):
        """``den * row`` with every basic column eliminated, for a row over
        the current columns written with denominator 1."""
        den = self.den
        out = [den * v for v in row] if den != 1 else list(row)
        for i, b in enumerate(self.basis):
            f = row[b]
            if f:
                out[:] = [a - f * v for a, v in zip(out, self.rows[i])]
        return out

    def _solve_two_phase(self):
        self._pivots = 0

        # phase-2 cost row is carried through phase 1 so it stays canonical
        obj = [0] * (self.ncols + 1)
        for var, v in self.lp.objective.items():
            obj[self.var_col[var]] = v
        self.cost = self._canonical(obj)

        banned = set(self.artificial_cols)
        if self.artificial_cols:
            p1 = [0] * (self.ncols + 1)
            for col in self.artificial_cols:
                p1[col] = 1
            p1_row = self._canonical(p1)
            status = self._primal_loop(p1_row, [self.cost], banned)
            if status != OPTIMAL:
                raise InternalError("phase 1 cannot be unbounded")  # pragma: no cover
            if p1_row[-1] != 0:
                self.status = INFEASIBLE
                return
            self._evict_artificials()

        self.status = self._primal_loop(self.cost, [], set(self.artificial_cols))

    def _evict_artificials(self):
        """Pivot basic artificials out (their value is zero) or drop the row
        as redundant; then physically remove the artificial columns, which
        sit at the tail of the column list."""
        art = set(self.artificial_cols)
        for i in range(len(self.rows) - 1, -1, -1):
            if self.basis[i] not in art:
                continue
            row = self.rows[i]
            enter = -1
            for j in range(self.ncols):
                if j not in art and row[j]:
                    enter = j
                    break
            if enter >= 0:
                self._pivot(i, enter, [self.cost])
            else:
                del self.rows[i]
                del self.basis[i]
        first_art = min(art)
        for row in self.rows:
            del row[first_art:-1]
        del self.cost[first_art:-1]
        del self.col_ids[first_art:]
        self.artificial_cols = []
        self.ncols = len(self.col_ids)

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
            self.slack_of_constraint[ci] = len(self.col_ids)
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
            self._pivot(leave, enter, [cost])

    # --- extraction -----------------------------------------------------

    def result(self) -> VertexSolution:
        """The optimal vertex; the tableau must be optimal."""
        if self.status != OPTIMAL:
            raise MalformedProgram(f"no optimal vertex to read: the program is {self.status}")
        den = self.den
        n_structural = len(self.var_col)
        values = dict.fromkeys(self.var_col, ZERO)
        for i, b in enumerate(self.basis):
            value = self.rows[i][-1]
            if b < n_structural and value:
                values[self.col_ids[b]] = rat(value, den)
        # the cost row's rhs is -den times the objective value
        objective = rat(-self.cost[-1], den)
        basis = tuple(self.col_ids[b] for b in sorted(self.basis))
        return VertexSolution(values, basis, objective)


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
