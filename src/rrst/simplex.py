"""Exact rational simplex.

Minimizes a linear objective over {x : Ax <= / == b, bounds} with every
coefficient, pivot and solution value an exact rational, so "optimal" means
optimal, not optimal-up-to-epsilon.  The pivot rule is Bland's (lowest
index enters; ratio ties leave by lowest basic index), which cannot cycle
and makes every run deterministic: identical programs yield byte-identical
solutions.

Two entry points:

* solve(lp)                       - cold two-phase solve.
* SimplexSession                  - keeps the optimal tableau alive so
                                    cutting planes can be added and
                                    reoptimized with the dual simplex
                                    instead of solving from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, IterationLimit, MalformedProgram
from .rational import ONE, ZERO, Rat, rat

LE = "<="
EQ = "=="

_PIVOT_LIMIT = 2_000_000


@dataclass(frozen=True)
class Constraint:
    coeffs: dict
    rel: str
    rhs: Rat


class LinearProgram:
    """Minimization program over declared nonnegative variables.

    Variables are identified by arbitrary hashable ids; declaration order
    fixes the column order the pivot rule sees, so it is part of the
    program's identity.
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

    def set_objective(self, coeffs):
        for var in coeffs:
            if var not in self.declared:
                raise MalformedProgram(f"objective references undeclared variable {var!r}")
        self.objective = dict(coeffs)

    def add_constraint(self, coeffs, rel: str, rhs):
        if rel not in (LE, EQ):
            raise MalformedProgram(f"relation must be {LE!r} or {EQ!r}, got {rel!r}")
        for var in coeffs:
            if var not in self.declared:
                raise MalformedProgram(f"constraint references undeclared variable {var!r}")
        self.constraints.append(Constraint(dict(coeffs), rel, rat(rhs)))

    def copy(self) -> "LinearProgram":
        lp = LinearProgram()
        lp.variables = list(self.variables)
        lp.declared = set(self.declared)
        lp.objective = dict(self.objective)
        lp.constraints = list(self.constraints)
        return lp


@dataclass(frozen=True)
class VertexSolution:
    """A basic optimal solution: values, the basis that certifies it is a
    vertex, and the exact objective value."""

    values: dict
    basis: tuple
    objective_value: Rat

    def value(self, var):
        return self.values[var]


@dataclass(frozen=True)
class SolveResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    solution: VertexSolution | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


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

    def _structural_row(self, coeffs):
        row = [ZERO] * len(self.col_ids)
        for var, coef in coeffs.items():
            if var not in self.var_col:
                raise MalformedProgram(f"constraint references undeclared variable {var!r}")
            row[self.var_col[var]] = rat(coef)
        return row

    def _build_rows(self, lp):
        # slack columns are assigned up front so rows are built at full width
        self.slack_of_constraint: dict[int, int] = {}
        for ci, con in enumerate(lp.constraints):
            if con.rel == LE:
                self.slack_of_constraint[ci] = len(self.col_ids)
                self.col_ids.append(("slack", ci))
        width = len(self.col_ids)

        self.rows: list[list] = []  # each row: coefficients, rhs in the last slot
        self.basis: list[int] = []
        basis_slack = []
        for ci, con in enumerate(lp.constraints):
            row = self._structural_row(con.coeffs)
            row.extend([ZERO] * (width - len(row)))
            slack = self.slack_of_constraint.get(ci)
            if slack is not None:
                row[slack] = ONE
            rhs = rat(con.rhs)
            if rhs < 0:
                # flip so phase 1 starts from b >= 0; a flipped slack
                # carries coefficient -1 and cannot start in the basis
                row = [-v for v in row]
                rhs = -rhs
                slack = None
            row.append(rhs)
            self.rows.append(row)
            self.basis.append(-1)
            basis_slack.append(slack)

        # initial basis: slack where possible, artificial otherwise
        self.artificial_cols: list[int] = []
        for i, slack in enumerate(basis_slack):
            if slack is not None:
                self.basis[i] = slack
            else:
                art = len(self.col_ids)
                self.col_ids.append(("artificial", i))
                self.artificial_cols.append(art)
                self.basis[i] = art
        if self.artificial_cols:
            n_art = len(self.artificial_cols)
            art_base = len(self.col_ids) - n_art
            for i, row in enumerate(self.rows):
                rhs = row.pop()
                row.extend([ZERO] * n_art)
                if self.basis[i] >= art_base:
                    row[self.basis[i]] = ONE
                row.append(rhs)

        self.ncols = len(self.col_ids)

    # --- core pivoting ------------------------------------------------

    def _pivot(self, r, c, cost_rows):
        rows = self.rows
        row = rows[r]
        piv = row[c]
        if piv != ONE:
            inv = ONE / piv
            rows[r] = row = [v * inv for v in row]
        for other in rows:
            if other is row:
                continue
            f = other[c]
            if f:
                other[:] = [a - f * b if b else a for a, b in zip(other, row)]
        for cr in cost_rows:
            f = cr[c]
            if f:
                cr[:] = [a - f * b if b else a for a, b in zip(cr, row)]
        self.basis[r] = c
        self._pivots += 1
        if self._pivots > _PIVOT_LIMIT:
            raise IterationLimit(f"simplex pivots exceeded {_PIVOT_LIMIT}")

    def _primal_loop(self, cost, extra_cost_rows, banned):
        """Bland's rule: lowest eligible column with negative reduced cost
        enters; ratio ties resolved by lowest basic column index."""
        rows = self.rows
        while True:
            enter = -1
            for j in range(self.ncols):
                if j not in banned and cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best = None
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter, [cost] + extra_cost_rows)

    def _canonical_cost_row(self, coef_by_col):
        cost = list(coef_by_col) + [ZERO]
        for i, b in enumerate(self.basis):
            f = cost[b]
            if f:
                row = self.rows[i]
                cost[:] = [a - f * v if v else a for a, v in zip(cost, row)]
        return cost

    def _solve_two_phase(self):
        self._pivots = 0
        lp = self.lp

        # phase-2 cost row is carried through phase 1 so it stays canonical
        obj = [ZERO] * self.ncols
        for var, coef in lp.objective.items():
            obj[self.var_col[var]] = rat(coef)
        self.cost = self._canonical_cost_row(obj)

        banned = set(self.artificial_cols)
        if self.artificial_cols:
            p1 = [ZERO] * self.ncols
            for c in self.artificial_cols:
                p1[c] = ONE
            p1_row = self._canonical_cost_row(p1)
            status = self._primal_loop(p1_row, [self.cost], banned)
            if status != OPTIMAL:
                raise InternalError("phase 1 cannot be unbounded")  # pragma: no cover
            if -p1_row[-1] != 0:
                self.status = INFEASIBLE
                return
            self._evict_artificials()

        status = self._primal_loop(self.cost, [], set(self.artificial_cols))
        self.status = status if status != OPTIMAL else OPTIMAL

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

    def add_cut(self, coeffs, rhs):
        """Append one <= constraint and reoptimize with the dual simplex."""
        return self.add_cuts([(coeffs, rhs)])

    def add_cuts(self, cuts):
        """Append <= constraints, then reoptimize once with the dual simplex.

        The tableau stays primally optimal (reduced costs nonnegative), so
        only feasibility needs repair; Bland-style tie-breaking keeps the
        walk finite and deterministic.
        """
        if self.status != OPTIMAL:
            raise MalformedProgram("cuts can only be added to an optimal tableau")
        for coeffs, rhs in cuts:
            ci = len(self.lp.constraints)
            self.lp.add_constraint(coeffs, LE, rhs)

            new_row = self._structural_row(coeffs)
            new_row += [ZERO] * (self.ncols - len(new_row))
            new_row.append(rat(rhs))
            # canonicalize against current basic columns
            for i, b in enumerate(self.basis):
                f = new_row[b]
                if f:
                    row = self.rows[i]
                    new_row[:] = [a - f * v if v else a for a, v in zip(new_row, row)]

            slack_col = self.ncols
            self.col_ids.append(("slack", ci))
            self.slack_of_constraint[ci] = slack_col
            self.ncols += 1
            for row in self.rows:
                row.insert(-1, ZERO)
            self.cost.insert(-1, ZERO)
            new_row.insert(-1, ONE)
            self.rows.append(new_row)
            self.basis.append(slack_col)

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
            enter = -1
            best = None
            for j in range(self.ncols):
                a = row[j]
                if a < 0:
                    ratio = cost[j] / (-a)
                    if best is None or ratio < best:
                        best = ratio
                        enter = j
            if enter < 0:
                self.status = INFEASIBLE
                return
            self._pivot(leave, enter, [cost])

    # --- extraction -----------------------------------------------------

    def result(self) -> SolveResult:
        if self.status != OPTIMAL:
            return SolveResult(self.status)
        col_value = {}
        for i, b in enumerate(self.basis):
            col_value[b] = self.rows[i][-1]
        values = {var: col_value.get(col, ZERO) for var, col in self.var_col.items()}
        objective = ZERO
        for var, coef in self.lp.objective.items():
            objective += rat(coef) * values[var]
        basis = tuple(self.col_ids[b] for b in sorted(self.basis))
        return SolveResult(OPTIMAL, VertexSolution(values, basis, objective))


def solve(lp: LinearProgram) -> SolveResult:
    """Cold deterministic solve; the input program is not mutated."""
    return SimplexSession(lp.copy()).result()


def _fmt_var(var) -> str:
    if isinstance(var, tuple):
        return "".join(str(p) for p in var)
    return str(var)


def _fmt_terms(coeffs, order):
    parts = []
    for var in order:
        if var in coeffs:
            coef = rat(coeffs[var])
            if coef == 0:
                continue
            parts.append(f"{coef} {_fmt_var(var)}")
    return " + ".join(parts) if parts else "0"


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text rendering: one constraint per line, rationals as p/q."""
    lines = [f"min {_fmt_terms(lp.objective, lp.variables)}", "s.t."]
    for i, con in enumerate(lp.constraints):
        lines.append(f"r{i}: {_fmt_terms(con.coeffs, lp.variables)} {con.rel} {con.rhs}")
    for var in lp.variables:
        lines.append(f"{_fmt_var(var)} >= 0")
    return "\n".join(lines) + "\n"
