"""Exact two-phase simplex: known optima, statuses, determinism, warm cuts.

Programs are integer.  The hypothesis tests draw rows with rational data,
negative right-hand sides and == relations, and multiply each row, and the
objective, by the LCM of its denominators; their vertices stay fractional.
They check the solver against a definition-level oracle: enumerate every
basic point (all ways to make n constraints tight), keep the feasible
ones, and take the best objective.  Another checks the integer tableau
itself against B^-1 [A | b] recomputed in Fraction, and its pivots against
a plain rational tableau that follows the same rules.
"""

import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrst import simplex
from rrst.errors import MalformedProgram
from rrst.rational import ONE, ZERO, rat
from rrst.simplex import EQ, LE, LinearProgram, SimplexSession, dump_lp


@pytest.fixture(autouse=True, scope="module")
def _low_pivot_limit():
    """Cap each session at 300 pivots in this module.

    Its programs have at most 4 variables and a handful of rows, and the
    largest session takes under 20 pivots.  A cycling simplex then fails
    each example fast, which keeps hypothesis's shrinking of a failure
    short.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_PIVOT_LIMIT", 300)
        yield


def constraint_satisfied(con, values) -> bool:
    lhs = sum((coef * values[var] for var, coef in con.coeffs.items()), ZERO)
    return lhs == con.rhs if con.rel == EQ else lhs <= con.rhs


def integral(values):
    """`values` times the LCM of their denominators, as ints."""
    scale = lcm(*(Fraction(v).denominator for v in values))
    return [int(v * scale) for v in values]


def lp_from(nvars, objective, rows):
    lp = LinearProgram()
    xs = [lp.add_variable(f"x{i}") for i in range(nvars)]
    lp.set_objective({xs[i]: c for i, c in enumerate(objective) if c})
    for coeffs, rel, rhs in rows:
        lp.add_constraint({xs[i]: c for i, c in enumerate(coeffs) if c}, rel, rhs)
    return lp, xs


def test_simple_box_optimum():
    lp, xs = lp_from(2, [-1, -1], [([1, 0], LE, 1), ([0, 2], LE, 1)])
    session = SimplexSession(lp)
    assert session.status == "optimal"
    sol = session.result()
    assert sol.objective_value == rat(-3, 2)
    assert sol.values[xs[0]] == ONE
    assert sol.values[xs[1]] == rat(1, 2)


def test_equality_row():
    lp, _ = lp_from(2, [1, 1], [([1, 1], EQ, 2), ([1, -1], LE, 0)])
    session = SimplexSession(lp)
    assert session.status == "optimal" and session.result().objective_value == rat(2)


def test_infeasible_detected():
    lp, _ = lp_from(1, [1], [([1], LE, -1)])
    assert SimplexSession(lp).status == "infeasible"
    lp2, _ = lp_from(2, [1, 1], [([1, 1], EQ, 4), ([1, 0], LE, 1), ([0, 1], LE, 1)])
    session = SimplexSession(lp2)
    assert session.status == "infeasible"
    with pytest.raises(MalformedProgram):
        session.result()


def test_unbounded_detected():
    lp, _ = lp_from(2, [-1, 0], [([0, 1], LE, 1)])
    assert SimplexSession(lp).status == "unbounded"


def test_beale_cycling_example_terminates():
    # the classic degenerate program that cycles under naive pivoting,
    # objective and rows times 100: its optimum -1/20 becomes -5
    lp, _ = lp_from(
        4,
        [-75, 15000, -2, 600],
        [
            ([25, -6000, -4, 900], LE, 0),
            ([50, -9000, -2, 300], LE, 0),
            ([0, 0, 1, 0], LE, 1),
        ],
    )
    session = SimplexSession(lp)
    assert session.status == "optimal"
    assert session.result().objective_value == rat(-5)


def test_solution_satisfies_all_constraints_exactly():
    lp, _ = lp_from(3, [-2, -3, -1], [([1, 1, 1], LE, 5), ([2, 1, 0], LE, 6), ([0, 1, 3], LE, 7)])
    sol = SimplexSession(lp).result()
    for con in lp.constraints:
        assert constraint_satisfied(con, sol.values)


def test_determinism_byte_for_byte():
    rows = [([3, 1, 2], LE, 10), ([1, 4, 0], LE, 8), ([1, 1, 1], EQ, 4)]
    a = SimplexSession(lp_from(3, [-5, -4, -3], rows)[0]).result()
    b = SimplexSession(lp_from(3, [-5, -4, -3], rows)[0]).result()
    assert a.values == b.values
    assert a.basis == b.basis
    assert a.objective_value == b.objective_value


def test_malformed_programs_rejected():
    lp = LinearProgram()
    lp.add_variable("x")
    with pytest.raises(MalformedProgram):
        lp.add_variable("x")
    with pytest.raises(MalformedProgram):
        lp.set_objective({"y": 1})
    with pytest.raises(MalformedProgram):
        lp.add_constraint({"y": 1}, LE, 1)
    with pytest.raises(MalformedProgram):
        lp.add_constraint({"x": 1}, ">=", 1)


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(1), True, False, 1.0], ids=repr)
@pytest.mark.parametrize("where", ["coefficient", "rhs", "objective"])
def test_non_int_entries_rejected(where, value):
    """A program holds ints only: a Fraction (even a whole one), a bool or
    a float raises MalformedProgram and leaves the program as it was."""
    lp = LinearProgram()
    lp.add_variable("x")
    with pytest.raises(MalformedProgram):
        if where == "coefficient":
            lp.add_constraint({"x": value}, LE, 1)
        elif where == "rhs":
            lp.add_constraint({"x": 1}, LE, value)
        else:
            lp.set_objective({"x": value})
    assert lp.constraints == [] and lp.objective == {}


def test_session_cut_matches_cold_resolve():
    rows = [([1, 0], LE, 2), ([0, 1], LE, 2)]
    session = SimplexSession(lp_from(2, [-1, -1], rows)[0])
    assert session.result().objective_value == rat(-4)
    session.add_cuts([({"x0": 1, "x1": 1}, 3)])
    warm = session.result()

    cold_lp, _ = lp_from(2, [-1, -1], rows + [([1, 1], LE, 3)])
    cold = SimplexSession(cold_lp).result()
    assert warm.objective_value == cold.objective_value == rat(-3)
    for con in cold_lp.constraints:
        assert constraint_satisfied(con, warm.values)


def test_session_add_cuts_batch():
    lp, _ = lp_from(3, [-1, -1, -1], [([1, 0, 0], LE, 2), ([0, 1, 0], LE, 2), ([0, 0, 1], LE, 2)])
    session = SimplexSession(lp)
    session.add_cuts([
        ({"x0": 1, "x1": 1}, 3),
        ({"x1": 1, "x2": 1}, 3),
        ({"x0": 1, "x1": 1, "x2": 1}, 4),
    ])
    sol = session.result()
    assert sol.objective_value == rat(-4)
    for con in session.lp.constraints:
        assert constraint_satisfied(con, sol.values)


def test_add_cuts_rejects_a_batch_whole():
    """A malformed cut anywhere in a batch leaves the session as it was,
    and a valid batch afterwards still reaches the optimum."""
    session = SimplexSession(lp_from(2, [-1, -1], [([1, 0], LE, 2), ([0, 1], LE, 2)])[0])
    with pytest.raises(MalformedProgram):
        session.add_cuts([({"x0": 1, "x1": 1}, 3), ({"x0": 1}, Fraction(1, 2))])
    assert len(session.lp.constraints) == 2
    assert len(session.col_ids) == 4 and session.ncols == 4
    assert len(session.rows) == 2
    session.add_cuts([({"x0": 1, "x1": 1}, 3)])
    assert session.result().objective_value == rat(-3)


def test_dump_lp_mentions_structure():
    lp, _ = lp_from(2, [1, 2], [([1, 1], LE, 3)])
    text = dump_lp(lp)
    assert "x0" in text and "x1" in text and "3" in text


# --- definition-level oracle ------------------------------------------


def _solve_square(rows, rhs):
    """Unique solution of a square rational system, or None."""
    n = len(rhs)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    col = 0
    for r in range(n):
        piv = next((i for i in range(r, n) if a[i][col] != 0), None)
        while piv is None:
            col += 1
            if col >= n:
                return None
            piv = next((i for i in range(r, n) if a[i][col] != 0), None)
        a[r], a[piv] = a[piv], a[r]
        a[r] = [v / a[r][col] for v in a[r]]
        for i in range(n):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        col += 1
        if col > n:
            break
    # back-substitution only valid if we used exactly n pivot columns
    for i in range(n):
        if all(a[i][j] == 0 for j in range(n)):
            return None
    return [a[i][n] for i in range(n)]


def brute_force_lp_min(nvars, objective, rows):
    """Minimum objective over all vertices of {a x (<= or ==) b, x >= 0},
    or None if no vertex is feasible."""
    cons = [([rat(c) for c in coeffs], rel, rat(rhs)) for coeffs, rel, rhs in rows]
    for i in range(nvars):
        unit = [ZERO] * nvars
        unit[i] = -ONE
        cons.append((unit, LE, ZERO))  # -x_i <= 0
    best = None
    for subset in itertools.combinations(range(len(cons)), nvars):
        sol = _solve_square([cons[i][0] for i in subset], [cons[i][2] for i in subset])
        if sol is None:
            continue
        lhs = [sum(c * v for c, v in zip(coeffs, sol)) for coeffs, _, _ in cons]
        if any(v > rhs if rel == LE else v != rhs for v, (_, rel, rhs) in zip(lhs, cons)):
            continue
        val = sum(rat(c) * v for c, v in zip(objective, sol))
        if best is None or val < best:
            best = val
    return best


@st.composite
def bounded_lp(draw):
    nvars = draw(st.integers(2, 3))
    nrows = draw(st.integers(1, 3))
    obj = [draw(st.integers(-5, 5)) for _ in range(nvars)]
    rows = []
    for _ in range(nrows):
        coeffs = [draw(st.integers(0, 4)) for _ in range(nvars)]
        rows.append((coeffs, LE, draw(st.integers(0, 9))))
    for i in range(nvars):  # box keeps it bounded, origin keeps it feasible
        unit = [0] * nvars
        unit[i] = 1
        rows.append((unit, LE, 3))
    return nvars, obj, rows


def _fractions(lo, hi):
    return st.fractions(lo, hi, max_denominator=6)


def _scaled_row(coeffs, rel, rhs):
    *coeffs, rhs = integral([*coeffs, rhs])
    return coeffs, rel, rhs


@st.composite
def scaled_lp(draw):
    """Boxed programs drawn with rational data, == rows and negative rhs,
    each row and the objective scaled to ints; they may be infeasible."""
    nvars = draw(st.integers(2, 3))
    obj = integral([draw(_fractions(-5, 5)) for _ in range(nvars)])
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = [draw(_fractions(-3, 4)) for _ in range(nvars)]
        rows.append(_scaled_row(coeffs, draw(st.sampled_from([LE, EQ])), draw(_fractions(-4, 9))))
    for i in range(nvars):
        unit = [0] * nvars
        unit[i] = 1
        rows.append(_scaled_row(unit, LE, draw(_fractions(1, 4))))
    return nvars, obj, rows


@given(st.one_of(bounded_lp(), scaled_lp()))
@settings(max_examples=250, deadline=None)
def test_simplex_matches_vertex_enumeration(problem):
    nvars, obj, rows = problem
    lp, _ = lp_from(nvars, obj, rows)
    session = SimplexSession(lp)
    expected = brute_force_lp_min(nvars, obj, rows)
    if expected is None:
        assert session.status == "infeasible"
        return
    assert session.status == "optimal"
    sol = session.result()
    assert sol.objective_value == expected
    for con in lp.constraints:
        assert constraint_satisfied(con, sol.values)
    assert all(v >= 0 for v in sol.values.values())


# --- the integer tableau ------------------------------------------------


def _rank(matrix):
    a = [list(r) for r in matrix]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
        rank += 1
    return rank


def assert_tableau_invariant(session):
    """Each basic column is den times a unit vector, and rows / den is
    B^-1 [A | b]: B (rows / den) = [A | b] with B the basic columns of A, of
    full column rank.  A is rebuilt here in Fraction from the program, each
    slack (columns after the variables, in constraint order) with
    coefficient 1.  The cost row is checked the same way against the
    objective."""
    lp, den, rows, basis = session.lp, session.den, session.rows, session.basis
    assert isinstance(den, int) and den > 0
    assert all(type(v) is int for row in rows + [session.cost] for v in row)
    for i, b in enumerate(basis):
        assert [row[b] for row in rows] == [den if k == i else 0 for k in range(len(rows))]
        assert session.cost[b] == 0

    col = {var: j for j, var in enumerate(lp.variables)}
    width = len(lp.variables) + sum(con.rel == LE for con in lp.constraints)
    assert session.ncols == width
    a_b = []
    slack = len(lp.variables)
    for con in lp.constraints:
        row = [Fraction(0)] * width + [Fraction(con.rhs)]
        for var, coef in con.coeffs.items():
            row[col[var]] = Fraction(coef)
        if con.rel == LE:
            row[slack] = Fraction(1)
            slack += 1
        a_b.append(row)
    tableau = [[Fraction(v, den) for v in row] for row in rows]
    for r in a_b:
        assert [sum(r[b] * tableau[i][j] for i, b in enumerate(basis)) for j in range(width + 1)] == r
    assert _rank([[r[b] for b in basis] for r in a_b]) == len(basis)

    c = [Fraction(0)] * (width + 1)
    for var, coef in lp.objective.items():
        c[col[var]] = Fraction(coef)
    reduced = [c[j] - sum(c[b] * tableau[i][j] for i, b in enumerate(basis)) for j in range(width + 1)]
    assert [Fraction(v, den) for v in session.cost] == reduced


@st.composite
def feasible_lp_with_cuts(draw):
    """A boxed program with == rows and negative rhs that a drawn rational
    point x0 satisfies, plus batches of cuts; every row and cut is drawn
    rational and scaled to ints."""
    nvars = draw(st.integers(2, 4))
    x0 = [draw(_fractions(0, 3)) for _ in range(nvars)]
    obj = integral([draw(_fractions(-5, 5)) for _ in range(nvars)])
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = [draw(_fractions(-3, 4)) for _ in range(nvars)]
        lhs = sum(c * x for c, x in zip(coeffs, x0))
        if draw(st.booleans()):
            rows.append(_scaled_row(coeffs, EQ, lhs))
        else:
            rows.append(_scaled_row(coeffs, LE, lhs + draw(_fractions(0, 3))))
    for i in range(nvars):
        unit = [0] * nvars
        unit[i] = 1
        rows.append((unit, LE, 3))
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        batch = []
        for _ in range(draw(st.integers(1, 3))):
            coeffs = [draw(_fractions(-2, 3)) for _ in range(nvars)]
            rhs = sum(c * x for c, x in zip(coeffs, x0)) - draw(_fractions(-1, 2))
            coeffs, _, rhs = _scaled_row(coeffs, LE, rhs)
            batch.append((coeffs, rhs))
        batches.append(batch)
    return nvars, obj, rows, batches


class RationalTableau:
    """The pivot rules of rrst.simplex on a plain Fraction tableau with no
    scaling: the reference the integer tableau must follow pivot for pivot."""

    def __init__(self, lp):
        self.lp = lp
        nvars = len(lp.variables)
        col = {var: j for j, var in enumerate(lp.variables)}
        les = [ci for ci, con in enumerate(lp.constraints) if con.rel == LE]
        slack = {ci: nvars + k for k, ci in enumerate(les)}
        self.ncols = nvars + len(les)
        self.col = col
        self.rows, self.basis, needs = [], [], []
        for ci, con in enumerate(lp.constraints):
            row = [Fraction(0)] * self.ncols + [Fraction(con.rhs)]
            for var, coef in con.coeffs.items():
                row[col[var]] = Fraction(coef)
            s = slack.get(ci)
            if s is not None:
                row[s] = Fraction(1)
            if row[-1] < 0:
                row, s = [-v for v in row], None
            if s is None:
                needs.append(len(self.rows))
            self.rows.append(row)
            self.basis.append(s)
        first_art = self.ncols
        for k, i in enumerate(needs):
            for row in self.rows:
                row.insert(-1, Fraction(1) if row is self.rows[i] else Fraction(0))
            self.basis[i] = first_art + k
        self.ncols += len(needs)
        self.pivots = 0
        obj = [Fraction(0)] * (self.ncols + 1)
        for var, coef in lp.objective.items():
            obj[col[var]] = Fraction(coef)
        self.cost = self._canonical(obj)
        arts = set(range(first_art, self.ncols))
        if arts:
            p1 = self._canonical([Fraction(j in arts) for j in range(self.ncols)] + [Fraction(0)])
            self._primal(p1, [self.cost], arts)
            if p1[-1] != 0:
                self.status = "infeasible"
                return
            for i in range(len(self.rows) - 1, -1, -1):
                if self.basis[i] in arts:
                    enter = next((j for j in range(first_art) if self.rows[i][j]), None)
                    if enter is None:
                        del self.rows[i], self.basis[i]
                    else:
                        self._pivot(i, enter, [self.cost])
            for row in self.rows + [self.cost]:
                del row[first_art:-1]
            self.ncols = first_art
        self.status = self._primal(self.cost, [], set())

    def _canonical(self, row):
        for i, b in enumerate(self.basis):
            f = row[b]
            if f:
                row = [a - f * v for a, v in zip(row, self.rows[i])]
        return row

    def _pivot(self, r, c, cost_rows):
        piv = self.rows[r][c]
        self.rows[r] = [v / piv for v in self.rows[r]]
        for other in [row for k, row in enumerate(self.rows) if k != r] + cost_rows:
            f = other[c]
            other[:] = [a - f * b for a, b in zip(other, self.rows[r])]
        self.basis[r] = c
        self.pivots += 1

    def _primal(self, cost, extra, banned):
        while True:
            enter = next((j for j in range(self.ncols) if j not in banned and cost[j] < 0), None)
            if enter is None:
                return "optimal"
            cands = [(row[-1] / row[enter], self.basis[i], i) for i, row in enumerate(self.rows) if row[enter] > 0]
            if not cands:
                return "unbounded"
            self._pivot(min(cands)[2], enter, [cost] + extra)

    def add_cuts(self, cuts):
        for coeffs, rhs in cuts:
            self.lp.add_constraint(coeffs, LE, rhs)
            row = [Fraction(0)] * self.ncols + [Fraction(rhs)]
            for var, coef in coeffs.items():
                row[self.col[var]] = Fraction(coef)
            row = self._canonical(row)
            for other in self.rows + [self.cost]:
                other.insert(-1, Fraction(0))
            row.insert(-1, Fraction(1))
            self.rows.append(row)
            self.basis.append(self.ncols)
            self.ncols += 1
        while True:
            neg = [(self.basis[i], i) for i, row in enumerate(self.rows) if row[-1] < 0]
            if not neg:
                self.status = "optimal"
                return
            leave = min(neg)[1]
            row = self.rows[leave]
            cands = [(self.cost[j] / -row[j], j) for j in range(self.ncols) if row[j] < 0]
            if not cands:
                self.status = "infeasible"
                return
            self._pivot(leave, min(cands)[1], [self.cost])

    def state(self):
        if self.status != "optimal":
            return self.status, self.pivots, sorted(self.basis), None
        values = {var: Fraction(0) for var in self.lp.variables}
        names = {j: var for var, j in self.col.items()}
        for i, b in enumerate(self.basis):
            if b in names:
                values[names[b]] = self.rows[i][-1]
        return self.status, self.pivots, sorted(self.basis), values


def _session_state(session):
    values = session.result().values if session.status == "optimal" else None
    return session.status, session._pivots, sorted(session.basis), values


@given(feasible_lp_with_cuts())
@settings(max_examples=120, deadline=None)
def test_integer_tableau_matches_rational_tableau(problem):
    """After the cold solve and after every batch of cuts, the integer
    tableau is B^-1 [A | b] over den, and it took the same pivots to the
    same basis and vertex as the rational reference.  A cold solve of the
    grown program reaches the same status and optimum."""
    nvars, obj, rows, batches = problem
    lp, xs = lp_from(nvars, obj, rows)
    session = SimplexSession(lp)
    reference = RationalTableau(lp_from(nvars, obj, rows)[0])
    assert session.status == "optimal"
    assert_tableau_invariant(session)
    assert _session_state(session) == reference.state()
    added = []
    for batch in batches:
        cuts = [({xs[i]: c for i, c in enumerate(coeffs) if c}, rhs) for coeffs, rhs in batch]
        session.add_cuts(cuts)
        reference.add_cuts(cuts)
        assert_tableau_invariant(session)
        assert _session_state(session) == reference.state()
        added += [(coeffs, LE, rhs) for coeffs, rhs in batch]
        if session.status != "optimal":
            break
    cold = SimplexSession(lp_from(nvars, obj, rows + added)[0])
    assert cold.status == session.status
    if cold.status == "optimal":
        assert cold.result().objective_value == session.result().objective_value
