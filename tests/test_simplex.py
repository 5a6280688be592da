"""Exact simplex on block programs: the closed-form start, infeasibility,
determinism, warm cuts.

A session takes a block program as columns: a list of (costs, rhs), one
== row with all coefficients 1 per block of consecutive columns.  It
starts at that program's closed-form optimum and then takes integer <=
cuts over the structural columns through add_cuts, which the dual
simplex repairs.  The hypothesis tests draw block programs, costs with
ties and negatives, and batches of random integer cuts.  They check the
solver against a definition-level oracle: enumerate every basic point
(all ways to make n constraints tight), keep the feasible ones, and take
the best objective.  They also check the integer tableau against
B^-1 [A | b] recomputed in Fraction, and check it against a plain
rational tableau that solves cold with two Bland phases and then follows
the same dual rules: the two must start at the same tableau and take the
same pivots after it.  The oracles read a program as dense rows
(coefficients, relation, rhs).
"""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrst import simplex
from rrst.errors import InfeasibleModel, InternalError
from rrst.rational import rat
from rrst.simplex import SimplexSession

from conftest import vertex_objective, vertex_values

ZERO, ONE = rat(0), rat(1)

EQ, LE = "==", "<="


@pytest.fixture(autouse=True, scope="module")
def _low_pivot_limit():
    """Cap each session at 300 pivots in this module.

    Its programs have at most 12 variables and 9 cuts, and the largest
    session takes under 30 pivots.  A cycling simplex then fails each
    example fast, which keeps hypothesis's shrinking of a failure short.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_PIVOT_LIMIT", 300)
        yield


def satisfied(row, values) -> bool:
    coeffs, rel, rhs = row
    lhs = sum((c * v for c, v in zip(coeffs, values)), ZERO)
    return lhs == rhs if rel == EQ else lhs <= rhs


def blocks_of(costs, sizes, rhs):
    """The session's input: blocks of `sizes` consecutive columns."""
    blocks, start = [], 0
    for size, b in zip(sizes, rhs):
        blocks.append((costs[start:start + size], b))
        start += size
    return blocks


def block_rows(sizes, rhs):
    """The blocks' == rows of ones, dense over all columns."""
    nvars = sum(sizes)
    rows, start = [], 0
    for size, b in zip(sizes, rhs):
        rows.append(([int(start <= j < start + size) for j in range(nvars)], EQ, b))
        start += size
    return rows


def cut(coeffs):
    """Dense coefficients as the {column: coefficient} of a cut."""
    return {j: c for j, c in enumerate(coeffs) if c}


def cut_rows(batch):
    """A batch of dense (coefficients, rhs) cuts as dense <= rows."""
    return [(coeffs, LE, rhs) for coeffs, rhs in batch]


# --- the closed-form start ----------------------------------------------


def test_equality_row():
    """Each block row puts its rhs on its cheapest column, with no pivot."""
    session = SimplexSession(blocks_of([4, 2, 7, 1, 3], [3, 2], [2, 1]))
    assert session._pivots == 0 and session.den == 1
    sol = session.result()
    assert vertex_objective(sol) == rat(5)
    assert vertex_values(sol) == [rat(v) for v in [0, 2, 0, 1, 0]]
    assert session.basis == [1, 3]  # x1 and x3


def test_start_is_the_lowest_index_cheapest_column():
    session = SimplexSession([([5, 3, 3, 1, 1], 2)])
    assert session.basis == [3]
    assert session.rows == [[1, 1, 1, 1, 1, 2]]
    assert session.cost == [4, 2, 2, 0, 0, -2]
    assert vertex_values(session.result())[3] == rat(2)


def test_negative_block_rhs_is_infeasible():
    with pytest.raises(InfeasibleModel, match="block 1"):
        SimplexSession([([1], 1), ([2, 3], -1)])


NON_BLOCK_PROGRAMS = {
    "empty row": [([1], 1), ([], 0)],
    "empty first row": [([], 0), ([1], 1)],
}


@pytest.mark.parametrize("blocks", NON_BLOCK_PROGRAMS.values(), ids=NON_BLOCK_PROGRAMS.keys())
def test_non_block_program_rejected(blocks):
    with pytest.raises(InternalError, match=r"block \d has no column"):
        SimplexSession(blocks)


# --- known optima after cuts --------------------------------------------


def test_simple_box_optimum():
    session = SimplexSession([([-1, 0, 2], 3)])
    assert vertex_objective(session.result()) == rat(-3)
    session.add_cuts([(cut([2, 0, 0]), 1), (cut([0, 2, 0]), 3)])
    sol = session.result()
    assert vertex_objective(sol) == rat(3, 2)
    assert vertex_values(sol) == [rat(1, 2), rat(3, 2), ONE]


def test_infeasible_detected():
    """Cuts that no point of the block row satisfies raise InfeasibleModel."""
    session = SimplexSession([([1, 1], 4)])
    with pytest.raises(InfeasibleModel):
        session.add_cuts([(cut([1, 0]), 1), (cut([0, 1]), 1)])


def test_solution_satisfies_all_constraints_exactly():
    session = SimplexSession([([-2, -3, -1, 0], 5)])
    batch = [([2, 1, 0, 0], 6), ([0, 1, 3, 0], 7)]
    session.add_cuts([(cut(coeffs), rhs) for coeffs, rhs in batch])
    values = vertex_values(session.result())
    for row in block_rows([4], [5]) + cut_rows(batch):
        assert satisfied(row, values)


def test_determinism_byte_for_byte():
    def solve():
        session = SimplexSession(blocks_of([-5, -3, -4, 1], [2, 2], [3, 2]))
        session.add_cuts([(cut([3, 2, 1, 0]), 10), (cut([1, 0, 4, -1]), 8)])
        return session.result()

    a, b = solve(), solve()
    # the same numerators over the same denominator
    assert a == b


def test_malformed_programs_rejected():
    """A cut names structural columns only: one past them (where a slack
    column lies once a cut is in), a negative one or a column that is not
    an index raises InternalError and leaves the session as it was."""
    session = SimplexSession([([1, 2], 3)])
    session.add_cuts([(cut([1, 0]), 2)])
    assert session.ncols == 3
    for col in (2, 3, -1, "x0"):
        with pytest.raises(InternalError, match=f"cut column {col!r} is not one of the 2 structural columns"):
            session.add_cuts([({col: 1}, 1)])
        assert session.ncols == 3 and len(session.rows) == 2


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(1), True, False, 1.0], ids=repr)
@pytest.mark.parametrize("where", ["coefficient", "rhs", "objective", "block-rhs"])
def test_non_int_entries_rejected(where, value):
    """A program holds ints only: a Fraction (even a whole one), a bool or
    a float as a block cost, a block rhs, a cut coefficient or a cut rhs
    raises InternalError and leaves the session as it was."""
    message = f"must be an int, got {re.escape(repr(value))}$"
    if where == "objective":
        with pytest.raises(InternalError, match=message):
            SimplexSession([([1, value], 1)])
        return
    if where == "block-rhs":
        with pytest.raises(InternalError, match=message):
            SimplexSession([([1, 1], value)])
        return
    session = SimplexSession([([1, 1], 1)])
    bad = ({0: value}, 1) if where == "coefficient" else ({0: 1}, value)
    with pytest.raises(InternalError, match=message):
        session.add_cuts([({0: 1}, 1), bad])
    assert session.ncols == 2 and len(session.rows) == 1


def test_session_cut_matches_cold_resolve():
    """A cut repaired warm reaches the optimum a cold two-phase solve of
    the grown program finds."""
    session = SimplexSession([([-1, -1, 0], 4)])
    assert vertex_objective(session.result()) == rat(-4)
    session.add_cuts([({0: 1, 1: 1}, 3)])
    warm = session.result()

    grown = block_rows([3], [4]) + [([1, 1, 0], LE, 3)]
    cold = RationalTableau([-1, -1, 0], grown)
    assert cold.status == "optimal"
    assert vertex_objective(warm) == cold.objective_value() == rat(-3)
    for row in grown:
        assert satisfied(row, vertex_values(warm))


def test_session_add_cuts_batch():
    session = SimplexSession([([1, 2, 3], 6)])
    batch = [([1, 0, 0], 2), ([1, 1, 0], 4), ([0, 1, -1], -1)]
    session.add_cuts([(cut(coeffs), rhs) for coeffs, rhs in batch])
    sol = session.result()
    assert vertex_objective(sol) == rat(25, 2)
    assert vertex_values(sol) == [rat(2), rat(3, 2), rat(5, 2)]
    for row in block_rows([3], [6]) + cut_rows(batch):
        assert satisfied(row, vertex_values(sol))


def test_add_cuts_rejects_a_batch_whole():
    """A malformed cut anywhere in a batch leaves the session as it was,
    and a valid batch afterwards still reaches the optimum."""
    session = SimplexSession([([1, 2], 3)])
    for bad, message in (((cut([1, 0]), Fraction(1, 2)), "a cut rhs must be an int"),
                         (({2: 1}, 1), "cut column 2 is not one of the 2 structural columns")):
        with pytest.raises(InternalError, match=message):
            session.add_cuts([(cut([1, 0]), 2), bad])
        assert session.ncols == 2 and len(session.rows) == 1 and len(session.cost) == 3
    session.add_cuts([(cut([1, 0]), 2)])
    assert vertex_objective(session.result()) == rat(4)


# --- definition-level oracle ------------------------------------------


def _solve_square(rows, rhs):
    """Unique solution of a square integer system, as Fractions, or None.

    Fraction-free Gauss-Jordan elimination: each step divides by the
    previous pivot, exactly, and the last pivot is the common
    denominator."""
    n = len(rhs)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    den = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        p = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * v - f * w) // den for v, w in zip(a[i], a[k])]
        den = p
    return [Fraction(a[i][n], den) for i in range(n)]


def brute_force_lp_min(nvars, objective, rows):
    """Minimum objective over all vertices of {a x (<= or ==) b, x >= 0},
    or None if no vertex is feasible.

    Every == row is tight at every feasible point, and the == rows of a
    block program are independent, so each vertex has a basis of n tight
    rows that holds all of them: only the rest are enumerated.  A tight
    x_i >= 0 fixes x_i = 0, so the system is solved in the other
    variables."""
    eqs = [(coeffs, rhs) for coeffs, rel, rhs in rows if rel == EQ]
    les = [(coeffs, rhs) for coeffs, rel, rhs in rows if rel == LE]
    ineqs = [("zero", i) for i in range(nvars)] + [("row", con) for con in les]
    best = None
    for chosen in itertools.combinations(ineqs, nvars - len(eqs)):
        zero = {i for kind, i in chosen if kind == "zero"}
        free = [i for i in range(nvars) if i not in zero]
        tight = eqs + [con for kind, con in chosen if kind == "row"]
        sub = _solve_square([[coeffs[i] for i in free] for coeffs, _ in tight], [rhs for _, rhs in tight])
        if sub is None or any(v < 0 for v in sub):
            continue
        point = [ZERO] * nvars
        for i, v in zip(free, sub):
            point[i] = v
        if any(sum(c * v for c, v in zip(coeffs, point)) > rhs for coeffs, rhs in les):
            continue
        value = sum(c * v for c, v in zip(objective, point))
        if best is None or value < best:
            best = value
    return best


@st.composite
def block_program_with_cuts(draw, max_batches, max_cuts):
    """1-3 blocks of 1-4 consecutive columns, small int costs (ties and
    negatives), rhs >= 0; then batches of random integer <= cuts with
    coefficients in -2..3.  Each cut passes near an integer point x0 of
    the block rows, at most 1 past it, so most batches bite and some
    leave the program infeasible."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    nvars = sum(sizes)
    costs = draw(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars))
    rhs = draw(st.lists(st.integers(0, 3), min_size=len(sizes), max_size=len(sizes)))
    x0 = [0] * nvars
    start = 0
    for size, b in zip(sizes, rhs):
        for _ in range(b):
            x0[start + draw(st.integers(0, size - 1))] += 1
        start += size
    batches = []
    for _ in range(draw(st.integers(1, max_batches))):
        batch = []
        for _ in range(draw(st.integers(1, max_cuts))):
            coeffs = draw(st.lists(st.integers(-2, 3), min_size=nvars, max_size=nvars))
            lhs = sum(c * x for c, x in zip(coeffs, x0))
            batch.append((coeffs, lhs + draw(st.integers(-1, 1))))
        batches.append(batch)
    return costs, sizes, rhs, batches


def _apply_batches(session, batches):
    """Add the batches to the session until one raises InfeasibleModel;
    the rows it took, as dense rows, and whether it is still feasible."""
    added = []
    for batch in batches:
        added += cut_rows(batch)
        try:
            session.add_cuts([(cut(coeffs), rhs) for coeffs, rhs in batch])
        except InfeasibleModel:
            return added, False
    return added, True


@given(block_program_with_cuts(max_batches=2, max_cuts=2))
@settings(max_examples=250, deadline=None)
def test_simplex_matches_vertex_enumeration(problem):
    costs, sizes, rhs, batches = problem
    nvars = len(costs)
    session = SimplexSession(blocks_of(costs, sizes, rhs))
    rows = block_rows(sizes, rhs)
    assert vertex_objective(session.result()) == brute_force_lp_min(nvars, costs, rows)
    added, feasible = _apply_batches(session, batches)
    rows += added
    expected = brute_force_lp_min(nvars, costs, rows)
    assert feasible == (expected is not None)
    if not feasible:
        return
    sol = session.result()
    assert vertex_objective(sol) == expected
    for row in rows:
        assert satisfied(row, vertex_values(sol))
    assert all(v >= 0 for v in sol.values)


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


def assert_tableau_invariant(session, objective, program):
    """Each basic column is den times a unit vector, and rows / den is
    B^-1 [A | b]: B (rows / den) = [A | b] with B the basic columns of A, of
    full column rank.  A is rebuilt here in Fraction from the dense rows
    of `program`, the block rows and then the cuts in order of addition,
    each slack (columns after the variables, in row order) with
    coefficient 1.  The cost row is checked the same way against
    `objective`."""
    den, rows, basis = session.den, session.rows, session.basis
    assert isinstance(den, int) and den > 0
    assert all(type(v) is int for row in rows + [session.cost] for v in row)
    for i, b in enumerate(basis):
        assert [row[b] for row in rows] == [den if k == i else 0 for k in range(len(rows))]
        assert session.cost[b] == 0

    nvars = len(objective)
    width = nvars + sum(rel == LE for _, rel, _ in program)
    assert session.ncols == width
    a_b = []
    slack = nvars
    for coeffs, rel, rhs in program:
        row = [Fraction(c) for c in coeffs] + [Fraction(0)] * (width - nvars) + [Fraction(rhs)]
        if rel == LE:
            row[slack] = Fraction(1)
            slack += 1
        a_b.append(row)
    tableau = [[Fraction(v, den) for v in row] for row in rows]
    for r in a_b:
        assert [sum(r[b] * tableau[i][j] for i, b in enumerate(basis)) for j in range(width + 1)] == r
    assert _rank([[r[b] for b in basis] for r in a_b]) == len(basis)

    c = [Fraction(v) for v in objective] + [Fraction(0)] * (width + 1 - nvars)
    reduced = [c[j] - sum(c[b] * tableau[i][j] for i, b in enumerate(basis)) for j in range(width + 1)]
    assert [Fraction(v, den) for v in session.cost] == reduced


class RationalTableau:
    """A plain Fraction tableau with no scaling: a cold two-phase solve
    under Bland's rule of any program, then the dual rules of rrst.simplex
    for cuts.  The reference the integer tableau must start at and then
    follow pivot for pivot."""

    def __init__(self, objective, program):
        self.nvars = nvars = len(objective)
        les = [i for i, (_, rel, _) in enumerate(program) if rel == LE]
        slack = {i: nvars + k for k, i in enumerate(les)}
        self.ncols = nvars + len(les)
        self.rows, self.basis, needs = [], [], []
        for i, (coeffs, _, rhs) in enumerate(program):
            row = [Fraction(c) for c in coeffs] + [Fraction(0)] * (self.ncols - nvars) + [Fraction(rhs)]
            s = slack.get(i)
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
        obj = [Fraction(c) for c in objective] + [Fraction(0)] * (self.ncols + 1 - nvars)
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
        self.cold_pivots = self.pivots

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
            row = [Fraction(0)] * self.ncols + [Fraction(rhs)]
            for j, coef in coeffs.items():
                row[j] = Fraction(coef)
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

    def objective_value(self):
        return -self.cost[-1]

    def state(self):
        """Pivots after the cold solve, basis, and the vertex (None when
        infeasible)."""
        pivots = self.pivots - self.cold_pivots
        if self.status != "optimal":
            return pivots, sorted(self.basis), None
        values = [ZERO] * self.nvars
        for i, b in enumerate(self.basis):
            if b < self.nvars:
                values[b] = self.rows[i][-1]
        return pivots, sorted(self.basis), values


def _session_state(session, feasible):
    """The session's side of RationalTableau.state; a session that raised
    InfeasibleModel has no vertex to read."""
    values = vertex_values(session.result()) if feasible else None
    return session._pivots, sorted(session.basis), values


@given(block_program_with_cuts(max_batches=3, max_cuts=3))
@settings(max_examples=150, deadline=None)
def test_integer_tableau_matches_rational_tableau(problem):
    """The session starts at the tableau where the reference's cold
    two-phase solve ends, with no pivot.  After every batch of cuts the
    integer tableau is B^-1 [A | b] over den, and it took the same pivots
    to the same basis and vertex as the reference, and it raised
    InfeasibleModel exactly when the reference found no point.  A cold
    two-phase solve of the grown program agrees on feasibility and the
    optimum."""
    costs, sizes, rhs, batches = problem
    session = SimplexSession(blocks_of(costs, sizes, rhs))
    program = block_rows(sizes, rhs)
    reference = RationalTableau(costs, program)
    assert reference.status == "optimal"
    assert session.den == 1 and session._pivots == 0
    assert (session.rows, session.cost, session.basis) == (reference.rows, reference.cost, reference.basis)
    assert_tableau_invariant(session, costs, program)
    feasible = True
    assert _session_state(session, feasible) == reference.state()
    for batch in batches:
        cuts = [(cut(coeffs), b) for coeffs, b in batch]
        reference.add_cuts(cuts)
        program += cut_rows(batch)
        feasible = reference.status == "optimal"
        if feasible:
            session.add_cuts(cuts)
        else:
            with pytest.raises(InfeasibleModel):
                session.add_cuts(cuts)
        assert_tableau_invariant(session, costs, program)
        assert _session_state(session, feasible) == reference.state()
        if not feasible:
            break
    cold = RationalTableau(costs, program)
    assert (cold.status == "optimal") == feasible
    if feasible:
        assert cold.objective_value() == vertex_objective(session.result())


@st.composite
def tableau_and_row(draw):
    """A random integer tableau (basic columns den times unit vectors,
    every other entry free) and a row over its columns with coefficients
    in -3..3, so the basic rows it touches take coefficients other than 1."""
    width = draw(st.integers(1, 9))
    basis = draw(st.lists(st.integers(0, width - 1), max_size=width, unique=True))
    den = draw(st.integers(1, 40))
    rows = []
    for i, b in enumerate(basis):
        row = draw(st.lists(st.integers(-60, 60), min_size=width + 1, max_size=width + 1))
        for j, other in enumerate(basis):
            row[other] = den if j == i else 0
        rows.append(row)
    row = draw(st.lists(st.integers(-3, 3), min_size=width + 1, max_size=width + 1))
    return den, basis, rows, row


@given(tableau_and_row())
@settings(max_examples=300, deadline=None)
def test_canonical_equals_per_row_elimination(problem):
    """_canonical sums the rows with coefficient 1 in one column pass; it
    must equal den * row minus each touched basic row times its
    coefficient, eliminated one row at a time, and leave the row as given."""
    den, basis, rows, row = problem
    session = SimplexSession.__new__(SimplexSession)
    session.den, session.basis, session.rows = den, basis, rows
    given_row = list(row)
    expected = [den * v for v in row]
    for i, b in enumerate(basis):
        if row[b]:
            expected = [a - row[b] * v for a, v in zip(expected, rows[i])]
    out = session._canonical(row)
    assert out == expected
    assert all(out[b] == 0 for b in basis)
    assert row == given_row and out is not row
