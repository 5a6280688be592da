"""Exact two-phase simplex: known optima, statuses, determinism, warm cuts.

The hypothesis tests check the solver against a definition-level oracle:
enumerate every basic point (all ways to make n constraints tight), keep
the feasible ones, and take the best objective.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrst.errors import MalformedProgram
from rrst.rational import ONE, ZERO, parse_exact, rat
from rrst.simplex import EQ, LE, LinearProgram, SimplexSession, dump_lp, solve


def constraint_satisfied(con, values) -> bool:
    lhs = sum((coef * values[var] for var, coef in con.coeffs.items()), ZERO)
    return lhs == con.rhs if con.rel == EQ else lhs <= con.rhs


def _r(v):
    return parse_exact(v) if isinstance(v, str) else rat(v)


def lp_from(nvars, objective, rows):
    lp = LinearProgram()
    xs = [lp.add_variable(f"x{i}") for i in range(nvars)]
    lp.set_objective({xs[i]: _r(c) for i, c in enumerate(objective) if c})
    for coeffs, rel, rhs in rows:
        lp.add_constraint({xs[i]: _r(c) for i, c in enumerate(coeffs) if c}, rel, _r(rhs))
    return lp, xs


def test_simple_box_optimum():
    lp, xs = lp_from(2, [-1, -1], [([1, 0], LE, 1), ([0, 2], LE, 1)])
    res = solve(lp)
    assert res.is_optimal
    assert res.solution.objective_value == rat(-3, 2)
    assert res.solution.value(xs[0]) == ONE
    assert res.solution.value(xs[1]) == rat(1, 2)


def test_equality_row():
    lp, _ = lp_from(2, [1, 1], [([1, 1], EQ, 2), ([1, -1], LE, 0)])
    res = solve(lp)
    assert res.is_optimal and res.solution.objective_value == rat(2)


def test_infeasible_detected():
    lp, _ = lp_from(1, [1], [([1], LE, -1)])
    assert solve(lp).status == "infeasible"
    lp2, _ = lp_from(2, [1, 1], [([1, 1], EQ, 4), ([1, 0], LE, 1), ([0, 1], LE, 1)])
    assert solve(lp2).status == "infeasible"


def test_unbounded_detected():
    lp, _ = lp_from(2, [-1, 0], [([0, 1], LE, 1)])
    assert solve(lp).status == "unbounded"


def test_beale_cycling_example_terminates():
    # the classic degenerate program that cycles under naive pivoting
    lp, _ = lp_from(
        4,
        ["-3/4", 150, "-1/50", 6],
        [
            (["1/4", -60, "-1/25", 9], LE, 0),
            (["1/2", -90, "-1/50", 3], LE, 0),
            ([0, 0, 1, 0], LE, 1),
        ],
    )
    res = solve(lp)
    assert res.is_optimal
    assert res.solution.objective_value == rat(-1, 20)


def test_solution_satisfies_all_constraints_exactly():
    lp, _ = lp_from(3, [-2, -3, -1], [([1, 1, 1], LE, 5), ([2, 1, 0], LE, 6), ([0, 1, 3], LE, 7)])
    res = solve(lp)
    for con in lp.constraints:
        assert constraint_satisfied(con, res.solution.values)


def test_determinism_byte_for_byte():
    rows = [([3, 1, 2], LE, 10), ([1, 4, 0], LE, 8), ([1, 1, 1], EQ, 4)]
    a = solve(lp_from(3, [-5, -4, -3], rows)[0])
    b = solve(lp_from(3, [-5, -4, -3], rows)[0])
    assert a.solution.values == b.solution.values
    assert a.solution.basis == b.solution.basis
    assert a.solution.objective_value == b.solution.objective_value


def test_malformed_programs_rejected():
    lp = LinearProgram()
    lp.add_variable("x")
    with pytest.raises(MalformedProgram):
        lp.add_variable("x")
    with pytest.raises(MalformedProgram):
        lp.set_objective({"y": ONE})
    with pytest.raises(MalformedProgram):
        lp.add_constraint({"y": ONE}, LE, 1)
    with pytest.raises(MalformedProgram):
        lp.add_constraint({"x": ONE}, ">=", 1)


def test_session_cut_matches_cold_resolve():
    lp, xs = lp_from(2, [-1, -1], [([1, 0], LE, 2), ([0, 1], LE, 2)])
    session = SimplexSession(lp.copy())
    assert session.result().solution.objective_value == rat(-4)
    session.add_cut({f"x{i}": ONE for i in range(2)}, rat(3))
    warm = session.result().solution

    cold_lp = lp.copy()
    cold_lp.add_constraint({"x0": ONE, "x1": ONE}, LE, rat(3))
    cold = solve(cold_lp).solution
    assert warm.objective_value == cold.objective_value == rat(-3)
    for con in cold_lp.constraints:
        assert constraint_satisfied(con, warm.values)


def test_session_add_cuts_batch():
    lp, _ = lp_from(3, [-1, -1, -1], [([1, 0, 0], LE, 2), ([0, 1, 0], LE, 2), ([0, 0, 1], LE, 2)])
    session = SimplexSession(lp)
    session.add_cuts([
        ({"x0": ONE, "x1": ONE}, rat(3)),
        ({"x1": ONE, "x2": ONE}, rat(3)),
        ({"x0": ONE, "x1": ONE, "x2": ONE}, rat(4)),
    ])
    sol = session.result().solution
    assert sol.objective_value == rat(-4)
    for con in session.lp.constraints:
        assert constraint_satisfied(con, sol.values)


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
    """Minimum objective over all vertices of {Ax <= b, x >= 0}."""
    cons = [([rat(c) for c in coeffs], rat(rhs)) for coeffs, rhs in rows]
    for i in range(nvars):
        unit = [ZERO] * nvars
        unit[i] = -ONE
        cons.append((unit, ZERO))  # -x_i <= 0
    best = None
    for subset in itertools.combinations(range(len(cons)), nvars):
        sol = _solve_square([cons[i][0] for i in subset], [cons[i][1] for i in subset])
        if sol is None:
            continue
        if any(sum(c * v for c, v in zip(coeffs, sol)) > rhs for coeffs, rhs in cons):
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
        rows.append((coeffs, draw(st.integers(0, 9))))
    for i in range(nvars):  # box keeps it bounded, origin keeps it feasible
        unit = [0] * nvars
        unit[i] = 1
        rows.append((unit, 3))
    return nvars, obj, rows


@given(bounded_lp())
@settings(max_examples=120, deadline=None)
def test_simplex_matches_vertex_enumeration(problem):
    nvars, obj, rows = problem
    lp, _ = lp_from(nvars, obj, [(c, LE, r) for c, r in rows])
    res = solve(lp)
    assert res.is_optimal
    expected = brute_force_lp_min(nvars, obj, rows)
    assert res.solution.objective_value == expected
    for con in lp.constraints:
        assert constraint_satisfied(con, res.solution.values)
    assert all(v >= 0 for v in res.solution.values.values())
