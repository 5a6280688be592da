"""Linear relaxation of the two-stage selection problem.

The model has one variable per element for each stage ("x" for the first,
"y" for the second) and one per element for the overlap ("z").  Both
stages select over the same side.  Eager rows fix the cardinality of each
stage, tie every z below its x and its y, and make the z total meet the
overlap quota; the exponential families (forest or rank inequalities) are
added lazily by `cutting_plane_solve` until the optimum satisfies them all.

The solver completes a selection with no overlap owed greedily, so a
relaxation is only built while at least one unit of overlap is owed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .config import SolveConfig
from .errors import InfeasibleModel, InternalError, IterationLimit
from .simplex import (
    EQ,
    INFEASIBLE,
    LE,
    UNBOUNDED,
    LinearProgram,
    SimplexSession,
    VertexSolution,
    dump_lp,
)

# defensive bound on cutting-plane rounds per LP solve
_ROUND_LIMIT = 10000


@dataclass
class RelaxationModel:
    lp: LinearProgram
    x_vars: dict[int, tuple]  # element id -> LP variable id
    z_vars: dict[int, tuple]
    y_vars: dict[int, tuple]
    side: object
    # None = the x/z/y model, "merged" = one block standing for x, z and y
    reduced: str | None


def build_relaxation(side, quota: int, costs) -> RelaxationModel:
    """Build the LP over `side` with overlap `quota`, at least 1.

    Every element is overlap-eligible; `costs` maps id -> CostTriple, whose
    ints are in units of 1/scale of the instance, so the objective and its
    optimum (and the program `lp_dump_dir` writes) are in those units too.
    """
    if not side.is_active():
        raise InternalError("relaxation requested but there is nothing to select")
    if quota < 1:
        raise InternalError(f"relaxation requested with overlap quota {quota}")
    size = side.target_size()
    if quota == size:
        # the cardinality rows and the overlap links force the three
        # blocks equal pointwise, so one merged block suffices
        return _build_merged(side, quota, costs)
    return _build_full(side, size, quota, costs)


def _build_full(side, size: int, quota, costs) -> RelaxationModel:
    ids = side.element_ids
    lp = LinearProgram()
    x_vars = {e: ("x", e) for e in ids}
    z_vars = {e: ("z", e) for e in ids}
    y_vars = {e: ("y", e) for e in ids}
    for block in (x_vars, z_vars, y_vars):
        for var in block.values():
            lp.add_variable(var)

    objective = {x_vars[e]: costs[e].C for e in ids}
    for e in ids:
        objective[y_vars[e]] = costs[e].second
    lp.set_objective(objective)

    lp.add_constraint({x_vars[e]: 1 for e in ids}, EQ, size)
    for e in ids:
        lp.add_constraint({z_vars[e]: 1, x_vars[e]: -1}, LE, 0)
    lp.add_constraint({z_vars[e]: 1 for e in ids}, EQ, quota)
    for e in ids:
        lp.add_constraint({z_vars[e]: 1, y_vars[e]: -1}, LE, 0)
    lp.add_constraint({y_vars[e]: 1 for e in ids}, EQ, size)

    return RelaxationModel(lp, x_vars, z_vars, y_vars, side, None)


def _build_merged(side, quota, costs) -> RelaxationModel:
    """One variable per element standing for x, z and y at once.

    Valid exactly when the overlap quota equals the stage target: summing
    z <= x over every element against equal totals forces z = x (and
    likewise z = y), so a vertex of this program is a vertex of the full
    program and vice versa.
    """
    ids = side.element_ids
    lp = LinearProgram()
    wvars = {e: ("w", e) for e in ids}
    for var in wvars.values():
        lp.add_variable(var)
    lp.set_objective({wvars[e]: costs[e].C + costs[e].second for e in ids})
    lp.add_constraint({wvars[e]: 1 for e in ids}, EQ, quota)
    return RelaxationModel(lp, wvars, wvars, wvars, side, "merged")


@dataclass
class CutPlaneResult:
    solution: VertexSolution
    rounds: int
    cuts_added: int


def cutting_plane_solve(model: RelaxationModel, config: SolveConfig) -> CutPlaneResult:
    """Optimize the model, lazily adding violated forest/rank rows.

    Each round separates the current vertex on both stages; violated rows
    are appended to the warm tableau and repaired with the dual simplex.
    Returns once no violated row exists.
    """
    session = SimplexSession(model.lp)
    side = model.side
    merged = model.x_vars is model.y_vars
    rounds = 0
    cuts_added = 0
    while True:
        if session.status == INFEASIBLE:
            raise InfeasibleModel("relaxation is infeasible")
        if session.status == UNBOUNDED:
            raise InternalError("relaxation unbounded despite nonnegative costs")
        solution = session.result()
        pending = []
        point_x = {e: solution.values[v] for e, v in model.x_vars.items()}
        point_y = None if merged else {e: solution.values[v] for e, v in model.y_vars.items()}
        # both stages select over one side: at equal points the same row
        # is violated on the other stage, no need to sweep it again
        mirrored = point_x == point_y
        cut = side.separate(point_x, config.separation)
        if cut is not None:
            pending.append(({model.x_vars[e]: 1 for e in cut.elements}, cut.rhs))
            if mirrored:
                pending.append(({model.y_vars[e]: 1 for e in cut.elements}, cut.rhs))
        if point_y is not None and not mirrored:
            cut = side.separate(point_y, config.separation)
            if cut is not None:
                pending.append(({model.y_vars[e]: 1 for e in cut.elements}, cut.rhs))
        if not pending:
            break
        rounds += 1
        if rounds > _ROUND_LIMIT:
            raise IterationLimit(f"cutting-plane rounds exceeded {_ROUND_LIMIT}")
        for coeffs, rhs in pending:
            lhs = sum(solution.values[v] for v in coeffs)
            if lhs <= rhs:
                raise InternalError("separation produced a row the vertex already satisfies")
        session.add_cuts(pending)
        cuts_added += len(pending)

    if config.lp_dump_dir is not None:
        os.makedirs(config.lp_dump_dir, exist_ok=True)
        with open(os.path.join(config.lp_dump_dir, "relaxation.lp.txt"), "w", encoding="utf-8") as fh:
            fh.write(dump_lp(model.lp))

    return CutPlaneResult(solution, rounds, cuts_added)
