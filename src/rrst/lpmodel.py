"""Linear relaxation of one shrinking two-stage selection state.

The model has one variable per surviving first-stage element ("x"), one per
surviving second-stage element ("y"), and one per element still eligible to
count toward the overlap quota ("z").  Eager rows fix the cardinality of
each stage, tie every z below its x and its y, and make the z total meet the
remaining quota; the exponential families (forest or rank inequalities) are
added lazily by `cutting_plane_solve` until the optimum satisfies them all.

A stage that has finished shrinking contributes no variables and no rows:
its z links are left out, which is the same model with that stage decided.
The solver completes a state with no overlap quota greedily, so a
relaxation is only built while at least one unit of overlap is owed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .config import SolveConfig
from .errors import InfeasibleModel, InternalError, IterationLimit
from .rational import ONE, ZERO, rat
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
    ez: tuple[int, ...]
    quota: int  # required z total still outstanding
    x_side: object | None  # None once that stage is complete
    y_side: object | None
    # None = the x/z/y model, "merged" = one block standing for x, z and y
    reduced: str | None


def build_relaxation(x_side, y_side, ez, quota: int, costs) -> RelaxationModel:
    """Build the LP for the current state.

    `x_side` / `y_side` are selection sides (None or inactive when that
    stage is complete); `ez` the overlap-eligible ids; `quota` the overlap
    still required, at least 1; `costs` maps id -> CostTriple.
    """
    x_active = x_side is not None and x_side.is_active()
    y_active = y_side is not None and y_side.is_active()
    if not x_active and not y_active:
        raise InternalError("relaxation requested but both stages are complete")
    ez = tuple(sorted(ez))
    if quota < 1:
        raise InternalError(f"relaxation requested with overlap quota {quota}")
    if not ez:
        raise InfeasibleModel("overlap quota outstanding but no shared elements remain")

    if (
        x_active
        and y_active
        and quota == x_side.target_size() == y_side.target_size()
        and set(ez) == set(x_side.element_ids) == set(y_side.element_ids)
        and x_side.same_structure(y_side)
    ):
        # the cardinality rows and the overlap links force the three
        # blocks equal pointwise, so one merged block suffices
        return _build_merged(x_side, y_side, ez, quota, costs)
    return _build_full(x_side if x_active else None, y_side if y_active else None, ez, quota, costs)


def _build_full(x_side, y_side, ez, quota, costs) -> RelaxationModel:
    x_ids = x_side.element_ids if x_side is not None else []
    y_ids = y_side.element_ids if y_side is not None else []
    x_set, y_set = set(x_ids), set(y_ids)
    for e in ez:
        if e not in x_set and e not in y_set:
            raise InternalError(f"overlap-eligible element {e} survives in neither stage")

    lp = LinearProgram()
    x_vars = {e: ("x", e) for e in x_ids}
    z_vars = {e: ("z", e) for e in ez}
    y_vars = {e: ("y", e) for e in y_ids}
    for e in x_ids:
        lp.add_variable(x_vars[e])
    for e in ez:
        lp.add_variable(z_vars[e])
    for e in y_ids:
        lp.add_variable(y_vars[e])

    objective = {x_vars[e]: costs[e].C for e in x_ids}
    for e in y_ids:
        objective[y_vars[e]] = costs[e].second
    lp.set_objective(objective)

    if x_side is not None:
        lp.add_constraint({x_vars[e]: ONE for e in x_ids}, EQ, rat(x_side.target_size()))
    for e in ez:
        if e in x_set:
            lp.add_constraint({z_vars[e]: ONE, x_vars[e]: -ONE}, LE, ZERO)
    lp.add_constraint({z_vars[e]: ONE for e in ez}, EQ, rat(quota))
    for e in ez:
        if e in y_set:
            lp.add_constraint({z_vars[e]: ONE, y_vars[e]: -ONE}, LE, ZERO)
    if y_side is not None:
        lp.add_constraint({y_vars[e]: ONE for e in y_ids}, EQ, rat(y_side.target_size()))

    return RelaxationModel(lp, x_vars, z_vars, y_vars, ez, quota, x_side, y_side, None)


def _build_merged(x_side, y_side, ez, quota, costs) -> RelaxationModel:
    """One variable per element standing for x, z and y at once.

    Valid exactly when every element is overlap-eligible and the overlap
    quota equals both stage targets: summing z <= x over the full index set
    against equal totals forces z = x (and likewise z = y), so a vertex of
    this program is a vertex of the full program and vice versa.
    """
    lp = LinearProgram()
    wvars = {e: ("w", e) for e in ez}
    for e in ez:
        lp.add_variable(wvars[e])
    lp.set_objective({wvars[e]: costs[e].C + costs[e].second for e in ez})
    lp.add_constraint({wvars[e]: ONE for e in ez}, EQ, rat(quota))
    return RelaxationModel(lp, wvars, wvars, wvars, ez, quota, x_side, y_side, "merged")


@dataclass
class CutPlaneResult:
    solution: VertexSolution
    rounds: int
    cuts_added: int


def cutting_plane_solve(model: RelaxationModel, config: SolveConfig, dump_tag: str | None = None) -> CutPlaneResult:
    """Optimize the model, lazily adding violated forest/rank rows.

    Each round separates the current vertex on both stages; violated rows
    are appended to the warm tableau and repaired with the dual simplex.
    Returns once no violated row exists.
    """
    session = SimplexSession(model.lp)
    rounds = 0
    cuts_added = 0
    while True:
        if session.status == INFEASIBLE:
            raise InfeasibleModel("relaxation is infeasible")
        if session.status == UNBOUNDED:
            raise InternalError("relaxation unbounded despite nonnegative costs")
        solution = session.result().solution
        pending = []
        merged = model.x_vars is model.y_vars
        point_x = point_y = None
        if model.x_side is not None:
            point_x = {e: solution.values[model.x_vars[e]] for e in model.x_vars}
        if model.y_side is not None and not merged:
            point_y = {e: solution.values[model.y_vars[e]] for e in model.y_vars}
        mirrored = (
            point_x is not None
            and point_y is not None
            and point_x == point_y
            and model.x_side.same_structure(model.y_side)
        )
        if point_x is not None:
            for cut in model.x_side.separate(point_x, config.separation):
                pending.append(({model.x_vars[e]: ONE for e in cut.elements}, cut.rhs))
                if mirrored:
                    # identical structure and point: the same row is violated
                    # on the other stage, no need to sweep it again
                    pending.append(({model.y_vars[e]: ONE for e in cut.elements}, cut.rhs))
        if point_y is not None and not mirrored:
            for cut in model.y_side.separate(point_y, config.separation):
                pending.append(({model.y_vars[e]: ONE for e in cut.elements}, cut.rhs))
        if not pending:
            break
        rounds += 1
        if rounds > _ROUND_LIMIT:
            raise IterationLimit(f"cutting-plane rounds exceeded {_ROUND_LIMIT}")
        for coeffs, rhs in pending:
            lhs = sum((solution.values[v] for v in coeffs), ZERO)
            if lhs <= rhs:
                raise InternalError("separation produced a row the vertex already satisfies")
        session.add_cuts(pending)
        cuts_added += len(pending)

    if config.lp_dump_dir is not None:
        os.makedirs(config.lp_dump_dir, exist_ok=True)
        name = f"{dump_tag or 'model'}.lp.txt"
        with open(os.path.join(config.lp_dump_dir, name), "w", encoding="utf-8") as fh:
            fh.write(dump_lp(model.lp))

    return CutPlaneResult(solution, rounds, cuts_added)
