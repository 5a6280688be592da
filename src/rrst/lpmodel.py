"""Linear relaxation of the two-stage selection problem.

Both stages select over the same side, and the model is built in three
blocks of one variable per element: a (first stage only), b (overlap) and
c (second stage only), so the stage points are x = a + b and y = b + c.
With selection size r and overlap quota q, one equality row per block
fixes 1ᵀa = r - q, 1ᵀb = q and 1ᵀc = r - q.  a >= 0 and c >= 0 keep the
overlap inside both stages, so no linking row is built.  The objective is
C·a + (C + c+d)·b + (c+d)·c = C·x + (c+d)·y.  The exponential families
(forest or rank inequalities on x and on y) are added lazily by
`cutting_plane_solve` until the optimum satisfies them all.

When q = r the a and c rows force both blocks to zero, so they are not
built: what is left is b alone with 1ᵀb = q, the "merged" program.

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
    side: object
    # element id -> LP variable id, per block; a and c are empty when merged
    a_vars: dict[int, tuple]
    b_vars: dict[int, tuple]
    c_vars: dict[int, tuple]

    @property
    def reduced(self) -> str | None:
        """'merged' when only the b block was built, else None."""
        return None if self.a_vars else "merged"

    def stage_point(self, values, stage: str) -> dict:
        """The point of stage "x" (a + b) or "y" (b + c) at LP `values`,
        over the same denominator as `values`."""
        point = {e: values[v] for e, v in self.b_vars.items()}
        # a vertex is mostly zeros: add only the nonzero own coordinates
        for e, v in (self.a_vars if stage == "x" else self.c_vars).items():
            value = values[v]
            if value:
                point[e] += value
        return point

    def stage_row(self, elements, stage: str) -> dict:
        """The coefficients of x(S) or y(S) over the LP variables."""
        row = {self.b_vars[e]: 1 for e in elements}
        own = self.a_vars if stage == "x" else self.c_vars
        if own:
            row.update((own[e], 1) for e in elements)
        return row


def build_relaxation(side, size: int, quota: int, costs) -> RelaxationModel:
    """Build the LP over `side`, whose selections hold `size` elements, with
    overlap `quota`, at least 1.

    `size` is what the instance already knows (n - 1 for a tree, the rank
    for a matroid), so no build scans the side for it.  Every element is
    overlap-eligible; `costs` is the instance's CostColumns, whose ints are
    in units of 1/scale of the instance, so the objective and its optimum
    (and the program `lp_dump_dir` writes) are in those units too.  A quota
    above the selection size leaves the program infeasible.
    """
    if not side.is_active():
        raise InternalError("relaxation requested but there is nothing to select")
    if quota < 1:
        raise InternalError(f"relaxation requested with overlap quota {quota}")
    spare = size - quota
    ids = side.element_ids
    lp = LinearProgram()
    # at q = r the a and c rows would force both blocks to zero
    own = spare != 0
    a_vars = {e: lp.add_variable(("a", e)) for e in ids} if own else {}
    b_vars = {e: lp.add_variable(("b", e)) for e in ids}
    c_vars = {e: lp.add_variable(("c", e)) for e in ids} if own else {}
    C, second = costs.C, costs.second
    objective = {v: C[e] for e, v in a_vars.items()}
    objective.update((v, C[e] + second[e]) for e, v in b_vars.items())
    objective.update((v, second[e]) for e, v in c_vars.items())
    lp.set_objective(objective)
    for block, rhs in ((a_vars, spare), (b_vars, quota), (c_vars, spare)):
        if block:
            lp.add_constraint(dict.fromkeys(block.values(), 1), EQ, rhs)
    return RelaxationModel(lp, side, a_vars, b_vars, c_vars)


@dataclass
class CutPlaneResult:
    solution: VertexSolution
    rounds: int
    cuts_added: int


def cutting_plane_solve(model: RelaxationModel, config: SolveConfig) -> CutPlaneResult:
    """Optimize the model, lazily adding violated forest/rank rows.

    Each round separates the current vertex on both stages; violated rows
    are appended to the warm tableau and repaired with the dual simplex.
    Returns once no violated row exists.  The stage points stay int
    numerators over the tableau's denominator, which separation takes as
    its unit.
    """
    session = SimplexSession(model.lp)
    side = model.side
    rounds = 0
    cuts_added = 0
    while True:
        if session.status == INFEASIBLE:
            raise InfeasibleModel("relaxation is infeasible")
        solution = session.result()
        den = solution.den
        points = {"x": model.stage_point(solution.values, "x")}
        if not model.reduced:
            points["y"] = model.stage_point(solution.values, "y")
        # both stages select over one side: at equal points the same row
        # is violated on the other stage, no need to sweep it again
        mirrored = points["x"] == points.get("y")
        pending = []  # (stage, cut)
        cut = side.separate(points["x"], den)
        if cut is not None:
            pending.append(("x", cut))
            if mirrored:
                pending.append(("y", cut))
        if "y" in points and not mirrored:
            cut = side.separate(points["y"], den)
            if cut is not None:
                pending.append(("y", cut))
        if not pending:
            break
        rounds += 1
        if rounds > _ROUND_LIMIT:
            raise IterationLimit(f"cutting-plane rounds exceeded {_ROUND_LIMIT}")
        for stage, cut in pending:
            if sum(map(points[stage].__getitem__, cut.elements)) <= cut.rhs * den:
                raise InternalError("separation produced a row the vertex already satisfies")
        session.add_cuts([(model.stage_row(cut.elements, stage), cut.rhs) for stage, cut in pending])
        cuts_added += len(pending)

    if config.lp_dump_dir is not None:
        os.makedirs(config.lp_dump_dir, exist_ok=True)
        with open(os.path.join(config.lp_dump_dir, "relaxation.lp.txt"), "w", encoding="utf-8") as fh:
            fh.write(dump_lp(model.lp))

    return CutPlaneResult(solution, rounds, cuts_added)
