"""Linear relaxation of the two-stage selection problem.

Both stages select over the same side, and the model is built in three
blocks of one column per element, in ascending id order: a (first stage
only), b (overlap) and c (second stage only), so the stage points are
x = a + b and y = b + c.
With selection size r and overlap quota q, one equality row per block
fixes 1ᵀa = r - q, 1ᵀb = q and 1ᵀc = r - q.  a >= 0 and c >= 0 keep the
overlap inside both stages, so no linking row is built.  The objective is
C·a + (C + c+d)·b + (c+d)·c = C·x + (c+d)·y.  The exponential families
(forest or rank inequalities on x and on y) are added lazily by
`cutting_plane_solve` until the optimum satisfies them all.

When q = r the a and c rows force both blocks to zero, so they are not
built: what is left is b alone with 1ᵀb = q, the "merged" program.

The model hands the simplex its columns, each block's costs and rhs,
and each cut as coefficients by column index; it names the columns
(a3, b0, ...) only to render the program as text, which the CLI's
`--lp-dump-dir` writes.  Nothing here touches a file.

The solver completes a selection with no overlap owed greedily, so a
relaxation is only built while at least one unit of overlap is owed.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InternalError, TooLarge
from .simplex import SimplexSession, VertexSolution

# defensive bound on cutting-plane rounds per LP solve
_ROUND_LIMIT = 10000


class RelaxationModel:
    """The program as columns: block ``name`` holds one column per element
    of ``ids`` (ascending), with ``costs`` in that order, under the row
    1ᵀ(block) == ``rhs``; the blocks are a, b, c in that order, or b alone
    when merged, and each one's columns follow the previous block's.  Two
    compare equal when all but `position` do."""

    __slots__ = ("side", "ids", "blocks", "position")
    side: object
    ids: list[int]
    blocks: list[tuple[str, list[int], int]]
    # element id -> its position in `ids`, and so in every block
    position: dict[int, int]

    def __init__(self, side, ids, blocks):
        self.side, self.ids, self.blocks = side, ids, blocks
        self.position = {e: i for i, e in enumerate(ids)}

    def __eq__(self, other):
        if type(other) is not RelaxationModel:
            return NotImplemented
        return (self.side, self.ids, self.blocks) == (other.side, other.ids, other.blocks)

    @property
    def reduced(self) -> str | None:
        """'merged' when only the b block was built, else None."""
        return None if len(self.blocks) > 1 else "merged"

    def _start(self, name: str) -> int:
        """The first column of block `name`."""
        return len(self.ids) * [block[0] for block in self.blocks].index(name)

    def block_values(self, values, name: str):
        """(element, value) pairs of block `name` at LP `values`."""
        start = self._start(name)
        return zip(self.ids, values[start:start + len(self.ids)])

    def stage_point(self, values, stage: str) -> dict:
        """The point of stage "x" (a + b) or "y" (b + c) at LP `values`,
        over the same denominator as `values`."""
        point = dict(self.block_values(values, "b"))
        if not self.reduced:
            # a vertex is mostly zeros: add only the nonzero own coordinates
            for e, value in self.block_values(values, "a" if stage == "x" else "c"):
                if value:
                    point[e] += value
        return point

    def stage_row(self, elements, stage: str) -> dict:
        """The coefficients of x(S) or y(S) over the LP columns."""
        position = self.position
        b = self._start("b")
        row = {b + position[e]: 1 for e in elements}
        if not self.reduced:
            own = self._start("a" if stage == "x" else "c")
            row.update((own + position[e], 1) for e in elements)
        return row

    def render(self, cuts) -> str:
        """The program with the <= rows `cuts` as plain text, one row per
        line, every sum over the columns in order and without zero terms."""
        names = [f"{name}{e}" for name, _, _ in self.blocks for e in self.ids]

        def terms(coeffs):
            return " + ".join(f"{coeffs[j]} {names[j]}" for j in sorted(coeffs) if coeffs[j]) or "0"

        m = len(self.ids)
        rows = [(dict.fromkeys(range(k * m, (k + 1) * m), 1), "==", rhs)
                for k, (_, _, rhs) in enumerate(self.blocks)]
        rows += [(coeffs, "<=", rhs) for coeffs, rhs in cuts]
        objective = dict(enumerate(c for _, costs, _ in self.blocks for c in costs))
        lines = [f"min {terms(objective)}", "s.t."]
        lines += [f"r{i}: {terms(coeffs)} {rel} {rhs}" for i, (coeffs, rel, rhs) in enumerate(rows)]
        lines += [f"{name} >= 0" for name in names]
        return "\n".join(lines) + "\n"


def build_relaxation(side, size: int, quota: int, costs) -> RelaxationModel:
    """Build the LP over `side`, whose selections hold `size` elements, with
    overlap `quota`, at least 1.

    `size` is what the instance already knows (n - 1 for a tree, the rank
    for a matroid), so no build scans the side for it.  Every element is
    overlap-eligible; `costs` is the instance's CostColumns, whose ints are
    in units of 1/scale of the instance, so the objective and its optimum
    (and the rendered program) are in those units too.  Its ids are the
    side's elements, which the instance checked, so the columns are read
    off them.  A quota above the selection size leaves the program
    infeasible.
    """
    if quota < 1:
        raise InternalError(f"relaxation requested with overlap quota {quota}")
    spare = size - quota
    ids = sorted(costs.C)
    C, second = costs.C, costs.second
    blocks = [("b", [C[e] + second[e] for e in ids], quota)]
    # at q = r the a and c rows would force both blocks to zero
    if spare:
        blocks = [("a", [C[e] for e in ids], spare), *blocks, ("c", [second[e] for e in ids], spare)]
    return RelaxationModel(side, ids, blocks)


class CutPlaneResult(namedtuple("CutPlaneResult", "solution model cuts rounds")):
    """The optimal vertex of `model` under the <= rows `cuts`, in order of
    addition, which `rounds` rounds of separation added."""

    __slots__ = ()
    solution: VertexSolution
    model: RelaxationModel
    cuts: list[tuple[dict, int]]
    rounds: int

    @property
    def cuts_added(self) -> int:
        return len(self.cuts)


def cutting_plane_solve(model: RelaxationModel) -> CutPlaneResult:
    """Optimize the model, lazily adding violated forest/rank rows.

    Each round separates the current vertex on both stages; violated rows
    are appended to the warm tableau and repaired with the dual simplex.
    Returns once no violated row exists.  The stage points stay int
    numerators over the tableau's denominator, which separation takes as
    its unit, and each row comes back as (elements, int rhs).  An
    infeasible program raises InfeasibleModel from the session.
    """
    session = SimplexSession([(costs, rhs) for _, costs, rhs in model.blocks])
    side = model.side
    rounds = 0
    added = []  # the cut rows, in order of addition
    while True:
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
            raise TooLarge(f"cutting-plane rounds exceeded {_ROUND_LIMIT}")
        for stage, (elements, rhs) in pending:
            if sum(map(points[stage].__getitem__, elements)) <= rhs * den:
                raise InternalError("separation produced a row the vertex already satisfies")
        batch = [(model.stage_row(elements, stage), rhs) for stage, (elements, rhs) in pending]
        session.add_cuts(batch)
        added += batch
    return CutPlaneResult(solution, model, added, rounds)
