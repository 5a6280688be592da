"""Exact solver for robust two-stage selection with an overlap requirement.

Given costs C (commit now) and c+d (recover later) per element, the task is
to pick a first selection X and second selection Y — spanning trees of one
graph, or bases of one matroid — sharing at least a required number of
elements, minimizing C(X) + (c+d)(Y).  A spanning-tree instance is the
graphic matroid of its graph (see instance.py), so one `solve` and one
`verify_solution` serve every instance: a selection holds `rank` elements,
and a valid one is a basis, of rank `rank`.

With no overlap owed the two stages decouple, and each is completed
greedily.  Otherwise the solver optimizes one linear relaxation by
cutting planes, in blocks a (first stage only), b (overlap) and c (second
stage only), and reads X where a + b = 1, Z where b = 1 and Y where
b + c = 1 off its optimal vertex.  That vertex is 0/1, because the
relaxation is a face of a matroid intersection polytope:

1. The model (see lpmodel.py) is a, b, c >= 0 with a + b in the base
   polytope of the first stage's matroid M_x, b + c in that of the second
   stage's M_y (here both are the one side's matroid), and 1ᵀb = q.
2. Double each element of M_x with a parallel copy, N1 = M_x^(a∥b) ⊕
   free(c), and likewise N2 = free(a) ⊕ M_y^(b∥c).
3. The model is P(N1) ∩ P(N2) on the faces w(a ∪ b) = r_x and
   w(b ∪ c) = r_y.  On those faces 1ᵀb = q says 1ᵀw = r_x + r_y − q.
4. The common independent sets of one fixed size form an integral
   polytope: truncating both matroids to that size makes it their common
   base polytope (Edmonds 1970; Schrijver, Combinatorial Optimization,
   ch. 41).  A face of an integral polytope is integral.
5. A vertex of the cut loop's LP that violates no cut is a vertex of the
   full polytope, so the vertex the solver reads is 0/1.

This is the reduction of Lendl, Peis and Timmermans (Matroid bases with
cardinality constraints on the intersection, Math. Program. 2022).  The
source paper proves only that some coordinate of each vertex is 0 or 1,
which its iterative relaxation needs.  A coordinate strictly between 0
and 1 would breach the argument, and raises InternalError.

Costs arrive as ints over the scale their CostColumns holds (see
instance.py), so the greedy sorts, the LP objective, the stage sums and
the check of the total against the LP bound all run on ints, in scaled
units.  A positive scale changes no comparison, tie-break or pivot.  The
LP vertex comes back as int numerators over the tableau's denominator, so
reading X, Y and Z off it compares ints too.  Only the Solution divides
by the scale, once, into Fractions.

A solve takes no option and writes no file.  The Solution carries the
cut loop's result (`relaxation`: the model and its cut rows), which the
CLI renders for `--lp-dump-dir`; it is None when no LP was built.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InternalError, ParseError, ValidationError
from .instance import Instance, _int_column, dump_json
from .lpmodel import CutPlaneResult, build_relaxation, cutting_plane_solve
from .matroids import GraphicMatroid, PartitionMatroid
from .rational import Rat, parse_exact, rat, rat_str
from .sides import GraphSide, MatroidSide


class Solution(namedtuple("Solution", "X Y Z first_stage second_stage total lp_bound iterations relaxation",
                          defaults=(None,))):
    """A solve's answer.  Two compare equal when all but `relaxation` do."""

    __slots__ = ()
    X: tuple[int, ...]
    Y: tuple[int, ...]
    Z: tuple[int, ...]
    first_stage: Rat
    second_stage: Rat
    total: Rat
    lp_bound: Rat
    iterations: int
    # the cut loop's result (the model, its cut rows and rounds), None when
    # no LP was built; diagnostics, not serialized
    relaxation: CutPlaneResult | None

    def __eq__(self, other):
        return self[:-1] == other[:-1] if type(other) is Solution else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self[:-1])


def solution_to_dict(sol: Solution) -> dict:
    return {
        "X": list(sol.X),
        "Y": list(sol.Y),
        "Z": list(sol.Z),
        "first_stage": rat_str(sol.first_stage),
        "second_stage": rat_str(sol.second_stage),
        "total": rat_str(sol.total),
        "lp_bound": rat_str(sol.lp_bound),
        "iterations": sol.iterations,
    }


def serialize_solution(sol: Solution) -> str:
    return dump_json(solution_to_dict(sol))


def solve(instance: Instance) -> Solution:
    """Minimize C(X) + (c+d)(Y) over basis pairs with |X∩Y| large enough.

    A graphic matroid, every tree instance among them, is solved on its
    spanning forests, and a uniform or partition matroid by prefix scans
    per part.  No other family has a route: ValidationError, whatever k.
    """
    matroid, costs, scale = instance.matroid, instance.costs, instance.costs.scale
    if isinstance(matroid, GraphicMatroid):
        side = GraphSide(matroid)
    elif isinstance(matroid, PartitionMatroid):
        side = MatroidSide(matroid)
    else:
        raise ValidationError(f"no solve route for the {matroid.family} matroid family: "
                              "the solver runs graphic, uniform and partition matroids")
    overlap_required = instance.overlap_requirement
    if overlap_required == 0:
        # no overlap is owed (always so when there is nothing to select),
        # so the stages decouple: complete each one greedily (every stage
        # polytope is integral)
        X = side.complete_min(costs.C)
        Y = side.complete_min(costs.second)
        Z = []
        vertex = result = None
        iterations = 0
    else:
        model = build_relaxation(side, instance.rank, overlap_required, costs)
        result = cutting_plane_solve(model)
        vertex = result.solution
        # int numerators over den: a 0/1 vertex holds only 0 and den
        values, den = vertex.values, vertex.den
        fractional = [j for j, value in enumerate(values) if value not in (0, den)]
        if fractional:
            raise InternalError(f"optimal vertex is fractional at column {fractional[0]}")
        X = [e for e, v in model.stage_point(values, "x").items() if v == den]
        Z = [e for e, v in model.block_values(values, "b") if v == den]
        Y = [e for e, v in model.stage_point(values, "y").items() if v == den]
        iterations = 1

    if len(Z) != overlap_required or not set(Z) <= set(X) & set(Y):
        raise InternalError("overlap set does not meet the requirement inside both selections")
    first = sum(map(costs.C.__getitem__, X))
    second = sum(map(costs.second.__getitem__, Y))
    total = rat(first + second, scale)
    # with no relaxation solved, the stages were completed greedily, and
    # with each stage polytope integral and no coupling row active the
    # relaxation optimum is the integral total; otherwise the two must agree
    if vertex is not None and (first + second) * vertex.den != vertex.objective:
        bound = rat(vertex.objective, vertex.den * scale)
        raise InternalError(f"integral cost {rat_str(total)} differs from relaxation bound {rat_str(bound)}")
    return Solution(
        X=tuple(sorted(X)),
        Y=tuple(sorted(Y)),
        Z=tuple(sorted(Z)),
        first_stage=rat(first, scale),
        second_stage=rat(second, scale),
        total=total,
        lp_bound=total,
        iterations=iterations,
        relaxation=result,
    )


# --- solution verification -------------------------------------------------


def _parse_selection(doc: dict, key: str, valid_ids) -> set | str:
    """The selection `key` of `doc` as a set, or the message that says why
    it is malformed; `valid_ids` is set-like."""
    if key not in doc:
        return f"solution is missing {key!r}"
    items = doc[key]
    if not isinstance(items, list) or not _int_column(items):
        return f"{key!r} must be a list of element ids"
    out = set(items)
    if len(out) != len(items):
        return f"{key!r} contains duplicates"
    unknown = [e for e in out if e not in valid_ids]
    if unknown:
        return f"{key!r} references unknown elements {sorted(unknown)}"
    return out


def verify_solution(instance: Instance, doc: dict) -> list[str]:
    """Check a solution document against an instance; [] means valid.  Any
    malformed selection fails alone: one message each, and no other check."""
    matroid, costs, rank = instance.matroid, instance.costs, instance.rank
    selections = [_parse_selection(doc, key, matroid.ground) for key in ("X", "Y", "Z")]
    malformed = [s for s in selections if isinstance(s, str)]
    if malformed:
        return malformed
    X, Y, Z = selections
    failures = []
    for key, selection in (("X", X), ("Y", Y)):
        if len(selection) != rank or matroid.rank(selection) != rank:
            failures.append(f"{key} not a basis")
    overlap_required = instance.overlap_requirement
    if len(X & Y) < overlap_required:
        failures.append(
            f"overlap too small: X and Y share {len(X & Y)} elements, need {overlap_required}"
        )
    if not Z <= (X & Y):
        failures.append("Z not contained in X and Y")
    if len(Z) != overlap_required:
        failures.append(f"Z size mismatch: {len(Z)} != {overlap_required}")
    # expected sums stay in scaled units; a claim is scaled up to meet them
    first = sum(map(costs.C.__getitem__, X))
    second = sum(map(costs.second.__getitem__, Y))
    for key, expected in (("first_stage", first), ("second_stage", second), ("total", first + second)):
        if key not in doc:
            failures.append(f"missing field {key}")
            continue
        try:
            claimed = parse_exact(doc[key])
        except ParseError as exc:
            failures.append(f"unreadable {key}: {exc}")
            continue
        if claimed * costs.scale != expected:
            failures.append(f"cost mismatch: {key} claims {rat_str(claimed)}, "
                            f"selections cost {rat_str(rat(expected, costs.scale))}")
    return failures
