"""Exact solver for robust two-stage selection with an overlap requirement.

Given costs C (commit now) and c+d (recover later) per element, the task is
to pick a first selection X and second selection Y — spanning trees of one
graph, or bases of one matroid — sharing at least a required number of
elements, minimizing C(X) + (c+d)(Y).

The solver repeatedly optimizes the linear relaxation of the current
shrinking state and reads the optimal vertex:

* a zero overlap variable ends that element's overlap eligibility,
* a zero stage variable discards the element from that stage,
* a one stage variable commits the element (contracting it away),
* an element committed in both stages is banked toward the overlap quota.

Every optimal vertex of the relaxation admits at least one such move, each
move provably preserves the relaxation's optimal value, and the state only
shrinks — so the loop terminates with integral selections whose cost equals
the first relaxation bound, i.e. a certified optimum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .config import SolveConfig
from .errors import InternalError, NoIntegralCoordinate, ValidationError
from .instance import Instance
from .lpmodel import RelaxationModel, build_relaxation, cutting_plane_solve
from .matroids import MatroidInstance
from .rational import ONE, ZERO, Rat, parse_exact, rat_str
from .sides import GraphSide, MatroidSide


@dataclass(frozen=True)
class Solution:
    X: tuple[int, ...]
    Y: tuple[int, ...]
    Z: tuple[int, ...]
    first_stage: Rat
    second_stage: Rat
    total: Rat
    lp_bound: Rat
    iterations: int
    # diagnostics, not serialized
    rounds: int = 0
    cuts: int = 0


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
    return json.dumps(solution_to_dict(sol), sort_keys=True, separators=(",", ":")) + "\n"


@dataclass
class IterationInfo:
    """Snapshot handed to the observer after each relaxation round."""

    index: int
    objective: Rat
    values: dict
    model: RelaxationModel
    quota: int
    eligible: tuple[int, ...]  # overlap-eligible ids after the moves
    X: frozenset
    Y: frozenset
    Z: frozenset
    dropped_overlap: tuple[int, ...]
    dropped_x: tuple[int, ...]
    dropped_y: tuple[int, ...]
    fixed_x: tuple[int, ...]
    fixed_y: tuple[int, ...]
    banked: tuple[int, ...]
    # Every 1-valued stage coordinate at the vertex, before any strict-mode
    # truncation of the committed subset — lets observers audit integrality.
    ones_x: tuple[int, ...] = ()
    ones_y: tuple[int, ...] = ()


@dataclass
class _State:
    x_side: object
    y_side: object
    ez: set
    quota: int
    X: set = field(default_factory=set)
    Y: set = field(default_factory=set)
    Z: set = field(default_factory=set)


def _iterate_once(state: _State, model: RelaxationModel, values: dict, config: SolveConfig):
    """Apply one round of discard/commit/bank moves read off the vertex."""
    dropped_overlap = []
    for e in sorted(state.ez):
        if values[model.z_vars[e]] == ZERO:
            state.ez.remove(e)
            dropped_overlap.append(e)

    dropped_x = []
    for e in sorted(model.x_vars):
        if values[model.x_vars[e]] == ZERO:
            state.x_side = state.x_side.remove(e)
            dropped_x.append(e)

    dropped_y = []
    for e in sorted(model.y_vars):
        if values[model.y_vars[e]] == ZERO:
            state.y_side = state.y_side.remove(e)
            dropped_y.append(e)

    all_ones_x = [e for e in sorted(model.x_vars) if values[model.x_vars[e]] == ONE]
    ones_x = all_ones_x[:1] if config.mode == "strict" else all_ones_x
    for e in ones_x:
        state.X.add(e)
        state.x_side = state.x_side.fix(e)

    all_ones_y = [e for e in sorted(model.y_vars) if values[model.y_vars[e]] == ONE]
    ones_y = all_ones_y[:1] if config.mode == "strict" else all_ones_y
    for e in ones_y:
        state.Y.add(e)
        state.y_side = state.y_side.fix(e)

    banked = []
    for e in sorted(state.ez):
        if e in state.X and e in state.Y:
            state.ez.remove(e)
            state.Z.add(e)
            state.quota -= 1
            banked.append(e)

    if not (dropped_overlap or dropped_x or dropped_y or ones_x or ones_y):
        raise NoIntegralCoordinate(
            "optimal vertex has no zero to discard and no one to commit"
        )
    return dropped_overlap, dropped_x, dropped_y, ones_x, ones_y, banked, all_ones_x, all_ones_y


def _solve_core(x_side, y_side, costs, overlap_required: int, config: SolveConfig, on_iteration=None) -> Solution:
    state = _State(
        x_side=x_side,
        y_side=y_side,
        ez=set(x_side.element_ids) & set(y_side.element_ids),
        quota=overlap_required,
    )
    lp_bound = None
    iterations = 0
    rounds = 0
    cuts = 0

    while state.x_side.is_active() or state.y_side.is_active():
        if state.quota == 0 and state.ez:
            # the budget row pins every overlap variable to zero, so
            # eligibility is vacuous; drop it without solving
            state.ez = set()
        if config.greedy_completion and state.quota == 0 and not state.ez:
            w_first = {e: costs[e].C for e in state.x_side.element_ids}
            state.X.update(state.x_side.complete_min(w_first))
            w_second = {e: costs[e].second for e in state.y_side.element_ids}
            state.Y.update(state.y_side.complete_min(w_second))
            break

        model = build_relaxation(state.x_side, state.y_side, state.ez, state.quota, costs)
        result = cutting_plane_solve(model, config, dump_tag=f"it{iterations:04d}")
        rounds += result.rounds
        cuts += result.cuts_added
        if lp_bound is None:
            fixed_so_far = _fixed_cost(state, costs)
            lp_bound = fixed_so_far + result.solution.objective_value

        moves = _iterate_once(state, model, result.solution.values, config)
        iterations += 1

        if state.quota < 0:
            raise InternalError("overlap quota went negative")
        if state.quota + len(state.Z) != overlap_required:
            raise InternalError("overlap bookkeeping out of balance")

        if on_iteration is not None:
            d_ov, d_x, d_y, f_x, f_y, banked, all_x, all_y = moves
            on_iteration(IterationInfo(
                index=iterations - 1,
                objective=result.solution.objective_value,
                values=result.solution.values,
                model=model,
                quota=state.quota,
                eligible=tuple(sorted(state.ez)),
                X=frozenset(state.X),
                Y=frozenset(state.Y),
                Z=frozenset(state.Z),
                dropped_overlap=tuple(d_ov),
                dropped_x=tuple(d_x),
                dropped_y=tuple(d_y),
                fixed_x=tuple(f_x),
                fixed_y=tuple(f_y),
                banked=tuple(banked),
                ones_x=tuple(all_x),
                ones_y=tuple(all_y),
            ))

    if state.ez:
        raise InternalError("overlap-eligible elements survived past both stages")
    if state.quota != 0:
        raise InternalError(f"overlap quota {state.quota} left unmet")
    if not state.Z <= (state.X & state.Y):
        raise InternalError("banked overlap elements missing from a selection")

    first = sum((costs[e].C for e in state.X), ZERO)
    second = sum((costs[e].second for e in state.Y), ZERO)
    total = first + second
    if lp_bound is None:
        # no relaxation was ever solved: either nothing was selectable, or
        # the overlap requirement was void from the start and the two
        # stages were completed greedily — in both cases the relaxation
        # optimum coincides with the integral total (each stage polytope
        # is integral and no coupling row is active)
        lp_bound = total
    if total != lp_bound:
        raise InternalError(
            f"integral cost {rat_str(total)} differs from relaxation bound {rat_str(lp_bound)}"
        )
    return Solution(
        X=tuple(sorted(state.X)),
        Y=tuple(sorted(state.Y)),
        Z=tuple(sorted(state.Z)),
        first_stage=first,
        second_stage=second,
        total=total,
        lp_bound=lp_bound,
        iterations=iterations,
        rounds=rounds,
        cuts=cuts,
    )


def _fixed_cost(state: _State, costs) -> Rat:
    total = ZERO
    for e in state.X:
        total += costs[e].C
    for e in state.Y:
        total += costs[e].second
    return total


def solve_rrst(instance: Instance, config: SolveConfig | None = None, on_iteration=None) -> Solution:
    """Minimize C(X) + (c+d)(Y) over spanning-tree pairs with |X∩Y| large enough."""
    config = config or SolveConfig()
    if instance.n == 1:
        return Solution((), (), (), ZERO, ZERO, ZERO, ZERO, 0)
    return _solve_core(GraphSide(instance.graph), GraphSide(instance.graph), instance.costs,
                       instance.overlap_requirement, config, on_iteration)


def solve_rrmb(minstance: MatroidInstance, config: SolveConfig | None = None, on_iteration=None) -> Solution:
    """Minimize C(X) + (c+d)(Y) over basis pairs with |X∩Y| large enough."""
    config = config or SolveConfig()
    matroid = minstance.matroid
    if matroid.full_rank() == 0:
        return Solution((), (), (), ZERO, ZERO, ZERO, ZERO, 0)
    return _solve_core(MatroidSide(matroid), MatroidSide(matroid), minstance.costs,
                       minstance.overlap_requirement, config, on_iteration)


# --- solution verification -------------------------------------------------


def _parse_selection(doc: dict, key: str, valid_ids) -> set:
    if key not in doc:
        raise ValidationError(f"solution is missing {key!r}")
    items = doc[key]
    if not isinstance(items, list) or not all(isinstance(e, int) and not isinstance(e, bool) for e in items):
        raise ValidationError(f"{key!r} must be a list of element ids")
    out = set(items)
    if len(out) != len(items):
        raise ValidationError(f"{key!r} contains duplicates")
    unknown = out - set(valid_ids)
    if unknown:
        raise ValidationError(f"{key!r} references unknown elements {sorted(unknown)}")
    return out


def _is_spanning_tree(graph, edges: set) -> bool:
    return len(edges) == graph.node_count - 1 == len(graph.spanning_forest(edges))


def _check_common(doc, X, Y, Z, costs, overlap_required: int) -> list[str]:
    failures = []
    if len(X & Y) < overlap_required:
        failures.append(
            f"overlap too small: X and Y share {len(X & Y)} elements, need {overlap_required}"
        )
    if not Z <= (X & Y):
        failures.append("Z not contained in X and Y")
    if len(Z) != overlap_required:
        failures.append(f"Z size mismatch: {len(Z)} != {overlap_required}")
    first = sum((costs[e].C for e in X), ZERO)
    second = sum((costs[e].second for e in Y), ZERO)
    for key, expected in (("first_stage", first), ("second_stage", second), ("total", first + second)):
        if key not in doc:
            failures.append(f"missing field {key}")
            continue
        claimed = parse_exact(doc[key])
        if claimed != expected:
            failures.append(
                f"cost mismatch: {key} claims {rat_str(claimed)}, selections cost {rat_str(expected)}"
            )
    return failures


def verify_tree_solution(instance: Instance, doc: dict) -> list[str]:
    """Check a solution document against a tree instance; [] means valid."""
    ids = instance.graph.edge_ids()
    X = _parse_selection(doc, "X", ids)
    Y = _parse_selection(doc, "Y", ids)
    Z = _parse_selection(doc, "Z", ids)
    failures = []
    if not _is_spanning_tree(instance.graph, X):
        failures.append("X not spanning")
    if not _is_spanning_tree(instance.graph, Y):
        failures.append("Y not spanning")
    failures += _check_common(doc, X, Y, Z, instance.costs, instance.overlap_requirement)
    return failures


def verify_basis_solution(minstance: MatroidInstance, doc: dict) -> list[str]:
    """Check a solution document against a matroid instance; [] means valid."""
    matroid = minstance.matroid
    ids = sorted(matroid.ground)
    X = _parse_selection(doc, "X", ids)
    Y = _parse_selection(doc, "Y", ids)
    Z = _parse_selection(doc, "Z", ids)
    failures = []
    rank = matroid.full_rank()
    if len(X) != rank or matroid.rank(X) != rank:
        failures.append("X not a basis")
    if len(Y) != rank or matroid.rank(Y) != rank:
        failures.append("Y not a basis")
    failures += _check_common(doc, X, Y, Z, minstance.costs, minstance.overlap_requirement)
    return failures
