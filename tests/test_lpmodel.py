"""Relaxation models: shape, the merged b-only program, cutting-plane solving."""

from rrst.gen import generate_instance
from rrst.instance import CostColumns
from rrst.lpmodel import build_relaxation, cutting_plane_solve
from rrst.rational import rat
from rrst.sides import GraphSide, MatroidSide
from rrst.matroids import GraphicMatroid, UniformMatroid

from conftest import vertex_objective, vertex_values
from reference_separation import exhaustive_separate, separate_forest_exhaustive

ZERO, ONE = rat(0), rat(1)

K3 = GraphicMatroid(range(3), {0: (0, 1), 1: (0, 2), 2: (1, 2)})
UNIT = CostColumns.from_rows({e: (1, 1, 0) for e in range(3)})


def test_full_model_shape():
    costs = CostColumns.from_rows({e: (1, 2, 1) for e in range(3)})
    model = build_relaxation(GraphSide(K3), size=2, quota=1, costs=costs)
    assert model.reduced is None
    # 3m columns, one block of m after another: a (first stage only),
    # b (overlap), c (second stage only), each over the ids in order
    assert model.ids == [0, 1, 2]
    # exactly one equality row per block and no linking rows:
    # 1ᵀa = r - q, 1ᵀb = q, 1ᵀc = r - q with r = 2, q = 1;
    # objective: C on a, C + (c+d) on b, c+d on c
    assert model.blocks == [("a", [1, 1, 1], 1), ("b", [4, 4, 4], 1), ("c", [3, 3, 3], 1)]


def test_merged_model_when_everything_is_shared():
    costs = CostColumns.from_rows({e: (e, 2, 1) for e in range(3)})
    model = build_relaxation(GraphSide(K3), size=2, quota=2, costs=costs)
    assert model.reduced == "merged"
    # m columns in id order, the b block alone, under one row 1ᵀb = q,
    # with objective C + c + d
    assert model.ids == [0, 1, 2]
    assert model.blocks == [("b", [3, 4, 5], 2)]


def test_stage_rows_are_ascending_columns():
    """A cut x(S) <= r or y(S) <= r reaches the simplex as the ascending
    columns of its row of ones: S's columns in a and b for x, in b and c
    for y, and in b alone in the merged program."""
    costs = CostColumns.from_rows({e: (1, 2, 1) for e in range(3)})
    model = build_relaxation(GraphSide(K3), size=2, quota=1, costs=costs)
    assert model.stage_row([0, 2], "x") == [0, 2, 3, 5]
    assert model.stage_row([0, 2], "y") == [3, 5, 6, 8]
    merged = build_relaxation(GraphSide(K3), size=2, quota=2, costs=costs)
    assert merged.stage_row([0, 2], "x") == merged.stage_row([0, 2], "y") == [0, 2]


def test_merged_model_for_uniform_matroid_at_k0():
    m = UniformMatroid(frozenset(range(5)), 3)
    costs = CostColumns.from_rows({e: (e, 4 - e, 0) for e in range(5)})
    model = build_relaxation(MatroidSide(m), size=3, quota=3, costs=costs)
    assert model.reduced == "merged"
    result = cutting_plane_solve(model)
    assert vertex_objective(result.solution) == rat(12)
    assert sorted(vertex_values(result.solution)) == [ZERO, ZERO, ONE, ONE, ONE]


def test_cutting_plane_merged_k3():
    model = build_relaxation(GraphSide(K3), size=2, quota=2, costs=UNIT)
    result = cutting_plane_solve(model)
    # optimum picks two cheapest edges; C + c + d = 2 each
    assert vertex_objective(result.solution) == rat(4)
    vals = sorted(vertex_values(result.solution))
    assert vals == [ZERO, ONE, ONE]


def _initial_model(inst):
    return build_relaxation(GraphSide(inst.matroid), inst.rank, inst.overlap_requirement, inst.costs)


def test_cutting_plane_adds_cuts_and_final_point_is_clean():
    inst = generate_instance(5, 0.5, 1, 10, 1)
    model = _initial_model(inst)
    result = cutting_plane_solve(model)
    assert result.rounds >= 1 and result.cuts_added >= 1
    values, den = result.solution.values, result.solution.den
    # the final x and y stage points, int numerators over den, admit no
    # violated forest constraint
    for stage in ("x", "y"):
        point = model.stage_point(values, stage)
        assert sum(point.values()) == model.side.matroid.full_rank() * den
        assert separate_forest_exhaustive(point, den, model.side.matroid) is None


def test_exhaustive_separation_agrees_with_mincut(monkeypatch):
    inst = generate_instance(5, 0.6, 2, 8, 3)
    r1 = cutting_plane_solve(_initial_model(inst))
    monkeypatch.setattr(GraphSide, "separate", exhaustive_separate)
    r2 = cutting_plane_solve(_initial_model(inst))
    assert vertex_objective(r1.solution) == vertex_objective(r2.solution)


def test_matroid_side_model():
    m = UniformMatroid(frozenset(range(4)), 2)
    costs = CostColumns.from_rows({e: (e, 3 - e, 0) for e in range(4)})
    model = build_relaxation(MatroidSide(m), size=2, quota=1, costs=costs)
    assert model.reduced is None  # quota below the rank: the a/b/c model
    result = cutting_plane_solve(model)
    assert type(result.solution.objective) is int
    for stage in ("x", "y"):
        point = model.stage_point(vertex_values(result.solution), stage)
        assert sum(point.values()) == rat(2)
        assert max(point.values()) <= ONE
