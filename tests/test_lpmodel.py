"""Relaxation models: shape, the merged b-only program, cutting-plane solving."""

import pytest

from rrst.errors import InfeasibleModel, InternalError, TooLarge
from rrst.gen import generate_instance
from rrst.instance import CostColumns
from rrst import lpmodel
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


def test_merged_model_for_uniform_matroid_at_k0():
    m = UniformMatroid(frozenset(range(5)), 3)
    costs = CostColumns.from_rows({e: (e, 4 - e, 0) for e in range(5)})
    model = build_relaxation(MatroidSide(m), size=3, quota=3, costs=costs)
    assert model.reduced == "merged"
    result = cutting_plane_solve(model)
    assert vertex_objective(result.solution) == rat(12)
    assert sorted(vertex_values(result.solution)) == [ZERO, ZERO, ONE, ONE, ONE]


def test_infeasible_when_quota_has_no_carriers():
    # an overlap beyond the selection size cannot be carried
    model = build_relaxation(GraphSide(K3), size=2, quota=3, costs=UNIT)
    with pytest.raises(InfeasibleModel):
        cutting_plane_solve(model)


def test_internal_errors_on_broken_state():
    with pytest.raises(InternalError):
        build_relaxation(GraphSide(K3), size=2, quota=-1, costs=UNIT)
    with pytest.raises(InternalError):
        # no overlap owed: the solver completes such a state greedily
        build_relaxation(GraphSide(K3), size=2, quota=0, costs=UNIT)
    # nothing to select: the columns come from the costs, so every block is
    # empty, and the session refuses an empty block
    model = build_relaxation(GraphSide(GraphicMatroid(range(1), {})), size=0, quota=1,
                             costs=CostColumns.from_rows({}))
    with pytest.raises(InternalError, match="block 0 has no column"):
        cutting_plane_solve(model)


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


def test_round_limit_guard(monkeypatch):
    inst = generate_instance(5, 0.5, 1, 10, 1)
    model = _initial_model(inst)
    monkeypatch.setattr(lpmodel, "_ROUND_LIMIT", 0)
    with pytest.raises(TooLarge, match="cutting-plane rounds exceeded 0"):
        cutting_plane_solve(model)


def test_exhaustive_separation_agrees_with_mincut(monkeypatch):
    inst = generate_instance(5, 0.6, 2, 8, 3)
    r1 = cutting_plane_solve(_initial_model(inst))
    monkeypatch.setattr(GraphSide, "separate", exhaustive_separate)
    r2 = cutting_plane_solve(_initial_model(inst))
    assert vertex_objective(r1.solution) == vertex_objective(r2.solution)


def test_lp_dump_written():
    """The result carries what `--lp-dump-dir` writes: its model and the
    cut rows, which render the program."""
    model = build_relaxation(GraphSide(K3), 2, 2, UNIT)
    result = cutting_plane_solve(model)
    assert result.model is model and result.cuts_added == len(result.cuts)
    assert "r0: 1 b0 + 1 b1 + 1 b2 == 2" in model.render(result.cuts)


K4 = GraphicMatroid(range(4), {0: (0, 1), 1: (0, 2), 2: (0, 3), 3: (1, 2), 4: (1, 3), 5: (2, 3)})
K4_COSTS = CostColumns.from_rows({0: (1, 4, 0), 1: (2, 0, 3), 2: (3, 3, 3), 3: (1, 0, 3), 4: (0, 3, 3), 5: (4, 0, 3)})

_ABC_NONNEGATIVE = "".join(f"{block}{e} >= 0\n" for block in "abc" for e in range(6))
_B_NONNEGATIVE = "".join(f"b{e} >= 0\n" for e in range(6))

# the relaxation as `--lp-dump-dir` writes it, rendered from the cut loop's
# result: the objective without its zero terms (a4 costs 0), the block rows,
# then the cut rows in order of addition, each over the columns in block
# order
LP_DUMPS = {
    "abc-with-cuts": (1, (
        "min 1 a0 + 2 a1 + 3 a2 + 1 a3 + 4 a5 + 5 b0 + 5 b1 + 9 b2 + 4 b3 + 6 b4 + 7 b5"
        " + 4 c0 + 3 c1 + 6 c2 + 3 c3 + 6 c4 + 3 c5\n"
        "s.t.\n"
        "r0: 1 a0 + 1 a1 + 1 a2 + 1 a3 + 1 a4 + 1 a5 == 2\n"
        "r1: 1 b0 + 1 b1 + 1 b2 + 1 b3 + 1 b4 + 1 b5 == 1\n"
        "r2: 1 c0 + 1 c1 + 1 c2 + 1 c3 + 1 c4 + 1 c5 == 2\n"
        "r3: 1 a3 + 1 a4 + 1 a5 + 1 b3 + 1 b4 + 1 b5 <= 2\n"
        "r4: 1 b0 + 1 b1 + 1 b3 + 1 c0 + 1 c1 + 1 c3 <= 2\n"
    ) + _ABC_NONNEGATIVE),
    "merged-with-cuts": (3, (
        "min 5 b0 + 5 b1 + 9 b2 + 4 b3 + 6 b4 + 7 b5\n"
        "s.t.\n"
        "r0: 1 b0 + 1 b1 + 1 b2 + 1 b3 + 1 b4 + 1 b5 == 3\n"
        "r1: 1 b3 <= 1\n"
        "r2: 1 b0 + 1 b1 + 1 b3 <= 2\n"
    ) + _B_NONNEGATIVE),
}


@pytest.mark.parametrize("quota, text", LP_DUMPS.values(), ids=LP_DUMPS.keys())
def test_lp_dump_text_is_pinned(quota, text):
    """The dumped relaxation, byte for byte, for an a/b/c program and a
    merged (k=0) one, each of which takes cuts."""
    model = build_relaxation(GraphSide(K4), 3, quota, K4_COSTS)
    result = cutting_plane_solve(model)
    assert result.cuts_added == 2
    assert result.model.render(result.cuts).encode() == text.encode()


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
