"""End-to-end solver: known optima, invariants, separation routes, verify."""

import json
import random

import pytest

from rrst import solver
from rrst.errors import InternalError, ValidationError
from rrst.gen import builtin_small_suite, generate_instance
from rrst.instance import CostColumns, Instance, instance_to_dict, loads_instance
from rrst.matroids import GraphicMatroid, Matroid, PartitionMatroid, UniformMatroid
from rrst.oracle import brute_force
from rrst.rational import rat
from rrst.sides import GraphSide, MatroidSide
from rrst.simplex import SimplexSession
from rrst.solver import serialize_solution, solution_to_dict, solve, verify_solution

from conftest import GenericOracleMatroid, graphic_twin, make_instance, make_uniform_instance, TRIANGLE_PAIRS
from reference_separation import exhaustive_separate

ZERO, ONE = rat(0), rat(1)


def test_triangle_unit_k0(triangle_unit):
    sol = solve(triangle_unit)
    assert sol.total == rat(4)
    assert sol.X == sol.Y  # zero budget forces identical trees
    assert len(sol.Z) == 2 and set(sol.Z) == set(sol.X)
    assert sol.lp_bound == sol.total


def test_triangle_all_unit_k0():
    inst = make_instance(3, TRIANGLE_PAIRS, [(1, 1, 1)] * 3, k=0)
    sol = solve(inst)
    assert sol.total == rat(6)


def test_triangle_free_recovery_k2():
    inst = make_instance(3, TRIANGLE_PAIRS, [(1, 3, 0), (2, 2, 0), (3, 1, 0)], k=2)
    sol = solve(inst)
    # stages decouple: cheapest first-stage tree plus cheapest second-stage tree
    assert sol.first_stage == rat(3)
    assert sol.second_stage == rat(3)
    assert sol.total == rat(6)
    assert sol.Z == ()


def test_triangle_asymmetric_k1():
    inst = make_instance(3, TRIANGLE_PAIRS, [(1, 9, 0), (2, 1, 0), (9, 2, 1)], k=1)
    sol = solve(inst)
    ref = brute_force(inst)
    assert sol.total == ref.total == rat(7)
    failures = verify_solution(inst, solution_to_dict(sol))
    assert failures == []


def test_single_node_and_single_edge():
    sol = solve(make_instance(1, [], [], k=0))
    assert sol.total == ZERO and sol.X == () and sol.iterations == 0
    sol2 = solve(make_instance(2, [(0, 1)], [(3, 2, 1)], k=0))
    assert sol2.total == rat(6)
    assert sol2.X == sol2.Y == (0,) and sol2.Z == (0,)
    sol3 = solve(make_instance(2, [(0, 1)], [(3, 2, 1)], k=1))
    assert sol3.total == rat(6) and sol3.Z == ()


def test_parallel_edges_instance():
    inst = make_instance(2, [(0, 1), (0, 1)], [(5, 1, 0), (1, 5, 0)], k=1)
    sol = solve(inst)
    # X buys the cheap-now edge, Y the cheap-later one
    assert sol.total == rat(2)
    assert sol.X == (1,) and sol.Y == (0,)


def test_solution_serialization_is_canonical(triangle_unit):
    sol = solve(triangle_unit)
    text = serialize_solution(sol)
    doc = json.loads(text)
    assert set(doc) == {"X", "Y", "Z", "first_stage", "second_stage", "total",
                        "lp_bound", "iterations"}
    assert text == serialize_solution(solve(triangle_unit))
    assert text.endswith("\n")


def test_matroid_uniform_known():
    mi = make_uniform_instance(
        5, 3, [(4, 1, 1), (2, 5, 0), (3, 3, 2), (1, 4, 4), (5, 2, 1)], k=1
    )
    sol = solve(mi)
    ref = brute_force(mi)
    assert sol.total == ref.total == rat(17)
    assert verify_solution(mi, solution_to_dict(sol)) == []


def test_matroid_rank_zero():
    mi = make_uniform_instance(3, 0, [(1, 1, 1)] * 3, k=0)
    sol = solve(mi)
    assert sol.total == ZERO and sol.X == ()


def test_graphic_matroid_equals_tree_solver():
    # a tree document and its graphic-matroid document read into the same
    # instance: same solution document
    for seed in range(8):
        inst = generate_instance(5, 0.6, seed % 5, 9, seed + 100)
        mi = graphic_twin(inst)
        tree_sol = solve(inst)
        basis_sol = solve(mi)
        assert serialize_solution(tree_sol) == serialize_solution(basis_sol), f"seed {seed}"
        assert verify_solution(mi, solution_to_dict(basis_sol)) == []
        assert verify_solution(inst, solution_to_dict(tree_sol)) == []


def test_matroid_instance_computes_its_full_rank_once(monkeypatch):
    """An LP solve and a verify take the selection size from the instance
    (the rank, n - 1 for a tree) and scan no matroid or graph for it again."""
    inst = generate_instance(6, 0.6, 2, 9, 7)
    costs = CostColumns.from_rows({e: (e % 3, 5 - e % 4, e % 2) for e in range(7)})
    instances = [
        inst,
        graphic_twin(inst),
        Instance(matroid=UniformMatroid(frozenset(range(7)), 4), costs=costs, k=1),
        Instance(matroid=PartitionMatroid([(frozenset({0, 1, 2}), 2), (frozenset({3, 4, 5, 6}), 2)]),
                 costs=costs, k=1),
    ]
    assert [(mi.rank, mi.overlap_requirement) for mi in instances] == [(5, 3), (5, 3), (4, 3), (4, 3)]

    def again(*args):
        raise AssertionError("selection size computed again")

    monkeypatch.setattr(Matroid, "full_rank", again)
    monkeypatch.setattr(GraphicMatroid, "full_rank", again)
    for mi in instances:
        sol = solve(mi)
        assert sol.iterations == 1
        assert verify_solution(mi, solution_to_dict(sol)) == []


def _random_graphic_matroid(rng):
    """Multigraph on 2-6 nodes, edges drawn with repetition (parallel edges,
    often disconnected)."""
    n = rng.randint(2, 6)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {eid: rng.choice(pairs) for eid in range(rng.randint(1, 9))}
    return GraphicMatroid(range(n), edges)


def test_graphic_matroid_forests_match_oracle():
    rng = random.Random(5150)
    seen = {"disconnected": 0, "parallel": 0}
    for trial in range(80):
        matroid = _random_graphic_matroid(rng)
        seen["disconnected"] += matroid.full_rank() < len(matroid.nodes) - 1
        seen["parallel"] += len(set(map(frozenset, matroid.edges.values()))) < len(matroid.edges)
        costs = CostColumns.from_rows({e: (rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9))
                                       for e in sorted(matroid.ground)})
        mi = Instance(matroid=matroid, costs=costs, k=rng.randint(0, matroid.full_rank()))
        sol = solve(mi)
        assert sol.total == brute_force(mi).total, f"trial {trial}"
        assert verify_solution(mi, solution_to_dict(sol)) == [], f"trial {trial}"
    assert all(seen.values()), seen


def _costs_of(ids):
    return [{"id": e, "C": (3 * e) % 5, "c": (2 * e + 1) % 4, "d": e % 3} for e in ids]


# capacities and ranks at and past their edges, where a selection is empty
# or holds a whole part
CAPACITY_EDGE_DOCS = {
    "partition caps 0, size and past size": {
        "family": "partition", "costs": _costs_of(range(7)),
        "parts": [{"elements": [0, 1], "cap": 0}, {"elements": [2, 3], "cap": 2},
                  {"elements": [4, 5, 6], "cap": 5}]},
    "uniform rank past its elements": {
        "family": "uniform", "elements": [0, 1, 2], "rank": 5, "costs": _costs_of(range(3))},
    "uniform with no elements": {"family": "uniform", "elements": [], "rank": 2, "costs": []},
    "partition with no parts": {"family": "partition", "parts": [], "costs": []},
    "graphic with no edges": {"family": "graphic", "nodes": 4, "edges": [], "costs": []},
}


@pytest.mark.parametrize("doc", CAPACITY_EDGE_DOCS.values(), ids=CAPACITY_EDGE_DOCS.keys())
def test_capacity_edges_match_brute_force_at_every_k(doc):
    rank = loads_instance(json.dumps(dict(doc, k=0))).rank
    for k in range(rank + 1):
        mi = loads_instance(json.dumps(dict(doc, k=k)))
        sol = solve(mi)
        assert sol.total == brute_force(mi).total, k
        assert verify_solution(mi, solution_to_dict(sol)) == [], k


def test_large_capacity_documents_never_ask_the_independence_test(monkeypatch):
    """Reading, solving with no overlap owed and verifying an 8,000-element
    uniform or partition document take the per-part scan in every layer
    and never the independence test, which as a greedy scan's step made
    each layer quadratic in the document."""
    m = 8000
    costs = [{"id": e, "C": (7 * e) % 101, "c": (13 * e) % 97, "d": e % 5} for e in range(m)]
    docs = [{"family": "uniform", "elements": list(range(m)), "rank": m // 2},
            {"family": "partition", "parts": [{"elements": list(range(i, i + 50)), "cap": 25}
                                              for i in range(0, m, 50)]}]

    def refused(*args):
        raise AssertionError("independence test called")

    monkeypatch.setattr(PartitionMatroid, "is_independent", refused)
    totals = []
    for doc in docs:
        mi = loads_instance(json.dumps(dict(doc, k=m // 2, costs=costs)))
        assert mi.rank == mi.k == m // 2
        sol = solve(mi)
        assert (sol.rounds, sol.cuts, len(sol.X), len(sol.Y), sol.Z) == (0, 0, m // 2, m // 2, ())
        assert verify_solution(mi, solution_to_dict(sol)) == []
        totals.append(sol.total)
    # the uniform matroid's two stages are its m // 2 cheapest elements
    C = sorted(e["C"] for e in costs)
    second = sorted(e["c"] + e["d"] for e in costs)
    assert totals[0] == sum(C[:m // 2]) + sum(second[:m // 2])


def test_a_family_with_no_solve_route_is_refused_at_every_k():
    """Only graphic, uniform and partition matroids have a solve route; a
    matroid given by its independence test alone is refused as input at
    every k, the greedy k = rank included, and never reaches separation."""
    k4 = GraphicMatroid(range(4), dict(enumerate([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])))
    matroid = GenericOracleMatroid(k4.ground, k4.is_independent)
    costs = CostColumns.from_rows({e: (e, 5 - e, e % 2) for e in range(6)})
    for k in range(matroid.full_rank() + 1):
        mi = Instance(matroid=matroid, costs=costs, k=k)
        with pytest.raises(ValidationError, match="no solve route for the oracle matroid family"):
            solve(mi)


def test_graphic_document_naming_a_huge_node_count_solves_on_its_edges():
    """A graphic matroid is built on the nodes its edges touch: an isolated
    node adds one to both the node count and the number of components, so
    10**9 nodes with 3 edges solve at once, as with 4 nodes."""
    def doc(nodes):
        return json.dumps({"family": "graphic", "nodes": nodes, "k": 1,
                           "edges": [{"id": 0, "u": 0, "v": 1}, {"id": 1, "u": 1, "v": 2},
                                     {"id": 2, "u": 0, "v": 2}],
                           "costs": [{"id": 0, "C": 1, "c": 4, "d": 0}, {"id": 1, "C": 5, "c": 0, "d": 1},
                                     {"id": 2, "C": 3, "c": 2, "d": 2}]})

    huge, small = loads_instance(doc(10**9)), loads_instance(doc(4))
    assert len(huge.matroid.nodes) == len(small.matroid.nodes) == 3
    assert huge.matroid.full_rank() == small.matroid.full_rank() == 2
    sol = solve(huge)
    assert serialize_solution(sol) == serialize_solution(solve(small))
    assert sol.X != sol.Y and sol.total == brute_force(huge).total
    assert verify_solution(huge, solution_to_dict(sol)) == []


def test_equal_weights_complete_to_the_lowest_ids_in_any_document_order():
    """Greedy completion breaks weight ties by id, even when the document
    lists the edges in descending id order: the sort by weight is stable
    over the sorted ids."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = [{"id": e, "u": u, "v": v, "C": 2, "c": 1, "d": 1} for e, (u, v) in enumerate(pairs)]
    inst = loads_instance(json.dumps({"nodes": 4, "k": 3, "edges": edges[::-1]}))
    assert list(inst.matroid.edges) == list(inst.costs.C) == [5, 4, 3, 2, 1, 0]
    assert GraphSide(inst.matroid).complete_min(inst.costs.C) == [0, 1, 2]
    sol = solve(inst)
    assert sol.X == sol.Y == (0, 1, 2)
    ground = frozenset(range(32, -1, -4))
    assert list(ground) != sorted(ground)
    weights = dict.fromkeys(sorted(ground, reverse=True), 7)
    assert MatroidSide(UniformMatroid(ground, 3)).complete_min(weights) == [0, 4, 8]


def _reference_kruskal(nodes, ends, weights) -> tuple:
    """A minimum spanning tree, ids ascending: a Kruskal scan over the ids
    sorted by (weight, id), which keeps a component label per node and
    relabels the smaller side of each edge it takes."""
    label = {v: v for v in nodes}
    members = {v: [v] for v in nodes}
    tree = []
    for e in sorted(ends, key=lambda e: (weights[e], e)):
        a, b = (label[x] for x in ends[e])
        if a != b:
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for x in members.pop(b):
                label[x] = a
                members[a].append(x)
            tree.append(e)
    return tuple(sorted(tree))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_greedy_route_at_benchmark_size_matches_a_reference_kruskal_scan(seed):
    """With k = n - 1 no overlap is owed, and X and Y are the minimum
    spanning trees under C and under c + d, ties broken by id.  At the
    benchmark's greedy size, both document kinds must give them."""
    doc = instance_to_dict(generate_instance(180, 0.3, 179, 50, seed))
    ends = {e["id"]: (e["u"], e["v"]) for e in doc["edges"]}
    first = {e["id"]: e["C"] for e in doc["edges"]}
    second = {e["id"]: e["c"] + e["d"] for e in doc["edges"]}
    X, Y = _reference_kruskal(range(180), ends, first), _reference_kruskal(range(180), ends, second)
    tree = loads_instance(json.dumps(doc))
    for inst in (tree, graphic_twin(tree)):
        sol = solve(inst)
        assert (sol.X, sol.Y, sol.Z, sol.rounds, sol.cuts) == (X, Y, (), 0, 0)
        assert sol.total == sum(map(first.get, X)) + sum(map(second.get, Y))
        assert verify_solution(inst, solution_to_dict(sol)) == []


@pytest.mark.parametrize("separation", ["mincut", "exhaustive"])
def test_separations_agree_with_oracle(separation, monkeypatch):
    """Whole solves reach the oracle's totals on trees, uniform and
    partition matroids, by each side's own route or with the exhaustive
    reference patched in for it."""
    cuts = {GraphSide: 0, MatroidSide: 0}

    def counted(route):
        def wrapper(side, point, unit):
            cut = route(side, point, unit)
            cuts[type(side)] += cut is not None
            return cut
        return wrapper

    for cls in (GraphSide, MatroidSide):
        route = exhaustive_separate if separation == "exhaustive" else cls.separate
        monkeypatch.setattr(cls, "separate", counted(route))
    for seed in range(6):
        inst = generate_instance(5, 0.5, seed % 5, 8, seed)
        sol = solve(inst)
        ref = brute_force(inst)
        assert sol.total == ref.total, f"seed {seed}"
        assert verify_solution(inst, solution_to_dict(sol)) == []
    rng = random.Random(17)
    matroids = [UniformMatroid(frozenset(range(7)), 3),
                PartitionMatroid([(frozenset({0, 1, 2}), 1), (frozenset({3, 4, 5, 6}), 2)])]
    for matroid in matroids:
        for k in range(matroid.full_rank()):
            for _ in range(2):
                costs = CostColumns.from_rows({e: (rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9))
                                               for e in sorted(matroid.ground)})
                mi = Instance(matroid=matroid, costs=costs, k=k)
                sol = solve(mi)
                assert sol.total == brute_force(mi).total, (matroid.family, k)
                assert verify_solution(mi, solution_to_dict(sol)) == []
    # both routes found cuts, so each drove the solves it was patched into
    assert min(cuts.values()) > 0, cuts


def test_cut_loop_separates_only_points_on_the_selection_size(monkeypatch):
    """Every point the cut loop separates is int numerators over a positive
    int unit, with no Fraction in it, and sums to exactly the selection
    size, the rank of the side, times the unit; the fast separation routes
    rely on it."""
    off = []
    calls = {GraphSide: 0, MatroidSide: 0}

    def checked(separate):
        def wrapper(side, point, unit):
            calls[type(side)] += 1
            assert all(type(v) is int for v in point.values()), point
            assert type(unit) is int and unit > 0, unit
            total = sum(point.values())
            if total != side.matroid.full_rank() * unit:
                off.append((side, total, unit))
            return separate(side, point, unit)
        return wrapper

    for cls in (GraphSide, MatroidSide):
        monkeypatch.setattr(cls, "separate", checked(cls.separate))
    for _, inst in builtin_small_suite():
        solve(inst)
    matroids = [UniformMatroid(frozenset(range(m)), r) for m, r in [(4, 2), (6, 3), (7, 5)]]
    matroids += [PartitionMatroid([(frozenset(e), c) for e, c in parts]) for parts in [
        [((0, 1, 2), 1), ((3, 4, 5), 2), ((6, 7), 0)],
        [((0, 1), 1), ((2, 3), 1), ((4, 5, 6), 3)],
    ]]
    rng = random.Random(31)
    for matroid in matroids:
        for k in range(matroid.full_rank() + 1):
            for _ in range(3):
                costs = CostColumns.from_rows({e: (rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9))
                                               for e in sorted(matroid.ground)})
                solve(Instance(matroid=matroid, costs=costs, k=k))
    assert min(calls.values()) > 100 and not off, (calls, off[:3])


def test_fractional_vertex_raises_internal_error(monkeypatch):
    real = solver.cutting_plane_solve

    def half_vertex(model):
        result = real(model)
        vertex = result.solution
        # the same vertex over twice its denominator, with one numerator
        # set strictly between 0 and den: a value of 1/2
        den = 2 * vertex.den
        values = [2 * v for v in vertex.values]
        values[0] = vertex.den
        vertex = vertex._replace(values=values, den=den, objective=2 * vertex.objective)
        return result._replace(solution=vertex)

    monkeypatch.setattr(solver, "cutting_plane_solve", half_vertex)
    with pytest.raises(InternalError, match="fractional"):
        solve(generate_instance(5, 0.5, 1, 9, 3))


def test_lp_bound_equals_total_across_seeds():
    for seed in range(10):
        inst = generate_instance(5, 0.6, seed % 5, 10, seed + 200)
        sol = solve(inst)
        assert sol.lp_bound == sol.total, f"seed {seed}"


# --- verification ------------------------------------------------------


def _tamper(doc, **changes):
    out = json.loads(json.dumps(doc))
    out.update(changes)
    return out


def test_verify_catches_non_spanning_x(triangle_unit):
    doc = solution_to_dict(solve(triangle_unit))
    bad = _tamper(doc, X=[0, 1][:1] + [0, 1][1:])  # sanity: same doc passes
    assert verify_solution(triangle_unit, bad) == []
    bad = _tamper(doc, X=[0])
    msgs = verify_solution(triangle_unit, bad)
    assert any("X not a basis" in m for m in msgs)


def test_verify_catches_cost_mismatch(triangle_unit):
    doc = solution_to_dict(solve(triangle_unit))
    bad = _tamper(doc, total="999")
    msgs = verify_solution(triangle_unit, bad)
    assert any("cost mismatch" in m for m in msgs)


def test_verify_catches_overlap_cheating():
    inst = make_instance(3, TRIANGLE_PAIRS, [(1, 1, 0)] * 3, k=0)
    doc = solution_to_dict(solve(inst))
    bad = _tamper(doc, Y=[1, 2] if doc["X"] == [0, 1] else [0, 1])
    msgs = verify_solution(inst, bad)
    assert any("overlap too small" in m for m in msgs)


def test_verify_catches_bad_witness(triangle_unit):
    doc = solution_to_dict(solve(triangle_unit))
    bad = _tamper(doc, Z=[])
    msgs = verify_solution(triangle_unit, bad)
    assert any("Z size mismatch" in m for m in msgs)
    outside = [e for e in (0, 1, 2) if e not in doc["X"] or e not in doc["Y"]]
    if outside:
        bad2 = _tamper(doc, Z=[doc["Z"][0], outside[0]][: len(doc["Z"])])
        if sorted(bad2["Z"]) != sorted(doc["Z"]):
            msgs2 = verify_solution(triangle_unit, bad2)
            assert msgs2


class _Id(int):
    """An int subclass, as an id read by a JSON decoder's parse_int may be."""


def test_verify_rejects_malformed_selections(triangle_unit):
    doc = solution_to_dict(solve(triangle_unit))
    assert verify_solution(triangle_unit, _tamper(doc, X=[0, 0])) == ["'X' contains duplicates"]
    assert verify_solution(triangle_unit, _tamper(doc, X=[99, 1])) == ["'X' references unknown elements [99]"]
    assert verify_solution(triangle_unit, {k: v for k, v in doc.items() if k != "X"}) == ["solution is missing 'X'"]
    # a bool is not an id, though it is an int; any other int subclass is
    assert verify_solution(triangle_unit, _tamper(doc, X=[True, *doc["X"][1:]])) == [
        "'X' must be a list of element ids"]
    assert verify_solution(triangle_unit, dict(doc, X=[_Id(e) for e in doc["X"]])) == []
    # every malformed selection is named, in X, Y, Z order, and nothing else
    # is checked
    assert verify_solution(triangle_unit, {"Y": "0", "Z": [5, 5], "total": "0"}) == [
        "solution is missing 'X'", "'Y' must be a list of element ids", "'Z' contains duplicates"]


def test_verify_names_unknown_elements_in_order(triangle_unit):
    doc = solution_to_dict(solve(triangle_unit))
    assert verify_solution(triangle_unit, _tamper(doc, Y=[9, 0, 7])) == ["'Y' references unknown elements [7, 9]"]
    mi = make_uniform_instance(4, 2, [(1, 1, 0)] * 4, k=0)
    doc = solution_to_dict(solve(mi))
    assert verify_solution(mi, _tamper(doc, Z=[4, -1])) == ["'Z' references unknown elements [-1, 4]"]


def test_verify_basis_catches_non_basis():
    mi = make_uniform_instance(4, 2, [(1, 1, 0)] * 4, k=0)
    doc = solution_to_dict(solve(mi))
    msgs = verify_solution(mi, _tamper(doc, X=[0]))
    assert any("X not a basis" in m for m in msgs)
    bad2 = _tamper(doc, X=sorted(set(range(4)) - set(doc["X"])))
    msgs2 = verify_solution(mi, bad2)
    assert msgs2  # overlap with Z breaks even though X is a basis


def test_missing_cost_field_reported(triangle_unit):
    doc = solution_to_dict(solve(triangle_unit))
    del doc["total"]
    msgs = verify_solution(triangle_unit, doc)
    assert any("missing field total" in m for m in msgs)


# (rounds, cuts, dual pivots) of seeds 1-6 of generate_instance(n, 0.3, k, 50, seed)
PINNED_CUT_PATHS = {
    (9, 4): [(9, 15, 24), (8, 14, 20), (11, 18, 40), (9, 16, 36), (7, 14, 26), (9, 15, 45)],
    (12, 6): [(17, 34, 91), (13, 25, 75), (15, 29, 68), (19, 29, 65), (11, 21, 43), (16, 27, 85)],
    (16, 0): [(14, 14, 14)] * 6,
}


@pytest.fixture
def counted_solve(monkeypatch):
    """`solve` that also returns the simplex pivots the solve took,
    counted by wrapping SimplexSession._pivot."""
    pivots = 0
    real = SimplexSession._pivot

    def counted(self, r, c):
        nonlocal pivots
        pivots += 1
        return real(self, r, c)

    monkeypatch.setattr(SimplexSession, "_pivot", counted)

    def run(instance):
        nonlocal pivots
        pivots = 0
        sol = solve(instance)
        return sol, pivots

    return run


def test_cut_path_is_pinned(counted_solve):
    """The cut loop's path on fixed mid-k and k=0 trees: a change to the
    simplex or separation kernels that alters a pivot, a cut or a round
    fails here even where no tie changes a document."""
    for (n, k), recorded in PINNED_CUT_PATHS.items():
        path = []
        for seed in range(1, 7):
            sol, pivots = counted_solve(generate_instance(n, 0.3, k, 50, seed))
            path.append((sol.rounds, sol.cuts, pivots))
        assert path == recorded, (n, k)


def _pivot_bound_corpus():
    """The builtin suite, seeded trees on 6-16 nodes at every k, and 150
    seeded uniform and partition matroids of 4-16 elements."""
    yield from (inst for _, inst in builtin_small_suite())
    for n in range(6, 17):
        for k in range(n):
            yield generate_instance(n, 0.4, k, 30, 100 * n + k)
    rng = random.Random(5)
    for i in range(150):
        m = rng.randint(4, 16)
        if i % 2:
            matroid = UniformMatroid(frozenset(range(m)), rng.randint(1, m - 1))
        else:
            parts, start = [], 0
            while start < m:
                size = rng.randint(1, 5)
                parts.append((frozenset(range(start, start + size)), rng.randint(0, size)))
                start += size
            matroid = PartitionMatroid(parts)
        costs = CostColumns.from_rows({e: (rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 20))
                                       for e in sorted(matroid.ground)})
        yield Instance(matroid=matroid, costs=costs, k=rng.randint(0, matroid.full_rank()))


def test_pivots_bound_the_cut_rounds(counted_solve):
    """The simplex's pivot bound is the solver's one size bound, because
    it bounds the cut rounds too: every row a round adds is violated at
    the current vertex, so its slack enters the tableau negative and the
    dual simplex pivots at least once per round.  Checked on every LP
    solve of a broad corpus of trees and uniform and partition matroids."""
    solves = 0
    seen = set()
    for instance in _pivot_bound_corpus():
        sol, pivots = counted_solve(instance)
        if sol.rounds:
            solves += 1
            seen.add(instance.matroid.family)
            assert pivots >= sol.rounds, (instance.matroid.family, sol.rounds, pivots)
    assert solves >= 500 and seen == {"graphic", "uniform", "partition"}
