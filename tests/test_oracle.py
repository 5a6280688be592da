"""Exhaustive reference solver: basis enumeration as the oracle takes it,
its bound, and the pair scan."""

import itertools
import random

import pytest

from rrst import matroids, oracle
from rrst.errors import TooLarge
from rrst.gen import generate_instance
from rrst.instance import CostColumns, Instance
from rrst.matroids import GraphicMatroid, enumerate_bases
from rrst.multigraph import MultiGraph
from rrst.oracle import PAIR_SCAN_LIMIT, brute_force
from rrst.rational import rat

from conftest import graphic_twin, make_instance, make_partition_instance, make_uniform_instance
from reference_pair_scan import full_pair_scan


def complete_graph(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return MultiGraph(range(n), dict(enumerate(pairs)))


def cycle_graph(n):
    return MultiGraph(range(n), {i: (i, (i + 1) % n) for i in range(n)})


def trees(graph):
    return list(enumerate_bases(GraphicMatroid(graph)))


def test_count_known_graphs():
    # Cayley: n^(n-2) trees of the complete graph
    for n in range(2, 7):
        assert len(trees(complete_graph(n))) == n ** (n - 2)
    for n in range(3, 9):
        assert len(trees(cycle_graph(n))) == n
    path = MultiGraph(range(4), {i: (i, i + 1) for i in range(3)})
    assert trees(path) == [(0, 1, 2)]
    assert trees(MultiGraph(range(1), {})) == [()]


def test_count_multigraph_parallel_edges():
    g = MultiGraph(range(2), {0: (0, 1), 1: (0, 1), 2: (0, 1)})
    assert trees(g) == [(0,), (1,), (2,)]
    # triangle plus one parallel edge: every 2-subset but the parallel pair
    theta = MultiGraph(range(3), {0: (0, 1), 1: (0, 2), 2: (1, 2), 3: (0, 1)})
    assert trees(theta) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def test_disconnected_graph_bases_are_its_maximal_forests():
    g = MultiGraph(range(3), {0: (0, 1)})
    assert trees(g) == [(0,)]
    two_triangles = MultiGraph(range(6), {0: (0, 1), 1: (1, 2), 2: (0, 2), 3: (3, 4), 4: (4, 5), 5: (3, 5)})
    forests = trees(two_triangles)
    assert len(forests) == 9 and all(len(f) == 4 for f in forests)


def test_enumeration_matches_count_and_is_sorted():
    for n in range(2, 6):
        g = complete_graph(n)
        ts = trees(g)
        assert len(ts) == n ** (n - 2)
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)
        for t in ts:
            assert len(t) == n - 1
            assert GraphicMatroid(g).is_independent(frozenset(t))


def _unit_instance(graph, k=0) -> Instance:
    costs = CostColumns.from_rows(dict.fromkeys(graph.edges, (1, 1, 1)))
    return Instance(matroid=GraphicMatroid(graph), costs=costs, k=k, scale=1)


def test_enumeration_guard():
    with pytest.raises(TooLarge, match=r"^over 2236 bases: their pairs exceed 5000000$"):
        brute_force(_unit_instance(complete_graph(12)))  # 12^10 trees


def test_bases_past_the_pair_scan_are_refused_at_the_first_one_past_it(monkeypatch):
    """The oracle takes bases one at a time and stops at the first whose
    pairs pass the pair scan's bound: 2,237 of them, however many exist."""
    taken = []

    def counted(matroid):
        for basis in matroids.enumerate_bases(matroid):
            taken.append(basis)
            yield basis

    assert 2236 ** 2 <= PAIR_SCAN_LIMIT < 2237 ** 2
    monkeypatch.setattr(oracle, "enumerate_bases", counted)
    # K7 has 7^5 = 16807 trees, and 2237 parallel edges one tree past the bound
    parallel = MultiGraph(range(2), dict.fromkeys(range(2237), (0, 1)))
    for graph in (complete_graph(7), parallel):
        taken.clear()
        with pytest.raises(TooLarge, match="pairs exceed"):
            brute_force(_unit_instance(graph))
        assert len(taken) == 2237
    # one basis fewer is answered
    parallel = MultiGraph(range(2), dict.fromkeys(range(2236), (0, 1)))
    assert brute_force(_unit_instance(parallel)).X == (0,)


def test_brute_force_tie_break_lexicographic():
    inst = make_instance(3, [(0, 1), (0, 2), (1, 2)], [(1, 1, 0)] * 3, k=2)
    res = brute_force(inst)
    # all nine tree pairs cost 4; the smallest (X, Y) pair wins
    assert res.X == (0, 1) and res.Y == (0, 1)
    assert res.total == rat(4)


def _drawn_instance(kind, seed):
    """The brute-force route of `kind` and one drawn instance of it."""
    inst = generate_instance(5, 0.6, seed % 5, 9, seed + 400)
    if kind == "tree":
        return brute_force, inst
    if kind == "graphic":
        return brute_force, graphic_twin(inst)
    rng = random.Random(seed)
    triples = [(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9)) for _ in range(7)]
    if kind == "uniform":
        return brute_force, make_uniform_instance(7, 3, triples, k=seed % 4)
    parts = [(range(4), 2), (range(4, 7), 1)]
    return brute_force, make_partition_instance(parts, dict(enumerate(triples)), k=seed % 4)


@pytest.mark.parametrize("kind", ["tree", "uniform", "partition", "graphic"])
def test_pruned_scan_identical_to_full_scan(kind):
    for seed in range(12):
        brute_force, inst = _drawn_instance(kind, seed)
        full = full_pair_scan(inst)
        fast = brute_force(inst)
        assert (full.X, full.Y, full.Z, full.total) == (fast.X, fast.Y, fast.Z, fast.total)
        assert fast.pairs_scanned <= full.pairs_scanned


def test_brute_force_overlap_requirement_enforced():
    # C=0 on one tree, second=0 on a different tree; k=0 forces X == Y
    inst = make_instance(
        3, [(0, 1), (0, 2), (1, 2)],
        [(0, 9, 0), (0, 9, 0), (9, 0, 0)], k=0,
    )
    res = brute_force(inst)
    assert res.X == res.Y
    assert len(set(res.X) & set(res.Y)) >= inst.overlap_requirement
    assert res.Z == res.X
    # with free recovery the stages decouple and get strictly cheaper
    relaxed = brute_force(make_instance(
        3, [(0, 1), (0, 2), (1, 2)],
        [(0, 9, 0), (0, 9, 0), (9, 0, 0)], k=2,
    ))
    assert relaxed.total < res.total


def test_brute_force_matroid_matches_graphic_tree_route():
    for seed in range(6):
        inst = generate_instance(4, 0.7, seed % 4, 8, seed + 77)
        a = brute_force(inst)
        # the pruned scan against every pair of the same graphic matroid's bases
        b = full_pair_scan(inst)
        assert (a.X, a.Y, a.Z, a.total) == (b.X, b.Y, b.Z, b.total)
        assert brute_force(graphic_twin(inst)) == a


def test_brute_force_uniform_matches_direct_scan():
    mi = make_uniform_instance(5, 2, [(3, 1, 1), (1, 4, 0), (2, 2, 2), (5, 0, 1), (0, 3, 3)], k=1)
    res = brute_force(mi)
    best = None
    for X in itertools.combinations(range(5), 2):
        for Y in itertools.combinations(range(5), 2):
            if len(set(X) & set(Y)) < 1:
                continue
            tot = sum(mi.costs.C[e] for e in X) + sum(mi.costs.second[e] for e in Y)
            key = (tot, X, Y)
            if best is None or key < best:
                best = key
    assert (res.total, res.X, res.Y) == best


def test_single_node_brute():
    inst = make_instance(1, [], [], k=0)
    res = brute_force(inst)
    assert res.X == () and res.Y == () and res.total == rat(0)
