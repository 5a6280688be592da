"""Exhaustive reference solver: tree counting/enumeration, pair scan."""

import itertools
import random

import pytest

from rrst.errors import NoBasis, TooManyTrees
from rrst.gen import generate_instance
from rrst.matroids import GraphicMatroid, MatroidInstance
from rrst.multigraph import MultiGraph
from rrst.oracle import (
    brute_force_rrmb,
    brute_force_rrst,
    count_spanning_trees,
    enumerate_spanning_trees,
)
from rrst.rational import rat

from conftest import make_instance, make_partition_instance, make_uniform_instance


def complete_graph(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return MultiGraph(range(n), dict(enumerate(pairs)))


def cycle_graph(n):
    return MultiGraph(range(n), {i: (i, (i + 1) % n) for i in range(n)})


def test_count_known_graphs():
    # Cayley: n^(n-2) trees of the complete graph
    for n in range(2, 8):
        assert count_spanning_trees(complete_graph(n)) == n ** (n - 2)
    for n in range(3, 9):
        assert count_spanning_trees(cycle_graph(n)) == n
    path = MultiGraph(range(4), {i: (i, i + 1) for i in range(3)})
    assert count_spanning_trees(path) == 1
    assert count_spanning_trees(MultiGraph(range(1), {})) == 1


def test_count_multigraph_parallel_edges():
    g = MultiGraph(range(2), {0: (0, 1), 1: (0, 1), 2: (0, 1)})
    assert count_spanning_trees(g) == 3
    # triangle plus one parallel edge: every 2-subset but the parallel pair
    theta = MultiGraph(range(3), {0: (0, 1), 1: (0, 2), 2: (1, 2), 3: (0, 1)})
    assert count_spanning_trees(theta) == 5
    assert count_spanning_trees(theta) == len(enumerate_spanning_trees(theta))


def test_count_disconnected_is_zero():
    g = MultiGraph(range(3), {0: (0, 1)})
    assert count_spanning_trees(g) == 0
    assert enumerate_spanning_trees(g) == []


def test_enumeration_matches_count_and_is_sorted():
    for n in range(2, 6):
        g = complete_graph(n)
        trees = enumerate_spanning_trees(g)
        assert len(trees) == count_spanning_trees(g)
        assert trees == sorted(trees)
        assert len(set(trees)) == len(trees)
        for t in trees:
            assert len(t) == n - 1
            assert GraphicMatroid(g).is_independent(frozenset(t))


def test_enumeration_guard():
    with pytest.raises(TooManyTrees):
        enumerate_spanning_trees(complete_graph(12))  # 12^10 trees


def test_brute_force_tie_break_lexicographic():
    inst = make_instance(3, [(0, 1), (0, 2), (1, 2)], [(1, 1, 0)] * 3, k=2)
    res = brute_force_rrst(inst)
    # all nine tree pairs cost 4; the smallest (X, Y) pair wins
    assert res.X == (0, 1) and res.Y == (0, 1)
    assert res.total == rat(4)


def _drawn_instance(kind, seed):
    """The brute-force route of `kind` and one drawn instance of it."""
    inst = generate_instance(5, 0.6, seed % 5, 9, seed + 400)
    if kind == "tree":
        return brute_force_rrst, inst
    if kind == "graphic":
        return brute_force_rrmb, MatroidInstance(GraphicMatroid(inst.graph), inst.costs, inst.k, inst.scale)
    rng = random.Random(seed)
    triples = [(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9)) for _ in range(7)]
    if kind == "uniform":
        return brute_force_rrmb, make_uniform_instance(7, 3, triples, k=seed % 4)
    parts = [(range(4), 2), (range(4, 7), 1)]
    return brute_force_rrmb, make_partition_instance(parts, dict(enumerate(triples)), k=seed % 4)


@pytest.mark.parametrize("kind", ["tree", "uniform", "partition", "graphic"])
def test_pruned_scan_identical_to_full_scan(kind):
    for seed in range(12):
        brute_force, inst = _drawn_instance(kind, seed)
        full = brute_force(inst, prune=False)
        fast = brute_force(inst, prune=True)
        assert (full.X, full.Y, full.Z, full.total) == (fast.X, fast.Y, fast.Z, fast.total)
        assert fast.pairs_scanned <= full.pairs_scanned


def test_brute_force_overlap_requirement_enforced():
    # C=0 on one tree, second=0 on a different tree; k=0 forces X == Y
    inst = make_instance(
        3, [(0, 1), (0, 2), (1, 2)],
        [(0, 9, 0), (0, 9, 0), (9, 0, 0)], k=0,
    )
    res = brute_force_rrst(inst)
    assert res.X == res.Y
    assert len(set(res.X) & set(res.Y)) >= inst.overlap_requirement
    assert res.Z == res.X
    # with free recovery the stages decouple and get strictly cheaper
    relaxed = brute_force_rrst(make_instance(
        3, [(0, 1), (0, 2), (1, 2)],
        [(0, 9, 0), (0, 9, 0), (9, 0, 0)], k=2,
    ))
    assert relaxed.total < res.total


def test_brute_force_matroid_matches_graphic_tree_route():
    for seed in range(6):
        inst = generate_instance(4, 0.7, seed % 4, 8, seed + 77)
        mi = MatroidInstance(matroid=GraphicMatroid(inst.graph), costs=inst.costs, k=inst.k, scale=inst.scale)
        a = brute_force_rrst(inst)
        b = brute_force_rrmb(mi)
        assert (a.X, a.Y, a.Z, a.total) == (b.X, b.Y, b.Z, b.total)


def test_brute_force_uniform_matches_direct_scan():
    mi = make_uniform_instance(5, 2, [(3, 1, 1), (1, 4, 0), (2, 2, 2), (5, 0, 1), (0, 3, 3)], k=1)
    res = brute_force_rrmb(mi)
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
    res = brute_force_rrst(inst)
    assert res.X == () and res.Y == () and res.total == rat(0)
