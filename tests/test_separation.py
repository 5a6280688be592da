"""Violated-constraint search: min-cut sweeps vs exhaustive enumeration.

The min-cut route promises a *verdict-complete* answer: it returns some
violated, arithmetically correct constraint exactly when one exists.  The
exhaustive route is the definition-level reference.
"""

import random

import pytest

from rrst.errors import ValidationError
from rrst.matroids import GraphicMatroid, PartitionMatroid, UniformMatroid
from rrst.multigraph import MultiGraph
from rrst.rational import ONE, ZERO, rat
from rrst.separation import (
    separate_forest,
    separate_forest_candidates,
    separate_forest_exhaustive,
    separate_rank,
    separate_rank_exhaustive,
)


def graph_of(n, pairs):
    return MultiGraph(range(n), dict(enumerate(pairs)))


def test_forest_violation_found_on_heavy_triangle():
    g = graph_of(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    point = {0: ONE, 1: ONE, 2: ONE, 3: ZERO}
    for finder in (separate_forest, separate_forest_exhaustive):
        cut = finder(point, g)
        assert cut is not None
        assert cut.node_set == (0, 1, 2)
        assert cut.elements == (0, 1, 2)
        assert cut.rhs == rat(2)
        assert cut.violation == ONE


def test_forest_no_violation_on_fractional_spread():
    g = graph_of(3, [(0, 1), (0, 2), (1, 2)])
    point = {e: rat(2, 3) for e in range(3)}
    assert separate_forest(point, g) is None
    assert separate_forest_exhaustive(point, g) is None


def test_forest_point_validation():
    g = graph_of(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValidationError):
        separate_forest({0: ONE, 1: ONE}, g)  # missing edge
    with pytest.raises(ValidationError):
        separate_forest({0: ONE, 1: ONE, 2: rat(-1)}, g)


def _random_connected_graph(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        chosen = [p for p in pairs if rng.random() < 0.6]
        g = MultiGraph(range(n), dict(enumerate(chosen)))
        if g.is_connected() and g.edge_count >= n - 1:
            return g


def _check_certificate(cut, point, graph):
    """The cut must be arithmetically violated and internally consistent."""
    assert cut.slack < 0
    assert sum((point[e] for e in cut.elements), ZERO) == cut.rhs - cut.slack
    if cut.node_set is not None:
        assert cut.elements == tuple(graph.edges_within(cut.node_set))
        assert cut.rhs == rat(len(cut.node_set) - 1)


VALUES = [ZERO, rat(1, 4), rat(1, 2), rat(3, 4), ONE, rat(5, 4), rat(3, 2)]


def test_forest_verdict_matches_exhaustive_fuzz():
    rng = random.Random(20240817)
    for trial in range(300):
        n = rng.randint(3, 6)
        g = _random_connected_graph(rng, n)
        point = {e: rng.choice(VALUES) for e in g.edges}
        fast = separate_forest(point, g)
        slow = separate_forest_exhaustive(point, g)
        assert (fast is None) == (slow is None), f"trial {trial}: verdicts differ"
        if fast is not None:
            _check_certificate(fast, point, g)
            _check_certificate(slow, point, g)


def test_forest_candidates_all_valid_and_stop_early_subset():
    rng = random.Random(77)
    for _ in range(100):
        g = _random_connected_graph(rng, 5)
        point = {e: rng.choice(VALUES) for e in g.edges}
        full = separate_forest_candidates(point, g)
        early = separate_forest_candidates(point, g, stop_early=True)
        for cut in full:
            _check_certificate(cut, point, g)
        assert (len(early) > 0) == (len(full) > 0)
        full_sets = {c.node_set for c in full}
        assert all(c.node_set in full_sets for c in early)
        # candidates are sorted most-violated first and deduplicated
        slacks = [c.slack for c in full]
        assert slacks == sorted(slacks)
        assert len(full_sets) == len(full)


# --- matroid rank routes -----------------------------------------------


def test_uniform_rank_cut_is_max_violation():
    m = UniformMatroid(frozenset(range(4)), 2)
    point = {0: ONE, 1: ONE, 2: rat(3, 4), 3: ZERO}
    cut = separate_rank(point, m)
    ref = separate_rank_exhaustive(point, m)
    assert cut is not None and ref is not None
    assert cut.violation == ref.violation == rat(3, 4)
    assert cut.elements == (0, 1, 2)


def test_uniform_no_violation():
    m = UniformMatroid(frozenset(range(4)), 2)
    point = {e: rat(1, 2) for e in range(4)}
    assert separate_rank(point, m) is None


def test_partition_rank_cut():
    m = PartitionMatroid([(frozenset({0, 1, 2}), 1), (frozenset({3, 4}), 2)])
    point = {0: rat(3, 4), 1: rat(3, 4), 2: ZERO, 3: rat(1, 2), 4: rat(1, 2)}
    cut = separate_rank(point, m)
    ref = separate_rank_exhaustive(point, m)
    assert cut is not None
    assert cut.violation == ref.violation == rat(1, 2)
    assert set(cut.elements) <= {0, 1, 2}


def _rank_fuzz(make_matroid, scale_to_rank, trials, seed):
    rng = random.Random(seed)
    for trial in range(trials):
        m = make_matroid(rng)
        ground = sorted(m.ground)
        point = {e: rng.choice(VALUES) for e in ground}
        if scale_to_rank:
            total = sum((point[e] for e in ground), ZERO)
            r = m.full_rank()
            if total == 0 or r == 0:
                continue
            point = {e: point[e] * r / total for e in ground}
        fast = separate_rank(point, m)
        slow = separate_rank_exhaustive(point, m)
        assert (fast is None) == (slow is None), f"trial {trial}"
        if fast is not None:
            assert fast.slack < 0
            assert sum((point[e] for e in fast.elements), ZERO) == fast.rhs - fast.slack
            assert fast.rhs == rat(m.rank(set(fast.elements)))


def test_uniform_rank_fuzz():
    _rank_fuzz(
        lambda rng: UniformMatroid(frozenset(range(rng.randint(2, 6))), rng.randint(1, 4)),
        scale_to_rank=False, trials=150, seed=11,
    )


def test_partition_rank_fuzz():
    def make(rng):
        parts, nxt = [], 0
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, 3)
            parts.append((frozenset(range(nxt, nxt + size)), rng.randint(0, size)))
            nxt += size
        return PartitionMatroid(parts)

    _rank_fuzz(make, scale_to_rank=False, trials=150, seed=12)


def test_graphic_rank_fuzz_on_budget():
    # the graphic route promises a verdict only for points on the rank budget
    rng = random.Random(13)

    def make(r):
        return GraphicMatroid(_random_connected_graph(r, r.randint(3, 5)))

    _rank_fuzz(lambda r=rng: make(r), scale_to_rank=True, trials=150, seed=13)


def test_uniform_exact_max_of_violation_fuzz():
    rng = random.Random(14)
    for _ in range(100):
        m = UniformMatroid(frozenset(range(rng.randint(2, 6))), rng.randint(1, 4))
        point = {e: rng.choice(VALUES) for e in sorted(m.ground)}
        fast = separate_rank(point, m)
        slow = separate_rank_exhaustive(point, m)
        if slow is not None:
            assert fast.violation == slow.violation
