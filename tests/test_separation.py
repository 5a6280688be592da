"""Violated-constraint search: min-cut sweeps vs exhaustive enumeration.

The min-cut route promises a *verdict-complete* answer: it returns some
violated, arithmetically correct constraint exactly when one exists.  The
exhaustive route (`reference_separation.py`) is the definition-level
reference.  The fast routes take only points that sum to at most n - 1
(forest) or the rank (matroid), as every point of the relaxation does; the
fuzz tests check that they refuse a drawn point above that bound, then
compare the routes on the point scaled down onto it.  The routes take a
point as int numerators over one unit and return a row (elements, int
rhs); `cleared` turns each exact test point into that form, and each row
is checked against the exact point by `violation`.
"""

import gc
import random

import pytest

from rrst.errors import InternalError
from rrst.matroids import PartitionMatroid, UniformMatroid
from rrst.multigraph import MultiGraph
from rrst import separation
from rrst.rational import rat
from rrst.separation import separate_forest, separate_rank

from conftest import cleared, cut_nodes, violation
from reference_separation import separate_forest_exhaustive, separate_rank_exhaustive

ZERO, ONE = rat(0), rat(1)


def graph_of(n, pairs):
    return MultiGraph(range(n), dict(enumerate(pairs)))


def test_forest_violation_found_on_heavy_triangle():
    g = graph_of(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    point = {0: ONE, 1: ONE, 2: ONE, 3: ZERO}
    for finder in (separate_forest, separate_forest_exhaustive):
        cut = finder(*cleared(point), g)
        assert cut == ((0, 1, 2), 2)
        assert cut_nodes(cut, g) == (0, 1, 2)
        assert violation(cut, point) == ONE


def test_forest_no_violation_on_fractional_spread():
    g = graph_of(3, [(0, 1), (0, 2), (1, 2)])
    point = {e: rat(2, 3) for e in range(3)}
    assert separate_forest(*cleared(point), g) is None
    assert separate_forest_exhaustive(*cleared(point), g) is None


def test_forest_point_validation():
    g = graph_of(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(InternalError):
        separate_forest(*cleared({0: ONE, 1: ONE}), g)  # missing edge
    with pytest.raises(InternalError):
        separate_forest(*cleared({0: ONE, 1: ONE, 2: rat(-1)}), g)
    with pytest.raises(InternalError, match="n - 1"):
        separate_forest(*cleared({0: ONE, 1: ONE, 2: rat(1, 4)}), g)  # sums past n - 1
    with pytest.raises(InternalError, match="outside the ground set"):
        separate_forest({0: 1, 1: 1, 2: 0, 7: 0}, 1, g)


def within(point, bound, fast, structure):
    """point itself when it sums to at most bound.  Otherwise, after checking
    that the fast route refuses it, point scaled down to sum to bound."""
    total = sum(point.values(), ZERO)
    if total <= bound:
        return point
    with pytest.raises(InternalError):
        fast(*cleared(point), structure)
    return {e: v * bound / total for e, v in point.items()}


def _random_connected_graph(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        chosen = [p for p in pairs if rng.random() < 0.6]
        g = MultiGraph(range(n), dict(enumerate(chosen)))
        if g.is_connected() and len(g.edges) >= n - 1:
            return g


def _check_certificate(cut, point, graph):
    """The row must be violated at the exact point and be the forest row of
    the node set its edges span: every edge inside those nodes, int rhs
    one less than their count."""
    elements, rhs = cut
    assert type(rhs) is int
    assert violation(cut, point) > 0
    nodes = cut_nodes(cut, graph)
    assert elements == tuple(graph.edges_within(nodes))
    assert rhs == len(nodes) - 1


VALUES = [ZERO, rat(1, 4), rat(1, 2), rat(3, 4), ONE, rat(5, 4), rat(3, 2)]


def _forest_fuzz_points():
    """300 connected graphs on 3-6 nodes, each with a point within n - 1."""
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(3, 6)
        g = _random_connected_graph(rng, n)
        point = {e: rng.choice(VALUES) for e in g.edges}
        yield g, within(point, n - 1, separate_forest, g)


def test_forest_verdict_matches_exhaustive_fuzz():
    for trial, (g, point) in enumerate(_forest_fuzz_points()):
        fast = separate_forest(*cleared(point), g)
        slow = separate_forest_exhaustive(*cleared(point), g)
        assert (fast is None) == (slow is None), f"trial {trial}: verdicts differ"
        if fast is not None:
            _check_certificate(fast, point, g)
            _check_certificate(slow, point, g)


def _same_cut(point, graph):
    """Separate point on both forest routes; assert they return the same
    row, and return it with the sides of the sweeps run."""
    sides = []
    sweep = separation._sweep_min_cut

    def recorded(net, forced_in):
        value, side = sweep(net, forced_in)
        sides.append(side)
        return value, side

    separation._sweep_min_cut = recorded
    try:
        fast = separate_forest(*cleared(point), graph)
    finally:
        separation._sweep_min_cut = sweep
    slow = separate_forest_exhaustive(*cleared(point), graph)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert fast == slow
        assert violation(fast, point) == violation(slow, point)
        _check_certificate(fast, point, graph)
    return fast, sides


def _two_part_case():
    """A triangle at 4/5 and a K4 at 9/10 with no edge between them, on 9
    nodes, every edge its own super-node.  The sweep from node 0 finds the
    union of both as its minimal cut side: 2.4 + 5.4 exceeds 6, while the
    triangle alone gains 0.4 and the K4 alone 1.4 over their rhs."""
    triangle = [(0, 1), (0, 2), (1, 2)]
    k4 = [(u, v) for u in range(3, 7) for v in range(u + 1, 7)]
    g = graph_of(9, triangle + k4 + [(2, 3), (6, 7), (7, 8)])
    point = {e: rat(4, 5) if e < 3 else rat(9, 10) if e < 9 else ZERO for e in g.edges}
    return g, point


def test_forest_cut_side_in_two_parts_gives_the_more_violated_part():
    g, point = _two_part_case()
    cut, sides = _same_cut(point, g)
    assert sides == [[0, 1, 2, 3, 4, 5, 6]]
    assert cut_nodes(cut, g) == (3, 4, 5, 6)
    assert violation(cut, point) == rat(12, 5)


def test_forest_no_positive_cross_edge_runs_no_sweep():
    # a 1-valued spanning forest: every positive edge is inside a super-node
    g = graph_of(5, [(0, 1), (1, 2), (0, 2), (3, 4), (2, 3)])
    point = {0: ONE, 1: ONE, 2: ZERO, 3: ONE, 4: ZERO}
    assert _same_cut(point, g) == (None, [])


def test_forest_heavy_super_node_runs_no_sweep():
    # the path 0-1-2 of 1-edges closes over the half edge 0-2; the half
    # edges 2-3 and 3-4 cross between super-nodes
    g = graph_of(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    point = {0: ONE, 1: ONE, 2: rat(1, 2), 3: rat(1, 2), 4: rat(1, 2)}
    cut, sides = _same_cut(point, g)
    assert sides == []
    assert cut_nodes(cut, g) == (0, 1, 2) and violation(cut, point) == rat(1, 2)


def test_forest_separation_leaves_no_cyclic_garbage():
    g, point = _two_part_case()
    ints, unit = cleared(point)
    gc.collect()
    gc.disable()
    try:
        assert separate_forest(ints, unit, g) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- matroid rank routes -----------------------------------------------


def test_uniform_rank_cut_is_max_violation():
    m = UniformMatroid(frozenset(range(5)), 3)
    point = {0: rat(3, 2), 1: rat(5, 4), 2: rat(1, 4), 3: ZERO, 4: ZERO}
    cut = separate_rank(*cleared(point), m)
    ref = separate_rank_exhaustive(*cleared(point), m)
    assert cut is not None and ref is not None
    assert violation(cut, point) == violation(ref, point) == rat(3, 4)
    assert cut == ((0, 1), 2)


def test_uniform_no_violation():
    m = UniformMatroid(frozenset(range(4)), 2)
    point = {e: rat(1, 2) for e in range(4)}
    assert separate_rank(*cleared(point), m) is None


def test_partition_rank_cut():
    m = PartitionMatroid([(frozenset({0, 1, 2}), 1), (frozenset({3, 4}), 2)])
    point = {0: rat(3, 4), 1: rat(3, 4), 2: ZERO, 3: rat(1, 2), 4: rat(1, 2)}
    cut = separate_rank(*cleared(point), m)
    ref = separate_rank_exhaustive(*cleared(point), m)
    assert cut is not None
    assert violation(cut, point) == violation(ref, point) == rat(1, 2)
    assert set(cut[0]) <= {0, 1, 2}


def test_rank_point_above_the_rank_rejected():
    m = PartitionMatroid([(frozenset({0, 1}), 1), (frozenset({2}), 1)])
    with pytest.raises(InternalError, match="rank 2"):
        separate_rank(*cleared({0: rat(1, 2), 1: rat(1, 2), 2: rat(5, 4)}), m)
    with pytest.raises(InternalError, match="rank 2"):
        separate_rank(*cleared({e: rat(3, 4) for e in range(3)}), UniformMatroid(frozenset(range(3)), 2))


@pytest.mark.parametrize("point, message", [
    ({0: 1, 1: 0}, "missing ids \\[2\\]"),
    ({0: 1, 1: 0, 2: -1}, "point\\[2\\]=-1 is negative"),
    ({0: 1, 1: 0, 2: 0, 9: 0}, "outside the ground set \\[9\\]"),
], ids=["missing", "negative", "extra"])
def test_rank_point_validation(point, message):
    """The rank route checks its point as the forest route does: an entry
    missing, negative or outside the ground set is a solver bug."""
    with pytest.raises(InternalError, match=message):
        separate_rank(point, 1, UniformMatroid(frozenset(range(3)), 2))


def _uniform(rng):
    return UniformMatroid(frozenset(range(rng.randint(2, 6))), rng.randint(1, 4))


def _partition(rng):
    parts, nxt = [], 0
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, 3)
        parts.append((frozenset(range(nxt, nxt + size)), rng.randint(0, size)))
        nxt += size
    return PartitionMatroid(parts)


def _rank_fuzz_points(make_matroid, trials, seed):
    """`trials` matroids drawn by make_matroid, each with a point within its
    rank."""
    rng = random.Random(seed)
    for _ in range(trials):
        m = make_matroid(rng)
        point = {e: rng.choice(VALUES) for e in sorted(m.ground)}
        yield m, within(point, m.full_rank(), separate_rank, m)


def _rank_fuzz(make_matroid, trials, seed):
    for trial, (m, point) in enumerate(_rank_fuzz_points(make_matroid, trials, seed)):
        fast = separate_rank(*cleared(point), m)
        slow = separate_rank_exhaustive(*cleared(point), m)
        assert (fast is None) == (slow is None), f"trial {trial}"
        if fast is not None:
            elements, rhs = fast
            assert violation(fast, point) > 0
            assert type(rhs) is int and rhs == m.rank(set(elements))


def test_uniform_rank_fuzz():
    _rank_fuzz(_uniform, trials=150, seed=11)


def test_partition_rank_fuzz():
    _rank_fuzz(_partition, trials=150, seed=12)


def test_uniform_exact_max_of_violation_fuzz():
    rng = random.Random(14)
    for _ in range(100):
        m = UniformMatroid(frozenset(range(rng.randint(2, 6))), rng.randint(1, 4))
        point = {e: rng.choice(VALUES) for e in sorted(m.ground)}
        point = within(point, m.full_rank(), separate_rank, m)
        fast = separate_rank(*cleared(point), m)
        slow = separate_rank_exhaustive(*cleared(point), m)
        if slow is not None:
            assert violation(fast, point) == violation(slow, point)


FRACTIONS = [rat(1, 4), rat(1, 3), rat(1, 2), rat(2, 3), rat(3, 4)]


def _near_integral_case(rng):
    """A multigraph on 3-7 nodes, often disconnected, with parallel edges,
    and a point that is 0 or 1 on all but a few edges.

    Half the points are a 1-valued spanning forest with a few fractions of
    forest edges moved onto other edges, so x(E) = n - c exactly; the rest
    draw each edge from {0, 1} with an occasional fraction."""
    n = rng.randint(3, 7)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
    pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 2))] if pairs else []
    g = graph_of(n, pairs)
    if rng.random() < 0.5:
        forest = g.spanning_forest(rng.sample(sorted(g.edges), len(g.edges)))
        point = {e: ONE if e in forest else ZERO for e in g.edges}
        others = [e for e in g.edges if e not in forest]
        for _ in range(rng.randint(0, 2)):
            if forest and others:
                give, take = rng.choice(forest), rng.choice(others)
                share = min(point[give], rng.choice(FRACTIONS))
                point[give] -= share
                point[take] += share
    else:
        point = {e: rng.choice(FRACTIONS) if rng.random() < 0.15 else rng.choice([ZERO, ONE])
                 for e in g.edges}
    return g, point


def _case_kinds(g, point):
    total = sum(point.values(), ZERO)
    ones = [e for e in sorted(g.edges) if point[e] == 1]
    label, _ = g.contraction_classes(ones)
    kinds = set()
    if len(g.spanning_forest(ones)) < len(ones):
        kinds.add("cycle of 1-edges")
    if any(0 < point[e] < 1 and label[g.edges[e][0]] == label[g.edges[e][1]] for e in g.edges):
        kinds.add("fractional edge inside a super-node")
    components = len(g.contraction_classes(g.edges)[1])
    if components > 1 and total == g.node_count - components:
        kinds.add("disconnected, x(E) = n - c")
    return kinds


def test_forest_near_integral_fuzz_matches_exhaustive_and_closes_over_1_edges():
    rng = random.Random(20261018)
    seen = {}
    for trial in range(600):
        g, point = _near_integral_case(rng)
        kinds = {"raises"} if sum(point.values(), ZERO) > g.node_count - 1 else set()
        point = within(point, g.node_count - 1, separate_forest, g)
        kinds |= _case_kinds(g, point)
        fast = separate_forest(*cleared(point), g)
        slow = separate_forest_exhaustive(*cleared(point), g)
        assert (fast is None) == (slow is None), f"trial {trial}: verdicts differ"
        for kind in kinds | {"violated" if fast else "not violated"}:
            seen[kind] = seen.get(kind, 0) + 1
        if fast is None:
            continue
        _check_certificate(fast, point, g)
        _check_certificate(slow, point, g)
        inside = set(cut_nodes(fast, g))
        for e, (u, v) in g.edges.items():
            if point[e] == 1:
                assert (u in inside) == (v in inside), f"trial {trial}: 1-edge {e} leaves the set"
    assert set(seen) == {
        "cycle of 1-edges", "fractional edge inside a super-node", "disconnected, x(E) = n - c",
        "raises", "violated", "not violated",
    }, seen


# --- the unit ---------------------------------------------------------


def test_fast_routes_are_scale_invariant_on_fuzz_points():
    """Separating (k·point, k·unit) returns the row that (point, unit)
    does, the same elements and rhs.  The cut
    loop passes its points over the tableau's denominator, not over the
    LCM of their denominators, and this is what makes that change no cut."""
    rng = random.Random(20261018)
    near_integral = []
    for _ in range(600):
        g, point = _near_integral_case(rng)
        near_integral.append((g, within(point, g.node_count - 1, separate_forest, g)))
    cases = [(separate_forest, g, point) for g, point in list(_forest_fuzz_points()) + near_integral]
    cases += [(separate_rank, m, point) for make, seed in ((_uniform, 11), (_partition, 12))
              for m, point in _rank_fuzz_points(make, 150, seed)]
    violated = {separate_forest: 0, separate_rank: 0}
    for fast, structure, point in cases:
        ints, unit = cleared(point)
        cut = fast(ints, unit, structure)
        violated[fast] += cut is not None
        for k in (1, 2, 7, 12):
            scaled = fast({e: k * v for e, v in ints.items()}, k * unit, structure)
            assert scaled == cut, (k, point)
    assert min(violated.values()) > 50, violated
