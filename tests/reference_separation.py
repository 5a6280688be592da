"""Definition-level reference routes for the separation oracles.

The solver has one separation route per side: min-cut sweeps on a graph,
a prefix scan per part on a uniform or partition matroid.  The scans here
check every subset against its constraint instead, so they define what
those routes must find; they take any point, but only small inputs.  Like
the fast routes, they take a point as int numerators over one positive
`unit` and return the most violated constraint, ties broken by the
sorted node or element tuple, as the row (ascending ids, int rhs).

`selection_size(side)` counts the elements a selection over a side holds
without the instance: a Kruskal scan on a graph, the full rank of a
matroid.
"""

import itertools

from rrst.errors import TooLarge
from rrst.separation import _check_point, _forest_cut
from rrst.sides import GraphSide

EXHAUSTIVE_NODE_LIMIT = 20


def _forest_candidate(point, unit, graph, nodes):
    """Exact check of one candidate node set: (slack * unit, sorted nodes)
    when it is violated, else None.  Candidates rank as their cuts do."""
    n = graph.node_count
    if not 2 <= len(nodes) < n:
        return None
    slack = (len(nodes) - 1) * unit - sum(map(point.__getitem__, graph.edges_within(nodes)))
    if slack >= 0:
        return None
    return slack, tuple(sorted(nodes))


def separate_forest_exhaustive(point, unit, graph):
    """Check every node subset with 2 <= |U| < n."""
    _check_point(point, graph.edges.keys())
    n = graph.node_count
    if n > EXHAUSTIVE_NODE_LIMIT:
        raise TooLarge(f"{n} nodes exceeds the exhaustive scan limit")
    best = None
    nodes = sorted(graph.nodes)
    for size in range(2, n):
        for combo in itertools.combinations(nodes, size):
            candidate = _forest_candidate(point, unit, graph, combo)
            if candidate is not None and (best is None or candidate < best):
                best = candidate
    return None if best is None else _forest_cut(graph, best[1])


def separate_rank_exhaustive(point, unit, matroid):
    """Check every proper nonempty subset against greedy rank."""
    _check_point(point, matroid.ground)
    ground = sorted(matroid.ground)
    if len(ground) > EXHAUSTIVE_NODE_LIMIT:
        raise TooLarge(f"{len(ground)} elements exceeds the exhaustive scan limit")
    best = None  # (slack * unit, elements, rhs)
    for size in range(1, len(ground)):
        for combo in itertools.combinations(ground, size):
            rhs = matroid.rank(frozenset(combo))
            slack = rhs * unit - sum(map(point.__getitem__, combo))
            if slack < 0 and (best is None or (slack, combo) < best[:2]):
                best = slack, combo, rhs
    return None if best is None else best[1:]


def exhaustive_separate(side, point, unit):
    """`side.separate` by the reference route, for monkeypatching a side's
    `separate` in a whole solve."""
    if isinstance(side, GraphSide):
        return separate_forest_exhaustive(point, unit, side.graph)
    return separate_rank_exhaustive(point, unit, side.matroid)


def selection_size(side):
    """The number of elements a selection over `side` holds, found without
    the instance the solver takes it from."""
    if isinstance(side, GraphSide):
        return len(side.graph.spanning_forest(side.graph.edges))
    return side.matroid.full_rank()
