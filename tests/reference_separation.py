"""Definition-level reference routes for the separation oracles.

The solver has one separation route per side: min-cut sweeps on a graph,
a prefix scan per part on a uniform or partition matroid.  The scans here
check every subset against its constraint instead, so they define what
those routes must find; they take a point of any sum, but only small
inputs.  Like the fast routes, they take a point as int numerators over
one positive `unit` and return the most violated constraint, ties broken
by the sorted node or element tuple, as the row (ascending ids, int
rhs).  The fast routes take the relaxation's points as given; the points
here are built by hand, so each scan first checks that its point has one
non-negative entry per element of the ground set.
"""

import itertools

from rrst.errors import InternalError, TooLarge
from rrst.separation import _forest_cut
from rrst.sides import GraphSide

EXHAUSTIVE_NODE_LIMIT = 20


def _check_point(point, ground):
    """Raise InternalError unless point has one non-negative entry per id
    of ground, a set of ids."""
    if point.keys() != ground:
        missing = ground - point.keys()
        if missing:
            raise InternalError(f"point missing ids {sorted(missing)}")
        extra = point.keys() - ground
        raise InternalError(f"point names ids outside the ground set {sorted(extra)}")
    if min(point.values(), default=0) < 0:
        eid = min(e for e, v in point.items() if v < 0)
        raise InternalError(f"point[{eid}]={point[eid]} is negative")


def _forest_candidate(point, unit, graph, nodes):
    """Exact check of one candidate node set: (slack * unit, sorted nodes)
    when it is violated, else None.  Candidates rank as their cuts do."""
    n = len(graph.nodes)
    if not 2 <= len(nodes) < n:
        return None
    slack = (len(nodes) - 1) * unit - sum(map(point.__getitem__, _forest_cut(graph, nodes)[0]))
    if slack >= 0:
        return None
    return slack, tuple(sorted(nodes))


def separate_forest_exhaustive(point, unit, graph):
    """Check every node subset with 2 <= |U| < n."""
    _check_point(point, graph.ground)
    n = len(graph.nodes)
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
        return separate_forest_exhaustive(point, unit, side.matroid)
    return separate_rank_exhaustive(point, unit, side.matroid)
