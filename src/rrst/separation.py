"""Separation oracles for the lazily-generated constraint families.

Every route takes a point as int numerators over one positive `unit`: the
cut loop passes the LP vertex as the tableau holds it, over its
denominator, so no Fraction is built until the returned cut's slack.

Forest side: given a fractional point on the edges of a multigraph, find a
node set U (2 <= |U| < n) whose induced edges carry more weight than
|U| - 1, i.e. a violated subtree-packing constraint.  The point is first
shrunk (Padberg & Rinaldi 1990): one union-find pass contracts the edges
with x_e = 1 into super-nodes and the edges with x_e = 0 are dropped.  A
violated set that holds one end of a 1-edge stays at least as violated
when it takes the other end, and on x(E) <= n - 1 the grown set is never
all of V, so nothing is lost.  A
super-node that is violated on its own is returned at once; otherwise the
search runs one exact max-flow per forced super-node on the network

    source -> pair-node         capacity x of the cross edges of the pair
    pair-node -> both ends      capacity infinity
    super-node -> sink          capacity 1   (0 for the forced super-node)

built once per call, with the point's numerators as capacities and `unit`
standing for 1.  Scaling every capacity by one positive factor leaves the
minimal source side of every min cut unchanged, so the cut does not
depend on the unit the point comes in.  A violated set containing the
forced super-node exists iff the min cut is below the cross weight.  The
extracted cut side is split into connected parts, mapped back to original
nodes and each part checked exactly, which sharpens certificates to
connected sets.  Whenever any violated set exists, at least one extracted
part is violated, so the verdict always matches exhaustive enumeration.

Matroid side: rank constraints x(U) <= rank(U) over proper subsets.
Uniform and partition matroids reduce to one sorted prefix scan per part;
the exhaustive scan covers everything else (and doubles as the independent
verification route).  The solver hands graphic matroids to the forest side
instead, so they take the min-cut route above.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import GroundTooLarge, InternalError, ValidationError
from .multigraph import MultiGraph
from .rational import Rat, rat

EXHAUSTIVE_NODE_LIMIT = 20


@dataclass(frozen=True)
class ViolatedCut:
    """One violated constraint: sum of point over `elements` exceeds rhs.

    slack = rhs - point(elements) is strictly negative and exact, in the
    point's true values (numerators over unit).  For forest cuts node_set
    records the witnessing vertex set.
    """

    elements: tuple[int, ...]
    rhs: int
    slack: Rat
    node_set: tuple[int, ...] | None = None

    @property
    def violation(self) -> Rat:
        return -self.slack


# --- forest separation ------------------------------------------------


def _check_point(point, graph):
    if point.keys() != graph.edges.keys():
        missing = graph.edges.keys() - point.keys()
        if missing:
            raise ValidationError(f"point missing edges {sorted(missing)}")
        extra = point.keys() - graph.edges.keys()
        raise ValidationError(f"point names edges outside the graph {sorted(extra)}")
    if min(point.values(), default=0) < 0:
        eid = next(e for e in graph.edges if point[e] < 0)
        raise ValidationError(f"point[{eid}]={point[eid]} is negative")


def _forest_candidate(point, unit, graph, nodes):
    """Exact check of one candidate node set: (slack * unit, sorted nodes,
    induced edges) when it is violated, else None.  Candidates rank by
    their first two entries, as their cuts do by (slack, node_set)."""
    n = graph.node_count
    if not 2 <= len(nodes) < n:
        return None
    edges = graph.edges_within(nodes)
    slack = (len(nodes) - 1) * unit - sum(map(point.__getitem__, edges))
    if slack >= 0:
        return None
    return slack, tuple(sorted(nodes)), edges


def _forest_cut(candidate, unit) -> ViolatedCut:
    slack, node_set, edges = candidate
    return ViolatedCut(tuple(edges), len(node_set) - 1, rat(slack, unit), node_set)


@dataclass(frozen=True)
class _FlowNetwork:
    """Integer min-cut network over super-nodes 0..count-1, built once per
    separation call.  Node ids: 0 source, 1 sink, 2 + i super-node i, then
    one node per cross pair.  Arcs sit in pairs (forward, reverse), so arc
    i ^ 1 is the reverse of arc i; sink_arc[i] is super-node i's arc to the
    sink."""

    count: int
    head: list[list[int]]
    to: list[int]
    cap: list[int]
    sink_arc: list[int]
    inf: int


def _flow_network(count, pairs, unit, total) -> _FlowNetwork:
    """The network of the module docstring, with unit standing for 1."""
    inf = total + count * unit + 1
    arcs = []
    for j, ((a, b), c) in enumerate(pairs):
        node = 2 + count + j
        arcs += ((0, node, c), (node, 2 + a, inf), (node, 2 + b, inf))
    sink_arc = []
    for i in range(count):
        sink_arc.append(2 * len(arcs))
        arcs.append((2 + i, 1, unit))
    head: list[list[int]] = [[] for _ in range(2 + count + len(pairs))]
    to: list[int] = []
    cap: list[int] = []
    for a, b, c in arcs:
        head[a].append(len(to))
        to.append(b)
        cap.append(c)
        head[b].append(len(to))
        to.append(a)
        cap.append(0)
    return _FlowNetwork(count, head, to, cap, sink_arc, inf)


def _sweep_min_cut(net: _FlowNetwork, forced_in):
    """One integer max-flow (Dinic); returns (value, source-side super-nodes).

    forced_in loses its sink arc.  Only the capacity list is copied, so the
    network serves every sweep of a call.
    """
    head, to = net.head, net.to
    cap = net.cap.copy()
    cap[net.sink_arc[forced_in]] = 0
    n = len(head)
    flow = 0
    while True:
        level = [-1] * n
        level[0] = 0
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for i in head[x]:
                y = to[i]
                if cap[i] > 0 and level[y] < 0:
                    level[y] = level[x] + 1
                    queue.append(y)
        if level[1] < 0:
            break
        it = [0] * n

        def push(x, limit):
            if x == 1:
                return limit
            while it[x] < len(head[x]):
                i = head[x][it[x]]
                y = to[i]
                if cap[i] > 0 and level[y] == level[x] + 1:
                    got = push(y, min(limit, cap[i]))
                    if got:
                        cap[i] -= got
                        cap[i ^ 1] += got
                        return got
                it[x] += 1
            return 0

        while True:
            pushed = push(0, net.inf)
            if not pushed:
                break
            flow += pushed

    reach = [False] * n
    reach[0] = True
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for i in head[x]:
            y = to[i]
            if cap[i] > 0 and not reach[y]:
                reach[y] = True
                queue.append(y)
    return flow, [i for i in range(net.count) if reach[2 + i]]


def _candidates(point, unit, graph, groups, pairs, side) -> list[tuple]:
    """Split a cut side into its connected parts over the cross pairs, map
    each part back to original nodes and check it exactly."""
    inside = set(side)
    induced = MultiGraph(side, {j: pair for j, (pair, _) in enumerate(pairs)
                                if pair[0] in inside and pair[1] in inside})
    found = []
    for part in induced.components():
        candidate = _forest_candidate(point, unit, graph, [v for i in part for v in groups[i]])
        if candidate is not None:
            found.append(candidate)
    return found


def separate_forest(point, unit: int, graph: MultiGraph) -> ViolatedCut | None:
    """A violated connected subtour set, or None; complete as a verdict.

    Takes only points with x(E) <= n - 1, as every point of the relaxation
    is; ValidationError otherwise.  The edges with x_e = 1 are contracted
    by one union-find pass and the edges with x_e = 0 dropped.  Exact:
    growing a violated set across a 1-edge never reduces its violation,
    and the grown set cannot be V since x(E) <= n - 1, so a violated set
    exists iff one that is a union of super-nodes does.  A super-node is
    connected by 1-edges, so its inner weight is at least |S| - 1.  Where
    it is more (a cycle of 1-edges, or a positive edge inside), the
    super-node is violated on its own, and the smallest such cut by
    (slack, node_set) is returned.  Otherwise each union of super-nodes is
    exactly as violated as on the contracted multigraph, and the sweeps run
    there; every set they return is closed under 1-edges.  Super-nodes
    that touch no positive cross edge are never forced in: a violated
    union of two or more super-nodes holds a positive cross edge.
    """
    _check_point(point, graph)
    n = graph.node_count
    caps = {eid: v for eid, v in point.items() if v > 0}
    if sum(caps.values()) > (n - 1) * unit:
        raise ValidationError(f"point sums past n - 1 = {n - 1}")
    if n < 3:
        return None
    label = graph.contraction_classes([eid for eid, c in caps.items() if c == unit])
    count = max(label.values()) + 1
    groups: list[list[int]] = [[] for _ in range(count)]
    for v, i in label.items():
        groups[i].append(v)
    inner = [0] * count
    cross: dict[tuple[int, int], int] = {}
    for eid, c in caps.items():
        u, v = graph.edges[eid]
        a, b = label[u], label[v]
        if a == b:
            inner[a] += c
        else:
            pair = (a, b) if a < b else (b, a)
            cross[pair] = cross.get(pair, 0) + c
    heavy = [_forest_candidate(point, unit, graph, groups[i])
             for i in range(count) if inner[i] > (len(groups[i]) - 1) * unit]
    if heavy:
        return _forest_cut(min(heavy), unit)
    pairs = sorted(cross.items())
    total = sum(cross.values())
    net = _flow_network(count, pairs, unit, total)
    for r in sorted({i for pair in cross for i in pair}):
        value, side = _sweep_min_cut(net, r)
        if value >= total:
            continue
        # the cut side is violated and, as x(E) <= n - 1, not all of V, so
        # one of its connected parts is violated
        found = _candidates(point, unit, graph, groups, pairs, side)
        if not found:
            raise InternalError(f"sweep from super-node {r} found no violated part")
        return _forest_cut(min(found), unit)
    return None


def separate_forest_exhaustive(point, unit: int, graph: MultiGraph) -> ViolatedCut | None:
    """Reference route: check every node subset with 2 <= |U| < n."""
    _check_point(point, graph)
    n = graph.node_count
    if n > EXHAUSTIVE_NODE_LIMIT:
        raise GroundTooLarge(f"{n} nodes exceeds the exhaustive scan limit")
    best = None
    nodes = sorted(graph.nodes)
    for size in range(2, n):
        for combo in itertools.combinations(nodes, size):
            candidate = _forest_candidate(point, unit, graph, combo)
            if candidate is not None and (best is None or candidate < best):
                best = candidate
    return None if best is None else _forest_cut(best, unit)


# --- matroid rank separation -------------------------------------------


def _best_prefix(point, unit, elements, cap):
    """One scan of a part under the budget x(top j) <= min(j, cap): its most
    violated prefix (empty when none is violated), that prefix's rhs, its
    violation and the weight of the whole part, both times unit."""
    # stable: descending value, ascending id among equal values
    order = sorted(sorted(elements), key=point.__getitem__, reverse=True)
    weight = 0
    best_j, best_viol = 0, 0
    for j, e in enumerate(order, 1):
        weight += point[e]
        viol = weight - min(j, cap) * unit
        if viol > best_viol:
            best_viol, best_j = viol, j
    return order[:best_j], min(best_j, cap), best_viol, weight


def separate_rank(point, unit: int, matroid) -> ViolatedCut | None:
    """Family-specialized violated rank constraint over proper subsets.

    Takes only points with x(ground) <= rank, as every point of the
    relaxation is; ValidationError otherwise.  A uniform matroid is the one
    part (ground, r) and a partition matroid keeps its parts.  The most
    violated constraint is the union of each part's best prefix; it is
    never the whole ground set, which no such point violates.  Any other
    family takes the exhaustive scan.
    """
    if matroid.family == "uniform":
        parts = [(matroid.ground, matroid.r)]
    elif matroid.family == "partition":
        parts = matroid.parts
    else:
        return separate_rank_exhaustive(point, unit, matroid)
    elements = []
    rhs, violation, weight, rank = 0, 0, 0, 0
    for part, cap in parts:
        prefix, part_rhs, part_viol, part_weight = _best_prefix(point, unit, part, cap)
        elements += prefix
        rhs += part_rhs
        violation += part_viol
        weight += part_weight
        rank += min(len(part), cap)
    if weight > rank * unit:
        raise ValidationError(f"point sums past the rank {rank}")
    if violation == 0:
        return None
    return ViolatedCut(tuple(sorted(elements)), rhs, rat(-violation, unit), None)


def separate_rank_exhaustive(point, unit: int, matroid) -> ViolatedCut | None:
    """Reference route: every proper nonempty subset against greedy rank."""
    ground = sorted(matroid.ground)
    if len(ground) > EXHAUSTIVE_NODE_LIMIT:
        raise GroundTooLarge(f"{len(ground)} elements exceeds the exhaustive scan limit")
    best = None  # (slack * unit, elements, rhs)
    for size in range(1, len(ground)):
        for combo in itertools.combinations(ground, size):
            rhs = matroid.rank(frozenset(combo))
            slack = rhs * unit - sum(map(point.__getitem__, combo))
            if slack < 0 and (best is None or (slack, combo) < best[:2]):
                best = slack, combo, rhs
    if best is None:
        return None
    slack, combo, rhs = best
    return ViolatedCut(combo, rhs, rat(slack, unit), None)
