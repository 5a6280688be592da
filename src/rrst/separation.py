"""Separation oracles for the lazily-generated constraint families.

Every route takes a point as int numerators over one positive `unit`: the
cut loop passes the LP vertex as the tableau holds it, over its
denominator.  Only the relaxation builds points, so the routes take them
as given: one non-negative entry per element of the ground set (the
instance checked that the costs, and so the LP's columns, name the ground
set), summing to the selection size (the block rows fix x(ground) =
rank).  Every route returns a violated row x(S) <= r(S) as the pair
(S as an ascending id tuple, the int r(S)), or None, so no Fraction is
built anywhere in the cut loop.

Forest side: given a fractional point on a graphic matroid's edges, find a
node set U (2 <= |U| < n) whose induced edges carry more weight than
|U| - 1, i.e. a violated subtree-packing constraint.  The point is first
shrunk (Padberg & Rinaldi 1990): one union-find pass contracts the edges
with x_e = 1 into super-nodes and the edges with x_e = 0 are dropped.  A
violated set that holds one end of a 1-edge stays at least as violated
when it takes the other end, and on x(E) <= n - 1 the grown set is never
all of V, so nothing is lost.  A super-node that is violated on its own
is returned at once, and a point with no positive edge between
super-nodes has no violated set.  Otherwise the search runs one exact
max-flow per super-node r that touches a cross edge, on the Padberg &
Wolsey (1983) network over the super-nodes alone, with capacities doubled
to stay integral:

    source -> i        capacity the cross weight at i
    i -> sink          capacity 2   (0 for r)
    i <-> j            capacity the cross weight of the pair, both ways

built once per call that sweeps, with the point's numerators as capacities
and `unit` standing for 1.  A cut whose source side holds the super-node
set S costs 2 * (T - x(E(S)) + |S| - [r in S]), T the total cross weight,
so a violated set holding r exists iff the flow is below 2T.  Scaling
every capacity by one positive factor leaves the minimal source side of
every min cut unchanged, so the cut depends neither on the unit the point
comes in nor on the doubling.  The minimal cut side is split into
connected parts by one union-find pass over the cross pairs inside it,
each part's slack is read off the contracted sums, and the most violated
part is mapped back to original nodes, which sharpens certificates to
connected sets.  Whenever any violated set exists, at least one part is
violated, so the verdict always matches exhaustive enumeration.

Matroid side: rank constraints x(U) <= rank(U) over proper subsets.
Uniform and partition matroids reduce to one sorted prefix scan per part.
The solver hands graphic matroids to the forest side instead, so they take
the min-cut route above.

Each side has this one route.  The exhaustive scans over every subset,
which define what both routes must find, are the tests' reference
(`tests/reference_separation.py`).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InternalError
from .matroids import GraphicMatroid, classes

Cut = tuple[tuple[int, ...], int]  # the row x(S) <= r(S): (S ascending, r(S))


# --- forest separation ------------------------------------------------


def _forest_cut(matroid, nodes) -> Cut:
    """The row x(E(U)) <= |U| - 1 of the node set U `nodes`: the edges with
    both ends in U, ascending."""
    inside = set(nodes)
    edges = sorted(e for e, (u, v) in matroid.edges.items() if u in inside and v in inside)
    return tuple(edges), len(nodes) - 1


class _FlowNetwork(namedtuple("_FlowNetwork", "adj to cap weight sink")):
    """The min-cut network of the module docstring over super-nodes
    0..count-1, built once per separation call that sweeps.  The source and
    the sink stay implicit: super-node i has a source arc of capacity
    weight[i] and a sink arc of capacity `sink`.  The arcs between
    super-nodes sit in pairs, one pair per cross pair, so arc a ^ 1 is the
    reverse of arc a; adj[i] lists (neighbour, arc) for the arcs out of i."""

    __slots__ = ()
    adj: list[list[tuple[int, int]]]
    to: list[int]
    cap: list[int]
    weight: list[int]
    sink: int


def _flow_network(count, cross, unit) -> _FlowNetwork:
    """The doubled network on cross, pair -> its cross weight, with unit
    standing for 1."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    to: list[int] = []
    cap: list[int] = []
    weight = [0] * count
    for (a, b), c in cross.items():
        adj[a].append((b, len(to)))
        adj[b].append((a, len(to) + 1))
        to += (b, a)
        cap += (c, c)
        weight[a] += c
        weight[b] += c
    return _FlowNetwork(adj, to, cap, weight, 2 * unit)


def _sweep_min_cut(net: _FlowNetwork, forced_in):
    """One integer max-flow; returns (value, source-side super-nodes).

    forced_in loses its sink arc.  Each super-node first sends what it can
    straight from the source to the sink.  The rest of the flow goes along
    shortest augmenting paths over the pair arcs, from super-nodes with
    source capacity left to super-nodes with sink capacity left.  Only the
    capacities are copied, so the network serves every sweep of a call.
    """
    adj, to = net.adj, net.to
    cap = net.cap.copy()
    # source capacity left where positive, sink capacity left where negative
    excess = [w - net.sink for w in net.weight]
    excess[forced_in] = net.weight[forced_in]
    count = len(adj)
    while True:
        # breadth-first from every super-node with source capacity left;
        # prev holds the arc that reached each super-node, -2 at the starts
        prev = [-1] * count
        queue = [i for i in range(count) if excess[i] > 0]
        for i in queue:
            prev[i] = -2
        end = -1
        for x in queue:  # the loop walks what it appends
            for y, a in adj[x]:
                if prev[y] == -1 and cap[a]:
                    prev[y] = a
                    if excess[y] < 0:
                        end = y
                        break
                    queue.append(y)
            if end >= 0:
                break
        if end < 0:
            break
        push, y = -excess[end], end
        while prev[y] >= 0:
            push = min(push, cap[prev[y]])
            y = to[prev[y] ^ 1]
        push = min(push, excess[y])
        excess[y] -= push
        excess[end] += push
        y = end
        while prev[y] >= 0:
            a = prev[y]
            cap[a] -= push
            cap[a ^ 1] += push
            y = to[a ^ 1]
    # every unit of source capacity not left over went to the sink
    value = sum(net.weight) - sum(e for e in excess if e > 0)
    return value, [i for i in range(count) if prev[i] != -1]


def _violated_part(unit, groups, inner, cross, side):
    """The sorted nodes of the most violated connected part of a cut side
    over the cross pairs, ties to the smaller node list, or None; slacks
    from the contracted sums."""
    inside = set(side)
    within = [(pair, c) for pair, c in cross.items() if pair[0] in inside and pair[1] in inside]
    label, parts = classes(side, (pair for pair, _ in within))
    weight = [0] * len(parts)
    for (a, _), c in within:
        weight[label[a]] += c
    best = None
    for part, w in zip(parts, weight):
        w += sum(inner[i] for i in part)
        slack = (sum(len(groups[i]) for i in part) - 1) * unit - w
        if slack < 0:
            candidate = slack, sorted(v for i in part for v in groups[i])
            if best is None or candidate < best:
                best = candidate
    return None if best is None else best[1]


def separate_forest(point, unit: int, matroid: GraphicMatroid) -> Cut | None:
    """A violated connected subtour set's row, or None; complete as a verdict.

    Takes only points with x(E) <= n - 1, as every point of the
    relaxation is.  The edges with x_e = 1 are contracted by one
    union-find pass and the edges with x_e = 0 dropped.  Exact:
    growing a violated set across a 1-edge never reduces its violation,
    and the grown set cannot be V since x(E) <= n - 1, so a violated set
    exists iff one that is a union of super-nodes does.  A super-node is
    connected by 1-edges, so its inner weight is at least |S| - 1.  Where
    it is more (a cycle of 1-edges, or a positive edge inside), the
    super-node is violated on its own, and the smallest such cut by
    (slack, nodes) is returned.  Otherwise each union of super-nodes is
    exactly as violated as on the contracted multigraph, and the sweeps run
    there; every set they return is closed under 1-edges.  Super-nodes
    that touch no positive cross edge are never forced in: a violated
    union of two or more super-nodes holds a positive cross edge, and with
    none there is no sweep and no network.
    """
    n = len(matroid.nodes)
    if n < 3:
        return None
    caps = {eid: v for eid, v in point.items() if v > 0}
    ends = matroid.edges
    label, groups = classes(sorted(matroid.nodes), [ends[eid] for eid, c in caps.items() if c == unit])
    inner = [0] * len(groups)
    cross: dict[tuple[int, int], int] = {}
    for eid, c in caps.items():
        u, v = ends[eid]
        a, b = label[u], label[v]
        if a == b:
            inner[a] += c
        else:
            pair = (a, b) if a < b else (b, a)
            cross[pair] = cross.get(pair, 0) + c
    heavy = [((len(nodes) - 1) * unit - w, nodes) for nodes, w in zip(groups, inner)
             if w > (len(nodes) - 1) * unit]
    if heavy:
        return _forest_cut(matroid, min(heavy)[1])
    if not cross:
        return None
    total = sum(cross.values())
    net = _flow_network(len(groups), cross, unit)
    for r, w in enumerate(net.weight):
        if not w:
            continue
        value, side = _sweep_min_cut(net, r)
        if value >= 2 * total:
            continue
        # the cut side is violated and, as x(E) <= n - 1, not all of V, so
        # one of its connected parts is violated
        nodes = _violated_part(unit, groups, inner, cross, side)
        if nodes is None:
            raise InternalError(f"sweep from super-node {r} found no violated part")
        return _forest_cut(matroid, nodes)
    return None


# --- matroid rank separation -------------------------------------------


def _best_prefix(point, unit, elements, cap):
    """One scan of a part under the budget x(top j) <= min(j, cap): its most
    violated prefix (empty when none is violated) and that prefix's rhs."""
    # stable: descending value, ascending id among equal values
    order = sorted(sorted(elements), key=point.__getitem__, reverse=True)
    weight = 0
    best_j, best_viol = 0, 0
    for j, e in enumerate(order, 1):
        weight += point[e]
        viol = weight - min(j, cap) * unit
        if viol > best_viol:
            best_viol, best_j = viol, j
    return order[:best_j], min(best_j, cap)


def separate_rank(point, unit: int, matroid) -> Cut | None:
    """The most violated rank constraint of a partition matroid over proper
    subsets.

    Takes only points with one non-negative entry per element of the
    ground set and x(ground) <= rank, as every point of the relaxation
    is.  The matroid is a partition matroid (a uniform matroid is one
    part): the solver hands graphic matroids to the forest side and
    refuses any other family.  The most violated constraint is the union of each part's best
    prefix; it is never the whole ground set, which no such point violates.
    """
    elements = []
    rhs = 0
    for part, cap in matroid.parts:
        prefix, part_rhs = _best_prefix(point, unit, part, cap)
        elements += prefix
        rhs += part_rhs
    if not elements:
        return None
    return tuple(sorted(elements)), rhs
