"""Separation oracles for the lazily-generated constraint families.

Forest side: given a fractional point on the edges of a multigraph, find a
node set U (2 <= |U| < n) whose induced edges carry more weight than
|U| - 1, i.e. a violated subtree-packing constraint.  The search runs one
exact max-flow per forced vertex on the network

    source -> edge-node         capacity x_e
    edge-node -> each endpoint  capacity infinity
    vertex -> sink              capacity 1   (0 for the forced vertex)

A violated set containing the forced vertex exists iff the min cut is
below x(E).  The extracted cut side is split into connected components and
each component checked exactly, which sharpens certificates to connected
sets and filters out the full vertex set (the full set corresponds to the
cardinality equality, which is not part of the lazy family).  Whenever any
violated set exists, at least one extracted component is violated, so the
verdict always matches exhaustive enumeration; the returned cut is the
best extracted candidate, which for points respecting the unit bounds is
in practice the sharpest connected one.  On points that satisfy
x(E) = n - 1 the full set can never show up; for arbitrary points a second
forced-out sweep keeps the verdict aligned with exhaustive enumeration.

Matroid side: rank constraints x(U) <= rank(U) over proper subsets.
Uniform and partition matroids reduce to sorted prefix scans; graphic
matroids delegate to the forest machinery; the exhaustive scan covers
everything else (and doubles as the independent verification route).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from math import lcm

from .errors import GroundTooLarge, ValidationError
from .multigraph import MultiGraph
from .rational import ZERO, Rat, rat

EXHAUSTIVE_NODE_LIMIT = 20


@dataclass(frozen=True)
class ViolatedCut:
    """One violated constraint: sum of point over `elements` exceeds rhs.

    slack = rhs - point(elements) is strictly negative.  For forest cuts
    node_set records the witnessing vertex set.
    """

    elements: tuple[int, ...]
    rhs: Rat
    slack: Rat
    node_set: tuple[int, ...] | None = None

    @property
    def violation(self) -> Rat:
        return -self.slack


# --- forest separation ------------------------------------------------


def _check_point(point, graph):
    missing = set(graph.edges) - set(point)
    if missing:
        raise ValidationError(f"point missing edges {sorted(missing)}")
    for eid in graph.edges:
        if point[eid] < 0:
            raise ValidationError(f"point[{eid}]={point[eid]} is negative")


def _forest_cut_for(point, graph, nodes) -> ViolatedCut | None:
    """Exact check of one candidate node set; None unless it is violated."""
    n = graph.node_count
    if not 2 <= len(nodes) < n:
        return None
    edges = graph.edges_within(nodes)
    weight = ZERO
    for eid in edges:
        weight += point[eid]
    rhs = rat(len(nodes) - 1)
    slack = rhs - weight
    if slack >= 0:
        return None
    return ViolatedCut(tuple(edges), rhs, slack, tuple(sorted(nodes)))


def _num_den(v) -> tuple[int, int]:
    return int(v.numerator), int(v.denominator)


def _scaled_caps(point, graph) -> tuple[dict, int, int]:
    """Clear point denominators: integer capacities, their sum, the scale."""
    unit = 1
    for eid in graph.edges:
        v = point[eid]
        if v > 0:
            unit = lcm(unit, _num_den(v)[1])
    caps = {}
    total = 0
    for eid in graph.edges:
        v = point[eid]
        if v > 0:
            num, den = _num_den(v)
            c = num * (unit // den)
            caps[eid] = c
            total += c
    return caps, total, unit


def _sweep_min_cut(graph, caps, total, unit, forced_in, forced_out):
    """One integer max-flow (Dinic); returns (value, source-side vertices).

    Network: source -> edge-node (cap), edge-node -> endpoints (inf),
    vertex -> sink (unit; omitted for forced_in, inf for forced_out).
    """
    index = {("s",): 0, ("t",): 1}

    def nid(label):
        i = index.get(label)
        if i is None:
            i = len(index)
            index[label] = i
        return i

    inf = total + graph.node_count * unit + 1
    head: list[list[int]] = [[], []]
    to: list[int] = []
    cap: list[int] = []

    def arc(a, b, c):
        ia, ib = nid(a), nid(b)
        while len(head) < len(index):
            head.append([])
        head[ia].append(len(to))
        to.append(ib)
        cap.append(c)
        head[ib].append(len(to))
        to.append(ia)
        cap.append(0)

    for eid in sorted(caps):
        u, v = graph.endpoints(eid)
        arc(("s",), ("e", eid), caps[eid])
        arc(("e", eid), ("v", u), inf)
        arc(("e", eid), ("v", v), inf)
    for node in sorted(graph.nodes):
        if node == forced_in:
            continue
        arc(("v", node), ("t",), inf if node == forced_out else unit)

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
            pushed = push(0, inf)
            if not pushed:
                break
            flow += pushed

    reach = {0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for i in head[x]:
            y = to[i]
            if cap[i] > 0 and y not in reach:
                reach.add(y)
                queue.append(y)
    vertices = frozenset(label[1] for label, i in index.items() if i in reach and label[0] == "v")
    return flow, vertices


def _candidates_from_vertices(point, graph, nodes) -> list[ViolatedCut]:
    induced = MultiGraph(nodes, {eid: graph.edges[eid] for eid in graph.edges_within(nodes)})
    found = []
    for comp in induced.components():
        cut = _forest_cut_for(point, graph, comp)
        if cut is not None:
            found.append(cut)
    return found


def separate_forest_candidates(point, graph: MultiGraph, stop_early: bool = False) -> list[ViolatedCut]:
    """Candidate cuts from the min-cut sweep, deduplicated, best first.

    With stop_early the sweep returns as soon as one forced vertex yields
    candidates; the verdict (empty vs nonempty) is unaffected because a
    violated set exists iff some forced vertex flags one.  Vertices touching
    no positive edge are skipped: any violated set keeps a positive inner
    edge whose endpoints already serve as forced vertices.
    """
    _check_point(point, graph)
    n = graph.node_count
    if n < 3:
        return []
    caps, total, unit = _scaled_caps(point, graph)
    if total == 0:
        return []
    support = set()
    for eid in caps:
        u, v = graph.endpoints(eid)
        support.add(u)
        support.add(v)
    by_nodes: dict = {}
    unresolved = []
    for r in sorted(support):
        value, side = _sweep_min_cut(graph, caps, total, unit, r, None)
        if value >= total:
            continue
        cuts = _candidates_from_vertices(point, graph, side)
        for cut in cuts:
            by_nodes.setdefault(cut.node_set, cut)
        if not cuts:
            unresolved.append(r)
        elif stop_early:
            break
    # a flow flagged violation but extraction yielded no proper set: the
    # cut side was the full vertex set, which only happens off the
    # x(E) = n-1 hyperplane; sweep again with one vertex forced out
    if not by_nodes:
        for r in unresolved:
            for q in sorted(graph.nodes):
                if q == r:
                    continue
                value, side = _sweep_min_cut(graph, caps, total, unit, r, q)
                if value >= total:
                    continue
                for cut in _candidates_from_vertices(point, graph, side):
                    by_nodes.setdefault(cut.node_set, cut)
    return sorted(by_nodes.values(), key=lambda c: (c.slack, c.node_set))


def separate_forest(point, graph: MultiGraph) -> ViolatedCut | None:
    """Best violated connected subtour set found by min-cut sweeps, or None.

    Complete as a verdict: returns a cut iff some subtour constraint is
    violated.
    """
    cands = separate_forest_candidates(point, graph)
    return cands[0] if cands else None


def separate_forest_exhaustive(point, graph: MultiGraph) -> ViolatedCut | None:
    """Reference route: check every node subset with 2 <= |U| < n."""
    _check_point(point, graph)
    n = graph.node_count
    if n > EXHAUSTIVE_NODE_LIMIT:
        raise GroundTooLarge(f"{n} nodes exceeds the exhaustive scan limit")
    best = None
    nodes = sorted(graph.nodes)
    for size in range(2, n):
        for combo in itertools.combinations(nodes, size):
            cut = _forest_cut_for(point, graph, combo)
            if cut is not None and (best is None or (cut.slack, cut.node_set) < (best.slack, best.node_set)):
                best = cut
    return best


# --- matroid rank separation -------------------------------------------


def _prefix_cut(order, prefix, j, rank_fn) -> ViolatedCut:
    elements = tuple(sorted(order[:j]))
    rhs = rat(rank_fn(j))
    return ViolatedCut(elements, rhs, rhs - prefix[j], None)


def _uniform_scan(point, elements, cap, allow_full):
    """Best prefix violation for a uniform-style budget: x(top j) <= min(j, cap)."""
    order = sorted(elements, key=lambda e: (-point[e], e))
    prefix = [ZERO]
    for e in order:
        prefix.append(prefix[-1] + point[e])
    limit = len(order) if allow_full else len(order) - 1
    best_j, best_viol = 0, ZERO
    for j in range(1, limit + 1):
        viol = prefix[j] - min(j, cap)
        if viol > best_viol:
            best_viol, best_j = viol, j
    return best_j, best_viol, order, prefix


def separate_rank(point, matroid) -> ViolatedCut | None:
    """Family-specialized violated rank constraint over proper subsets.

    Uniform and partition scans return the most violated constraint;
    the graphic route returns a violated one whenever any exists (for
    points on the rank budget x(ground) = rank(ground)).
    """
    family = matroid.family
    if family == "uniform":
        m = len(matroid.ground)
        if m <= 1:
            return None
        j, viol, order, prefix = _uniform_scan(point, matroid.ground, matroid.r, allow_full=False)
        if viol <= 0:
            return None
        return _prefix_cut(order, prefix, j, lambda jj: min(jj, matroid.r))
    if family == "partition":
        return _separate_partition(point, matroid)
    if family == "graphic":
        return _separate_graphic(point, matroid)
    return separate_rank_exhaustive(point, matroid)


def _separate_partition(point, matroid) -> ViolatedCut | None:
    per_part = []
    for elements, cap in matroid.parts:
        if not elements:
            continue
        j, viol, order, prefix = _uniform_scan(point, elements, cap, allow_full=True)
        per_part.append((j, viol, order, prefix, cap))
    chosen = [(j if viol > 0 else 0, viol if viol > 0 else ZERO, order, prefix, cap)
              for j, viol, order, prefix, cap in per_part]
    total_viol = sum((viol for _, viol, *_ in chosen), ZERO)
    if total_viol <= 0:
        return None
    sizes = [j for j, *_ in chosen]
    if sum(sizes) == len(matroid.ground):
        # the union is the whole ground set; the best proper set re-picks
        # one part at its best strictly-smaller prefix
        best = None
        for idx, (j, viol, order, prefix, cap) in enumerate(chosen):
            alt_j, alt_viol = 0, ZERO
            for jj in range(1, len(order)):
                v = prefix[jj] - min(jj, cap)
                if v > alt_viol:
                    alt_viol, alt_j = v, jj
            candidate_total = total_viol - viol + alt_viol
            if best is None or candidate_total > best[0]:
                best = (candidate_total, idx, alt_j)
        total, idx, alt_j = best
        if total <= 0:
            return None
        sizes = list(sizes)
        sizes[idx] = alt_j
        total_viol = total
    elements = []
    rhs = ZERO
    for (j, viol, order, prefix, cap), size in zip(chosen, sizes):
        elements.extend(order[:size])
        rhs += min(size, cap)
    return ViolatedCut(tuple(sorted(elements)), rhs, -total_viol, None)


def _separate_graphic(point, matroid) -> ViolatedCut | None:
    """Loops with positive value, proper vertex subsets via the forest
    sweep, and whole graph components whose edge set is still a proper
    subset of the ground set.  Together these cover every violated proper
    subset whenever x(ground) <= rank(ground); beyond that hyperplane the
    eager cardinality row of the relaxation is violated anyway."""
    candidates = []
    for e in sorted(matroid.loops):
        if point[e] > 0:
            candidates.append(ViolatedCut((e,), ZERO, -point[e], None))
    graph = matroid.graph
    graph_point = {e: point[e] for e in graph.edges}
    forest = separate_forest(graph_point, graph)
    if forest is not None:
        candidates.append(
            ViolatedCut(forest.elements, forest.rhs, forest.slack, forest.node_set)
        )
    for comp in graph.components():
        if len(comp) < 2:
            continue
        edges = graph.edges_within(comp)
        if len(edges) >= len(matroid.ground):
            continue  # not a proper subset of the ground set
        weight = ZERO
        for eid in edges:
            weight += graph_point[eid]
        rhs = rat(len(comp) - 1)
        if weight > rhs:
            candidates.append(ViolatedCut(tuple(edges), rhs, rhs - weight, tuple(sorted(comp))))
    if not candidates:
        return None
    return min(candidates, key=lambda c: (c.slack, c.elements))


def separate_rank_exhaustive(point, matroid) -> ViolatedCut | None:
    """Reference route: every proper nonempty subset against greedy rank."""
    ground = sorted(matroid.ground)
    if len(ground) > EXHAUSTIVE_NODE_LIMIT:
        raise GroundTooLarge(f"{len(ground)} elements exceeds the exhaustive scan limit")
    best = None
    for size in range(1, len(ground)):
        for combo in itertools.combinations(ground, size):
            weight = ZERO
            for e in combo:
                weight += point[e]
            rhs = rat(matroid.rank(frozenset(combo)))
            slack = rhs - weight
            if slack < 0 and (best is None or (slack, combo) < (best.slack, best.elements)):
                best = ViolatedCut(tuple(combo), rhs, slack, None)
    return best
