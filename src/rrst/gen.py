"""Instance generators: seeded random graphs and a built-in small suite.

Random instances are built from a uniform random spanning tree (Prüfer
decoding) plus Bernoulli extra edges, with integer costs drawn uniformly
from [0, cost_max].  Everything is driven by a single ``random.Random(seed)``
stream, so a given seed always yields the byte-identical instance document.

The built-in suite enumerates every connected graph on at most five nodes
up to isomorphism and equips each with three cost patterns:

* ``unit``  - every cost equals one;
* ``anti``  - first-stage and second-stage costs pull in opposite
              directions (cheap now means expensive later);
* ``random``- integer costs from a per-graph seeded stream.

Each (graph, pattern) pair is instantiated at every feasible recovery
budget k, giving a deterministic corpus that exercises all overlap regimes.
"""

from __future__ import annotations

import heapq
import itertools
import random

from .errors import ValidationError
from .instance import CostColumns, Instance
from .multigraph import MultiGraph

__all__ = [
    "generate_instance",
    "connected_graphs_up_to_iso",
    "builtin_small_suite",
    "BUILTIN_GRAPH_COUNTS",
]

# connected graphs up to isomorphism on 1..5 nodes; used as a self-check
BUILTIN_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}


def _tree_from_pruefer(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence into the edge list of a labelled tree."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def generate_instance(nodes: int, density: float, k: int, cost_max: int, seed: int) -> Instance:
    """Seeded random connected instance.

    The edge set is a uniform random spanning tree plus each remaining node
    pair independently with probability ``density``; density 0 yields exactly
    a tree and density 1 the complete graph.  Edge ids are assigned in sorted
    endpoint order, and each edge draws integer costs C, c, d uniformly from
    [0, cost_max] in id order.
    """
    if nodes < 1:
        raise ValidationError(f"nodes must be >= 1, got {nodes}")
    if not 0.0 <= density <= 1.0:
        raise ValidationError(f"density must be in [0, 1], got {density}")
    if cost_max < 0:
        raise ValidationError(f"cost-max must be >= 0, got {cost_max}")
    if not 0 <= k <= nodes - 1:
        raise ValidationError(f"k={k} outside 0..{nodes - 1}")
    rng = random.Random(seed)

    if nodes == 1:
        tree_pairs: set[tuple[int, int]] = set()
    elif nodes == 2:
        tree_pairs = {(0, 1)}
    else:
        seq = [rng.randrange(nodes) for _ in range(nodes - 2)]
        tree_pairs = set(_tree_from_pruefer(seq, nodes))

    pairs = set(tree_pairs)
    for u in range(nodes):
        for v in range(u + 1, nodes):
            if (u, v) in tree_pairs:
                continue
            if rng.random() < density:
                pairs.add((u, v))

    edges = {i: uv for i, uv in enumerate(sorted(pairs))}
    costs = CostColumns.from_rows({
        i: (rng.randint(0, cost_max), rng.randint(0, cost_max), rng.randint(0, cost_max))
        for i in sorted(edges)
    })
    return Instance(graph=MultiGraph(range(nodes), edges), costs=costs, k=k, scale=1)


def _connected(n: int, pairs) -> bool:
    graph = MultiGraph(range(n), dict(enumerate(pairs)))
    return len(graph.spanning_forest(graph.edges)) == n - 1


def connected_graphs_up_to_iso(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All connected simple graphs on n labelled nodes, one per isomorphism
    class, as canonical sorted edge-pair tuples."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if not _connected(n, edges):
            continue
        canon = min(
            tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
            for p in perms
        )
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return sorted(out, key=lambda es: (len(es), es))


def _pattern_costs(pattern: str, m: int, seed_key: str) -> CostColumns:
    if pattern == "unit":
        return CostColumns.from_rows({i: (1, 1, 1) for i in range(m)})
    if pattern == "anti":
        # cheap first stage pairs with expensive second stage and vice versa
        return CostColumns.from_rows({i: (i + 1, m - i, i % 2) for i in range(m)})
    if pattern == "random":
        rng = random.Random(seed_key)
        return CostColumns.from_rows({
            i: (rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 20))
            for i in range(m)
        })
    raise ValidationError(f"unknown cost pattern {pattern!r}")


BUILTIN_PATTERNS = ("unit", "anti", "random")


def builtin_small_suite(max_nodes: int = 5) -> list[tuple[str, Instance]]:
    """The deterministic (name, instance) corpus over all connected graphs
    with at most ``max_nodes`` nodes, three cost patterns, and every k."""
    suite = []
    for n in range(1, max_nodes + 1):
        for gi, canon in enumerate(connected_graphs_up_to_iso(n)):
            edges = {i: uv for i, uv in enumerate(canon)}
            for pattern in BUILTIN_PATTERNS:
                costs = _pattern_costs(pattern, len(edges), f"builtin-{n}-{gi}")
                for k in range(n):
                    name = f"n{n}-g{gi:02d}-k{k}-{pattern}"
                    inst = Instance(
                        graph=MultiGraph(range(n), dict(edges)), costs=costs, k=k, scale=1
                    )
                    suite.append((name, inst))
    return suite
