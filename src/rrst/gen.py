"""Instance generators: seeded random graphs and a built-in small suite.

Random instances are built from a uniform random spanning tree (Prüfer
decoding) plus Bernoulli extra edges, with integer costs drawn uniformly
from [0, cost_max].  Everything is driven by a single ``random.Random(seed)``
stream, so a given seed always yields the byte-identical instance document.
The draw order is the documents' contract:

1. the Prüfer sequence, nodes - 2 labels below ``nodes``;
2. one ``random()`` per node pair u < v that is not a tree edge, in (u, v)
   order; the pair becomes an edge when the draw is below ``density``;
3. C, c, d of each edge, in edge-id order, each below ``cost_max + 1``.

A draw below a bound b (steps 1 and 3) is ``getrandbits(b.bit_length())``,
drawn again while it is b or more: the draw ``randrange(b)`` makes on
CPython 3.10-3.13, taken a batch at a time by `_below`.

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
from .matroids import GraphicMatroid
from .rational import DIGIT_LIMIT, MAX_DIGITS

__all__ = [
    "generate_instance",
    "connected_graphs_up_to_iso",
    "builtin_small_suite",
]


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


def _below(rng: random.Random, bound: int, count: int) -> list[int]:
    """count draws from rng, each uniform in [0, bound) for bound >= 1, drawn
    as ``rng.randrange(bound)`` draws them: ``getrandbits`` of bound's bit
    length, rejected at bound or above.  Each batch draws only the number
    still owed, so the stream ends where count such calls would leave it."""
    width = bound.bit_length()
    drawn: list[int] = []
    while len(drawn) < count:
        drawn += [r for r in map(rng.getrandbits, itertools.repeat(width, count - len(drawn))) if r < bound]
    return drawn


def _drawn_costs(rng: random.Random, cost_max: int, ids) -> CostColumns:
    """Costs of ids, a sized iterable of ascending ids, uniform in
    [0, cost_max], drawn C, c, d per id in id order, whole at scale 1."""
    drawn = _below(rng, cost_max + 1, 3 * len(ids))
    C, c, d = (dict(zip(ids, drawn[i::3])) for i in range(3))
    return CostColumns(C, c, d, 1)


def generate_instance(nodes: int, density: float, k: int, cost_max: int, seed: int) -> Instance:
    """Seeded random connected instance.

    The edge set is a uniform random spanning tree plus each remaining node
    pair independently with probability ``density``; density 0 yields exactly
    a tree and density 1 the complete graph.  Edge ids are assigned in sorted
    endpoint order, and each edge draws integer costs C, c, d uniformly from
    [0, cost_max].  The stream of ``random.Random(seed)`` is read in the
    module docstring's order: the Prüfer sequence, then one ``random()`` per
    non-tree pair in (u, v) order, then C, c, d per edge in id order, each
    by ``getrandbits`` with rejection at ``cost_max + 1``.
    """
    if nodes < 1:
        raise ValidationError(f"nodes must be >= 1, got {nodes}")
    if not 0.0 <= density <= 1.0:
        raise ValidationError(f"density must be in [0, 1], got {density}")
    if cost_max < 0:
        raise ValidationError(f"cost-max must be >= 0, got {cost_max}")
    if cost_max >= DIGIT_LIMIT:
        # a cost the readers would refuse
        raise ValidationError(f"cost-max has more than {MAX_DIGITS} digits")
    if not 0 <= k <= nodes - 1:
        raise ValidationError(f"k={k} outside 0..{nodes - 1}")
    rng = random.Random(seed)

    if nodes == 1:
        tree: list[tuple[int, int]] = []
    elif nodes == 2:
        tree = [(0, 1)]
    else:
        tree = _tree_from_pruefer(_below(rng, nodes, nodes - 2), nodes)

    # each row u: its tree neighbours above u, and between them the free
    # pairs, one Bernoulli draw each
    above: list[list[int]] = [[] for _ in range(nodes)]
    for u, v in tree:
        above[u].append(v)
    draw = rng.random
    pairs: list[tuple[int, int]] = []
    for u, row in enumerate(above):
        row.sort()
        free = [v for a, b in itertools.pairwise([u, *row, nodes]) for v in range(a + 1, b)]
        row += [v for v in free if draw() < density]
        row.sort()
        pairs += zip(itertools.repeat(u), row)

    edges = dict(enumerate(pairs))
    # keyed by the edge dict's own ids, so the columns share its int objects
    costs = _drawn_costs(rng, cost_max, edges)
    return Instance(matroid=GraphicMatroid(range(nodes), edges), costs=costs, k=k)


def connected_graphs_up_to_iso(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All connected simple graphs on n labelled nodes, one per isomorphism
    class, as canonical sorted edge-pair tuples."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if GraphicMatroid(range(n), dict(enumerate(edges))).full_rank() != n - 1:
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
    """The costs of one of BUILTIN_PATTERNS on edge ids 0..m-1."""
    if pattern == "unit":
        return CostColumns.from_rows({i: (1, 1, 1) for i in range(m)})
    if pattern == "anti":
        # cheap first stage pairs with expensive second stage and vice versa
        return CostColumns.from_rows({i: (i + 1, m - i, i % 2) for i in range(m)})
    return _drawn_costs(random.Random(seed_key), 20, range(m))  # "random"


BUILTIN_PATTERNS = ("unit", "anti", "random")
BUILTIN_MAX_NODES = 5


def builtin_small_suite() -> list[tuple[str, Instance]]:
    """The deterministic (name, instance) corpus over all connected graphs
    with at most BUILTIN_MAX_NODES nodes, three cost patterns, and every k."""
    suite = []
    for n in range(1, BUILTIN_MAX_NODES + 1):
        for gi, canon in enumerate(connected_graphs_up_to_iso(n)):
            edges = {i: uv for i, uv in enumerate(canon)}
            for pattern in BUILTIN_PATTERNS:
                costs = _pattern_costs(pattern, len(edges), f"builtin-{n}-{gi}")
                for k in range(n):
                    name = f"n{n}-g{gi:02d}-k{k}-{pattern}"
                    inst = Instance(matroid=GraphicMatroid(range(n), edges), costs=costs, k=k)
                    suite.append((name, inst))
    return suite
