"""Independent reference answers for small instances.

Everything here is deliberately naive: count trees by determinant,
enumerate selections explicitly, scan all pairs.  The main solver is never
consulted, so agreement between the two routes is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoBasis, TooManyTrees
from .instance import Instance
from .matroids import MatroidInstance, enumerate_bases
from .multigraph import MultiGraph
from .rational import Rat, rat

ENUMERATION_TREE_LIMIT = 1_000_000
PAIR_SCAN_LIMIT = 5_000_000


def count_spanning_trees(graph: MultiGraph) -> int:
    """Number of spanning trees, via the Laplacian determinant (exact).

    Parallel edges count as distinct trees; the determinant is computed
    fraction-free over the integers, so the result is exact at any size.
    """
    if not graph.is_connected():
        return 0
    nodes = sorted(graph.nodes)
    if len(nodes) == 1:
        return 1
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    lap = [[0] * n for _ in range(n)]
    for u, v in graph.edges.values():
        iu, iv = index[u], index[v]
        lap[iu][iu] += 1
        lap[iv][iv] += 1
        lap[iu][iv] -= 1
        lap[iv][iu] -= 1
    # principal minor: drop the last row and column, Bareiss elimination
    m = [row[: n - 1] for row in lap[: n - 1]]
    size = n - 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            for row in m:
                row[k], row[swap] = row[swap], row[k]  # symmetric swap keeps sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return m[size - 1][size - 1]


def enumerate_spanning_trees(graph: MultiGraph) -> list[tuple[int, ...]]:
    """All spanning trees as sorted edge-id tuples, each exactly once.

    Contract/delete recursion on the lowest surviving edge id; refuses
    graphs with more than ENUMERATION_TREE_LIMIT trees up front.
    """
    total = count_spanning_trees(graph)
    if total > ENUMERATION_TREE_LIMIT:
        raise TooManyTrees(f"{total} spanning trees exceeds {ENUMERATION_TREE_LIMIT}")
    out: list[tuple[int, ...]] = []
    if total == 0:
        return out

    def rec(g: MultiGraph, chosen: list[int]):
        if g.node_count == 1:
            out.append(tuple(sorted(chosen)))
            return
        e = g.edge_ids()[0]
        # trees containing e
        chosen.append(e)
        rec(g.contract_edge(e), chosen)
        chosen.pop()
        # trees avoiding e (only if the rest still connects)
        rest = g.delete_edge(e)
        if rest.is_connected():
            rec(rest, chosen)

    rec(graph, [])
    return out


@dataclass(frozen=True)
class BruteResult:
    X: tuple[int, ...]
    Y: tuple[int, ...]
    Z: tuple[int, ...]
    first_stage: Rat
    second_stage: Rat
    total: Rat
    pairs_scanned: int


def _pair_scan(selections, costs, scale: int, overlap_required: int, prune: bool) -> BruteResult:
    if len(selections) ** 2 > PAIR_SCAN_LIMIT:
        raise TooManyTrees(
            f"{len(selections)}^2 selection pairs exceed {PAIR_SCAN_LIMIT}"
        )
    first_cost, second_cost = costs.C.__getitem__, costs.second.__getitem__
    rated = [(sel, frozenset(sel), sum(map(first_cost, sel)), sum(map(second_cost, sel)))
             for sel in selections]
    if not rated:
        raise NoBasis("no feasible selections exist")
    min_second = min(r[3] for r in rated)
    by_first = sorted(rated, key=lambda r: (r[2], r[0]))
    by_second = sorted(rated, key=lambda r: (r[3], r[0]))

    best = None
    scanned = 0
    for x_sel, x_set, first, _ in by_first:
        # strict bounds keep the prune argmin identical to the full scan
        if prune and best is not None and first + min_second > best[0]:
            break
        for y_sel, y_set, _, second in by_second:
            total = first + second
            if prune and best is not None and total > best[0]:
                break
            scanned += 1
            if len(x_set & y_set) < overlap_required:
                continue
            key = (total, x_sel, y_sel)
            if best is None or key < best:
                best = key
    if best is None:
        raise NoBasis("no selection pair meets the overlap requirement")
    total, x_sel, y_sel = best
    z = tuple(sorted(set(x_sel) & set(y_sel))[:overlap_required])
    first = sum(map(first_cost, x_sel))
    second = sum(map(second_cost, y_sel))
    return BruteResult(x_sel, y_sel, z, rat(first, scale), rat(second, scale), rat(total, scale), scanned)


def brute_force_rrst(instance: Instance, prune: bool = False) -> BruteResult:
    """Optimal tree pair by explicit enumeration (reference route)."""
    trees = enumerate_spanning_trees(instance.graph)
    trees.sort()
    return _pair_scan(trees, instance.costs, instance.scale, instance.overlap_requirement, prune)


def brute_force_rrmb(minstance: MatroidInstance, prune: bool = False) -> BruteResult:
    """Optimal basis pair by explicit enumeration (reference route)."""
    bases = enumerate_bases(minstance.matroid)
    return _pair_scan(bases, minstance.costs, minstance.scale, minstance.overlap_requirement, prune)
