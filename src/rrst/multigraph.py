"""Labelled multigraphs with edge contraction and deletion.

Edges carry stable integer ids that survive contraction, which is what the
oracle's enumeration and the graphic minors rely on: the graph shrinks, the
ids it reports do not.
Self-loops are dropped eagerly whenever a contraction creates them.  Node
labels after contraction are canonical representatives: a merge keeps the
smaller label, so repeated contractions behave like union-find with
min-label roots.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, starmap
from operator import eq

from .errors import UnknownEdge, ValidationError


class MultiGraph:
    """Undirected multigraph; immutable in use (operations return new graphs)."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes, edges):
        # edges: mapping id -> (u, v); parallel edges fine, self-loops not
        self.nodes = frozenset(nodes)
        self.edges = dict(edges)
        ends = self.edges.values()
        # checked over all edges at once; the walk only names the first fault
        if any(starmap(eq, ends)) or not self.nodes.issuperset(chain.from_iterable(ends)):
            for eid, (u, v) in self.edges.items():
                if u == v:
                    raise ValidationError(f"edge {eid} is a self-loop on node {u}")
                if u not in self.nodes or v not in self.nodes:
                    raise ValidationError(f"edge {eid}=({u},{v}) has an endpoint outside the node set")

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_ids(self) -> list[int]:
        return sorted(self.edges)

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self.edges[eid]
        except KeyError:
            raise UnknownEdge(f"no edge with id {eid}") from None

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """node -> list of (neighbor, edge id), in sorted edge-id order."""
        adj = {v: [] for v in self.nodes}
        for eid in sorted(self.edges):
            u, v = self.edges[eid]
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return adj

    def is_connected(self) -> bool:
        n = self.node_count
        return n <= 1 or len(self.spanning_forest(self.edges)) == n - 1

    def contract_edge(self, eid: int) -> "MultiGraph":
        """Merge the endpoints of eid; drop eid and any edge that becomes a loop.

        The surviving node keeps the smaller label.
        """
        u, v = self.endpoints(eid)
        keep, gone = (u, v) if u < v else (v, u)
        new_edges = {}
        for fid, (a, b) in self.edges.items():
            if fid == eid:
                continue
            if a == gone:
                a = keep
            if b == gone:
                b = keep
            if a == b:
                continue
            new_edges[fid] = (a, b)
        return MultiGraph(self.nodes - {gone}, new_edges)

    def delete_edge(self, eid: int) -> "MultiGraph":
        """Remove eid; nodes are kept even if isolated."""
        self.endpoints(eid)
        new_edges = {fid: uv for fid, uv in self.edges.items() if fid != eid}
        return MultiGraph(self.nodes, new_edges)

    def edges_within(self, node_subset) -> list[int]:
        """Ids of edges with both endpoints inside node_subset, ascending."""
        s = set(node_subset)
        return sorted(eid for eid, (u, v) in self.edges.items() if u in s and v in s)

    def components(self) -> list[frozenset[int]]:
        """Connected components as node sets, ordered by smallest member."""
        adj = self.adjacency()
        seen: set[int] = set()
        comps = []
        for start in sorted(self.nodes):
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            seen.add(start)
            while queue:
                x = queue.popleft()
                for y, _ in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        queue.append(y)
            comps.append(frozenset(comp))
        return comps

    def spanning_forest(self, edge_order) -> list[int]:
        """Kruskal scan: the edges of edge_order, in that order, that join two
        components of the forest kept so far; stops at node_count - 1 edges."""
        return self._merge(edge_order, {})

    def contraction_classes(self, edge_ids) -> dict[int, int]:
        """node -> number of its class once edge_ids are contracted; classes
        are numbered 0, 1, ... in the order of their smallest node."""
        parent: dict[int, int] = {}
        self._merge(edge_ids, parent)
        number: dict[int, int] = {}
        return {v: number.setdefault(_find(parent, v), len(number)) for v in sorted(self.nodes)}

    def _merge(self, edge_order, parent) -> list[int]:
        """The union-find behind both scans above: merge the classes held in
        parent along edge_order; return the edges that joined two classes."""
        need = self.node_count - 1
        forest: list[int] = []
        if need <= 0:
            return forest
        edges = self.edges
        for eid in edge_order:
            try:
                u, v = edges[eid]
            except KeyError:
                raise UnknownEdge(f"no edge with id {eid}") from None
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                forest.append(eid)
                if len(forest) == need:
                    break
        return forest

    def __repr__(self) -> str:
        return f"MultiGraph(nodes={sorted(self.nodes)}, edges={self.edges})"


def _find(parent: dict[int, int], v: int) -> int:
    """Class root of v, halving the path on the way."""
    while parent.get(v, v) != v:
        parent[v] = parent.get(parent[v], parent[v])
        v = parent[v]
    return v
