"""Labelled multigraphs with edge contraction and deletion.

Edges carry stable integer ids that survive contraction, which is what the
iterative solver relies on: the graph shrinks, the ids it reports do not.
Self-loops are dropped eagerly whenever a contraction creates them.  Node
labels after contraction are canonical representatives: a merge keeps the
smaller label, so repeated contractions behave like union-find with
min-label roots.
"""

from __future__ import annotations

from collections import deque

from .errors import UnknownEdge, ValidationError


class MultiGraph:
    """Undirected multigraph; immutable in use (operations return new graphs)."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes, edges):
        # edges: mapping id -> (u, v); parallel edges fine, self-loops not
        self.nodes = frozenset(nodes)
        self.edges = dict(edges)
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
        return len(self.components()) <= 1

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
        need = self.node_count - 1
        forest: list[int] = []
        if need <= 0:
            return forest
        parent: dict[int, int] = {}

        def find(v):
            while parent.get(v, v) != v:
                parent[v] = parent.get(parent[v], parent[v])
                v = parent[v]
            return v

        for eid in edge_order:
            u, v = self.endpoints(eid)
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                forest.append(eid)
                if len(forest) == need:
                    break
        return forest

    def __repr__(self) -> str:
        return f"MultiGraph(nodes={sorted(self.nodes)}, edges={self.edges})"
