"""Labelled multigraphs with edge contraction and deletion.

Edges carry stable integer ids that survive contraction, which is what the
oracle's enumeration relies on: the graph shrinks, the ids it reports do
not.
Self-loops are dropped eagerly whenever a contraction creates them.  Node
labels after contraction are canonical representatives: a merge keeps the
smaller label, so repeated contractions behave like union-find with
min-label roots.

Connectivity is one union-find idiom, in `spanning_forest` (Kruskal) and
`classes` (contraction classes, split into connected parts): a dict maps
each non-root to its parent, a node absent from it is a root, and each
root is found by an inline walk that halves the path, pointing every node
it steps from at its grandparent.
"""

from __future__ import annotations

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

    def spanning_forest(self, edge_order) -> list[int]:
        """Kruskal scan: the edges of edge_order, in that order, that join two
        components of the forest kept so far; stops at node_count - 1 edges."""
        need = self.node_count - 1
        forest: list[int] = []
        if need <= 0:
            return forest
        edges = self.edges
        parent: dict[int, int] = {}  # non-roots only, as in classes
        for eid in edge_order:
            try:
                u, v = edges[eid]
            except KeyError:
                raise UnknownEdge(f"no edge with id {eid}") from None
            while u in parent:
                p = parent[u]
                if p in parent:
                    parent[u] = p = parent[p]
                u = p
            while v in parent:
                p = parent[v]
                if p in parent:
                    parent[v] = p = parent[p]
                v = p
            if u != v:
                parent[u] = v
                forest.append(eid)
                if len(forest) == need:
                    break
        return forest

    def contraction_classes(self, edge_ids) -> tuple[dict[int, int], list[list[int]]]:
        """The node classes once edge_ids are contracted: node -> class
        number, and the classes, numbered by smallest node, each ascending."""
        return classes(sorted(self.nodes), map(self.endpoints, edge_ids))

    def __repr__(self) -> str:
        return f"MultiGraph(nodes={sorted(self.nodes)}, edges={self.edges})"


def classes(items, links) -> tuple[dict, list[list]]:
    """Union-find classes of items, where each link (a, b) joins the classes
    of a and b.  Returns item -> class number and the classes as lists, both
    numbered by first appearance in items and each in the order of items."""
    # parent holds the non-roots only; each root walk halves its path
    parent: dict = {}
    for a, b in links:
        while a in parent:
            p = parent[a]
            if p in parent:
                parent[a] = p = parent[p]
            a = p
        while b in parent:
            p = parent[b]
            if p in parent:
                parent[b] = p = parent[p]
            b = p
        if a != b:
            parent[a] = b
    label: dict = {}
    groups: list[list] = []
    number: dict = {}
    for v in items:
        root = v
        while root in parent:
            p = parent[root]
            if p in parent:
                parent[root] = p = parent[p]
            root = p
        i = number.get(root)
        if i is None:
            i = number[root] = len(groups)
            groups.append([v])
        else:
            groups[i].append(v)
        label[v] = i
    return label, groups
