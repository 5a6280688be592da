"""GraphicMatroid as a graph (matroids.py holds its nodes and edges):
construction checks, parallel edges, contraction, deletion,
connectivity, and the union-find walk behind the Kruskal scan and
`classes`."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrst.errors import ValidationError
from rrst.matroids import GraphicMatroid, classes
from rrst.separation import _forest_cut


def k4():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return GraphicMatroid(range(4), dict(enumerate(pairs)))


def test_basic_accessors():
    g = k4()
    assert len(g.nodes) == 4
    assert len(g.edges) == 6
    assert sorted(g.edges) == [0, 1, 2, 3, 4, 5] == sorted(g.ground)
    assert g.edges[3] == (1, 2)
    # Kruskal scan: 3 closes the triangle 1-2-3, and the scan stops at n - 1
    assert g.max_independent([5, 4, 3, 2, 1, 0]) == [5, 4, 2]
    with pytest.raises(ValidationError, match="no edge with id 99"):
        g.max_independent([99])
    with pytest.raises(ValidationError, match=r"elements \[99\] not in ground set"):
        g.contract(99)
    with pytest.raises(ValidationError, match=r"elements \[99\] not in ground set"):
        g.delete(99)


def test_self_loop_rejected():
    with pytest.raises(ValidationError, match="edge 0 is a self-loop on node 1"):
        GraphicMatroid(range(2), {0: (1, 1)})


def test_endpoint_outside_nodes_rejected():
    with pytest.raises(ValidationError, match="outside the node set"):
        GraphicMatroid(range(2), {0: (0, 5)})


def test_parallel_edges_allowed():
    g = GraphicMatroid(range(2), {0: (0, 1), 1: (0, 1)})
    assert len(g.edges) == 2
    assert g.full_rank() == len(g.nodes) - 1  # connected


def test_connectivity_and_components():
    g = GraphicMatroid(range(4), {0: (0, 1), 1: (2, 3)})
    assert g.full_rank() < len(g.nodes) - 1  # not connected
    # contracting every edge leaves one class per connected component
    assert classes(sorted(g.nodes), g.edges.values()) == ({0: 0, 1: 0, 2: 1, 3: 1}, [[0, 1], [2, 3]])
    assert g.max_independent(sorted(g.edges)) == [0, 1]
    empty = GraphicMatroid([], {})
    assert empty.full_rank() == 0 and empty.max_independent([]) == []


def test_contract_merges_to_smaller_label_and_drops_loops():
    g = GraphicMatroid(range(3), {0: (0, 1), 1: (0, 1), 2: (1, 2)})
    h = g.contract(0)
    # node 1 merged into node 0; the parallel edge 1 became a loop and is gone
    assert h.nodes == frozenset({0, 2})
    assert set(h.edges) == {2} == h.ground
    assert h.edges[2] == (0, 2)


def test_contract_keeps_parallel_non_loops():
    g = k4()
    h = g.contract(0)  # merge 0,1: edges (0,2)&(1,2) become parallel
    assert len(h.nodes) == 3
    assert len(h.edges) == 5
    assert h.edges[1] == (0, 2) and h.edges[3] == (0, 2)


def test_delete_keeps_isolated_nodes():
    g = GraphicMatroid(range(2), {0: (0, 1)})
    h = g.delete(0)
    assert len(h.nodes) == 2 and len(h.edges) == 0 and not h.ground
    assert h.full_rank() < len(h.nodes) - 1  # not connected


def test_edges_within():
    # a forest row holds the edges with both ends in its node set, ascending
    g = k4()
    assert _forest_cut(g, {0, 1, 2}) == ((0, 1, 3), 2)
    assert _forest_cut(g, {3}) == ((), 0)


def test_operations_do_not_mutate():
    g = k4()
    g.contract(0)
    g.delete(5)
    assert len(g.edges) == 6 and len(g.nodes) == 4 and g == k4()


@st.composite
def random_graph(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs)))
    return GraphicMatroid(range(n), dict(enumerate(chosen)))


@given(random_graph())
def test_contract_shrinks_one_node(g):
    eid = sorted(g.edges)[0]
    h = g.contract(eid)
    assert len(h.nodes) == len(g.nodes) - 1
    assert eid not in h.edges
    # surviving ids keep their identity
    assert set(h.edges) <= set(g.edges) - {eid}


@given(random_graph())
def test_components_partition_nodes(g):
    comps = classes(sorted(g.nodes), g.edges.values())[1]
    union = set()
    for comp in map(set, comps):
        assert not (union & comp)
        union |= comp
    assert union == set(g.nodes)
    assert (g.full_rank() == len(g.nodes) - 1) == (len(comps) == 1)


def bfs_classes(items, links):
    """Reference for classes: one breadth-first search per new class."""
    adjacent = {v: [] for v in items}
    for a, b in links:
        adjacent[a].append(b)
        adjacent[b].append(a)
    label, groups = {}, []
    for v in items:
        if v in label:
            continue
        seen, queue = {v}, deque([v])
        while queue:
            for w in adjacent[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        for u in seen:
            label[u] = len(groups)
        groups.append([u for u in items if u in seen])
    return label, groups


@st.composite
def items_and_links(draw):
    """Distinct items in no particular order, and links among them with
    repeats and self-links; items no link touches are common."""
    items = draw(st.lists(st.integers(-20, 20), max_size=12, unique=True))
    if not items:
        return items, []
    pair = st.tuples(st.sampled_from(items), st.sampled_from(items))
    return items, draw(st.lists(pair, max_size=2 * len(items)))


@given(items_and_links())
@settings(max_examples=300, deadline=None)
def test_classes_match_breadth_first_search(problem):
    items, links = problem
    links = links + links[: len(links) // 2]  # every other link repeated
    assert classes(items, links) == bfs_classes(items, links)


def kruskal(graph, edge_order):
    """Reference for the Kruskal scan: components kept as node -> label
    maps, relabelled in full at each merge."""
    need = len(graph.nodes) - 1
    component = {v: v for v in graph.nodes}
    forest = []
    for eid in edge_order:
        if len(forest) >= need:
            break
        if eid not in graph.edges:
            raise ValidationError(f"no edge with id {eid}")
        u, v = graph.edges[eid]
        if component[u] != component[v]:
            old = component[u]
            component = {w: component[v] if c == old else c for w, c in component.items()}
            forest.append(eid)
    return forest


@st.composite
def graph_and_order(draw):
    """A multigraph on 1-7 nodes with spread-out labels and parallel edges,
    often disconnected or edgeless, and an edge order: every id once, then
    repeats, with an id outside the graph somewhere in half the orders."""
    nodes = draw(st.lists(st.integers(0, 30), min_size=1, max_size=7, unique=True))
    pairs = [(u, v) for u in nodes for v in nodes if u < v]
    ends = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    graph = GraphicMatroid(nodes, {3 * i + 1: uv for i, uv in enumerate(ends)})
    ids = sorted(graph.edges) + [0] * draw(st.integers(0, 1))  # 0 is no edge's id
    if not ids:
        return graph, []
    return graph, draw(st.permutations(ids)) + draw(st.lists(st.sampled_from(ids), max_size=6))


@given(graph_and_order())
@settings(max_examples=300, deadline=None)
def test_spanning_forest_matches_reference_kruskal(problem):
    graph, order = problem
    try:
        expected = kruskal(graph, order)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=str(exc)):
            graph.max_independent(order)
    else:
        assert graph.max_independent(order) == expected
