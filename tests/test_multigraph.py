"""Multigraph behaviour: contraction, deletion, connectivity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rrst.errors import UnknownEdge, ValidationError
from rrst.multigraph import MultiGraph


def k4():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return MultiGraph(range(4), dict(enumerate(pairs)))


def test_basic_accessors():
    g = k4()
    assert g.node_count == 4
    assert g.edge_count == 6
    assert g.edge_ids() == [0, 1, 2, 3, 4, 5]
    assert g.endpoints(3) == (1, 2)
    # Kruskal scan: 3 closes the triangle 1-2-3, and the scan stops at n - 1
    assert g.spanning_forest([5, 4, 3, 2, 1, 0]) == [5, 4, 2]
    with pytest.raises(UnknownEdge):
        g.endpoints(99)


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        MultiGraph(range(2), {0: (1, 1)})


def test_endpoint_outside_nodes_rejected():
    with pytest.raises(ValidationError):
        MultiGraph(range(2), {0: (0, 5)})


def test_parallel_edges_allowed():
    g = MultiGraph(range(2), {0: (0, 1), 1: (0, 1)})
    assert g.edge_count == 2
    assert g.is_connected()


def test_connectivity_and_components():
    g = MultiGraph(range(4), {0: (0, 1), 1: (2, 3)})
    assert not g.is_connected()
    assert g.components() == [frozenset({0, 1}), frozenset({2, 3})]
    assert g.spanning_forest(g.edge_ids()) == [0, 1]
    assert MultiGraph([], {}).is_connected()


def test_contract_merges_to_smaller_label_and_drops_loops():
    g = MultiGraph(range(3), {0: (0, 1), 1: (0, 1), 2: (1, 2)})
    h = g.contract_edge(0)
    # node 1 merged into node 0; the parallel edge 1 became a loop and is gone
    assert h.nodes == frozenset({0, 2})
    assert set(h.edges) == {2}
    assert h.endpoints(2) == (0, 2)


def test_contract_keeps_parallel_non_loops():
    g = k4()
    h = g.contract_edge(0)  # merge 0,1: edges (0,2)&(1,2) become parallel
    assert h.node_count == 3
    assert h.edge_count == 5
    assert h.endpoints(1) == (0, 2) and h.endpoints(3) == (0, 2)


def test_delete_keeps_isolated_nodes():
    g = MultiGraph(range(2), {0: (0, 1)})
    h = g.delete_edge(0)
    assert h.node_count == 2 and h.edge_count == 0
    assert not h.is_connected()


def test_edges_within():
    g = k4()
    assert g.edges_within({0, 1, 2}) == [0, 1, 3]
    assert g.edges_within({3}) == []


def test_operations_do_not_mutate():
    g = k4()
    g.contract_edge(0)
    g.delete_edge(5)
    assert g.edge_count == 6 and g.node_count == 4


@st.composite
def random_graph(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs)))
    return MultiGraph(range(n), dict(enumerate(chosen)))


@given(random_graph())
def test_contract_shrinks_one_node(g):
    eid = g.edge_ids()[0]
    h = g.contract_edge(eid)
    assert h.node_count == g.node_count - 1
    assert eid not in h.edges
    # surviving ids keep their identity
    assert set(h.edges) <= set(g.edges) - {eid}


@given(random_graph())
def test_components_partition_nodes(g):
    comps = g.components()
    union = set()
    for comp in comps:
        assert not (union & comp)
        union |= comp
    assert union == set(g.nodes)
    assert g.is_connected() == (len(comps) == 1)
