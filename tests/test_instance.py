"""Instance documents: exact parsing, validation, canonical serialization."""

import json

import pytest

from rrst.errors import ParseError, ValidationError
from rrst.instance import (
    CostColumns,
    Instance,
    instance_to_dict,
    loads_instance,
    serialize_instance,
)

DOC = {
    "nodes": 3,
    "k": 1,
    "edges": [
        {"id": 0, "u": 0, "v": 1, "C": 3, "c": "2.5", "d": "1/2"},
        {"id": 1, "u": 0, "v": 2, "C": 1, "c": 1, "d": 0},
        {"id": 2, "u": 1, "v": 2, "C": 2, "c": 0, "d": 4},
    ],
}


def test_parse_round_trip():
    inst = loads_instance(json.dumps(DOC))
    assert len(inst.matroid.nodes) == 3 and len(inst.costs.C) == 3 and inst.k == 1
    assert inst.rank == 2
    # costs are ints over the LCM of their denominators: 3, 5/2, 1/2 over 2
    assert inst.costs.scale == 2
    assert (inst.costs.C[0], inst.costs.c[0], inst.costs.d[0]) == (6, 5, 1)
    assert (inst.costs.C[1], inst.costs.c[1], inst.costs.d[1]) == (2, 2, 0)
    assert inst.costs.second[0] == 6
    assert inst.overlap_requirement == 1
    again = loads_instance(serialize_instance(inst))
    assert serialize_instance(again) == serialize_instance(inst)


def test_serialization_is_canonical():
    inst = loads_instance(json.dumps(DOC))
    text = serialize_instance(inst)
    assert text.endswith("\n") and '": ' not in text
    assert json.loads(text) == instance_to_dict(inst)
    # fraction costs come back out as exact strings, integers as ints
    doc = instance_to_dict(inst)
    assert doc["edges"][0]["c"] == "5/2" and doc["edges"][0]["C"] == 3


def test_float_literals_rejected():
    bad = json.dumps(DOC).replace('"2.5"', "2.5")
    with pytest.raises(ParseError, match="float"):
        loads_instance(bad)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_constants_rejected(constant):
    bad = json.dumps(DOC).replace('"2.5"', constant)
    with pytest.raises(ParseError, match=f"constant {constant} rejected") as info:
        loads_instance(bad)
    assert "string" not in str(info.value)


@pytest.mark.parametrize(
    "mutate,err",
    [
        (lambda d: d["edges"].append({"id": 0, "u": 0, "v": 1, "C": 1, "c": 1, "d": 1}), ParseError),
        (lambda d: d["edges"][0].update(u=5), ParseError),
        (lambda d: d["edges"][0].update(v=0), ParseError),
        (lambda d: d["edges"][0].pop("C"), ParseError),
        (lambda d: d.update(k=5), ValidationError),
        (lambda d: d.update(k=-1), ValidationError),
        (lambda d: d["edges"][0].update(C=-2), ValidationError),
        (lambda d: d.update(nodes="3"), ParseError),
    ],
)
def test_invalid_documents_rejected(mutate, err):
    doc = json.loads(json.dumps(DOC))
    mutate(doc)
    with pytest.raises(err):
        loads_instance(json.dumps(doc))


def test_disconnected_graph_rejected():
    doc = {"nodes": 4, "k": 0, "edges": [{"id": 0, "u": 0, "v": 1, "C": 1, "c": 1, "d": 1}]}
    with pytest.raises(ValidationError, match="connected"):
        loads_instance(json.dumps(doc))


def test_disconnected_graph_with_enough_edges_rejected_by_its_rank():
    """A triangle and an isolated node: three edges could connect four
    nodes, but the graphic matroid's rank is 2, below n - 1."""
    edges = [{"id": i, "u": u, "v": v, "C": 1, "c": 1, "d": 1}
             for i, (u, v) in enumerate([(0, 1), (0, 2), (1, 2)])]
    with pytest.raises(ValidationError, match="^instance graph is not connected$"):
        loads_instance(json.dumps({"nodes": 4, "k": 0, "edges": edges}))


@pytest.mark.parametrize("nodes", [0, -3])
def test_a_tree_document_needs_a_node(nodes):
    with pytest.raises(ValidationError, match="^instance needs at least one node$"):
        loads_instance(json.dumps({"nodes": nodes, "k": 0, "edges": []}))


def test_a_family_key_reads_a_matroid_document():
    doc = {"family": "uniform", "elements": [0, 1, 2], "rank": 2, "k": 1,
           "costs": [{"id": e, "C": 1, "c": 1, "d": 1} for e in range(3)]}
    inst = loads_instance(json.dumps(doc))
    assert inst.matroid.family == "uniform" and inst.rank == 2 and inst.overlap_requirement == 1


@pytest.mark.parametrize("doc", [
    # a graphic document whose edge touches nodes 0 and 5 of 6
    {"family": "graphic", "nodes": 6, "k": 0, "edges": [{"id": 0, "u": 0, "v": 5}],
     "costs": [{"id": 0, "C": 1, "c": 1, "d": 1}]},
    {"family": "graphic", "nodes": 4, "k": 0,
     "edges": [{"id": 0, "u": 0, "v": 1}, {"id": 1, "u": 2, "v": 3}],
     "costs": [{"id": e, "C": 1, "c": 1, "d": 1} for e in range(2)]},
    {"family": "uniform", "elements": [0, 1, 2], "rank": 2, "k": 1,
     "costs": [{"id": e, "C": 1, "c": 1, "d": 1} for e in range(3)]},
    {"family": "partition", "parts": [{"elements": [0, 1], "cap": 1}], "k": 0,
     "costs": [{"id": e, "C": 1, "c": 1, "d": 1} for e in range(2)]},
], ids=["graphic-nodes-0-and-5", "graphic-disconnected", "uniform", "partition"])
def test_only_a_connected_graphic_instance_on_nodes_0_to_n_is_written(doc):
    """A tree document holds a graph connected on nodes 0..n-1; any other
    instance is refused, not written as a document that reads back as
    another instance or not at all."""
    inst = loads_instance(json.dumps(doc))
    with pytest.raises(ValidationError, match="a tree document holds a graphic matroid connected"):
        serialize_instance(inst)


def test_a_connected_graphic_instance_on_nodes_0_to_n_is_written_as_its_tree_document():
    doc = {"family": "graphic", "nodes": 3, "k": 1,
           "edges": [{"id": e["id"], "u": e["u"], "v": e["v"]} for e in DOC["edges"]],
           "costs": [{"id": e["id"], "C": e["C"], "c": e["c"], "d": e["d"]} for e in DOC["edges"]]}
    assert serialize_instance(loads_instance(json.dumps(doc))) == serialize_instance(loads_instance(json.dumps(DOC)))


def test_too_few_edges_rejected_before_the_graph_is_built():
    doc = {"nodes": 5, "k": 0, "edges": []}
    with pytest.raises(ValidationError, match="0 edges cannot connect 5 nodes"):
        loads_instance(json.dumps(doc))


def test_single_node_instance_valid():
    inst = loads_instance(json.dumps({"nodes": 1, "k": 0, "edges": []}))
    assert len(inst.matroid.nodes) == 1 and len(inst.costs.C) == 0
    assert inst.rank == inst.overlap_requirement == 0


def test_negative_costs_rejected_at_construction():
    with pytest.raises(ValidationError, match=r"costs must be non-negative ints .*: C\[0\] is -1"):
        CostColumns.from_rows({0: (-1, 0, 0)})


@pytest.mark.parametrize("rows,shown", [({0: (1, 1, 1), 1: (0, True, 0)}, r"c\[1\] is True"),
                                        ({0: (1, 1, 1), 1: (0, 0, "2")}, r"d\[1\] is '2'")])
def test_non_int_costs_rejected_at_construction(rows, shown):
    with pytest.raises(ValidationError, match=r"costs must be non-negative ints .*: " + shown):
        CostColumns.from_rows(rows)


def test_cost_columns_must_name_the_same_elements():
    with pytest.raises(ValidationError, match="one cost for each of the 2 ids"):
        CostColumns([0, 1], [1, 1], [1, 1], [1], 1)
    with pytest.raises(ValidationError, match="distinct"):
        CostColumns([0, 0], [1, 1], [1, 1], [1, 1], 1)


def test_invalid_json_is_parse_error():
    with pytest.raises(ParseError, match="invalid JSON"):
        loads_instance("{nope")
    with pytest.raises(ParseError):
        loads_instance('["not", "an", "object"]')


# past the 4,300 digits Python converts from text to int by default
HUGE_INT = "9" * 5000


@pytest.mark.parametrize("field", ['"C": 3', '"nodes": 3'], ids=["C", "nodes"])
def test_integer_past_pythons_digit_limit_is_parse_error(field):
    text = json.dumps(DOC).replace(field, field.replace("3", HUGE_INT))
    with pytest.raises(ParseError, match="unreadable JSON number"):
        loads_instance(text)
