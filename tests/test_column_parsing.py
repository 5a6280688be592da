"""Column-wise parsing: whole-column checks accept a document, and only a
failed check runs the per-entry walk, which names the first fault.

Every fault sits at index 37 of an otherwise valid document, so a walk
that stopped early, or a column check that let the fault through, would
show in the index or the message.
"""

import json
import random

import pytest

from rrst import instance
from rrst.errors import InternalError, ParseError, ValidationError
from rrst.gen import generate_instance
from rrst.instance import instance_to_dict, loads_instance
from rrst.rational import MAX_DIGITS

AT = 37
# K10: 45 edges, so index 37 lies well inside the list; edge 37 is (5, 8)
TREE_DOC = instance_to_dict(generate_instance(10, 1.0, 4, 9, 1))
WIDE = 10 ** (MAX_DIGITS - 1)
SCALE_MESSAGE = f"bad value for 'C': the common denominator of the costs would have more than {MAX_DIGITS} digits"


def _update(**fields):
    return lambda entries, i: entries[i].update(fields)


def _pop(key):
    return lambda entries, i: entries[i].pop(key)


def _self_loop(entries, i):
    entries[i]["v"] = entries[i]["u"]


def _not_an_object(entries, i):
    entries[i] = [entries[i]["id"]]


def _scale_past_digits(entries, i):
    # each denominator fits the digit bound; their odd, coprime pair does not
    entries[i - 1]["C"] = f"1/{WIDE + 1}"
    entries[i]["C"] = f"1/{WIDE + 3}"


# kind -> (mutation of entry i, error class, message after "edges[37]: ")
EDGE_FAULTS = {
    "bool id": (_update(id=True), ParseError, "field 'id' must be an integer, got True"),
    "string u": (_update(u="5"), ParseError, "field 'u' must be an integer, got '5'"),
    "duplicate id": (_update(id=0), ParseError, "duplicate edge id 0"),
    # an edge's endpoints are read before its id is checked against the others
    "duplicate id, string u": (_update(id=0, u="5"), ParseError, "field 'u' must be an integer, got '5'"),
    "endpoint out of range": (_update(v=10), ParseError, "endpoint outside 0..9"),
    "self-loop": (_self_loop, ParseError, "self-loop on node 5"),
    "missing C": (_pop("C"), ParseError, "missing cost field 'C'"),
    "negative d": (_update(d=-1), ValidationError, "cost d=-1 is negative"),
    "not an object": (_not_an_object, ParseError, "must be an object"),
    "scale past MAX_DIGITS": (_scale_past_digits, ParseError, SCALE_MESSAGE),
}

# a graphic edge list is walked as a tree's is, without the cost fields
GRAPHIC_FAULTS = {kind: EDGE_FAULTS[kind] for kind in
                  ("bool id", "string u", "duplicate id", "duplicate id, string u", "endpoint out of range",
                   "self-loop", "not an object")}

COST_FAULTS = {
    "bool id": EDGE_FAULTS["bool id"],
    "duplicate id": (_update(id=0), ParseError, "duplicate cost id 0"),
    "missing C": EDGE_FAULTS["missing C"],
    "negative d": EDGE_FAULTS["negative d"],
    "not an object": EDGE_FAULTS["not an object"],
    "scale past MAX_DIGITS": EDGE_FAULTS["scale past MAX_DIGITS"],
}


def _tree_doc():
    return json.loads(json.dumps(TREE_DOC))


def _graphic_doc():
    edges = TREE_DOC["edges"]
    return {"family": "graphic", "nodes": 10, "k": 4,
            "edges": [{"id": e["id"], "u": e["u"], "v": e["v"]} for e in edges],
            "costs": [{"id": e["id"], "C": e["C"], "c": e["c"], "d": e["d"]} for e in edges]}


def _uniform_doc():
    doc = _graphic_doc()
    return {"family": "uniform", "elements": [e["id"] for e in doc["edges"]], "rank": 9, "k": 4,
            "costs": doc["costs"]}


def _partition_doc():
    ids = [e["id"] for e in TREE_DOC["edges"]]
    return {"family": "partition", "k": 4,
            "parts": [{"elements": ids[:20], "cap": 4}, {"elements": ids[20:], "cap": 5}],
            "costs": _graphic_doc()["costs"]}


@pytest.fixture
def walks(monkeypatch):
    """Count the runs of the per-entry walk, which every entry list shares,
    by its arguments past the list: the node count and whether the entries
    hold costs."""
    counts = {}
    real = instance._raise_entry_fault

    def wrapper(raw, n, costs):
        counts[n, costs] = counts.get((n, costs), 0) + 1
        return real(raw, n, costs)

    monkeypatch.setattr(instance, "_raise_entry_fault", wrapper)
    return counts


def test_valid_documents_never_run_the_walk(walks):
    loads_instance(json.dumps(TREE_DOC))
    loads_instance(json.dumps(_graphic_doc()))
    loads_instance(json.dumps(_uniform_doc()))
    loads_instance(json.dumps(_partition_doc()))
    assert walks == {}


# the walk's arguments past the list, for each entry list
TREE_EDGES, GRAPHIC_EDGES, COSTS = (10, True), (10, False), (None, True)


def _assert_fault(load, doc, err, message, walks, walk):
    with pytest.raises(err) as info:
        load(json.dumps(doc))
    assert type(info.value) is err
    assert str(info.value) == message
    assert walks == {walk: 1}


@pytest.mark.parametrize("kind", EDGE_FAULTS)
def test_tree_edge_fault_is_named_at_its_index(kind, walks):
    mutate, err, message = EDGE_FAULTS[kind]
    doc = _tree_doc()
    mutate(doc["edges"], AT)
    _assert_fault(loads_instance, doc, err, f"edges[{AT}]: {message}", walks, TREE_EDGES)


@pytest.mark.parametrize("kind", GRAPHIC_FAULTS)
def test_graphic_edge_fault_is_named_at_its_index(kind, walks):
    mutate, err, message = GRAPHIC_FAULTS[kind]
    doc = _graphic_doc()
    mutate(doc["edges"], AT)
    _assert_fault(loads_instance, doc, err, f"edges[{AT}]: {message}", walks, GRAPHIC_EDGES)


@pytest.mark.parametrize("family", ["graphic", "uniform"])
@pytest.mark.parametrize("kind", COST_FAULTS)
def test_matroid_cost_fault_is_named_at_its_index(kind, family, walks):
    mutate, err, message = COST_FAULTS[kind]
    doc = _graphic_doc() if family == "graphic" else _uniform_doc()
    mutate(doc["costs"], AT)
    _assert_fault(loads_instance, doc, err, f"costs[{AT}]: {message}", walks, COSTS)


# (document, list, its faults, its walk, first fault, later fault); a tree
# document's cases are named by their pair alone
ORDERS = [pytest.param(_tree_doc, "edges", EDGE_FAULTS, TREE_EDGES, first, later, id=f"{first}-{later}")
          for first, later in [("negative d", "self-loop"), ("self-loop", "negative d"),
                               ("missing C", "string u"), ("string u", "missing C")]]
ORDERS += [pytest.param(_graphic_doc, part, faults, walk, first, later, id=f"graphic {part}-{first}-{later}")
           for part, faults, walk, pair in [("edges", GRAPHIC_FAULTS, GRAPHIC_EDGES, ("self-loop", "string u")),
                                            ("costs", COST_FAULTS, COSTS, ("negative d", "bool id"))]
           for first, later in (pair, pair[::-1])]


@pytest.mark.parametrize("make,part,faults,walk,first,later", ORDERS)
def test_the_first_fault_in_document_order_wins(make, part, faults, walk, first, later, walks):
    """Two faults of one list are found in one walk, in document order: on
    a tree's edges a cost fault and an edge fault."""
    doc = make()
    faults[later][0](doc[part], AT + 3)
    faults[first][0](doc[part], AT)
    _, err, message = faults[first]
    _assert_fault(loads_instance, doc, err, f"{part}[{AT}]: {message}", walks, walk)


# --- the column checks accept exactly what the walk accepts -------------

VALUES = [True, False, None, "5", "5/2", " 2.5 ", "-1", "x", "1e2000", 2.5, [1], {"a": 1},
          10 ** MAX_DIGITS, -(10 ** MAX_DIGITS), f"1/{WIDE + 1}", f"1/{WIDE + 3}", *range(-1, 8)]
FIELDS = ["id", "u", "v", "C", "c", "d"]


def _scramble(rng, entries, fields):
    """One to three random edits: a field set to a value valid or not, a
    field dropped, or an entry replaced by a non-object."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(entries))
        action = rng.random()
        if action < 0.1:
            entries[i] = rng.choice([1, "e", None, []])
        elif not isinstance(entries[i], dict):
            continue
        elif action < 0.25:
            entries[i].pop(rng.choice(fields), None)
        else:
            entries[i][rng.choice(fields)] = rng.choice(VALUES)


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the outcome under test is the exception itself
        return type(exc), str(exc)
    return None


def _agree(parse, doc, walk, *walk_args):
    """The parse fails as the walk does; where the walk finds no fault,
    only a check on the whole document may fail."""
    expected = _outcome(walk, *walk_args)
    got = _outcome(parse, doc)
    if expected[0] is InternalError:  # the walk found no fault
        assert got is None or (got[0] is ValidationError and not got[1].startswith(("edges[", "costs["))), got
    else:
        assert got == expected


def test_random_edits_are_judged_as_the_walk_judges_them():
    rng = random.Random(2024)
    base = instance_to_dict(generate_instance(6, 1.0, 2, 9, 3))
    for _ in range(400):
        tree = json.loads(json.dumps(base))
        _scramble(rng, tree["edges"], FIELDS)
        _agree(instance.instance_from_dict, tree, instance._raise_entry_fault, tree["edges"], 6, True)

        graphic = {"family": "graphic", "nodes": 6, "k": 2,
                   "edges": [{"id": e["id"], "u": e["u"], "v": e["v"]} for e in base["edges"]],
                   "costs": [{"id": e["id"], "C": e["C"], "c": e["c"], "d": e["d"]} for e in base["edges"]]}
        part, fields = rng.choice([("edges", FIELDS[:3]), ("costs", ["id", *FIELDS[3:]])])
        _scramble(rng, graphic[part], fields)
        n, costs = (6, False) if part == "edges" else (None, True)
        _agree(instance.instance_from_dict, graphic, instance._raise_entry_fault, graphic[part], n, costs)
