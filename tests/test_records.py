"""The result and instance records: read-only, compared by their own
fields, and built without generated code, so `rrst` starts fast."""

import copy
import json
import pathlib
import pickle
import subprocess
import sys

import pytest

import rrst
from rrst.errors import ValidationError
from rrst.gen import generate_instance
from rrst.instance import CostColumns, Instance, instance_to_dict, loads_instance
from rrst.lpmodel import build_relaxation, cutting_plane_solve
from rrst.matroids import GraphicMatroid
from rrst.oracle import brute_force
from rrst.rational import DIGIT_LIMIT, rat
from rrst.sides import GraphSide
from rrst.solver import solve

from conftest import graphic_twin


def _records():
    inst = generate_instance(5, 0.5, 1, 9, 3)
    vertex = cutting_plane_solve(build_relaxation(GraphSide(inst.matroid), inst.rank,
                                                  inst.overlap_requirement, inst.costs)).solution
    return {"Instance": (inst, "k"), "CostColumns": (inst.costs, "C"), "Solution": (solve(inst), "total"),
            "BruteResult": (brute_force(inst), "total"), "VertexSolution": (vertex, "den")}


@pytest.mark.parametrize("name", ["Instance", "CostColumns", "Solution", "BruteResult", "VertexSolution"])
def test_a_record_is_read_only(name):
    record, field = _records()[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_derived_fields_are_read_only_too():
    inst = generate_instance(5, 0.5, 1, 9, 3)
    for record, field in ((inst, "rank"), (inst.costs, "second")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)


PARTITION_DOC = {"family": "partition", "k": 1,
                 "parts": [{"elements": [0, 1, 2], "cap": 1}, {"elements": [3, 4], "cap": 2}],
                 "costs": [{"id": e, "C": e, "c": 5 - e, "d": e % 2} for e in range(5)]}


def test_a_read_only_record_copies_and_pickles():
    inst = generate_instance(5, 0.5, 1, 9, 3)
    assert copy.copy(inst) == inst and copy.deepcopy(inst.costs) == inst.costs
    again = pickle.loads(pickle.dumps(inst))
    assert again.costs == inst.costs and (again.k, again.rank) == (inst.k, inst.rank)
    # the scale is a field of the costs: the same ints over another scale
    # are other costs, and a copy or a pickle keeps it
    C, c, d = (list(column.values()) for column in (inst.costs.C, inst.costs.c, inst.costs.d))
    sixths = CostColumns(list(inst.costs.C), C, c, d, 6)
    assert sixths != inst.costs
    for again in (copy.copy(sixths), copy.deepcopy(sixths), pickle.loads(pickle.dumps(sixths))):
        assert again == sixths and again.scale == 6
    # the matroid compares by value, so a deep copy, a pickle round trip and
    # two parses of one document are all equal, of either kind
    tree_doc = instance_to_dict(inst)
    for parse in (lambda: loads_instance(json.dumps(tree_doc)), lambda: graphic_twin(inst),
                  lambda: loads_instance(json.dumps(PARTITION_DOC))):
        first, second = parse(), parse()
        assert first == second and first.matroid is not second.matroid
        assert copy.deepcopy(first) == first == pickle.loads(pickle.dumps(first))
    # one changed edge or cap is another instance
    moved = copy.deepcopy(tree_doc)
    edge = moved["edges"][0]
    edge["v"] = next(v for v in range(moved["nodes"]) if v not in (edge["u"], edge["v"]))
    assert loads_instance(json.dumps(moved)) != inst
    capped = copy.deepcopy(PARTITION_DOC)
    capped["parts"][1]["cap"] = 1
    assert loads_instance(json.dumps(capped)) != loads_instance(json.dumps(PARTITION_DOC))


def test_equality_ignores_derived_fields_and_repeat_solves_agree():
    inst = generate_instance(5, 0.5, 1, 9, 3)
    again = Instance(inst.matroid, inst.costs, inst.k)
    assert again == inst and not again != inst
    assert Instance(inst.matroid, inst.costs, 0) != inst
    # the pivot path is deterministic, so repeat solves agree on every
    # field, the cut loop's counters among them
    first, second = solve(inst), solve(inst)
    assert first.rounds > 0 and first.cuts > 0
    assert first == second and not first != second and hash(first) == hash(second)
    assert pickle.loads(pickle.dumps(first)) == first
    assert first._replace(total=first.total + 1) != first


K3 = {0: (0, 1), 1: (1, 2), 2: (0, 2)}
K3_COSTS = CostColumns.from_rows(dict.fromkeys(K3, (1, 1, 1)))


# each record checks its own facts when built directly, as the reader
# relies on it to: (build, the message it raises)
REFUSALS = {
    "self-loop": (lambda: GraphicMatroid(range(3), {0: (0, 1), 1: (2, 2)}), "edge 1 is a self-loop on node 2"),
    "endpoint outside": (lambda: GraphicMatroid(range(3), {0: (0, 1), 1: (1, 3)}),
                         r"edge 1=\(1,3\) has an endpoint outside the node set"),
    "negative cost": (lambda: CostColumns([4, 5], [1, -1], [0, 0], [0, 0], 1), r"C\[5\] is -1"),
    "bool cost": (lambda: CostColumns([4, 5], [1, 1], [0, True], [0, 0], 1), r"c\[5\] is True"),
    "string cost": (lambda: CostColumns([4, 5], [1, 1], [0, 0], [0, "2"], 1), r"d\[5\] is '2'"),
    "fraction cost": (lambda: CostColumns([4, 5], [1, rat(1, 2)], [0, 0], [0, 0], 1), r"C\[5\] is Fraction"),
    "a column short": (lambda: CostColumns([4, 5], [1, 1], [0, 0], [0], 1), "one cost for each of the 2 ids"),
    "an id twice": (lambda: CostColumns([4, 4], [1, 1], [0, 0], [0, 0], 1), "cost ids must be distinct"),
    "cost past the digit bound": (lambda: CostColumns([4], [DIGIT_LIMIT], [0], [0], 1),
                                  r"C\[4\] is worth 10\*\*1000 or more"),
    "cost past the digit bound at scale 3": (lambda: CostColumns([4], [0], [3 * DIGIT_LIMIT], [0], 3),
                                             r"c\[4\] is worth 10\*\*1000 or more"),
    "cost ids not the ground set": (lambda: Instance(GraphicMatroid(range(3), K3), CostColumns.from_rows(
        {0: (1, 1, 1), 1: (1, 1, 1), 7: (1, 1, 1)}), 1), r"cost table mismatch: missing=\[2\] extra=\[7\]"),
    "k past the rank": (lambda: Instance(GraphicMatroid(range(3), K3), K3_COSTS, 3), r"k=3 outside 0\.\.2"),
    "negative k": (lambda: Instance(GraphicMatroid(range(3), K3), K3_COSTS, -1), r"k=-1 outside 0\.\.2"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_record_constructor_refuses_what_it_owns(case):
    build, message = REFUSALS[case]
    with pytest.raises(ValidationError, match=message):
        build()


def test_costs_just_inside_the_digit_bound_are_kept():
    for scale in (1, 3):
        costs = CostColumns([4], [DIGIT_LIMIT * scale - 1], [0], [0], scale)
        assert costs.C == {4: DIGIT_LIMIT * scale - 1} and costs.second == {4: 0}


def test_the_cli_imports_no_code_generator():
    # -S: no site hook imports these first; dataclasses and typing would
    # compile code, or cost milliseconds, on every start
    src = pathlib.Path(rrst.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import rrst.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "[]"
