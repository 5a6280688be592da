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
from rrst.gen import generate_instance
from rrst.instance import CostColumns, Instance, instance_to_dict, loads_instance
from rrst.oracle import brute_force
from rrst.solver import solve

from conftest import graphic_twin


def _records():
    inst = generate_instance(5, 0.5, 1, 9, 3)
    sol = solve(inst)
    return {"Instance": (inst, "k"), "CostColumns": (inst.costs, "C"), "Solution": (sol, "total"),
            "BruteResult": (brute_force(inst), "total"), "VertexSolution": (sol.relaxation.solution, "den")}


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
    sixths = CostColumns(inst.costs.C, inst.costs.c, inst.costs.d, 6)
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


def test_equality_ignores_derived_fields_and_the_relaxation():
    inst = generate_instance(5, 0.5, 1, 9, 3)
    again = Instance(inst.matroid, inst.costs, inst.k)
    assert again == inst and not again != inst
    assert Instance(inst.matroid, inst.costs, 0) != inst
    first, second = solve(inst), solve(inst)
    # each solve builds its own relaxation, which is not compared
    assert first.relaxation is not second.relaxation
    assert first == second and not first != second and hash(first) == hash(second)
    assert first._replace(total=first.total + 1) != first


def test_the_cli_imports_no_code_generator():
    # -S: no site hook imports these first; dataclasses and typing would
    # compile code, or cost milliseconds, on every start
    src = pathlib.Path(rrst.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import rrst.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "[]"
