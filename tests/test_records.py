"""The result and instance records: read-only, compared by their own
fields, and built without generated code, so `rrst` starts fast."""

import copy
import pathlib
import pickle
import subprocess
import sys

import pytest

import rrst
from rrst.gen import generate_instance
from rrst.instance import Instance
from rrst.oracle import brute_force
from rrst.solver import solve


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


def test_a_read_only_record_copies_and_pickles():
    inst = generate_instance(5, 0.5, 1, 9, 3)
    assert copy.copy(inst) == inst and copy.deepcopy(inst.costs) == inst.costs
    again = pickle.loads(pickle.dumps(inst))
    assert again.costs == inst.costs and (again.k, again.scale, again.rank) == (inst.k, inst.scale, inst.rank)


def test_equality_ignores_derived_fields_and_the_relaxation():
    inst = generate_instance(5, 0.5, 1, 9, 3)
    again = Instance(inst.matroid, inst.costs, inst.k, inst.scale)
    assert again == inst and not again != inst
    assert Instance(inst.matroid, inst.costs, 0, inst.scale) != inst
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
