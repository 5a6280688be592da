"""Costs as ints over the one scale their table holds: fractional costs
solve and verify exactly, whole costs stay ints all the way to the greedy,
and the scale is bounded."""

import json
import random

import pytest

from rrst import cli, lpmodel, solver
from rrst.errors import ParseError, ValidationError
from rrst.gen import generate_instance
from rrst.instance import CostColumns, Instance, instance_to_dict, loads_instance
from rrst.oracle import brute_force
from rrst.rational import MAX_DIGITS, parse_exact, rat
from rrst.sides import GraphSide, MatroidSide
from rrst.solver import solution_to_dict, solve, verify_solution

COST_KEYS = ("C", "c", "d")


def _fraction_costs(rng, entries):
    """Rewrite every cost of `entries` as p/q with q <= 6."""
    for entry in entries:
        for key in COST_KEYS:
            entry[key] = f"{rng.randint(0, 12)}/{rng.randint(1, 6)}"


def _twin(entries, scale):
    """The same entries with every cost multiplied by `scale`, as ints."""
    twin = json.loads(json.dumps(entries))
    for entry in twin:
        for key in COST_KEYS:
            whole = parse_exact(entry[key]) * scale
            assert whole.denominator == 1
            entry[key] = whole.numerator
    return twin


def _check_against_twin(sol, twin_sol, scale):
    assert (sol.X, sol.Y, sol.Z) == (twin_sol.X, twin_sol.Y, twin_sol.Z)
    for field in ("first_stage", "second_stage", "total", "lp_bound"):
        assert getattr(sol, field) == getattr(twin_sol, field) / scale


def _tree_docs():
    rng = random.Random(2024)
    for n in range(2, 7):
        for seed in range(6):
            doc = instance_to_dict(generate_instance(n, 0.4, 0, 1, 100 * n + seed))
            _fraction_costs(rng, doc["edges"])
            for k in range(n):
                yield dict(doc, k=k)


def _matroid_docs():
    rng = random.Random(4048)
    for i in range(8):
        uniform = {"family": "uniform", "elements": list(range(7)), "rank": 3,
                   "costs": [{"id": e} for e in range(7)]}
        parts = [{"elements": [0, 1, 2], "cap": 2}, {"elements": [3, 4, 5, 6], "cap": 2}]
        partition = {"family": "partition", "parts": parts, "costs": [{"id": e} for e in range(7)]}
        tree = instance_to_dict(generate_instance(5, 0.5, 0, 1, 300 + i))
        graphic = {"family": "graphic", "nodes": 5,
                   "edges": [{"id": e["id"], "u": e["u"], "v": e["v"]} for e in tree["edges"]],
                   "costs": [{"id": e["id"]} for e in tree["edges"]]}
        for doc, rank in ((uniform, 3), (partition, 4), (graphic, 4)):
            _fraction_costs(rng, doc["costs"])
            for k in range(rank + 1):
                yield dict(doc, k=k)


def test_fractional_tree_costs_match_the_oracle_and_the_integer_twin():
    scales = set()
    for doc in _tree_docs():
        inst = loads_instance(json.dumps(doc))
        scales.add(inst.costs.scale)
        sol = solve(inst)
        assert sol.total == brute_force(inst).total, doc
        assert verify_solution(inst, solution_to_dict(sol)) == []
        twin = loads_instance(json.dumps(dict(doc, edges=_twin(doc["edges"], inst.costs.scale))))
        assert twin.costs.scale == 1
        _check_against_twin(sol, solve(twin), inst.costs.scale)
    assert max(scales) > 1 and len(scales) > 2, scales


def test_fractional_matroid_costs_match_the_oracle_and_the_integer_twin():
    scales = set()
    families = set()
    for doc in _matroid_docs():
        minst = loads_instance(json.dumps(doc))
        scales.add(minst.costs.scale)
        families.add(doc["family"])
        sol = solve(minst)
        assert sol.total == brute_force(minst).total, doc
        assert verify_solution(minst, solution_to_dict(sol)) == []
        twin = loads_instance(json.dumps(dict(doc, costs=_twin(doc["costs"], minst.costs.scale))))
        assert twin.costs.scale == 1
        _check_against_twin(sol, solve(twin), minst.costs.scale)
    assert families == {"uniform", "partition", "graphic"}
    assert max(scales) > 1 and len(scales) > 2, scales


# a path 0-1-2, so both trees are forced; the costs sum to 1/2 + 2 = 5/2
# over scale 6
PATH_DOC = {"nodes": 3, "k": 1, "edges": [
    {"id": 0, "u": 0, "v": 1, "C": "1/3", "c": "0.5", "d": 0},
    {"id": 1, "u": 1, "v": 2, "C": "1/6", "c": "1/2", "d": 1},
]}


@pytest.fixture
def path_files(tmp_path):
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    inst.write_text(json.dumps(PATH_DOC))
    assert loads_instance(inst.read_text()).costs.scale == 6
    assert cli.main(["solve", "--input", str(inst), "--output", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    assert (doc["first_stage"], doc["second_stage"], doc["total"]) == ("1/2", "2", "5/2")
    return inst, sol


@pytest.mark.parametrize("claim,code", [
    ("2.5", 0), ("5/2", 0), ("10/4", 0), (2, 3),
    # off by 1/(2 * scale) = 1/12 either way
    ("31/12", 3), ("29/12", 3),
])
def test_verify_reads_a_claimed_total_in_any_exact_form(path_files, claim, code, capsys):
    inst, sol = path_files
    doc = json.loads(sol.read_text())
    sol.write_text(json.dumps(dict(doc, total=claim)))
    assert cli.main(["verify", "--instance", str(inst), "--solution", str(sol)]) == code
    if code:
        assert "selections cost 5/2" in capsys.readouterr().err


INT_TREE_DOC = {"nodes": 3, "k": 2, "edges": [
    {"id": 0, "u": 0, "v": 1, "C": 3, "c": "4", "d": 0},
    {"id": 1, "u": 1, "v": 2, "C": 1, "c": 1, "d": "2/1"},
    {"id": 2, "u": 0, "v": 2, "C": 2, "c": 0, "d": 5},
]}
INT_MATROID_DOC = {"family": "uniform", "elements": [0, 1, 2, 3], "rank": 2, "k": 2,
                   "costs": [{"id": e, "C": e, "c": "7", "d": 4 - e} for e in range(4)]}


def test_whole_costs_are_ints_from_parse_to_greedy_and_lp(monkeypatch):
    """Fraction must not come back into the costs, the greedy's weights or
    the LP objective when every cost is whole."""
    weights_seen = []
    objectives_seen = []
    for cls in (GraphSide, MatroidSide):
        def recording(self, weights, _real=cls.complete_min):
            weights_seen.extend(weights.values())
            return _real(self, weights)
        monkeypatch.setattr(cls, "complete_min", recording)

    def recording_build(*args, _real=lpmodel.build_relaxation):
        model = _real(*args)
        objectives_seen.extend(c for _, costs, _ in model.blocks for c in costs)
        return model
    monkeypatch.setattr(solver, "build_relaxation", recording_build)

    tree = loads_instance(json.dumps(INT_TREE_DOC))
    minst = loads_instance(json.dumps(INT_MATROID_DOC))
    generated = generate_instance(6, 0.5, 5, 9, 1)
    for costs in (tree.costs, minst.costs, generated.costs):
        assert all(type(v) is int for column in (costs.C, costs.c, costs.d, costs.second)
                   for v in column.values())
    assert tree.costs.scale == minst.costs.scale == generated.costs.scale == 1

    solve(tree)
    solve(minst)
    solve(generated)
    solve(Instance(generated.matroid, generated.costs, k=2))
    assert len(weights_seen) == 2 * (3 + 4 + len(generated.costs.C))
    assert all(type(w) is int for w in weights_seen)
    assert objectives_seen and all(type(v) is int for v in objectives_seen)


@pytest.mark.parametrize("kwargs", [dict(scale=0), dict(scale=rat(2))])
def test_cost_scale_must_be_a_positive_int(kwargs):
    costs = generate_instance(3, 0.5, 1, 5, 1).costs
    columns = (list(costs.C), *(list(column.values()) for column in (costs.C, costs.c, costs.d)))
    with pytest.raises(ValidationError, match="scale"):
        CostColumns(*columns, **kwargs)
    # with no default, no cost table is built without its unit
    with pytest.raises(TypeError, match="scale"):
        CostColumns(*columns)


def test_an_instance_keeps_its_costs_scale():
    # the scale travels with the costs, so costs copied from one instance
    # into another are read over the scale they were parsed at
    inst = loads_instance(json.dumps(PATH_DOC))
    assert inst.costs.scale == 6
    for k in (0, 1, 2):
        rebuilt = Instance(inst.matroid, inst.costs, k)
        parsed = loads_instance(json.dumps(dict(PATH_DOC, k=k)))
        assert rebuilt == parsed and rebuilt.costs.scale == 6
        assert solve(rebuilt) == solve(parsed) and solve(rebuilt).total == rat(5, 2)


def test_a_cost_id_given_twice_is_a_parse_error():
    doc = dict(INT_MATROID_DOC, costs=INT_MATROID_DOC["costs"] + [INT_MATROID_DOC["costs"][0]])
    with pytest.raises(ParseError, match=r"costs\[4\]: duplicate cost id 0"):
        loads_instance(json.dumps(doc))


def test_fraction_costs_are_rejected_at_construction():
    with pytest.raises(ValidationError, match="ints"):
        CostColumns.from_rows({0: (rat(1), 0, 0)})


def test_an_instance_scale_past_the_digit_bound_exits_2(tmp_path, capsys):
    """Costs each within the digit bound whose common denominator is not
    end as bad input, and no printed total can outgrow Python's limit."""
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "--nodes", "8", "--k", "7", "--seed", "3", "--density", "0.2",
                     "--output", str(inst)]) == 0
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", "--input", str(inst), "--output", str(sol)]) == 0
    doc = json.loads(inst.read_text())
    for i, edge in enumerate(doc["edges"]):
        edge["C"] = f"1/{10 ** (MAX_DIGITS - 1) + 2 * i + 1}"
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["solve", "--input", str(inst)]) == 2
    err = capsys.readouterr().err
    assert "edges[1]: bad value for 'C'" in err and f"more than {MAX_DIGITS} digits" in err
    assert cli.main(["verify", "--instance", str(inst), "--solution", str(sol)]) == 2
    assert "edges[1]: bad value for 'C'" in capsys.readouterr().err
