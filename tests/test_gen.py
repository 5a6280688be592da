"""Instance generation: determinism, density extremes, the built-in suite."""

import pytest

from rrst.errors import ValidationError
from rrst.gen import (
    BUILTIN_GRAPH_COUNTS,
    BUILTIN_PATTERNS,
    builtin_small_suite,
    connected_graphs_up_to_iso,
    generate_instance,
)
from rrst.instance import serialize_instance
from rrst.rational import rat


def test_same_seed_same_bytes():
    a = serialize_instance(generate_instance(7, 0.4, 2, 15, 123))
    b = serialize_instance(generate_instance(7, 0.4, 2, 15, 123))
    assert a == b
    c = serialize_instance(generate_instance(7, 0.4, 2, 15, 124))
    assert a != c


def test_density_extremes():
    tree = generate_instance(8, 0.0, 3, 10, 5)
    assert tree.m == 7
    assert tree.graph.is_connected()
    full = generate_instance(8, 1.0, 3, 10, 5)
    assert full.m == 8 * 7 // 2


def test_instances_are_valid_and_costs_bounded():
    for seed in range(20):
        inst = generate_instance(6, 0.5, seed % 6, 9, seed)
        assert inst.graph.is_connected()
        assert inst.n == 6
        for column in (inst.costs.C, inst.costs.c, inst.costs.d):
            for v in column.values():
                assert rat(0) <= v <= rat(9)
                assert v.denominator == 1


def test_zero_cost_max():
    inst = generate_instance(4, 0.5, 0, 0, 1)
    assert all(v == 0 for column in (inst.costs.C, inst.costs.c, inst.costs.d) for v in column.values())


def test_single_node():
    inst = generate_instance(1, 0.5, 0, 10, 0)
    assert inst.n == 1 and inst.m == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(nodes=0, density=0.5, k=0, cost_max=5, seed=0),
        dict(nodes=4, density=1.5, k=0, cost_max=5, seed=0),
        dict(nodes=4, density=-0.1, k=0, cost_max=5, seed=0),
        dict(nodes=4, density=0.5, k=4, cost_max=5, seed=0),
        dict(nodes=4, density=0.5, k=-1, cost_max=5, seed=0),
        dict(nodes=4, density=0.5, k=0, cost_max=-1, seed=0),
    ],
)
def test_bad_parameters_rejected(kwargs):
    with pytest.raises(ValidationError):
        generate_instance(**kwargs)


def test_isomorphism_class_counts():
    for n, expected in BUILTIN_GRAPH_COUNTS.items():
        assert len(connected_graphs_up_to_iso(n)) == expected


def test_classes_are_connected_and_canonical():
    for canon in connected_graphs_up_to_iso(4):
        assert canon == tuple(sorted(canon))
        assert len(set(canon)) == len(canon)


def test_builtin_suite_shape():
    suite = builtin_small_suite()
    # sum over n of classes(n) * n budgets * 3 patterns
    expected = sum(BUILTIN_GRAPH_COUNTS[n] * n * 3 for n in range(1, 6))
    assert len(suite) == expected == 414
    names = [name for name, _ in suite]
    assert len(set(names)) == len(names)
    for name, inst in suite:
        assert inst.graph.is_connected()
        assert 0 <= inst.k <= inst.n - 1
        assert any(p in name for p in BUILTIN_PATTERNS)


def test_builtin_suite_patterns():
    suite = dict(builtin_small_suite())
    unit = suite["n4-g00-k0-unit"]
    assert all(v == 1 for column in (unit.costs.C, unit.costs.c, unit.costs.d) for v in column.values())
    anti = suite["n4-g00-k0-anti"]
    cs = [anti.costs.C[e] for e in sorted(anti.costs.C)]
    seconds = [anti.costs.second[e] for e in sorted(anti.costs.second)]
    assert cs == sorted(cs)  # first stage rises while second stage falls
    assert all(a >= b for a, b in zip(seconds, seconds[1:]))


def test_builtin_suite_deterministic():
    a = builtin_small_suite()
    b = builtin_small_suite()
    for (na, ia), (nb, ib) in zip(a, b):
        assert na == nb
        assert serialize_instance(ia) == serialize_instance(ib)
