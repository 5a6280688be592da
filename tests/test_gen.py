"""Instance generation: determinism, density extremes, the built-in suite."""

import hashlib

import pytest

from rrst.errors import ValidationError
from rrst.gen import (
    BUILTIN_PATTERNS,
    builtin_small_suite,
    connected_graphs_up_to_iso,
    generate_instance,
)
from rrst.instance import loads_instance, serialize_instance
from rrst.rational import rat

# connected graphs up to isomorphism on 1..5 nodes (OEIS A001349)
BUILTIN_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}


def test_same_seed_same_bytes():
    a = serialize_instance(generate_instance(7, 0.4, 2, 15, 123))
    b = serialize_instance(generate_instance(7, 0.4, 2, 15, 123))
    assert a == b
    c = serialize_instance(generate_instance(7, 0.4, 2, 15, 124))
    assert a != c


# sha256 over the serialized documents of one node count, for every
# density, cost_max and seed of the grid below, in that nesting order; k is
# nodes // 2.  The digests pin the draw order the module docstring states,
# so a change that shifts any draw fails here.  The cost bounds straddle
# 64, where a rejected draw is likeliest.
STREAM_DIGESTS = {
    1: "acb6cc2ad277452f7ba6f3deaeb7d69858c1a1e6711f337c2ce669fd5f822142",
    2: "79ef99ff7a9ef24e2982b7b6c65cab1eae20d7ebbf3aac6734531f81a71fab40",
    3: "aafcd7d102926bc15f0433dc09ec5e83a88f25728cca7d697dc380d8151a74af",
    9: "52ed955b2f507f14ee7fc367deed508a58e131fde51c25678956d88edefbde75",
    40: "5225ebdda7e66b0184bfe17fc33bf91304ac14e7a13ec7785c14fc5cfd1fd763",
}


@pytest.mark.parametrize("nodes", sorted(STREAM_DIGESTS))
def test_generated_documents_are_pinned(nodes):
    digest = hashlib.sha256()
    for density in (0.0, 0.3, 1.0):
        for cost_max in (0, 1, 20, 63, 64, 1000):
            for seed in (0, 1):
                inst = generate_instance(nodes, density, nodes // 2, cost_max, seed)
                digest.update(serialize_instance(inst).encode())
    assert digest.hexdigest() == STREAM_DIGESTS[nodes]


def test_density_extremes():
    tree = generate_instance(8, 0.0, 3, 10, 5)
    assert len(tree.costs.C) == 7
    assert tree.matroid.graph.is_connected()
    full = generate_instance(8, 1.0, 3, 10, 5)
    assert len(full.costs.C) == 8 * 7 // 2


def test_instances_are_valid_and_costs_bounded():
    for seed in range(20):
        inst = generate_instance(6, 0.5, seed % 6, 9, seed)
        assert inst.matroid.graph.is_connected()
        assert inst.matroid.graph.node_count == 6 and inst.rank == 5
        for column in (inst.costs.C, inst.costs.c, inst.costs.d):
            for v in column.values():
                assert rat(0) <= v <= rat(9)
                assert v.denominator == 1


def test_zero_cost_max():
    inst = generate_instance(4, 0.5, 0, 0, 1)
    assert all(v == 0 for column in (inst.costs.C, inst.costs.c, inst.costs.d) for v in column.values())


def test_single_node():
    inst = generate_instance(1, 0.5, 0, 10, 0)
    assert inst.matroid.graph.node_count == 1 and len(inst.costs.C) == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(nodes=0, density=0.5, k=0, cost_max=5, seed=0),
        dict(nodes=4, density=1.5, k=0, cost_max=5, seed=0),
        dict(nodes=4, density=-0.1, k=0, cost_max=5, seed=0),
        dict(nodes=4, density=0.5, k=4, cost_max=5, seed=0),
        dict(nodes=4, density=0.5, k=-1, cost_max=5, seed=0),
        dict(nodes=4, density=0.5, k=0, cost_max=-1, seed=0),
        # a cost of more than 1,000 digits, which the readers refuse
        dict(nodes=4, density=0.5, k=0, cost_max=10 ** 1000, seed=0),
    ],
)
def test_bad_parameters_rejected(kwargs):
    with pytest.raises(ValidationError):
        generate_instance(**kwargs)


def test_costs_at_the_largest_cost_max_read_back():
    """10^1000 - 1 is the largest bound whose draws all have at most 1,000
    digits, so every cost reads back."""
    inst = generate_instance(3, 0.5, 0, 10 ** 1000 - 1, 0)
    assert serialize_instance(loads_instance(serialize_instance(inst))) == serialize_instance(inst)


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
        assert inst.matroid.graph.is_connected()
        assert 0 <= inst.k <= inst.rank == inst.matroid.graph.node_count - 1
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


# sha256 over each name and serialized document of the built-in suite, in
# suite order; the "random" pattern draws its costs as generate_instance does
BUILTIN_SUITE_DIGEST = "ad4d013b8b205299d42c3f7d413fd030146aa8f3dfc6d04ab720efff2f33cb52"


def test_builtin_suite_documents_are_pinned():
    digest = hashlib.sha256()
    for name, inst in builtin_small_suite():
        digest.update(name.encode())
        digest.update(serialize_instance(inst).encode())
    assert digest.hexdigest() == BUILTIN_SUITE_DIGEST


def test_builtin_suite_deterministic():
    a = builtin_small_suite()
    b = builtin_small_suite()
    for (na, ia), (nb, ib) in zip(a, b):
        assert na == nb
        assert serialize_instance(ia) == serialize_instance(ib)
