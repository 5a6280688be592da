"""Benchmark workloads: which instance documents a run feeds the program.

Each workload owns a fixed universe of instance documents, split into
strata (one per instance shape).  Member ``i`` of a stratum is built from
``i`` alone, so the stored reference optimum of every member
(``reference.json``) stays valid for any run seed.

A run seed draws a stratified sample.  Within a stratum the members are
ranked by the operation time recorded with the references and cut into
``sample`` bins of ``choices`` neighbours; the seed picks one member per
bin.  Bins are visited in bit-reversed order and strata interleaved, so
any prefix of the run covers the whole cost range of every shape.  Seeds
thus give different documents with the same cost profile, which keeps the
medians and tails of runs with different seeds comparable.

Tree documents come from ``rrst.generate_instance``; ``rrst`` has no matroid
generator, so matroid documents are assembled here from seeded costs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

COST_MAX = 50


@dataclass(frozen=True)
class Item:
    """One instance document of a run, in the form the CLI would read it."""

    key: str  # "<stratum>-i<index>", the name failures are reported under
    kind: str  # "tree" or "matroid"
    doc: str
    sha256: str


@dataclass(frozen=True)
class Stratum:
    label: str
    kind: str
    build: Callable  # (rrst, index) -> document dict


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple
    sample: int  # members per stratum drawn by one run seed, one per bin
    choices: int  # members per bin
    trace_rate: float  # traced operations per second of --seconds

    @property
    def universe(self) -> int:
        """Members per stratum."""
        return self.sample * self.choices


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _tree(n: int, density: float, k_of_n) -> Stratum:
    def build(rrst, i):
        inst = rrst.generate_instance(n, density, k_of_n(n), COST_MAX, i)
        return rrst.instance_to_dict(inst)

    return Stratum(f"n{n}", "tree", build)


def _random_costs(rng: random.Random, ids) -> list:
    return [
        {"id": e, "C": rng.randint(0, COST_MAX), "c": rng.randint(0, COST_MAX), "d": rng.randint(0, COST_MAX)}
        for e in ids
    ]


def _uniform(m: int, r: int, k: int) -> Stratum:
    label = f"uniform{m}r{r}"

    def build(rrst, i):
        rng = random.Random(f"{label}/{i}")
        return {"family": "uniform", "elements": list(range(m)), "rank": r, "k": k,
                "costs": _random_costs(rng, range(m))}

    return Stratum(label, "matroid", build)


def _partition(blocks: int, size: int, cap: int, k: int) -> Stratum:
    label = f"partition{blocks}x{size}c{cap}"

    def build(rrst, i):
        rng = random.Random(f"{label}/{i}")
        parts = [{"elements": list(range(b * size, (b + 1) * size)), "cap": cap} for b in range(blocks)]
        return {"family": "partition", "parts": parts, "k": k,
                "costs": _random_costs(rng, range(blocks * size))}

    return Stratum(label, "matroid", build)


def _graphic(n: int, density: float) -> Stratum:
    """A generated graph routed through the graphic matroid, k = n - 1."""

    def build(rrst, i):
        tree_doc = rrst.instance_to_dict(rrst.generate_instance(n, density, n - 1, COST_MAX, i))
        edges = tree_doc["edges"]
        return {"family": "graphic", "nodes": n, "k": n - 1,
                "edges": [{"id": e["id"], "u": e["u"], "v": e["v"]} for e in edges],
                "costs": [{"id": e["id"], "C": e["C"], "c": e["c"], "d": e["d"]} for e in edges]}

    return Stratum(f"graphic{n}", "matroid", build)


def _half(n):
    return n // 2


def _zero(n):
    return 0


def _all_but_one(n):
    return n - 1


# Why each workload exists is written up in README.md.  Samples are sized
# so that one 30 s run makes at least two passes through its sample on a
# 2-core machine, with room for the machine or the program to be about 1.7
# times slower.
WORKLOADS = {
    "full": {
        "tree-mid": Workload("tree-mid", (_tree(9, 0.3, _half),), sample=36, choices=2, trace_rate=1.5),
        "tree-k0": Workload("tree-k0", (_tree(16, 0.3, _zero), _tree(18, 0.3, _zero)),
                            sample=36, choices=2, trace_rate=3.0),
        "tree-greedy": Workload("tree-greedy", (_tree(180, 0.3, _all_but_one),), sample=12, choices=3,
                                trace_rate=1.5),
        "matroid-mix": Workload(
            "matroid-mix", (_uniform(24, 8, 4), _partition(3, 6, 2, 3), _graphic(50, 0.3)),
            sample=12, choices=2, trace_rate=1.5),
    },
    # seconds-long sizes for the harness smoke test
    "tiny": {
        "tree-mid": Workload("tree-mid", (_tree(5, 0.5, _half),), sample=4, choices=2, trace_rate=20.0),
        "tree-k0": Workload("tree-k0", (_tree(6, 0.5, _zero),), sample=4, choices=2, trace_rate=20.0),
        "tree-greedy": Workload("tree-greedy", (_tree(12, 0.3, _all_but_one),), sample=4, choices=2,
                                trace_rate=20.0),
        "matroid-mix": Workload(
            "matroid-mix", (_uniform(8, 3, 1), _partition(3, 3, 1, 1), _graphic(6, 0.5)),
            sample=2, choices=2, trace_rate=20.0),
    },
}


def key(stratum: Stratum, index: int) -> str:
    return f"{stratum.label}-i{index}"


def make_item(rrst, stratum: Stratum, index: int) -> Item:
    doc = _canonical(stratum.build(rrst, index))
    return Item(key(stratum, index), stratum.kind, doc, hashlib.sha256(doc.encode()).hexdigest())


def _bit_reversed(b: int) -> float:
    x, scale = 0.0, 0.5
    while b:
        x += scale * (b & 1)
        b >>= 1
        scale /= 2
    return x


def run_order(workload: Workload, seed: int, cost_ms: dict) -> list[tuple[Stratum, int]]:
    """The seed's stratified sample of the universe, in run order.

    `cost_ms` maps member keys to their recorded operation time; members
    without one rank as free.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    picks = []
    for stratum in workload.strata:
        ranked = sorted(range(workload.universe), key=lambda i: (cost_ms.get(key(stratum, i), 0.0), i))
        picks.append([rng.choice(ranked[b * workload.choices:(b + 1) * workload.choices])
                      for b in range(workload.sample)])
    bins = sorted(range(workload.sample), key=_bit_reversed)
    return [(stratum, picks[s][b]) for b in bins for s, stratum in enumerate(workload.strata)]


def universe(workload: Workload) -> list[tuple[Stratum, int]]:
    return [(stratum, i) for stratum in workload.strata for i in range(workload.universe)]
