"""Problem instances: a connected multigraph, per-edge cost triples, and a
recovery budget k.

An instance document is JSON:

    {"nodes": 4, "k": 1,
     "edges": [{"id": 0, "u": 0, "v": 1, "C": 3, "c": "2.5", "d": "1/2"}, ...]}

Nodes are labelled 0..nodes-1.  Costs may be integers or strings; strings
accept decimal ("2.5") and fraction ("5/2") forms and are parsed exactly.
JSON floats and the NaN/Infinity constants are rejected outright so no
binary rounding ever sneaks in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .multigraph import MultiGraph
from .rational import ExactnessError, Rat, parse_exact, rat_str


@dataclass(frozen=True)
class CostTriple:
    """Per-edge costs: C first stage; [c, c+d] the second-stage interval.

    Under min-max recovery only the upper endpoint matters, so c and d only
    ever appear as the sum c+d.
    """

    C: Rat
    c: Rat
    d: Rat

    def __post_init__(self):
        for name in ("C", "c", "d"):
            if getattr(self, name) < 0:
                raise ValidationError(f"cost {name}={getattr(self, name)} is negative")

    @property
    def second(self) -> Rat:
        return self.c + self.d


@dataclass(frozen=True)
class Instance:
    graph: MultiGraph
    costs: dict[int, CostTriple]
    k: int

    def __post_init__(self):
        n = self.graph.node_count
        if n < 1:
            raise ValidationError("instance needs at least one node")
        if not self.graph.is_connected():
            raise ValidationError("instance graph is not connected")
        if not 0 <= self.k <= n - 1:
            raise ValidationError(f"k={self.k} outside 0..{n - 1}")
        missing = set(self.graph.edges) - set(self.costs)
        extra = set(self.costs) - set(self.graph.edges)
        if missing or extra:
            raise ValidationError(f"cost table mismatch: missing={sorted(missing)} extra={sorted(extra)}")

    @property
    def n(self) -> int:
        return self.graph.node_count

    @property
    def m(self) -> int:
        return self.graph.edge_count

    @property
    def overlap_requirement(self) -> int:
        """Minimum |X ∩ Y|: the tree size n-1 minus the recovery budget k."""
        return self.n - 1 - self.k


def _cost_field(obj, key, where):
    if key not in obj:
        raise ParseError(f"{where}: missing cost field {key!r}")
    try:
        return parse_exact(obj[key])
    except ExactnessError as exc:
        raise ParseError(f"{where}: bad value for {key!r}: {exc}") from exc


def _int_field(obj, key, where):
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"{where}: field {key!r} must be an integer, got {v!r}")
    return v


def _object(obj, where) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: must be an object")
    return obj


def instance_from_dict(doc) -> Instance:
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    n = _int_field(doc, "nodes", "instance")
    k = _int_field(doc, "k", "instance")
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise ParseError("instance: 'edges' must be a list")
    edges = {}
    costs = {}
    for i, e in enumerate(raw_edges):
        where = f"edges[{i}]"
        e = _object(e, where)
        eid = _int_field(e, "id", where)
        u = _int_field(e, "u", where)
        v = _int_field(e, "v", where)
        if eid in edges:
            raise ParseError(f"{where}: duplicate edge id {eid}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"{where}: endpoint outside 0..{n - 1}")
        if u == v:
            raise ParseError(f"{where}: self-loop on node {u}")
        edges[eid] = (u, v)
        costs[eid] = CostTriple(
            _cost_field(e, "C", where), _cost_field(e, "c", where), _cost_field(e, "d", where)
        )
    graph = MultiGraph(range(n), edges)
    return Instance(graph=graph, costs=costs, k=k)


def load_instance(path) -> Instance:
    return instance_from_dict(read_json(path))


def loads_instance(text) -> Instance:
    return instance_from_dict(parse_json(text))


def read_json(path):
    """The JSON document in the file at path; see parse_json."""
    with open(path, "rb") as fh:
        return parse_json(fh.read())


def parse_json(data):
    """Parse one input document (str, or bytes holding UTF-8 text).

    Every input document goes through here.  Float literals and the
    NaN/Infinity constants are rejected, so no value is ever rounded, and
    every malformed input, from invalid UTF-8 to nesting too deep for the
    parser, is raised as ParseError.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_constant)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None


def _reject_float(tok):
    raise ParseError(f"float literal {tok} rejected; quote it as a string for exact parsing")


def _reject_constant(tok):
    raise ParseError(f"JSON constant {tok} rejected; every value must be a finite exact number")


def instance_to_dict(inst: Instance) -> dict:
    edges = []
    for eid in inst.graph.edge_ids():
        u, v = inst.graph.endpoints(eid)
        t = inst.costs[eid]
        edges.append(
            {"id": eid, "u": u, "v": v, "C": _cost_out(t.C), "c": _cost_out(t.c), "d": _cost_out(t.d)}
        )
    return {"nodes": inst.graph.node_count, "k": inst.k, "edges": edges}


def _cost_out(r):
    # ints stay ints for readability; anything else becomes an exact string
    return int(r) if r.denominator == 1 else rat_str(r)


def serialize_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":")) + "\n"
