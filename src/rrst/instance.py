"""Problem instances: a connected multigraph, per-edge cost triples, and a
recovery budget k.

An instance document is JSON:

    {"nodes": 4, "k": 1,
     "edges": [{"id": 0, "u": 0, "v": 1, "C": 3, "c": "2.5", "d": "1/2"}, ...]}

Nodes are labelled 0..nodes-1.  Costs may be integers or strings; strings
accept decimal ("2.5") and fraction ("5/2") forms and are parsed exactly.
JSON floats and the NaN/Infinity constants are rejected outright so no
binary rounding ever sneaks in.

A parsed instance holds every cost as a Python int over one per-instance
`scale`, the LCM of the denominators of all its costs: the document above
has scale 2 and stores C, c, d of edge 0 as 6, 5, 1.  Printing divides by
the scale again, so a document reads back as it was written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .multigraph import MultiGraph
from .rational import ExactnessError, parse_exact, rat, rat_str, widen_scale


@dataclass(frozen=True)
class CostTriple:
    """Per-edge costs: C first stage; [c, c+d] the second-stage interval.

    Each is a non-negative int in units of 1/scale of its instance.  Under
    min-max recovery only the upper endpoint matters, so c and d only ever
    appear as the sum c+d.
    """

    C: int
    c: int
    d: int

    def __post_init__(self):
        C, c, d = self.C, self.c, self.d
        if not (type(C) is type(c) is type(d) is int and C >= 0 and c >= 0 and d >= 0):
            raise ValidationError(f"costs {C!r}, {c!r}, {d!r} are not all non-negative ints "
                                  "in units of 1/scale of their instance")

    @property
    def second(self) -> int:
        return self.c + self.d


def _check_scale(scale) -> None:
    if type(scale) is not int or scale < 1:
        raise ValidationError(f"cost scale {scale!r} is not a positive int")


@dataclass(frozen=True)
class Instance:
    graph: MultiGraph
    costs: dict[int, CostTriple]
    k: int
    # every cost is an int in units of 1/scale
    scale: int

    def __post_init__(self):
        _check_scale(self.scale)
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


class CostTable:
    """Cost triples read in document order, scaled to ints over one scale.

    The scale grows as fractional costs arrive; ParseError names the cost
    field that takes it past MAX_DIGITS digits, or an id read twice.
    """

    def __init__(self):
        self._raw: dict[int, list] = {}
        self.scale = 1

    def add(self, eid: int, obj: dict, where: str) -> None:
        if eid in self._raw:
            raise ParseError(f"{where}: duplicate cost id {eid}")
        triple = []
        for key in ("C", "c", "d"):
            try:
                v = parse_exact(obj[key])
                if type(v) is not int:
                    self.scale = widen_scale(self.scale, v)
            except KeyError:
                raise ParseError(f"{where}: missing cost field {key!r}") from None
            except ExactnessError as exc:
                raise ParseError(f"{where}: bad value for {key!r}: {exc}") from exc
            if v < 0:
                raise ValidationError(f"{where}: cost {key}={rat_str(v)} is negative")
            triple.append(v)
        self._raw[eid] = triple

    def costs(self) -> dict[int, CostTriple]:
        scale = self.scale
        # every cost is already an int at scale 1; skipping the rescale
        # there saves about a tenth of the parse of a large document
        if scale == 1:
            return {eid: CostTriple(*t) for eid, t in self._raw.items()}
        return {
            eid: CostTriple(*(v.numerator * (scale // v.denominator) for v in t))
            for eid, t in self._raw.items()
        }


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
    costs = CostTable()
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
        costs.add(eid, e, where)
    # checked before the graph is built, whose size grows with n
    if len(edges) < n - 1:
        raise ValidationError(f"instance graph is not connected: {len(edges)} edges cannot connect {n} nodes")
    graph = MultiGraph(range(n), edges)
    return Instance(graph=graph, costs=costs.costs(), k=k, scale=costs.scale)


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
    scale = inst.scale
    for eid in inst.graph.edge_ids():
        u, v = inst.graph.endpoints(eid)
        t = inst.costs[eid]
        edges.append({"id": eid, "u": u, "v": v, "C": _cost_out(t.C, scale),
                      "c": _cost_out(t.c, scale), "d": _cost_out(t.d, scale)})
    return {"nodes": inst.graph.node_count, "k": inst.k, "edges": edges}


def _cost_out(v: int, scale: int):
    # the cost v/scale: whole costs stay ints for readability; anything
    # else becomes an exact string
    if v % scale == 0:
        return v // scale
    return rat_str(rat(v, scale))


def serialize_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":")) + "\n"
