"""Problem instances: a connected multigraph, per-edge cost columns, and
a recovery budget k.

An instance document is JSON:

    {"nodes": 4, "k": 1,
     "edges": [{"id": 0, "u": 0, "v": 1, "C": 3, "c": "2.5", "d": "1/2"}, ...]}

Nodes are labelled 0..nodes-1.  Costs may be integers or strings; strings
accept decimal ("2.5") and fraction ("5/2") forms and are parsed exactly.
JSON floats and the NaN/Infinity constants are rejected outright so no
binary rounding ever sneaks in.

A parsed instance holds its costs as one `CostColumns` record: an
id -> int dict per cost field, C, c and d, and their sum `second` = c + d.
Every int is in units of 1/scale, where `scale` is the LCM of the
denominators of all the instance's costs: the document above has scale 2,
and stores C, c, d of edge 0 as 6, 5, 1.  Printing divides by the scale
again, so a document reads back as it was written.

A document is read column by column: each field of the edge list is pulled
out whole, and each check runs over a whole column at once.  Only when a
check fails does the per-edge walk run, to raise the first fault in
document order with its index, as ParseError or ValidationError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, eq

from .errors import InternalError, ParseError, ValidationError
from .multigraph import MultiGraph
from .rational import DIGIT_LIMIT, ExactnessError, parse_exact, rat, rat_str, widen_scale

_COST_KEYS = ("C", "c", "d")


@dataclass(frozen=True)
class CostColumns:
    """The costs of one instance, one id -> int dict per field: C the first
    stage, [c, c+d] the second-stage interval, and `second` = c + d.

    Each value is a non-negative int in units of 1/scale of its instance,
    checked over whole columns at construction.  Under min-max recovery
    only the upper endpoint matters, so the solver reads only C and second.
    """

    C: dict[int, int]
    c: dict[int, int]
    d: dict[int, int]
    second: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c, d = self.c, self.d
        if not self.C.keys() == c.keys() == d.keys():
            raise ValidationError("cost columns C, c and d name different elements")
        for key in _COST_KEYS:
            column = getattr(self, key)
            if set(map(type, column.values())) <= {int} and min(column.values(), default=0) >= 0:
                continue
            e, v = next((e, v) for e, v in column.items() if type(v) is not int or v < 0)
            raise ValidationError(f"costs must be non-negative ints in units of 1/scale of their "
                                  f"instance: {key}[{e}] is {v!r}")
        object.__setattr__(self, "second", dict(zip(c, map(add, c.values(), map(d.__getitem__, c)))))

    @classmethod
    def from_rows(cls, rows) -> "CostColumns":
        """The columns of a mapping id -> (C, c, d)."""
        columns = list(zip(*rows.values())) or [(), (), ()]
        C, c, d = (dict(zip(rows, column)) for column in columns)
        return cls(C, c, d)


def _check_scale(scale) -> None:
    if type(scale) is not int or scale < 1:
        raise ValidationError(f"cost scale {scale!r} is not a positive int")


@dataclass(frozen=True)
class Instance:
    graph: MultiGraph
    costs: CostColumns
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
        _check_cost_ids(self.costs, self.graph.edges.keys())

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


def _check_cost_ids(costs: CostColumns, ids) -> None:
    """ValidationError unless the cost columns hold exactly the ids."""
    if costs.C.keys() != ids:
        missing = set(ids) - costs.C.keys()
        extra = costs.C.keys() - set(ids)
        raise ValidationError(f"cost table mismatch: missing={sorted(missing)} extra={sorted(extra)}")


# --- column-wise reading ------------------------------------------------
#
# Each reader returns None when any check fails; its caller then runs the
# per-entry walk, which raises the first fault in document order.


def _objects(raw) -> bool:
    """Every entry of raw is an object, checked over the entries' types."""
    return all(issubclass(t, dict) for t in set(map(type, raw)))


def _column(objects, key) -> list:
    """The value of key in each object, None where it is missing."""
    return list(map(dict.get, objects, repeat(key)))


def _int_column(column) -> bool:
    """Every value an int and none a bool, as _int_field requires."""
    return all(issubclass(t, int) and not issubclass(t, bool) for t in set(map(type, column)))


def _distinct_ids(objects) -> list | None:
    """The id column of objects, if every id is an int and none repeats."""
    ids = _column(objects, "id")
    return ids if _int_column(ids) and len(set(ids)) == len(ids) else None


def _edge_columns(raw, n: int) -> dict[int, tuple[int, int]] | None:
    """The edges of raw as id -> (u, v): objects with distinct int ids and
    int endpoints in 0..n-1 that differ."""
    if not _objects(raw):
        return None
    ids = _distinct_ids(raw)
    us, vs = _column(raw, "u"), _column(raw, "v")
    if ids is None or not (_int_column(us) and _int_column(vs)):
        return None
    if raw and not (0 <= min(us) and 0 <= min(vs) and max(us) < n and max(vs) < n):
        return None
    if any(map(eq, us, vs)):
        return None
    return dict(zip(ids, zip(us, vs)))


def _cost_columns(objects, ids) -> tuple[CostColumns, int] | None:
    """The cost fields of objects, keyed by ids, as ints over one scale,
    with that scale.  Only a column that holds a non-int is parsed value
    by value."""
    scale = 1
    columns = []
    for key in _COST_KEYS:
        column = _column(objects, key)
        if set(map(type, column)) <= {int}:
            if max(column, default=0) >= DIGIT_LIMIT:
                return None
        else:
            try:
                column = list(map(parse_exact, column))
                for v in column:
                    if type(v) is not int:
                        scale = widen_scale(scale, v)
            except ExactnessError:
                return None
        columns.append(column)
    if scale != 1:
        columns = [[v.numerator * (scale // v.denominator) for v in column] for column in columns]
    # unpacked, not passed as *args: a tuple built from a generator is
    # resized, and one per parse would fill the free list of its new size
    C, c, d = (dict(zip(ids, column)) for column in columns)
    try:
        return CostColumns(C, c, d), scale
    except ValidationError:  # a negative cost
        return None


# --- the per-entry walk -------------------------------------------------


class CostTable:
    """The per-entry walk over cost fields, in document order, that names
    the first fault: a missing or unreadable field, a negative cost, a
    field that takes the scale past MAX_DIGITS digits, or an id read twice.
    """

    def __init__(self):
        self._seen: set[int] = set()
        self.scale = 1

    def add(self, eid: int, obj: dict, where: str) -> None:
        if eid in self._seen:
            raise ParseError(f"{where}: duplicate cost id {eid}")
        self._seen.add(eid)
        for key in _COST_KEYS:
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


def _missed_fault(what: str) -> InternalError:
    return InternalError(f"the column checks rejected {what} that the per-entry walk accepts")


def _int_field(obj, key, where):
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"{where}: field {key!r} must be an integer, got {v!r}")
    return v


def _object(obj, where) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: must be an object")
    return obj


def _raise_edge_fault(raw_edges, n: int):
    """The per-edge walk: raise the first fault of raw_edges, by index."""
    costs = CostTable()
    seen = set()
    for i, e in enumerate(raw_edges):
        where = f"edges[{i}]"
        e = _object(e, where)
        eid = _int_field(e, "id", where)
        u = _int_field(e, "u", where)
        v = _int_field(e, "v", where)
        if eid in seen:
            raise ParseError(f"{where}: duplicate edge id {eid}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"{where}: endpoint outside 0..{n - 1}")
        if u == v:
            raise ParseError(f"{where}: self-loop on node {u}")
        seen.add(eid)
        costs.add(eid, e, where)
    raise _missed_fault("edges")


def instance_from_dict(doc) -> Instance:
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    n = _int_field(doc, "nodes", "instance")
    k = _int_field(doc, "k", "instance")
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise ParseError("instance: 'edges' must be a list")
    edges = _edge_columns(raw_edges, n)
    read = None if edges is None else _cost_columns(raw_edges, edges)
    if read is None:
        _raise_edge_fault(raw_edges, n)
    costs, scale = read
    # checked before the graph is built, whose size grows with n
    if len(edges) < n - 1:
        raise ValidationError(f"instance graph is not connected: {len(edges)} edges cannot connect {n} nodes")
    graph = MultiGraph(range(n), edges)
    return Instance(graph=graph, costs=costs, k=k, scale=scale)


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
    C, c, d = inst.costs.C, inst.costs.c, inst.costs.d
    for eid in inst.graph.edge_ids():
        u, v = inst.graph.endpoints(eid)
        edges.append({"id": eid, "u": u, "v": v, "C": _cost_out(C[eid], scale),
                      "c": _cost_out(c[eid], scale), "d": _cost_out(d[eid], scale)})
    return {"nodes": inst.graph.node_count, "k": inst.k, "edges": edges}


def _cost_out(v: int, scale: int):
    # the cost v/scale: whole costs stay ints for readability; anything
    # else becomes an exact string
    if v % scale == 0:
        return v // scale
    return rat_str(rat(v, scale))


def serialize_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":")) + "\n"
