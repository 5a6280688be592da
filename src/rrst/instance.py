"""Problem instances: a matroid, per-element cost columns, and a recovery
budget k.  Both document kinds read into the one `Instance`.

A tree document is JSON:

    {"nodes": 4, "k": 1,
     "edges": [{"id": 0, "u": 0, "v": 1, "C": 3, "c": "2.5", "d": "1/2"}, ...]}

Nodes are labelled 0..nodes-1, and the graph must be connected: the
instance is the graphic matroid of that graph, whose bases are its
spanning trees.  A matroid document carries a ``family`` key (graphic,
uniform or partition), the family's fields, ``k`` and a ``costs`` list of
``{"id", "C", "c", "d"}`` objects; `instance_from_dict` reads the kind off
that key.  Costs may be integers or strings; strings accept decimal
("2.5") and fraction ("5/2") forms and are parsed exactly.  JSON floats
and the NaN/Infinity constants are rejected outright so no binary
rounding ever sneaks in.

A parsed instance holds its costs as one `CostColumns` record: an
id -> int dict per cost field, C, c and d, and their sum `second` = c + d.
Every int is in units of 1/scale, where `scale` is the LCM of the
denominators of all the instance's costs: the document above has scale 2,
and stores C, c, d of edge 0 as 6, 5, 1.  Printing divides by the scale
again, so a tree document reads back as it was written.

A document is read column by column: each field of an edge or cost list
is pulled out whole, and each check runs over a whole column at once.
Only when a check fails does the per-entry walk run, to raise the first
fault in document order with its index, as ParseError or ValidationError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add, eq

from .errors import InternalError, ParseError, ValidationError
from .matroids import GraphicMatroid, Matroid, PartitionMatroid, UniformMatroid
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
    """Both stages select bases of `matroid`: spanning trees when it is the
    graphic matroid of a connected graph, as every tree document reads."""

    matroid: Matroid
    costs: CostColumns
    k: int
    # every cost is an int in units of 1/scale
    scale: int
    # the matroid's full rank, by one greedy scan at construction
    rank: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_scale(self.scale)
        r = self.matroid.full_rank()
        if not 0 <= self.k <= r:
            raise ValidationError(f"k={self.k} outside 0..{r}")
        _check_cost_ids(self.costs, self.matroid.ground)
        object.__setattr__(self, "rank", r)

    @property
    def overlap_requirement(self) -> int:
        """Minimum |X ∩ Y|: the selection size, the rank, minus the recovery
        budget k."""
        return self.rank - self.k


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


def _edge_entries(raw_edges, n: int):
    """The per-edge walk: yield (where, entry, id) for each edge of
    raw_edges in turn, raising the first fault of its id and endpoints."""
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
        yield where, e, eid


def _raise_edge_fault(raw_edges, n: int):
    """The per-edge walk with each edge's costs: raise the first fault of
    raw_edges, by index."""
    costs = CostTable()
    for where, e, eid in _edge_entries(raw_edges, n):
        costs.add(eid, e, where)
    raise _missed_fault("edges")


def instance_from_dict(doc) -> Instance:
    """The instance of either document kind: a JSON object with a
    ``family`` key is a matroid instance, any other a tree instance."""
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    if "family" in doc:
        return _matroid_instance_from_dict(doc)
    return _tree_instance_from_dict(doc)


def _tree_instance_from_dict(doc: dict) -> Instance:
    """A tree document as the graphic matroid of its graph on 0..nodes-1,
    which must be connected."""
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
    if n < 1:
        raise ValidationError("instance needs at least one node")
    # checked before the graph is built, whose size grows with n
    if len(edges) < n - 1:
        raise ValidationError(f"instance graph is not connected: {len(edges)} edges cannot connect {n} nodes")
    inst = Instance(matroid=GraphicMatroid(MultiGraph(range(n), edges)), costs=costs, k=k, scale=scale)
    # the rank is one Kruskal scan: a spanning forest of n - 1 edges
    if inst.rank < n - 1:
        raise ValidationError("instance graph is not connected")
    return inst


def _is_id_list(raw) -> bool:
    return isinstance(raw, list) and _int_column(raw)


def matroid_from_dict(doc) -> Matroid:
    family = doc.get("family")
    if family == "graphic":
        n = _int_field(doc, "nodes", "matroid")
        if n < 0:
            raise ParseError(f"graphic matroid: nodes {n} is negative")
        raw = doc.get("edges")
        if not isinstance(raw, list):
            raise ParseError("graphic matroid: 'edges' must be a list")
        edges = _edge_columns(raw, n)
        if edges is None:
            _raise_graphic_edge_fault(raw, n)
        # an isolated node adds one to both the node count and the number
        # of components, so no rank changes when the graph holds only the
        # nodes its edges touch, however large `nodes` is
        return GraphicMatroid(MultiGraph(chain.from_iterable(edges.values()), edges))
    if family == "uniform":
        raw = doc.get("elements")
        if not _is_id_list(raw):
            raise ParseError("uniform matroid: 'elements' must be a list of integers")
        if len(set(raw)) != len(raw):
            raise ParseError("uniform matroid: duplicate elements")
        r = _int_field(doc, "rank", "matroid")
        if r < 0:
            raise ParseError(f"uniform matroid: rank {r} is negative")
        return UniformMatroid(frozenset(raw), r)
    if family == "partition":
        raw = doc.get("parts")
        if not isinstance(raw, list):
            raise ParseError("partition matroid: 'parts' must be a list")
        parts = []
        for i, p in enumerate(raw):
            where = f"parts[{i}]"
            elems = _object(p, where).get("elements")
            if not _is_id_list(elems):
                raise ParseError(f"{where}: 'elements' must be a list of integers")
            if len(set(elems)) != len(elems):
                raise ParseError(f"{where}: duplicate elements")
            cap = _int_field(p, "cap", where)
            if cap < 0:
                raise ParseError(f"{where}: cap {cap} is negative")
            parts.append((frozenset(elems), cap))
        try:
            return PartitionMatroid(parts)
        except ValidationError as exc:
            raise ParseError(f"partition matroid: {exc}") from exc
    raise ParseError(f"unknown matroid family {family!r}")


def _raise_graphic_edge_fault(raw, n: int):
    """The per-edge walk of a tree document, without its costs: raise the
    first fault of a graphic edge list."""
    for _ in _edge_entries(raw, n):
        pass
    raise _missed_fault("graphic edges")


def _raise_cost_fault(raw):
    """The per-entry walk: raise the first fault of a cost list, by index."""
    costs = CostTable()
    for i, entry in enumerate(raw):
        where = f"costs[{i}]"
        entry = _object(entry, where)
        costs.add(_int_field(entry, "id", where), entry, where)
    raise _missed_fault("costs")


def _matroid_instance_from_dict(doc: dict) -> Instance:
    matroid = matroid_from_dict(doc)
    k = _int_field(doc, "k", "matroid instance")
    raw = doc.get("costs")
    if not isinstance(raw, list):
        raise ParseError("matroid instance: 'costs' must be a list")
    ids = _distinct_ids(raw) if _objects(raw) else None
    read = None if ids is None else _cost_columns(raw, ids)
    if read is None:
        _raise_cost_fault(raw)
    costs, scale = read
    return Instance(matroid=matroid, costs=costs, k=k, scale=scale)


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
    """A graphic instance on nodes 0..n-1 as a tree document: edges in id order, each object's keys in
    the sorted order `serialize_instance` writes them in.  At scale 1 the
    cost columns are emitted as they are, since every cost is whole."""
    scale = inst.scale
    C, c, d = columns = (inst.costs.C, inst.costs.c, inst.costs.d)
    if scale != 1:
        C, c, d = ({e: _cost_out(v, scale) for e, v in column.items()} for column in columns)
    graph = inst.matroid.graph
    ends = graph.edges
    ids = sorted(ends)
    edges = [{"C": C[e], "c": c[e], "d": d[e], "id": e, "u": u, "v": v}
             for e, (u, v) in zip(ids, map(ends.__getitem__, ids))]
    return {"edges": edges, "k": inst.k, "nodes": graph.node_count}


def _cost_out(v: int, scale: int):
    # the cost v/scale: whole costs stay ints for readability; anything
    # else becomes an exact string
    if v % scale == 0:
        return v // scale
    return rat_str(rat(v, scale))


def serialize_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":")) + "\n"
