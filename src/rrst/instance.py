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
id -> int dict per cost field, C, c and d, their sum `second` = c + d, and
their `scale`: every int is in units of 1/scale, the LCM of the document's
cost denominators.  The document above has scale 2, and stores C, c, d of
edge 0 as 6, 5, 1.  Printing divides by the scale again, so a tree
document reads back as it was written.

A tree document's edges, a graphic document's edges and a matroid
document's costs are lists of the same shape, and one reader takes all
three: each field of the list is pulled out whole, and each check runs
over a whole column at once.  Only when a check fails does the one
per-entry walk run, to raise the first fault in document order with its
index, as ParseError or ValidationError.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from operator import add, eq

from .errors import InternalError, ParseError, ValidationError
from .matroids import GraphicMatroid, Matroid, PartitionMatroid, UniformMatroid
from .rational import DIGIT_LIMIT, parse_exact, rat, rat_str, widen_scale

_COST_KEYS = ("C", "c", "d")


def _read_only(record, name, value=None):
    raise AttributeError(f"{type(record).__name__} is read-only: cannot change {name!r}")


class CostColumns:
    """The costs of one instance, one id -> int dict per field: C the first
    stage, [c, c+d] the second-stage interval, and `second` = c + d.

    Each value is a non-negative int in units of 1/scale, checked over
    whole columns at construction, and `scale` has no default.  Under
    min-max recovery only the upper endpoint matters, so the solver reads
    only C and second.  The record is read-only; two compare equal when C,
    c, d and scale do.
    """

    __slots__ = ("C", "c", "d", "scale", "second")
    C: dict[int, int]
    c: dict[int, int]
    d: dict[int, int]
    # every cost is an int in units of 1/scale
    scale: int
    second: dict[int, int]

    def __init__(self, C, c, d, scale):
        if type(scale) is not int or scale < 1:
            raise ValidationError(f"cost scale {scale!r} is not a positive int")
        if not C.keys() == c.keys() == d.keys():
            raise ValidationError("cost columns C, c and d name different elements")
        for key, column in zip(_COST_KEYS, (C, c, d)):
            if set(map(type, column.values())) <= {int} and min(column.values(), default=0) >= 0:
                continue
            e, v = next((e, v) for e, v in column.items() if type(v) is not int or v < 0)
            raise ValidationError(f"costs must be non-negative ints in units of 1/scale: {key}[{e}] is {v!r}")
        second = dict(zip(c, map(add, c.values(), map(d.__getitem__, c))))
        for name, value in zip(self.__slots__, (C, c, d, scale, second)):
            object.__setattr__(self, name, value)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if type(other) is not CostColumns:
            return NotImplemented
        return (self.C, self.c, self.d, self.scale) == (other.C, other.c, other.d, other.scale)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not setattr
        return CostColumns, (self.C, self.c, self.d, self.scale)

    @classmethod
    def from_rows(cls, rows) -> "CostColumns":
        """The columns of a mapping id -> (C, c, d) of whole costs."""
        columns = list(zip(*rows.values())) or [(), (), ()]
        C, c, d = (dict(zip(rows, column)) for column in columns)
        return cls(C, c, d, 1)


class Instance:
    """Both stages select bases of `matroid`: spanning trees when it is the
    graphic matroid of a connected graph, as every tree document reads.
    The record is read-only; two compare equal when all but `rank` do."""

    __slots__ = ("matroid", "costs", "k", "rank")
    matroid: Matroid
    costs: CostColumns
    k: int
    # the matroid's full rank, by one greedy scan at construction
    rank: int

    def __init__(self, matroid, costs, k):
        r = matroid.full_rank()
        if not 0 <= k <= r:
            raise ValidationError(f"k={k} outside 0..{r}")
        _check_cost_ids(costs, matroid.ground)
        for name, value in zip(self.__slots__, (matroid, costs, k, r)):
            object.__setattr__(self, name, value)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if type(other) is not Instance:
            return NotImplemented
        return (self.matroid, self.costs, self.k) == (other.matroid, other.costs, other.k)

    def __reduce__(self):
        return Instance, (self.matroid, self.costs, self.k)

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


# --- reading an entry list ---------------------------------------------
#
# A tree document's edges (id, u, v, C, c, d), a graphic document's edges
# (id, u, v) and a matroid document's costs (id, C, c, d) are all read by
# one column pass, which returns None when a check fails; the one per-entry
# walk then raises the first fault and never returns.


def _column(objects, key) -> list:
    """The value of key in each object, None where it is missing."""
    return list(map(dict.get, objects, repeat(key)))


def _int_column(column) -> bool:
    """Every value an int and none a bool, as _int_field requires."""
    return all(issubclass(t, int) and not issubclass(t, bool) for t in set(map(type, column)))


def _read_entries(raw, n: int | None, costs: bool):
    """The entries of raw, checked column by column: objects with distinct
    int ids; for an edge list (n given) int endpoints in 0..n-1 that
    differ; with costs, readable non-negative C, c and d over one scale.

    Returns (id -> (u, v) or None, the CostColumns or None), or None when
    a check fails.  Only a cost column that holds a non-int is parsed
    value by value."""
    if not all(issubclass(t, dict) for t in set(map(type, raw))):
        return None
    ids = _column(raw, "id")
    if not _int_column(ids) or len(set(ids)) != len(ids):
        return None
    edges = None
    if n is not None:
        us, vs = _column(raw, "u"), _column(raw, "v")
        if not (_int_column(us) and _int_column(vs)):
            return None
        if (raw and not (0 <= min(us) and 0 <= min(vs) and max(us) < n and max(vs) < n)) or any(map(eq, us, vs)):
            return None
        edges = dict(zip(ids, zip(us, vs)))
    if not costs:
        return edges, None
    scale = 1
    columns = []
    for key in _COST_KEYS:
        column = _column(raw, key)
        if set(map(type, column)) <= {int}:
            if max(column, default=0) >= DIGIT_LIMIT:
                return None
        else:
            try:
                column = list(map(parse_exact, column))
                for v in column:
                    if type(v) is not int:
                        scale = widen_scale(scale, v)
            except ParseError:
                return None
        columns.append(column)
    if scale != 1:
        columns = [[v.numerator * (scale // v.denominator) for v in column] for column in columns]
    # unpacked, not passed as *args: a tuple built from a generator is
    # resized, and one per parse would fill the free list of its new size
    C, c, d = (dict(zip(ids, column)) for column in columns)
    try:
        return edges, CostColumns(C, c, d, scale)
    except ValidationError:  # a negative cost
        return None


def _int_field(obj, key, where):
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"{where}: field {key!r} must be an integer, got {v!r}")
    return v


def _object(obj, where) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: must be an object")
    return obj


def _raise_entry_fault(raw, n: int | None, costs: bool):
    """The per-entry walk over raw, with _read_entries' arguments: raise
    its first fault, by index, as ParseError or ValidationError.  Each
    entry's id, then its endpoints, then each cost field in turn is read;
    a cost field faults when missing, unreadable, negative or taking the
    scale past MAX_DIGITS digits."""
    kind = "cost" if n is None else "edge"
    seen = set()
    scale = 1
    for i, entry in enumerate(raw):
        where = f"{kind}s[{i}]"
        entry = _object(entry, where)
        eid = _int_field(entry, "id", where)
        if n is not None:
            u, v = _int_field(entry, "u", where), _int_field(entry, "v", where)
        if eid in seen:
            raise ParseError(f"{where}: duplicate {kind} id {eid}")
        seen.add(eid)
        if n is not None and not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"{where}: endpoint outside 0..{n - 1}")
        if n is not None and u == v:
            raise ParseError(f"{where}: self-loop on node {u}")
        for key in _COST_KEYS if costs else ():
            try:
                value = parse_exact(entry[key])
                if type(value) is not int:
                    scale = widen_scale(scale, value)
            except KeyError:
                raise ParseError(f"{where}: missing cost field {key!r}") from None
            except ParseError as exc:
                raise ParseError(f"{where}: bad value for {key!r}: {exc}") from exc
            if value < 0:
                raise ValidationError(f"{where}: cost {key}={rat_str(value)} is negative")
    what = "costs" if n is None else "edges" if costs else "graphic edges"
    raise InternalError(f"the column checks rejected {what} that the per-entry walk accepts")


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
    edges, costs = _read_entries(raw_edges, n, True) or _raise_entry_fault(raw_edges, n, True)
    if n < 1:
        raise ValidationError("instance needs at least one node")
    # checked before the graph is built, whose size grows with n
    if len(edges) < n - 1:
        raise ValidationError(f"instance graph is not connected: {len(edges)} edges cannot connect {n} nodes")
    inst = Instance(matroid=GraphicMatroid(range(n), edges), costs=costs, k=k)
    # the rank is one Kruskal scan: a spanning forest of n - 1 edges
    if inst.rank < n - 1:
        raise ValidationError("instance graph is not connected")
    return inst


def _element_ids(raw, where) -> frozenset:
    """The ids of an 'elements' list: distinct ints."""
    if not (isinstance(raw, list) and _int_column(raw)):
        raise ParseError(f"{where}: 'elements' must be a list of integers")
    ids = frozenset(raw)
    if len(ids) != len(raw):
        raise ParseError(f"{where}: duplicate elements")
    return ids


def matroid_from_dict(doc) -> Matroid:
    family = doc.get("family")
    if family == "graphic":
        n = _int_field(doc, "nodes", "matroid")
        if n < 0:
            raise ParseError(f"graphic matroid: nodes {n} is negative")
        raw = doc.get("edges")
        if not isinstance(raw, list):
            raise ParseError("graphic matroid: 'edges' must be a list")
        edges, _ = _read_entries(raw, n, False) or _raise_entry_fault(raw, n, False)
        # an isolated node adds one to both the node count and the number
        # of components, so no rank changes when the graph holds only the
        # nodes its edges touch, however large `nodes` is
        return GraphicMatroid(chain.from_iterable(edges.values()), edges)
    if family == "uniform":
        elements = _element_ids(doc.get("elements"), "uniform matroid")
        r = _int_field(doc, "rank", "matroid")
        if r < 0:
            raise ParseError(f"uniform matroid: rank {r} is negative")
        return UniformMatroid(elements, r)
    if family == "partition":
        raw = doc.get("parts")
        if not isinstance(raw, list):
            raise ParseError("partition matroid: 'parts' must be a list")
        parts = []
        for i, p in enumerate(raw):
            where = f"parts[{i}]"
            elements = _element_ids(_object(p, where).get("elements"), where)
            cap = _int_field(p, "cap", where)
            if cap < 0:
                raise ParseError(f"{where}: cap {cap} is negative")
            parts.append((elements, cap))
        try:
            return PartitionMatroid(parts)
        except ValidationError as exc:
            raise ParseError(f"partition matroid: {exc}") from exc
    raise ParseError(f"unknown matroid family {family!r}")


def _matroid_instance_from_dict(doc: dict) -> Instance:
    matroid = matroid_from_dict(doc)
    k = _int_field(doc, "k", "matroid instance")
    raw = doc.get("costs")
    if not isinstance(raw, list):
        raise ParseError("matroid instance: 'costs' must be a list")
    _, costs = _read_entries(raw, None, True) or _raise_entry_fault(raw, None, True)
    return Instance(matroid=matroid, costs=costs, k=k)


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
    parser or an integer literal past Python's limit on int digits, is
    raised as ParseError.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_constant)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an int literal past sys.get_int_max_str_digits()
        raise ParseError(f"unreadable JSON number: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None


def dump_json(doc) -> str:
    """The canonical text of an output document: sorted keys, no spaces,
    one trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _reject_float(tok):
    raise ParseError(f"float literal {tok} rejected; quote it as a string for exact parsing")


def _reject_constant(tok):
    raise ParseError(f"JSON constant {tok} rejected; every value must be a finite exact number")


def instance_to_dict(inst: Instance) -> dict:
    """A graphic instance, connected on nodes 0..n-1, as a tree document:
    edges in id order, each object's keys in the sorted order
    `serialize_instance` writes them in.  At scale 1 the cost columns are
    emitted as they are, since every cost is whole.

    Raises ValidationError for any other instance, which a tree document
    cannot hold."""
    matroid = inst.matroid
    # the rank was found at construction, so this costs O(nodes)
    if not (isinstance(matroid, GraphicMatroid) and inst.rank == len(matroid.nodes) - 1
            and matroid.nodes == frozenset(range(len(matroid.nodes)))):
        raise ValidationError(
            f"a tree document holds a graphic matroid connected on nodes 0..n-1, not this {matroid.family} instance")
    scale = inst.costs.scale
    C, c, d = columns = (inst.costs.C, inst.costs.c, inst.costs.d)
    if scale != 1:
        C, c, d = ({e: _cost_out(v, scale) for e, v in column.items()} for column in columns)
    ends = matroid.edges
    ids = sorted(ends)
    edges = [{"C": C[e], "c": c[e], "d": d[e], "id": e, "u": u, "v": v}
             for e, (u, v) in zip(ids, map(ends.__getitem__, ids))]
    return {"edges": edges, "k": inst.k, "nodes": len(matroid.nodes)}


def _cost_out(v: int, scale: int):
    # the cost v/scale: whole costs stay ints for readability; anything
    # else becomes an exact string
    if v % scale == 0:
        return v // scale
    return rat_str(rat(v, scale))


def serialize_instance(inst: Instance) -> str:
    return dump_json(instance_to_dict(inst))
