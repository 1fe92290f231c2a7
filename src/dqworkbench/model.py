"""Value domain, schemas, instances, and their extension order.

Values are uninterpreted text tokens tagged as ordinary constants or as
null markers (SQL-style unknown data values). Attribute names carry a
global total order, realized as the lexicographic order over tokens, and
a row is stored as the unnamed view: its values listed in that order,
beside the one tuple of attribute names its relation's rows share.
Labeled nulls, the variables of conditional tables (`ctables`), live here
too, so that one row type serves instances and tables, and one renamer,
`canonical_names`, names their nulls or values alike up to renaming.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from functools import cache, cached_property
from itertools import chain, groupby, permutations, product
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import DomainMismatch, Meter

CONST = "const"
NULL = "null"


class Value(NamedTuple):
    """A tagged token; a tuple, so it hashes, compares and orders in C, by (kind, token)."""

    kind: str
    token: str

    @property
    def is_constant(self) -> bool:
        return self.kind == CONST

    @cache  # once per distinct value: reports render every cell of every outcome
    def render(self) -> str:
        if self.kind == NULL:
            return f"?{self.token}"
        if is_plain_name(self.token) or _PLAIN_NUMBER.fullmatch(self.token):
            return self.token
        escaped = self.token.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'


def number_rule(digit: str = r"\d") -> str:
    """Regex source of a number token: an optional `-`, then digits with at
    most one `.` between two of them. The workspace lexer adds the non-decimal
    digits of its text (`²`) to `digit`; `Value.render` quotes those."""
    return rf"-?{digit}+(?:\.{digit}+)?"


def name_rule(numerals: str = "") -> str:
    """Regex source of a name token: a letter (`str.isalpha`) or `_`, then
    `\\w`s. A name must not start with a numeral that `\\w` takes (`²`, `Ⅻ`):
    the lexer lists its text's in `numerals`, `is_plain_name` checks `isalpha`."""
    return rf"[^\W\d{numerals}]\w*"


_PLAIN_NUMBER = re.compile(number_rule())
_PLAIN_NAME = re.compile(name_rule())


def is_plain_name(token: str) -> bool:
    """True iff the workspace lexer reads `token` as one undotted name."""
    return (token[:1] == "_" or token[:1].isalpha()) and _PLAIN_NAME.fullmatch(token) is not None


def const(token: object) -> Value:
    return Value(CONST, str(token))


def null_marker(token: object) -> Value:
    return Value(NULL, str(token))


class LabeledNull:
    """A conditional table's variable cell (`ctables`): it ranges over every value.
    Not a tuple, which a `Var` would equal: it equals and orders among labeled
    nulls only, by id, and hashes as `(id,)`."""

    __slots__ = ("id",)

    def __init__(self, id: str):
        object.__setattr__(self, "id", id)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.id == other.id if other.__class__ is LabeledNull else NotImplemented

    def __lt__(self, other):
        return self.id < other.id if other.__class__ is LabeledNull else NotImplemented

    def __le__(self, other):
        return self.id <= other.id if other.__class__ is LabeledNull else NotImplemented

    def __hash__(self):
        return hash((self.id,))

    def __repr__(self):
        return f"LabeledNull(id={self.id!r})"

    def __reduce__(self):  # copy and pickle build it anew: its slot is read-only
        return LabeledNull, (self.id,)

    def render(self) -> str:
        return f"?{self.id}"


class Distinct:
    """Mixin before a `namedtuple` base, for a record that may meet records of
    another class with equal fields: it equals only its own class's records
    with equal fields and hashes as its fields' tuple. `_make` skips `__new__`."""

    __slots__ = ()

    def __eq__(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


Cell = Union[Value, LabeledNull]


@cache
def positions(attrs: tuple[str, ...]) -> dict[str, int]:
    """Each attribute's position in `attrs`; cached per attribute tuple."""
    return {a: k for k, a in enumerate(attrs)}


@cache
def _projection(attrs: tuple[str, ...], keep: frozenset[str]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    picks = tuple(k for k, a in enumerate(attrs) if a in keep)
    return tuple(attrs[k] for k in picks), picks


class Row(NamedTuple):
    """A tuple's cells by position: `values[k]` is the cell of `attrs[k]`.

    `attrs` is its relation's attributes in ascending order (the rows of
    a parsed section share one such tuple), and `check_relations` checks
    it where the row enters an `Instance` or a table. A row hashes, compares and orders in C;
    rows over one `attrs` order by their values. A cell is a `Value`. A
    conditional table's row (`ctables`) may also hold labeled nulls; an
    `Instance` never does, because `ctables.apply_valuation` raises
    `PartialValuation` before it would build one.
    """

    attrs: tuple[str, ...]
    values: tuple[Cell, ...]

    @staticmethod
    def of(mapping: Mapping[str, Cell]) -> "Row":
        attrs = tuple(sorted(mapping))
        return Row(attrs, tuple([mapping[a] for a in attrs]))

    def cell(self, attr: str) -> Cell:
        """The cell of `attr`, by the cached position map of `attrs`."""
        return self.values[positions(self.attrs)[attr]]

    def project(self, attrs: Iterable[str]) -> "Row":
        """The row over those of `attrs` it has."""
        kept, picks = _projection(self.attrs, frozenset(attrs))
        values = self.values
        return Row(kept, tuple([values[k] for k in picks]))


class Schema(Distinct, namedtuple("Schema", "rels")):
    """Finite map from relation names to attribute sets, canonically ordered.
    Schemas order by `rels` and hash as it; the `__dict__` holds the lookups."""

    def __new__(cls, rels: tuple[tuple[str, frozenset[str]], ...]):
        names = [r for r, _ in rels]
        if names != sorted(names) or len(set(names)) != len(names):
            raise DomainMismatch(f"schema relations must be distinct and ordered: {names}")
        return tuple.__new__(cls, (rels,))

    @staticmethod
    def of(mapping: Mapping[str, Iterable[str]]) -> "Schema":
        return Schema(tuple(sorted((r, frozenset(a)) for r, a in mapping.items())))

    @cached_property
    def _by_name(self) -> dict[str, frozenset[str]]:
        return dict(self.rels)

    def defines(self, relation: str) -> bool:
        return relation in self._by_name

    def attrs(self, relation: str) -> frozenset[str]:
        return self._by_name[relation]

    @cached_property
    def _layouts(self) -> dict[str, tuple[str, ...]]:
        return {r: tuple(sorted(a)) for r, a in self.rels}

    def layout(self, relation: str) -> tuple[str, ...]:
        """The relation's attributes in ascending order: the `attrs` of its rows."""
        return self._layouts[relation]

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(r for r, _ in self.rels)

    def __hash__(self):
        return hash(self.rels)


class Instance(Distinct, namedtuple("Instance", "schema data")):
    """Finite relations over a schema; every tuple spans exactly its relation's attributes."""

    __slots__ = ()

    def __new__(cls, schema: Schema, data: tuple[tuple[str, frozenset[Row]], ...]):
        check_relations("instance", schema, data)
        return tuple.__new__(cls, (schema, data))

    @staticmethod
    def of(schema: Schema, data: Mapping[str, Iterable[Row]] | None = None) -> "Instance":
        given = data or {}
        for r in given:
            if not schema.defines(r):
                raise DomainMismatch(f"relation {r} is not in the schema")
        return Instance(*Instance.built(schema, given))  # and check its rows

    @staticmethod
    def built(schema: Schema, data: Mapping[str, Iterable[Row]]) -> "Instance":
        """`of` without its checks, for rows drawn from checked instances and tables."""
        relations = tuple((r, frozenset(data.get(r, ()))) for r in schema.names)
        return Instance._make((schema, relations))

    def rows(self, relation: str) -> frozenset[Row]:
        for r, rows in self.data:
            if r == relation:
                return rows
        raise KeyError(relation)

    def total_size(self) -> int:
        return sum(len(rows) for _, rows in self.data)


def check_relations(what: str, schema: Schema, data: Iterable[tuple[str, Iterable[Row]]]) -> None:
    """Raise unless `data` lists the schema's relations in order, with rows
    whose `attrs` are their relation's layout. The one check of a row's
    attributes: each distinct tuple of them is checked once."""
    if [r for r, _ in data] != list(schema.names):
        raise DomainMismatch(f"{what} must list exactly the schema relations, in order")
    for r, rows in data:
        expected = schema.layout(r)
        for attrs in {row.attrs for row in rows} - {expected}:
            if list(attrs) != sorted(set(attrs)):
                raise DomainMismatch(f"row attributes must be distinct and ordered: {list(attrs)}")
            raise DomainMismatch(f"tuple over {list(attrs)} does not fit {r}({list(expected)})")


def schema_extends(candidate: Schema, base: Schema) -> bool:
    """True iff candidate defines every base relation with at least its attributes."""
    return all(
        candidate.defines(r) and a <= candidate.attrs(r) for r, a in base.rels
    )


def instance_extends(candidate: Instance, base: Instance) -> bool:
    """True iff candidate's projection over base's schema covers every base tuple."""
    if not schema_extends(candidate.schema, base.schema):
        return False
    for r, rows in base.data:
        attrs = base.schema.attrs(r)
        if candidate.schema.attrs(r) == attrs:
            if not rows <= candidate.rows(r):
                return False
            continue
        picks = _projection(candidate.schema.layout(r), attrs)[1]
        images = {tuple([row.values[k] for k in picks]) for row in candidate.rows(r)}
        if any(row.values not in images for row in rows):
            return False
    return True


# orders of still-tied cells one canonical naming may try
NAMING_ORDER_CAP = 50_000


def canonical_names(
    facts: Iterable[tuple[str, tuple[Cell, ...], Iterable[tuple[Cell, Cell]]]],
    picked: Callable[[Cell], bool],
    name: Callable[[int], Cell],
) -> dict[Cell, Cell]:
    """Map each distinct cell `picked` accepts to `name(k)`, alike for fact
    lists equal up to renaming those cells.

    A fact is `(relation, cells, pairs)`, pairs being a table row's condition;
    a relation's facts have equally many cells, and every cell not picked is
    a `Value`. Colour refinement ranks the picked cells by their occurrences,
    as (fact with the picked cells coloured, position). Tied classes whose
    adjacent swaps change the renamed facts take the orders whose renamed
    facts sort least (McKay and Piperno, JSC 2014), at most NAMING_ORDER_CAP.
    """
    facts = list(facts)
    found = {c for _, cells, pairs in facts for c in chain(cells, *pairs) if picked(c)}
    if len(found) < 2:
        return {c: name(0) for c in found}
    number: dict = {}
    # (relation, cells then pair cells, each picked one as its number and each other as a
    # plain tuple, which the collector can untrack; the picked ones' positions)
    shaped = []
    for rel, cells, pairs in facts:
        flat = tuple([number.setdefault(c, len(number)) if picked(c) else tuple(c) for c in chain(cells, *pairs)])
        slots = tuple([k for k, c in enumerate(flat) if c.__class__ is int])
        if slots:
            shaped.append((rel, flat, slots))
    n = len(number)
    stand = [("", k) for k in range(n)]  # each sorts before every value

    def coloured(colour: Mapping[int, int] | list[int]) -> list[tuple]:
        return [(rel, *[stand[colour[c]] if c.__class__ is int else c for c in flat]) for rel, flat, _ in shaped]

    members = [tuple(range(n))]
    while len(members) < n:
        colour = {c: r for r, m in enumerate(members) for c in m}
        # each picked cell's occurrences, as (cell, fact, position), grouped by cell
        seen = sorted((flat[k], fact, k) for fact, (_, flat, slots) in zip(coloured(colour), shaped) for k in slots)
        signature = [(colour[c], *(o[1:] for o in group)) for c, group in groupby(seen, itemgetter(0))]
        split = [tuple(m) for _, m in groupby(sorted(range(n), key=signature.__getitem__), signature.__getitem__)]
        if len(split) == len(members):
            break
        members = split

    def arranged(picks: Mapping[int, Sequence[int]]) -> list[int]:
        return [c for r, m in enumerate(members) for c in picks.get(r, m)]

    def image(order: list[int]) -> list[tuple]:
        return sorted(coloured([k for _, k in sorted(zip(order, range(n)))]))

    first = image(arranged({})) if len(members) < n else None
    tied = [
        r for r, m in enumerate(members)
        if any(image(arranged({r: m[:k] + (m[k + 1], m[k]) + m[k + 2 :]})) != first for k in range(len(m) - 1))
    ]
    Meter(NAMING_ORDER_CAP, "canonical naming", "orders").tick(math.prod(math.factorial(len(members[r])) for r in tied))
    orders = (arranged(dict(zip(tied, c))) for c in product(*(permutations(members[r]) for r in tied)))
    cells = list(number)
    return {cells[c]: name(k) for k, c in enumerate(min(orders, key=image) if tied else arranged({}))}


def map_cells(row: Row, image: Mapping) -> Row:
    """The row with each cell that `image` holds replaced by its image."""
    return Row(row.attrs, tuple([image.get(c, c) for c in row.values]))


def with_cells(row: Row, cells: Mapping[str, Cell]) -> Row:
    """The row with `cells` in place of its own cells of those attributes, or beside them."""
    return Row.of(dict(zip(row.attrs, row.values)) | cells)


def active_domain(i: Instance) -> frozenset[Value]:
    return frozenset(v for _, rows in i.data for row in rows for v in row.values)


def render_instance(i: Instance) -> str:
    """Canonical text: relations sorted by name, headers and rows in attribute order."""
    lines: list[str] = []
    for r, rows in i.data:
        lines.append(f"{r}({', '.join(i.schema.layout(r))}):")
        # rows share one `attrs`, so they sort by their values
        lines.extend(map(_row_line, sorted(row.values for row in rows)) if rows else ["  (empty)"])
    return "\n".join(lines)


@cache  # once per distinct row: reports list the same rows in many outcomes
def _row_line(values: tuple[Value, ...]) -> str:
    return f"  ({', '.join([v.render() for v in values])})"
