"""Value domain, schemas, instances, and their extension order.

Values are uninterpreted text tokens tagged as ordinary constants or as
null markers (SQL-style unknown data values). Attribute names carry a
global total order, realized as the lexicographic order over tokens, and
a row is stored as the unnamed view: its values listed in that order,
beside the one tuple of attribute names its relation's rows share.
Labeled nulls, the variables of conditional tables (`ctables`), live here
too, so that one row type serves instances and tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, TypeVar, Union

from .errors import DomainMismatch

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


@dataclass(frozen=True, order=True)
class LabeledNull:
    """A conditional table's variable cell (`ctables`): it ranges over every value."""

    id: str

    def render(self) -> str:
        return f"?{self.id}"


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


@dataclass(frozen=True, order=True)
class Schema:
    """Finite map from relation names to attribute sets, canonically ordered."""

    rels: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self):
        names = [r for r, _ in self.rels]
        if names != sorted(names) or len(set(names)) != len(names):
            raise DomainMismatch(f"schema relations must be distinct and ordered: {names}")

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


@dataclass(frozen=True)
class Instance:
    """Finite relations over a schema; every tuple spans exactly its relation's attributes."""

    schema: Schema
    data: tuple[tuple[str, frozenset[Row]], ...]

    def __post_init__(self):
        check_relations("instance", self.schema, self.data)

    @staticmethod
    def of(schema: Schema, data: Mapping[str, Iterable[Row]] | None = None) -> "Instance":
        given = {r: frozenset(rows) for r, rows in (data or {}).items()}
        for r in given:
            if not schema.defines(r):
                raise DomainMismatch(f"relation {r} is not in the schema")
        return Instance(schema, tuple((r, given.get(r, frozenset())) for r in schema.names))

    def rows(self, relation: str) -> frozenset[Row]:
        for r, rows in self.data:
            if r == relation:
                return rows
        raise KeyError(relation)

    def total_size(self) -> int:
        return sum(len(rows) for _, rows in self.data)

    def __hash__(self):
        return hash((self.schema, self.data))


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


C = TypeVar("C")


def first_appearance(
    cells: Iterable[C], picked: Callable[[C], bool], name: Callable[[int], C]
) -> dict[C, C]:
    """Map each distinct cell `picked` accepts to `name(k)`, where k counts the
    cells picked before its first appearance."""
    mapping: dict[C, C] = {}
    for c in cells:
        if c not in mapping and picked(c):
            mapping[c] = name(len(mapping))
    return mapping


def map_cells(row: Row, image: Mapping) -> Row:
    """The row with each cell that `image` holds replaced by its image."""
    return Row(row.attrs, tuple([image.get(c, c) for c in row.values]))


def with_cells(row: Row, cells: Mapping[str, Cell]) -> Row:
    """The row with `cells` in place of its own cells of those attributes, or beside them."""
    return Row.of(dict(zip(row.attrs, row.values)) | cells)


def rename_values(i: Instance, renamed: Callable[[Value], bool], prefix: str) -> Instance:
    """Rename the values `renamed` picks to constants prefix0, prefix1, ... by
    first appearance over sorted rows, for comparison up to that renaming."""
    cells = (v for rel in i.schema.names for row in sorted(i.rows(rel)) for v in row.values)
    mapping = first_appearance(cells, renamed, lambda k: const(f"{prefix}{k}"))
    if not mapping:
        return i
    return Instance.of(
        i.schema,
        {rel: {map_cells(row, mapping) for row in i.rows(rel)} for rel in i.schema.names},
    )


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
