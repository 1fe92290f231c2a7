"""Value domain, schemas, instances, and their extension/union algebra.

Values are uninterpreted text tokens tagged as ordinary constants or as
null markers (SQL-style unknown data values). Attribute names carry a
global total order, realized as the lexicographic order over tokens, and
a tuple can always be viewed unnamed by listing its values in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .errors import AttributeMismatch, DomainMismatch

CONST = "const"
NULL = "null"


@dataclass(frozen=True, order=True)
class Value:
    kind: str
    token: str

    @property
    def is_constant(self) -> bool:
        return self.kind == CONST

    def render(self) -> str:
        if self.kind == NULL:
            return f"?{self.token}"
        if self.token.isidentifier() or _is_plain_number(self.token):
            return self.token
        escaped = self.token.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'


def _is_plain_number(token: str) -> bool:
    if not token:
        return False
    body = token[1:] if token[0] == "-" else token
    return body.isdigit() or (body.count(".") == 1 and body.replace(".", "").isdigit())


def const(token: object) -> Value:
    return Value(CONST, str(token))


def null_marker(token: object) -> Value:
    return Value(NULL, str(token))


@dataclass(frozen=True, order=True)
class Row:
    """Named tuple: values keyed by attribute, stored in attribute order."""

    cells: tuple[tuple[str, Value], ...]

    def __post_init__(self):
        attrs = [a for a, _ in self.cells]
        if attrs != sorted(attrs) or len(set(attrs)) != len(attrs):
            raise DomainMismatch(f"row attributes must be distinct and ordered: {attrs}")

    @staticmethod
    def of(mapping: Mapping[str, Value]) -> "Row":
        return Row(tuple(sorted(mapping.items())))

    def __getitem__(self, attr: str) -> Value:
        for a, v in self.cells:
            if a == attr:
                return v
        raise KeyError(attr)

    @property
    def attrs(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.cells)

    def project(self, attrs: Iterable[str]) -> "Row":
        keep = set(attrs)
        return Row(tuple((a, v) for a, v in self.cells if a in keep))

    def values_in_order(self) -> tuple[Value, ...]:
        return tuple(v for _, v in self.cells)

    def as_dict(self) -> dict[str, Value]:
        return dict(self.cells)


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

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r for r, _ in self.rels)

    def as_dict(self) -> dict[str, frozenset[str]]:
        return dict(self.rels)

    def __hash__(self):
        return hash(tuple((r, tuple(sorted(a))) for r, a in self.rels))


@dataclass(frozen=True)
class Instance:
    """Finite relations over a schema; every tuple spans exactly its relation's attributes."""

    schema: Schema
    data: tuple[tuple[str, frozenset[Row]], ...]

    def __post_init__(self):
        names = [r for r, _ in self.data]
        if names != list(self.schema.names):
            raise DomainMismatch("instance must list exactly the schema relations, in order")
        for r, rows in self.data:
            expected = self.schema.attrs(r)
            for row in rows:
                if row.attrs != expected:
                    raise DomainMismatch(
                        f"tuple over {sorted(row.attrs)} does not fit {r}({sorted(expected)})"
                    )

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

    def as_dict(self) -> dict[str, frozenset[Row]]:
        return dict(self.data)

    def total_size(self) -> int:
        return sum(len(rows) for _, rows in self.data)

    def __hash__(self):
        return hash((self.schema, tuple((r, tuple(sorted(rows))) for r, rows in self.data)))


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
        images = {row.project(attrs) for row in candidate.rows(r)}
        if any(row not in images for row in rows):
            return False
    return True


def instance_union(a: Instance, b: Instance) -> Instance:
    """Union instance over the union schema; shared relations must agree on attributes."""
    merged: dict[str, frozenset[str]] = dict(a.schema.rels)
    for r, attrs in b.schema.rels:
        if r in merged and merged[r] != attrs:
            raise AttributeMismatch(
                f"relation {r} has attributes {sorted(merged[r])} vs {sorted(attrs)}"
            )
        merged[r] = attrs
    schema = Schema.of(merged)
    data: dict[str, frozenset[Row]] = {}
    for r in schema.names:
        rows: frozenset[Row] = frozenset()
        if a.schema.defines(r):
            rows |= a.rows(r)
        if b.schema.defines(r):
            rows |= b.rows(r)
        data[r] = rows
    return Instance.of(schema, data)


def rename_values(i: Instance, renamed: Callable[[Value], bool], prefix: str) -> Instance:
    """Rename the values `renamed` picks to constants prefix0, prefix1, ... by
    first appearance over sorted rows, for comparison up to that renaming."""
    mapping: dict[Value, Value] = {}
    for rel in i.schema.names:
        for row in sorted(i.rows(rel)):
            for v in row.values_in_order():
                if v not in mapping and renamed(v):
                    mapping[v] = const(f"{prefix}{len(mapping)}")
    if not mapping:
        return i
    return Instance.of(
        i.schema,
        {
            rel: {Row(tuple((a, mapping.get(v, v)) for a, v in row.cells)) for row in i.rows(rel)}
            for rel in i.schema.names
        },
    )


def unnamed_view(t: Row, relation: str, s: Schema) -> tuple[Value, ...]:
    """Values of t listed in attribute order; t must span exactly s(relation)."""
    if t.attrs != s.attrs(relation):
        raise DomainMismatch(
            f"tuple over {sorted(t.attrs)} does not fit {relation}({sorted(s.attrs(relation))})"
        )
    return t.values_in_order()


def active_domain(i: Instance) -> frozenset[Value]:
    return frozenset(v for _, rows in i.data for row in rows for v in row.values_in_order())


def render_instance(i: Instance) -> str:
    """Canonical text: relations sorted by name, headers and rows in attribute order."""
    lines: list[str] = []
    for r, attrs in i.schema.rels:
        header = ", ".join(sorted(attrs))
        lines.append(f"{r}({header}):")
        rows = sorted(i.rows(r), key=lambda row: row.values_in_order())
        if not rows:
            lines.append("  (empty)")
        for row in rows:
            body = ", ".join(v.render() for v in row.values_in_order())
            lines.append(f"  ({body})")
    return "\n".join(lines)
