"""Queries, dependencies, and structure constraints.

Covers conjunctive queries with named atoms, total and filtered-total
queries, tuple- and equality-generating dependencies, and schema-level
structure requirements, together with compatibility, evaluation, and
satisfaction. Named atoms match by projection: an atom holds on a tuple
when the tuple agrees with it on the named attributes, whatever else the
tuple carries.

`join` is the workbench's single matcher: an iterative depth-first search
for a homomorphism from patterns into indexed rows (`RowIndex`). Query
evaluation and dependency checks here, the chase's body triggers and head
checks, and conditional-table membership all run on it, differing only in
how a row extends a partial match.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import DomainMismatch, Incompatible
from .model import Instance, Row, Schema, Value, first_appearance


@dataclass(frozen=True, order=True)
class Var:
    name: str


Term = Union[Var, Value]


@dataclass(frozen=True)
class NamedAtom:
    """Relation atom binding attribute names to variables or constants."""

    relation: str
    bindings: tuple[tuple[str, Term], ...]

    def __post_init__(self):
        attrs = [a for a, _ in self.bindings]
        if attrs != sorted(attrs) or len(set(attrs)) != len(attrs):
            raise DomainMismatch(f"atom attributes must be distinct and ordered: {attrs}")

    @staticmethod
    def of(relation: str, bindings: Mapping[str, Term]) -> "NamedAtom":
        return NamedAtom(relation, tuple(sorted(bindings.items())))

    @property
    def attrs(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.bindings)

    @property
    def vars(self) -> frozenset[Var]:
        return frozenset(t for _, t in self.bindings if isinstance(t, Var))


@dataclass(frozen=True)
class ConstantAtom:
    """Builtin test that a value is an ordinary constant, not a null marker."""

    variable: Var

    @property
    def vars(self) -> frozenset[Var]:
        return frozenset({self.variable})


Atom = Union[NamedAtom, ConstantAtom]


@dataclass(frozen=True)
class ConjunctiveQuery:
    """Existentially quantified conjunction of atoms with ordered free variables."""

    atoms: tuple[Atom, ...]
    free: tuple[Var, ...]
    existential: frozenset[Var]

    def __post_init__(self):
        free_set = set(self.free)
        if len(free_set) != len(self.free):
            raise DomainMismatch("free variables must be distinct")
        if free_set & self.existential:
            raise DomainMismatch("free and existential variables must be disjoint")
        occurring = frozenset(v for a in self.atoms for v in a.vars)
        listed = free_set | self.existential
        if occurring != listed:
            raise DomainMismatch(
                f"query variables {sorted(v.name for v in listed)} must be exactly "
                f"those occurring in atoms {sorted(v.name for v in occurring)}"
            )

    @property
    def vars(self) -> frozenset[Var]:
        return frozenset(self.free) | self.existential

    @property
    def is_boolean(self) -> bool:
        return not self.free


def cq(
    atoms: Iterable[Atom],
    free: Iterable[Var] = (),
    existential: Iterable[Var] = (),
) -> ConjunctiveQuery:
    return ConjunctiveQuery(tuple(atoms), tuple(free), frozenset(existential))


def boolean_cq(atoms: Iterable[Atom]) -> ConjunctiveQuery:
    atoms = tuple(atoms)
    return ConjunctiveQuery(atoms, (), frozenset(v for a in atoms for v in a.vars))


def cq_constants(q: ConjunctiveQuery) -> frozenset[Value]:
    """The constants the query's relation atoms mention."""
    return frozenset(
        t
        for a in q.atoms
        if isinstance(a, NamedAtom)
        for _, t in a.bindings
        if isinstance(t, Value)
    )


def open_cq(atoms: Iterable[Atom]) -> ConjunctiveQuery:
    """All occurring variables free, in name order."""
    atoms = tuple(atoms)
    seen = sorted({v for a in atoms for v in a.vars})
    return ConjunctiveQuery(atoms, tuple(seen), frozenset())


@dataclass(frozen=True)
class Comparison:
    lhs: str
    op: str
    rhs: Union[str, Value]

    def __post_init__(self):
        if self.op not in ("=", "!="):
            raise DomainMismatch(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class And:
    items: tuple["BooleanCondition", ...]


@dataclass(frozen=True)
class Or:
    items: tuple["BooleanCondition", ...]


@dataclass(frozen=True)
class Not:
    item: "BooleanCondition"


BooleanCondition = Union[Comparison, And, Or, Not]


def comparisons(c: BooleanCondition) -> Iterator[Comparison]:
    """The comparison leaves of a condition, left to right."""
    if isinstance(c, Comparison):
        yield c
    elif isinstance(c, (And, Or)):
        for item in c.items:
            yield from comparisons(item)
    else:
        yield from comparisons(c.item)


def condition_attrs(c: BooleanCondition) -> frozenset[str]:
    return frozenset(
        a for leaf in comparisons(c) for a in (leaf.lhs, leaf.rhs) if isinstance(a, str)
    )


def eval_condition(c: BooleanCondition, row: Row) -> bool:
    if isinstance(c, Comparison):
        lhs = row[c.lhs]
        rhs = row[c.rhs] if isinstance(c.rhs, str) else c.rhs
        return lhs == rhs if c.op == "=" else lhs != rhs
    if isinstance(c, And):
        return all(eval_condition(item, row) for item in c.items)
    if isinstance(c, Or):
        return any(eval_condition(item, row) for item in c.items)
    return not eval_condition(c.item, row)


@dataclass(frozen=True)
class TotalQuery:
    """All tuples of one relation, whatever its current attributes."""

    relation: str

    @property
    def relations(self) -> tuple[str, ...]:
        return (self.relation,)


@dataclass(frozen=True)
class FilteredTotalQuery:
    """All tuples of one relation whose cells satisfy a boolean condition."""

    relation: str
    condition: BooleanCondition

    @property
    def relations(self) -> tuple[str, ...]:
        return (self.relation,)


@dataclass(frozen=True)
class TotalConjQuery:
    """Cross product of the full contents of several relations, in listed order."""

    relations: tuple[str, ...]

    def __post_init__(self):
        if not self.relations:
            raise DomainMismatch("total conjunction needs at least one relation")
        if len(set(self.relations)) != len(self.relations):
            raise DomainMismatch("total conjunction relations must be distinct")


Query = Union[ConjunctiveQuery, TotalQuery, FilteredTotalQuery, TotalConjQuery]


@dataclass(frozen=True)
class Tgd:
    """Tuple-generating dependency: body holds implies head holds (fresh witnesses allowed)."""

    body: ConjunctiveQuery
    head: ConjunctiveQuery

    def __post_init__(self):
        if self.body.existential:
            raise DomainMismatch("dependency bodies quantify all variables universally")
        if not set(self.head.free) <= set(self.body.free):
            raise DomainMismatch("head free variables must occur in the body")


@dataclass(frozen=True)
class Egd:
    """Equality-generating dependency: body holds implies two variables coincide."""

    body: ConjunctiveQuery
    equated: tuple[Var, Var]

    def __post_init__(self):
        if self.body.existential:
            raise DomainMismatch("dependency bodies quantify all variables universally")
        if not set(self.equated) <= self.body.vars:
            raise DomainMismatch("equated variables must occur in the body")


@dataclass(frozen=True)
class StructureConstraint:
    """Schema requirement: relation present, optionally with given attributes."""

    relation: str
    attributes: tuple[str, ...] | None

    def __post_init__(self):
        if self.attributes is not None:
            attrs = list(self.attributes)
            if attrs != sorted(attrs) or len(set(attrs)) != len(attrs):
                raise DomainMismatch(f"attributes must be distinct and ordered: {attrs}")

    @staticmethod
    def of(relation: str, attributes: Iterable[str] | None = None) -> "StructureConstraint":
        if attributes is None:
            return StructureConstraint(relation, None)
        return StructureConstraint(relation, tuple(sorted(attributes)))

    @property
    def is_wildcard(self) -> bool:
        return self.attributes is None


Constraint = Union[Tgd, Egd, StructureConstraint]


def is_compatible(obj: Union[Query, Tgd, Egd, Atom], s: Schema) -> bool:
    """True iff every relation atom fits inside the schema's attribute sets."""
    if isinstance(obj, NamedAtom):
        return s.defines(obj.relation) and obj.attrs <= s.attrs(obj.relation)
    if isinstance(obj, ConstantAtom):
        return True
    if isinstance(obj, ConjunctiveQuery):
        return all(is_compatible(a, s) for a in obj.atoms)
    if isinstance(obj, (TotalQuery, TotalConjQuery)):
        return all(s.defines(r) for r in obj.relations)
    if isinstance(obj, FilteredTotalQuery):
        return s.defines(obj.relation) and condition_attrs(obj.condition) <= s.attrs(
            obj.relation
        )
    if isinstance(obj, Tgd):
        return is_compatible(obj.body, s) and is_compatible(obj.head, s)
    if isinstance(obj, Egd):
        return is_compatible(obj.body, s)
    raise TypeError(f"cannot check compatibility of {type(obj).__name__}")


def demanded_attrs(
    items: Iterable[Union[Query, Constraint]], need: dict[str, set[str]]
) -> dict[str, set[str]]:
    """Add to `need`, per relation, the attributes that the relation atoms of
    queries and dependencies, the structure constraints and the conditions
    of filtered queries name; return it. A total-type query adds each of its
    relations, with no attribute of its own."""
    for c in items:
        if isinstance(c, StructureConstraint):
            need.setdefault(c.relation, set()).update(c.attributes or ())
            continue
        if isinstance(c, (TotalQuery, FilteredTotalQuery, TotalConjQuery)):
            for rel in c.relations:
                need.setdefault(rel, set())
            if isinstance(c, FilteredTotalQuery):
                need[c.relation].update(condition_attrs(c.condition))
            continue
        body = c.body if isinstance(c, (Tgd, Egd)) else c
        for q in (body, c.head) if isinstance(c, Tgd) else (body,):
            for a in q.atoms:
                if isinstance(a, NamedAtom):
                    need.setdefault(a.relation, set()).update(a.attrs)
    return need


class RowIndex:
    """Rows per relation, with hash indexes on pinned attributes built lazily.

    With `paired`, an entry is a (row, payload) pair, as in a conditional
    table; otherwise it is the row itself. The index on (relation, attrs)
    maps the cells a row carries on attrs to its entries, in entry order.
    """

    __slots__ = ("entries", "paired", "_indexes")

    def __init__(self, entries: Mapping[str, Iterable], paired: bool = False):
        self.entries = dict(entries)
        self.paired = paired
        self._indexes: dict[tuple[str, tuple[str, ...]], dict] = {}

    def _key(self, entry, attrs: tuple[str, ...]) -> tuple:
        row = entry[0] if self.paired else entry
        return tuple(row[a] for a in attrs)

    def candidates(self, relation: str, attrs: tuple[str, ...], key: tuple):
        """The entries whose row carries key on attrs; every entry when attrs is empty."""
        if not attrs:
            return self.entries[relation]
        index = self._indexes.get((relation, attrs))
        if index is None:
            index = self._indexes[(relation, attrs)] = {}
            for entry in self.entries[relation]:
                index.setdefault(self._key(entry, attrs), []).append(entry)
        return index.get(key, ())

    def add(self, relation: str, entry) -> None:
        """Append an entry to a relation held as a list, keeping built indexes in step."""
        self.entries[relation].append(entry)
        for (rel, attrs), index in self._indexes.items():
            if rel == relation:
                index.setdefault(self._key(entry, attrs), []).append(entry)


# relations this small are scanned: hashing a probe key costs more than the scan
SCAN_BELOW = 8
_SKIP = object()


def join(
    patterns: Sequence[tuple[str, tuple[tuple[str, object], ...]]],
    rows: RowIndex,
    init: dict,
    *,
    extend: Callable | None = None,
    accept: Callable | None = None,
    skip: Callable | None = None,
    pinnable: Callable | None = None,
) -> Iterator[dict]:
    """Every state reached from init by matching each pattern to one entry.

    Depth first, on an explicit stack. A pattern is (relation, bindings);
    a bound term is a constant if it is a Value, else a variable. States
    map variables to cells and are never mutated once built. A probe pins
    the attributes bound to a constant or a bound variable, unless
    `pinnable(relation, attr, value)` says no. An entry extends a state by
    strict unification, or by `extend(state, k, entry)`, which returns the
    new state or None; `accept(state, k, entry)` may veto the result. When
    pattern k's candidates run out, `skip(state, k)` lets the search pass
    pattern k unmatched.
    """
    if not patterns:
        yield init
        return
    last = len(patterns) - 1
    paired = rows.paired

    def candidates(k: int, state: dict) -> Iterator:
        relation, bindings = patterns[k]
        found = rows.entries[relation]
        if len(found) >= SCAN_BELOW:
            attrs, key = [], []
            for attr, term in bindings:
                value = term if isinstance(term, Value) else state.get(term)
                if value is not None and (pinnable is None or pinnable(relation, attr, value)):
                    attrs.append(attr)
                    key.append(value)
            found = rows.candidates(relation, tuple(attrs), tuple(key))
        return iter(found) if skip is None else chain(found, (_SKIP,))

    stack = [(candidates(0, init), init)]
    while stack:
        entries, state = stack[-1]
        k = len(stack) - 1
        bindings = patterns[k][1]
        for entry in entries:
            if entry is _SKIP:
                if not skip(state, k):
                    continue
                new = state
            else:
                if extend is not None:
                    new = extend(state, k, entry)
                else:
                    new = state
                    row = entry[0] if paired else entry
                    for attr, term in bindings:
                        cell = row[attr]
                        if isinstance(term, Value):
                            if cell != term:
                                new = None
                                break
                        else:
                            bound = new.get(term)
                            if bound is None:
                                if new is state:
                                    new = dict(state)
                                new[term] = cell
                            elif bound != cell:
                                new = None
                                break
                if new is None or (accept is not None and not accept(new, k, entry)):
                    continue
            if k == last:
                yield dict(new) if new is state else new
            else:
                stack.append((candidates(k + 1, new), new))
                break
        else:
            stack.pop()


def homomorphisms(
    atoms: Iterable[NamedAtom],
    i: Instance,
    init: Mapping[Var, Value] | None = None,
    *,
    rows: RowIndex | None = None,
) -> Iterator[dict[Var, Value]]:
    """All assignments matching every atom against some tuple, by projection.

    rows, when given, indexes i and is shared across calls on i.
    """
    order = sorted(atoms, key=lambda a: len(i.rows(a.relation)))
    yield from join(
        [(a.relation, a.bindings) for a in order],
        rows if rows is not None else RowIndex(i.data),
        dict(init or {}),
    )


def evaluate_query(q: Query, i: Instance) -> frozenset[tuple[Value, ...]]:
    """Answer set as unnamed value tuples; raises Incompatible on schema mismatch."""
    if not is_compatible(q, i.schema):
        raise Incompatible(f"query is not compatible with schema {i.schema.names}")
    if isinstance(q, ConjunctiveQuery):
        return frozenset(
            tuple(h[v] for v in q.free) for h in _assignments(q, i, RowIndex(i.data))
        )
    if isinstance(q, TotalQuery):
        return frozenset(row.values_in_order() for row in i.rows(q.relation))
    if isinstance(q, FilteredTotalQuery):
        return frozenset(
            row.values_in_order()
            for row in i.rows(q.relation)
            if eval_condition(q.condition, row)
        )
    if isinstance(q, TotalConjQuery):
        answers: set[tuple[Value, ...]] = {()}
        for r in q.relations:
            answers = {
                prefix + row.values_in_order()
                for prefix in answers
                for row in i.rows(r)
            }
        return frozenset(answers)
    raise TypeError(f"cannot evaluate {type(q).__name__}")


def _assignments(
    q: ConjunctiveQuery, i: Instance, rows: RowIndex, init: Mapping[Var, Value] | None = None
) -> Iterator[dict[Var, Value]]:
    """The assignments extending init that match q's relation atoms against
    rows of i and send each variable of a constant atom to a constant.

    Raises Incompatible when a variable is neither in init nor in a
    relation atom."""
    named = [a for a in q.atoms if isinstance(a, NamedAtom)]
    loose = q.vars - frozenset(init or ()) - frozenset(v for a in named for v in a.vars)
    if loose:
        raise Incompatible(f"variables {sorted(v.name for v in loose)} occur in no relation atom")
    constant = [a.variable for a in q.atoms if isinstance(a, ConstantAtom)]
    for h in homomorphisms(named, i, init, rows=rows):
        if all(h[v].is_constant for v in constant):
            yield h


def structure_holds(c: StructureConstraint, s: Schema) -> bool:
    if not s.defines(c.relation):
        return False
    return c.is_wildcard or set(c.attributes) <= s.attrs(c.relation)


def satisfies(c: Constraint, i: Instance, s: Schema | None = None) -> bool:
    """Constraint satisfaction; structure constraints read the schema only."""
    s = s if s is not None else i.schema
    if isinstance(c, StructureConstraint):
        return structure_holds(c, s)
    if not is_compatible(c, s):
        raise Incompatible(
            f"dependency references relations or attributes outside {s.names}"
        )
    rows = RowIndex(i.data)
    if isinstance(c, Tgd):
        head_vars = c.head.vars
        return all(
            any(True for _ in _assignments(c.head, i, rows, {v: tau[v] for v in head_vars if v in tau}))
            for tau in _assignments(c.body, i, rows)
        )
    if isinstance(c, Egd):
        x, y = c.equated
        return all(tau[x] == tau[y] for tau in _assignments(c.body, i, rows))
    raise TypeError(f"cannot check satisfaction of {type(c).__name__}")


def _term_shape(t: Term) -> tuple:
    return ("var",) if isinstance(t, Var) else ("val", t.kind, t.token)


def _atom_sort_key(a: Atom) -> tuple:
    if isinstance(a, ConstantAtom):
        return ("nonnull", "", ())
    return (
        "named",
        a.relation,
        tuple((attr, _term_shape(t)) for attr, t in a.bindings),
    )


def canonicalize_cq(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Structural normal form: atoms sorted, variables renamed by first occurrence."""
    atoms = sorted(q.atoms, key=_atom_sort_key)
    terms = (
        term
        for a in atoms
        for term in ((a.variable,) if isinstance(a, ConstantAtom) else (t for _, t in a.bindings))
    )
    rename = first_appearance(terms, lambda t: isinstance(t, Var), lambda k: Var(f"v{k:03d}"))
    new_atoms = [
        ConstantAtom(rename[a.variable])
        if isinstance(a, ConstantAtom)
        else NamedAtom(a.relation, tuple((attr, rename.get(t, t)) for attr, t in a.bindings))
        for a in atoms
    ]
    free = tuple(sorted((rename[v] for v in q.free), key=lambda v: v.name))
    existential = frozenset(rename[v] for v in q.existential)
    return ConjunctiveQuery(tuple(new_atoms), free, existential)
