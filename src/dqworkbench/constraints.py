"""Queries, dependencies, and structure constraints.

Covers conjunctive queries with named atoms, one total query (whole
tuples of one or more relations, filtered or not), tuple- and
equality-generating dependencies, and schema-level structure
requirements, together with compatibility, evaluation, and satisfaction.
Named atoms match by projection: an atom holds on a tuple when the tuple
agrees with it on the named attributes, whatever else the tuple carries.

`join` is the workbench's single matcher: an iterative depth-first search
for a homomorphism from patterns into indexed rows (`RowIndex`). Query
evaluation and dependency checks here, the chase's body triggers and head
checks, and conditional-table membership all run on it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import DomainMismatch, Incompatible
from .model import Distinct, Instance, LabeledNull, Row, Schema, Value, positions


class Var(NamedTuple):
    """A query variable; a one-item tuple, so it hashes, compares and orders in C."""

    name: str


Term = Union[Var, Value]


class NamedAtom(Distinct, namedtuple("NamedAtom", "relation bindings")):
    """Relation atom binding attribute names to variables or constants."""

    __slots__ = ()

    def __new__(cls, relation: str, bindings: tuple[tuple[str, Term], ...]):
        attrs = [a for a, _ in bindings]
        if attrs != sorted(attrs) or len(set(attrs)) != len(attrs):
            raise DomainMismatch(f"atom attributes must be distinct and ordered: {attrs}")
        return tuple.__new__(cls, (relation, bindings))

    @staticmethod
    def of(relation: str, bindings: Mapping[str, Term]) -> "NamedAtom":
        return NamedAtom(relation, tuple(sorted(bindings.items())))

    @property
    def attrs(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.bindings)

    @property
    def vars(self) -> frozenset[Var]:
        return frozenset(t for _, t in self.bindings if isinstance(t, Var))


class ConstantAtom(NamedTuple):
    """Builtin test that a value is an ordinary constant, not a null marker."""

    variable: Var

    @property
    def vars(self) -> frozenset[Var]:
        return frozenset({self.variable})


Atom = Union[NamedAtom, ConstantAtom]


class ConjunctiveQuery(Distinct, namedtuple("ConjunctiveQuery", "atoms free existential")):
    """Existentially quantified conjunction of atoms with ordered free variables."""

    __slots__ = ()

    def __new__(cls, atoms: tuple[Atom, ...], free: tuple[Var, ...], existential: frozenset[Var]):
        free_set = set(free)
        if len(free_set) != len(free):
            raise DomainMismatch("free variables must be distinct")
        if free_set & existential:
            raise DomainMismatch("free and existential variables must be disjoint")
        occurring = frozenset(v for a in atoms for v in a.vars)
        listed = free_set | existential
        if occurring != listed:
            raise DomainMismatch(
                f"query variables {sorted(v.name for v in listed)} must be exactly "
                f"those occurring in atoms {sorted(v.name for v in occurring)}"
            )
        return tuple.__new__(cls, (atoms, free, existential))

    @property
    def vars(self) -> frozenset[Var]:
        return frozenset(self.free) | self.existential


def cq(
    atoms: Iterable[Atom],
    free: Iterable[Var] = (),
    existential: Iterable[Var] = (),
) -> ConjunctiveQuery:
    return ConjunctiveQuery(tuple(atoms), tuple(free), frozenset(existential))


def cq_constants(q: ConjunctiveQuery) -> frozenset[Value]:
    """The constants the query's relation atoms mention."""
    return frozenset(
        t
        for a in q.atoms
        if isinstance(a, NamedAtom)
        for _, t in a.bindings
        if isinstance(t, Value)
    )


class Comparison(Distinct, namedtuple("Comparison", "lhs op rhs")):
    __slots__ = ()

    def __new__(cls, lhs: str, op: str, rhs: Union[str, Value]):
        if op not in ("=", "!="):
            raise DomainMismatch(f"unknown comparison operator {op!r}")
        return tuple.__new__(cls, (lhs, op, rhs))


class And(Distinct, namedtuple("And", "items")):
    __slots__ = ()


class Or(Distinct, namedtuple("Or", "items")):
    __slots__ = ()


class Not(Distinct, namedtuple("Not", "item")):
    __slots__ = ()


# `And` and `Or` hold a tuple of conditions as `items`, `Not` one as `item`
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
        lhs = row.cell(c.lhs)
        rhs = row.cell(c.rhs) if isinstance(c.rhs, str) else c.rhs
        return lhs == rhs if c.op == "=" else lhs != rhs
    if isinstance(c, And):
        return all(eval_condition(item, row) for item in c.items)
    if isinstance(c, Or):
        return any(eval_condition(item, row) for item in c.items)
    return not eval_condition(c.item, row)


class TotalQuery(Distinct, namedtuple("TotalQuery", "relations condition")):
    """Cross product of the whole tuples of the listed relations, in listed
    order. A condition keeps only the tuples that satisfy it, and needs
    exactly one relation."""

    __slots__ = ()

    def __new__(cls, relations: tuple[str, ...], condition: BooleanCondition | None = None):
        if isinstance(relations, str):
            raise DomainMismatch(f"total query relations must be a tuple, got {relations!r}")
        if not relations:
            raise DomainMismatch("total query needs at least one relation")
        if len(set(relations)) != len(relations):
            raise DomainMismatch("total query relations must be distinct")
        if condition is not None and len(relations) != 1:
            raise DomainMismatch("a filtered total query reads exactly one relation")
        return tuple.__new__(cls, (relations, condition))


Query = Union[ConjunctiveQuery, TotalQuery]


class Tgd(Distinct, namedtuple("Tgd", "body head")):
    """Tuple-generating dependency: body holds implies head holds (fresh witnesses allowed)."""

    __slots__ = ()

    def __new__(cls, body: ConjunctiveQuery, head: ConjunctiveQuery):
        if body.existential:
            raise DomainMismatch("dependency bodies quantify all variables universally")
        if not set(head.free) <= set(body.free):
            raise DomainMismatch("head free variables must occur in the body")
        return tuple.__new__(cls, (body, head))


class Egd(Distinct, namedtuple("Egd", "body equated")):
    """Equality-generating dependency: body holds implies two variables coincide."""

    __slots__ = ()

    def __new__(cls, body: ConjunctiveQuery, equated: tuple[Var, Var]):
        if body.existential:
            raise DomainMismatch("dependency bodies quantify all variables universally")
        if not set(equated) <= body.vars:
            raise DomainMismatch("equated variables must occur in the body")
        return tuple.__new__(cls, (body, equated))


class StructureConstraint(Distinct, namedtuple("StructureConstraint", "relation attributes")):
    """Schema requirement: relation present, optionally with given attributes."""

    __slots__ = ()

    def __new__(cls, relation: str, attributes: tuple[str, ...] | None):
        if attributes is not None:
            attrs = list(attributes)
            if attrs != sorted(attrs) or len(set(attrs)) != len(attrs):
                raise DomainMismatch(f"attributes must be distinct and ordered: {attrs}")
        return tuple.__new__(cls, (relation, attributes))

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
    if isinstance(obj, TotalQuery):
        return all(s.defines(r) for r in obj.relations) and (
            obj.condition is None or condition_attrs(obj.condition) <= s.attrs(obj.relations[0])
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
    of total queries name; return it. A total query adds each of its
    relations, with no attribute of its own."""
    for c in items:
        if isinstance(c, StructureConstraint):
            need.setdefault(c.relation, set()).update(c.attributes or ())
            continue
        if isinstance(c, TotalQuery):
            for rel in c.relations:
                need.setdefault(rel, set())
            if c.condition is not None:
                need[c.relations[0]].update(condition_attrs(c.condition))
            continue
        body = c.body if isinstance(c, (Tgd, Egd)) else c
        for q in (body, c.head) if isinstance(c, Tgd) else (body,):
            for a in q.atoms:
                if isinstance(a, NamedAtom):
                    need.setdefault(a.relation, set()).update(a.attrs)
    return need


class RowIndex:
    """Rows per relation, with hash indexes on pinned positions built lazily.

    With `paired`, an entry is a (row, payload) pair, as in a conditional
    table; otherwise it is the row itself. The index on (relation, at) maps
    the cells a row carries at the positions `at` to its entries, in entry
    order. `nullable` holds the (relation, position) columns where some row
    carries a labeled null: a table's rows may, an instance's never do.
    """

    __slots__ = ("entries", "paired", "nullable", "_indexes")

    def __init__(self, entries: Mapping[str, Iterable], paired: bool = False):
        self.entries = dict(entries)
        self.paired = paired
        self.nullable: set[tuple[str, int]] = set()
        if paired:
            for relation, pairs in self.entries.items():
                for row, _ in pairs:
                    self._note_nulls(relation, row)
        self._indexes: dict[tuple[str, tuple[int, ...]], dict] = {}

    def _note_nulls(self, relation: str, row: Row) -> None:
        for k, cell in enumerate(row.values):
            if isinstance(cell, LabeledNull):
                self.nullable.add((relation, k))

    def _key(self, entry, at: tuple[int, ...]) -> tuple:
        values = (entry[0] if self.paired else entry).values
        return tuple([values[k] for k in at])

    def candidates(self, relation: str, at: tuple[int, ...], key: tuple):
        """The entries whose row carries key at positions `at`; every entry when `at` is empty."""
        if not at:
            return self.entries[relation]
        index = self._indexes.get((relation, at))
        if index is None:
            index = self._indexes[(relation, at)] = {}
            for entry in self.entries[relation]:
                index.setdefault(self._key(entry, at), []).append(entry)
        return index.get(key, ())

    def add(self, relation: str, entry) -> None:
        """Append an entry to a relation held as a list, keeping built indexes
        and `nullable` in step."""
        self.entries[relation].append(entry)
        if self.paired:
            self._note_nulls(relation, entry[0])
        for (rel, at), index in self._indexes.items():
            if rel == relation:
                index.setdefault(self._key(entry, at), []).append(entry)


# relations this small are scanned: hashing a probe key costs more than the scan
SCAN_BELOW = 8
# the state key under which `join` records the equalities a match needs
EQUALITIES = "="
_SKIP = object()


def join(
    patterns: Sequence[tuple[str, tuple[tuple[str, object], ...]]],
    rows: RowIndex,
    init: dict,
    *,
    accept: Callable | None = None,
    skip: Callable | None = None,
) -> Iterator[dict]:
    """Every state reached from init by matching each pattern to one entry.

    Depth first, on an explicit stack. A pattern is (relation, bindings);
    a bound term is a constant if it is a Value, else a variable, and its
    attribute is read by its position in the rows' `attrs`. A state
    maps each variable to its cell, holds under EQUALITIES the tuple of
    (null, other) equalities the match needs, if any, and, for a paired
    index, holds under each matched position k its entry's payload. States
    are never mutated once built.

    A term matches a cell equal to its constant or to its variable's cell.
    Where the two differ but one is a labeled null, the match holds under
    their equality, which the state records. A probe pins an attribute
    only to a Value, and only on a column without labeled nulls.
    `accept(state, k, entry)` may veto a match of pattern k. When pattern
    k's candidates run out, `skip(state, k)` lets the search pass pattern k
    unmatched.
    """
    if not patterns:
        yield init
        return
    last = len(patterns) - 1
    paired = rows.paired
    nullable = rows.nullable
    # pattern k's bindings as (position, term) pairs, once its relation has rows
    slots: list = [None] * len(patterns)

    def candidates(k: int, state: dict) -> Iterator:
        relation, bindings = patterns[k]
        found = rows.entries[relation]
        if found and slots[k] is None:
            first = next(iter(found))
            at = positions((first[0] if paired else first).attrs)
            slots[k] = tuple([(at[attr], term) for attr, term in bindings])
        if found and len(found) >= SCAN_BELOW:
            at, key = [], []
            for pos, term in slots[k]:
                value = term if isinstance(term, Value) else state.get(term)
                if isinstance(value, Value) and (relation, pos) not in nullable:
                    at.append(pos)
                    key.append(value)
            found = rows.candidates(relation, tuple(at), tuple(key))
        return iter(found) if skip is None else chain(found, (_SKIP,))

    stack = [(candidates(0, init), init)]
    while stack:
        entries, state = stack[-1]
        k = len(stack) - 1
        bindings = slots[k]
        for entry in entries:
            if entry is _SKIP:
                if not skip(state, k):
                    continue
                new = state
            else:
                new = state
                values = (entry[0] if paired else entry).values
                for pos, term in bindings:
                    cell = values[pos]
                    if isinstance(term, Value):
                        bound = term
                    else:
                        bound = new.get(term)
                        if bound is None:
                            if new is state:
                                new = dict(state)
                            new[term] = cell
                            continue
                    if bound == cell:
                        continue
                    if isinstance(bound, LabeledNull):
                        eq = (bound, cell)
                    elif isinstance(cell, LabeledNull):
                        eq = (cell, bound)
                    else:
                        new = None
                        break
                    if new is state:
                        new = dict(state)
                    new[EQUALITIES] = new.get(EQUALITIES, ()) + (eq,)
                if new is None:
                    continue
                if paired:
                    if new is state:
                        new = dict(state)
                    new[k] = entry[1]
                if accept is not None and not accept(new, k, entry):
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
        answers: set[tuple[Value, ...]] = {()}
        for r in q.relations:
            tuples = [
                row.values
                for row in i.rows(r)
                if q.condition is None or eval_condition(q.condition, row)
            ]
            answers = {prefix + values for prefix in answers for values in tuples}
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

