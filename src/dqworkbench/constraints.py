"""Queries, dependencies, and structure constraints.

Covers conjunctive queries with named atoms, one total query (whole
tuples of one or more relations, filtered or not), tuple- and
equality-generating dependencies, and schema-level structure
requirements, together with compatibility, evaluation, and satisfaction.
Named atoms match by projection: an atom holds on a tuple when the tuple
agrees with it on the named attributes, whatever else the tuple carries.

`Plan` is the workbench's single matcher: patterns compiled against
row layouts, run as an iterative depth-first search for a homomorphism into
indexed rows (`RowIndex`) on one state with a binding trail. Query
evaluation and dependency checks here, the chase's body triggers and head
checks, and conditional-table membership all run on it. A full tgd's head
is not matched: `demanded_rows` lists the rows its body's matches demand
and `holds_rows` tests their containment, for `satisfies` and for the
outcome clauses of `procedures`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

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

    def layout(self, relation: str) -> tuple[str, ...] | None:
        """The `attrs` of the relation's rows, off its first entry; None when it has none."""
        for entry in self.entries[relation]:
            return (entry[0] if self.paired else entry).attrs
        return None

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
# the state key under which a plan records the equalities a match needs
EQUALITIES = "="
_SKIP = object()


class Plan:
    """Patterns compiled against row layouts: per pattern (relation,
    bindings), its relation and each bound term paired with its position in
    the rows' `attrs`, in attribute order."""

    __slots__ = ("levels",)

    def __init__(self, patterns: Iterable, layouts: Iterable[tuple[str, ...]]):
        self.levels = [
            (relation, tuple([(positions(layout)[attr], term) for attr, term in bindings]))
            for (relation, bindings), layout in zip(patterns, layouts)
        ]

    def run(
        self, rows: RowIndex, init: dict, accept: Callable | None = None, skip: Callable | None = None
    ) -> Iterator[dict]:
        """Every state reached from init by matching each pattern to one entry.

        Depth first, on an explicit stack, with one state dict. A bound term
        is a constant if it is a Value, else a variable. A state maps each
        variable to its cell, holds under EQUALITIES the tuple of (null,
        other) equalities the match needs, if any, and, for a paired index,
        holds under each matched position k its entry's payload.

        A term matches a cell equal to its constant or to its variable's
        cell. Where the two differ but one is a labeled null, the match
        holds under their equality, which the state records. A probe pins
        an attribute only to a Value, and only on a column without labeled
        nulls (`RowIndex.nullable`, empty for an instance).

        The state is live: each level writes its variables, its payload and
        the grown EQUALITIES, and a trail undoes them when the search leaves
        the level. `accept(state, k, entry)`, which may veto a match of
        pattern k, `skip(state, k)`, which lets the search pass pattern k
        unmatched once its candidates run out, and the caller of each
        yielded state see that live state and must only read it; a caller
        keeps a state past its next step of the search by copying it.
        """
        levels, paired, nullable = self.levels, rows.paired, rows.nullable
        state = dict(init)
        if not levels:
            yield state
            return
        last = len(levels) - 1
        # per level, None or what it wrote (see `_unify`)
        trail: list = [None] * len(levels)

        def candidates(k: int) -> Iterator:
            relation, slots = levels[k]
            found = rows.entries[relation]
            if len(found) >= SCAN_BELOW:
                pinned, key = [], []
                for pos, term in slots:
                    value = term if term.__class__ is Value else state.get(term)
                    if value.__class__ is Value and (relation, pos) not in nullable:
                        pinned.append(pos)
                        key.append(value)
                found = rows.candidates(relation, tuple(pinned), tuple(key))
            return iter(found) if skip is None else chain(found, (_SKIP,))

        def undo(k: int) -> None:
            bound, old = trail[k]
            trail[k] = None
            for var in bound:
                del state[var]
            if paired:
                del state[k]
            if old is None:
                del state[EQUALITIES]
            elif old:
                state[EQUALITIES] = old

        stack = [candidates(0)]
        while stack:
            k = len(stack) - 1
            if trail[k] is not None:
                undo(k)
            slots = levels[k][1]
            for entry in stack[k]:
                if entry is _SKIP:
                    if not skip(state, k):
                        continue
                else:
                    trail[k] = _unify(slots, (entry[0] if paired else entry).values, state)
                    if trail[k] is None:
                        continue
                    if paired:
                        state[k] = entry[1]
                    if accept is not None and not accept(state, k, entry):
                        undo(k)
                        continue
                if k == last:
                    yield state
                    if trail[k] is not None:
                        undo(k)
                    continue
                stack.append(candidates(k + 1))
                break
            else:
                stack.pop()


def _unify(slots: tuple, values: tuple, state: dict) -> tuple | None:
    """Match one row's cells to a level's (position, term) slots, binding
    each unbound variable and growing EQUALITIES where a labeled null meets
    a different cell. Returns what it wrote: the variables it bound and the
    EQUALITIES it replaced (None if absent, False if untouched); None, with
    nothing written, when two values differ."""
    bound_here = []
    eqs = ()
    for pos, term in slots:
        cell = values[pos]
        if term.__class__ is Value:
            bound = term
        else:
            bound = state.get(term)
            if bound is None:
                state[term] = cell
                bound_here.append(term)
                continue
        if bound == cell:
            continue
        if bound.__class__ is LabeledNull:
            eqs += ((bound, cell),)
        elif cell.__class__ is LabeledNull:
            eqs += ((cell, bound),)
        else:
            for var in bound_here:
                del state[var]
            return None
    if not eqs:
        return bound_here, False
    old = state.get(EQUALITIES)
    state[EQUALITIES] = (old or ()) + eqs
    return bound_here, old


# no command calls it, but `bench/tracing.py` counts it by name, so it stays here and not in the tests
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
    atoms = tuple(atoms)
    compiled = _Compiled(cq(atoms, existential={v for a in atoms for v in a.vars}), i.schema, frozenset())
    for state in compiled.assignments(rows if rows is not None else RowIndex(i.data), dict(init or {})):
        yield dict(state)


class _Compiled:
    """A conjunctive query compiled against one schema, with `bound` bound on
    entry: its compatibility, the error a variable outside every relation
    atom raises, the variables of its constant atoms, and one plan per order
    of its relation atoms, fewest rows first, compiled on first use."""

    __slots__ = ("compatible", "loose", "constant", "atoms", "layouts", "bound", "plans")

    def __init__(self, q: ConjunctiveQuery, s: Schema, bound: frozenset):
        self.compatible = is_compatible(q, s)
        self.atoms = [a for a in q.atoms if isinstance(a, NamedAtom)]
        loose = q.vars - bound - frozenset(v for a in self.atoms for v in a.vars)
        self.loose = f"variables {sorted(v.name for v in loose)} occur in no relation atom" if loose else None
        self.constant = tuple(a.variable for a in q.atoms if isinstance(a, ConstantAtom))
        self.layouts = [s.layout(a.relation) for a in self.atoms] if self.compatible else None
        self.bound = bound
        self.plans: dict[tuple[int, ...], Plan] = {}

    def assignments(self, rows: RowIndex, init: dict) -> Iterator[dict]:
        """Live states (see `Plan.run`) extending init, which binds `bound`,
        that match the relation atoms against rows and send each variable of
        a constant atom to a constant. Raises Incompatible when a variable
        is neither bound nor in a relation atom."""
        if self.loose:
            raise Incompatible(self.loose)
        atoms, entries = self.atoms, rows.entries
        if len(atoms) > 1:
            order = tuple(sorted(range(len(atoms)), key=lambda k: len(entries[atoms[k].relation])))
        else:
            order = (0,)[: len(atoms)]
        plan = self.plans.get(order)
        if plan is None:
            plan = self.plans[order] = Plan(
                [(atoms[k].relation, atoms[k].bindings) for k in order], [self.layouts[k] for k in order]
            )
        if not self.constant:
            return plan.run(rows, init)
        return (h for h in plan.run(rows, init) if all(h[v].is_constant for v in self.constant))


@cache
def _compiled(c: Union[ConjunctiveQuery, Tgd, Egd], s: Schema):
    """c compiled against s, on first use: a query's `_Compiled`, or a
    dependency's body, carrying the dependency's compatibility, and head. An
    egd has none. A full tgd's, with relation atoms only and no existential
    variable, is per atom its (relation, attributes), its rows' `attrs` and
    its terms in their order; any other is a `_Compiled` binding on entry
    the variables it shares with the body. Kept for the run."""
    if isinstance(c, ConjunctiveQuery):
        return _Compiled(c, s, frozenset())
    body = _Compiled(c.body, s, frozenset())
    body.compatible = is_compatible(c, s)
    if isinstance(c, Egd):
        return body, None
    if c.head.existential or not all(isinstance(a, NamedAtom) for a in c.head.atoms):
        return body, _Compiled(c.head, s, c.head.vars & c.body.vars)
    return body, tuple(
        ((a.relation, a.attrs), tuple([attr for attr, _ in a.bindings]), tuple([t for _, t in a.bindings]))
        for a in c.head.atoms
    )


def evaluate_query(q: Query, i: Instance) -> frozenset[tuple[Value, ...]]:
    """Answer set as unnamed value tuples; raises Incompatible on schema mismatch."""
    compiled = _compiled(q, i.schema) if isinstance(q, ConjunctiveQuery) else None
    if not (compiled.compatible if compiled else is_compatible(q, i.schema)):
        raise Incompatible(f"query is not compatible with schema {i.schema.names}")
    if compiled:
        free = q.free
        return frozenset(tuple([h[v] for v in free]) for h in compiled.assignments(RowIndex(i.data), {}))
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


def structure_holds(c: StructureConstraint, s: Schema) -> bool:
    if not s.defines(c.relation):
        return False
    return c.is_wildcard or set(c.attributes) <= s.attrs(c.relation)


def demanded_rows(d: Tgd, i: Instance) -> Iterator[tuple[tuple[str, frozenset[str]], tuple[Row, ...]]] | None:
    """None unless d is a full tgd. Otherwise what d demands of an instance, as
    pairs of a head atom's (relation, attributes) and rows over them: each
    atom's pair with no row first, since the instance must have them, then
    per match of d's body on i each atom's pair with the row the match sends
    through it. The body must read relations and attributes i has."""
    body, head = _compiled(d, i.schema)
    return _demands(head, body.assignments(RowIndex(i.data), {})) if head.__class__ is tuple else None


def _demands(head: tuple, matches: Iterator[dict]) -> Iterator:
    rows = ((key, (Row(attrs, tuple([tau.get(t, t) for t in terms])),))
            for tau in matches for key, attrs, terms in head)
    return chain(((key, ()) for key, *_ in head), rows)


def holds_rows(demands: Iterable[tuple[tuple[str, frozenset[str]], Iterable[Row]]], i: Instance) -> bool:
    """Whether i has each demand's relation and attributes and holds its rows there (`Instance.projected`)."""
    have: dict = {}
    for key, rows in demands:
        found = have[key] if key in have else have.setdefault(key, i.projected(*key))
        if found is None or not found.issuperset(rows):
            return False
    return True


def satisfies(c: Constraint, i: Instance) -> bool:
    """Constraint satisfaction. A structure constraint reads i's schema; a
    full tgd holds exactly when i holds the rows it demands (`demanded_rows`;
    Fagin, Kolaitis, Miller and Popa, TCS 2005), checked up to the first
    miss; any other tgd takes one head probe per body match."""
    if isinstance(c, StructureConstraint):
        return structure_holds(c, i.schema)
    if not isinstance(c, (Tgd, Egd)):
        raise TypeError(f"cannot check satisfaction of {type(c).__name__}")
    body, head = _compiled(c, i.schema)
    if not body.compatible:
        raise Incompatible(f"dependency references relations or attributes outside {i.schema.names}")
    rows = RowIndex(i.data)
    matches = body.assignments(rows, {})
    if head.__class__ is tuple:
        return holds_rows(_demands(head, matches), i)
    if head is None:
        x, y = c.equated
        return all(tau[x] == tau[y] for tau in matches)
    return all(next(head.assignments(rows, {v: tau[v] for v in head.bound}), None) is not None for tau in matches)
