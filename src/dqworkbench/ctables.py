"""Conditional instances: tables with labeled nulls and tuple conditions.

A table row is a `model.Row` whose cells may be labeled nulls as well as
values, paired with a condition over those nulls (Imielinski and Lipski,
JACM 1984). A condition is a conjunction of equalities between a null and
a cell, so every table is positive by construction: it has no inequality
and no disjunction. An `Instance` never holds a labeled null:
`apply_valuation` raises `PartialValuation` unless every null gets a value.

A conditional instance stands for the set of ordinary instances obtained
by substituting values for its labeled nulls, keeping the tuples whose
condition the substitution satisfies, and then optionally extending the
result with extra tuples, attributes, and relations (open-world reading).
A labeled null ranges over every value, null markers included, so an
image may hold a null marker wherever the table holds a labeled null.
The scoped variant restricts where extra tuples may appear.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from .constraints import Plan, RowIndex
from .errors import DomainMismatch, Meter, PartialValuation
from .model import (
    CONST,
    NULL,
    Cell,
    Distinct,
    Instance,
    LabeledNull,
    Row,
    Schema,
    Value,
    active_domain,
    canonical_names,
    check_relations,
    instance_extends,
    map_cells,
    schema_extends,
)

FRESH_PREFIX = "@fresh"
# valuations and match steps one membership search may try
REP_STEP_CAP = 2_000_000
# canonical valuations one minimal-member search may try
MINIMAL_VALUATION_CAP = 200_000


def cell_key(c: Cell) -> tuple:
    if isinstance(c, LabeledNull):
        return ("null", c.id, "")
    return ("value", c.kind, c.token)


class CondEq(NamedTuple):
    left: LabeledNull
    right: Cell


# A condition is a conjunction of equalities, each listed once, in order of
# first appearance; the empty conjunction is true.
Condition = tuple[CondEq, ...]
TRUE: Condition = ()


def cond_and(items: Iterable[Condition]) -> Condition:
    return tuple(dict.fromkeys(eq for c in items for eq in c))


def cond_eval(c: Condition, v: Mapping[LabeledNull, Value]) -> bool | None:
    """Three-valued evaluation: None when unassigned nulls leave it open."""
    result: bool | None = True
    for eq in c:
        left = v.get(eq.left)
        right = v.get(eq.right) if isinstance(eq.right, LabeledNull) else eq.right
        if left is None or right is None:
            result = None
        elif left != right:
            return False
    return result


def condition_satisfiable(c: Condition) -> bool:
    """Whether some valuation satisfies the condition: the equalities, closed
    under union-find, never equate two different constants."""
    parent: dict[tuple, tuple] = {}
    constant: dict[tuple, Value] = {}

    def find(k: tuple) -> tuple:
        parent.setdefault(k, k)
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for eq in c:
        left = cell_key(eq.left)
        right = cell_key(eq.right)
        if isinstance(eq.right, Value):
            constant.setdefault(find(right), eq.right)
        a, b = find(left), find(right)
        if a == b:
            continue
        ca, cb = constant.get(a), constant.get(b)
        if ca is not None and cb is not None and ca != cb:
            return False
        parent[a] = b
        if cb is None and ca is not None:
            constant[b] = ca
    return True


def condition_entails(stronger: Condition, weaker: Condition) -> bool:
    """Syntactic entailment: every equality of weaker is one of stronger's.
    False is always a safe answer."""
    return all(eq in stronger for eq in weaker)


def render_condition(c: Condition) -> str:
    return " and ".join(f"{eq.left.render()} = {eq.right.render()}" for eq in c)


def _cond_key(c: Condition) -> tuple:
    # true sorts before a single equality, and that before a conjunction:
    # the order text and JSON output list a row's conditions in
    keys = tuple(("1eq", cell_key(eq.left), cell_key(eq.right)) for eq in c)
    if len(keys) == 1:
        return keys[0]
    return ("3and", keys) if keys else ("0true",)


ConditionalRow = tuple[Row, Condition]


def _pair_key(pair: ConditionalRow) -> tuple:
    row, cond = pair
    return (tuple([cell_key(c) for c in row.values]), _cond_key(cond))


class ConditionalInstance(Distinct, namedtuple("ConditionalInstance", "schema data")):
    """Per relation, distinct (row, condition) pairs; `of` stores them in
    `_pair_key` order, the order the text and JSON renderings list."""

    __slots__ = ()

    def __new__(cls, schema: Schema, data: tuple[tuple[str, tuple[ConditionalRow, ...]], ...]):
        check_relations("table", schema, [(r, [row for row, _ in p]) for r, p in data])
        return tuple.__new__(cls, (schema, data))

    @staticmethod
    def of(
        schema: Schema,
        data: Mapping[str, Iterable[ConditionalRow]] | None = None,
    ) -> "ConditionalInstance":
        given = dict(data or {})
        for r in given:
            if not schema.defines(r):
                raise DomainMismatch(f"relation {r} is not in the schema")
        return ConditionalInstance(
            schema,
            tuple((r, tuple(sorted(dict.fromkeys(given.get(r, ())), key=_pair_key))) for r in schema.names),
        )

    @staticmethod
    def from_instance(i: Instance) -> "ConditionalInstance":
        return ConditionalInstance.of(
            i.schema,
            {
                r: [(row, TRUE) for row in i.rows(r)]
                for r in i.schema.names
            },
        )

    def rows(self, relation: str) -> tuple[ConditionalRow, ...]:
        for r, pairs in self.data:
            if r == relation:
                return pairs
        raise KeyError(relation)

    def nulls(self) -> frozenset[LabeledNull]:
        return frozenset(
            c for _, pairs in self.data for row, cond in pairs
            for c in itertools.chain(row.values, *cond) if isinstance(c, LabeledNull)
        )

    def constants(self) -> frozenset[Value]:
        return frozenset(
            c for _, pairs in self.data for row, cond in pairs
            for c in itertools.chain(row.values, *cond) if isinstance(c, Value)
        )

    def total_size(self) -> int:
        return sum(len(pairs) for _, pairs in self.data)


class ScopedConditionalInstance(NamedTuple):
    """Table plus the relation names where members may carry extra tuples."""

    table: ConditionalInstance
    rel: frozenset[str]


Valuation = Mapping[LabeledNull, Value]


def apply_valuation(t: ConditionalInstance, v: Valuation) -> Instance:
    """Substitute nulls and keep the tuples whose condition the valuation satisfies."""
    missing = t.nulls() - frozenset(v)
    if missing:
        raise PartialValuation(
            f"valuation misses nulls {sorted(n.id for n in missing)}"
        )
    data = {rel: {map_cells(r, v) for r, c in pairs if cond_eval(c, v) is True} for rel, pairs in t.data}
    return Instance.built(t.schema, data)


def _fresh_values(count: int, taken: frozenset[Value], kind: str = CONST) -> list[Value]:
    out: list[Value] = []
    j = 0
    while len(out) < count:
        v = Value(kind, f"{FRESH_PREFIX}{j}")
        if v not in taken:
            out.append(v)
        j += 1
    return out


def fresh_null_valuation(
    t: ConditionalInstance, avoid: frozenset[Value] = frozenset()
) -> dict[LabeledNull, Value]:
    """Send each labeled null to its own null marker, outside the table's
    values and avoid."""
    nulls = sorted(t.nulls())
    return dict(zip(nulls, _fresh_values(len(nulls), t.constants() | avoid, NULL)))


def _rep_witness(
    t: ConditionalInstance,
    i: Instance,
    rel_scope: frozenset[str] | None,
) -> dict[LabeledNull, Value] | None:
    """Search for a valuation showing i sits above t; None when there is none.

    Each table tuple is a pattern over i's indexed rows, with its nulls as
    variables, so i may live over an extending schema. A match that
    falsifies a tuple's condition is pruned, and a tuple whose condition
    the partial valuation leaves open may go unmatched. The final
    verification is authoritative: a candidate valuation survives only if
    its image sits inside i and, for relations outside rel_scope, accounts
    for every row of i exactly.
    """
    if not schema_extends(i.schema, t.schema):
        return None
    pairs: list[tuple[str, Row, Condition]] = [
        (rel, row, cond) for rel, rel_pairs in t.data for row, cond in rel_pairs
    ]
    meter = Meter(REP_STEP_CAP, "membership search", "steps")

    def verify(v: dict[LabeledNull, Value]) -> bool:
        image = apply_valuation(t, v)
        if not instance_extends(i, image):
            return False
        if rel_scope is not None:
            for rel in t.schema.names:
                if rel in rel_scope:
                    continue
                attrs = t.schema.attrs(rel)
                projected = {w.project(attrs) for w in i.rows(rel)}
                if projected != set(image.rows(rel)):
                    return False
        return True

    nulls = t.nulls()
    taken = frozenset(active_domain(i)) | t.constants()
    pool_base = sorted(taken)

    def complete_and_check(v: dict[LabeledNull, Value]) -> dict[LabeledNull, Value] | None:
        remaining = sorted(nulls - frozenset(v))
        pool = pool_base + _fresh_values(len(remaining), taken)
        for combo in itertools.product(pool, repeat=len(remaining)):
            full = v | dict(zip(remaining, combo))
            meter.tick()
            if verify(full):
                return full
        return None

    def consistent(v: dict[LabeledNull, Value], k: int, target: Row) -> bool:
        meter.tick()
        return cond_eval(pairs[k][2], v) is not False

    def may_drop(v: dict[LabeledNull, Value], k: int) -> bool:
        meter.tick()
        cond = pairs[k][2]
        return bool(cond) and cond_eval(cond, v) is not True

    plan = Plan(
        [(rel, tuple(zip(row.attrs, row.values))) for rel, row, _ in pairs],
        [i.schema.layout(rel) for rel, _, _ in pairs],
    )
    for v in plan.run(RowIndex(i.data), {}, accept=consistent, skip=may_drop):
        found = complete_and_check(v)
        if found is not None:
            return found
    return None


def rep_contains(
    t: Union[ConditionalInstance, ScopedConditionalInstance], i: Instance
) -> bool:
    """Membership of i in the set of instances the table represents.

    For an unscoped table the set is upward closed: i is in when some
    valuation image sits inside i, and then so is every instance i sits
    inside. A scoped table is not: its relations outside the scope must
    match exactly.
    """
    if isinstance(t, ScopedConditionalInstance):
        return _rep_witness(t.table, i, t.rel) is not None
    return _rep_witness(t, i, None) is not None


def _set_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for k in range(len(partition)):
            yield partition[:k] + [[first] + partition[k]] + partition[k + 1 :]
        yield [[first]] + partition


def _canonical_valuations(
    t: ConditionalInstance, constants: frozenset[Value]
) -> Iterator[dict[LabeledNull, Value]]:
    nulls = sorted(t.nulls())
    pool = sorted(t.constants() | constants)
    taken = frozenset(pool)
    meter = Meter(MINIMAL_VALUATION_CAP, "minimal-instance search", "valuations")
    for partition in _set_partitions(nulls):
        blocks = sorted(partition, key=lambda b: min(b))
        fresh = _fresh_values(len(blocks), taken)
        choices_per_block = [pool + [fresh[rank]] for rank in range(len(blocks))]
        for combo in itertools.product(*choices_per_block):
            chosen_constants = [v for v in combo if not v.token.startswith(FRESH_PREFIX)]
            if len(set(chosen_constants)) != len(chosen_constants):
                continue
            meter.tick()
            yield {n: value for block, value in zip(blocks, combo) for n in block}


def _strictly_dominated(t: ConditionalInstance, j: Instance) -> bool:
    """True when some valuation image is a strict subset of j's rows.

    A strict subset misses at least one row of j, so it suffices to search
    for an image inside j-minus-one-row, for each row in turn.
    """
    for rel in j.schema.names:
        for row in j.rows(rel):
            smaller = Instance.built(
                j.schema,
                {r: (j.rows(r) - {row} if r == rel else j.rows(r)) for r in j.schema.names},
            )
            if _rep_witness(t, smaller, None) is not None:
                return True
    return False


def enumerate_minimal(
    t: ConditionalInstance,
    constants: frozenset[Value] = frozenset(),
) -> frozenset[Instance]:
    """Canonical representatives of the minimal instances the table represents.

    Valuations are enumerated canonically: each way of grouping the nulls
    into equality classes, with each class either identified with one of the
    table's own values or of the given constants, or sent to a reserved
    fresh constant, named by `model.canonical_names`. The images that no
    other image strictly undercuts are the minimal ones; every represented
    instance extends one of them up to renaming of the constants outside
    that pool. More than MINIMAL_VALUATION_CAP valuations end in BudgetExceeded.
    """
    images: set[Instance] = set()
    for v in _canonical_valuations(t, constants):
        image = apply_valuation(t, v)
        names = canonical_names(
            ((rel, row.values, ()) for rel, rows in image.data for row in rows),
            lambda c: c.token.startswith(FRESH_PREFIX),
            lambda k: Value(CONST, f"{FRESH_PREFIX}{k}"),
        )
        images.add(Instance.built(t.schema, {rel: {map_cells(row, names) for row in rows} for rel, rows in image.data}))
    return frozenset(j for j in images if not _strictly_dominated(t, j))


def render_ctable(t: ConditionalInstance) -> str:
    """Canonical text: nulls as ?name, a trailing | condition when not trivially true."""
    lines: list[str] = []
    for rel, pairs in t.data:
        lines.append(f"{rel}({', '.join(t.schema.layout(rel))}):")
        if not pairs:
            lines.append("  (empty)")
        for row, cond in pairs:
            body = ", ".join([c.render() for c in row.values])
            lines.append(f"  ({body}) | {render_condition(cond)}" if cond else f"  ({body})")
    return "\n".join(lines)
