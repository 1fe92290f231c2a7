"""Conditional instances: tables with labeled nulls and tuple conditions.

A conditional instance stands for the set of ordinary instances obtained
by substituting constants for its labeled nulls, keeping the tuples whose
condition the substitution satisfies, and then optionally extending the
result with extra tuples, attributes, and relations (open-world reading).
The scoped variant restricts where extra tuples may appear.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from .constraints import RowIndex, join
from .errors import BudgetExceeded, DomainMismatch, NotPositive, PartialValuation
from .model import (
    CONST,
    Instance,
    Row,
    Schema,
    Value,
    active_domain,
    instance_extends,
    rename_values,
    schema_extends,
)

FRESH_PREFIX = "@fresh"


@dataclass(frozen=True, order=True)
class LabeledNull:
    id: str

    def render(self) -> str:
        return f"?{self.id}"


Cell = Union[Value, LabeledNull]


def cell_key(c: Cell) -> tuple:
    if isinstance(c, LabeledNull):
        return ("null", c.id, "")
    return ("value", c.kind, c.token)


@dataclass(frozen=True)
class TrueCond:
    def render(self) -> str:
        return "true"


TRUE = TrueCond()


@dataclass(frozen=True)
class CondEq:
    left: LabeledNull
    right: Cell

    def render(self) -> str:
        return f"{self.left.render()} = {self.right.render()}"


@dataclass(frozen=True)
class CondNeq:
    left: LabeledNull
    right: Cell

    def render(self) -> str:
        return f"{self.left.render()} != {self.right.render()}"


@dataclass(frozen=True)
class CondAnd:
    items: tuple["Condition", ...]

    def render(self) -> str:
        return " and ".join(
            f"({c.render()})" if isinstance(c, CondOr) else c.render()
            for c in self.items
        )


@dataclass(frozen=True)
class CondOr:
    items: tuple["Condition", ...]

    def render(self) -> str:
        return " or ".join(
            f"({c.render()})" if isinstance(c, CondAnd) else c.render()
            for c in self.items
        )


Condition = Union[TrueCond, CondEq, CondNeq, CondAnd, CondOr]


def cond_and(items: Iterable[Condition]) -> Condition:
    flat: list[Condition] = []
    for c in items:
        if isinstance(c, TrueCond):
            continue
        if isinstance(c, CondAnd):
            flat.extend(c.items)
        else:
            flat.append(c)
    deduped = []
    for c in flat:
        if c not in deduped:
            deduped.append(c)
    if not deduped:
        return TRUE
    if len(deduped) == 1:
        return deduped[0]
    return CondAnd(tuple(deduped))


def condition_nulls(c: Condition) -> tuple[LabeledNull, ...]:
    """The nulls a condition mentions, once each, in order of first appearance."""
    if isinstance(c, TrueCond):
        return ()
    if isinstance(c, (CondEq, CondNeq)):
        cells = (c.left, c.right)
    else:
        cells = (n for item in c.items for n in condition_nulls(item))
    return tuple(dict.fromkeys(n for n in cells if isinstance(n, LabeledNull)))


def condition_constants(c: Condition) -> frozenset[Value]:
    if isinstance(c, TrueCond):
        return frozenset()
    if isinstance(c, (CondEq, CondNeq)):
        return frozenset({c.right}) if isinstance(c.right, Value) else frozenset()
    return frozenset(v for item in c.items for v in condition_constants(item))


def condition_is_positive(c: Condition) -> bool:
    if isinstance(c, CondNeq):
        return False
    if isinstance(c, (CondAnd, CondOr)):
        return all(condition_is_positive(item) for item in c.items)
    return True


def cond_eval(c: Condition, v: Mapping[LabeledNull, Value]) -> bool | None:
    """Three-valued evaluation: None when unassigned nulls leave it open."""
    if isinstance(c, TrueCond):
        return True
    if isinstance(c, (CondEq, CondNeq)):
        left = v.get(c.left)
        right = v.get(c.right) if isinstance(c.right, LabeledNull) else c.right
        if left is None or right is None:
            return None
        return (left == right) if isinstance(c, CondEq) else (left != right)
    results = [cond_eval(item, v) for item in c.items]
    if isinstance(c, CondAnd):
        if any(r is False for r in results):
            return False
        if all(r is True for r in results):
            return True
        return None
    if any(r is True for r in results):
        return True
    if all(r is False for r in results):
        return False
    return None


def _dnf(c: Condition) -> list[list[CondEq]]:
    """Disjunctive normal form of a positive condition, as lists of equalities."""
    if isinstance(c, TrueCond):
        return [[]]
    if isinstance(c, CondEq):
        return [[c]]
    if isinstance(c, CondAnd):
        disjuncts = [[]]
        for item in c.items:
            disjuncts = [d + e for d in disjuncts for e in _dnf(item)]
        return disjuncts
    if isinstance(c, CondOr):
        return [d for item in c.items for d in _dnf(item)]
    raise NotPositive("condition uses an inequality")


def _equalities_consistent(literals: Iterable[CondEq]) -> bool:
    parent: dict[tuple, tuple] = {}
    constant: dict[tuple, Value] = {}

    def find(k: tuple) -> tuple:
        parent.setdefault(k, k)
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for lit in literals:
        left = cell_key(lit.left)
        right = cell_key(lit.right)
        if isinstance(lit.right, Value):
            constant.setdefault(find(right), lit.right)
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


def positive_condition_satisfiable(c: Condition) -> bool:
    """Whether some valuation satisfies a positive (inequality-free) condition."""
    if not condition_is_positive(c):
        raise NotPositive("satisfiability check requires a positive condition")
    return any(_equalities_consistent(d) for d in _dnf(c))


def condition_entails(stronger: Condition, weaker: Condition) -> bool:
    """Cheap syntactic entailment check; False is always a safe answer."""
    if isinstance(weaker, TrueCond):
        return True
    try:
        strong = _dnf(stronger)
        weak = _dnf(weaker)
    except NotPositive:
        return False
    if len(weak) != 1:
        return False
    needed = set(weak[0])
    return all(needed <= set(d) for d in strong)


def _cond_key(c: Condition) -> tuple:
    if isinstance(c, TrueCond):
        return ("0true",)
    if isinstance(c, CondEq):
        return ("1eq", cell_key(c.left), cell_key(c.right))
    if isinstance(c, CondNeq):
        return ("2neq", cell_key(c.left), cell_key(c.right))
    tag = "3and" if isinstance(c, CondAnd) else "4or"
    return (tag, tuple(_cond_key(item) for item in c.items))


@dataclass(frozen=True)
class CRow:
    """Named tuple over constants and labeled nulls, in attribute order."""

    cells: tuple[tuple[str, Cell], ...]

    def __post_init__(self):
        attrs = [a for a, _ in self.cells]
        if attrs != sorted(attrs) or len(set(attrs)) != len(attrs):
            raise DomainMismatch(f"row attributes must be distinct and ordered: {attrs}")

    @staticmethod
    def of(mapping: Mapping[str, Cell]) -> "CRow":
        return CRow(tuple(sorted(mapping.items())))

    def __getitem__(self, attr: str) -> Cell:
        for a, c in self.cells:
            if a == attr:
                return c
        raise KeyError(attr)

    @property
    def attrs(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.cells)

    @property
    def nulls(self) -> frozenset[LabeledNull]:
        return frozenset(c for _, c in self.cells if isinstance(c, LabeledNull))

    def values_in_order(self) -> tuple[Cell, ...]:
        return tuple(c for _, c in self.cells)


ConditionalRow = tuple[CRow, Condition]


def _pair_key(pair: ConditionalRow) -> tuple:
    row, cond = pair
    return (tuple(cell_key(c) for c in row.values_in_order()), _cond_key(cond))


@dataclass(frozen=True)
class ConditionalInstance:
    schema: Schema
    data: tuple[tuple[str, tuple[ConditionalRow, ...]], ...]

    def __post_init__(self):
        names = [r for r, _ in self.data]
        if names != list(self.schema.names):
            raise DomainMismatch("table must list exactly the schema relations, in order")
        for r, pairs in self.data:
            expected = self.schema.attrs(r)
            for row, _ in pairs:
                if row.attrs != expected:
                    raise DomainMismatch(
                        f"tuple over {sorted(row.attrs)} does not fit {r}({sorted(expected)})"
                    )

    @staticmethod
    def of(
        schema: Schema,
        data: Mapping[str, Iterable[ConditionalRow]] | None = None,
    ) -> "ConditionalInstance":
        given = dict(data or {})
        for r in given:
            if not schema.defines(r):
                raise DomainMismatch(f"relation {r} is not in the schema")
        table = {}
        for r in schema.names:
            pairs = []
            seen = set()
            for pair in given.get(r, ()):
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
            table[r] = tuple(sorted(pairs, key=_pair_key))
        return ConditionalInstance(schema, tuple((r, table[r]) for r in schema.names))

    @staticmethod
    def from_instance(i: Instance) -> "ConditionalInstance":
        return ConditionalInstance.of(
            i.schema,
            {
                r: [(CRow(row.cells), TRUE) for row in i.rows(r)]
                for r in i.schema.names
            },
        )

    def rows(self, relation: str) -> tuple[ConditionalRow, ...]:
        for r, pairs in self.data:
            if r == relation:
                return pairs
        raise KeyError(relation)

    def nulls(self) -> frozenset[LabeledNull]:
        out: set[LabeledNull] = set()
        for _, pairs in self.data:
            for row, cond in pairs:
                out |= row.nulls
                out.update(condition_nulls(cond))
        return frozenset(out)

    def constants(self) -> frozenset[Value]:
        out: set[Value] = set()
        for _, pairs in self.data:
            for row, cond in pairs:
                out |= {c for c in row.values_in_order() if isinstance(c, Value)}
                out |= condition_constants(cond)
        return frozenset(out)

    @property
    def is_positive(self) -> bool:
        return all(
            condition_is_positive(cond) for _, pairs in self.data for _, cond in pairs
        )

    def total_size(self) -> int:
        return sum(len(pairs) for _, pairs in self.data)


@dataclass(frozen=True)
class ScopedConditionalInstance:
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
    data: dict[str, set[Row]] = {}
    for rel, pairs in t.data:
        rows: set[Row] = set()
        for row, cond in pairs:
            if cond_eval(cond, v) is True:
                rows.add(
                    Row(
                        tuple(
                            (a, v[c] if isinstance(c, LabeledNull) else c)
                            for a, c in row.cells
                        )
                    )
                )
        data[rel] = rows
    return Instance.of(t.schema, data)


def _fresh_values(count: int, taken: frozenset[Value]) -> list[Value]:
    out: list[Value] = []
    j = 0
    while len(out) < count:
        v = Value(CONST, f"{FRESH_PREFIX}{j}")
        if v not in taken:
            out.append(v)
        j += 1
    return out


def _completions(
    nulls: list[LabeledNull],
    pool: list[Value],
    base: dict[LabeledNull, Value],
) -> Iterator[dict[LabeledNull, Value]]:
    if not nulls:
        yield dict(base)
        return
    for combo in itertools.product(pool, repeat=len(nulls)):
        v = dict(base)
        v.update(zip(nulls, combo))
        yield v


def _rep_witness(
    t: ConditionalInstance,
    i: Instance,
    rel_scope: frozenset[str] | None,
    max_steps: int = 2_000_000,
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
    pairs: list[tuple[str, CRow, Condition]] = [
        (rel, row, cond) for rel, rel_pairs in t.data for row, cond in rel_pairs
    ]
    steps = itertools.count(1)

    def tick():
        if next(steps) > max_steps:
            raise BudgetExceeded("membership search exceeded its step budget")

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
        for full in _completions(remaining, pool, v):
            tick()
            if verify(full):
                return full
        return None

    def consistent(v: dict[LabeledNull, Value], k: int, target: Row) -> bool:
        tick()
        return cond_eval(pairs[k][2], v) is not False

    def may_drop(v: dict[LabeledNull, Value], k: int) -> bool:
        tick()
        cond = pairs[k][2]
        return not isinstance(cond, TrueCond) and cond_eval(cond, v) is not True

    patterns = [(rel, row.cells) for rel, row, _ in pairs]
    for v in join(patterns, RowIndex(i.data), {}, accept=consistent, skip=may_drop):
        found = complete_and_check(v)
        if found is not None:
            return found
    return None


def rep_contains(
    t: Union[ConditionalInstance, ScopedConditionalInstance], i: Instance
) -> bool:
    """Membership of i in the set of instances the table represents."""
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
    t: ConditionalInstance, max_valuations: int, constants: frozenset[Value]
) -> Iterator[dict[LabeledNull, Value]]:
    nulls = sorted(t.nulls())
    pool = sorted(t.constants() | constants)
    taken = frozenset(pool)
    count = 0
    for partition in _set_partitions(nulls):
        blocks = sorted(partition, key=lambda b: min(b))
        fresh = _fresh_values(len(blocks), taken)
        choices_per_block = [pool + [fresh[rank]] for rank in range(len(blocks))]
        for combo in itertools.product(*choices_per_block):
            chosen_constants = [v for v in combo if not v.token.startswith(FRESH_PREFIX)]
            if len(set(chosen_constants)) != len(chosen_constants):
                continue
            count += 1
            if count > max_valuations:
                raise BudgetExceeded(
                    f"minimal-instance search needs more than {max_valuations} valuations"
                )
            v: dict[LabeledNull, Value] = {}
            for block, value in zip(blocks, combo):
                for n in block:
                    v[n] = value
            yield v


def _strictly_dominated(t: ConditionalInstance, j: Instance) -> bool:
    """True when some valuation image is a strict subset of j's rows.

    A strict subset misses at least one row of j, so it suffices to search
    for an image inside j-minus-one-row, for each row in turn.
    """
    for rel in j.schema.names:
        for row in j.rows(rel):
            smaller = Instance.of(
                j.schema,
                {r: (j.rows(r) - {row} if r == rel else j.rows(r)) for r in j.schema.names},
            )
            if _rep_witness(t, smaller, None) is not None:
                return True
    return False


def enumerate_minimal(
    t: ConditionalInstance,
    max_valuations: int = 200_000,
    constants: frozenset[Value] = frozenset(),
) -> frozenset[Instance]:
    """Canonical representatives of the minimal instances the table represents.

    Valuations are enumerated canonically: each way of grouping the nulls
    into equality classes, with each class either identified with one of the
    table's own values or of the given constants, or sent to a reserved
    fresh constant. The images that no other valuation image strictly
    undercuts are the minimal ones; every represented instance extends one
    of them up to renaming of the constants outside that pool.
    """
    images: set[Instance] = set()
    for v in _canonical_valuations(t, max_valuations, constants):
        image = apply_valuation(t, v)
        images.add(rename_values(image, lambda c: c.token.startswith(FRESH_PREFIX), FRESH_PREFIX))
    return frozenset(j for j in images if not _strictly_dominated(t, j))


def render_ctable(t: ConditionalInstance) -> str:
    """Canonical text: nulls as ?name, a trailing | condition when not trivially true."""
    lines: list[str] = []
    for rel, attrs in t.schema.rels:
        header = ", ".join(sorted(attrs))
        lines.append(f"{rel}({header}):")
        pairs = sorted(t.rows(rel), key=_pair_key)
        if not pairs:
            lines.append("  (empty)")
        for row, cond in pairs:
            body = ", ".join(c.render() for c in row.values_in_order())
            if isinstance(cond, TrueCond):
                lines.append(f"  ({body})")
            else:
                lines.append(f"  ({body}) | {cond.render()}")
    return "\n".join(lines)
