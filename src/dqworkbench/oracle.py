"""Brute-force outcome enumeration over bounded universes.

The reasoning modules over-approximate or decide; this module instead
enumerates candidate result instances within an explicit budget and keeps
exactly those the four-clause outcome checker accepts. It is deliberately
slow and literal: its only job is to be an independent ground truth for
the other modules at desk scale.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .chase import EmptyResult, approximate_outcomes
from .constraints import (
    And,
    Comparison,
    ConjunctiveQuery,
    Egd,
    FilteredTotalQuery,
    NamedAtom,
    Not,
    Or,
    StructureConstraint,
    Tgd,
    TotalConjQuery,
    TotalQuery,
    condition_attrs,
)
from .ctables import enumerate_minimal, rep_contains
from .errors import BudgetExceeded, MalformedParams
from .model import (
    Instance,
    Row,
    Schema,
    Value,
    active_domain,
    const,
    instance_extends,
    rename_values,
)
from .procedures import (
    Procedure,
    is_applicable,
    is_possible_outcome,
)

BUDGET_CAP_VAR = "DQW_BUDGET_CAP"
DEFAULT_BUDGET_CAP = 500_000

EXTRA_CONSTANT_PREFIX = "@c"
EXTRA_ATTRIBUTE_PREFIX = "@attr"


@dataclass(frozen=True)
class Budget:
    """Bounds on the candidate universe the oracle enumerates.

    extra_constants fresh values join the active domain as candidate cell
    values; max_new_tuples bounds additions (and row splits) per relation;
    schema growth adds attributes required by the postcondition, plus up to
    max_new_attributes unconstrained reserved ones.
    """

    extra_constants: int = 0
    max_new_tuples: int = 1
    max_new_attributes: int = 0
    allow_schema_growth: bool = False

    def __post_init__(self):
        for field in ("extra_constants", "max_new_tuples", "max_new_attributes"):
            if getattr(self, field) < 0:
                raise MalformedParams(f"budget field {field} must be nonnegative")


def _hard_cap() -> int:
    raw = os.environ.get(BUDGET_CAP_VAR)
    if raw is None:
        return DEFAULT_BUDGET_CAP
    try:
        return int(raw)
    except ValueError:
        raise MalformedParams(f"{BUDGET_CAP_VAR} must be an integer, got {raw!r}")


class _Meter:
    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.cap:
            raise BudgetExceeded(
                f"oracle candidate space exceeds the hard cap of {self.cap}"
            )


def _condition_constants(c) -> set[Value]:
    if isinstance(c, Comparison):
        return {c.rhs} if isinstance(c.rhs, Value) else set()
    if isinstance(c, (And, Or)):
        return set().union(*(_condition_constants(item) for item in c.items))
    if isinstance(c, Not):
        return _condition_constants(c.item)
    return set()


def _cq_constants(q: ConjunctiveQuery) -> set[Value]:
    out: set[Value] = set()
    for atom in q.atoms:
        if isinstance(atom, NamedAtom):
            out |= {t for _, t in atom.bindings if isinstance(t, Value)}
    return out


def constraint_constants(p: Procedure) -> frozenset[Value]:
    """Constants the procedure's constraints and safety queries mention."""
    out: set[Value] = set()
    for c in tuple(p.pre) + tuple(p.post):
        if isinstance(c, Tgd):
            out |= _cq_constants(c.body) | _cq_constants(c.head)
        elif isinstance(c, Egd):
            out |= _cq_constants(c.body)
    for q in p.safe:
        if isinstance(q, ConjunctiveQuery):
            out |= _cq_constants(q)
        elif isinstance(q, FilteredTotalQuery):
            out |= _condition_constants(q.condition)
    return frozenset(out)


def _post_requirements(p: Procedure) -> dict[str, set[str]]:
    """Relations and attributes the postcondition needs present."""
    need: dict[str, set[str]] = {}

    def add_atom(atom) -> None:
        if isinstance(atom, NamedAtom):
            need.setdefault(atom.relation, set()).update(atom.attrs)

    for c in p.post:
        if isinstance(c, StructureConstraint):
            need.setdefault(c.relation, set()).update(c.attributes or ())
        elif isinstance(c, Tgd):
            for atom in c.body.atoms + c.head.atoms:
                add_atom(atom)
        elif isinstance(c, Egd):
            for atom in c.body.atoms:
                add_atom(atom)
    return need


def _safety_mentions(p: Procedure) -> dict[str, set[str]]:
    """Attributes the safety queries name explicitly, per relation."""
    need: dict[str, set[str]] = {}
    for q in p.safe:
        if isinstance(q, ConjunctiveQuery):
            for atom in q.atoms:
                if isinstance(atom, NamedAtom):
                    need.setdefault(atom.relation, set()).update(atom.attrs)
        elif isinstance(q, FilteredTotalQuery):
            need.setdefault(q.relation, set()).update(condition_attrs(q.condition))
        elif isinstance(q, TotalQuery):
            need.setdefault(q.relation, set())
        elif isinstance(q, TotalConjQuery):
            for rel in q.relations:
                need.setdefault(rel, set())
    return need


def _scope_map(p: Procedure) -> dict[str, frozenset[str] | None]:
    """Scoped attributes per relation; None marks a whole-relation scope."""
    out: dict[str, frozenset[str] | None] = {}
    for c in p.scope:
        if c.is_wildcard or out.get(c.relation, frozenset()) is None:
            out[c.relation] = None
        else:
            out[c.relation] = out.get(c.relation, frozenset()) | frozenset(
                c.attributes
            )
    return out


def _value_pool(i: Instance, shared: frozenset[Value], b: Budget) -> list[Value]:
    extras = [const(f"{EXTRA_CONSTANT_PREFIX}{k}") for k in range(b.extra_constants)]
    return sorted(active_domain(i) | shared) + extras


def _candidate_schemas(i: Instance, p: Procedure, b: Budget) -> Iterator[Schema]:
    """Schemas an outcome may live over, within the budget.

    Always the input schema; optionally with whole-relation scopes dropped
    and scoped attributes removed (unless the postcondition or a safety
    query still needs them); with schema growth, postcondition-required
    relations and attributes are added, plus up to max_new_attributes
    reserved unconstrained attributes.
    """
    scope = _scope_map(p)
    required = _post_requirements(p)
    safety = _safety_mentions(p)

    base: dict[str, frozenset[str]] = {r: i.schema.attrs(r) for r in i.schema.names}
    if b.allow_schema_growth:
        for rel, attrs in required.items():
            base[rel] = base.get(rel, frozenset()) | frozenset(attrs)

    droppable_rels = [
        r
        for r in sorted(base)
        if scope.get(r, frozenset()) is None
        and r not in required
        and r not in safety
    ]
    drop_attr_options: list[tuple[str, str]] = []
    for rel, pinned in scope.items():
        if pinned is None or rel not in base:
            continue
        for attr in sorted(pinned):
            if attr in required.get(rel, set()) or attr in safety.get(rel, set()):
                continue
            if attr in base[rel]:
                drop_attr_options.append((rel, attr))

    growth_slots: list[tuple[str, ...]] = [()]
    if b.allow_schema_growth and b.max_new_attributes > 0:
        rels = sorted(base)
        growth_slots = [()]
        for k in range(1, b.max_new_attributes + 1):
            growth_slots.extend(itertools.combinations_with_replacement(rels, k))

    for dropped_rels in _subsets(droppable_rels):
        for dropped_attrs in _subsets(drop_attr_options):
            for slots in growth_slots:
                rels: dict[str, set[str]] = {
                    r: set(a) for r, a in base.items() if r not in dropped_rels
                }
                ok = True
                for rel, attr in dropped_attrs:
                    if rel in rels:
                        rels[rel].discard(attr)
                        if not rels[rel]:
                            ok = False
                for idx, rel in enumerate(slots):
                    if rel in rels:
                        rels[rel].add(f"{EXTRA_ATTRIBUTE_PREFIX}{idx}")
                if ok:
                    yield Schema.of(rels)


def _subsets(items: Sequence) -> Iterator[tuple]:
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


def _extensions(row: Row, fill: Sequence[str], pool: Sequence[Value]) -> list[Row]:
    if not fill:
        return [row]
    out = []
    for combo in itertools.product(pool, repeat=len(fill)):
        cells = dict(row.cells)
        cells.update(zip(fill, combo))
        out.append(Row.of(cells))
    return out


def _relation_choices(
    rel: str,
    target_attrs: frozenset[str],
    i: Instance,
    pinned: frozenset[str] | None,
    pool: Sequence[Value],
    b: Budget,
    meter: _Meter,
) -> list[frozenset[Row]]:
    """Candidate row sets for one relation of one candidate schema.

    Out-of-scope relations keep every old row (extended over new attributes,
    with splits counted as additions); relations scoped on named attributes
    may drop rows and rewrite the scoped cells; whole-relation scopes keep
    any subset of the old rows and add up to max_new_tuples fresh tuples.
    """
    old_attrs = i.schema.attrs(rel) if i.schema.defines(rel) else frozenset()
    kept_old = sorted(old_attrs & target_attrs)
    new_attrs = sorted(target_attrs - old_attrs)
    old_rows = sorted(
        {r.project(frozenset(kept_old)) for r in i.rows(rel)}
        if i.schema.defines(rel)
        else set()
    )

    if pinned is None:
        fill = new_attrs
        addition_pool = _extensions(Row.of({}), sorted(target_attrs), pool)
        per_row = [[None] + _extensions(r, fill, pool) for r in old_rows]
    elif pinned:
        fill = sorted((frozenset(pinned) & target_attrs) | frozenset(new_attrs))
        per_row = [[None] + _extensions(r, fill, pool) for r in old_rows]
        addition_pool = sorted(
            {ext for r in old_rows for ext in _extensions(r, fill, pool)}
        )
    else:
        fill = new_attrs
        per_row = [_extensions(r, fill, pool) for r in old_rows]
        addition_pool = sorted(
            {ext for r in old_rows for ext in _extensions(r, fill, pool)}
        )
        if not fill:
            return [frozenset(old_rows)]

    additions: list[frozenset[Row]] = []
    for k in range(b.max_new_tuples + 1):
        for combo in itertools.combinations(addition_pool, k):
            additions.append(frozenset(combo))
            meter.tick()

    out: list[frozenset[Row]] = []
    seen: set[frozenset[Row]] = set()
    for chosen in itertools.product(*per_row) if per_row else [()]:
        kept = frozenset(r for r in chosen if r is not None)
        for extra in additions:
            candidate = kept | extra
            meter.tick()
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
    return out


def _single_step_outcomes(
    p: Procedure,
    i: Instance,
    b: Budget,
    meter: _Meter,
    residual_mode: str,
    shared: frozenset[Value],
) -> set[Instance]:
    if not is_applicable(p, i):
        return set()
    pool = _value_pool(i, shared, b)
    scope = _scope_map(p)
    found: set[Instance] = set()
    for schema in _candidate_schemas(i, p, b):
        per_relation = []
        for rel in schema.names:
            choices = _relation_choices(
                rel, schema.attrs(rel), i, scope.get(rel, frozenset()), pool, b, meter
            )
            per_relation.append((rel, choices))
        for combo in itertools.product(*(c for _, c in per_relation)):
            meter.tick()
            candidate = Instance.of(
                schema, {rel: rows for (rel, _), rows in zip(per_relation, combo)}
            )
            if is_possible_outcome(p, i, candidate, residual_mode):
                found.add(candidate)
    return found


def enumerate_outcomes(
    ps: Union[Procedure, Sequence[Procedure]],
    i: Instance,
    b: Budget,
    *,
    residual_mode: str = "strict",
) -> frozenset[Instance]:
    """Every outcome of the procedure(s) inside the budgeted universe.

    Exact relative to that universe: a returned instance passes the outcome
    checker, and no instance expressible within the budget is missed. The
    sequence case composes stepwise, feeding each intermediate outcome back
    in as the next step's input.
    """
    sequence = [ps] if isinstance(ps, Procedure) else list(ps)
    meter = _Meter(_hard_cap())
    # Constants named anywhere in the sequence join every step's value
    # pool: a later step's constant can force an earlier step's choice.
    shared = frozenset().union(
        frozenset(), *(constraint_constants(p) for p in sequence)
    )
    current: set[Instance] = {i}
    for p in sequence:
        step_result: set[Instance] = set()
        for j in sorted(current, key=_instance_sort_key):
            step_result |= _single_step_outcomes(
                p, j, b, meter, residual_mode, shared
            )
        current = step_result
    return frozenset(current)


def _instance_sort_key(j: Instance):
    return (
        tuple(sorted(j.schema.names)),
        j.total_size(),
        tuple(
            tuple(sorted(tuple(v for _, v in r.cells) for r in j.rows(rel)))
            for rel in j.schema.names
        ),
    )


def minimal_outcomes(outcomes: Iterable[Instance]) -> frozenset[Instance]:
    """The outcomes no other outcome sits strictly inside."""
    pool = list(outcomes)
    out = []
    for j in pool:
        dominated = any(
            k != j and instance_extends(j, k) for k in pool
        )
        if not dominated:
            out.append(j)
    return frozenset(out)


def _rename_reserved(j: Instance, rigid: frozenset[Value]) -> Instance:
    """Rename non-rigid reserved constants by first appearance, for comparison."""
    return rename_values(j, lambda v: v not in rigid, "@x")


@dataclass(frozen=True)
class ChaseComparison:
    """Oracle-versus-approximation report; both sections must stay empty."""

    outcomes: frozenset[Instance]
    missing: tuple[Instance, ...]
    minimal_only_oracle: tuple[Instance, ...]
    minimal_only_chase: tuple[Instance, ...]

    @property
    def ok(self) -> bool:
        return not (
            self.missing or self.minimal_only_oracle or self.minimal_only_chase
        )


def compare_with_chase(
    i: Instance,
    ps: Sequence[Procedure],
    b: Budget,
    *,
    residual_mode: str = "strict",
    max_valuations: int = 200_000,
) -> ChaseComparison:
    """Check the approximation's two guarantees against the oracle.

    missing lists budgeted outcomes the chase table fails to represent;
    the minimal sections list minimal instances present on one side only,
    compared after renaming reserved constants by first appearance.
    """
    outcomes = enumerate_outcomes(ps, i, b, residual_mode=residual_mode)
    res = approximate_outcomes(i, ps)
    rigid = frozenset(active_domain(i)) | frozenset().union(
        frozenset(), *(constraint_constants(p) for p in ps)
    )
    if isinstance(res, EmptyResult):
        oracle_min = minimal_outcomes(outcomes)
        return ChaseComparison(
            outcomes=outcomes,
            missing=tuple(sorted(outcomes, key=_instance_sort_key)),
            minimal_only_oracle=tuple(
                sorted(
                    (_rename_reserved(j, rigid) for j in oracle_min),
                    key=_instance_sort_key,
                )
            ),
            minimal_only_chase=(),
        )
    table = res.table
    missing = tuple(
        j
        for j in sorted(outcomes, key=_instance_sort_key)
        if not rep_contains(table, j)
    )
    oracle_min = {
        _rename_reserved(j, rigid) for j in minimal_outcomes(outcomes)
    }
    chase_min = {
        _rename_reserved(j, rigid)
        for j in enumerate_minimal(
            table, max_valuations=max_valuations, constants=rigid
        )
    }
    return ChaseComparison(
        outcomes=outcomes,
        missing=missing,
        minimal_only_oracle=tuple(
            sorted(oracle_min - chase_min, key=_instance_sort_key)
        ),
        minimal_only_chase=tuple(
            sorted(chase_min - oracle_min, key=_instance_sort_key)
        ),
    )


__all__ = [
    "Budget",
    "ChaseComparison",
    "compare_with_chase",
    "constraint_constants",
    "enumerate_outcomes",
    "minimal_outcomes",
]
