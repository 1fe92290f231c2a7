"""Outcome-set approximation for safe-scope and alter-schema procedures.

A run folds a null-free starting instance, viewed as a conditional table,
through the sequence: safe-scope steps chase the postcondition rules into
the table, alter-schema steps widen the schema with fresh labeled nulls.
The resulting table over-approximates the reachable outcome set, and its
minimal members are exactly the minimal outcomes; for safe sequences the
scoped reading of the table captures the outcome set precisely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .analyzer import Failure, min_schema
from .constraints import (
    ConjunctiveQuery,
    ConstantAtom,
    NamedAtom,
    RowIndex,
    StructureConstraint,
    Tgd,
    Value,
    Var,
    evaluate_query,
    is_compatible,
    join,
    structure_holds,
)
from .ctables import (
    Cell,
    Condition,
    CondAnd,
    CondEq,
    CondNeq,
    CondOr,
    ConditionalInstance,
    ConditionalRow,
    CRow,
    LabeledNull,
    ScopedConditionalInstance,
    TrueCond,
    cond_and,
    condition_entails,
    condition_nulls,
    enumerate_minimal,
    positive_condition_satisfiable,
)
from .errors import (
    Incompatible,
    NotAlterSchema,
    NotPositive,
    NotSafeScope,
    NotSafeSequence,
    UnsupportedClass,
    UnsupportedPrecondition,
)
from .model import Instance
from .procedures import (
    ALTER_SCHEMA,
    NEITHER,
    SAFE_SCOPE,
    Procedure,
    classify,
    is_safe_sequence,
    scope_relations,
)


@dataclass(frozen=True)
class EmptyResult:
    """The approximation of an empty outcome set."""

    def render(self) -> str:
        return "no outcomes"


EMPTY = EmptyResult()


@dataclass(frozen=True)
class TableResult:
    table: ConditionalInstance


ApproximationResult = Union[EmptyResult, TableResult]


def _reject_constancy_tests(p: Procedure) -> None:
    for dep in p.post:
        if isinstance(dep, Tgd):
            for atom in dep.body.atoms + dep.head.atoms:
                if isinstance(atom, ConstantAtom):
                    raise UnsupportedClass(
                        "postcondition rules with constancy tests cannot be chased"
                    )


def _body_triggers(
    rows: RowIndex, body: ConjunctiveQuery
) -> Iterator[tuple[Condition, dict[Var, Cell]]]:
    """All ways to match the rule body against the table, with the condition
    (used tuples' conditions plus induced cell equalities) each match needs.

    Matching a variable or an in-rule constant against a labeled null does
    not fail: it records the equality the valuation would have to satisfy.
    A match state maps each variable to its cell and each matched atom's
    position to its tuple's condition and recorded equalities. Only
    null-free columns are pinned, and only to constants.
    """
    atoms = [a for a in body.atoms if isinstance(a, NamedAtom)]
    null_columns = {
        (rel, attr)
        for rel, pairs in rows.entries.items()
        for row, _ in pairs
        for attr, cell in row.cells
        if isinstance(cell, LabeledNull)
    }

    def pinnable(relation: str, attr: str, value: Cell) -> bool:
        return isinstance(value, Value) and (relation, attr) not in null_columns

    def extend(state: dict, k: int, pair: ConditionalRow) -> dict | None:
        row, cond = pair
        new = dict(state)
        literals = []
        for attr, term in atoms[k].bindings:
            cell = row[attr]
            bound = term if isinstance(term, Value) else new.get(term)
            if bound is None:
                new[term] = cell
            elif bound == cell:
                continue
            elif isinstance(bound, LabeledNull):
                literals.append(CondEq(bound, cell))
            elif isinstance(cell, LabeledNull):
                literals.append(CondEq(cell, bound))
            else:
                return None
        new[k] = (cond, literals)
        return new

    patterns = [(a.relation, a.bindings) for a in atoms]
    for state in join(patterns, rows, {}, extend=extend, pinnable=pinnable):
        matched = [state[k] for k in range(len(atoms))]
        condition = cond_and(
            [cond for cond, _ in matched] + [lit for _, lits in matched for lit in lits]
        )
        yield condition, {v: c for v, c in state.items() if isinstance(v, Var)}


def _head_matched(
    store: RowIndex,
    head: ConjunctiveQuery,
    frontier: dict[Var, Cell],
    trigger_cond: Condition,
) -> bool:
    """Whether the table already carries tuples witnessing the rule head.

    Only syntactically identical cells count, and a used tuple's condition
    must be entailed by the trigger's; a False here merely adds a redundant
    tuple, which never changes the represented set's minimal members.
    """
    patterns = [(a.relation, a.bindings) for a in head.atoms]
    init = {v: frontier[v] for v in head.free}
    entailed = lambda state, k, pair: condition_entails(trigger_cond, pair[1])
    return any(True for _ in join(patterns, store, init, accept=entailed))


def chase_safe_scope(
    t: ConditionalInstance, p: Procedure, *, step: int = 0
) -> ConditionalInstance:
    """One restricted-chase pass of the procedure's rules over the table.

    Head relations never occur in rule bodies for this class, so a single
    pass over the body matches of the original table saturates the rules.
    Every added head tuple carries its trigger's condition; existential
    head positions are filled with deterministically named fresh nulls.
    """
    if classify(p) != SAFE_SCOPE:
        raise NotSafeScope(f"procedure {p.name or '<anonymous>'} lacks safe-scope shape")
    if not t.is_positive:
        raise NotPositive("the chase requires a table without inequality conditions")
    _reject_constancy_tests(p)
    for dep in p.post:
        if not is_compatible(dep, t.schema):
            raise Incompatible(
                "postcondition mentions relations or attributes the schema lacks"
            )
    body_rows = RowIndex(t.data, paired=True)
    store = RowIndex({rel: list(t.rows(rel)) for rel in t.schema.names}, paired=True)
    for tgd_idx, dep in enumerate(p.post):
        ordinal = 0
        for trigger_cond, frontier in _body_triggers(body_rows, dep.body):
            if not positive_condition_satisfiable(trigger_cond):
                continue
            if _head_matched(store, dep.head, frontier, trigger_cond):
                continue
            fresh = {
                v: LabeledNull(f"p{step}_t{tgd_idx}_{ordinal}_{v.name}")
                for v in sorted(dep.head.existential)
            }
            for atom_idx, atom in enumerate(dep.head.atoms):
                cells = {}
                for attr, term in atom.bindings:
                    if isinstance(term, Value):
                        cells[attr] = term
                    elif term in fresh:
                        cells[attr] = fresh[term]
                    else:
                        cells[attr] = frontier[term]
                # attributes the atom leaves unbound are free to take any
                # value, so they get fresh nulls of their own
                for attr in t.schema.attrs(atom.relation) - cells.keys():
                    cells[attr] = LabeledNull(
                        f"p{step}_t{tgd_idx}_{ordinal}_a{atom_idx}.{attr}"
                    )
                store.add(atom.relation, (CRow.of(cells), trigger_cond))
            ordinal += 1
    return ConditionalInstance.of(t.schema, store.entries)


def apply_alter_schema(
    t: ConditionalInstance, p: Procedure, *, step: int = 0
) -> ConditionalInstance | EmptyResult:
    """Widen the table to the schema the alter step's postcondition requires.

    Existing tuples gain one fresh labeled null per new attribute, keeping
    their conditions; newly required relations start empty. A structural
    failure (unmet precondition, arity pin) means no outcome exists.
    """
    if classify(p) != ALTER_SCHEMA:
        raise NotAlterSchema(
            f"procedure {p.name or '<anonymous>'} lacks alter-schema shape"
        )
    req = min_schema(p, t.schema)
    if isinstance(req, Failure):
        return EMPTY
    target = req.schema
    data: dict[str, list[ConditionalRow]] = {}
    for rel in target.names:
        if not t.schema.defines(rel):
            data[rel] = []
            continue
        new_attrs = sorted(target.attrs(rel) - t.schema.attrs(rel))
        if not new_attrs:
            data[rel] = list(t.rows(rel))
            continue
        widened = []
        for k, (row, cond) in enumerate(t.rows(rel)):
            cells = dict(row.cells)
            for attr in new_attrs:
                cells[attr] = LabeledNull(f"p{step}_a_{rel}_{attr}_{k}")
            widened.append((CRow.of(cells), cond))
        data[rel] = widened
    return ConditionalInstance.of(target, data)


def _structural_preconditions(p: Procedure) -> list[StructureConstraint]:
    data = [c for c in p.pre if not isinstance(c, StructureConstraint)]
    if data:
        raise UnsupportedPrecondition(
            "outcome approximation handles structural preconditions only"
        )
    return [c for c in p.pre if isinstance(c, StructureConstraint)]


def _fold_step(
    t: ConditionalInstance, p: Procedure, *, step: int
) -> ConditionalInstance | EmptyResult:
    kind = classify(p)
    if kind == ALTER_SCHEMA:
        return apply_alter_schema(t, p, step=step)
    if kind != SAFE_SCOPE:
        raise UnsupportedClass(
            f"procedure {p.name or '<anonymous>'} is neither safe-scope nor alter-schema"
        )
    structural = _structural_preconditions(p)
    applicable = all(structure_holds(c, t.schema) for c in structural) and all(
        is_compatible(q, t.schema) for q in p.safe
    )
    if not applicable:
        return EMPTY
    return chase_safe_scope(t, p, step=step)


def approximate_outcomes(
    i: Instance, ps: Sequence[Procedure]
) -> ApproximationResult:
    """Fold the instance through the sequence, over-approximating its outcomes.

    The result table contains every reachable outcome in its represented
    set, and the table's minimal members are minimal outcomes. Empty means
    some step cannot apply, so the sequence reaches no outcome at all.
    """
    for p in ps:
        if classify(p) == NEITHER:
            raise UnsupportedClass(
                f"procedure {p.name or '<anonymous>'} is neither safe-scope nor alter-schema"
            )
    t = ConditionalInstance.from_instance(i)
    for step, p in enumerate(ps):
        result = _fold_step(t, p, step=step)
        if isinstance(result, EmptyResult):
            return EMPTY
        t = result
    return TableResult(t)


def outcomes_nonempty(i: Instance, ps: Sequence[Procedure]) -> bool:
    """Whether the sequence reaches at least one outcome from the instance."""
    return not isinstance(approximate_outcomes(i, ps), EmptyResult)


def exact_scoped_representation(
    i: Instance, ps: Sequence[Procedure]
) -> ScopedConditionalInstance | EmptyResult:
    """Scoped table whose represented set equals the outcome set exactly.

    Requires a safe sequence: extra tuples are then confined to the scope
    relations of the safe-scope steps. An inapplicable sequence has no
    outcomes, reported as the empty result.
    """
    if not is_safe_sequence(ps):
        raise NotSafeSequence("exact representation requires a safe sequence")
    res = approximate_outcomes(i, ps)
    if isinstance(res, EmptyResult):
        return EMPTY
    rel: frozenset[str] = frozenset()
    for p in ps:
        if classify(p) == SAFE_SCOPE:
            rel |= scope_relations(p)
    return ScopedConditionalInstance(res.table, rel)


def certain_boolean_cq(
    t: ConditionalInstance,
    q: ConjunctiveQuery,
    *,
    max_valuations: int = 200_000,
) -> bool:
    """Whether the query holds in every instance the table represents.

    Checking the canonical minimal members suffices: the query is monotone
    under extension and indifferent to renaming constants it does not use.
    """
    if q.free:
        raise Incompatible("certainty is defined for boolean queries only")
    if not is_compatible(q, t.schema):
        raise Incompatible("query mentions relations or attributes the schema lacks")
    return all(
        bool(evaluate_query(q, m))
        for m in enumerate_minimal(t, max_valuations=max_valuations)
    )


def ready_for(
    i: Instance,
    ps: Sequence[Procedure],
    q: ConjunctiveQuery,
    *,
    max_valuations: int = 200_000,
) -> bool:
    """Whether running the sequence guarantees the goal query everywhere.

    True when outcomes exist, the goal fits the resulting schema, and the
    goal is certain over the approximation table; for this class the table's
    minimal members are minimal outcomes, so the verdict is exact.
    """
    if q.free:
        raise Incompatible("readiness goals must be boolean queries")
    res = approximate_outcomes(i, ps)
    if isinstance(res, EmptyResult):
        return False
    if not is_compatible(q, res.table.schema):
        return False
    return certain_boolean_cq(res.table, q, max_valuations=max_valuations)


def _map_condition(c: Condition, rename: dict[LabeledNull, LabeledNull]) -> Condition:
    if isinstance(c, TrueCond):
        return c
    if isinstance(c, (CondEq, CondNeq)):
        right = rename.get(c.right, c.right) if isinstance(c.right, LabeledNull) else c.right
        make = CondEq if isinstance(c, CondEq) else CondNeq
        return make(rename[c.left], right)
    items = tuple(_map_condition(item, rename) for item in c.items)
    return CondAnd(items) if isinstance(c, CondAnd) else CondOr(items)


def canonical_table(t: ConditionalInstance) -> ConditionalInstance:
    """Rename labeled nulls by first appearance, for state comparison."""
    rename: dict[LabeledNull, LabeledNull] = {}

    def visit(n: LabeledNull) -> None:
        if n not in rename:
            rename[n] = LabeledNull(f"c{len(rename):03d}")

    for rel in t.schema.names:
        for row, cond in t.rows(rel):
            for cell in row.values_in_order():
                if isinstance(cell, LabeledNull):
                    visit(cell)
            for n in condition_nulls(cond):
                visit(n)
    if not rename:
        return t
    data = {
        rel: [
            (
                CRow(
                    tuple(
                        (a, rename.get(c, c) if isinstance(c, LabeledNull) else c)
                        for a, c in row.cells
                    )
                ),
                _map_condition(cond, rename) if not isinstance(cond, TrueCond) else cond,
            )
            for row, cond in t.rows(rel)
        ]
        for rel in t.schema.names
    }
    return ConditionalInstance.of(t.schema, data)


def plan_search(
    i: Instance,
    pool: Iterable[Procedure],
    q: ConjunctiveQuery,
    max_len: int,
    *,
    max_valuations: int = 200_000,
) -> list[Procedure] | None:
    """Shortest sequence from the pool (with repetition) readying the goal.

    Breadth-first over sequences up to max_len; branches whose step cannot
    apply are dropped, and states are deduplicated up to null renaming.
    Returns None when no sequence within the bound works.
    """
    if q.free:
        raise Incompatible("readiness goals must be boolean queries")
    procs = sorted(pool, key=lambda p: (p.name, str(p)))
    for p in procs:
        if classify(p) == NEITHER:
            raise UnsupportedClass(
                f"procedure {p.name or '<anonymous>'} is neither safe-scope nor alter-schema"
            )

    def certain(t: ConditionalInstance) -> bool:
        return is_compatible(q, t.schema) and certain_boolean_cq(
            t, q, max_valuations=max_valuations
        )

    start = ConditionalInstance.from_instance(i)
    if certain(start):
        return []
    frontier: list[tuple[ConditionalInstance, list[Procedure]]] = [(start, [])]
    seen = {canonical_table(start)}
    for _ in range(max_len):
        next_frontier: list[tuple[ConditionalInstance, list[Procedure]]] = []
        for t, seq in frontier:
            for p in procs:
                try:
                    result = _fold_step(t, p, step=len(seq))
                except (Incompatible, UnsupportedPrecondition):
                    continue
                if isinstance(result, EmptyResult):
                    continue
                key = canonical_table(result)
                if key in seen:
                    continue
                seen.add(key)
                plan = seq + [p]
                if certain(result):
                    return plan
                next_frontier.append((result, plan))
        frontier = next_frontier
        if not frontier:
            break
    return None


__all__ = [
    "ApproximationResult",
    "EMPTY",
    "EmptyResult",
    "TableResult",
    "approximate_outcomes",
    "apply_alter_schema",
    "canonical_table",
    "certain_boolean_cq",
    "chase_safe_scope",
    "exact_scoped_representation",
    "outcomes_nonempty",
    "plan_search",
    "ready_for",
]
