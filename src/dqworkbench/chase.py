"""Outcome-set approximation for safe-scope and alter-schema procedures.

A run folds a null-free starting instance, viewed as a conditional table,
through the sequence: safe-scope steps chase the postcondition rules into
the table, alter-schema steps widen the schema with fresh labeled nulls.
The resulting table over-approximates the reachable outcome set, and its
minimal members are exactly the minimal outcomes; for safe sequences the
scoped reading of the table captures the outcome set precisely.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .analyzer import Failure, min_schema
from .constraints import (
    ConjunctiveQuery,
    ConstantAtom,
    EQUALITIES,
    NamedAtom,
    Plan,
    RowIndex,
    StructureConstraint,
    Var,
    cq_constants,
    evaluate_query,
    is_compatible,
    structure_holds,
)
from .ctables import (
    Cell,
    Condition,
    CondEq,
    ConditionalInstance,
    ConditionalRow,
    LabeledNull,
    ScopedConditionalInstance,
    apply_valuation,
    cond_and,
    condition_entails,
    condition_satisfiable,
    fresh_null_valuation,
)
from .errors import (
    Incompatible,
    NotAlterSchema,
    NotSafeScope,
    NotSafeSequence,
    UnsupportedClass,
    UnsupportedPrecondition,
)
from .model import Instance, Row, canonical_names, map_cells, with_cells
from .procedures import (
    ALTER_SCHEMA,
    NEITHER,
    SAFE_SCOPE,
    Procedure,
    classify,
    is_safe_sequence,
    scope_relations,
)


class EmptyResult:
    """The approximation of an empty outcome set; `EMPTY` is its one instance."""

    __slots__ = ()


EMPTY = EmptyResult()


def _reject_constancy_tests(p: Procedure) -> None:
    if any(isinstance(a, ConstantAtom) for dep in p.post for a in dep.body.atoms + dep.head.atoms):
        raise UnsupportedClass("postcondition rules with constancy tests cannot be chased")


def _body_triggers(
    rows: RowIndex, body: ConjunctiveQuery
) -> Iterator[tuple[Condition, dict[Var, Cell]]]:
    """All ways to match the rule body against the table, with the condition
    each match needs: the used tuples' conditions, then the cell equalities
    the plan records where a variable or an in-rule constant meets a labeled
    null, since such a match holds only under a valuation that equates them.
    """
    atoms = [a for a in body.atoms if isinstance(a, NamedAtom)]
    layouts = [rows.layout(a.relation) for a in atoms]
    if None in layouts:
        return  # an empty relation matches no atom
    for state in Plan([(a.relation, a.bindings) for a in atoms], layouts).run(rows, {}):
        equalities = tuple(CondEq(null, other) for null, other in state.get(EQUALITIES, ()))
        condition = cond_and([state[k] for k in range(len(atoms))] + [equalities])
        yield condition, {v: c for v, c in state.items() if isinstance(v, Var)}


def _head_matched(
    store: RowIndex,
    head: Plan,
    init: dict[Var, Cell],
    trigger_cond: Condition,
) -> bool:
    """Whether the table already carries tuples witnessing the rule head,
    matched by its plan from init.

    Only syntactically identical cells count, so a match that needs an
    equality is refused, and a used tuple's condition must be entailed by
    the trigger's; a False here merely adds a redundant tuple, which never
    changes the represented set's minimal members.
    """

    def witnessed(state: dict, k: int, pair: ConditionalRow) -> bool:
        return EQUALITIES not in state and condition_entails(trigger_cond, pair[1])

    return next(head.run(store, init, accept=witnessed), None) is not None


def chase_safe_scope(
    t: ConditionalInstance, p: Procedure, *, step: int = 0
) -> ConditionalInstance:
    """One restricted-chase pass of the procedure's rules over the table.

    Head relations never occur in rule bodies for this class, so a single
    pass over the body matches of the original table saturates the rules,
    and one index serves the bodies while the heads grow.
    Every added head tuple carries its trigger's condition; existential
    head positions are filled with deterministically named fresh nulls.
    """
    if classify(p) != SAFE_SCOPE:
        raise NotSafeScope(f"procedure {p.name or '<anonymous>'} lacks safe-scope shape")
    _reject_constancy_tests(p)
    for dep in p.post:
        if not is_compatible(dep, t.schema):
            raise Incompatible(
                "postcondition mentions relations or attributes the schema lacks"
            )
    store = RowIndex({rel: list(t.rows(rel)) for rel in t.schema.names}, paired=True)
    for tgd_idx, dep in enumerate(p.post):
        atoms = dep.head.atoms
        head = Plan([(a.relation, a.bindings) for a in atoms], [t.schema.layout(a.relation) for a in atoms])
        ordinal = 0
        for trigger_cond, frontier in _body_triggers(store, dep.body):
            if not condition_satisfiable(trigger_cond):
                continue
            if _head_matched(store, head, {v: frontier[v] for v in dep.head.free}, trigger_cond):
                continue
            fresh = {
                v: LabeledNull(f"p{step}_t{tgd_idx}_{ordinal}_{v.name}")
                for v in sorted(dep.head.existential)
            }
            image = frontier | fresh
            for atom_idx, atom in enumerate(dep.head.atoms):
                attrs = t.schema.layout(atom.relation)
                terms = dict(atom.bindings)
                # an attribute the atom leaves unbound is free to take any
                # value, so it gets a fresh null of its own
                cells = tuple(
                    image.get(terms[a], terms[a]) if a in terms
                    else LabeledNull(f"p{step}_t{tgd_idx}_{ordinal}_a{atom_idx}.{a}")
                    for a in attrs
                )
                store.add(atom.relation, (Row(attrs, cells), trigger_cond))
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
        data[rel] = [
            (with_cells(row, {a: LabeledNull(f"p{step}_a_{rel}_{a}_{k}") for a in new_attrs}), cond)
            for k, (row, cond) in enumerate(t.rows(rel))
        ]
    return ConditionalInstance.of(target, data)


def _require_classified(ps: Iterable[Procedure]) -> None:
    for p in ps:
        if classify(p) == NEITHER:
            raise UnsupportedClass(
                f"procedure {p.name or '<anonymous>'} is neither safe-scope nor alter-schema"
            )


def _fold_step(
    t: ConditionalInstance, p: Procedure, *, step: int
) -> ConditionalInstance | EmptyResult:
    """One step of a sequence whose procedures `_require_classified` passed."""
    if classify(p) == ALTER_SCHEMA:
        return apply_alter_schema(t, p, step=step)
    if not all(isinstance(c, StructureConstraint) for c in p.pre):
        raise UnsupportedPrecondition("outcome approximation handles structural preconditions only")
    if all(structure_holds(c, t.schema) for c in p.pre) and all(is_compatible(q, t.schema) for q in p.safe):
        return chase_safe_scope(t, p, step=step)
    return EMPTY


def approximate_outcomes(
    i: Instance, ps: Sequence[Procedure]
) -> ConditionalInstance | EmptyResult:
    """Fold the instance through the sequence, over-approximating its outcomes.

    The result table contains every reachable outcome in its represented
    set, and the table's minimal members are minimal outcomes. Empty means
    some step cannot apply, so the sequence reaches no outcome at all.
    """
    _require_classified(ps)
    t = ConditionalInstance.from_instance(i)
    for step, p in enumerate(ps):
        result = _fold_step(t, p, step=step)
        if isinstance(result, EmptyResult):
            return EMPTY
        t = result
    return t


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
    t = approximate_outcomes(i, ps)
    if isinstance(t, EmptyResult):
        return EMPTY
    rel: frozenset[str] = frozenset()
    for p in ps:
        if classify(p) == SAFE_SCOPE:
            rel |= scope_relations(p)
    return ScopedConditionalInstance(t, rel)


def certain_boolean_cq(t: ConditionalInstance, q: ConjunctiveQuery) -> bool:
    """Whether the query holds in every instance the table represents.

    Every table is positive, since its conditions are conjunctions of
    equalities, and on a positive table one image decides it (Imielinski and
    Lipski, JACM 1984): the image under the valuation that sends each null
    to its own fresh null marker. A conjunction of equalities that holds
    there holds under every valuation, and the image maps homomorphically into
    every represented instance, fixing the query's constants. A nonnull
    test never passes on a fresh marker, so a match there survives the map.
    """
    if q.free:
        raise Incompatible("certainty is defined for boolean queries only")
    if not is_compatible(q, t.schema):
        raise Incompatible("query mentions relations or attributes the schema lacks")
    image = apply_valuation(t, fresh_null_valuation(t, cq_constants(q)))
    return bool(evaluate_query(q, image))


def ready_for(i: Instance, ps: Sequence[Procedure], q: ConjunctiveQuery) -> bool:
    """Whether running the sequence guarantees the goal query everywhere.

    True when outcomes exist, the goal fits the resulting schema, and the
    goal holds on the table's image with every null a fresh null marker.
    The table's conditions are conjunctions of equalities, so it is
    positive, and every outcome is one of its members, so that one image
    decides the goal for all of them.
    """
    if q.free:
        raise Incompatible("readiness goals must be boolean queries")
    t = approximate_outcomes(i, ps)
    if isinstance(t, EmptyResult):
        return False
    if not is_compatible(q, t.schema):
        return False
    return certain_boolean_cq(t, q)


def canonical_table(t: ConditionalInstance) -> ConditionalInstance:
    """Rename the labeled nulls of rows and conditions to ?c000, ?c001, ...,
    alike for tables equal up to renaming them (`model.canonical_names`),
    for state comparison."""
    rename = canonical_names(
        ((rel, row.values, cond) for rel, pairs in t.data for row, cond in pairs),
        lambda c: c.__class__ is LabeledNull,
        lambda k: LabeledNull(f"c{k:03d}"),
    )
    data = {
        rel: [
            (map_cells(row, rename), tuple(CondEq(rename[eq.left], rename.get(eq.right, eq.right)) for eq in cond))
            for row, cond in pairs
        ]
        for rel, pairs in t.data
    }
    return ConditionalInstance.of(t.schema, data)


def plan_search(
    i: Instance,
    pool: Iterable[Procedure],
    q: ConjunctiveQuery,
    max_len: int,
) -> list[Procedure] | None:
    """Shortest sequence from the pool (with repetition) readying the goal.

    Breadth-first over sequences up to max_len; branches whose step cannot
    apply are dropped, and states are deduplicated up to null renaming.
    Returns None when no sequence within the bound works.
    """
    if q.free:
        raise Incompatible("readiness goals must be boolean queries")
    procs = sorted(pool, key=lambda p: (p.name, str(p)))
    _require_classified(procs)

    def certain(t: ConditionalInstance) -> bool:
        return is_compatible(q, t.schema) and certain_boolean_cq(t, q)

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
