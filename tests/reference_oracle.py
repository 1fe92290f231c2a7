"""Reference enumeration and minimality for the outcome oracle.

`minimal_outcomes` is the all-pairs test that `dqworkbench.oracle` used
before it took outcomes in size order. `enumerate_outcomes` is the literal
enumerator it used before it checked clauses as soon as their relations
are fixed: it builds every candidate of the cross-relation product and
runs `possible_outcome_report` on each. `_relation_choices` is the row
choice generator the oracle used before it pruned: it charges and builds
every row set the scope allows. `_extensions` is the row builder the
oracle used before it placed each row's cells by a position map: it goes
through `model.with_cells`. All four are kept verbatim so that properties
in `test_properties.py` can check the oracle against them, and
`minimal_outcomes` tests with the general `instance_extends` of
`reference_queries`. The candidate schemas and value pool are the
oracle's own; the cap is this module's `BUDGET_CAP`.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence, Union

from dqworkbench.errors import Meter
from dqworkbench.model import Instance, Row, Value, with_cells
from dqworkbench.oracle import (
    Budget,
    _candidate_schemas,
    _instance_sort_key,
    _value_pool,
    constraint_constants,
)
from dqworkbench.procedures import Procedure, outcome_inputs, possible_outcome_report, scope_map

from .reference_queries import instance_extends

BUDGET_CAP = 500_000


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


def _extensions(row: Row, fill: Sequence[str], pool: Sequence[Value]) -> list[Row]:
    combos = itertools.product(pool, repeat=len(fill))
    return [with_cells(row, dict(zip(fill, combo))) for combo in combos]


def _relation_choices(
    rel: str,
    target_attrs: frozenset[str],
    i: Instance,
    pinned: frozenset[str] | None,
    pool: Sequence[Value],
    b: Budget,
    meter: Meter,
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

    # every batch is counted and charged before it is built
    if pinned is None:
        fill = new_attrs
        n_pool = len(pool) ** len(target_attrs)
    else:
        fill = sorted((pinned & target_attrs) | frozenset(new_attrs)) if pinned else new_attrs
        if not pinned and not fill:
            return [frozenset(old_rows)]
        unfilled = frozenset(kept_old) - frozenset(fill)
        n_pool = len({r.project(unfilled) for r in old_rows}) * len(pool) ** len(fill)
    drop = 0 if pinned == frozenset() else 1  # an in-scope old row may be dropped
    sizes = range(b.max_new_tuples + 1)
    n_add = sum(math.comb(n_pool, k) for k in sizes)
    meter.tick(n_add + n_add * (len(pool) ** len(fill) + drop) ** len(old_rows))

    extended = [_extensions(r, fill, pool) for r in old_rows]
    per_row = [[None] * drop + rows for rows in extended]
    if pinned is None:
        addition_pool = _extensions(Row.of({}), sorted(target_attrs), pool)
    else:
        addition_pool = sorted({ext for rows in extended for ext in rows})
    additions = [frozenset(c) for k in sizes for c in itertools.combinations(addition_pool, k)]

    out: list[frozenset[Row]] = []
    seen: set[frozenset[Row]] = set()
    for chosen in itertools.product(*per_row) if per_row else [()]:
        kept = frozenset(r for r in chosen if r is not None)
        for extra in additions:
            candidate = kept | extra
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
    return out


def _single_step_outcomes(
    p: Procedure,
    i: Instance,
    b: Budget,
    meter: Meter,
    shared: frozenset[Value],
) -> set[Instance]:
    inputs = outcome_inputs(p, i)
    if not inputs.applicable:
        return set()
    pool = _value_pool(i, shared, b)
    scope = scope_map(p.scope)
    found: set[Instance] = set()
    for schema in _candidate_schemas(i, p, b):
        per_relation = []
        for rel in schema.names:
            choices = _relation_choices(
                rel, schema.attrs(rel), i, scope.get(rel, frozenset()), pool, b, meter
            )
            per_relation.append((rel, choices))
        meter.tick(math.prod(len(c) for _, c in per_relation))
        for combo in itertools.product(*(c for _, c in per_relation)):
            candidate = Instance.of(
                schema, {rel: rows for (rel, _), rows in zip(per_relation, combo)}
            )
            if possible_outcome_report(p, i, candidate, inputs=inputs).ok:
                found.add(candidate)
    return found


def enumerate_outcomes(
    ps: Union[Procedure, Sequence[Procedure]],
    i: Instance,
    b: Budget,
) -> frozenset[Instance]:
    """Every outcome of the procedure(s) inside the budgeted universe.

    Exact relative to that universe: a returned instance passes the outcome
    checker, and no instance expressible within the budget is missed. The
    sequence case composes stepwise, feeding each intermediate outcome back
    in as the next step's input.
    """
    sequence = [ps] if isinstance(ps, Procedure) else list(ps)
    meter = Meter(BUDGET_CAP, "oracle candidate space", "candidates")
    # Constants named anywhere in the sequence join every step's value
    # pool: a later step's constant can force an earlier step's choice.
    shared = frozenset().union(
        frozenset(), *(constraint_constants(p) for p in sequence)
    )
    current: set[Instance] = {i}
    for idx, p in enumerate(sequence):
        meter.at = f"step {idx} ({p.name or '<anonymous>'})"
        step_result: set[Instance] = set()
        for j in sorted(current, key=_instance_sort_key):
            step_result |= _single_step_outcomes(p, j, b, meter, shared)
        current = step_result
    return frozenset(current)
