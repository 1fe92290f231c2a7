"""Reference enumeration and minimality for the outcome oracle.

`minimal_outcomes` is the all-pairs test that `dqworkbench.oracle` used
before it took outcomes in size order. `enumerate_outcomes` is the literal
enumerator it used before it checked clauses as soon as their relations
are fixed: it builds every candidate of the cross-relation product and
runs `possible_outcome_report` on each. Both are kept verbatim so that
properties in `test_properties.py` can check the oracle against them. The
candidate schemas, row choices and value pool are the oracle's own; the
cap is this module's `BUDGET_CAP`.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence, Union

from dqworkbench.errors import Meter
from dqworkbench.model import Instance, Value, instance_extends
from dqworkbench.oracle import (
    Budget,
    _candidate_schemas,
    _instance_sort_key,
    _relation_choices,
    _value_pool,
    constraint_constants,
)
from dqworkbench.procedures import Procedure, outcome_inputs, possible_outcome_report, scope_map

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


def _single_step_outcomes(
    p: Procedure,
    i: Instance,
    b: Budget,
    meter: Meter,
    residual_mode: str,
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
            if possible_outcome_report(
                p, i, candidate, residual_mode, inputs=inputs
            ).ok:
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
            step_result |= _single_step_outcomes(
                p, j, b, meter, residual_mode, shared
            )
        current = step_result
    return frozenset(current)
