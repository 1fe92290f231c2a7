"""Brute-force outcome enumeration over bounded universes.

The reasoning modules over-approximate or decide; this module instead
enumerates candidate result instances within an explicit budget and keeps
exactly those the four-clause outcome checker accepts. It is deliberately
slow: its only job is to be an independent ground truth for the other
modules at desk scale. It fixes one relation's rows at a time and checks
each clause of `procedures.outcome_clauses` as soon as the relations it
reads are fixed, dropping a prefix at its first failing clause; the result
equals checking every candidate of the full product literally. Handed the
out-of-scope relations, which every candidate holds verbatim, the clauses
leave out the residual checks the generation guarantees, and a full tgd
whose body reads only those relations is a `procedures.Contained` test of
the rows it demands, read once per step. Before it builds, the generation
prunes the row choices that those rows and `total` safety queries rule out
(see `_relation_choices`), so the cap counts the candidates left after
pruning.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .chase import EmptyResult, approximate_outcomes
from .constraints import ConjunctiveQuery, Egd, Tgd, TotalQuery, comparisons, cq_constants, demanded_attrs
from .ctables import enumerate_minimal, rep_contains
from .errors import MalformedParams, Meter
from .model import (
    Instance,
    Row,
    Schema,
    Value,
    active_domain,
    canonical_names,
    const,
    instance_extends,
    map_cells,
    positions,
)
from .procedures import Clause, Contained, Procedure, outcome_clauses, outcome_inputs, scope_map

# Candidates one oracle run may charge, each batch before it is built and before
# any clause is checked: per relation its sets of additions and its row-set
# candidates, per schema the cross-relation ones, all counted after the keep
# and forced-row rules of `_relation_choices` have pruned them.
BUDGET_CAP = 500_000

EXTRA_CONSTANT_PREFIX = "@c"
EXTRA_ATTRIBUTE_PREFIX = "@attr"


_BUDGET_FIELDS = "extra_constants max_new_tuples max_new_attributes allow_schema_growth"


class Budget(namedtuple("Budget", _BUDGET_FIELDS, defaults=(0, 1, 0, False))):
    """Bounds on the candidate universe the oracle enumerates.

    extra_constants fresh values join the active domain as candidate cell
    values; max_new_tuples bounds additions (and row splits) per relation;
    schema growth adds attributes required by the postcondition, plus up to
    max_new_attributes unconstrained reserved ones.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for field in ("extra_constants", "max_new_tuples", "max_new_attributes"):
            if getattr(self, field) < 0:
                raise MalformedParams(f"budget field {field} must be nonnegative")
        return self


def constraint_constants(p: Procedure) -> frozenset[Value]:
    """Constants the procedure's constraints and safety queries mention."""
    out: set[Value] = set()
    for c in tuple(p.pre) + tuple(p.post):
        if isinstance(c, Tgd):
            out |= cq_constants(c.body) | cq_constants(c.head)
        elif isinstance(c, Egd):
            out |= cq_constants(c.body)
    for q in p.safe:
        if isinstance(q, ConjunctiveQuery):
            out |= cq_constants(q)
        elif q.condition is not None:
            leaves = comparisons(q.condition)
            out.update(leaf.rhs for leaf in leaves if isinstance(leaf.rhs, Value))
    return frozenset(out)


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
    scope = scope_map(p.scope)
    required = demanded_attrs(p.post, {})
    needed = demanded_attrs(p.post + p.safe, {})

    base: dict[str, frozenset[str]] = {r: i.schema.attrs(r) for r in i.schema.names}
    if b.allow_schema_growth:
        for rel, attrs in required.items():
            base[rel] = base.get(rel, frozenset()) | frozenset(attrs)

    droppable_rels = [
        r for r in sorted(base) if scope.get(r, frozenset()) is None and r not in needed
    ]
    drop_attr_options = [
        (rel, attr)
        for rel, changed in scope.items()
        if changed is not None and rel in base
        for attr in sorted((changed & base[rel]) - needed.get(rel, set()))
    ]

    most = b.max_new_attributes if b.allow_schema_growth else 0
    growable = sorted(base)

    def growth_slots() -> Iterator[tuple[str, ...]]:
        """No slot, then each multiset of 1 to `most` relations, listed one
        size at a time as the search reaches it: the charge may stop the
        search long before the last."""
        for k in range(most + 1):
            yield from itertools.combinations_with_replacement(growable, k)

    # growth slots on a dropped relation add nothing: such schemas repeat
    seen: set[Schema] = set()
    for dropped_rels in _subsets(droppable_rels):
        for dropped_attrs in _subsets(drop_attr_options):
            for slots in growth_slots():
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
                schema = Schema.of(rels)
                if ok and schema not in seen:
                    seen.add(schema)
                    yield schema


def _subsets(items: Sequence) -> Iterator[tuple]:
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


def _extensions(row: Row, fill: Sequence[str], pool: Sequence[Value]) -> list[Row]:
    """The row with each combination of pool values in its `fill` cells,
    in place of its own cells of those attributes or beside them."""
    attrs = tuple(sorted({*row.attrs, *fill}))
    at = positions(attrs)
    own = dict(zip(row.attrs, row.values))
    cells = [own.get(a) for a in attrs]
    slots = [at[a] for a in fill]
    out = []
    for combo in itertools.product(pool, repeat=len(fill)):
        for k, v in zip(slots, combo):
            cells[k] = v
        out.append(Row(attrs, tuple(cells)))
    return out


def _relation_choices(
    rel: str,
    target_attrs: frozenset[str],
    i: Instance,
    pinned: frozenset[str] | None,
    pool: Sequence[Value],
    b: Budget,
    meter: Meter,
    forced: set[Row],
    keep: bool,
) -> list[frozenset[Row]]:
    """Candidate row sets for one relation of one candidate schema.

    Out-of-scope relations keep every old row (extended over new attributes,
    with splits counted as additions); relations scoped on named attributes
    may drop rows and rewrite the scoped cells; whole-relation scopes keep
    any subset of the old rows and add up to max_new_tuples fresh tuples.
    Two rules prune the choices no outcome can take: with `keep` no old row
    is dropped, and each `forced` row (over target_attrs) is in every
    choice, so the old row it extends is never dropped and any other forced
    row is in every set of additions. The meter charges the pruned counts
    before anything is built.
    """
    old_attrs = i.schema.attrs(rel) if i.schema.defines(rel) else frozenset()
    kept_old = sorted(old_attrs & target_attrs)
    new_attrs = sorted(target_attrs - old_attrs)
    old_rows = sorted({r.project(kept_old) for r in i.rows(rel)} if i.schema.defines(rel) else ())
    # an old row a forced row extends (found by projection) is kept; any
    # other forced row is in every set of additions
    held = {f.project(kept_old) for f in forced} & set(old_rows)
    must_add = frozenset(f for f in forced if f.project(kept_old) not in held)
    if len(must_add) > b.max_new_tuples:
        return []  # no set of additions holds every forced row

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
    # an in-scope old row may be dropped, unless a rule keeps it
    drops = [pinned != frozenset() and not keep and r not in held for r in old_rows]
    sizes = range(b.max_new_tuples - len(must_add) + 1)
    n_add = sum(math.comb(n_pool - len(must_add), k) for k in sizes)
    meter.tick(n_add + n_add * math.prod(len(pool) ** len(fill) + d for d in drops))

    extended = [_extensions(r, fill, pool) for r in old_rows]
    per_row = [[None] * d + rows for d, rows in zip(drops, extended)]
    if pinned is None:
        addition_pool = _extensions(Row.of({}), sorted(target_attrs), pool)
    else:
        addition_pool = sorted({ext for rows in extended for ext in rows})
    # forced rows draw their values from the input and the constraints, so
    # they are in the pool: the rest of it is n_pool - len(must_add) rows
    rest = [r for r in addition_pool if r not in must_add]
    additions = [must_add.union(c) for k in sizes for c in itertools.combinations(rest, k)]

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
    scope = scope_map(p.scope)
    # every candidate holds the out-of-scope relations' rows verbatim on the
    # input's attributes, and keeps every attribute the scope does not name
    verbatim = frozenset(r for r in i.schema.names if scope.get(r, frozenset()) == frozenset())
    pool = _value_pool(i, shared, b)
    clauses = outcome_clauses(p, inputs, verbatim)
    # a row a containment clause demands of a whole-scope relation is in
    # every candidate whose relation has exactly the demanding atom's attributes
    forced: dict[tuple[str, frozenset[str]], set[Row]] = {}
    for _, check in clauses:
        for (rel, attrs), need in check.demands.items() if isinstance(check, Contained) else ():
            if scope.get(rel, frozenset()) is None:
                forced.setdefault((rel, attrs), set()).update(need)
    # an unfiltered `total R` on a whole-scope R loses an answer with any old
    # row the result drops
    keep = {
        q.relations[0] for q in p.safe
        if isinstance(q, TotalQuery) and q.condition is None and len(q.relations) == 1
        and scope.get(q.relations[0], frozenset()) is None
    }
    found: set[Instance] = set()
    for schema in _candidate_schemas(i, p, b):
        per_relation = []
        for rel in schema.names:
            attrs = schema.attrs(rel)
            choices = _relation_choices(
                rel, attrs, i, scope.get(rel, frozenset()), pool, b, meter,
                forced.get((rel, attrs), set()), rel in keep,
            )
            if not choices:
                break  # no candidate over this schema
            per_relation.append((rel, choices))
        else:
            meter.tick(math.prod(len(c) for _, c in per_relation))
            found.update(_accepted(schema, per_relation, clauses))
    return found


def _accepted(
    schema: Schema,
    per_relation: list[tuple[str, list[frozenset[Row]]]],
    clauses: list[Clause],
) -> Iterator[Instance]:
    """The candidates over `schema`, one row set per relation, that pass
    every clause (forward checking).

    Relations are fixed in order of fewest choices first, depth first. A
    clause is checked at the first depth where every relation it reads is
    fixed, on the instance holding the fixed rows (the rest empty); a
    clause reading a relation outside the schema waits for the full
    candidate. A prefix that fails a clause is dropped with all its
    extensions. When every clause reads only the schema, the candidates
    are the product of the choices, listed in schema order.
    """
    order = sorted(per_relation, key=lambda rc: len(rc[1]))
    n = len(order)
    depth = {rel: k + 1 for k, (rel, _) in enumerate(order)}
    checks: list[list] = [[] for _ in range(n + 1)]
    # at one depth, a clause over fewer relations first: it is the cheaper
    for reads, check in sorted(clauses, key=lambda clause: len(clause[0])):
        checks[max((depth.get(rel, n) for rel in reads), default=0)].append(check)

    empty = Instance.of(schema)
    if any(check(empty) for check in checks[0]):
        return
    if n == 0:
        yield empty
        return
    # each choice as the (relation, rows) pair an instance's data lists, and
    # per relation of the schema, the depth of its pair in `chosen`
    pairs = [[(rel, rows) for rows in choices] for rel, choices in order]
    slots = [depth[rel] - 1 for rel in schema.names]
    if not any(checks[1:]):  # every clause read only the schema: all of the product passes
        for data in itertools.product(*[pairs[s] for s in slots]):
            yield tuple.__new__(Instance, (schema, data))
        return
    chosen: list[tuple[str, frozenset[Row]]] = []
    stack = [iter(pairs[0])]
    while stack:
        pair = next(stack[-1], None)
        if pair is None:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        chosen.append(pair)
        k = len(chosen)
        if k == n:
            fixed = tuple.__new__(Instance, (schema, tuple([chosen[s] for s in slots])))
        elif checks[k]:
            fixed = Instance.built(schema, dict(chosen))
        if any(check(fixed) for check in checks[k]):
            chosen.pop()
        elif k == n:
            yield fixed
            chosen.pop()
        else:
            stack.append(iter(pairs[k]))


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


def _instance_sort_key(j: Instance):
    rows = tuple(tuple(sorted(r.values for r in rel_rows)) for _, rel_rows in j.data)
    return j.schema.names, j.total_size(), rows


def minimal_outcomes(outcomes: Iterable[Instance]) -> frozenset[Instance]:
    """The outcomes no other outcome sits strictly inside.

    Each distinct outcome, taken in order of rows and then of relations plus
    attributes, is tested only against the minimal outcomes kept before it
    (the extremal-sets scheme), and that is exact. If k sits inside j, each
    row of k is the projection of its own row of j, so k has no more rows
    than j; with as many rows and k != j, j's schema strictly extends k's,
    so k sorts first. Sitting inside is transitive and antisymmetric, so a
    non-minimal j has a minimal outcome inside it, and that one is kept
    before j is reached.

    A kept outcome is indexed under one key, its row that the fewest
    distinct outcomes hold (Bayardo and Panda, SDM 2011), and kept outcomes
    with no rows go on a list every candidate is tested against. A
    candidate is tested only against the kept outcomes that its rows,
    projected onto each indexed relation and attribute set its schema
    extends, look up. That misses none: if k sits inside j, every row of k,
    its key included, lies in j's projection onto k's schema.
    """
    def by_size(j: Instance) -> tuple[int, int]:
        return j.total_size(), sum(1 + len(attrs) for _, attrs in j.schema.rels)

    distinct = set(outcomes)
    # outcomes per row, in any relation: any key is exact, a rare one cheap
    held = Counter(itertools.chain.from_iterable(rows for j in distinct for _, rows in j.data))
    # (relation, attributes) -> key row's values -> kept outcomes keyed there
    index: dict[tuple[str, frozenset[str]], dict[tuple, list[Instance]]] = {}
    rowless: list[Instance] = []

    def looked_up(j: Instance) -> Iterator[Instance]:
        yield from rowless
        for (rel, attrs), keyed in index.items():
            for row in j.projected(rel, attrs) or ():
                yield from keyed.get(row.values, ())

    kept: list[Instance] = []
    for j in sorted(distinct, key=by_size):
        if any(instance_extends(j, k) for k in looked_up(j)):
            continue
        kept.append(j)
        key = min(((held[row], rel, row) for rel, rows in j.data for row in rows), default=None)
        if key is None:
            rowless.append(j)
        else:
            _, rel, row = key
            index.setdefault((rel, j.schema.attrs(rel)), {}).setdefault(row.values, []).append(j)
    return frozenset(kept)


def _rename_reserved(j: Instance, rigid: frozenset[Value]) -> Instance:
    """Rename the non-rigid values to @x0, @x1, ..., alike for instances
    equal up to renaming them (`model.canonical_names`), for comparison."""
    names = canonical_names(
        ((rel, row.values, ()) for rel, rows in j.data for row in rows),
        lambda v: v not in rigid,
        lambda k: const(f"@x{k}"),
    )
    if not names:
        return j
    return Instance.built(j.schema, {rel: {map_cells(row, names) for row in rows} for rel, rows in j.data})


class ChaseComparison(NamedTuple):
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


def compare_with_chase(i: Instance, ps: Sequence[Procedure], b: Budget) -> ChaseComparison:
    """Check the approximation's two guarantees against the oracle.

    missing lists budgeted outcomes the chase table fails to represent;
    the minimal sections list minimal instances present on one side only,
    compared after the canonical renaming of reserved and fresh constants
    (`_rename_reserved`, through `model.canonical_names`).

    Every outcome has a minimal outcome inside it, and the set an unscoped
    table represents is upward closed (`rep_contains`), so missing is empty
    when every minimal outcome is represented; only otherwise is every
    outcome checked. A scoped table, which `approximate_outcomes` never
    returns, is not upward closed.
    """
    outcomes = enumerate_outcomes(ps, i, b)
    table = approximate_outcomes(i, ps)
    rigid = frozenset(active_domain(i)) | frozenset().union(
        frozenset(), *(constraint_constants(p) for p in ps)
    )
    # an empty result represents no instance, so it has no minimal members
    empty = isinstance(table, EmptyResult)
    minimal = minimal_outcomes(outcomes)
    represented = not empty and all(rep_contains(table, j) for j in minimal)
    missing = () if represented else tuple(
        j
        for j in sorted(outcomes, key=_instance_sort_key)
        if empty or not rep_contains(table, j)
    )
    oracle_min = {_rename_reserved(j, rigid) for j in minimal}
    chase_min = set() if empty else {
        _rename_reserved(j, rigid)
        for j in enumerate_minimal(table, constants=rigid)
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
