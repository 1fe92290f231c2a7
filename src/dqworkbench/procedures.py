"""Black-box procedure records and their outcome semantics.

A procedure declares what it may touch (scope), what it needs (pre),
what it guarantees (post), and which query answers it preserves (safe).
The checker decides whether one instance is a possible outcome of
running the procedure on another; nothing here executes anything.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from typing import AbstractSet, Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import Incompatible, MalformedParams
from .model import Distinct, Instance, Row, Schema, Value
from .constraints import (
    BooleanCondition,
    ConjunctiveQuery,
    Constraint,
    ConstantAtom,
    Egd,
    NamedAtom,
    Not,
    Query,
    StructureConstraint,
    Tgd,
    TotalQuery,
    Var,
    condition_attrs,
    cq,
    demanded_attrs,
    demanded_rows,
    evaluate_query,
    holds_rows,
    is_compatible,
    satisfies,
)


class Procedure(Distinct, namedtuple("Procedure", "scope pre post safe name")):
    """A procedure's contract; its `name` labels reports and takes no part in
    equality or the hash."""

    __slots__ = ()

    def __new__(cls, scope: tuple[StructureConstraint, ...], pre: tuple[Constraint, ...],
                post: tuple[Constraint, ...], safe: tuple[Query, ...], name: str = ""):
        for c in scope:
            if not isinstance(c, StructureConstraint):
                raise MalformedParams("scope may contain only structure constraints")
        return tuple.__new__(cls, (scope, pre, post, safe, name))

    def __eq__(self, other):
        return self.__class__ is other.__class__ and self[:4] == other[:4]

    def __hash__(self):
        return hash(self[:4])

    @staticmethod
    def of(
        scope: Iterable[StructureConstraint] = (),
        pre: Iterable[Constraint] = (),
        post: Iterable[Constraint] = (),
        safe: Iterable[Query] = (),
        name: str = "",
    ) -> "Procedure":
        # one entry per distinct item, in first-appearance order
        scope, pre, post, safe = (tuple(dict.fromkeys(x)) for x in (scope, pre, post, safe))
        return Procedure(scope, pre, post, safe, name)


def scope_map(scope: Iterable[StructureConstraint]) -> dict[str, frozenset[str] | None]:
    """The attributes the scope lets change, per relation; None for the whole
    relation. Entries on one relation unite, and a wildcard entry wins."""
    out: dict[str, frozenset[str] | None] = {}
    for c in scope:
        if c.is_wildcard or out.get(c.relation, frozenset()) is None:
            out[c.relation] = None
        else:
            out[c.relation] = out.get(c.relation, frozenset()) | frozenset(c.attributes)
    return out


def preserved(s: Schema, scope: Iterable[StructureConstraint]) -> list[tuple[str, frozenset[str]]]:
    """Per relation of `s` the scope does not free wholly, the attributes it
    leaves alone: the residual query is the product of these projections."""
    changes = scope_map(scope)
    return [
        (rel, attrs - changed) for rel, attrs in s.rels if (changed := changes.get(rel, frozenset())) is not None
    ]


def is_applicable(p: Procedure, i: Instance) -> bool:
    """Schema fit of the safety queries plus precondition satisfaction.

    The residual query needs no check: it is built from the schema itself.
    """
    return all(is_compatible(q, i.schema) for q in p.safe) and all(_holds(c, i) for c in p.pre)


def _holds(c: Constraint, i: Instance) -> bool:
    """`satisfies`, with a constraint that does not fit i's schema failing."""
    try:
        return satisfies(c, i)
    except Incompatible:
        return False


_UNADDRESSABLE = (
    "preserved content no longer addressable: "
    "result schema dropped preserved attributes of {}"
)
_CHANGED = "content outside the scope changed in {}"
_POST_FAILED = "postcondition {} does not hold on the result"
_ANSWERS_LOST = "safety query {} lost answers"
_UNFIT = Incompatible("safety query incompatible with the result schema")


class OutcomeReport(NamedTuple):
    """Which of the four outcome clauses held, with human-readable failures."""

    applicable: bool
    post_ok: bool
    residual_ok: bool
    safety_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.applicable and self.post_ok and self.residual_ok and self.safety_ok


class OutcomeInputs(NamedTuple):
    """What the outcome check reads of the input instance alone: applicability,
    each preserved relation with its attributes and projected rows, each
    safety query's answers or the `Incompatible` it raised, and the input."""

    applicable: bool
    residual: tuple[tuple[str, frozenset[str], AbstractSet[Row]], ...]
    safety: tuple[Union[frozenset, Incompatible], ...]
    before: Instance


def outcome_inputs(p: Procedure, before: Instance) -> OutcomeInputs:
    """Read `before` once for any number of candidate outcomes."""
    residual = tuple((rel, attrs, before.projected(rel, attrs)) for rel, attrs in preserved(before.schema, p.scope))
    safety: list[Union[frozenset, Incompatible]] = []
    for q in p.safe:
        try:
            safety.append(evaluate_query(q, before))
        except Incompatible as e:
            safety.append(e)
    return OutcomeInputs(is_applicable(p, before), residual, tuple(safety), before)


def _post_failures(idx: int, c: Constraint, after: Instance) -> list[str]:
    return [] if _holds(c, after) else [_POST_FAILED.format(idx)]


class Contained(NamedTuple):
    """The check of postcondition `idx`, a full tgd: its demanded rows, read once on the input."""

    idx: int
    demands: dict[tuple[str, frozenset[str]], set[Row]]

    def __call__(self, after: Instance) -> list[str]:
        return [] if holds_rows(self.demands.items(), after) else [_POST_FAILED.format(self.idx)]


def _residual_failures(factors: Sequence[tuple[str, frozenset[str], AbstractSet[Row]]], after: Instance) -> list[str]:
    """Failures of the claim that the product of these projections is
    unchanged; with one factor, that the projection is."""
    # per factor: relation, rows on before, rows on after (None when the
    # result lacks a preserved attribute)
    checked = [(rel, old, after.projected(rel, attrs)) for rel, attrs, old in factors]
    lost = [rel for rel, _, new in checked if new is None]
    changed = [rel for rel, old, new in checked if new != old]
    # an empty factor on each side makes both products empty
    both_empty = not all(old for _, old, _ in checked) and not all(
        new for _, _, new in checked
    )
    if lost:
        return [_UNADDRESSABLE.format(", ".join(lost))]
    if changed and not both_empty:
        return [_CHANGED.format(", ".join(changed))]
    return []


def _safety_failures(
    idx: int, q: Query, old: Union[frozenset, Incompatible], before: Schema, after: Instance
) -> list[str]:
    if not is_compatible(q, after.schema):
        old = _UNFIT
    if isinstance(old, Incompatible):
        return [f"safety query {idx}: {old}"]
    # a total query's answers are typed by the attributes of its relations: a
    # result that changes them keeps none of them, even when both are empty
    typed = not isinstance(q, TotalQuery) or all(
        after.schema.attrs(r) == before.attrs(r) for r in q.relations
    )
    return [] if typed and old <= evaluate_query(q, after) else [_ANSWERS_LOST.format(idx)]


def _total_kept(idx: int, rel: str, attrs: frozenset[str], old: frozenset[Row], after: Instance) -> list[str]:
    """`_safety_failures` of safety query `idx`, an unfiltered `total rel`
    whose answers on the input are the rows `old` over `attrs`."""
    if not after.schema.defines(rel):
        return [f"safety query {idx}: {_UNFIT}"]
    return [] if after.schema.attrs(rel) == attrs and old <= after.rows(rel) else [_ANSWERS_LOST.format(idx)]


def _reads(*items: Union[Constraint, Query]) -> frozenset[str]:
    """The relations the items read rows of; a structure constraint reads the schema only."""
    return frozenset(demanded_attrs([c for c in items if not isinstance(c, StructureConstraint)], {}))


# The relations a clause reads rows of, and its failures on a result instance.
Clause = tuple[frozenset[str], Callable[[Instance], list[str]]]


def _post_clause(idx: int, c: Constraint, before: Instance, kept: frozenset[str]) -> Clause:
    # partial evaluation: every result reads the body as `before` does
    kept_body = isinstance(c, Tgd) and _reads(c.body) <= kept and is_compatible(c.body, before.schema)
    demanded = kept_body and demanded_rows(c, before)
    if not demanded:
        return _reads(c), partial(_post_failures, idx, c)
    demands: dict = {}
    for key, rows in demanded:
        demands.setdefault(key, set()).update(rows)
    return frozenset(rel for rel, _ in demands), Contained(idx, demands)


def _safety_clause(idx: int, q: Query, old: Union[frozenset, Incompatible], before: Instance) -> Clause:
    if isinstance(q, TotalQuery) and q.condition is None and len(q.relations) == 1 and isinstance(old, frozenset):
        (rel,) = q.relations
        return frozenset(q.relations), partial(_total_kept, idx, rel, before.schema.attrs(rel), before.rows(rel))
    return _reads(q), partial(_safety_failures, idx, q, old, before.schema)


def outcome_clauses(p: Procedure, inputs: OutcomeInputs, kept: frozenset[str] = frozenset()) -> list[Clause]:
    """The postcondition, residual and safety clauses of `p`, in that order.

    `inputs` must be `outcome_inputs(p, before)`. A clause is a pair
    (relations read, check); `check(after)` lists the clause's failures,
    and the same on any instance over `after`'s schema with the same rows
    in the relations read. The residual query is one clause, or one per
    relation when no factor of `before` is empty: two products of nonempty
    factors are equal exactly when every factor is. An unfiltered
    one-relation `total` query is a containment test of its rows.

    `kept` names relations every result the caller checks holds verbatim on
    `before`'s attributes, over a schema that keeps every attribute the
    scope does not name. The residual clauses that then always hold are left
    out, and a full tgd whose body reads only kept relations is `Contained`:
    a containment test of the rows it demands (`constraints.demanded_rows`,
    read once on `before`: partial evaluation).
    """
    if all(old for *_, old in inputs.residual):
        factor_groups = [(f,) for f in inputs.residual if f[0] not in kept]
    elif any(not old and rel in kept for rel, _, old in inputs.residual):
        factor_groups = []
    else:
        factor_groups = [inputs.residual]
    return [
        *(_post_clause(idx, c, inputs.before, kept) for idx, c in enumerate(p.post)),
        *((frozenset(rel for rel, *_ in fs), partial(_residual_failures, fs)) for fs in factor_groups),
        *(_safety_clause(idx, q, old, inputs.before) for idx, (q, old) in enumerate(zip(p.safe, inputs.safety))),
    ]


def possible_outcome_report(
    p: Procedure, before: Instance, after: Instance, *, inputs: OutcomeInputs | None = None
) -> OutcomeReport:
    """Check the four outcome clauses of `after` as a result of `p` on `before`.

    `inputs` must be `outcome_inputs(p, before)`; it is built here when not
    given. The failures are the applicability line, then those of each
    postcondition, of the residual query as one clause, and of each safety
    query. The residual clause holds when the residual query's answers are
    unchanged (see `preserved`); its one failure names every relation
    that lost its preserved attributes or, failing that, changed.
    """
    if inputs is None:
        inputs = outcome_inputs(p, before)
    post = [f for idx, c in enumerate(p.post) for f in _post_failures(idx, c, after)]
    residual = _residual_failures(inputs.residual, after)
    safety = [
        f
        for idx, (q, old) in enumerate(zip(p.safe, inputs.safety))
        for f in _safety_failures(idx, q, old, inputs.before.schema, after)
    ]
    failures = post + residual + safety
    if not inputs.applicable:
        failures.insert(0, "procedure is not applicable on the input instance")
    return OutcomeReport(inputs.applicable, not post, not residual, not safety, tuple(failures))


def scope_relations(p: Procedure) -> frozenset[str]:
    return frozenset(c.relation for c in p.scope)


SAFE_SCOPE = "safe_scope"
ALTER_SCHEMA = "alter_schema"
NEITHER = "neither"


def classify(p: Procedure) -> str:
    """Sort a procedure into the two analysis-friendly classes, or neither."""
    if not p.scope and not p.safe and all(
        isinstance(c, StructureConstraint) for c in p.post
    ):
        return ALTER_SCHEMA
    if p.post and all(isinstance(c, Tgd) for c in p.post):
        heads, bodies = _reads(*(d.head for d in p.post)), _reads(*(d.body for d in p.post))
        if heads & bodies:
            return NEITHER
        if not all(c.is_wildcard for c in p.scope):
            return NEITHER
        if scope_relations(p) != heads or len(p.scope) != len(heads):
            return NEITHER
        if len(p.safe) != 1:
            return NEITHER
        guard = p.safe[0]
        unfiltered = isinstance(guard, TotalQuery) and guard.condition is None
        if not unfiltered or frozenset(guard.relations) != heads:
            return NEITHER
        return SAFE_SCOPE
    return NEITHER


def is_safe_sequence(ps: Sequence[Procedure]) -> bool:
    """Chainable fragment: each step classified, and no step reads an earlier scope."""
    earlier: set[str] = set()
    for p in ps:
        kind = classify(p)
        if kind == NEITHER:
            return False
        if kind == SAFE_SCOPE:
            if _reads(*(d.body for d in p.post)) & earlier:
                return False
            earlier |= scope_relations(p)
    return True


def _structure_pre_for(q: ConjunctiveQuery) -> list[StructureConstraint]:
    return [
        StructureConstraint.of(a.relation, sorted(a.attrs))
        for a in q.atoms
        if isinstance(a, NamedAtom)
    ]


def _distinct(names: Iterable[str], what: str) -> list[str]:
    out = sorted(names)
    if len(set(out)) != len(out):
        raise MalformedParams(f"{what} must be distinct, got {out}")
    return out


def _template_data_exchange(params: Mapping) -> Procedure:
    deps = list(params["dependencies"])
    if not deps:
        raise MalformedParams("data_exchange needs at least one dependency")
    if not all(isinstance(d, Tgd) for d in deps):
        raise MalformedParams("data_exchange accepts tuple-generating dependencies only")
    heads, bodies = _reads(*(d.head for d in deps)), _reads(*(d.body for d in deps))
    if heads & bodies:
        raise MalformedParams(
            f"source and target relations must be disjoint, got both: {sorted(heads & bodies)}"
        )
    pre = []
    for d in deps:
        pre.extend(_structure_pre_for(d.body))
    return Procedure.of(
        scope=[StructureConstraint.of(r) for r in sorted(heads)],
        pre=pre,
        post=deps,
        safe=[TotalQuery(tuple(sorted(heads | bodies)))],
        name=str(params.get("name", "data_exchange")),
    )


def _template_alter_table(params: Mapping) -> Procedure:
    rel = params["relation"]
    attrs = _distinct(params["attributes"], "alter_table attributes")
    if not attrs:
        raise MalformedParams("alter_table needs at least one new attribute")
    return Procedure.of(
        pre=[StructureConstraint.of(rel)],
        post=[StructureConstraint.of(rel, attrs)],
        name=str(params.get("name", f"alter_{rel}")),
    )


def _template_attribute_copy(params: Mapping) -> Procedure:
    target, source = params["target"], params["source"]
    keys = _distinct(params["keys"], "attribute_copy keys")
    attr = params["attribute"]
    if not keys:
        raise MalformedParams("attribute_copy needs at least one key attribute")
    if attr in keys:
        raise MalformedParams("the copied attribute cannot be one of the keys")
    if target == source:
        raise MalformedParams("attribute_copy needs distinct source and target")
    z, w = Var("z"), Var("w")
    key_vars = {k: Var(f"k.{k}") for k in keys}
    src_z = NamedAtom.of(source, {**key_vars, attr: z})
    src_w = NamedAtom.of(source, {**key_vars, attr: w})
    tgt_w = NamedAtom.of(target, {**key_vars, attr: w})
    free = tuple(sorted(key_vars.values())) + (w, z)
    functional = Egd(ConjunctiveQuery((src_z, src_w), free, frozenset()), (z, w))
    copied = Egd(ConjunctiveQuery((src_z, tgt_w), free, frozenset()), (z, w))
    return Procedure.of(
        scope=[StructureConstraint.of(target, [attr])],
        pre=[
            StructureConstraint.of(target, keys + [attr]),
            StructureConstraint.of(source, keys + [attr]),
            functional,
        ],
        post=[copied],
        name=str(params.get("name", f"copy_{attr}")),
    )


def _template_null_scrub(params: Mapping) -> Procedure:
    rel = params["relation"]
    attr = params["attribute"]
    keep = _distinct(params.get("keep", ()), "null_scrub kept attributes")
    if attr in keep:
        raise MalformedParams("the scrubbed attribute cannot be kept fixed")
    x = Var("x")
    post = Tgd(
        ConjunctiveQuery((NamedAtom.of(rel, {attr: x}),), (x,), frozenset()),
        ConjunctiveQuery((ConstantAtom(x),), (x,), frozenset()),
    )
    keep_vars = {a: Var(f"k.{a}") for a in keep}
    guard_atom = NamedAtom.of(rel, {**keep_vars, attr: x})
    guard = ConjunctiveQuery(
        (guard_atom, ConstantAtom(x)),
        (x,) + tuple(sorted(keep_vars.values())),
        frozenset(),
    )
    return Procedure.of(
        scope=[StructureConstraint.of(rel, [attr])],
        pre=[StructureConstraint.of(rel, [attr])],
        post=[post],
        safe=[guard],
        name=str(params.get("name", f"scrub_{rel}_{attr}")),
    )


def _template_sql_insert(params: Mapping) -> Procedure:
    rel = params["relation"]
    columns = list(params["columns"])
    if len(set(columns)) != len(columns) or not columns:
        raise MalformedParams("insert columns must be nonempty and distinct")
    if "query" in params and "values" in params:
        raise MalformedParams("insert takes a query or values, not both")
    if "query" in params:
        q = params["query"]
        if not isinstance(q, ConjunctiveQuery):
            raise MalformedParams("the insert query must be a conjunctive query")
        if len(q.free) != len(columns):
            raise MalformedParams(
                f"query arity {len(q.free)} does not match {len(columns)} columns"
            )
        body = ConjunctiveQuery(
            q.atoms, tuple(sorted(set(q.free) | q.existential)), frozenset()
        )
        head = ConjunctiveQuery(
            (NamedAtom.of(rel, dict(zip(columns, q.free))),),
            tuple(sorted(q.free)),
            frozenset(),
        )
        pre = _structure_pre_for(q)
    elif "values" in params:
        values = list(params["values"])
        if len(values) != len(columns):
            raise MalformedParams(
                f"{len(values)} values do not match {len(columns)} columns"
            )
        if not all(isinstance(v, Value) for v in values):
            raise MalformedParams("insert values must be data values")
        body = cq([])
        head = ConjunctiveQuery(
            (NamedAtom.of(rel, dict(zip(columns, values))),), (), frozenset()
        )
        pre = []
    else:
        raise MalformedParams("insert needs a query or a tuple of values")
    return Procedure.of(
        scope=[StructureConstraint.of(rel)],
        pre=pre,
        post=[Tgd(body, head)],
        safe=[TotalQuery((rel,))],
        name=str(params.get("name", f"insert_{rel}")),
    )


def _template_sql_delete(params: Mapping) -> Procedure:
    rel = params["relation"]
    condition: BooleanCondition = params["condition"]
    attrs = sorted(condition_attrs(condition))
    return Procedure.of(
        scope=[StructureConstraint.of(rel)],
        pre=[StructureConstraint.of(rel, attrs)] if attrs else [StructureConstraint.of(rel)],
        post=[],
        safe=[TotalQuery((rel,), Not(condition))],
        name=str(params.get("name", f"delete_{rel}")),
    )


class Template(NamedTuple):
    """A stock procedure shape: its builder, and its parameters in the order
    a template call lists them, as `;`-separated groups. A group maps its
    parameters, separated by ',', to their shape: one "relation" or
    "attribute" name, a comma list of "attributes" or of "dependencies"
    names, a comma list of "values" (or `query` and a query name), or a
    "condition". The last `optional` groups may be left out."""

    build: Callable[[Mapping], Procedure]
    groups: tuple[Mapping[str, str], ...]
    optional: int = 0


TEMPLATE_KINDS = {
    "data_exchange": Template(_template_data_exchange, ({"dependencies": "dependencies"},)),
    "alter_table": Template(_template_alter_table, ({"relation": "relation"}, {"attributes": "attributes"})),
    "attribute_copy": Template(_template_attribute_copy, (
        {"target": "relation", "source": "relation"}, {"keys": "attributes"}, {"attribute": "attribute"})),
    "null_scrub": Template(_template_null_scrub, (
        {"relation": "relation"}, {"attribute": "attribute"}, {"keep": "attributes"}), optional=1),
    "sql_insert": Template(_template_sql_insert, (
        {"relation": "relation"}, {"columns": "attributes"}, {"values": "values"})),
    "sql_delete": Template(_template_sql_delete, ({"relation": "relation"}, {"condition": "condition"})),
}


def instantiate_template(kind: str, params: Mapping) -> Procedure:
    """Build one of the stock procedure shapes from its parameters."""
    if kind not in TEMPLATE_KINDS:
        raise MalformedParams(
            f"unknown template {kind!r}; expected one of {sorted(TEMPLATE_KINDS)}"
        )
    try:
        return TEMPLATE_KINDS[kind].build(params)
    except KeyError as e:
        raise MalformedParams(f"template {kind} is missing parameter {e.args[0]!r}") from e
