"""Black-box procedure records and their outcome semantics.

A procedure declares what it may touch (scope), what it needs (pre),
what it guarantees (post), and which query answers it preserves (safe).
The checker decides whether one instance is a possible outcome of
running the procedure on another; nothing here executes anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import Incompatible, MalformedParams
from .model import Instance, Schema, Value
from .constraints import (
    BooleanCondition,
    ConjunctiveQuery,
    Constraint,
    ConstantAtom,
    Egd,
    FilteredTotalQuery,
    NamedAtom,
    Not,
    Query,
    StructureConstraint,
    Tgd,
    TotalConjQuery,
    TotalQuery,
    Var,
    condition_attrs,
    cq,
    evaluate_query,
    is_compatible,
    satisfies,
)


def _dedup(items: Iterable) -> tuple:
    out = []
    for item in items:
        if item not in out:
            out.append(item)
    return tuple(out)


@dataclass(frozen=True)
class Procedure:
    scope: tuple[StructureConstraint, ...]
    pre: tuple[Constraint, ...]
    post: tuple[Constraint, ...]
    safe: tuple[Query, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        for c in self.scope:
            if not isinstance(c, StructureConstraint):
                raise MalformedParams("scope may contain only structure constraints")

    @staticmethod
    def of(
        scope: Iterable[StructureConstraint] = (),
        pre: Iterable[Constraint] = (),
        post: Iterable[Constraint] = (),
        safe: Iterable[Query] = (),
        name: str = "",
    ) -> "Procedure":
        return Procedure(_dedup(scope), _dedup(pre), _dedup(post), _dedup(safe), name)


def residual_atoms(s: Schema, scope: Iterable[StructureConstraint]) -> list[NamedAtom]:
    """One atom per relation whose content must survive outside the scope."""
    scope = list(scope)
    wild = {c.relation for c in scope if c.is_wildcard}
    pinned: dict[str, set[str]] = {}
    for c in scope:
        if not c.is_wildcard:
            pinned.setdefault(c.relation, set()).update(c.attributes)
    atoms = []
    for rel, attrs in s.rels:
        if rel in wild:
            continue
        keep = sorted(attrs - pinned[rel]) if rel in pinned else sorted(attrs)
        atoms.append(NamedAtom.of(rel, {a: Var(f"{rel}.{a}") for a in keep}))
    return atoms


def residual_query(s: Schema, scope: Iterable[StructureConstraint]) -> ConjunctiveQuery:
    """Conjunction retrieving everything the scope does not permit to change."""
    atoms = residual_atoms(s, scope)
    free = tuple(t for a in atoms for _, t in a.bindings if isinstance(t, Var))
    return ConjunctiveQuery(tuple(atoms), free, frozenset())


def is_applicable(p: Procedure, i: Instance) -> bool:
    """Schema fit of the safety queries plus precondition satisfaction.

    The residual query needs no check: it is built from the schema itself.
    """
    if not all(is_compatible(q, i.schema) for q in p.safe):
        return False
    for c in p.pre:
        try:
            if not satisfies(c, i):
                return False
        except Incompatible:
            return False
    return True


RESIDUAL_MODES = ("strict", "per-relation")


@dataclass(frozen=True)
class OutcomeReport:
    """Which of the four outcome clauses held, with human-readable failures."""

    applicable: bool
    post_ok: bool
    residual_ok: bool
    safety_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.applicable and self.post_ok and self.residual_ok and self.safety_ok


def possible_outcome_report(
    p: Procedure,
    before: Instance,
    after: Instance,
    residual_mode: str = "strict",
) -> OutcomeReport:
    if residual_mode not in RESIDUAL_MODES:
        raise ValueError(f"residual_mode must be one of {RESIDUAL_MODES}")
    failures: list[str] = []

    applicable = is_applicable(p, before)
    if not applicable:
        failures.append("procedure is not applicable on the input instance")

    post_ok = True
    for idx, c in enumerate(p.post):
        try:
            holds = satisfies(c, after)
        except Incompatible:
            holds = False
        if not holds:
            post_ok = False
            failures.append(f"postcondition {idx} does not hold on the result")

    if residual_mode == "strict":
        checks = [residual_query(before.schema, p.scope)]
    else:
        checks = [
            ConjunctiveQuery((a,), tuple(sorted(a.vars)), frozenset())
            for a in residual_atoms(before.schema, p.scope)
        ]
    residual_ok = True
    for q in checks:
        try:
            if not is_compatible(q, after.schema):
                raise Incompatible("result schema dropped preserved attributes")
            if evaluate_query(q, before) != evaluate_query(q, after):
                residual_ok = False
                failures.append("content outside the scope changed")
        except Incompatible as e:
            residual_ok = False
            failures.append(f"preserved content no longer addressable: {e}")

    safety_ok = True
    for idx, q in enumerate(p.safe):
        try:
            if not is_compatible(q, after.schema):
                raise Incompatible("safety query incompatible with the result schema")
            if not evaluate_query(q, before) <= evaluate_query(q, after):
                safety_ok = False
                failures.append(f"safety query {idx} lost answers")
        except Incompatible as e:
            safety_ok = False
            failures.append(f"safety query {idx}: {e}")

    return OutcomeReport(applicable, post_ok, residual_ok, safety_ok, tuple(failures))


def is_possible_outcome(
    p: Procedure, before: Instance, after: Instance, residual_mode: str = "strict"
) -> bool:
    return possible_outcome_report(p, before, after, residual_mode).ok


def _tgds_of(p: Procedure) -> list[Tgd]:
    return [c for c in p.post if isinstance(c, Tgd)]


def head_relations(d: Tgd) -> frozenset[str]:
    return frozenset(a.relation for a in d.head.atoms if isinstance(a, NamedAtom))


def body_relations(d: Tgd) -> frozenset[str]:
    return frozenset(a.relation for a in d.body.atoms if isinstance(a, NamedAtom))


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
        heads = frozenset(r for d in p.post for r in head_relations(d))
        bodies = frozenset(r for d in p.post for r in body_relations(d))
        if heads & bodies:
            return NEITHER
        if not all(c.is_wildcard for c in p.scope):
            return NEITHER
        if scope_relations(p) != heads or len(p.scope) != len(heads):
            return NEITHER
        if len(p.safe) != 1:
            return NEITHER
        guard = p.safe[0]
        if isinstance(guard, TotalQuery):
            if heads != {guard.relation}:
                return NEITHER
        elif isinstance(guard, TotalConjQuery):
            if frozenset(guard.relations) != heads:
                return NEITHER
        else:
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
            reads = frozenset(r for d in _tgds_of(p) for r in body_relations(d))
            if reads & earlier:
                return False
            earlier |= scope_relations(p)
    return True


def _structure_pre_for(q: ConjunctiveQuery) -> list[StructureConstraint]:
    return [
        StructureConstraint.of(a.relation, sorted(a.attrs))
        for a in q.atoms
        if isinstance(a, NamedAtom)
    ]


def _template_data_exchange(params: Mapping) -> Procedure:
    deps = list(params["dependencies"])
    if not deps:
        raise MalformedParams("data_exchange needs at least one dependency")
    if not all(isinstance(d, Tgd) for d in deps):
        raise MalformedParams("data_exchange accepts tuple-generating dependencies only")
    heads = frozenset(r for d in deps for r in head_relations(d))
    bodies = frozenset(r for d in deps for r in body_relations(d))
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
        safe=[TotalConjQuery(tuple(sorted(heads | bodies)))],
        name=str(params.get("name", "data_exchange")),
    )


def _template_alter_table(params: Mapping) -> Procedure:
    rel = params["relation"]
    attrs = sorted(params["attributes"])
    if not attrs:
        raise MalformedParams("alter_table needs at least one new attribute")
    return Procedure.of(
        pre=[StructureConstraint.of(rel)],
        post=[StructureConstraint.of(rel, attrs)],
        name=str(params.get("name", f"alter_{rel}")),
    )


def _template_attribute_copy(params: Mapping) -> Procedure:
    target, source = params["target"], params["source"]
    keys = sorted(params["keys"])
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
    functional = Egd(
        ConjunctiveQuery(
            (src_z, src_w), tuple(sorted(key_vars.values())) + (w, z), frozenset()
        ),
        (z, w),
    )
    copied = Egd(
        ConjunctiveQuery(
            (src_z, tgt_w), tuple(sorted(key_vars.values())) + (w, z), frozenset()
        ),
        (z, w),
    )
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
    keep = sorted(params.get("keep", ()))
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
        q: ConjunctiveQuery = params["query"]
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
        safe=[TotalQuery(rel)],
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
        safe=[FilteredTotalQuery(rel, Not(condition))],
        name=str(params.get("name", f"delete_{rel}")),
    )


TEMPLATE_KINDS = {
    "data_exchange": _template_data_exchange,
    "alter_table": _template_alter_table,
    "attribute_copy": _template_attribute_copy,
    "null_scrub": _template_null_scrub,
    "sql_insert": _template_sql_insert,
    "sql_delete": _template_sql_delete,
}


def instantiate_template(kind: str, params: Mapping) -> Procedure:
    """Build one of the stock procedure shapes from its parameters."""
    if kind not in TEMPLATE_KINDS:
        raise MalformedParams(
            f"unknown template {kind!r}; expected one of {sorted(TEMPLATE_KINDS)}"
        )
    try:
        return TEMPLATE_KINDS[kind](params)
    except KeyError as e:
        raise MalformedParams(f"template {kind} is missing parameter {e.args[0]!r}") from e
