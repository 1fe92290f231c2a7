from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqworkbench.analyzer import (
    Failure,
    SchemaRequirement,
    min_schema,
    sequence_applicability,
)
from dqworkbench.constraints import (
    NamedAtom,
    StructureConstraint,
    Tgd,
    TotalQuery,
    Var,
)
from dqworkbench.errors import UnsupportedPrecondition
from dqworkbench.model import Schema
from dqworkbench.procedures import Procedure, instantiate_template

from .conftest import migrate_total_proc

X = Var("x")

VISIT_ATTRS = ("facility", "patInsur", "timestp")


def alter_age() -> Procedure:
    return instantiate_template(
        "alter_table", {"relation": "LocVisits", "attributes": ["age"]}
    )


def copy_age() -> Procedure:
    return instantiate_template(
        "attribute_copy",
        {
            "target": "LocVisits",
            "source": "Patients",
            "keys": ["facility", "patInsur"],
            "attribute": "age",
        },
    )


def test_alter_age_trace(visit_schema):
    req = min_schema(alter_age(), visit_schema)
    assert isinstance(req, SchemaRequirement)
    assert req.schema == Schema.of(
        {"EVisits": VISIT_ATTRS, "LocVisits": VISIT_ATTRS + ("age",)}
    )
    assert req.labels == ()


def test_safe_scope_migration_trace(visit_schema):
    req = min_schema(migrate_total_proc(), visit_schema)
    assert isinstance(req, SchemaRequirement)
    assert req.schema == Schema.of({"EVisits": VISIT_ATTRS, "LocVisits": VISIT_ATTRS})
    assert dict(req.labels) == {"LocVisits": 3}


def test_arity_pin_failure(visit_schema):
    p = migrate_total_proc()
    pinned = Procedure.of(
        scope=p.scope,
        pre=p.pre,
        post=list(p.post) + [StructureConstraint.of("LocVisits", ["age"])],
        safe=p.safe,
    )
    result = min_schema(pinned, visit_schema)
    assert isinstance(result, Failure)
    assert "LocVisits" in result.reason


def test_unmet_structural_precondition(visit_schema):
    p = Procedure.of(pre=[StructureConstraint.of("Patients")])
    assert isinstance(min_schema(p, visit_schema), Failure)


def test_incompatible_safety_query_fails(visit_schema):
    p = Procedure.of(safe=[TotalQuery(("Patients",))])
    assert isinstance(min_schema(p, visit_schema), Failure)


def test_data_precondition_rejected_by_default(visit_schema):
    with pytest.raises(UnsupportedPrecondition):
        min_schema(copy_age(), visit_schema)


def test_wildcard_post_adds_relation(visit_schema):
    p = Procedure.of(post=[StructureConstraint.of("Audit")])
    req = min_schema(p, visit_schema)
    assert isinstance(req, SchemaRequirement)
    assert req.schema.defines("Audit")
    assert req.schema.attrs("Audit") == frozenset()


def test_scoped_attributes_are_not_required():
    s = Schema.of({"R": ("a", "b")})
    p = Procedure.of(scope=[StructureConstraint.of("R", ["b"])])
    req = min_schema(p, s)
    assert isinstance(req, SchemaRequirement)
    assert req.schema.attrs("R") == frozenset({"a"})


def test_wildcard_scoped_relation_may_vanish():
    s = Schema.of({"R": ("a",), "T": ("b",)})
    p = Procedure.of(scope=[StructureConstraint.of("T")])
    req = min_schema(p, s)
    assert isinstance(req, SchemaRequirement)
    assert not req.schema.defines("T")
    assert req.schema.attrs("R") == frozenset({"a"})


def test_split_scope_entries_require_what_one_entry_requires():
    s = Schema.of({"R": ("a", "b", "c")})
    split = Procedure.of(
        scope=[StructureConstraint.of("R", ["a"]), StructureConstraint.of("R", ["b"])]
    )
    joint = Procedure.of(scope=[StructureConstraint.of("R", ["a", "b"])])
    assert min_schema(split, s) == min_schema(joint, s)
    assert min_schema(split, s).schema == Schema.of({"R": ("c",)})


def test_wildcard_entry_wins_over_named_entries():
    s = Schema.of({"R": ("a", "b"), "T": ("a",)})
    for scope in (
        [StructureConstraint.of("R"), StructureConstraint.of("R", ["a"])],
        [StructureConstraint.of("R", ["a"]), StructureConstraint.of("R")],
    ):
        req = min_schema(Procedure.of(scope=scope), s)
        assert req == min_schema(Procedure.of(scope=[StructureConstraint.of("R")]), s)
        assert req.schema == Schema.of({"T": ("a",)})


def test_empty_sequence_applicable(visit_schema):
    report = sequence_applicability([], visit_schema)
    assert report.applicable
    assert report.failure_index is None
    assert len(report.chain) == 1
    assert report.chain[0].schema == visit_schema


def test_three_step_pipeline_with_flag():
    full = Schema.of(
        {
            "EVisits": VISIT_ATTRS,
            "LocVisits": VISIT_ATTRS,
            "Patients": ("age", "facility", "patInsur"),
        }
    )
    seq = [migrate_total_proc(), alter_age(), copy_age()]
    report = sequence_applicability(seq, full, allow_data_preconditions=True)
    assert report.applicable
    final = report.chain[-1].schema
    assert final.attrs("LocVisits") == frozenset(VISIT_ATTRS + ("age",))
    assert len(report.chain) == 4


def test_copy_without_age_fails_at_first_step(visit_schema):
    report = sequence_applicability(
        [copy_age()], visit_schema, allow_data_preconditions=True
    )
    assert not report.applicable
    assert report.failure_index == 0
    assert report.failure is not None


def test_alter_then_dependent_step(visit_schema):
    report = sequence_applicability([alter_age(), copy_age()], visit_schema,
                                    allow_data_preconditions=True)
    assert not report.applicable
    assert report.failure_index == 1


def test_failure_chain_is_prefix(visit_schema):
    report = sequence_applicability(
        [alter_age(), copy_age()], visit_schema, allow_data_preconditions=True
    )
    assert len(report.chain) == 2


# Size bound: the analysis result never invents attributes beyond input plus procedure text.


def _procedure_text_attrs(p: Procedure) -> set[str]:
    attrs: set[str] = set()
    for c in list(p.pre) + list(p.post):
        if isinstance(c, StructureConstraint) and not c.is_wildcard:
            attrs.update(c.attributes)
        elif isinstance(c, Tgd):
            for q in (c.body, c.head):
                for a in q.atoms:
                    if isinstance(a, NamedAtom):
                        attrs.update(a.attrs)
    return attrs


@st.composite
def schemas(draw):
    names = draw(
        st.lists(st.sampled_from(["R", "T", "U"]), min_size=1, max_size=3, unique=True)
    )
    return Schema.of(
        {
            r: draw(
                st.lists(
                    st.sampled_from(["a", "b", "c", "d"]),
                    min_size=1,
                    max_size=4,
                    unique=True,
                )
            )
            for r in names
        }
    )


@st.composite
def structural_procedures(draw, s: Schema):
    names = list(s.names)
    scope = []
    for r in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
        scope.append(StructureConstraint.of(r))
    pre = []
    for r in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
        pre.append(StructureConstraint.of(r))
    post = []
    if draw(st.booleans()):
        rel = draw(st.sampled_from(names + ["Fresh"]))
        new_attr = draw(st.sampled_from(["e", "f"]))
        post.append(StructureConstraint.of(rel, [new_attr]))
    safe = []
    if draw(st.booleans()):
        safe.append(TotalQuery((draw(st.sampled_from(names)),)))
    return Procedure.of(scope=scope, pre=pre, post=post, safe=safe)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_min_schema_size_bound_and_post_coverage(data):
    s = data.draw(schemas())
    p = data.draw(structural_procedures(s))
    result = min_schema(p, s)
    if isinstance(result, Failure):
        return
    input_attrs = {a for _, attrs in s.rels for a in attrs}
    allowed = input_attrs | _procedure_text_attrs(p)
    for rel, attrs in result.schema.rels:
        assert attrs <= allowed
    for c in p.post:
        if isinstance(c, StructureConstraint):
            assert result.schema.defines(c.relation)
            if not c.is_wildcard:
                assert set(c.attributes) <= result.schema.attrs(c.relation)
