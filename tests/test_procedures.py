from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqworkbench.constraints import (
    Comparison,
    ConjunctiveQuery,
    Egd,
    NamedAtom,
    Not,
    StructureConstraint,
    Tgd,
    TotalQuery,
    Var,
    cq,
    is_compatible,
    satisfies,
)
from dqworkbench.errors import MalformedParams
from dqworkbench.model import Instance, Row, Schema, const, null_marker, with_cells
from dqworkbench.procedures import (
    ALTER_SCHEMA,
    NEITHER,
    SAFE_SCOPE,
    Procedure,
    classify,
    instantiate_template,
    is_applicable,
    is_safe_sequence,
    outcome_clauses,
    outcome_inputs,
    possible_outcome_report,
    preserved,
    scope_map,
)

from .conftest import migrate_cq_proc, migrate_total_proc, migration_tgd, open_cq, visit
from .reference_queries import canonicalize_cq, residual_query

X, Y, Z, W = Var("x"), Var("y"), Var("z"), Var("w")


# Residual query construction


def test_residual_worked_example():
    s = Schema.of({"R": ("A1", "A2"), "T": ("B1", "B2", "B3"), "S": ("A1", "B1")})
    scope = [StructureConstraint.of("R"), StructureConstraint.of("S", ["B1"])]
    got = residual_query(s, scope)
    b1, b2, b3, a1 = Var("b1"), Var("b2"), Var("b3"), Var("a1")
    want = cq(
        [
            NamedAtom.of("T", {"B1": b1, "B2": b2, "B3": b3}),
            NamedAtom.of("S", {"A1": a1}),
        ],
        free=[b1, b2, b3, a1],
    )
    assert canonicalize_cq(got) == canonicalize_cq(want)


def test_residual_empty_scope_takes_everything(visit_schema):
    q = residual_query(visit_schema, [])
    assert len(q.atoms) == 2
    assert {a.relation for a in q.atoms} == {"EVisits", "LocVisits"}
    assert all(len(a.bindings) == 3 for a in q.atoms)


def test_residual_full_scope_is_empty_query(visit_schema):
    scope = [StructureConstraint.of("EVisits"), StructureConstraint.of("LocVisits")]
    q = residual_query(visit_schema, scope)
    assert q.atoms == ()
    assert q.free == ()


def test_residual_compatible_and_scope_free(visit_schema):
    scope = [StructureConstraint.of("LocVisits")]
    q = residual_query(visit_schema, scope)
    assert is_compatible(q, visit_schema)
    assert all(a.relation != "LocVisits" for a in q.atoms)


def test_residual_fully_pinned_relation_keeps_empty_conjunct():
    s = Schema.of({"R": ("a",)})
    q = residual_query(s, [StructureConstraint.of("R", ["a"])])
    assert len(q.atoms) == 1
    assert q.atoms[0].bindings == ()


def test_procedure_of_drops_repeats_in_first_appearance_order():
    # 3,000 distinct entries, each twice: a pairwise membership scan takes seconds
    scope = [StructureConstraint.of(f"R{k % 3000}") for k in range(6000)]
    start = time.perf_counter()
    p = Procedure.of(scope=scope, safe=[TotalQuery(("R1",)), TotalQuery(("R0",))] * 2)
    assert time.perf_counter() - start < 1.0
    assert p.scope == tuple(scope[:3000])
    assert p.safe == (TotalQuery(("R1",)), TotalQuery(("R0",)))


def test_scope_map_unites_entries_and_lets_a_wildcard_win():
    a, b, wild = (
        StructureConstraint.of("R", ["a"]),
        StructureConstraint.of("R", ["b"]),
        StructureConstraint.of("R"),
    )
    assert scope_map([a, b, StructureConstraint.of("T")]) == {
        "R": frozenset({"a", "b"}),
        "T": None,
    }
    assert scope_map([a, wild, b]) == scope_map([wild, a]) == {"R": None}
    assert scope_map([]) == {}


def test_split_scope_residual_matches_the_joined_entry():
    s = Schema.of({"R": ("a", "b", "c")})
    split = [StructureConstraint.of("R", ["a"]), StructureConstraint.of("R", ["b"])]
    assert preserved(s, split) == preserved(s, [StructureConstraint.of("R", ["a", "b"])]) == [("R", {"c"})]
    assert preserved(s, split + [StructureConstraint.of("R")]) == []


# Applicability


def test_migration_applicable_on_fig1(instance_i):
    assert is_applicable(migrate_cq_proc(), instance_i)
    assert is_applicable(migrate_total_proc(), instance_i)


def test_not_applicable_without_source_relation():
    s = Schema.of({"LocVisits": ("facility", "patInsur", "timestp")})
    i = Instance.of(s)
    assert not is_applicable(migrate_cq_proc(), i)


def test_empty_procedure_applicable_anywhere(instance_i):
    assert is_applicable(Procedure.of(), instance_i)


def test_incompatible_safety_query_blocks_applicability(instance_i):
    p = Procedure.of(safe=[TotalQuery(("Patients",))])
    assert not is_applicable(p, instance_i)


# The four-clause outcome check on the running example


@pytest.fixture
def migrate():
    return migrate_cq_proc()


def test_fig1_outcomes_yes(migrate, instance_i, instance_j1, instance_j2, instance_j3):
    assert possible_outcome_report(migrate, instance_i, instance_j1).ok
    assert possible_outcome_report(migrate, instance_i, instance_j2).ok
    assert possible_outcome_report(migrate, instance_i, instance_j3).ok


def test_fig1_identity_fails_postcondition(migrate, instance_i):
    report = possible_outcome_report(migrate, instance_i, instance_i)
    assert not report.ok
    assert report.applicable
    assert not report.post_ok


def test_fig1_dropped_row_fails_safety(migrate, instance_i, visit_schema):
    j1_without_old_row = Instance.of(
        visit_schema,
        {
            "EVisits": instance_i.rows("EVisits"),
            "LocVisits": {
                visit(1234, 33, "070916 12:00"),
                visit(2087, 91, "090916 03:10"),
            },
        },
    )
    report = possible_outcome_report(migrate, instance_i, j1_without_old_row)
    assert not report.ok
    assert not report.safety_ok
    assert report.post_ok


def test_fig1_changed_evisits_fails_residual(migrate, instance_i, visit_schema):
    j = Instance.of(
        visit_schema,
        {
            "EVisits": instance_i.rows("EVisits") | {visit(7, 8, "x")},
            "LocVisits": instance_i.rows("LocVisits")
            | {visit(2087, 91, "090916 03:10")},
        },
    )
    report = possible_outcome_report(migrate, instance_i, j)
    assert not report.ok
    assert not report.residual_ok


def test_total_safety_rejects_arity_growth(instance_i, instance_j3):
    assert not possible_outcome_report(migrate_total_proc(), instance_i, instance_j3).ok
    assert possible_outcome_report(migrate_cq_proc(), instance_i, instance_j3).ok


def test_total_safety_types_the_answers_of_an_empty_relation():
    # an empty R(a, b) keeps no answers over R(a) or R(a, b, c): the checker
    # agrees with min_schema's arity pin
    p = Procedure.of(scope=[StructureConstraint.of("R", ["b"])], safe=[TotalQuery(("R",))])
    before = Instance.of(Schema.of({"R": ("a", "b")}))
    for attrs in [("a",), ("a", "b", "c")]:
        report = possible_outcome_report(p, before, Instance.of(Schema.of({"R": attrs})))
        assert report.failures == ("safety query 0 lost answers",)
    assert possible_outcome_report(p, before, before).ok


def test_clauses_of_relations_kept_verbatim_are_left_out():
    s = Schema.of({"R": ("a",), "T": ("a",), "U": ("a",)})
    one = Row.of({"a": const(1)})
    p = Procedure.of(scope=[StructureConstraint.of("U")])

    def residual_reads(before, kept):
        return [reads for reads, _ in outcome_clauses(p, outcome_inputs(p, before), kept)]

    full = Instance.of(s, {"R": [one], "T": [one]})
    assert residual_reads(full, frozenset()) == [{"R"}, {"T"}]
    assert residual_reads(full, frozenset({"R"})) == [{"T"}]
    # one joint clause while a factor is empty; a kept empty factor keeps it empty
    no_t = Instance.of(s, {"R": [one]})
    assert residual_reads(no_t, frozenset()) == [{"R", "T"}]
    assert residual_reads(no_t, frozenset({"R"})) == [{"R", "T"}]
    assert residual_reads(no_t, frozenset({"T"})) == []


def test_strict_vs_per_relation_residual():
    # R changes, but T is empty on both sides, so the joint residual query
    # has no answers on either: R's change is not a per-relation failure
    s = Schema.of({"R": ("a",), "T": ("a",)})
    before = Instance.of(s, {"R": [Row.of({"a": const(1)})]})
    after = Instance.of(s, {"R": [Row.of({"a": const(1)}), Row.of({"a": const(2)})]})
    assert possible_outcome_report(Procedure.of(), before, after).ok


def test_residual_failures_name_their_relations():
    s = Schema.of({"R": ("a",), "T": ("a",), "U": ("a",)})
    one, two = Row.of({"a": const(1)}), Row.of({"a": const(2)})
    before = Instance.of(s, {"R": [one], "T": [one], "U": [one]})
    after = Instance.of(s, {"R": [two], "T": [one], "U": [two]})
    p = Procedure.of()
    assert possible_outcome_report(p, before, after).failures == (
        "content outside the scope changed in R, U",
    )
    narrowed = Instance.of(
        Schema.of({"R": ("a",), "T": ("a",), "U": ()}), {"R": [one], "T": [one]}
    )
    assert possible_outcome_report(p, before, narrowed).failures == (
        "preserved content no longer addressable: "
        "result schema dropped preserved attributes of U",
    )


def _join_proc() -> Procedure:
    return Procedure.of(
        scope=[StructureConstraint.of("U")],
        post=[
            Tgd(
                open_cq(
                    [NamedAtom.of("R", {"a": X, "b": Y}), NamedAtom.of("T", {"b": Y, "c": Z})]
                ),
                open_cq([NamedAtom.of("U", {"a": X, "c": Z})]),
            )
        ],
        safe=[TotalQuery(("U",))],
    )


def test_outcome_check_scales_linearly_with_the_residual():
    # the residual of R(a,b), T(b,c) -> U(a,c) is R and T; their product
    # would hold 10^6 tuples per side at 1,000 rows
    s = Schema.of({"R": ("a", "b"), "T": ("b", "c"), "U": ("a", "c")})
    join = _join_proc()

    def clocked(n: int) -> float:
        r = [Row.of({"a": const(k), "b": const(f"b{k}")}) for k in range(n)]
        t = [Row.of({"b": const(f"b{k}"), "c": const(-k)}) for k in range(n)]
        u = [Row.of({"a": const(k), "c": const(-k)}) for k in range(n)]
        before = Instance.of(s, {"R": r, "T": t})
        after = Instance.of(s, {"R": r, "T": t, "U": u})
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            assert possible_outcome_report(join, before, after).ok
            best = min(best, time.perf_counter() - t0)
        return best

    t100, t1000 = clocked(100), clocked(1000)
    assert t1000 < 2.0, t1000
    # quadratic growth would show ~100x per decade
    assert t1000 / max(t100, 1e-3) < 30.0, (t100, t1000)


# Templates


def test_data_exchange_template_shape():
    p = instantiate_template("data_exchange", {"dependencies": [migration_tgd()]})
    assert p.scope == (StructureConstraint.of("LocVisits"),)
    assert p.pre == (
        StructureConstraint.of("EVisits", ("facility", "patInsur", "timestp")),
    )
    assert p.post == (migration_tgd(),)
    assert p.safe == (TotalQuery(("EVisits", "LocVisits")),)


def test_data_exchange_admits_j1(instance_i, instance_j1):
    p = instantiate_template("data_exchange", {"dependencies": [migration_tgd()]})
    assert is_applicable(p, instance_i)
    assert possible_outcome_report(p, instance_i, instance_j1).ok


def test_data_exchange_matches_dependency_satisfaction():
    s = Schema.of({"R": ("a",), "T": ("a",)})
    dep = Tgd(open_cq([NamedAtom.of("R", {"a": X})]), open_cq([NamedAtom.of("T", {"a": X})]))
    p = instantiate_template("data_exchange", {"dependencies": [dep]})
    before = Instance.of(s, {"R": [Row.of({"a": const(1)}), Row.of({"a": const(2)})]})

    def with_target(values) -> Instance:
        return Instance.of(
            s,
            {
                "R": before.rows("R"),
                "T": [Row.of({"a": const(v)}) for v in values],
            },
        )

    for values in ([1, 2], [1, 2, 3]):
        candidate = with_target(values)
        assert satisfies(dep, candidate)
        assert possible_outcome_report(p, before, candidate).ok
    for values in ([], [1], [3]):
        candidate = with_target(values)
        assert not satisfies(dep, candidate)
        assert not possible_outcome_report(p, before, candidate).ok


def test_alter_table_template():
    p = instantiate_template("alter_table", {"relation": "LocVisits", "attributes": ["age"]})
    assert p.scope == ()
    assert p.safe == ()
    assert p.pre == (StructureConstraint.of("LocVisits"),)
    assert p.post == (StructureConstraint.of("LocVisits", ["age"]),)
    assert classify(p) == ALTER_SCHEMA


def test_alter_table_outcome_behavior(instance_i, instance_j1, aged_schema):
    p = instantiate_template("alter_table", {"relation": "LocVisits", "attributes": ["age"]})
    aged = Instance.of(
        aged_schema,
        {
            "EVisits": instance_i.rows("EVisits"),
            "LocVisits": [with_cells(r, {"age": const(5)}) for r in instance_i.rows("LocVisits")],
        },
    )
    assert possible_outcome_report(p, instance_i, aged).ok
    assert not possible_outcome_report(p, instance_i, instance_i).ok
    assert not possible_outcome_report(p, instance_i, instance_j1).ok


def test_attribute_copy_template():
    p = instantiate_template(
        "attribute_copy",
        {
            "target": "LocVisits",
            "source": "Patients",
            "keys": ["facility", "patInsur"],
            "attribute": "age",
        },
    )
    assert p.scope == (StructureConstraint.of("LocVisits", ["age"]),)
    assert len(p.pre) == 3
    assert len(p.post) == 1
    assert isinstance(p.post[0], Egd)
    assert p.safe == ()

    s = Schema.of(
        {
            "LocVisits": ("age", "facility", "patInsur"),
            "Patients": ("age", "facility", "patInsur"),
        }
    )

    def inst(loc_age, patients_rows):
        return Instance.of(
            s,
            {
                "LocVisits": [
                    Row.of(
                        {"facility": const(1234), "patInsur": const(33), "age": loc_age}
                    )
                ],
                "Patients": patients_rows,
            },
        )

    patients = [
        Row.of({"facility": const(1234), "patInsur": const(33), "age": const(21)})
    ]
    before = inst(null_marker("n"), patients)
    good = inst(const(21), patients)
    bad = inst(const(99), patients)
    assert is_applicable(p, before)
    assert possible_outcome_report(p, before, good).ok
    assert not possible_outcome_report(p, before, bad).ok

    conflicted = inst(
        null_marker("n"),
        patients
        + [Row.of({"facility": const(1234), "patInsur": const(33), "age": const(45)})],
    )
    assert not is_applicable(p, conflicted)


def test_null_scrub_template():
    p = instantiate_template(
        "null_scrub", {"relation": "R", "attribute": "a", "keep": ["b"]}
    )
    s = Schema.of({"R": ("a", "b")})
    before = Instance.of(
        s,
        {
            "R": [
                Row.of({"a": const(1), "b": const(10)}),
                Row.of({"a": null_marker("n"), "b": const(20)}),
            ]
        },
    )
    scrubbed = Instance.of(
        s,
        {
            "R": [
                Row.of({"a": const(1), "b": const(10)}),
                Row.of({"a": const(0), "b": const(20)}),
            ]
        },
    )
    dropped = Instance.of(s, {"R": [Row.of({"a": const(0), "b": const(20)})]})
    assert is_applicable(p, before)
    assert possible_outcome_report(p, before, scrubbed).ok
    assert not possible_outcome_report(p, before, before).ok
    assert not possible_outcome_report(p, before, dropped).ok


def test_sql_insert_query_form(instance_i, instance_j1, instance_j2):
    q = cq(
        [NamedAtom.of("EVisits", {"facility": X, "patInsur": Y, "timestp": Z})],
        free=[X, Y, Z],
    )
    p = instantiate_template(
        "sql_insert",
        {
            "relation": "LocVisits",
            "columns": ["facility", "patInsur", "timestp"],
            "query": q,
        },
    )
    assert p.safe == (TotalQuery(("LocVisits",)),)
    assert possible_outcome_report(p, instance_i, instance_j1).ok
    assert possible_outcome_report(p, instance_i, instance_j2).ok
    assert not possible_outcome_report(p, instance_i, instance_i).ok


def test_sql_insert_values_form(instance_i, visit_schema):
    p = instantiate_template(
        "sql_insert",
        {
            "relation": "LocVisits",
            "columns": ["facility", "patInsur", "timestp"],
            "values": [const(4561), const(54), const("080916 23:45")],
        },
    )
    target = Instance.of(
        visit_schema,
        {
            "EVisits": instance_i.rows("EVisits"),
            "LocVisits": instance_i.rows("LocVisits") | {visit(4561, 54, "080916 23:45")},
        },
    )
    assert possible_outcome_report(p, instance_i, target).ok
    assert not possible_outcome_report(p, instance_i, instance_i).ok


def test_sql_delete_template(instance_i, visit_schema):
    p = instantiate_template(
        "sql_delete",
        {"relation": "LocVisits", "condition": Comparison("facility", "=", const(1222))},
    )
    assert p.post == ()
    assert p.safe[0].condition is not None
    kept = Instance.of(
        visit_schema,
        {
            "EVisits": instance_i.rows("EVisits"),
            "LocVisits": [visit(1234, 33, "070916 12:00")],
        },
    )
    overdeleted = Instance.of(
        visit_schema,
        {"EVisits": instance_i.rows("EVisits"), "LocVisits": []},
    )
    assert possible_outcome_report(p, instance_i, kept).ok
    assert possible_outcome_report(p, instance_i, instance_i).ok
    assert not possible_outcome_report(p, instance_i, overdeleted).ok


def test_template_parameter_validation():
    with pytest.raises(MalformedParams):
        instantiate_template("nope", {})
    with pytest.raises(MalformedParams):
        instantiate_template("data_exchange", {"dependencies": []})
    body = open_cq([NamedAtom.of("R", {"a": X}), NamedAtom.of("R", {"a": Y})])
    with pytest.raises(MalformedParams):
        instantiate_template("data_exchange", {"dependencies": [Egd(body, (X, Y))]})
    loop = Tgd(open_cq([NamedAtom.of("R", {"a": X})]), open_cq([NamedAtom.of("R", {"a": X})]))
    with pytest.raises(MalformedParams):
        instantiate_template("data_exchange", {"dependencies": [loop]})
    with pytest.raises(MalformedParams):
        instantiate_template("alter_table", {"relation": "R", "attributes": []})
    with pytest.raises(MalformedParams):
        instantiate_template("alter_table", {"relation": "R"})
    with pytest.raises(MalformedParams):
        instantiate_template(
            "attribute_copy",
            {"target": "T", "source": "S", "keys": ["k"], "attribute": "k"},
        )
    with pytest.raises(MalformedParams):
        instantiate_template(
            "sql_insert",
            {"relation": "T", "columns": ["a", "b"], "values": [const(1)]},
        )


# Classification and safe sequences


def test_classify_migration_variants():
    assert classify(migrate_cq_proc()) == NEITHER
    assert classify(migrate_total_proc()) == SAFE_SCOPE


def test_classify_filtering_procedure_is_neither():
    p2 = Procedure.of(
        post=[Tgd(open_cq([NamedAtom.of("T", {"a": X})]), open_cq([NamedAtom.of("R", {"a": X})]))]
    )
    assert classify(p2) == NEITHER


def test_classify_noop_procedure_is_alter_schema():
    assert classify(Procedure.of()) == ALTER_SCHEMA


def test_classify_requires_exact_scope():
    d = migration_tgd()
    widened = Procedure.of(
        scope=[StructureConstraint.of("LocVisits"), StructureConstraint.of("EVisits")],
        post=[d],
        safe=[TotalQuery(("LocVisits",))],
    )
    assert classify(widened) == NEITHER


def test_classify_accepts_total_conj_guard():
    d = migration_tgd()
    p = Procedure.of(
        scope=[StructureConstraint.of("LocVisits")],
        post=[d],
        safe=[TotalQuery(("LocVisits",))],
    )
    assert classify(p) == SAFE_SCOPE


def test_safe_sequence_basic():
    alter = instantiate_template("alter_table", {"relation": "LocVisits", "attributes": ["age"]})
    assert is_safe_sequence([])
    assert is_safe_sequence([migrate_total_proc()])
    assert is_safe_sequence([migrate_total_proc(), alter])
    assert not is_safe_sequence([migrate_cq_proc()])


def test_safe_sequence_rejects_reading_earlier_scope():
    p1 = Procedure.of(
        scope=[StructureConstraint.of("T")],
        post=[Tgd(open_cq([NamedAtom.of("R", {"a": X})]), open_cq([NamedAtom.of("T", {"a": X})]))],
        safe=[TotalQuery(("T",))],
    )
    p2 = Procedure.of(
        scope=[StructureConstraint.of("V")],
        post=[Tgd(open_cq([NamedAtom.of("T", {"a": X})]), open_cq([NamedAtom.of("V", {"a": X})]))],
        safe=[TotalQuery(("V",))],
    )
    p2_fresh_source = Procedure.of(
        scope=[StructureConstraint.of("T")],
        post=[Tgd(open_cq([NamedAtom.of("U", {"a": X})]), open_cq([NamedAtom.of("T", {"a": X})]))],
        safe=[TotalQuery(("T",))],
    )
    assert not is_safe_sequence([p1, p2])
    assert is_safe_sequence([p2, p1])
    assert is_safe_sequence([p1, p2_fresh_source])


# Property: residual query never mentions scoped content.

rels = st.sampled_from(["R", "T", "U"])


@st.composite
def schema_and_scope(draw):
    names = draw(st.lists(rels, min_size=1, max_size=3, unique=True))
    mapping = {
        r: draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
        for r in names
    }
    s = Schema.of(mapping)
    scope = []
    for r in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
        if draw(st.booleans()):
            scope.append(StructureConstraint.of(r))
        else:
            attrs = draw(
                st.lists(st.sampled_from(sorted(mapping[r])), min_size=1, unique=True)
            )
            scope.append(StructureConstraint.of(r, attrs))
    return s, scope


@settings(max_examples=120, deadline=None)
@given(schema_and_scope())
def test_residual_never_mentions_scope(pair):
    s, scope = pair
    q = residual_query(s, scope)
    assert is_compatible(q, s)
    wild = {c.relation for c in scope if c.is_wildcard}
    for atom in q.atoms:
        assert atom.relation not in wild
        for c in scope:
            if not c.is_wildcard and c.relation == atom.relation:
                assert not (atom.attrs & set(c.attributes))
    names = [v.name for a in q.atoms for v in sorted(a.vars)]
    assert len(names) == len(set(names))
