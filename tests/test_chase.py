"""Outcome approximation: chase and alter folding, certainty, planning."""

import itertools

import pytest

from dqworkbench import model
from dqworkbench.chase import (
    EMPTY,
    EmptyResult,
    approximate_outcomes,
    apply_alter_schema,
    canonical_table,
    certain_boolean_cq,
    chase_safe_scope,
    exact_scoped_representation,
    outcomes_nonempty,
    plan_search,
    ready_for,
)
from dqworkbench.constraints import (
    ConstantAtom,
    NamedAtom,
    StructureConstraint,
    Tgd,
    TotalQuery,
    Var,
    cq,
    satisfies,
)
from dqworkbench.ctables import (
    TRUE,
    CondEq,
    ConditionalInstance,
    LabeledNull,
    enumerate_minimal,
    rep_contains,
)
from dqworkbench.dsl import parse_workspace
from dqworkbench.errors import (
    BudgetExceeded,
    Incompatible,
    NotAlterSchema,
    NotSafeScope,
    NotSafeSequence,
    UnsupportedClass,
    UnsupportedPrecondition,
)
from dqworkbench.model import Instance, Row, Schema, const, null_marker
from dqworkbench.procedures import Procedure, instantiate_template

from .conftest import boolean_cq, migrate_cq_proc, migrate_total_proc, open_cq, visit


def visit_goal():
    return boolean_cq(
        [
            NamedAtom.of(
                "LocVisits",
                {
                    "facility": const(2087),
                    "patInsur": const(91),
                    "timestp": Var("z"),
                },
            )
        ]
    )


def alter_age_proc() -> Procedure:
    return instantiate_template(
        "alter_table", {"relation": "LocVisits", "attributes": ["age"]}
    )


class TestChaseSafeScope:
    def test_migration_fills_the_missing_visit(self, instance_i, instance_j1):
        t = ConditionalInstance.from_instance(instance_i)
        chased = chase_safe_scope(t, migrate_total_proc())
        assert chased.nulls() == frozenset()
        assert enumerate_minimal(chased) == frozenset({instance_j1})

    def test_existing_head_tuples_are_not_duplicated(self, instance_j1):
        t = ConditionalInstance.from_instance(instance_j1)
        assert chase_safe_scope(t, migrate_total_proc()) == t

    def test_existential_heads_take_fresh_nulls(self):
        s = Schema.of({"R": ["a"], "S": ["a", "b"]})
        x, y = Var("x"), Var("y")
        p = Procedure.of(
            scope=[StructureConstraint.of("S")],
            post=[
                Tgd(
                    open_cq([NamedAtom.of("R", {"a": x})]),
                    cq([NamedAtom.of("S", {"a": x, "b": y})], free=[x], existential=[y]),
                )
            ],
            safe=[TotalQuery(("S",))],
            name="expand",
        )
        i = Instance.of(s, {"R": {Row.of({"a": const("a0")})}})
        chased = chase_safe_scope(ConditionalInstance.from_instance(i), p, step=3)
        (pair,) = chased.rows("S")
        row, cond = pair
        assert cond == TRUE
        assert row.cell("a") == const("a0")
        assert row.cell("b") == LabeledNull("p3_t0_0_y")

    def test_attributes_the_head_leaves_unbound_get_fill_nulls(self):
        # the head atom names a subset of S's attributes; the rest are
        # unconstrained, so the added tuple carries fresh nulls there
        s = Schema.of({"R": ["a"], "S": ["a", "b"]})
        x = Var("x")
        p = Procedure.of(
            scope=[StructureConstraint.of("S")],
            post=[
                Tgd(
                    open_cq([NamedAtom.of("R", {"a": x})]),
                    cq([NamedAtom.of("S", {"a": x})], free=[x]),
                )
            ],
            safe=[TotalQuery(("S",))],
            name="project",
        )
        i = Instance.of(s, {"R": {Row.of({"a": const("a0")})}})
        chased = chase_safe_scope(ConditionalInstance.from_instance(i), p, step=1)
        (pair,) = chased.rows("S")
        row, cond = pair
        assert cond == TRUE
        assert row.cell("a") == const("a0")
        assert row.cell("b") == LabeledNull("p1_t0_0_a0.b")

    def test_partial_heads_match_existing_rows_on_their_own_attributes(self):
        s = Schema.of({"R": ["a"], "S": ["a", "b"]})
        x = Var("x")
        p = Procedure.of(
            scope=[StructureConstraint.of("S")],
            post=[
                Tgd(
                    open_cq([NamedAtom.of("R", {"a": x})]),
                    cq([NamedAtom.of("S", {"a": x})], free=[x]),
                )
            ],
            safe=[TotalQuery(("S",))],
            name="project",
        )
        i = Instance.of(
            s,
            {
                "R": {Row.of({"a": const("a0")})},
                "S": {Row.of({"a": const("a0"), "b": const("b7")})},
            },
        )
        chased = chase_safe_scope(ConditionalInstance.from_instance(i), p)
        assert len(chased.rows("S")) == 1

    def test_rejects_wrong_class_and_nonpositive_tables(self, instance_i):
        # every table is positive: a condition is a conjunction of equalities
        t = ConditionalInstance.from_instance(instance_i)
        with pytest.raises(NotSafeScope):
            chase_safe_scope(t, migrate_cq_proc())

    def test_rejects_posts_outside_the_schema(self):
        t = ConditionalInstance.from_instance(
            Instance.of(Schema.of({"R": ["a"], "S": ["a"]}))
        )
        p = simple_copy_proc("R", "S", extra_attr="b")
        with pytest.raises(Incompatible):
            chase_safe_scope(t, p)

    def test_null_cells_match_under_induced_conditions(self):
        s = Schema.of({"R": ["k", "a"], "S": ["a"], "V": ["a"]})
        x, k = Var("x"), Var("k")
        p = Procedure.of(
            scope=[StructureConstraint.of("V")],
            post=[
                Tgd(
                    open_cq(
                        [
                            NamedAtom.of("R", {"k": k, "a": x}),
                            NamedAtom.of("S", {"a": x}),
                        ]
                    ),
                    open_cq([NamedAtom.of("V", {"a": x})]),
                )
            ],
            safe=[TotalQuery(("V",))],
            name="join_copy",
        )
        n = LabeledNull("n1")
        t = ConditionalInstance.of(
            s,
            {
                "R": [(Row.of({"k": const("k0"), "a": n}), TRUE)],
                "S": [(Row.of({"a": const(5)}), TRUE)],
            },
        )
        chased = chase_safe_scope(t, p)
        (pair,) = chased.rows("V")
        row, cond = pair
        assert row.cell("a") == n
        assert cond == (CondEq(n, const(5)),)
        merged = Instance.of(
            s,
            {
                "R": {Row.of({"k": const("k0"), "a": const(5)})},
                "S": {Row.of({"a": const(5)})},
                "V": {Row.of({"a": const(5)})},
            },
        )
        split = Instance.of(
            s,
            {
                "R": {Row.of({"k": const("k0"), "a": const(7)})},
                "S": {Row.of({"a": const(5)})},
            },
        )
        assert rep_contains(chased, merged)
        assert rep_contains(chased, split)
        for m in enumerate_minimal(chased):
            assert satisfies(p.post[0], m)

    def test_unsatisfiable_trigger_conditions_are_pruned(self):
        s = Schema.of({"R": ["a"], "V": ["a"]})
        n = LabeledNull("n1")
        t = ConditionalInstance.of(
            s,
            {
                "R": [
                    (Row.of({"a": const(1)}), (CondEq(n, const(2)),)),
                    (Row.of({"a": const(1)}), (CondEq(n, const(3)),)),
                ]
            },
        )
        x = Var("x")
        p = Procedure.of(
            scope=[StructureConstraint.of("V")],
            post=[
                Tgd(
                    open_cq([NamedAtom.of("R", {"a": x}), NamedAtom.of("R", {"a": x})]),
                    open_cq([NamedAtom.of("V", {"a": x})]),
                )
            ],
            safe=[TotalQuery(("V",))],
            name="self_join",
        )
        chased = chase_safe_scope(t, p)
        conds = {cond for _, cond in chased.rows("V")}
        assert (CondEq(n, const(2)),) in conds
        assert (CondEq(n, const(3)),) in conds
        assert all(not (CondEq(n, const(2)) in c and CondEq(n, const(3)) in c) for c in conds)

    def test_a_null_head_cell_is_no_witness_for_a_constant(self):
        # the stored V tuple would witness the head only under n1 = 5, and
        # head witnesses are syntactic, so the trigger adds its own tuple
        s = Schema.of({"R": ["a"], "V": ["a"]})
        n = LabeledNull("n1")
        t = ConditionalInstance.of(
            s,
            {
                "R": [(Row.of({"a": const(5)}), TRUE)],
                "V": [(Row.of({"a": n}), TRUE)],
            },
        )
        chased = chase_safe_scope(t, simple_copy_proc("R", "V"))
        assert set(chased.rows("V")) == {
            (Row.of({"a": n}), TRUE),
            (Row.of({"a": const(5)}), TRUE),
        }

    def test_an_equality_the_trigger_holds_does_not_make_a_witness(self):
        # the trigger's condition already equates n1 and 5, but the head
        # check still asks for the cell 5 itself
        s = Schema.of({"R": ["a"], "V": ["a"]})
        n = LabeledNull("n1")
        needed = (CondEq(n, const(5)),)
        t = ConditionalInstance.of(
            s,
            {
                "R": [(Row.of({"a": const(5)}), needed)],
                "V": [(Row.of({"a": n}), TRUE)],
            },
        )
        chased = chase_safe_scope(t, simple_copy_proc("R", "V"))
        assert set(chased.rows("V")) == {
            (Row.of({"a": n}), TRUE),
            (Row.of({"a": const(5)}), needed),
        }


def simple_copy_proc(src: str, dst: str, extra_attr: str | None = None) -> Procedure:
    x = Var("x")
    head_bindings = {"a": x}
    if extra_attr:
        head_bindings[extra_attr] = x
    return Procedure.of(
        scope=[StructureConstraint.of(dst)],
        post=[
            Tgd(
                open_cq([NamedAtom.of(src, {"a": x})]),
                open_cq([NamedAtom.of(dst, head_bindings)]),
            )
        ],
        safe=[TotalQuery((dst,))],
        name=f"copy_{src}_{dst}",
    )


class TestAlterSchema:
    def test_existing_tuples_gain_distinct_fresh_nulls(self, instance_j1):
        t = ConditionalInstance.from_instance(instance_j1)
        widened = apply_alter_schema(t, alter_age_proc(), step=1)
        assert isinstance(widened, ConditionalInstance)
        assert widened.schema.attrs("LocVisits") == frozenset(
            {"facility", "patInsur", "timestp", "age"}
        )
        assert widened.schema.attrs("EVisits") == frozenset(
            {"facility", "patInsur", "timestp"}
        )
        ages = [row.cell("age") for row, _ in widened.rows("LocVisits")]
        assert all(isinstance(a, LabeledNull) for a in ages)
        assert len(set(ages)) == 3
        assert {cond for _, cond in widened.rows("LocVisits")} == {TRUE}

    def test_new_relations_start_empty(self, instance_i):
        p = Procedure.of(
            post=[StructureConstraint.of("Audit", ["ts"])],
            name="add_audit",
        )
        t = ConditionalInstance.from_instance(instance_i)
        widened = apply_alter_schema(t, p)
        assert widened.schema.defines("Audit")
        assert widened.rows("Audit") == ()

    def test_unmet_structural_precondition_means_no_outcome(self, instance_i):
        p = Procedure.of(
            pre=[StructureConstraint.of("Patients")],
            post=[StructureConstraint.of("Patients", ["age"])],
            name="needs_patients",
        )
        t = ConditionalInstance.from_instance(instance_i)
        assert apply_alter_schema(t, p) is EMPTY

    def test_rejects_wrong_class(self, instance_i):
        t = ConditionalInstance.from_instance(instance_i)
        with pytest.raises(NotAlterSchema):
            apply_alter_schema(t, migrate_total_proc())


class TestApproximateOutcomes:
    def test_empty_sequence_returns_the_instance_itself(self, instance_i):
        res = approximate_outcomes(instance_i, [])
        assert isinstance(res, ConditionalInstance)
        assert res == ConditionalInstance.from_instance(instance_i)

    def test_migration_table_has_unique_minimal_j1(self, instance_i, instance_j1):
        res = approximate_outcomes(instance_i, [migrate_total_proc()])
        assert isinstance(res, ConditionalInstance)
        assert enumerate_minimal(res) == frozenset({instance_j1})

    def test_pipeline_adds_age_nulls_after_migration(self, instance_i):
        res = approximate_outcomes(
            instance_i, [migrate_total_proc(), alter_age_proc()]
        )
        assert isinstance(res, ConditionalInstance)
        assert len(res.rows("LocVisits")) == 3
        assert all(
            isinstance(row.cell("age"), LabeledNull)
            for row, _ in res.rows("LocVisits")
        )

    def test_inapplicable_step_yields_empty(self, instance_i):
        p = Procedure.of(
            pre=[StructureConstraint.of("Patients")],
            post=[StructureConstraint.of("Patients", ["age"])],
            name="needs_patients",
        )
        assert approximate_outcomes(instance_i, [p]) is EMPTY
        assert not outcomes_nonempty(instance_i, [p])

    def test_nonempty_on_good_sequences(self, instance_i):
        assert outcomes_nonempty(instance_i, [migrate_total_proc()])
        assert outcomes_nonempty(instance_i, [])

    def test_chase_on_empty_instance_changes_nothing(self, visit_schema):
        empty = Instance.of(visit_schema)
        res = approximate_outcomes(empty, [migrate_total_proc()])
        assert isinstance(res, ConditionalInstance)
        assert res == ConditionalInstance.from_instance(empty)

    def test_unsupported_class_is_rejected_upfront(self, instance_i):
        with pytest.raises(UnsupportedClass):
            approximate_outcomes(instance_i, [migrate_cq_proc()])

    def test_data_preconditions_are_rejected_honestly(self, instance_i):
        base = migrate_total_proc()
        p = Procedure.of(
            scope=base.scope,
            pre=list(base.pre) + [migration_dependency()],
            post=base.post,
            safe=base.safe,
            name="migrate_guarded",
        )
        with pytest.raises(UnsupportedPrecondition):
            approximate_outcomes(instance_i, [p])

    def test_determinism(self, instance_i):
        ps = [migrate_total_proc(), alter_age_proc()]
        first = approximate_outcomes(instance_i, ps)
        second = approximate_outcomes(instance_i, ps)
        assert first == second


def migration_dependency() -> Tgd:
    from .conftest import migration_tgd

    return migration_tgd()


class TestExactScopedRepresentation:
    def test_scope_is_the_union_of_safe_scope_scopes(self, instance_i):
        scoped = exact_scoped_representation(instance_i, [migrate_total_proc()])
        assert scoped.rel == frozenset({"LocVisits"})
        assert rep_contains(scoped, apply_to_minimal(scoped))

    def test_requires_a_safe_sequence(self, instance_i):
        with pytest.raises(NotSafeSequence):
            exact_scoped_representation(instance_i, [migrate_cq_proc()])

    def test_inapplicable_sequence_has_no_outcomes(self, visit_schema):
        only_evisits = Schema.of(
            {"EVisits": ["facility", "patInsur", "timestp"]}
        )
        i = Instance.of(only_evisits)
        assert exact_scoped_representation(i, [migrate_total_proc()]) is EMPTY

    def test_extra_rows_allowed_only_inside_the_scope(
        self, instance_i, instance_j2
    ):
        scoped = exact_scoped_representation(instance_i, [migrate_total_proc()])
        assert rep_contains(scoped, instance_j2)
        grown_evisits = Instance.of(
            instance_i.schema,
            {
                "EVisits": instance_i.rows("EVisits") | {visit(9, 9, "x")},
                "LocVisits": instance_j2.rows("LocVisits"),
            },
        )
        assert not rep_contains(scoped, grown_evisits)


def apply_to_minimal(scoped):
    (m,) = enumerate_minimal(scoped.table)
    return m


class TestStrictnessWitness:
    def test_unscoped_table_admits_a_postcondition_violation(self):
        s = Schema.of({"R": ["a"], "S": ["a"]})
        i = Instance.of(
            s,
            {
                "R": {Row.of({"a": const(1)}), Row.of({"a": const(2)})},
                "S": {Row.of({"a": const(1)}), Row.of({"a": const(2)})},
            },
        )
        p = simple_copy_proc("R", "S")
        res = approximate_outcomes(i, [p])
        assert res == ConditionalInstance.from_instance(i)
        witness = Instance.of(
            s,
            {
                "R": i.rows("R") | {Row.of({"a": const(3)})},
                "S": i.rows("S"),
            },
        )
        assert rep_contains(res, witness)
        assert not satisfies(p.post[0], witness)
        scoped = exact_scoped_representation(i, [p])
        assert not rep_contains(scoped, witness)


class TestCertainty:
    def test_goal_is_certain_after_migration(self, instance_i):
        res = approximate_outcomes(instance_i, [migrate_total_proc()])
        assert certain_boolean_cq(res, visit_goal())

    def test_goal_fails_on_the_bare_instance(self, instance_i):
        res = approximate_outcomes(instance_i, [])
        assert not certain_boolean_cq(res, visit_goal())

    def test_empty_table_never_certain_for_matching_queries(self):
        t = ConditionalInstance.from_instance(Instance.of(Schema.of({"R": ["a"]})))
        q = boolean_cq([NamedAtom.of("R", {"a": Var("x")})])
        assert not certain_boolean_cq(t, q)

    def test_null_rows_witness_existentials_but_not_constants(self):
        t = ConditionalInstance.of(
            Schema.of({"R": ["a"]}),
            {"R": [(Row.of({"a": LabeledNull("n1")}), TRUE)]},
        )
        assert certain_boolean_cq(t, boolean_cq([NamedAtom.of("R", {"a": Var("x")})]))
        assert not certain_boolean_cq(t, boolean_cq([NamedAtom.of("R", {"a": const(5)})]))

    def test_nonnull_goals_are_not_certain_over_a_null(self):
        # a labeled null may stand for a null marker, which nonnull rejects
        x = Var("x")
        r = (Row.of({"a": LabeledNull("n1")}), TRUE)
        q = boolean_cq([NamedAtom.of("R", {"a": x}), ConstantAtom(x)])
        t = ConditionalInstance.of(Schema.of({"R": ["a"]}), {"R": [r]})
        assert not certain_boolean_cq(t, q)
        # a null marker in an unrelated relation leaves the verdict alone
        s = (Row.of({"b": null_marker("m")}), TRUE)
        wider = ConditionalInstance.of(
            Schema.of({"R": ["a"], "S": ["b"]}), {"R": [r], "S": [s]}
        )
        assert not certain_boolean_cq(wider, q)

    def test_non_boolean_or_incompatible_queries_are_rejected(self, instance_i):
        t = ConditionalInstance.from_instance(instance_i)
        with pytest.raises(Incompatible):
            certain_boolean_cq(t, open_cq([NamedAtom.of("EVisits", {"facility": Var("x")})]))
        with pytest.raises(Incompatible):
            certain_boolean_cq(t, boolean_cq([NamedAtom.of("Missing", {"a": Var("x")})]))


class TestReadiness:
    def test_migration_readies_the_visit_goal(self, instance_i):
        assert ready_for(instance_i, [migrate_total_proc()], visit_goal())

    def test_the_empty_plan_does_not(self, instance_i):
        assert not ready_for(instance_i, [], visit_goal())

    def test_tuples_outside_the_scope_stay_available(self, instance_i):
        q = boolean_cq(
            [
                NamedAtom.of(
                    "LocVisits",
                    {
                        "facility": const(1234),
                        "patInsur": const(33),
                        "timestp": const("070916 12:00"),
                    },
                )
            ]
        )
        assert ready_for(instance_i, [alter_age_proc()], q)

    def test_incompatible_goal_is_just_not_ready(self, instance_i):
        q = boolean_cq([NamedAtom.of("Patients", {"age": Var("x")})])
        assert not ready_for(instance_i, [migrate_total_proc()], q)

    def test_inapplicable_sequence_is_never_ready(self, visit_schema):
        only_evisits = Schema.of({"EVisits": ["facility", "patInsur", "timestp"]})
        assert not ready_for(
            Instance.of(only_evisits), [migrate_total_proc()], visit_goal()
        )


class TestPlanSearch:
    def test_finds_the_one_step_migration_plan(self, instance_i):
        plan = plan_search(
            instance_i, {migrate_total_proc(), alter_age_proc()}, visit_goal(), 2
        )
        assert plan is not None
        assert [p.name for p in plan] == ["migrate"]

    def test_already_certain_goals_need_no_plan(self, instance_i):
        q = boolean_cq(
            [
                NamedAtom.of(
                    "EVisits",
                    {"facility": const(1234), "patInsur": const(33), "timestp": Var("z")},
                )
            ]
        )
        assert plan_search(instance_i, {migrate_total_proc()}, q, 2) == []

    def test_unreachable_goals_give_none(self, instance_i):
        q = boolean_cq([NamedAtom.of("Patients", {"age": Var("x")})])
        assert plan_search(instance_i, {migrate_total_proc()}, q, 2) is None

    def test_rejects_pool_members_outside_the_class(self, instance_i):
        with pytest.raises(UnsupportedClass):
            plan_search(instance_i, {migrate_cq_proc()}, visit_goal(), 1)

    def test_returned_plans_recertify(self, instance_i):
        plan = plan_search(instance_i, {migrate_total_proc()}, visit_goal(), 3)
        assert plan is not None
        assert ready_for(instance_i, plan, visit_goal())


class TestCanonicalTable:
    def test_step_indices_do_not_change_the_state(self, instance_i):
        t = ConditionalInstance.from_instance(instance_i)
        p = migrate_total_proc()
        a = chase_safe_scope(t, p, step=0)
        b = chase_safe_scope(t, p, step=7)
        assert canonical_table(a) == canonical_table(b)

    def test_nulls_only_a_condition_mentions_are_renamed(self):
        x, y, z = LabeledNull("n1"), LabeledNull("n2"), LabeledNull("n3")
        c0, c1, c2 = (LabeledNull(f"c00{k}") for k in range(3))

        def table(*pairs) -> ConditionalInstance:
            return ConditionalInstance.of(Schema.of({"R": ["a"]}), {"R": pairs})

        t = table(
            (Row.of({"a": x}), (CondEq(x, y),)), (Row.of({"a": const(5)}), (CondEq(z, const(1)),))
        )
        assert canonical_table(t) == table(
            (Row.of({"a": c0}), (CondEq(c0, c1),)),
            (Row.of({"a": const(5)}), (CondEq(c2, const(1)),)),
        )

    def test_numbering_ignores_the_null_names(self):
        def table(x, y, z) -> ConditionalInstance:
            pairs = [
                (Row.of({"a": x}), (CondEq(x, y),)),
                (Row.of({"a": x}), (CondEq(z, const(1)),)),
            ]
            return ConditionalInstance.of(Schema.of({"R": ["a"]}), {"R": pairs})

        nulls = [LabeledNull(name) for name in ("n1", "n2", "n3", "m9", "m8", "m7")]
        assert canonical_table(table(*nulls[:3])) == canonical_table(table(*nulls[3:]))

    # ties cost orders, not time: under a cap of 10^3 orders, none of these may raise

    @pytest.fixture
    def low_cap(self, monkeypatch):
        monkeypatch.setattr(model, "NAMING_ORDER_CAP", 1_000)

    def test_refinement_splits_nulls_the_first_colour_ties(self, low_cap):
        k = 40
        rows = ", ".join(f"(1, {100 + j})" for j in range(k))
        ws = parse_workspace(f"""
            schema S {{ rel R(a, b); rel S(a, d); }}
            instance I : S {{ R: {rows}; S: ; }}
            proc widen = template alter_table(R; c)
            proc copy {{ scope {{ S[*]; }} pre {{ struct R[a, c]; struct S[a, d]; }}
                        post {{ tgd R(a: u, c: 5) -> S(a: u, d: e); }} safe {{ total S; }} }}
            seq both = widen, copy
        """)
        t = approximate_outcomes(ws.instances["I"], [ws.procedures[p] for p in ws.sequences["both"]])
        # S(1, ?e_i) | ?c_i = 5: every ?e_i has the same occurrences until the ?c_i tell them apart
        assert canonical_table(t).nulls() == {LabeledNull(f"c{j:03d}") for j in range(2 * k)}

    def test_interchangeable_nulls_keep_one_order(self, low_cap):
        def table(names) -> ConditionalInstance:
            return ConditionalInstance.of(Schema.of({"S": ["a"]}), {"S": [(Row(("a",), (n,)), ()) for n in names]})

        names = [LabeledNull(f"e{j}") for j in range(40)]
        assert canonical_table(table(names)) == table([LabeledNull(f"c{j:03d}") for j in range(40)])

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # two rows of four nulls: the a-nulls tie, and so do the b-nulls
            ([(0, 1), (2, 3)], [(0, 2), (1, 3)]),
            # a loop beside a 2-cycle: refinement cannot tell the three nulls apart
            ([(0, 0), (1, 2), (2, 1)], [(0, 0), (1, 2), (2, 1)]),
        ],
    )
    def test_tied_nulls_take_the_least_image_under_every_renaming(self, low_cap, rows, expected):
        def table(rows, names) -> ConditionalInstance:
            cells = [(Row(("a", "b"), (names[x], names[y])), ()) for x, y in rows]
            return ConditionalInstance.of(Schema.of({"R": ["a", "b"]}), {"R": cells})

        n = len({x for row in rows for x in row})
        want = table(expected, [LabeledNull(f"c{j:03d}") for j in range(n)])
        for order in itertools.permutations(range(n)):
            assert canonical_table(table(rows, [LabeledNull(f"n{j}") for j in order])) == want

    def test_orders_past_the_cap_raise(self, monkeypatch):
        monkeypatch.setattr(model, "NAMING_ORDER_CAP", 3)
        a1, b1, a2, b2 = (LabeledNull(n) for n in ("a1", "b1", "a2", "b2"))
        t = ConditionalInstance.of(
            Schema.of({"R": ["a", "b"]}), {"R": [(Row(("a", "b"), (a1, b1)), ()), (Row(("a", "b"), (a2, b2)), ())]}
        )
        with pytest.raises(BudgetExceeded):
            canonical_table(t)

    def test_distinct_content_stays_distinct(self, instance_i, instance_j1):
        a = canonical_table(ConditionalInstance.from_instance(instance_i))
        b = canonical_table(ConditionalInstance.from_instance(instance_j1))
        assert a != b
