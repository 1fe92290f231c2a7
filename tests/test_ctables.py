"""Conditional instances: valuations, membership, and minimal members."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqworkbench.ctables import (
    TRUE,
    CondAnd,
    CondEq,
    CondNeq,
    CondOr,
    ConditionalInstance,
    CRow,
    LabeledNull,
    ScopedConditionalInstance,
    apply_valuation,
    cond_and,
    cond_eval,
    condition_entails,
    enumerate_minimal,
    positive_condition_satisfiable,
    render_ctable,
    rep_contains,
)
from dqworkbench.errors import (
    BudgetExceeded,
    DomainMismatch,
    NotPositive,
    PartialValuation,
)
from dqworkbench.model import Instance, Row, Schema, const, instance_extends

from .conftest import visit

N1 = LabeledNull("n1")
N2 = LabeledNull("n2")

R_SCHEMA = Schema.of({"R": ["a"]})


def r_table(*pairs) -> ConditionalInstance:
    return ConditionalInstance.of(R_SCHEMA, {"R": list(pairs)})


def r_instance(*tokens) -> Instance:
    return Instance.of(R_SCHEMA, {"R": {Row.of({"a": const(t)}) for t in tokens}})


class TestConditions:
    def test_eval_is_three_valued(self):
        c = CondEq(N1, const(2))
        assert cond_eval(c, {N1: const(2)}) is True
        assert cond_eval(c, {N1: const(3)}) is False
        assert cond_eval(c, {}) is None

    def test_and_or_shortcut_on_partial_assignments(self):
        c = CondAnd((CondEq(N1, const(1)), CondEq(N2, const(2))))
        assert cond_eval(c, {N1: const(3)}) is False
        assert cond_eval(c, {N1: const(1)}) is None
        d = CondOr((CondEq(N1, const(1)), CondEq(N2, const(2))))
        assert cond_eval(d, {N1: const(1)}) is True
        assert cond_eval(d, {N1: const(3)}) is None

    def test_cond_and_flattens_and_dedupes(self):
        a = CondEq(N1, const(1))
        assert cond_and([]) == TRUE
        assert cond_and([TRUE, a]) == a
        assert cond_and([a, CondAnd((a, CondEq(N2, N1)))]) == CondAnd(
            (a, CondEq(N2, N1))
        )

    def test_positive_satisfiability_uses_equality_closure(self):
        sat = CondAnd((CondEq(N1, N2), CondEq(N2, const(1))))
        unsat = CondAnd((CondEq(N1, N2), CondEq(N2, const(1)), CondEq(N1, const(2))))
        assert positive_condition_satisfiable(sat)
        assert not positive_condition_satisfiable(unsat)
        rescued = CondOr((unsat, CondEq(N1, const(3))))
        assert positive_condition_satisfiable(rescued)

    def test_satisfiability_rejects_inequalities(self):
        with pytest.raises(NotPositive):
            positive_condition_satisfiable(CondNeq(N1, const(1)))

    def test_entailment_is_syntactic_and_safe(self):
        a = CondEq(N1, const(1))
        b = CondEq(N2, const(2))
        assert condition_entails(a, TRUE)
        assert condition_entails(CondAnd((a, b)), a)
        assert not condition_entails(a, CondAnd((a, b)))
        assert not condition_entails(a, CondOr((a, b)))
        assert not condition_entails(CondNeq(N1, const(1)), a)


class TestTableBasics:
    def test_rows_must_fit_schema(self):
        with pytest.raises(DomainMismatch):
            ConditionalInstance.of(R_SCHEMA, {"R": [(CRow.of({"b": const(1)}), TRUE)]})
        with pytest.raises(DomainMismatch):
            ConditionalInstance.of(R_SCHEMA, {"S": []})

    def test_duplicate_pairs_collapse(self):
        t = r_table((CRow.of({"a": N1}), TRUE), (CRow.of({"a": N1}), TRUE))
        assert t.total_size() == 1

    def test_from_instance_round_trips_under_empty_valuation(self, instance_i):
        t = ConditionalInstance.from_instance(instance_i)
        assert t.is_positive
        assert t.nulls() == frozenset()
        assert apply_valuation(t, {}) == instance_i

    def test_positivity_flags_inequalities(self):
        t = r_table((CRow.of({"a": N1}), CondNeq(N1, const(1))))
        assert not t.is_positive


class TestApplyValuation:
    def test_condition_selects_the_tuple(self):
        t = r_table((CRow.of({"a": N1}), CondEq(N1, const(2))))
        assert apply_valuation(t, {N1: const(2)}) == r_instance(2)
        assert apply_valuation(t, {N1: const(3)}) == r_instance()

    def test_inequality_drops_the_tuple(self):
        t = r_table((CRow.of({"a": N1}), CondNeq(N1, N2)))
        assert apply_valuation(t, {N1: const(1), N2: const(1)}) == r_instance()
        assert apply_valuation(t, {N1: const(1), N2: const(2)}) == r_instance(1)

    def test_missing_nulls_are_rejected(self):
        t = r_table((CRow.of({"a": N1}), TRUE))
        with pytest.raises(PartialValuation):
            apply_valuation(t, {})

    def test_condition_only_nulls_still_need_values(self):
        t = r_table((CRow.of({"a": const(1)}), CondEq(N2, const(5))))
        with pytest.raises(PartialValuation):
            apply_valuation(t, {})
        assert apply_valuation(t, {N2: const(5)}) == r_instance(1)


class TestRepContains:
    def test_membership_is_closed_under_extension(self, instance_i, instance_j1, instance_j2):
        t = ConditionalInstance.from_instance(instance_i)
        assert rep_contains(t, instance_i)
        assert rep_contains(t, instance_j1)
        assert rep_contains(t, instance_j2)

    def test_missing_row_excludes(self, instance_j1, instance_i):
        t = ConditionalInstance.from_instance(instance_j1)
        assert not rep_contains(t, instance_i)

    def test_schema_extension_matches_by_projection(self, instance_j1, instance_j3):
        t = ConditionalInstance.from_instance(instance_j1)
        assert rep_contains(t, instance_j3)

    def test_null_row_matches_any_witness(self, visit_schema, instance_i, instance_j1, instance_j2):
        rows = [(CRow(row.cells), TRUE) for row in instance_i.rows("LocVisits")]
        rows.append(
            (
                CRow.of({"facility": N1, "patInsur": N2, "timestp": LabeledNull("n3")}),
                TRUE,
            )
        )
        t = ConditionalInstance.of(
            visit_schema,
            {
                "EVisits": [(CRow(r.cells), TRUE) for r in instance_i.rows("EVisits")],
                "LocVisits": rows,
            },
        )
        assert rep_contains(t, instance_j1)
        assert rep_contains(t, instance_j2)
        assert rep_contains(t, instance_i)

    def test_conditional_row_may_be_dropped(self):
        t = r_table(
            (CRow.of({"a": const(1)}), TRUE),
            (CRow.of({"a": N1}), CondEq(N1, const(2))),
        )
        assert rep_contains(t, r_instance(1))
        assert rep_contains(t, r_instance(1, 2))
        assert not rep_contains(t, r_instance(2))

    def test_true_condition_row_cannot_be_dropped(self):
        t = r_table((CRow.of({"a": const(1)}), TRUE))
        assert not rep_contains(t, r_instance(2))

    def test_shared_null_forces_equal_cells(self):
        s = Schema.of({"R": ["a"], "S": ["b"]})
        t = ConditionalInstance.of(
            s,
            {"R": [(CRow.of({"a": N1}), TRUE)], "S": [(CRow.of({"b": N1}), TRUE)]},
        )
        same = Instance.of(
            s, {"R": {Row.of({"a": const(7)})}, "S": {Row.of({"b": const(7)})}}
        )
        differ = Instance.of(
            s, {"R": {Row.of({"a": const(7)})}, "S": {Row.of({"b": const(8)})}}
        )
        assert rep_contains(t, same)
        assert not rep_contains(t, differ)

    def test_scope_restricts_where_extra_tuples_live(
        self, instance_i, instance_j1, instance_j2
    ):
        t = ConditionalInstance.from_instance(instance_i)
        scoped = ScopedConditionalInstance(t, frozenset({"LocVisits"}))
        assert rep_contains(scoped, instance_i)
        assert rep_contains(scoped, instance_j1)
        assert rep_contains(scoped, instance_j2)
        grown_evisits = Instance.of(
            instance_i.schema,
            {
                "EVisits": instance_i.rows("EVisits") | {visit(9, 9, "x")},
                "LocVisits": instance_i.rows("LocVisits"),
            },
        )
        assert rep_contains(t, grown_evisits)
        assert not rep_contains(scoped, grown_evisits)

    def test_scoped_projection_check_survives_new_attributes(
        self, instance_i, instance_j3
    ):
        t = ConditionalInstance.from_instance(instance_i)
        scoped = ScopedConditionalInstance(t, frozenset({"LocVisits"}))
        assert rep_contains(scoped, instance_j3)

    def test_smaller_schema_is_never_a_member(self, instance_j3, instance_j1):
        t = ConditionalInstance.from_instance(instance_j3)
        assert not rep_contains(t, instance_j1)

    def test_large_ground_table_contains_itself(self):
        # deeper than the interpreter's recursion limit, one tuple per level
        s = Schema.of({"R": ["a", "b"]})
        i = Instance.of(
            s, {"R": {Row.of({"a": const(k), "b": const(k % 7)}) for k in range(1_200)}}
        )
        assert rep_contains(ConditionalInstance.from_instance(i), i)

    def test_step_budget_is_enforced(self):
        t = r_table(*((CRow.of({"a": LabeledNull(f"m{k}")}), TRUE) for k in range(6)))
        from dqworkbench.ctables import _rep_witness

        with pytest.raises(BudgetExceeded):
            _rep_witness(t, r_instance(*range(6)), None, max_steps=3)


class TestEnumerateMinimal:
    def test_null_free_table_is_its_own_minimum(self, instance_i):
        t = ConditionalInstance.from_instance(instance_i)
        assert enumerate_minimal(t) == frozenset({instance_i})

    def test_conditional_tuple_drops_out_of_the_minimum(self):
        t = r_table(
            (CRow.of({"a": const(1)}), TRUE),
            (CRow.of({"a": N1}), CondEq(N1, const(2))),
        )
        assert enumerate_minimal(t) == frozenset({r_instance(1)})

    def test_unconstrained_null_becomes_a_reserved_constant(self):
        t = r_table((CRow.of({"a": N1}), TRUE))
        assert enumerate_minimal(t) == frozenset({r_instance("@fresh0")})

    def test_two_free_nulls_collapse_to_one_row(self):
        t = r_table((CRow.of({"a": N1}), TRUE), (CRow.of({"a": N2}), TRUE))
        assert enumerate_minimal(t) == frozenset({r_instance("@fresh0")})

    def test_inequality_row_collapses_away_in_the_minimum(self):
        t = r_table(
            (CRow.of({"a": N1}), TRUE),
            (CRow.of({"a": N2}), CondNeq(N1, N2)),
        )
        assert enumerate_minimal(t) == frozenset({r_instance("@fresh0")})

    def test_condition_that_can_fail_leaves_the_empty_instance(self):
        t = r_table((CRow.of({"a": N1}), CondEq(N1, const(1))))
        assert enumerate_minimal(t) == frozenset({r_instance()})

    def test_shared_null_across_relations(self):
        s = Schema.of({"R": ["a"], "S": ["b"]})
        t = ConditionalInstance.of(
            s,
            {"R": [(CRow.of({"a": N1}), TRUE)], "S": [(CRow.of({"b": N1}), TRUE)]},
        )
        expected = Instance.of(
            s,
            {
                "R": {Row.of({"a": const("@fresh0")})},
                "S": {Row.of({"b": const("@fresh0")})},
            },
        )
        assert enumerate_minimal(t) == frozenset({expected})

    def test_minimal_members_belong_to_the_represented_set(self):
        t = r_table(
            (CRow.of({"a": N1}), TRUE),
            (CRow.of({"a": N2}), CondNeq(N1, N2)),
        )
        for m in enumerate_minimal(t):
            assert rep_contains(t, m)

    def test_valuation_budget_is_enforced(self):
        nulls = [LabeledNull(f"m{k}") for k in range(8)]
        t = r_table(*((CRow.of({"a": n}), TRUE) for n in nulls))
        with pytest.raises(BudgetExceeded):
            enumerate_minimal(t, max_valuations=10)


class TestRendering:
    def test_render_lists_conditions_after_a_bar(self):
        t = ConditionalInstance.of(
            Schema.of({"R": ["a"], "S": ["b"]}),
            {"R": [(CRow.of({"a": N1}), CondEq(N1, const(2)))]},
        )
        assert render_ctable(t) == "\n".join(
            ["R(a):", "  (?n1) | ?n1 = 2", "S(b):", "  (empty)"]
        )


simple_conditions = st.sampled_from(
    [
        TRUE,
        CondEq(N1, const(1)),
        CondEq(N1, N2),
        CondNeq(N1, const(2)),
        CondAnd((CondEq(N1, const(1)), CondNeq(N2, const(1)))),
        CondOr((CondEq(N1, const(1)), CondEq(N2, const(2)))),
    ]
)

cells = st.sampled_from([const(0), const(1), const(2), N1, N2])


@st.composite
def small_tables(draw):
    n_rows = draw(st.integers(min_value=1, max_value=3))
    pairs = []
    for _ in range(n_rows):
        row = CRow.of({"a": draw(cells), "b": draw(cells)})
        pairs.append((row, draw(simple_conditions)))
    return ConditionalInstance.of(Schema.of({"R": ["a", "b"]}), {"R": pairs})


@st.composite
def valuations(draw):
    pool = [const(0), const(1), const(2), const(3), const(4)]
    return {N1: draw(st.sampled_from(pool)), N2: draw(st.sampled_from(pool))}


@settings(max_examples=100, deadline=None)
@given(t=small_tables(), v=valuations())
def test_property_valuation_images_are_members(t, v):
    image = apply_valuation(t, v)
    assert rep_contains(t, image)


@settings(max_examples=100, deadline=None)
@given(t=small_tables(), v=valuations(), extra=st.integers(min_value=5, max_value=7))
def test_property_membership_closed_under_extra_rows(t, v, extra):
    image = apply_valuation(t, v)
    grown = Instance.of(
        image.schema,
        {"R": image.rows("R") | {Row.of({"a": const(extra), "b": const(extra)})}},
    )
    assert rep_contains(t, grown)


@settings(max_examples=60, deadline=None)
@given(t=small_tables())
def test_property_minimal_members_are_incomparable_members(t):
    minimal = enumerate_minimal(t, max_valuations=50_000)
    assert minimal
    for m in minimal:
        assert rep_contains(t, m)
    for m in minimal:
        for other in minimal:
            if m != other:
                assert not instance_extends(m, other)


@settings(max_examples=60, deadline=None)
@given(t=small_tables(), v=valuations())
def test_property_every_image_extends_some_minimal_shape(t, v):
    image = apply_valuation(t, v)
    minimal = enumerate_minimal(t, max_valuations=50_000)
    assert any(
        image.total_size() >= m.total_size()
        and all(len(image.rows(r)) >= len(m.rows(r)) for r in m.schema.names)
        for m in minimal
    )
