"""Conditional instances: valuations, membership, and minimal members."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqworkbench import ctables
from dqworkbench.ctables import (
    TRUE,
    CondEq,
    ConditionalInstance,
    LabeledNull,
    ScopedConditionalInstance,
    apply_valuation,
    cond_and,
    cond_eval,
    condition_entails,
    condition_satisfiable,
    enumerate_minimal,
    render_ctable,
    rep_contains,
)
from dqworkbench.errors import BudgetExceeded, DomainMismatch, PartialValuation
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
        c = (CondEq(N1, const(2)),)
        assert cond_eval(c, {N1: const(2)}) is True
        assert cond_eval(c, {N1: const(3)}) is False
        assert cond_eval(c, {}) is None

    def test_and_or_shortcut_on_partial_assignments(self):
        # a conjunction: one false equality decides it, an open one leaves it open
        c = (CondEq(N1, const(1)), CondEq(N2, const(2)))
        assert cond_eval(c, {N1: const(3)}) is False
        assert cond_eval(c, {N1: const(1)}) is None
        assert cond_eval(c, {N1: const(1), N2: const(2)}) is True
        assert cond_eval(TRUE, {}) is True

    def test_cond_and_flattens_and_dedupes(self):
        a = CondEq(N1, const(1))
        assert cond_and([]) == TRUE
        assert cond_and([TRUE, (a,)]) == (a,)
        assert cond_and([(a,), (a, CondEq(N2, N1))]) == (a, CondEq(N2, N1))

    def test_positive_satisfiability_uses_equality_closure(self):
        sat = (CondEq(N1, N2), CondEq(N2, const(1)))
        unsat = (CondEq(N1, N2), CondEq(N2, const(1)), CondEq(N1, const(2)))
        assert condition_satisfiable(sat)
        assert condition_satisfiable(TRUE)
        assert not condition_satisfiable(unsat)

    def test_entailment_is_syntactic_and_safe(self):
        a = CondEq(N1, const(1))
        b = CondEq(N2, const(2))
        assert condition_entails((a,), TRUE)
        assert condition_entails((a, b), (a,))
        assert not condition_entails((a,), (a, b))
        assert not condition_entails(TRUE, (a,))


class TestTableBasics:
    def test_rows_must_fit_schema(self):
        with pytest.raises(DomainMismatch):
            ConditionalInstance.of(R_SCHEMA, {"R": [(Row.of({"b": const(1)}), TRUE)]})
        with pytest.raises(DomainMismatch):
            ConditionalInstance.of(R_SCHEMA, {"S": []})

    def test_duplicate_pairs_collapse(self):
        t = r_table((Row.of({"a": N1}), TRUE), (Row.of({"a": N1}), TRUE))
        assert t.total_size() == 1

    def test_from_instance_round_trips_under_empty_valuation(self, instance_i):
        t = ConditionalInstance.from_instance(instance_i)
        assert t.nulls() == frozenset()
        assert apply_valuation(t, {}) == instance_i


class TestApplyValuation:
    def test_condition_selects_the_tuple(self):
        t = r_table((Row.of({"a": N1}), (CondEq(N1, const(2)),)))
        assert apply_valuation(t, {N1: const(2)}) == r_instance(2)
        assert apply_valuation(t, {N1: const(3)}) == r_instance()

    def test_missing_nulls_are_rejected(self):
        t = r_table((Row.of({"a": N1}), TRUE))
        with pytest.raises(PartialValuation):
            apply_valuation(t, {})

    def test_condition_only_nulls_still_need_values(self):
        t = r_table((Row.of({"a": const(1)}), (CondEq(N2, const(5)),)))
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
        rows = [(row, TRUE) for row in instance_i.rows("LocVisits")]
        rows.append(
            (
                Row.of({"facility": N1, "patInsur": N2, "timestp": LabeledNull("n3")}),
                TRUE,
            )
        )
        t = ConditionalInstance.of(
            visit_schema,
            {
                "EVisits": [(r, TRUE) for r in instance_i.rows("EVisits")],
                "LocVisits": rows,
            },
        )
        assert rep_contains(t, instance_j1)
        assert rep_contains(t, instance_j2)
        assert rep_contains(t, instance_i)

    def test_conditional_row_may_be_dropped(self):
        t = r_table(
            (Row.of({"a": const(1)}), TRUE),
            (Row.of({"a": N1}), (CondEq(N1, const(2)),)),
        )
        assert rep_contains(t, r_instance(1))
        assert rep_contains(t, r_instance(1, 2))
        assert not rep_contains(t, r_instance(2))

    def test_true_condition_row_cannot_be_dropped(self):
        t = r_table((Row.of({"a": const(1)}), TRUE))
        assert not rep_contains(t, r_instance(2))

    def test_shared_null_forces_equal_cells(self):
        s = Schema.of({"R": ["a"], "S": ["b"]})
        t = ConditionalInstance.of(
            s,
            {"R": [(Row.of({"a": N1}), TRUE)], "S": [(Row.of({"b": N1}), TRUE)]},
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

    def test_scoped_membership_is_not_upward_closed(self):
        # k sits inside j, and both belong to the unscoped table; the scoped
        # one asks R, outside its scope, to match exactly, so j is out. So
        # `oracle.compare_with_chase` checks only minimal outcomes of
        # unscoped tables.
        t = r_table((Row.of({"a": N1}), TRUE))
        scoped = ScopedConditionalInstance(t, frozenset())
        k, j = r_instance(1), r_instance(1, 2)
        assert instance_extends(j, k)
        assert rep_contains(t, k) and rep_contains(t, j)
        assert rep_contains(scoped, k)
        assert not rep_contains(scoped, j)

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

    def test_step_budget_is_enforced(self, monkeypatch):
        t = r_table(*((Row.of({"a": LabeledNull(f"m{k}")}), TRUE) for k in range(6)))
        from dqworkbench import ctables

        monkeypatch.setattr(ctables, "REP_STEP_CAP", 3)
        with pytest.raises(BudgetExceeded):
            rep_contains(t, r_instance(*range(6)))

    def test_step_budget_message_reports_the_steps_used(self, monkeypatch):
        t = r_table(*((Row.of({"a": LabeledNull(f"m{k}")}), TRUE) for k in range(6)))
        monkeypatch.setattr(ctables, "REP_STEP_CAP", 3)
        with pytest.raises(BudgetExceeded) as caught:
            rep_contains(t, r_instance(*range(6)))
        assert str(caught.value) == (
            "membership search exceeds the hard cap of 3: "
            "3 steps charged so far, and the next charge of 1 does not fit"
        )

    def test_unscoped_nulls_left_unbound_take_one_completion(self, monkeypatch):
        # `(1, 5)` holds when ?y = 7, and `(2, ?y)` can only match `(2, 7)`, so
        # no valuation fits; each `(9, 9) | ?z_j = 1` leaves ?z_j unbound. One
        # completion per match keeps the search linear in the rows, where
        # trying every value of every ?z_j took pool^k steps.
        k = 40
        y = LabeledNull("y")
        s = Schema.of({"R": ["a", "b"]})
        t = ConditionalInstance.of(s, {"R": [
            (Row.of({"a": const(1), "b": const(5)}), (CondEq(y, const(7)),)),
            (Row.of({"a": const(2), "b": y}), TRUE),
            *((Row.of({"a": const(9), "b": const(9)}), (CondEq(LabeledNull(f"z{j}"), const(1)),)) for j in range(k)),
        ]})
        used = []

        class Recording(ctables.Meter):
            def __init__(self, *args):
                super().__init__(*args)
                used.append(self)

        monkeypatch.setattr(ctables, "Meter", Recording)
        assert not rep_contains(t, Instance.of(s, {"R": {Row.of({"a": const(2), "b": const(7)})}}))
        assert used[0].used <= 4 * (k + 2)

    def test_scoped_nulls_left_unbound_take_every_pool_value(self):
        # matching `(5)` binds no null, and the row outside the scope is
        # covered only when the null its condition reads takes the value 1
        t = r_table((Row.of({"a": const(5)}), (CondEq(N1, const(1)),)))
        assert rep_contains(ScopedConditionalInstance(t, frozenset()), r_instance(5))
        assert not rep_contains(ScopedConditionalInstance(t, frozenset()), r_instance(5, 6))


class TestEnumerateMinimal:
    def test_null_free_table_is_its_own_minimum(self, instance_i):
        t = ConditionalInstance.from_instance(instance_i)
        assert enumerate_minimal(t) == frozenset({instance_i})

    def test_conditional_tuple_drops_out_of_the_minimum(self):
        t = r_table(
            (Row.of({"a": const(1)}), TRUE),
            (Row.of({"a": N1}), (CondEq(N1, const(2)),)),
        )
        assert enumerate_minimal(t) == frozenset({r_instance(1)})

    def test_unconstrained_null_becomes_a_reserved_constant(self):
        t = r_table((Row.of({"a": N1}), TRUE))
        assert enumerate_minimal(t) == frozenset({r_instance("@fresh0")})

    def test_two_free_nulls_collapse_to_one_row(self):
        t = r_table((Row.of({"a": N1}), TRUE), (Row.of({"a": N2}), TRUE))
        assert enumerate_minimal(t) == frozenset({r_instance("@fresh0")})

    def test_condition_that_can_fail_leaves_the_empty_instance(self):
        t = r_table((Row.of({"a": N1}), (CondEq(N1, const(1)),)))
        assert enumerate_minimal(t) == frozenset({r_instance()})

    def test_shared_null_across_relations(self):
        s = Schema.of({"R": ["a"], "S": ["b"]})
        t = ConditionalInstance.of(
            s,
            {"R": [(Row.of({"a": N1}), TRUE)], "S": [(Row.of({"b": N1}), TRUE)]},
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
            (Row.of({"a": N1}), TRUE),
            (Row.of({"a": N2}), (CondEq(N1, N2), CondEq(N2, const(1)))),
        )
        for m in enumerate_minimal(t):
            assert rep_contains(t, m)

    def test_valuation_budget_is_enforced(self, monkeypatch):
        nulls = [LabeledNull(f"m{k}") for k in range(8)]
        t = r_table(*((Row.of({"a": n}), TRUE) for n in nulls))
        monkeypatch.setattr(ctables, "MINIMAL_VALUATION_CAP", 10)
        with pytest.raises(BudgetExceeded) as caught:
            enumerate_minimal(t)
        assert str(caught.value) == (
            "minimal-instance search exceeds the hard cap of 10: "
            "10 valuations charged so far, and the next charge of 1 does not fit"
        )


class TestRendering:
    def test_render_lists_conditions_after_a_bar(self):
        t = ConditionalInstance.of(
            Schema.of({"R": ["a"], "S": ["b"]}),
            {"R": [(Row.of({"a": N1}), (CondEq(N1, const(2)),))]},
        )
        assert render_ctable(t) == "\n".join(
            ["R(a):", "  (?n1) | ?n1 = 2", "S(b):", "  (empty)"]
        )


simple_conditions = st.sampled_from(
    [
        TRUE,
        (CondEq(N1, const(1)),),
        (CondEq(N1, N2),),
        (CondEq(N2, const(2)),),
        (CondEq(N1, const(1)), CondEq(N2, const(1))),
        (CondEq(N1, const(1)), CondEq(N2, const(2))),
    ]
)

cells = st.sampled_from([const(0), const(1), const(2), N1, N2])


@st.composite
def small_tables(draw):
    n_rows = draw(st.integers(min_value=1, max_value=3))
    pairs = []
    for _ in range(n_rows):
        row = Row.of({"a": draw(cells), "b": draw(cells)})
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ctables, "MINIMAL_VALUATION_CAP", 50_000)
        minimal = enumerate_minimal(t)
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ctables, "MINIMAL_VALUATION_CAP", 50_000)
        minimal = enumerate_minimal(t)
    assert any(
        image.total_size() >= m.total_size()
        and all(len(image.rows(r)) >= len(m.rows(r)) for r in m.schema.names)
        for m in minimal
    )
