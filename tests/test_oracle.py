"""Brute-force enumerator: pinned outcome sets, reports, and budget behavior."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dqworkbench import oracle as oracle_mod
from dqworkbench.chase import EMPTY
from dqworkbench.constraints import (
    NamedAtom,
    StructureConstraint,
    Tgd,
    TotalQuery,
    Var,
    cq,
    satisfies,
)
from dqworkbench.ctables import ConditionalInstance
from dqworkbench.errors import BudgetExceeded, MalformedParams
from dqworkbench.model import Instance, Row, Schema, const, null_marker
from dqworkbench.oracle import (
    Budget,
    compare_with_chase,
    enumerate_outcomes,
    minimal_outcomes,
)
from dqworkbench.procedures import (
    Procedure,
    instantiate_template,
    possible_outcome_report,
)

from . import reference_oracle
from .conftest import (
    EVISITS_ROWS,
    LOCVISITS_I_ROWS,
    LOCVISITS_J1_ROWS,
    VISIT_ATTRS,
    migrate_total_proc,
    visit,
)

X = Var("x")

RT_SCHEMA = Schema.of({"R": ("A",), "T": ("A",)})


def rt_instance(rs, ts) -> Instance:
    return Instance.of(
        RT_SCHEMA,
        {
            "R": {Row.of({"A": const(v)}) for v in rs},
            "T": {Row.of({"A": const(v)}) for v in ts},
        },
    )


def inclusion_tgd(src: str, dst: str) -> Tgd:
    return Tgd(
        cq([NamedAtom.of(src, {"A": X})], free=[X]),
        cq([NamedAtom.of(dst, {"A": X})], free=[X]),
    )


def copy_into_both_proc() -> Procedure:
    """Whole-relation scope on R and T, must end with R contained in T."""
    return Procedure.of(
        scope=[StructureConstraint.of("R"), StructureConstraint.of("T")],
        pre=[],
        post=[inclusion_tgd("R", "T")],
        safe=[cq([NamedAtom.of("R", {"A": X}), NamedAtom.of("T", {"A": X})], free=[X])],
        name="spread",
    )


def containment_check_proc() -> Procedure:
    """No scope at all: passes the instance through iff T is contained in R."""
    return Procedure.of(
        scope=[],
        pre=[],
        post=[inclusion_tgd("T", "R")],
        safe=[],
        name="check",
    )


def fig_instance() -> Instance:
    return Instance.of(
        Schema.of({"EVisits": VISIT_ATTRS, "LocVisits": VISIT_ATTRS}),
        {"EVisits": EVISITS_ROWS, "LocVisits": LOCVISITS_I_ROWS},
    )


def tiny_instance() -> Instance:
    return Instance.of(
        Schema.of({"EVisits": VISIT_ATTRS, "LocVisits": VISIT_ATTRS}),
        {"EVisits": {visit(1234, 33, "070916 12:00")}, "LocVisits": set()},
    )


class TestSingleProcedure:
    def test_migration_has_the_filled_instance_as_unique_outcome(self):
        expected = Instance.of(
            Schema.of({"EVisits": VISIT_ATTRS, "LocVisits": VISIT_ATTRS}),
            {"EVisits": EVISITS_ROWS, "LocVisits": LOCVISITS_J1_ROWS},
        )
        outs = enumerate_outcomes(
            migrate_total_proc(), fig_instance(), Budget(max_new_tuples=1)
        )
        assert outs == frozenset({expected})

    def test_every_outcome_passes_the_checker(self):
        i = tiny_instance()
        p = migrate_total_proc()
        outs = enumerate_outcomes(p, i, Budget(max_new_tuples=1))
        assert outs
        assert all(possible_outcome_report(p, i, j).ok for j in outs)

    def test_consistent_input_keeps_itself_and_gains_extensions(self):
        row = visit(1, 2, "t")
        i = Instance.of(
            Schema.of({"EVisits": VISIT_ATTRS, "LocVisits": VISIT_ATTRS}),
            {"EVisits": {row}, "LocVisits": {row}},
        )
        outs = enumerate_outcomes(migrate_total_proc(), i, Budget(max_new_tuples=1))
        pool = [const(1), const(2), const("t")]
        expected = {i}
        for combo in itertools.product(pool, repeat=3):
            extra = Row.of(dict(zip(sorted(VISIT_ATTRS), combo)))
            expected.add(
                Instance.of(i.schema, {"EVisits": {row}, "LocVisits": {row, extra}})
            )
        assert outs == frozenset(expected)

    def test_inapplicable_procedure_has_no_outcomes(self):
        evisits_only = Instance.of(
            Schema.of({"EVisits": VISIT_ATTRS}), {"EVisits": EVISITS_ROWS}
        )
        outs = enumerate_outcomes(
            migrate_total_proc(), evisits_only, Budget(max_new_tuples=2)
        )
        assert outs == frozenset()

    def test_empty_sequence_returns_the_input(self):
        i = fig_instance()
        assert enumerate_outcomes([], i, Budget()) == frozenset({i})

    def test_enumeration_is_deterministic(self):
        i = tiny_instance()
        p = migrate_total_proc()
        b = Budget(extra_constants=1, max_new_tuples=1)
        assert enumerate_outcomes(p, i, b) == enumerate_outcomes(p, i, b)


class TestSequenceFiltering:
    def test_first_step_allows_every_containment_respecting_extension(self):
        i = rt_instance([1], [1])
        b = Budget(extra_constants=1, max_new_tuples=1)
        outs = enumerate_outcomes(copy_into_both_proc(), i, b)
        expected = set()
        for r_extra in [(), (1,), ("@c0",)]:
            for t_extra in [(), (1,), ("@c0",)]:
                j = rt_instance([1, *r_extra], [1, *t_extra])
                if satisfies(inclusion_tgd("R", "T"), j):
                    expected.add(j)
        assert outs == frozenset(expected)
        assert len(outs) == 3

    def test_sequence_keeps_only_mutual_containment(self):
        i = rt_instance([1], [1])
        b = Budget(extra_constants=1, max_new_tuples=1)
        outs = enumerate_outcomes(
            [copy_into_both_proc(), containment_check_proc()], i, b
        )
        assert outs == frozenset(
            {rt_instance([1], [1]), rt_instance([1, "@c0"], [1, "@c0"])}
        )

    def test_checking_step_rejects_violating_inputs_outright(self):
        violating = rt_instance([1], [1, 2])
        outs = enumerate_outcomes(containment_check_proc(), violating, Budget())
        assert outs == frozenset()

    def test_checking_step_passes_satisfying_inputs_through(self):
        fine = rt_instance([1, 2], [1])
        outs = enumerate_outcomes(containment_check_proc(), fine, Budget())
        assert outs == frozenset({fine})

    def test_later_step_constants_reach_earlier_value_pools(self):
        # The widening step may pick 7 for the new column only because a
        # later postcondition names that constant.
        schema = Schema.of({"R": ("a",), "T": ("a",)})
        i = Instance.of(
            schema,
            {"R": {Row.of({"a": const(0)})}, "T": {Row.of({"a": const(0)})}},
        )
        widen = Procedure.of(
            pre=[StructureConstraint.of("T")],
            post=[StructureConstraint.of("T", ["a", "c"])],
            name="widen",
        )
        stamp = Procedure.of(
            scope=[StructureConstraint.of("T")],
            post=[
                Tgd(
                    cq([NamedAtom.of("R", {"a": X})], free=[X]),
                    cq(
                        [NamedAtom.of("T", {"a": const(7), "c": X})],
                        free=[X],
                    ),
                )
            ],
            safe=[TotalQuery(("T",))],
            name="stamp",
        )
        b = Budget(extra_constants=1, max_new_tuples=1, allow_schema_growth=True)
        outs = enumerate_outcomes([widen, stamp], i, b)
        wide = Schema.of({"R": ("a",), "T": ("a", "c")})
        want = Instance.of(
            wide,
            {
                "R": {Row.of({"a": const(0)})},
                "T": {
                    Row.of({"a": const(0), "c": const(7)}),
                    Row.of({"a": const(7), "c": const(0)}),
                },
            },
        )
        assert want in outs
        assert compare_with_chase(i, [widen, stamp], b).ok


class TestDataExchange:
    def test_outcomes_are_exactly_the_dependency_satisfying_targets(self):
        dep = inclusion_tgd("S", "T")
        p = instantiate_template("data_exchange", {"dependencies": [dep]})
        schema = Schema.of({"S": ("A",), "T": ("A",)})
        i = Instance.of(
            schema, {"S": {Row.of({"A": const(v)}) for v in (1, 2)}, "T": set()}
        )
        outs = enumerate_outcomes(
            p, i, Budget(extra_constants=1, max_new_tuples=3)
        )
        pool = [const(1), const(2), const("@c0")]
        expected = set()
        for k in range(4):
            for combo in itertools.combinations(pool, k):
                j = Instance.of(
                    schema,
                    {"S": i.rows("S"), "T": {Row.of({"A": v}) for v in combo}},
                )
                if satisfies(dep, j):
                    expected.add(j)
        assert outs == frozenset(expected)
        assert len(outs) == 2

    def test_generated_settings_match_dependency_satisfaction(self):
        rng = random.Random(20240817)
        dep = inclusion_tgd("S", "T")
        p = instantiate_template("data_exchange", {"dependencies": [dep]})
        schema = Schema.of({"S": ("A",), "T": ("A",)})
        for _ in range(8):
            source = {
                Row.of({"A": const(rng.randint(0, 2))})
                for _ in range(rng.randint(1, 3))
            }
            i = Instance.of(schema, {"S": source, "T": set()})
            b = Budget(max_new_tuples=3)
            outs = enumerate_outcomes(p, i, b)
            pool = sorted({r.cell("A") for r in source})
            expected = set()
            for k in range(b.max_new_tuples + 1):
                for combo in itertools.combinations(pool, k):
                    j = Instance.of(
                        schema,
                        {"S": source, "T": {Row.of({"A": v}) for v in combo}},
                    )
                    if satisfies(dep, j):
                        expected.add(j)
            assert outs == frozenset(expected)


def _r_instance(attrs, *rows) -> Instance:
    return Instance.of(
        Schema.of({"R": attrs}), {"R": {Row.of(dict(zip(attrs, r))) for r in rows}}
    )


def _attrs_of_r(outs) -> Counter:
    return Counter(tuple(sorted(j.schema.attrs("R"))) for j in outs)


class TestAttributeScopes:
    """Scopes that name attributes: rewritten cells, dropped and grown attributes."""

    def test_null_scrub_on_one_row_fills_the_null_from_the_pool(self):
        # pool {1, ?n}: b may become 1 or stay ?n, and the postcondition
        # rejects every row that keeps the null; a must still read 1
        scrub = instantiate_template("null_scrub", {"relation": "R", "attribute": "b"})
        i = _r_instance(("a", "b"), (const(1), null_marker("n")))
        outs = enumerate_outcomes(scrub, i, Budget(max_new_tuples=1))
        assert outs == frozenset({_r_instance(("a", "b"), (const(1), const(1)))})

    def test_null_scrub_on_two_rows_keeps_a_and_the_known_b(self):
        # Each old row is dropped or rewritten on b, plus one addition from
        # the rewrites. An outcome keeps a = 1 and a = 2 (residual), has
        # no null (post) and keeps the answer b = 3 (safety): the 5 two-row
        # sets with a 3, and the 14 three-row ones.
        scrub = instantiate_template("null_scrub", {"relation": "R", "attribute": "b"})
        i = _r_instance(
            ("a", "b"), (const(1), null_marker("n")), (const(2), const(3))
        )
        outs = enumerate_outcomes(scrub, i, Budget(max_new_tuples=1))
        rows = [(const(a), const(b)) for a in (1, 2) for b in (1, 2, 3)]
        expected = {
            _r_instance(("a", "b"), *chosen)
            for k in (2, 3)
            for chosen in itertools.combinations(rows, k)
            if {a for a, _ in chosen} == {const(1), const(2)}
            and const(3) in {b for _, b in chosen}
        }
        assert len(expected) == 19
        assert outs == frozenset(expected)

    def test_split_scope_entries_unite(self):
        i = _r_instance(("a", "b", "c"), (const(1), const(2), const(3)))
        split = Procedure.of(
            scope=[StructureConstraint.of("R", ["a"]), StructureConstraint.of("R", ["b"])]
        )
        joint = Procedure.of(scope=[StructureConstraint.of("R", ["a", "b"])])
        b = Budget(max_new_tuples=1)
        outs = enumerate_outcomes(split, i, b)
        assert outs == enumerate_outcomes(joint, i, b)
        # both scoped attributes may go; c must keep its one value
        assert _r_instance(("c",), (const(3),)) in outs
        assert set(_attrs_of_r(outs)) == {
            ("a", "b", "c"),
            ("a", "c"),
            ("b", "c"),
            ("c",),
        }

    def test_growth_adds_a_reserved_attribute(self):
        # Over R(@attr0, a, b) the one row's a and @attr0 take 1 or ?n: 4
        # rows, kept alone or with one addition, 4 + 6 outcomes. R(a, b)
        # and R(@attr0, b) give 2 + 1 each; R(b) keeps the projected row.
        i = _r_instance(("a", "b"), (const(1), null_marker("n")))
        p = Procedure.of(scope=[StructureConstraint.of("R", ["a"])])
        b = Budget(max_new_attributes=1, allow_schema_growth=True)
        outs = enumerate_outcomes(p, i, b)
        assert _attrs_of_r(outs) == {
            ("@attr0", "a", "b"): 10,
            ("a", "b"): 3,
            ("@attr0", "b"): 3,
            ("b",): 1,
        }
        assert all(j.rows("R") for j in outs)


class TestMinimalOutcomes:
    def test_strict_extensions_are_dominated(self):
        small = rt_instance([1], [1])
        big = rt_instance([1], [1, 2])
        other = rt_instance([1, 3], [1])
        assert minimal_outcomes([small, big, other]) == frozenset({small})

    def test_incomparable_outcomes_all_survive(self):
        a = rt_instance([1], [])
        b = rt_instance([], [1])
        assert minimal_outcomes([a, b]) == frozenset({a, b})

    def test_empty_set_stays_empty(self):
        assert minimal_outcomes([]) == frozenset()


class TestCompareWithChase:
    def test_migration_report_is_clean(self):
        rep = compare_with_chase(
            fig_instance(), [migrate_total_proc()], Budget(max_new_tuples=1)
        )
        assert rep.ok
        assert len(rep.outcomes) == 1
        assert rep.missing == ()
        assert rep.minimal_only_oracle == ()
        assert rep.minimal_only_chase == ()

    def test_alter_report_is_clean_under_growth(self):
        small = Instance.of(
            Schema.of({"LocVisits": VISIT_ATTRS}),
            {"LocVisits": {visit(1234, 33, "070916 12:00")}},
        )
        alter = instantiate_template(
            "alter_table", {"relation": "LocVisits", "attributes": ["age"]}
        )
        rep = compare_with_chase(
            small,
            [alter],
            Budget(extra_constants=1, max_new_tuples=0, allow_schema_growth=True),
        )
        assert rep.ok
        assert len(rep.outcomes) == 4

    def test_pipeline_report_is_clean(self):
        alter = instantiate_template(
            "alter_table", {"relation": "LocVisits", "attributes": ["age"]}
        )
        rep = compare_with_chase(
            tiny_instance(),
            [migrate_total_proc(), alter],
            Budget(extra_constants=1, max_new_tuples=1, allow_schema_growth=True),
        )
        assert rep.ok
        assert rep.outcomes

    def test_inapplicable_sequence_reports_clean_and_empty(self):
        evisits_only = Instance.of(
            Schema.of({"EVisits": VISIT_ATTRS}), {"EVisits": EVISITS_ROWS}
        )
        rep = compare_with_chase(
            evisits_only, [migrate_total_proc()], Budget(max_new_tuples=1)
        )
        assert rep.ok
        assert rep.outcomes == frozenset()

    def test_corrupted_approximation_is_caught(self, monkeypatch):
        i = tiny_instance()
        wrong = Instance.of(
            i.schema,
            {"EVisits": i.rows("EVisits"), "LocVisits": {visit(9, 9, "wrong")}},
        )

        def fake(instance, ps):
            return ConditionalInstance.from_instance(wrong)

        monkeypatch.setattr(oracle_mod, "approximate_outcomes", fake)
        rep = compare_with_chase(i, [migrate_total_proc()], Budget(max_new_tuples=1))
        assert not rep.ok
        assert rep.missing
        assert rep.minimal_only_oracle
        assert rep.minimal_only_chase

    def test_unrepresented_minimal_outcome_is_listed_alone(self, monkeypatch):
        # Two minimal outcomes, R(1, 1) and R(1, @c0); a table holding the
        # first represents it and not the second, so membership falls back
        # to checking every outcome and lists exactly the second.
        s = Schema.of({"R": ["a"]})
        i = Instance.of(s, {"R": {Row.of({"a": const(1)})}})
        alter = instantiate_template("alter_table", {"relation": "R", "attributes": ["a", "b"]})
        grown = Schema.of({"R": ["a", "b"]})
        kept, lost = (
            Instance.of(grown, {"R": {Row.of({"a": const(1), "b": const(v)})}})
            for v in (1, "@c0")
        )
        table = ConditionalInstance.from_instance(kept)
        monkeypatch.setattr(oracle_mod, "approximate_outcomes", lambda i, ps: table)
        rep = compare_with_chase(
            i, [alter], Budget(extra_constants=1, max_new_tuples=0, allow_schema_growth=True)
        )
        assert minimal_outcomes(rep.outcomes) == rep.outcomes == frozenset({kept, lost})
        assert rep.missing == (lost,)

    def test_empty_approximation_with_real_outcomes_is_caught(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "approximate_outcomes", lambda i, ps: EMPTY)
        rep = compare_with_chase(
            tiny_instance(), [migrate_total_proc()], Budget(max_new_tuples=1)
        )
        assert not rep.ok
        assert len(rep.missing) == len(rep.outcomes) == 1
        assert rep.minimal_only_oracle
        assert rep.minimal_only_chase == ()


class TestBudgets:
    def test_negative_fields_are_rejected(self):
        for field in ("extra_constants", "max_new_tuples", "max_new_attributes"):
            with pytest.raises(MalformedParams):
                Budget(**{field: -1})

    def test_hard_cap_limits_the_search(self, monkeypatch):
        monkeypatch.setattr(reference_oracle, "BUDGET_CAP", 10)
        with pytest.raises(BudgetExceeded) as caught:
            reference_oracle.enumerate_outcomes(
                migrate_total_proc(), fig_instance(), Budget(max_new_tuples=1)
            )
        # LocVisits: 513 sets of additions (none, or one of the 8^3 rows),
        # each joined to 4 choices of kept rows
        assert str(caught.value) == (
            "oracle candidate space exceeds the hard cap of 10 at step 0 (migrate): "
            "0 candidates charged so far, and the next charge of 2565 does not fit"
        )

    def test_hard_cap_limits_the_pruned_search(self, monkeypatch):
        # `total LocVisits` keeps both old rows, and the tgd forces the migrated
        # row into every set of additions, which it fills: LocVisits charges 1
        # set of additions plus 1 row set, and the cross product 1 candidate
        proc, i, b = migrate_total_proc(), fig_instance(), Budget(max_new_tuples=1)
        monkeypatch.setattr(oracle_mod, "BUDGET_CAP", 3)
        assert len(enumerate_outcomes(proc, i, b)) == 1
        monkeypatch.setattr(oracle_mod, "BUDGET_CAP", 2)
        with pytest.raises(BudgetExceeded) as caught:
            enumerate_outcomes(proc, i, b)
        assert str(caught.value) == (
            "oracle candidate space exceeds the hard cap of 2 at step 0 (migrate): "
            "2 candidates charged so far, and the next charge of 1 does not fit"
        )

    def test_cap_message_names_the_step_that_overflows(self, monkeypatch):
        # step 0 charges 2565 + 2044 and fits; step 1 starts from J1's 3 rows
        monkeypatch.setattr(reference_oracle, "BUDGET_CAP", 5000)
        with pytest.raises(
            BudgetExceeded,
            match=r"at step 1 \(migrate\): 4609 candidates charged so far, "
            r"and the next charge of 4617 does not fit$",
        ):
            reference_oracle.enumerate_outcomes(
                [migrate_total_proc()] * 2, fig_instance(), Budget(max_new_tuples=1)
            )

    def test_pruned_cap_message_names_the_step_that_overflows(self, monkeypatch):
        # step 0 charges 2 + 1 (see above). Step 1 starts from J1, which holds
        # the forced row: LocVisits keeps its 3 old rows and charges 513 sets of
        # additions (none, or one of the 8^3 rows) plus 513 row sets, 1026; 510
        # of them are distinct, since 3 additions repeat a kept row. 3 + 1026 +
        # 510 = 1539.
        proc, i, b = migrate_total_proc(), fig_instance(), Budget(max_new_tuples=1)
        monkeypatch.setattr(oracle_mod, "BUDGET_CAP", 1539)
        assert len(enumerate_outcomes([proc] * 2, i, b)) == 510
        monkeypatch.setattr(oracle_mod, "BUDGET_CAP", 1538)
        with pytest.raises(
            BudgetExceeded,
            match=r"at step 1 \(migrate\): 1029 candidates charged so far, "
            r"and the next charge of 510 does not fit$",
        ):
            enumerate_outcomes([proc] * 2, i, b)

    def test_a_relation_is_charged_before_its_rows_are_built(self, monkeypatch):
        # 7^7 fresh tuples over R's 7 attributes and 7 values: 2,470,632 candidates
        built = []
        extensions = oracle_mod._extensions

        def counting(row, fill, pool):
            rows = extensions(row, fill, pool)
            built.append(len(rows))
            return rows

        monkeypatch.setattr(oracle_mod, "_extensions", counting)
        attrs = [f"a{k}" for k in range(7)]
        i = Instance.of(
            Schema.of({"R": attrs}), {"R": {Row.of({a: const(k) for k, a in enumerate(attrs)})}}
        )
        with pytest.raises(
            BudgetExceeded,
            match="0 candidates charged so far, and the next charge of 2470632 does not fit$",
        ):
            enumerate_outcomes(Procedure.of(scope=[StructureConstraint.of("R")]), i, Budget())
        assert sum(built) == 0

    def test_growth_slots_are_listed_as_the_search_reaches_them(self, monkeypatch):
        groups = []

        def counting(items, k):
            groups.append(k)
            return itertools.combinations_with_replacement(items, k)

        lazy = SimpleNamespace(**{**vars(itertools), "combinations_with_replacement": counting})
        monkeypatch.setattr(oracle_mod, "itertools", lazy)
        b = Budget(max_new_attributes=600, allow_schema_growth=True)
        schemas = oracle_mod._candidate_schemas(fig_instance(), migrate_total_proc(), b)
        next(schemas)
        assert groups == [0]
        next(schemas)
        assert groups == [0, 1]

    def test_candidate_schemas_come_once_each(self):
        # dropping R makes the growth slot on R a no-op, which used to yield
        # T(a) twice and enumerate and charge its product twice
        i = Instance.of(
            Schema.of({"R": ("a",), "T": ("a",)}),
            {"R": {Row.of({"a": const(1)})}, "T": {Row.of({"a": const(2)})}},
        )
        wipe = Procedure.of(scope=[StructureConstraint.of("R")])
        b = Budget(max_new_tuples=0, max_new_attributes=1, allow_schema_growth=True)
        schemas = list(oracle_mod._candidate_schemas(i, wipe, b))
        assert sorted(schemas) == sorted(
            Schema.of(rels)
            for rels in (
                {"R": ("a",), "T": ("a",)},
                {"R": ("a", "@attr0"), "T": ("a",)},
                {"R": ("a",), "T": ("a", "@attr0")},
                {"T": ("a",)},
                {"T": ("a", "@attr0")},
            )
        )

    def test_growth_flag_only_adds_outcomes(self):
        small = Instance.of(
            Schema.of({"LocVisits": VISIT_ATTRS}),
            {"LocVisits": {visit(1234, 33, "070916 12:00")}},
        )
        alter = instantiate_template(
            "alter_table", {"relation": "LocVisits", "attributes": ["age"]}
        )
        without = enumerate_outcomes(alter, small, Budget())
        with_growth = enumerate_outcomes(
            alter, small, Budget(allow_schema_growth=True)
        )
        assert without == frozenset()
        assert without <= with_growth
        assert with_growth


def _rt_rows():
    return st.frozensets(st.sampled_from([0, 1]), max_size=2)


@settings(max_examples=30, deadline=None)
@given(rs=_rt_rows(), ts=_rt_rows(), extra=st.integers(0, 1), bump=st.integers(0, 1))
def test_outcomes_monotone_in_budget(rs, ts, extra, bump):
    i = rt_instance(sorted(rs), sorted(ts))
    p = copy_into_both_proc()
    small = Budget(extra_constants=0, max_new_tuples=1)
    large = Budget(extra_constants=extra, max_new_tuples=1 + bump)
    assert enumerate_outcomes(p, i, small) <= enumerate_outcomes(p, i, large)


@settings(max_examples=40, deadline=None)
@given(
    rs=_rt_rows(),
    ts=_rt_rows(),
    cand_r=_rt_rows(),
    cand_t=_rt_rows(),
)
def test_checker_and_enumeration_agree_inside_the_universe(rs, ts, cand_r, cand_t):
    i = rt_instance(sorted(rs), sorted(ts))
    j = rt_instance(sorted(cand_r), sorted(cand_t))
    p = copy_into_both_proc()
    b = Budget(extra_constants=0, max_new_tuples=2)
    within = all(
        len(j.rows(rel) - i.rows(rel)) <= b.max_new_tuples
        and {r.cell("A") for r in j.rows(rel)} <= ({const(0), const(1)} & set(_pool(i)))
        for rel in ("R", "T")
    )
    if not within:
        return
    outs = enumerate_outcomes(p, i, b)
    assert (j in outs) == possible_outcome_report(p, i, j).ok


def _pool(i: Instance):
    return {v for rel in i.schema.names for r in i.rows(rel) for v in r.values}
