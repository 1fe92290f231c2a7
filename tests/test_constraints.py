from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqworkbench.constraints import (
    And,
    Comparison,
    ConjunctiveQuery,
    ConstantAtom,
    Egd,
    NamedAtom,
    Not,
    Or,
    StructureConstraint,
    Tgd,
    TotalQuery,
    Var,
    cq,
    demanded_attrs,
    evaluate_query,
    is_compatible,
    satisfies,
    structure_holds,
)
from dqworkbench.errors import DomainMismatch, Incompatible
from dqworkbench.model import Instance, Row, Schema, active_domain, const, null_marker

from .conftest import boolean_cq, open_cq
from .reference_queries import canonicalize_cq

X, Y, Z, W = Var("x"), Var("y"), Var("z"), Var("w")


def visit_atom(rel: str, **terms) -> NamedAtom:
    return NamedAtom.of(rel, terms)


def migrate_tgd() -> Tgd:
    body = open_cq(
        [visit_atom("EVisits", facility=X, patInsur=Y, timestp=Z)]
    )
    head = open_cq(
        [visit_atom("LocVisits", facility=X, patInsur=Y, timestp=Z)]
    )
    return Tgd(body, head)


def test_atom_compatibility(visit_schema):
    assert is_compatible(visit_atom("LocVisits", facility=X), visit_schema)
    assert is_compatible(TotalQuery(("LocVisits",)), visit_schema)
    assert not is_compatible(visit_atom("LocVisits", age=X), visit_schema)
    assert not is_compatible(TotalQuery(("Patients",)), visit_schema)


def test_total_query_frozen_values(instance_i):
    assert evaluate_query(TotalQuery(("EVisits",)), instance_i) == frozenset(
        {
            (const(1234), const(33), const("070916 12:00")),
            (const(2087), const(91), const("090916 03:10")),
        }
    )


def test_cq_projection_frozen_values(instance_i):
    q = cq(
        [visit_atom("LocVisits", facility=X, timestp=Z)],
        free=[X],
        existential=[Z],
    )
    assert evaluate_query(q, instance_i) == frozenset(
        {(const(1234),), (const(1222),)}
    )


def test_cq_on_empty_instance(visit_schema):
    q = cq([visit_atom("LocVisits", facility=X)], free=[X])
    assert evaluate_query(q, Instance.of(visit_schema)) == frozenset()


def test_boolean_cq_answers(instance_i, visit_schema):
    hit = boolean_cq([visit_atom("LocVisits", facility=const(1222))])
    miss = boolean_cq([visit_atom("LocVisits", facility=const(9999))])
    assert evaluate_query(hit, instance_i) == frozenset({()})
    assert evaluate_query(miss, instance_i) == frozenset()


def test_empty_query_is_identically_true(instance_i):
    empty = cq([])
    assert evaluate_query(empty, instance_i) == frozenset({()})


def test_shared_variable_join(instance_i):
    q = cq(
        [
            visit_atom("EVisits", facility=X, patInsur=Y),
            visit_atom("LocVisits", facility=X, patInsur=Y),
        ],
        free=[X],
        existential=[Y],
    )
    assert evaluate_query(q, instance_i) == frozenset({(const(1234),)})


def test_incompatible_query_raises(instance_i):
    with pytest.raises(Incompatible):
        evaluate_query(cq([visit_atom("LocVisits", age=X)], free=[X]), instance_i)


def test_filtered_total(instance_i):
    keep = TotalQuery(("LocVisits",), Not(Comparison("facility", "=", const(1222))))
    assert evaluate_query(keep, instance_i) == frozenset(
        {(const(1234), const(33), const("070916 12:00"))}
    )
    both = TotalQuery(
        ("LocVisits",),
        And((Comparison("patInsur", "=", const(33)), Comparison("facility", "!=", const(1222)))),
    )
    assert evaluate_query(both, instance_i) == frozenset(
        {(const(1234), const(33), const("070916 12:00"))}
    )


def test_filtered_total_compatibility(visit_schema):
    bad = TotalQuery(("LocVisits",), Comparison("age", "=", const(5)))
    assert not is_compatible(bad, visit_schema)


def test_total_conj_cross_product(instance_i):
    q = TotalQuery(("EVisits", "LocVisits"))
    answers = evaluate_query(q, instance_i)
    assert len(answers) == 4
    assert (
        const(1234),
        const(33),
        const("070916 12:00"),
        const(1222),
        const(33),
        const("020715 07:50"),
    ) in answers


def test_total_type_queries_list_their_relations(visit_schema):
    cond = Comparison("patInsur", "=", const(33))
    assert TotalQuery(("LocVisits",)).relations == ("LocVisits",)
    assert TotalQuery(("LocVisits",), cond).relations == ("LocVisits",)
    assert is_compatible(TotalQuery(("EVisits", "LocVisits")), visit_schema)
    assert not is_compatible(TotalQuery(("EVisits", "Patients")), visit_schema)


def test_total_query_filters_one_relation_named_in_a_tuple():
    cond = Comparison("a", "=", const(1))
    with pytest.raises(DomainMismatch):
        TotalQuery(("R", "T"), cond)
    with pytest.raises(DomainMismatch):
        TotalQuery("R")


def test_demanded_attrs_reads_every_query_kind():
    cond = Or((Comparison("a", "=", const(1)), Comparison("b", "!=", "c")))
    queries = [
        TotalQuery(("R",)),
        TotalQuery(("R", "T")),
        TotalQuery(("U",), cond),
        open_cq([NamedAtom.of("R", {"d": X})]),
    ]
    assert demanded_attrs(queries, {}) == {
        "R": {"d"},
        "T": set(),
        "U": {"a", "b", "c"},
    }
    need = {"T": {"e"}}
    assert demanded_attrs([TotalQuery(("T",))], need) is need
    assert need == {"T": {"e"}}


def test_constant_atom_filters_null_markers():
    s = Schema.of({"R": ("a",)})
    i = Instance.of(
        s, {"R": [Row.of({"a": const(1)}), Row.of({"a": null_marker("n")})]}
    )
    q = cq([visit_atom("R", a=X), ConstantAtom(X)], free=[X])
    assert evaluate_query(q, i) == frozenset({(const(1),)})


def test_variable_only_under_nonnull_is_rejected():
    i = Instance.of(Schema.of({"R": ("a",)}), {"R": [Row.of({"a": const(1)})]})
    loose = r"variables \['x'\] occur in no relation atom"
    q = cq([visit_atom("R", a=const(1)), ConstantAtom(X)], existential=[X])
    with pytest.raises(Incompatible, match=loose):
        evaluate_query(q, i)
    body = open_cq([visit_atom("R", a=const(1)), ConstantAtom(X)])
    for d in (Tgd(body, boolean_cq([visit_atom("R", a=const(1))])), Egd(body, (X, X))):
        with pytest.raises(Incompatible, match=loose):
            satisfies(d, i)


def test_migration_tgd_on_fig1(instance_i, instance_j1):
    d = migrate_tgd()
    assert not satisfies(d, instance_i)
    assert satisfies(d, instance_j1)


def test_tgd_projection_semantics_on_wider_schema(instance_j3):
    assert satisfies(migrate_tgd(), instance_j3)


def test_egd_single_row_trivially_holds():
    s = Schema.of({"Patients": ("age", "facility", "patInsur")})
    i = Instance.of(
        s,
        {
            "Patients": [
                Row.of(
                    {"facility": const(1234), "patInsur": const(33), "age": const(21)}
                )
            ]
        },
    )
    body = open_cq(
        [
            visit_atom("Patients", facility=X, patInsur=Y, age=Z),
            visit_atom("Patients", facility=X, patInsur=Y, age=W),
        ]
    )
    d = Egd(body, (Z, W))
    assert satisfies(d, i)
    j = Instance.of(
        s,
        {
            "Patients": [
                Row.of(
                    {"facility": const(1234), "patInsur": const(33), "age": const(21)}
                ),
                Row.of(
                    {"facility": const(1234), "patInsur": const(33), "age": const(45)}
                ),
            ]
        },
    )
    assert not satisfies(d, j)


def test_structure_constraints(visit_schema, aged_schema, instance_i):
    assert not structure_holds(StructureConstraint.of("LocVisits", ["age"]), visit_schema)
    assert structure_holds(StructureConstraint.of("LocVisits", ["age"]), aged_schema)
    assert structure_holds(StructureConstraint.of("LocVisits"), visit_schema)
    assert not structure_holds(StructureConstraint.of("Patients"), visit_schema)
    # `satisfies` reads a structure constraint off the instance's schema
    assert satisfies(StructureConstraint.of("LocVisits"), instance_i)
    assert not satisfies(StructureConstraint.of("LocVisits", ["age"]), instance_i)


def test_out_of_schema_dependency_raises(instance_i):
    body = open_cq([visit_atom("Patients", age=X)])
    head = open_cq([visit_atom("LocVisits", facility=X)])
    with pytest.raises(Incompatible):
        satisfies(Tgd(body, head), instance_i)


def test_tgd_invariants_enforced():
    body = open_cq([visit_atom("R", a=X)])
    with pytest.raises(DomainMismatch):
        Tgd(body, open_cq([visit_atom("T", b=Y)]))
    head_ok = cq([visit_atom("T", b=Y)], free=(), existential=[Y])
    Tgd(body, head_ok)


def test_cq_variable_coverage_enforced():
    with pytest.raises(DomainMismatch):
        ConjunctiveQuery((NamedAtom.of("R", {"a": X}),), (X, Y), frozenset())
    with pytest.raises(DomainMismatch):
        ConjunctiveQuery((NamedAtom.of("R", {"a": X}),), (), frozenset())


def test_canonicalize_identifies_renamings():
    u, v = Var("u"), Var("v")
    q1 = cq([visit_atom("T", b1=X), visit_atom("S", a1=Y)], free=[X, Y])
    q2 = cq([visit_atom("S", a1=u), visit_atom("T", b1=v)], free=[v, u])
    assert canonicalize_cq(q1) == canonicalize_cq(q2)
    q3 = cq([visit_atom("T", b1=X), visit_atom("S", a1=X)], free=[X])
    assert canonicalize_cq(q1) != canonicalize_cq(q3)


# Brute-force reference semantics used to validate the homomorphism engine.


def _atom_holds(atom, tau, inst):
    if isinstance(atom, ConstantAtom):
        return tau[atom.variable].is_constant
    for row in inst.rows(atom.relation):
        if all(
            row.cell(a) == (tau[t] if isinstance(t, Var) else t) for a, t in atom.bindings
        ):
            return True
    return False


def brute_force_tgd(d: Tgd, inst: Instance) -> bool:
    dom = sorted(active_domain(inst))
    body_vars = sorted(d.body.vars)
    for values in product(dom, repeat=len(body_vars)):
        tau = dict(zip(body_vars, values))
        if not all(_atom_holds(a, tau, inst) for a in d.body.atoms):
            continue
        head_ext = sorted(d.head.existential)
        matched = False
        for ext in product(dom, repeat=len(head_ext)):
            sigma = dict(tau)
            sigma.update(zip(head_ext, ext))
            if all(_atom_holds(a, sigma, inst) for a in d.head.atoms):
                matched = True
                break
        if not matched:
            return False
    return True


SCHEMA_RT = Schema.of({"R": ("a", "b"), "T": ("b", "c")})
VALUES = [const(i) for i in range(3)] + [null_marker("m")]


@st.composite
def rt_instances(draw):
    r_rows = draw(
        st.lists(
            st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)).map(
                lambda p: Row.of({"a": p[0], "b": p[1]})
            ),
            max_size=4,
        )
    )
    t_rows = draw(
        st.lists(
            st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)).map(
                lambda p: Row.of({"b": p[0], "c": p[1]})
            ),
            max_size=4,
        )
    )
    return Instance.of(SCHEMA_RT, {"R": r_rows, "T": t_rows})


@st.composite
def rt_tgds(draw):
    pool = [X, Y, Z]
    body_atoms = []
    n_atoms = draw(st.integers(1, 2))
    for _ in range(n_atoms):
        rel = draw(st.sampled_from(["R", "T"]))
        attrs = sorted(SCHEMA_RT.attrs(rel))
        chosen = draw(st.lists(st.sampled_from(attrs), min_size=1, unique=True))
        body_atoms.append(
            NamedAtom.of(rel, {a: draw(st.sampled_from(pool)) for a in chosen})
        )
    body = open_cq(body_atoms)
    head_rel = draw(st.sampled_from(["R", "T"]))
    head_attrs = sorted(SCHEMA_RT.attrs(head_rel))
    chosen = draw(st.lists(st.sampled_from(head_attrs), min_size=1, unique=True))
    head_pool = list(body.free) + [W]
    head_atom = NamedAtom.of(
        head_rel, {a: draw(st.sampled_from(head_pool)) for a in chosen}
    )
    head_vars = head_atom.vars
    head = ConjunctiveQuery(
        (head_atom,),
        tuple(sorted(head_vars & set(body.free))),
        frozenset(head_vars - set(body.free)),
    )
    return Tgd(body, head)


@settings(max_examples=150, deadline=None)
@given(rt_instances(), rt_tgds())
def test_tgd_agrees_with_brute_force(inst, d):
    assert satisfies(d, inst) == brute_force_tgd(d, inst)


@settings(max_examples=100, deadline=None)
@given(rt_instances(), st.data())
def test_cq_monotone_under_row_addition(inst, data):
    extra = data.draw(rt_instances())
    merged_rows = {
        r: inst.rows(r) | extra.rows(r) for r in ("R", "T")
    }
    bigger = Instance.of(SCHEMA_RT, merged_rows)
    q = cq(
        [visit_atom("R", a=X, b=Y), visit_atom("T", b=Y)],
        free=[X],
        existential=[Y],
    )
    assert evaluate_query(q, inst) <= evaluate_query(q, bigger)
    assert evaluate_query(TotalQuery(("R",)), inst) <= evaluate_query(TotalQuery(("R",)), bigger)


@settings(max_examples=100, deadline=None)
@given(rt_instances())
def test_bound_variable_renaming_is_invisible(inst):
    q1 = cq([visit_atom("R", a=X, b=Z)], free=[X], existential=[Z])
    q2 = cq([visit_atom("R", a=X, b=W)], free=[X], existential=[W])
    assert evaluate_query(q1, inst) == evaluate_query(q2, inst)
