from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqworkbench.constraints import Var
from dqworkbench.dsl import load_workspace, parse_workspace
from dqworkbench.errors import DomainMismatch
from dqworkbench.model import (
    Instance,
    LabeledNull,
    Row,
    Schema,
    Value,
    active_domain,
    canonical_names,
    const,
    instance_extends,
    map_cells,
    null_marker,
    render_instance,
    schema_extends,
)

from .workspace_writers import workspace_to_json


def test_value_kinds():
    assert const(7).is_constant
    assert not null_marker("n1").is_constant
    assert const("7") == const(7)
    assert const("n1") != null_marker("n1")


def test_value_hashes_and_orders_as_its_kind_and_token():
    # the hash a frozen dataclass of (kind, token) had, so set order under a
    # fixed PYTHONHASHSEED is what it was
    assert hash(const("x")) == hash(("const", "x"))
    assert hash(null_marker("x")) == hash(("null", "x"))
    values = [null_marker("b"), const("b"), const(""), null_marker("a"), const("a"), const("B")]
    assert sorted(values) == sorted(values, key=lambda v: (v.kind, v.token))
    assert sorted(values)[0] == const("")


def test_value_is_never_a_variable_or_a_labeled_null():
    assert const("x") != LabeledNull("x") and LabeledNull("x") != const("x")
    assert const("x") != Var("x") and Var("x") != const("x")
    assert null_marker("x") != LabeledNull("x")
    assert len({const("x"), null_marker("x"), LabeledNull("x"), Var("x")}) == 4


def test_fig1_json_image_is_unchanged():
    # every cell goes through `cell_to_json`; a value that reached `json`
    # itself would come out as a two-item list and change this digest
    fig1 = load_workspace(str(Path(__file__).resolve().parent.parent / "workspaces" / "fig1.dq"))
    image = json.dumps(workspace_to_json(fig1), sort_keys=True)
    assert '["const", ' not in image and '["null", ' not in image
    assert (
        hashlib.sha256(image.encode()).hexdigest()
        == "9c191ba2fadbe96609572f0b6a00f7d9028226f813d7876e39eab7a5b56ebcb1"
    )


def test_row_orders_attributes():
    r = Row.of({"b": const(2), "a": const(1)})
    assert r.values == (const(1), const(2))
    assert r.cell("b") == const(2)
    assert r.attrs == ("a", "b")


def test_row_rejects_duplicate_attrs():
    # a row's layout is checked where it enters an instance or a table
    s = Schema.of({"R": ["a", "b"]})
    for attrs in (("a", "a"), ("b", "a")):
        with pytest.raises(DomainMismatch, match="distinct and ordered"):
            Instance.of(s, {"R": [Row(attrs, (const(1), const(2)))]})
    with pytest.raises(DomainMismatch, match="does not fit"):
        Instance.of(s, {"R": [Row(("a", "c"), (const(1), const(2)))]})


def test_rows_hash_and_compare_as_tuples_and_a_section_shares_its_attrs():
    # a design guard: rows, values and variables hash, compare and order in C
    for cls in (Row, Value, Var):
        for method in ("__hash__", "__eq__", "__lt__"):
            assert getattr(cls, method) is getattr(tuple, method), (cls, method)
    ws = parse_workspace(
        "schema S { rel R(b, a); }\n"
        "instance I : S { R: (1, 2), (3, 4), (5, 6); }\n"
        "instance J : S { R: (1, 2), (3, ?n),; }\n"  # a trailing `,` leaves the sliced reader
    )
    for name in "IJ":
        rows = ws.instances[name].rows("R")
        assert len({id(row.attrs) for row in rows}) == 1
        assert next(iter(rows)).attrs == ("a", "b")


def test_row_projection():
    r = Row.of({"a": const(1), "b": const(2), "c": const(3)})
    assert r.project(["c", "a"]) == Row.of({"a": const(1), "c": const(3)})


def test_instance_projection():
    rows = [Row.of({"a": const(1), "b": const(b)}) for b in (2, 3)]
    i = Instance.of(Schema.of({"R": ("a", "b")}), {"R": rows})
    assert i.projected("R", frozenset({"a", "b"})) is i.rows("R")  # the stored set, not a copy
    assert i.projected("R", frozenset({"a"})) == {Row.of({"a": const(1)})}  # rows that project alike, once
    assert i.projected("R", frozenset()) == {Row.of({})}
    assert i.projected("R", frozenset({"a", "c"})) is None
    assert i.projected("T", frozenset()) is None


values_st = st.one_of(
    st.integers(0, 3).map(const), st.sampled_from("xy").map(null_marker)
)
labeled_st = st.sampled_from(["n1", "n2", "n3"]).map(LabeledNull)
cell_maps_st = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]), st.one_of(values_st, labeled_st), max_size=4
)


@settings(max_examples=200, deadline=None)
@given(
    m=cell_maps_st,
    other=cell_maps_st,
    keep=st.sets(st.sampled_from(["a", "b", "c", "e"])),
    image=st.dictionaries(st.one_of(values_st, labeled_st), values_st, max_size=3),
    data=st.data(),
)
def test_positional_rows_match_the_mapping_view(m, other, keep, image, data):
    row = Row.of(m)
    assert row.attrs == tuple(sorted(m))
    assert all(row.cell(a) == c for a, c in m.items())
    assert row.project(keep) == Row.of({a: c for a, c in m.items() if a in keep})
    assert map_cells(row, image) == Row.of({a: image.get(c, c) for a, c in m.items()})
    assert (row == Row.of(other)) == (m == other)
    if m == other:
        assert hash(row) == hash(Row.of(other))
    # rows over one attrs tuple sort as their sorted items did; a column
    # holds cells of one kind, as two kinds do not compare
    columns = {a: data.draw(st.sampled_from([values_st, labeled_st])) for a in m}
    maps = data.draw(st.lists(st.fixed_dictionaries(columns), max_size=5))
    by_items = sorted(maps, key=lambda x: tuple(sorted(x.items())))
    assert sorted(Row.of(x) for x in maps) == [Row.of(x) for x in by_items]


def test_schema_lookup(visit_schema):
    assert visit_schema.defines("EVisits")
    assert not visit_schema.defines("Patients")
    assert visit_schema.attrs("LocVisits") == {"facility", "patInsur", "timestp"}
    assert visit_schema.names == ("EVisits", "LocVisits")


def test_schema_equality_ignores_input_order():
    a = Schema.of({"R": ["x", "y"], "T": ["z"]})
    b = Schema.of({"T": ["z"], "R": ["y", "x"]})
    assert a == b
    assert hash(a) == hash(b)


def test_instance_requires_schema_fit(visit_schema):
    with pytest.raises(DomainMismatch):
        Instance.of(visit_schema, {"LocVisits": [Row.of({"facility": const(1)})]})
    with pytest.raises(DomainMismatch):
        Instance.of(visit_schema, {"Nope": []})


def test_instance_defaults_to_empty_relations(visit_schema):
    empty = Instance.of(visit_schema)
    assert empty.rows("EVisits") == frozenset()
    assert empty.total_size() == 0


def test_schema_extends_allows_new_attrs_and_relations(visit_schema, aged_schema):
    assert schema_extends(aged_schema, visit_schema)
    assert not schema_extends(visit_schema, aged_schema)
    wider = Schema.of(
        {
            "EVisits": ("facility", "patInsur", "timestp"),
            "LocVisits": ("facility", "patInsur", "timestp"),
            "Patients": ("facility", "patInsur", "age"),
        }
    )
    assert schema_extends(wider, visit_schema)
    assert schema_extends(visit_schema, visit_schema)


def test_instance_extends_projects_new_attributes(instance_j1, instance_j3):
    assert instance_extends(instance_j3, instance_j1)
    assert not instance_extends(instance_j1, instance_j3)


def test_instance_extends_requires_all_rows(instance_i, instance_j1, instance_j2):
    assert instance_extends(instance_j1, instance_i)
    assert instance_extends(instance_j2, instance_j1)
    assert not instance_extends(instance_i, instance_j1)
    assert instance_extends(instance_i, instance_i)


def test_active_domain(instance_i):
    dom = active_domain(instance_i)
    assert const(1234) in dom
    assert const("070916 12:00") in dom
    assert const(4561) not in dom


def test_canonical_names_ranks_values_by_their_occurrences():
    s = Schema.of({"R": ["a", "b"], "S": ["c"]})
    i = Instance.of(
        s,
        {
            "R": [
                Row.of({"a": const("x"), "b": null_marker("m")}),
                Row.of({"a": const(1), "b": const("y")}),
            ],
            "S": [Row.of({"c": const("x")})],
        },
    )

    def facts():
        return ((rel, row.values, ()) for rel, rows in i.data for row in rows)

    names = canonical_names(facts(), lambda v: v != const(1), lambda k: const(f"@r{k}"))
    renamed = Instance.of(s, {rel: [map_cells(row, names) for row in rows] for rel, rows in i.data})
    # x and ?m sit in a row with no rigid value, x before ?m; y sits beside 1
    expected = Instance.of(
        s,
        {
            "R": [
                Row.of({"a": const("@r0"), "b": const("@r1")}),
                Row.of({"a": const(1), "b": const("@r2")}),
            ],
            "S": [Row.of({"c": const("@r0")})],
        },
    )
    assert renamed == expected
    assert canonical_names(facts(), lambda v: False, lambda k: const(f"@r{k}")) == {}


def test_render_is_deterministic(instance_j2):
    text = render_instance(instance_j2)
    assert text == render_instance(instance_j2)
    assert "LocVisits(facility, patInsur, timestp):" in text
    assert '  (4561, 54, "080916 23:45")' in text


def test_render_marks_empty_relations(visit_schema):
    text = render_instance(Instance.of(visit_schema))
    assert text.count("(empty)") == 2


names = st.sampled_from(["a", "b", "c", "d"])
tokens = st.integers(min_value=0, max_value=5).map(const)


@st.composite
def small_instances(draw):
    rel_names = draw(st.lists(st.sampled_from(["R", "T", "U"]), min_size=1, max_size=3, unique=True))
    schema = {}
    for r in rel_names:
        schema[r] = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    s = Schema.of(schema)
    data = {}
    for r in rel_names:
        attrs = sorted(schema[r])
        rows = draw(
            st.lists(
                st.tuples(*[tokens for _ in attrs]).map(
                    lambda vs, attrs=attrs: Row.of(dict(zip(attrs, vs)))
                ),
                max_size=4,
            )
        )
        data[r] = rows
    return Instance.of(s, data)


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_extends_is_reflexive(inst):
    assert instance_extends(inst, inst)


@settings(max_examples=100, deadline=None)
@given(small_instances(), st.data())
def test_union_extends_both_when_defined(inst, data):
    other = data.draw(small_instances())
    # the union is defined when shared relations agree on their attributes
    rels = dict(inst.schema.rels)
    if any(rels.get(r, attrs) != attrs for r, attrs in other.schema.rels):
        return
    rels.update(other.schema.rels)
    rows = {r: set() for r in rels}
    for side in (inst, other):
        for r, side_rows in side.data:
            rows[r] |= side_rows
    u = Instance.of(Schema.of(rels), rows)
    assert instance_extends(u, inst)
    assert instance_extends(u, other)
