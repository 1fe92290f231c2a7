"""Workspace format: parsing, diagnostics, serialization, JSON mirror."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dqworkbench.constraints import (
    And,
    Comparison,
    ConjunctiveQuery,
    ConstantAtom,
    Egd,
    FilteredTotalQuery,
    NamedAtom,
    Not,
    Or,
    StructureConstraint,
    Tgd,
    TotalConjQuery,
    TotalQuery,
    Var,
    boolean_cq,
    cq,
)
from dqworkbench import dsl
from dqworkbench.dsl import (
    Workspace,
    load_workspace,
    parse_workspace,
    serialize_workspace,
    workspace_from_json,
    workspace_to_json,
)
from dqworkbench.errors import (
    ResolutionError,
    SchemaConformance,
    WorkspaceSyntaxError,
)
from dqworkbench.model import Instance, Row, Schema, const, null_marker
from dqworkbench.procedures import Procedure, instantiate_template

from .conftest import migrate_cq_proc, migrate_total_proc

FIG1 = Path(__file__).resolve().parent.parent / "workspaces" / "fig1.dq"


@pytest.fixture(scope="module")
def fig1() -> Workspace:
    return load_workspace(str(FIG1))


class TestFig1Workspace:
    def test_declarations_present(self, fig1):
        assert sorted(fig1.schemas) == ["S", "S_age"]
        assert sorted(fig1.instances) == ["I", "J1", "J1_missing", "J2", "J3"]
        assert sorted(fig1.procedures) == ["alter_age", "migrate", "migrate_cq"]
        assert sorted(fig1.queries) == ["q_visit"]
        assert fig1.sequences == {"fix": ("migrate", "alter_age")}

    def test_instances_conform_to_their_schemas(self, fig1, instance_i, instance_j1):
        assert fig1.instances["I"] == instance_i
        assert fig1.instances["J1"] == instance_j1
        assert fig1.instance_schema["J3"] == "S_age"

    def test_procedures_match_code_built_equivalents(self, fig1):
        assert fig1.procedures["migrate"] == migrate_total_proc()
        assert fig1.procedures["migrate_cq"] == migrate_cq_proc()
        assert fig1.procedures["alter_age"] == instantiate_template(
            "alter_table", {"relation": "LocVisits", "attributes": ["age"]}
        )

    def test_goal_query_shape(self, fig1):
        z = Var("z")
        assert fig1.queries["q_visit"] == boolean_cq(
            [
                NamedAtom.of(
                    "LocVisits",
                    {"facility": const(2087), "patInsur": const(91), "timestp": z},
                )
            ]
        )

    def test_text_round_trip(self, fig1):
        assert parse_workspace(serialize_workspace(fig1)) == fig1

    def test_json_round_trip(self, fig1):
        assert workspace_from_json(workspace_to_json(fig1)) == fig1

    def test_json_file_loading(self, fig1, tmp_path):
        path = tmp_path / "fig1.dq.json"
        path.write_text(json.dumps(workspace_to_json(fig1)))
        assert load_workspace(str(path)) == fig1


class TestParsingBasics:
    def test_empty_file_gives_empty_workspace(self):
        assert parse_workspace("") == Workspace()

    def test_comments_only_file_gives_empty_workspace(self):
        assert parse_workspace("# nothing here\n  # still nothing\n") == Workspace()
        assert parse_workspace("schema S { }\n# rel R(a);") == parse_workspace("schema S { }")

    def test_equal_constants_share_one_value(self):
        ws = parse_workspace(
            "schema S { rel R(a, b); }\n"
            'instance I : S { R: (1, x), (2, "x"); }\ninstance J : S { R: (1, x); }'
        )
        values = [v for name in "IJ" for row in ws.instances[name].rows("R") for v in row.values_in_order()]
        ones = [v for v in values if v == const(1)]
        plain_x = [v for v in values if v == const("x")]
        assert len(ones) == 2 and ones[0] is ones[1]
        assert len(plain_x) == 3

    def test_number_shaped_constants_survive_a_text_round_trip(self):
        tokens = ["1.", ".5", "-.5", "007", "\u00b2", "-\u00b2", "1.2.3", "-0", "2.50"]
        ws = workspace_from_json(
            {
                "schemas": {"S": {"R": ["a"]}},
                "instances": {"I": {"schema": "S", "rows": {"R": [[{"const": t}] for t in tokens]}}},
            }
        )
        text = serialize_workspace(ws)
        assert parse_workspace(text) == ws
        assert "(007)" in text and '("1.")' in text and '("-.5")' in text

    def test_name_shaped_constants_survive_a_text_round_trip(self):
        # `str.isidentifier` accepts both, the lexer's name rule does not:
        # a letter number, and a letter followed by a combining accent
        tokens = ["\u216b", "e\u0301", "a\u216b", "a\u00b2", "_x", "plain"]
        ws = workspace_from_json(
            {
                "schemas": {"S": {"R": ["a"]}},
                "instances": {"I": {"schema": "S", "rows": {"R": [[{"const": t}] for t in tokens]}}},
            }
        )
        text = serialize_workspace(ws)
        assert parse_workspace(text) == ws
        assert '("\u216b")' in text and '("e\u0301")' in text and "(a\u216b)" in text

    def test_value_forms(self):
        ws = parse_workspace(
            'schema S { rel R(a); }\n'
            'instance I : S { R: (1), (-3), (2.5), ("two words"), (plain), (?n1); }'
        )
        tokens = {row["a"] for row in ws.instances["I"].rows("R")}
        assert tokens == {
            const(1),
            const(-3),
            const("2.5"),
            const("two words"),
            const("plain"),
            null_marker("n1"),
        }

    def test_string_escapes(self):
        ws = parse_workspace(
            'schema S { rel R(a); }\n'
            'instance I : S { R: ("say \\"hi\\""), ("back\\\\slash"); }'
        )
        tokens = {row["a"].token for row in ws.instances["I"].rows("R")}
        assert tokens == {'say "hi"', "back\\slash"}

    def test_reserved_words_usable_as_constants(self):
        ws = parse_workspace(
            "schema S { rel R(a); }\ninstance I : S { R: (true), (total); }"
        )
        tokens = {row["a"] for row in ws.instances["I"].rows("R")}
        assert tokens == {const("true"), const("total")}

    def test_empty_relation_section(self):
        ws = parse_workspace("schema S { rel R(a); }\ninstance I : S { R: ; }")
        assert ws.instances["I"].rows("R") == frozenset()

    def test_dependency_variable_normalization(self):
        ws = parse_workspace(
            "schema S { rel R(a, b); rel T(a); }\n"
            "tgd d : R(b: y, a: x) -> T(a: y)"
        )
        d = ws.constraints["d"]
        assert d.body.free == (Var("x"), Var("y"))
        assert d.head == cq([NamedAtom.of("T", {"a": Var("y")})], free=[Var("y")])

    def test_existential_head_variables(self):
        ws = parse_workspace("tgd d : R(a: x) -> T(a: x, b: w)")
        assert ws.constraints["d"].head.existential == frozenset({Var("w")})

    def test_empty_body_dependency(self):
        ws = parse_workspace("tgd d : true -> R(a: 1)")
        assert ws.constraints["d"].body.atoms == ()

    def test_nonnull_atoms(self):
        ws = parse_workspace("tgd d : R(a: x) -> nonnull(x)")
        assert ws.constraints["d"].head.atoms == (ConstantAtom(Var("x")),)

    def test_egd(self):
        ws = parse_workspace("egd d : R(a: x, b: y) and R(a: x, b: z) -> y = z")
        d = ws.constraints["d"]
        assert isinstance(d, Egd)
        assert d.equated == (Var("y"), Var("z"))

    def test_structure_constraint_forms(self):
        ws = parse_workspace(
            "struct w : R[*]\nstruct bare : R\nstruct none : R[]\nstruct named : R[b, a]"
        )
        assert ws.constraints["w"] == StructureConstraint("R", None)
        assert ws.constraints["bare"] == StructureConstraint("R", None)
        assert ws.constraints["none"] == StructureConstraint("R", ())
        assert ws.constraints["named"] == StructureConstraint("R", ("a", "b"))

    def test_query_kinds(self):
        ws = parse_workspace(
            "query b : exists x . R(a: x)\n"
            "query open(y, x) : R(a: x, b: y)\n"
            "query t : total R\n"
            "query tc : total R, T\n"
            "query f : filtered R where not (a = 1) and b != c or a = \"x\"\n"
        )
        assert ws.queries["b"].is_boolean
        assert ws.queries["open"].free == (Var("y"), Var("x"))
        assert ws.queries["t"] == TotalQuery("R")
        assert ws.queries["tc"] == TotalConjQuery(("R", "T"))
        f = ws.queries["f"]
        assert f == FilteredTotalQuery(
            "R",
            Or(
                (
                    And((Not(Comparison("a", "=", const(1))), Comparison("b", "!=", "c"))),
                    Comparison("a", "=", const("x")),
                )
            ),
        )

    def test_proc_sections_in_any_order(self):
        ws = parse_workspace(
            "proc p {\n"
            "  post { tgd R(a: x) -> T(a: x); }\n"
            "  scope { T[*]; }\n"
            "  safe { total T; }\n"
            "}"
        )
        p = ws.procedures["p"]
        assert p.scope == (StructureConstraint("T", None),)
        assert p.safe == (TotalQuery("T"),)
        assert p.pre == ()

    def test_safety_cq_with_explicit_variable_order(self):
        ws = parse_workspace("proc p { safe { cq (y, x) R(a: x, b: y); } }")
        assert ws.procedures["p"].safe[0].free == (Var("y"), Var("x"))


class TestTemplates:
    def test_data_exchange_resolves_named_dependencies(self):
        ws = parse_workspace(
            "tgd d : R(a: x) -> T(a: x)\nproc dx = template data_exchange(d)"
        )
        assert ws.procedures["dx"] == instantiate_template(
            "data_exchange", {"dependencies": [ws.constraints["d"]]}
        )

    def test_attribute_copy(self):
        ws = parse_workspace(
            "proc cp = template attribute_copy(LocVisits, Patients; patInsur; age)"
        )
        assert ws.procedures["cp"] == instantiate_template(
            "attribute_copy",
            {
                "target": "LocVisits",
                "source": "Patients",
                "keys": ["patInsur"],
                "attribute": "age",
            },
        )

    def test_null_scrub_with_kept_attributes(self):
        ws = parse_workspace("proc ns = template null_scrub(R; a; b, c)")
        assert ws.procedures["ns"] == instantiate_template(
            "null_scrub", {"relation": "R", "attribute": "a", "keep": ["b", "c"]}
        )

    def test_sql_insert_values(self):
        ws = parse_workspace('proc ins = template sql_insert(R; a, b; 1, "x")')
        assert ws.procedures["ins"] == instantiate_template(
            "sql_insert",
            {"relation": "R", "columns": ["a", "b"], "values": [const(1), const("x")]},
        )

    def test_sql_insert_query(self):
        ws = parse_workspace(
            "query src(x) : exists y . T(a: x, b: y)\n"
            "proc ins = template sql_insert(R; a; query src)"
        )
        assert ws.procedures["ins"] == instantiate_template(
            "sql_insert",
            {"relation": "R", "columns": ["a"], "query": ws.queries["src"]},
        )

    def test_sql_delete_with_condition(self):
        ws = parse_workspace("proc del = template sql_delete(R; a = 1 or not (b != c))")
        assert ws.procedures["del"] == instantiate_template(
            "sql_delete",
            {
                "relation": "R",
                "condition": Or(
                    (Comparison("a", "=", const(1)), Not(Comparison("b", "!=", "c")))
                ),
            },
        )

    def test_template_parameter_errors_carry_positions(self):
        with pytest.raises(WorkspaceSyntaxError) as e:
            parse_workspace("proc p = template alter_table(R)")
        assert (e.value.line, e.value.col) == (1, 32)
        assert e.value.reason == "expected ';', found ')'"
        with pytest.raises(WorkspaceSyntaxError) as e:
            parse_workspace("proc p = template nope(R; a)")
        assert "unknown template kind" in str(e.value)
        for call in ("alter_table(R; c, c)", "attribute_copy(T, U; k, k; v)", "null_scrub(R; a; b, b)"):
            with pytest.raises(WorkspaceSyntaxError) as e:
                parse_workspace(f"schema S {{ rel R(a); }}\nproc p = template {call}")
            assert (e.value.line, e.value.col) == (2, 6)
            assert "must be distinct" in e.value.reason


class TestDiagnostics:
    def assert_position(self, text: str, line: int, col: int, fragment: str):
        with pytest.raises(WorkspaceSyntaxError) as e:
            parse_workspace(text)
        assert (e.value.line, e.value.col) == (line, col)
        assert fragment in e.value.reason

    def test_missing_semicolon(self):
        self.assert_position("schema S { rel R(a) }", 1, 21, "expected ';'")

    def test_unexpected_end_of_file(self):
        self.assert_position("schema S {", 1, 10, "end of file")

    def test_unknown_top_declaration(self):
        self.assert_position("banana S { }", 1, 1, "one of schema")

    def test_reserved_name(self):
        self.assert_position("schema total { }", 1, 8, "reserved word")

    def test_reserved_at_namespace(self):
        self.assert_position("query q : @x(a: 1)", 1, 11, "reserved for generated values")
        # a name with an @ inside is reported where the name starts
        self.assert_position("query q : R(a: xy@z)", 1, 16, "reserved for generated values")
        self.assert_position("query q : R(a: x.@z)", 1, 16, "reserved for generated values")
        self.assert_position("query q : R(a: ?n@z)", 1, 18, "reserved for generated values")

    def test_duplicate_declaration(self):
        self.assert_position("schema S { }\nschema S { }", 2, 8, "duplicate schema")

    def test_unterminated_string(self):
        self.assert_position('schema S { rel R(a); }\ninstance I : S { R: ("x; }', 2, 22, "unterminated string")

    def test_unknown_escape(self):
        self.assert_position('schema S { rel R(a); }\ninstance I : S { R: ("a\\n"); }', 2, 24, "unknown escape")

    def test_free_list_on_total_query(self):
        self.assert_position("query q(x) : total R", 1, 12, "no variable list")

    def test_empty_tuple(self):
        self.assert_position("schema S { rel R(a); }\ninstance I : S { R: (); }", 2, 22, "at least one value")

    def test_head_variable_positions(self):
        self.assert_position("egd d : R(a: x) -> y = z", 1, 5, "equated variables")

    def test_unknown_schema_reference(self):
        with pytest.raises(ResolutionError, match="missing"):
            parse_workspace("instance I : missing { }")

    def test_unknown_relation_in_instance(self):
        with pytest.raises(ResolutionError, match="Ghost"):
            parse_workspace("schema S { rel R(a); }\ninstance I : S { Ghost: (1); }")

    def test_wrong_arity_tuple(self):
        with pytest.raises(SchemaConformance, match=r"relation R, tuple 1"):
            parse_workspace(
                "schema S { rel R(a, b); }\ninstance I : S { R: (1, 2), (3); }"
            )

    def test_unknown_procedure_in_sequence(self):
        with pytest.raises(ResolutionError, match="ghost"):
            parse_workspace("seq s = ghost")

    def test_unknown_dependency_in_template(self):
        with pytest.raises(ResolutionError, match="ghost"):
            parse_workspace("proc dx = template data_exchange(ghost)")

    def test_numerals_that_are_not_letters(self):
        # `²` is a digit, `½` a numeral that may continue a name but not start one
        ws = parse_workspace("schema S { rel R(a); }\ninstance I : S { R: (\u00b2), (-\u00b2), (x\u00bd); }")
        assert {row["a"] for row in ws.instances["I"].rows("R")} == {
            const("\u00b2"), const("-\u00b2"), const("x\u00bd")
        }
        self.assert_position("schema S { rel R(a); }\ninstance I : S { R: (\u00bd); }", 2, 22, "unexpected character")

    def test_lexical_errors(self):
        self.assert_position("schema S {\n  rel R(a);\f}", 2, 12, "unexpected character '\\x0c'")
        self.assert_position("schema S {\xa0}", 1, 11, "unexpected character '\\xa0'")
        self.assert_position("query q : R(a: -.5)", 1, 16, "unexpected character '-'")
        self.assert_position("query q : R(a: ?)", 1, 16, "? must start a null name")
        self.assert_position('query q : R(a: "x\\', 1, 16, "unterminated string")

    def test_lexer_pattern_compiles_on_the_declared_python_floor(self):
        # atomic groups and possessive quantifiers need Python 3.11;
        # pyproject.toml declares requires-python >= 3.10
        for pattern in (dsl._LEXER.pattern, dsl._lexer("\u00b2", "\u00b2\u00bd").pattern):
            assert "(?>" not in pattern
            for quantifier in ("*+", "++", "?+"):
                assert quantifier not in pattern

    def test_diagnostics_are_deterministic(self):
        text = "schema S { rel R(a) }"
        errors = set()
        for _ in range(3):
            with pytest.raises(WorkspaceSyntaxError) as e:
                parse_workspace(text)
            errors.add((e.value.line, e.value.col, e.value.reason))
        assert len(errors) == 1


# --- generated round-trips -----------------------------------------------------

ATTR_POOL = ("a", "b", "c")
REL_POOL = ("R", "T")
VAR_POOL = (Var("x"), Var("y"), Var("z"))

value_st = st.one_of(
    st.integers(0, 9).map(const),
    st.sampled_from(["two words", 'say "hi"', "back\\slash", "plain"]).map(const),
    st.sampled_from(["n1", "n2"]).map(null_marker),
)


@st.composite
def schema_st(draw) -> Schema:
    rels = draw(
        st.dictionaries(
            st.sampled_from(REL_POOL),
            st.sets(st.sampled_from(ATTR_POOL), min_size=1, max_size=3),
            min_size=1,
            max_size=2,
        )
    )
    return Schema.of(rels)


@st.composite
def instance_st(draw, schema: Schema) -> Instance:
    data = {}
    for rel in schema.names:
        attrs = sorted(schema.attrs(rel))
        rows = draw(
            st.sets(
                st.tuples(*(value_st for _ in attrs)).map(
                    lambda vs, attrs=attrs: Row.of(dict(zip(attrs, vs)))
                ),
                max_size=2,
            )
        )
        data[rel] = rows
    return Instance.of(schema, data)


@st.composite
def atom_st(draw, schema: Schema) -> NamedAtom:
    rel = draw(st.sampled_from(schema.names))
    attrs = sorted(schema.attrs(rel))
    chosen = draw(st.sets(st.sampled_from(attrs), min_size=1, max_size=len(attrs)))
    bindings = {}
    for attr in chosen:
        bindings[attr] = draw(st.one_of(st.sampled_from(VAR_POOL), value_st))
    return NamedAtom.of(rel, bindings)


@st.composite
def atoms_st(draw, schema: Schema, min_size: int = 1) -> list:
    """Relation atoms, now and then followed by `nonnull` on one of their variables."""
    atoms = draw(st.lists(atom_st(schema), min_size=min_size, max_size=2))
    named_vars = sorted({v for a in atoms for v in a.vars})
    if named_vars and draw(st.booleans()):
        atoms.append(ConstantAtom(draw(st.sampled_from(named_vars))))
    return atoms


@st.composite
def tgd_st(draw, schema: Schema) -> Tgd:
    # an empty body is written `true`
    body_atoms = draw(atoms_st(schema, min_size=0))
    head_atoms = draw(atoms_st(schema))
    body_vars = frozenset(v for a in body_atoms for v in a.vars)
    head_vars = frozenset(v for a in head_atoms for v in a.vars)
    body = ConjunctiveQuery(tuple(body_atoms), tuple(sorted(body_vars)), frozenset())
    head = ConjunctiveQuery(
        tuple(head_atoms), tuple(sorted(head_vars & body_vars)), head_vars - body_vars
    )
    return Tgd(body, head)


@st.composite
def egd_st(draw, schema: Schema) -> Egd:
    atoms = draw(atoms_st(schema))
    body_vars = sorted({v for a in atoms for v in a.vars})
    if not body_vars:
        atoms.append(NamedAtom.of(schema.names[0], {min(schema.attrs(schema.names[0])): Var("x")}))
        body_vars = [Var("x")]
    equated = (draw(st.sampled_from(body_vars)), draw(st.sampled_from(body_vars)))
    return Egd(ConjunctiveQuery(tuple(atoms), tuple(body_vars), frozenset()), equated)


@st.composite
def struct_st(draw, schema: Schema) -> StructureConstraint:
    """`R[*]`, `R[]` or `R[a, ...]`, on a declared relation or a new one."""
    rel = draw(st.sampled_from(schema.names + ("U",)))
    form = draw(st.sampled_from(["wild", "empty", "named"]))
    if form == "wild":
        return StructureConstraint.of(rel)
    if form == "empty":
        return StructureConstraint(rel, ())
    return StructureConstraint.of(rel, draw(st.sets(st.sampled_from(ATTR_POOL), min_size=1)))


def constraint_st(schema: Schema):
    return st.one_of(tgd_st(schema), egd_st(schema), struct_st(schema))


@st.composite
def condition_st(draw, depth: int = 2):
    if depth == 0:
        rhs = draw(st.one_of(st.sampled_from(ATTR_POOL), value_st.filter(lambda v: v.is_constant)))
        return Comparison(
            draw(st.sampled_from(ATTR_POOL)), draw(st.sampled_from(["=", "!="])), rhs
        )
    kind = draw(st.sampled_from(["cmp", "and", "or", "not"]))
    if kind == "cmp":
        return draw(condition_st(depth=0))
    if kind == "not":
        return Not(draw(condition_st(depth=depth - 1)))
    items = tuple(
        draw(st.lists(condition_st(depth=depth - 1), min_size=2, max_size=2))
    )
    return And(items) if kind == "and" else Or(items)


@st.composite
def query_st(draw, schema: Schema):
    kind = draw(st.sampled_from(["cq", "total", "total_conj", "filtered"]))
    if kind == "total":
        return TotalQuery(draw(st.sampled_from(schema.names)))
    if kind == "total_conj":
        # A one-relation conjunction has the same text form as a plain
        # totality check and normalizes to it on reparse.
        if len(schema.names) < 2:
            return TotalQuery(schema.names[0])
        rels = draw(st.sets(st.sampled_from(schema.names), min_size=2))
        return TotalConjQuery(tuple(sorted(rels)))
    if kind == "filtered":
        return FilteredTotalQuery(
            draw(st.sampled_from(schema.names)), draw(condition_st())
        )
    atoms = draw(st.lists(atom_st(schema), min_size=1, max_size=2))
    occurring = sorted({v for a in atoms for v in a.vars})
    existential = frozenset(draw(st.sets(st.sampled_from(occurring), max_size=len(occurring)))) if occurring else frozenset()
    free = [v for v in occurring if v not in existential]
    free = draw(st.permutations(free)) if free else []
    return ConjunctiveQuery(tuple(atoms), tuple(free), existential)


@st.composite
def procedure_st(draw, schema: Schema) -> Procedure:
    scope = []
    for rel in schema.names:
        # a relation may take a second entry
        for _ in range(draw(st.integers(1, 2))):
            form = draw(st.sampled_from(["skip", "wild", "named"]))
            if form == "wild":
                scope.append(StructureConstraint.of(rel))
            elif form == "named":
                attrs = draw(st.sets(st.sampled_from(sorted(schema.attrs(rel))), min_size=1))
                scope.append(StructureConstraint.of(rel, attrs))
    pre = draw(st.lists(constraint_st(schema), max_size=1))
    post = draw(st.lists(constraint_st(schema), max_size=2))
    safe = draw(st.lists(query_st(schema), max_size=2))
    return Procedure.of(scope=scope, pre=pre, post=post, safe=safe)


@st.composite
def workspace_st(draw) -> Workspace:
    ws = Workspace()
    schema = draw(schema_st())
    ws.schemas["s0"] = schema
    for idx in range(draw(st.integers(0, 2))):
        ws.instances[f"i{idx}"] = draw(instance_st(schema))
        ws.instance_schema[f"i{idx}"] = "s0"
    for idx in range(draw(st.integers(0, 2))):
        ws.constraints[f"d{idx}"] = draw(constraint_st(schema))
    for idx in range(draw(st.integers(0, 2))):
        ws.queries[f"q{idx}"] = draw(query_st(schema))
    proc_count = draw(st.integers(0, 2))
    for idx in range(proc_count):
        ws.procedures[f"p{idx}"] = draw(procedure_st(schema))
    if proc_count and draw(st.booleans()):
        ws.sequences["run0"] = tuple(
            draw(
                st.lists(
                    st.sampled_from([f"p{k}" for k in range(proc_count)]),
                    min_size=1,
                    max_size=3,
                )
            )
        )
    return ws


@settings(max_examples=60, deadline=None)
@given(ws=workspace_st())
def test_text_round_trip_property(ws):
    assert parse_workspace(serialize_workspace(ws)) == ws


@settings(max_examples=60, deadline=None)
@given(ws=workspace_st())
def test_json_round_trip_property(ws):
    mirrored = workspace_from_json(json.loads(json.dumps(workspace_to_json(ws))))
    assert mirrored == ws
