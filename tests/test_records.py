"""Design guards for the record classes and for what `dqworkbench.cli` imports.

Records are tuples or slotted classes, not dataclasses. Each keeps the
behaviour the frozen dataclass had: its validation, fields that cannot be
assigned, a hash equal to the hash of the tuple of its fields (so set
order at a fixed PYTHONHASHSEED stays put), and, where two classes share a
shape, equality only within its own class.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from dqworkbench.analyzer import Failure, SchemaRequirement, SequenceReport
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
)
from dqworkbench.ctables import CondEq, ConditionalInstance, ScopedConditionalInstance
from dqworkbench.dsl import Workspace, parse_workspace, workspace_from_json
from dqworkbench.errors import DomainMismatch, MalformedParams, SchemaConformance
from dqworkbench.model import Instance, LabeledNull, Row, Schema, Value, const
from dqworkbench.oracle import Budget, ChaseComparison
from dqworkbench.procedures import OutcomeInputs, OutcomeReport, Procedure

from .workspace_writers import workspace_to_json

SRC = Path(__file__).resolve().parent.parent / "src"

X, Y = Var("x"), Var("y")
SCHEMA = Schema.of({"R": ("a", "b")})
ROW = Row.of({"a": const(1), "b": const(2)})
INSTANCE = Instance.of(SCHEMA, {"R": [ROW]})
ATOM = NamedAtom.of("R", {"a": X, "b": Y})
QUERY = cq([ATOM], free=[X, Y])
EQ = Comparison("a", "=", const(1))
TGD = Tgd(QUERY, cq([NamedAtom.of("R", {"a": X})], free=[X], existential=[]))


def records():
    """One record of each class, beside the names of its fields."""
    table = ConditionalInstance.from_instance(INSTANCE)
    return [
        (SCHEMA, ("rels",)),
        (INSTANCE, ("schema", "data")),
        (ATOM, ("relation", "bindings")),
        (ConstantAtom(X), ("variable",)),
        (QUERY, ("atoms", "free", "existential")),
        (EQ, ("lhs", "op", "rhs")),
        (And((EQ, EQ)), ("items",)),
        (Or((EQ, EQ)), ("items",)),
        (Not(EQ), ("item",)),
        (TotalQuery(("R",), EQ), ("relations", "condition")),
        (TGD, ("body", "head")),
        (Egd(QUERY, (X, Y)), ("body", "equated")),
        (StructureConstraint.of("R", ["a"]), ("relation", "attributes")),
        (CondEq(LabeledNull("n"), const(1)), ("left", "right")),
        (table, ("schema", "data")),
        (ScopedConditionalInstance(table, frozenset({"R"})), ("table", "rel")),
        (SchemaRequirement(SCHEMA, ()), ("schema", "labels")),
        (Failure("no"), ("reason",)),
        (SequenceReport(True, (), None), ("applicable", "chain", "failure_index", "failure")),
        (Budget(1, 2), Budget._fields),
        (ChaseComparison(frozenset(), (), (), ()), ChaseComparison._fields),
        (OutcomeReport(True, True, True, True, ()), OutcomeReport._fields),
        (OutcomeInputs(True, (), (), INSTANCE), ("applicable", "residual", "safety", "before")),
        (LabeledNull("n"), ("id",)),
    ]


@pytest.mark.parametrize("record, fields", records(), ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record, fields", records(), ids=lambda x: type(x).__name__)
def test_hash_is_the_hash_of_the_field_tuple(record, fields):
    values = tuple(getattr(record, name) for name in fields)
    if not isinstance(record, (ChaseComparison, OutcomeInputs)):  # never hashed
        assert hash(record) == hash(values)
    assert record == type(record)(*values) == pickle.loads(pickle.dumps(record))
    assert copy.deepcopy(record) == record


def test_procedure_name_takes_no_part_in_equality_or_hash():
    a = Procedure.of(post=[TGD], name="a")
    b = Procedure.of(post=[TGD], name="b")
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(((), (), (TGD,), ()))
    assert a.name == "a"
    with pytest.raises(AttributeError):
        a.name = "c"


def test_records_of_one_shape_equal_only_their_own_class():
    n = LabeledNull("x")
    assert hash(n) == hash(Var("x"))
    for other in (Var("x"), ("x",), Value("", "x")):
        assert n != other and other != n
        assert not n == other and not other == n
    assert len({n, Var("x")}) == 2
    assert n == LabeledNull("x") and not n != LabeledNull("x")
    assert LabeledNull("a") < LabeledNull("b") <= LabeledNull("b")
    egd = Egd(QUERY, (X, Y))
    pairs = [
        (And((EQ, EQ)), Or((EQ, EQ))),
        (tuple.__new__(Tgd, tuple(egd)), egd),  # the same fields, unchecked
        (INSTANCE, tuple.__new__(ConditionalInstance, tuple(INSTANCE))),
    ]
    for a, b in pairs:
        assert tuple(a) == tuple(b) and hash(a) == hash(b)
        assert a != b and b != a
        assert not a == b and not b == a
        assert a != tuple(a) and tuple(a) != a
        assert len({a, b}) == 2


def test_validation_and_its_texts_stay():
    with pytest.raises(DomainMismatch, match="atom attributes must be distinct and ordered"):
        NamedAtom("R", (("b", X), ("a", Y)))
    with pytest.raises(DomainMismatch, match="free variables must be distinct"):
        ConjunctiveQuery((ATOM,), (X, X), frozenset())
    with pytest.raises(DomainMismatch, match="unknown comparison operator '<'"):
        Comparison("a", "<", const(1))
    with pytest.raises(DomainMismatch, match="must be a tuple, got 'R'"):
        TotalQuery("R")
    with pytest.raises(DomainMismatch, match="a filtered total query reads exactly one relation"):
        TotalQuery(("R", "T"), condition=EQ)
    with pytest.raises(DomainMismatch, match="head free variables must occur in the body"):
        Tgd(cq([NamedAtom.of("R", {"a": X})], free=[X]), QUERY)
    with pytest.raises(DomainMismatch, match="equated variables must occur in the body"):
        Egd(cq([NamedAtom.of("R", {"a": X})], free=[X]), (X, Y))
    with pytest.raises(DomainMismatch, match="attributes must be distinct and ordered"):
        StructureConstraint("R", ("b", "a"))
    with pytest.raises(DomainMismatch, match="schema relations must be distinct and ordered"):
        Schema((("T", frozenset()), ("R", frozenset())))
    with pytest.raises(MalformedParams, match="budget field max_new_tuples must be nonnegative"):
        Budget(max_new_tuples=-1)
    with pytest.raises(MalformedParams, match="scope may contain only structure constraints"):
        Procedure((TGD,), (), (), ())
    assert Budget() == Budget(0, 1, 0, False)
    assert TotalQuery(("R",)).condition is None


def test_workspaces_start_empty_and_apart():
    a, b = Workspace(), Workspace()
    assert a == b and all(table == {} for table in a)
    a.schemas["S"] = SCHEMA
    assert a != b and b.schemas == {}
    assert copy.deepcopy(a) == a and copy.deepcopy(a).schemas is not a.schemas


MISFIT = Row.of({"a": const(1)})
UNORDERED = Row(("b", "a"), (const(1), const(2)))
SCHEMA_RT = Schema.of({"R": ("a", "b"), "T": ("c",)})


def test_every_public_way_in_checks_the_rows():
    with pytest.raises(DomainMismatch, match=r"instance must list exactly the schema relations, in order"):
        Instance(SCHEMA_RT, (("T", frozenset()), ("R", frozenset())))
    with pytest.raises(DomainMismatch, match=r"instance must list exactly the schema relations, in order"):
        Instance(SCHEMA_RT, (("R", frozenset()),))
    for build in (
        lambda rows: Instance(SCHEMA_RT, (("R", rows), ("T", frozenset()))),
        lambda rows: Instance.of(SCHEMA_RT, {"R": rows}),
    ):
        with pytest.raises(DomainMismatch, match=r"tuple over \['a'\] does not fit R\(\['a', 'b'\]\)"):
            build(frozenset({MISFIT}))
        with pytest.raises(DomainMismatch, match="row attributes must be distinct and ordered"):
            build(frozenset({UNORDERED}))
    with pytest.raises(DomainMismatch, match="relation U is not in the schema"):
        Instance.of(SCHEMA_RT, {"U": []})
    with pytest.raises(DomainMismatch, match="table must list exactly the schema relations"):
        ConditionalInstance(SCHEMA_RT, (("R", ()),))
    # the readers build rows from the schema's layout and check their width first
    text = "schema S { rel R(a, b); }\ninstance I : S { R: (1); }"
    with pytest.raises(SchemaConformance, match="expected 2 values, got 1"):
        parse_workspace(text)
    image = workspace_to_json(parse_workspace(text.replace("(1)", "(1, 2)")))
    image["instances"]["I"]["rows"]["R"] = [[{"const": "1"}]]
    with pytest.raises(SchemaConformance, match="expected 2 values, got 1"):
        workspace_from_json(image)


def test_built_instances_skip_the_check_and_equal_checked_ones():
    # the internal builders hand `built` rows drawn from checked instances
    assert Instance.built(SCHEMA, {"R": {ROW}}) == INSTANCE
    assert hash(Instance.built(SCHEMA, {"R": {ROW}})) == hash(INSTANCE)
    assert Instance.built(SCHEMA, {}) == Instance.of(SCHEMA)
    assert Instance.built(SCHEMA_RT, {"R": {MISFIT}}).rows("R") == {MISFIT}  # unchecked


def _new_modules(code: str) -> set[str]:
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    return set(out.split())


# what `import dqworkbench.cli` adds to a bare interpreter: matching is
# compiled on first use, so importing loads nothing more
CLI_IMPORTS = {
    "__future__", "_json", "argparse", "gettext", "json", "json.decoder", "json.encoder",
    "json.scanner", "dqworkbench", "dqworkbench.analyzer", "dqworkbench.chase",
    "dqworkbench.cli", "dqworkbench.constraints", "dqworkbench.ctables", "dqworkbench.dsl",
    "dqworkbench.errors", "dqworkbench.model", "dqworkbench.procedures",
}


def test_cli_import_loads_no_dataclasses_inspect_or_oracle():
    # against a bare interpreter, so what site's .pth files import does not count
    added = _new_modules("import dqworkbench.cli") - _new_modules("")
    assert "dqworkbench.cli" in added
    assert not {"dataclasses", "inspect", "dqworkbench.oracle"} & added
    assert added <= CLI_IMPORTS


def test_cli_import_compiles_no_plan():
    code = "import dqworkbench.cli\nfrom dqworkbench import constraints\nprint(constraints._compiled.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    assert out.split() == ["0"]
