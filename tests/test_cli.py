"""Command-line surface: subcommands, exit codes, formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dqworkbench import cli, oracle
from dqworkbench.cli import parse_budget, run_command
from dqworkbench.ctables import TRUE, CondEq, ConditionalInstance, LabeledNull, render_ctable
from dqworkbench.dsl import parse_workspace
from dqworkbench.errors import MalformedParams
from dqworkbench.model import Instance, Row, Schema, const, render_instance
from dqworkbench.oracle import Budget, ChaseComparison

from .workspace_writers import workspace_to_json

FIG1 = str(Path(__file__).resolve().parent.parent / "workspaces" / "fig1.dq")

SMALL = """
schema S2 { rel R(a); rel T(a, b); }
instance K : S2 { R: (1); T: ; }
proc need_b { pre { struct R[a, b]; } post { struct R[a, b]; } }
proc grow_r = template alter_table(R; b)

schema S3 { rel E(f); rel L(f); }
instance tiny : S3 { E: (1); L: ; }
proc mig { scope { L[*]; } post { tgd E(f: x) -> L(f: x); } safe { total L; } }
query got_one : exists x . L(f: x)
"""


@pytest.fixture(scope="module")
def small_ws(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cli") / "small.dq"
    path.write_text(SMALL)
    return str(path)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestValidate:
    def test_reports_declarations(self, capsys):
        code, out, _ = run(capsys, "validate", "--workspace", FIG1)
        assert code == 0
        assert "workspace OK" in out
        assert "migrate" in out and "q_visit" in out

    def test_json_payload(self, capsys):
        code, payload = run_json(capsys, "validate", "--workspace", FIG1)
        assert code == 0
        assert payload["ok"] is True
        assert payload["procedures"] == ["alter_age", "migrate", "migrate_cq"]

    def test_missing_file_is_an_error(self, capsys):
        code, out, err = run(capsys, "validate", "--workspace", "nowhere.dq")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_parse_failure_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.dq"
        for content in (b"schema S {", b"\xff\xfeschema S { }"):
            bad.write_bytes(content)
            code, _, err = run(capsys, "validate", "--workspace", str(bad))
            assert code == 2
            assert "line 1" in err


class TestCheckOutcome:
    def check(self, capsys, proc, before, after, *flags):
        return run(
            capsys,
            "check-outcome",
            "--workspace",
            FIG1,
            "--proc",
            proc,
            "--before",
            before,
            "--after",
            after,
            *flags,
        )

    def test_migration_outcome(self, capsys):
        code, out, _ = self.check(capsys, "migrate", "I", "J1")
        assert code == 0
        assert out.strip() == "possible outcome: yes"

    def test_outcome_with_unrelated_addition(self, capsys):
        code, out, _ = self.check(capsys, "migrate", "I", "J2")
        assert code == 0

    def test_schema_change_outcome(self, capsys):
        code, out, _ = self.check(capsys, "alter_age", "J1", "J3")
        assert code == 0

    def test_lost_row_is_rejected(self, capsys):
        code, out, _ = self.check(capsys, "migrate", "I", "J1_missing")
        assert code == 1
        assert "possible outcome: no" in out
        assert "safety query 0 lost answers" in out

    def test_identity_is_rejected_when_postcondition_unmet(self, capsys):
        code, out, _ = self.check(capsys, "migrate", "I", "I")
        assert code == 1
        assert "postcondition 0 does not hold" in out

    def test_json_clauses(self, capsys):
        code, payload = run_json(
            capsys,
            "check-outcome",
            "--workspace",
            FIG1,
            "--proc",
            "migrate",
            "--before",
            "I",
            "--after",
            "J1_missing",
        )
        assert code == 1
        assert payload["possible"] is False
        assert payload["applicable"] is True
        assert payload["safety"] is False
        assert payload["failures"]


class TestApplicability:
    def test_declared_sequence(self, capsys):
        code, out, _ = run(
            capsys, "applicable", "--workspace", FIG1, "--seq", "fix", "--schema", "S"
        )
        assert code == 0
        assert "applicable: yes" in out
        assert "pinned arities: LocVisits=3" in out
        assert "LocVisits(age, facility, patInsur, timestp)" in out

    def test_comma_separated_sequence(self, capsys):
        code, out, _ = run(
            capsys,
            "applicable",
            "--workspace",
            FIG1,
            "--seq",
            "migrate,alter_age",
            "--schema",
            "S",
        )
        assert code == 0

    def test_failure_names_the_step(self, capsys, small_ws):
        code, out, _ = run(
            capsys,
            "applicable",
            "--workspace",
            small_ws,
            "--seq",
            "need_b",
            "--schema",
            "S2",
        )
        assert code == 1
        assert "applicable: no (fails at step 0, need_b)" in out
        assert "precondition on R" in out

    def test_chain_threads_schema_changes(self, capsys, small_ws):
        code, out, _ = run(
            capsys,
            "applicable",
            "--workspace",
            small_ws,
            "--seq",
            "grow_r,need_b",
            "--schema",
            "S2",
        )
        assert code == 0
        assert "R(a, b)" in out

    def test_schema_min_negative(self, capsys, small_ws):
        code, out, _ = run(
            capsys,
            "schema-min",
            "--workspace",
            small_ws,
            "--proc",
            "need_b",
            "--schema",
            "S2",
        )
        assert code == 1
        assert "applicable: no" in out

    def test_schema_min_positive_json(self, capsys):
        code, payload = run_json(
            capsys,
            "schema-min",
            "--workspace",
            FIG1,
            "--proc",
            "alter_age",
            "--schema",
            "S",
        )
        assert code == 0
        assert payload["applicable"] is True
        assert payload["minimal"]["schema"]["LocVisits"] == [
            "age",
            "facility",
            "patInsur",
            "timestp",
        ]

    def test_split_scope_entries_require_what_one_entry_requires(self, capsys, tmp_path):
        path = tmp_path / "split.dq"
        path.write_text(
            "schema S { rel R(a, b, c); }\n"
            "proc split { scope { R[a]; R[b]; } }\n"
            "proc joint { scope { R[a, b]; } }\n"
            "proc wild { scope { R[*]; R[a]; } }\n"
        )
        outputs = {}
        for proc in ("split", "joint", "wild"):
            code, out, _ = run(
                capsys, "schema-min", "--workspace", str(path), "--proc", proc, "--schema", "S"
            )
            assert code == 0
            outputs[proc] = out
        assert outputs["split"] == outputs["joint"]
        assert outputs["split"].splitlines()[-1] == "  R(c)"
        assert outputs["wild"].splitlines()[-1] == "  (empty schema)"


class TestChaseCommands:
    def test_outcomes_renders_the_table(self, capsys):
        code, out, _ = run(
            capsys, "outcomes", "--workspace", FIG1, "--instance", "I", "--seq", "fix"
        )
        assert code == 0
        assert "LocVisits(age, facility, patInsur, timestp):" in out
        assert out.count("?") == 3
        assert '(2087, 91, "090916 03:10")' in out

    def test_outcomes_empty(self, capsys, small_ws):
        code, out, _ = run(
            capsys,
            "outcomes",
            "--workspace",
            small_ws,
            "--instance",
            "K",
            "--seq",
            "need_b",
        )
        assert code == 1
        assert out.strip() == "no outcomes"

    def test_outcomes_json_table(self, capsys):
        code, payload = run_json(
            capsys, "outcomes", "--workspace", FIG1, "--instance", "I", "--seq", "fix"
        )
        assert code == 0
        rows = payload["table"]["rows"]["LocVisits"]
        assert len(rows) == 3
        assert all(len(r["cells"]) == 4 for r in rows)
        assert all(r["condition"] is None for r in rows)
        assert any("null" in cell for r in rows for cell in r["cells"])

    def test_text_and_json_list_table_rows_in_one_order(self):
        n = LabeledNull("n")
        t = ConditionalInstance.of(
            Schema.of({"R": ["a"]}),
            {"R": [(Row.of({"a": n}), (CondEq(n, const(1)),)), (Row.of({"a": n}), TRUE)]},
        )
        assert render_ctable(t).splitlines()[1:] == ["  (?n)", "  (?n) | ?n = 1"]
        rows = cli._table_json(t)["rows"]["R"]
        assert [r["condition"] for r in rows] == [None, "?n = 1"]

    def test_nonempty(self, capsys, small_ws):
        code, out, _ = run(
            capsys, "nonempty", "--workspace", FIG1, "--instance", "I", "--seq", "fix"
        )
        assert (code, out.strip()) == (0, "outcomes exist: yes")
        code, out, _ = run(
            capsys,
            "nonempty",
            "--workspace",
            small_ws,
            "--instance",
            "K",
            "--seq",
            "need_b",
        )
        assert (code, out.strip()) == (1, "outcomes exist: no")

    def test_ready(self, capsys):
        code, out, _ = run(
            capsys,
            "ready",
            "--workspace",
            FIG1,
            "--instance",
            "I",
            "--seq",
            "migrate",
            "--query",
            "q_visit",
        )
        assert (code, out.strip()) == (0, "ready: yes")
        code, out, _ = run(
            capsys,
            "ready",
            "--workspace",
            FIG1,
            "--instance",
            "I",
            "--seq",
            "alter_age",
            "--query",
            "q_visit",
        )
        assert (code, out.strip()) == (1, "ready: no")

    def test_plan_finds_the_migration(self, capsys):
        code, out, _ = run(
            capsys,
            "plan",
            "--workspace",
            FIG1,
            "--instance",
            "I",
            "--query",
            "q_visit",
            "--max-len",
            "2",
        )
        assert code == 0
        assert "plan: migrate" in out
        assert "ignoring procedures outside the supported classes: migrate_cq" in out

    def test_plan_respects_the_bound(self, capsys):
        code, out, _ = run(
            capsys,
            "plan",
            "--workspace",
            FIG1,
            "--instance",
            "I",
            "--query",
            "q_visit",
            "--max-len",
            "0",
        )
        assert code == 1
        assert "no plan within 0 steps" in out

    def test_plan_explicit_pool_is_strict(self, capsys):
        code, _, err = run(
            capsys,
            "plan",
            "--workspace",
            FIG1,
            "--instance",
            "I",
            "--query",
            "q_visit",
            "--max-len",
            "1",
            "--pool",
            "migrate_cq",
        )
        assert code == 2
        assert "error:" in err

    def test_plan_json(self, capsys):
        code, payload = run_json(
            capsys,
            "plan",
            "--workspace",
            FIG1,
            "--instance",
            "I",
            "--query",
            "q_visit",
            "--max-len",
            "1",
        )
        assert code == 0
        assert payload["plan"] == ["migrate"]
        assert payload["ignored"] == ["migrate_cq"]

    def test_plan_rejects_a_negative_bound(self, capsys):
        with pytest.raises(SystemExit) as e:
            run_command(
                [
                    "plan",
                    "--workspace",
                    FIG1,
                    "--instance",
                    "I",
                    "--query",
                    "q_visit",
                    "--max-len",
                    "-1",
                ]
            )
        assert e.value.code == 2
        assert "--max-len" in capsys.readouterr().err


# Figure 1 plus an outcome of alter_age whose new ages are all null
# markers, and a goal asking for a known age: since that outcome is
# possible, the fix sequence cannot guarantee the goal.
NULL_AGES = """
instance J3_null : S_age {
  EVisits: (1234, 33, "070916 12:00"), (2087, 91, "090916 03:10");
  LocVisits: (?u1, 1234, 33, "070916 12:00"), (?u2, 1222, 33, "020715 07:50"),
             (?u3, 2087, 91, "090916 03:10");
}

query q_age_known : exists a . LocVisits(age: a, facility: 2087) and nonnull(a)
"""


class TestNullMarkerAges:
    @pytest.fixture(scope="class")
    def ws(self, tmp_path_factory) -> str:
        path = tmp_path_factory.mktemp("cli") / "fig1_null_ages.dq"
        path.write_text(Path(FIG1).read_text() + NULL_AGES)
        return str(path)

    def test_all_null_ages_are_a_possible_outcome(self, capsys, ws):
        code, out, _ = run(
            capsys,
            "check-outcome",
            "--workspace",
            ws,
            "--proc",
            "alter_age",
            "--before",
            "J1",
            "--after",
            "J3_null",
        )
        assert (code, out.strip()) == (0, "possible outcome: yes")

    def test_a_known_age_is_not_guaranteed(self, capsys, ws):
        code, out, _ = run(
            capsys,
            "ready",
            "--workspace",
            ws,
            "--instance",
            "I",
            "--seq",
            "fix",
            "--query",
            "q_age_known",
        )
        assert (code, out.strip()) == (1, "ready: no")


# A copy step whose body pins a constant that occurs only in a procedure:
# the oracle's minimal outcomes may take that constant for the alter
# step's new cell, so the chase side's minimal members must too.
PROC_CONSTANT_WS = """
schema S { rel R(a); rel T(a, b); }
instance I : S { R: ; T: (1, 1); }
proc copy_T_R_0 {
  scope { R[*]; }
  post { tgd T(a: x0, b: 1) -> R(a: x0); }
  safe { total R; }
}
proc alter_T_c_1 = template alter_table(T; c)
proc copy_T_R_2 {
  scope { R[*]; }
  post { tgd T(a: 0, b: x1, c: x2) -> R(a: x2); }
  safe { total R; }
}
seq steps = copy_T_R_0, alter_T_c_1, copy_T_R_2
"""


class TestOracleCommands:
    def test_compare_agrees_on_a_constant_only_a_procedure_names(self, capsys, tmp_path):
        path = tmp_path / "proc_constant.dq"
        path.write_text(PROC_CONSTANT_WS)
        code, out, _ = run(
            capsys,
            "compare",
            "--workspace",
            str(path),
            "--instance",
            "I",
            "--seq",
            "steps",
            "--budget",
            "extra=1,tuples=2,growth",
        )
        assert code == 0, out
        assert "approximation agrees with the oracle" in out

    def test_oracle_lists_the_single_outcome(self, capsys, instance_j1):
        code, out, _ = run(
            capsys,
            "oracle",
            "--workspace",
            FIG1,
            "--instance",
            "I",
            "--seq",
            "migrate",
            "--budget",
            "tuples=1",
        )
        assert code == 0
        assert "outcomes within budget: 1" in out
        assert render_instance(instance_j1) in out

    def test_oracle_is_deterministic(self, capsys):
        args = (
            "oracle",
            "--workspace",
            FIG1,
            "--instance",
            "I",
            "--seq",
            "migrate",
            "--budget",
            "tuples=1",
        )
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_minimal_flag_prunes_dominated_outcomes(self, capsys, small_ws):
        budget = "extra=1,tuples=2"
        code, out, _ = run(
            capsys,
            "oracle",
            "--workspace",
            small_ws,
            "--instance",
            "tiny",
            "--seq",
            "mig",
            "--budget",
            budget,
        )
        assert code == 0
        assert "outcomes within budget: 2" in out
        code, out, _ = run(
            capsys,
            "oracle",
            "--workspace",
            small_ws,
            "--instance",
            "tiny",
            "--seq",
            "mig",
            "--budget",
            budget,
            "--minimal",
        )
        assert code == 0
        assert "minimal outcomes within budget: 1" in out

    def test_oracle_empty_is_negative(self, capsys, small_ws):
        code, out, _ = run(
            capsys,
            "oracle",
            "--workspace",
            small_ws,
            "--instance",
            "K",
            "--seq",
            "need_b",
            "--budget",
            "tuples=1",
        )
        assert code == 1
        assert "outcomes within budget: 0" in out

    def test_oracle_json(self, capsys, small_ws):
        code, payload = run_json(
            capsys,
            "oracle",
            "--workspace",
            small_ws,
            "--instance",
            "tiny",
            "--seq",
            "mig",
            "--budget",
            "tuples=1",
        )
        assert code == 0
        assert payload["count"] == 1
        assert payload["outcomes"][0]["rows"]["L"] == [[{"const": "1"}]]

    def test_compare_agrees(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "--workspace",
            FIG1,
            "--instance",
            "I",
            "--seq",
            "migrate",
            "--budget",
            "tuples=1",
        )
        assert code == 0
        assert "agrees with the oracle" in out

    def test_oracle_lists_an_outcome_over_no_relation_without_lines(self, capsys, tmp_path):
        path = tmp_path / "drop.dq"
        path.write_text(
            'schema S { rel R(a); }\ninstance I : S { R: ("x\fy"); }\n'
            "proc p { scope { R[*]; } }\n"
        )
        argv = ("oracle", "--workspace", str(path), "--instance", "I", "--seq", "p")
        code, out, _ = run(capsys, *argv, "--budget", "tuples=0")
        assert code == 0
        # a value holding a form feed stays on its line
        assert out.split("\n") == [
            "outcomes within budget: 3",
            "--- outcome 0 ---",
            "--- outcome 1 ---",
            "R(a):",
            '  ("x\fy")',
            "--- outcome 2 ---",
            "R(a):",
            "  (empty)",
            "",
        ]

    def test_compare_answers_with_two_new_tuples(self, capsys):
        # the unpruned candidate space (2,388,946) is beyond the cap; the pruned
        # one is 2,185 candidates
        code, out, _ = run(
            capsys, "compare", "--workspace", FIG1, "--instance", "I", "--seq", "migrate",
            "--budget", "extra=1,tuples=2",
        )
        assert code == 0
        assert out.strip() == "approximation agrees with the oracle: 727 outcomes checked"

    def test_compare_json(self, capsys, small_ws):
        code, payload = run_json(
            capsys,
            "compare",
            "--workspace",
            small_ws,
            "--instance",
            "tiny",
            "--seq",
            "mig",
            "--budget",
            "extra=1,tuples=2",
        )
        assert code == 0
        assert payload["ok"] is True
        assert payload["outcomes_checked"] == 2
        assert payload["missing"] == []

    def test_compare_reports_each_disagreement_section(self, capsys, monkeypatch):
        def one(v):
            return Instance.of(Schema.of({"R": ("a",)}), {"R": {Row.of({"a": const(v)})}})

        found = {"missing": one(1), "minimal_only_oracle": one(2), "minimal_only_chase": one(3)}
        report = ChaseComparison(frozenset({one(1), one(2)}), *((j,) for j in found.values()))
        # `compare` imports the oracle when it runs, so the patch goes on the oracle
        monkeypatch.setattr(oracle, "compare_with_chase", lambda *args, **kwargs: report)
        argv = ("compare", "--workspace", FIG1, "--instance", "I", "--seq", "migrate",
                "--budget", "tuples=1")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out.splitlines() == [
            "approximation disagrees with the oracle",
            "outcomes the approximation fails to represent: 1",
            "--- outcomes the approximation fails to represent 0 ---",
            "R(a):",
            "  (1)",
            "minimal only on the oracle side: 1",
            "--- minimal only on the oracle side 0 ---",
            "R(a):",
            "  (2)",
            "minimal only on the approximation side: 1",
            "--- minimal only on the approximation side 0 ---",
            "R(a):",
            "  (3)",
        ]
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert payload == {
            "ok": False,
            "outcomes_checked": 2,
            **{
                key: [{"schema": {"R": ["a"]}, "rows": {"R": [[{"const": token}]]}}]
                for key, token in zip(found, "123")
            },
        }

    def test_budget_cap_is_an_error(self, capsys):
        code, _, err = run(
            capsys,
            "oracle",
            "--workspace",
            FIG1,
            "--instance",
            "I",
            "--seq",
            "migrate",
            "--budget",
            "extra=3,tuples=3",
        )
        assert code == 2
        assert "hard cap" in err


class TestBudgetParsing:
    def test_full_spec(self):
        assert parse_budget("extra=1,tuples=2,attrs=3,growth") == Budget(1, 2, 3, True)

    def test_defaults(self):
        assert parse_budget("") == Budget(0, 1, 0, False)

    def test_order_does_not_matter(self):
        assert parse_budget("growth,tuples=4") == Budget(0, 4, 0, True)

    def test_unknown_key(self):
        with pytest.raises(MalformedParams, match="budget setting"):
            parse_budget("rows=2")

    def test_non_integer(self):
        with pytest.raises(MalformedParams, match="integer"):
            parse_budget("tuples=lots")

    def test_negative_rejected(self):
        with pytest.raises(MalformedParams):
            parse_budget("tuples=-1")

    def test_bad_budget_via_cli(self, capsys):
        code, _, err = run(
            capsys,
            "oracle",
            "--workspace",
            FIG1,
            "--instance",
            "I",
            "--seq",
            "migrate",
            "--budget",
            "rows=2",
        )
        assert code == 2
        assert "budget setting" in err


class TestArgumentErrors:
    def test_unknown_name_is_an_error(self, capsys):
        code, _, err = run(
            capsys,
            "ready",
            "--workspace",
            FIG1,
            "--instance",
            "I",
            "--seq",
            "migrate",
            "--query",
            "nope",
        )
        assert code == 2
        assert "unknown query 'nope'" in err

    def test_non_boolean_goal_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "w.dq"
        path.write_text(
            "schema S { rel R(a); }\ninstance K : S { R: (1); }\n"
            "proc p { post { struct R[*]; } }\nquery t : total R\n"
        )
        code, _, err = run(
            capsys,
            "ready",
            "--workspace",
            str(path),
            "--instance",
            "K",
            "--seq",
            "p",
            "--query",
            "t",
        )
        assert code == 2
        assert "not a conjunctive query" in err

    def test_deep_nesting_is_an_error_not_a_traceback(self, capsys, tmp_path):
        depth = 3_000
        condition = "(" * depth + "a = 1" + ")" * depth
        path = tmp_path / "deep.dq"
        path.write_text(
            f"schema S {{ rel R(a); }}\nproc del = template sql_delete(R; {condition})\n"
        )
        code, out, err = run(capsys, "validate", "--workspace", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "image",
        [
            [],
            {"schemas": {"S": 5}},
            {"schemas": {"S": {"R": ["a"]}}, "instances": {"I": {"schema": "S"}}},
            {"constraints": {"d": {"kind": "tgd", "head": {"atoms": [], "free": [], "existential": []}}}},
            {"schemas": {"S": {"R": "ab"}}},
            {"schemas": {"S": {"R": ["a", "b"], "T": ["a", "a"]}}},
            {"schemas": {"S": {"R": [1]}}},
            {"constraints": {"c": {"kind": "struct", "relation": "R", "attributes": [1]}}},
            {
                "procedures": {
                    "p": {"scope": [{"kind": "struct", "relation": "R", "attributes": "ab"}]}
                }
            },
            {
                "schemas": {"S": {"R": ["a"]}},
                "instances": {"I": {"schema": "S", "rows": {"R": [[{"const": 5}]]}}},
            },
            {
                "queries": {
                    "q": {
                        "kind": "cq",
                        "atoms": [{"relation": "R", "bindings": {"a": {"var": 1}}}],
                        "free": [],
                        "existential": [],
                    }
                }
            },
            {"procedures": {"migrate": {}}, "sequences": {"fix": "migrate"}},
            {
                "queries": {
                    "q": {
                        "kind": "cq",
                        "atoms": [{"relation": "R", "bindings": {"a": {"var": "x"}}}],
                        "free": "x",
                        "existential": [],
                    }
                }
            },
            {"queries": {"q": {"kind": "total", "relation": 5}}},
            *(
                {
                    "schemas": {"S": {"R": ["a"]}},
                    "queries": {"q": {"kind": "filtered", "relation": "R", "condition": condition}},
                }
                for condition in (
                    {"kind": "cmp", "lhs": 1, "op": "=", "rhs": {"const": "1"}},
                    {"kind": "cmp", "lhs": "a", "op": "=", "rhs": {"attr": 1}},
                    {"kind": "xor", "items": []},
                    {"kind": "and", "items": []},
                    {"kind": "or", "items": [{"kind": "cmp", "lhs": "a", "op": "=", "rhs": {"const": "1"}}]},
                )
            ),
            *({"schemas": {"S": {rel: ["a"]}}} for rel in ("total", "a b", "")),
            {"schemas": {"1S": {"R": ["a"]}}},
            {"schemas": {"S": {"R": ["a"]}}, "queries": {"@q": {"kind": "total", "relation": "R"}}},
            {"procedures": {"p": {}}, "sequences": {"s": []}},
            b"\xff\xfe{}",
        ],
        ids=[
            "list",
            "schema-not-an-object",
            "instance-without-rows",
            "tgd-without-body",
            "attributes-as-a-string",
            "repeated-attribute",
            "attribute-not-a-string",
            "struct-attribute-not-a-string",
            "scope-attributes-as-a-string",
            "value-not-a-string",
            "variable-not-a-string",
            "sequence-as-a-string",
            "free-variables-as-a-string",
            "relation-not-a-string",
            "condition-lhs-not-a-string",
            "condition-attr-not-a-string",
            "condition-kind-unknown",
            "condition-and-of-nothing",
            "condition-or-of-one-item",
            "relation-named-by-a-reserved-word",
            "relation-name-with-a-space",
            "relation-name-empty",
            "schema-name-starting-with-a-digit",
            "query-name-with-an-at",
            "sequence-without-steps",
            "invalid-utf-8",
        ],
    )
    def test_malformed_json_workspace_is_an_error(self, capsys, tmp_path, image):
        path = tmp_path / "bad.dq.json"
        path.write_bytes(image if isinstance(image, bytes) else json.dumps(image).encode())
        code, out, err = run(capsys, "validate", "--workspace", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1, col 1: json: ")
        assert "Traceback" not in err

    def test_json_workspace_rejects_reserved_values(self, capsys, tmp_path):
        text = (
            "schema S { rel R(a); rel T(a); }\n"
            "instance I : S { R: (k); T: ; }\n"
            "proc cpe { scope { T[*]; } post { tgd R(a: x) -> T(a: y); } safe { total T; } }\n"
        )
        image = workspace_to_json(parse_workspace(text))
        argv = ["compare", "--instance", "I", "--seq", "cpe", "--budget", "extra=1,tuples=1"]
        path = tmp_path / "plain.dq.json"
        path.write_text(json.dumps(image))
        assert run(capsys, *argv, "--workspace", str(path))[0] == 0
        image["instances"]["I"]["rows"]["R"] = [[{"const": "@c0"}]]
        path.write_text(json.dumps(image))
        code, _, err = run(capsys, *argv, "--workspace", str(path))
        assert code == 2
        assert err == "error: line 1, col 1: json: values containing @ are reserved\n"

    def test_missing_workspace_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            run_command(["validate"])
        assert e.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as e:
            run_command(["frobnicate", "--workspace", FIG1])
        assert e.value.code == 2
        capsys.readouterr()


def exit_text(capsys, parse, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of an argument parse that exits."""
    with pytest.raises(SystemExit) as e:
        parse(argv)
    captured = capsys.readouterr()
    return e.value.code, captured.out, captured.err


class TestArgumentParsing:
    """`run_command` builds only the named subcommand's parser; it must help
    and fail exactly as the whole tree does."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_one_subcommand_parser_matches_the_full_tree(self, capsys, command):
        full = cli._build_parser().parse_args
        alone = cli._build_parser(command).parse_args
        # help, a missing --workspace, the other required flags missing
        cases = [[command, "--help"], [command]]
        if command != "validate":
            cases.append([command, "--workspace", FIG1])
        if command == "plan":
            head = ["plan", "--workspace", FIG1, "--instance", "I", "--query", "q_visit"]
            cases += [head + ["--max-len", "x"], head + ["--max-len", "-1"]]
        for argv in cases:
            expected = exit_text(capsys, full, argv)
            assert exit_text(capsys, alone, argv) == expected, argv
            assert exit_text(capsys, run_command, argv) == expected, argv
        code, help_text, _ = exit_text(capsys, run_command, [command, "--help"])
        assert code == 0
        assert help_text.startswith(f"usage: dqw {command} [-h] --workspace FILE")
        summary, flags = cli._COMMANDS[command][2], cli._COMMANDS[command][1].split()
        assert summary in help_text
        assert all(f"--{flag}" in help_text for flag in flags)

    def test_bad_max_len_names_the_flag(self, capsys):
        head = ["plan", "--workspace", FIG1, "--instance", "I", "--query", "q_visit"]
        code, _, err = exit_text(capsys, run_command, head + ["--max-len", "x"])
        assert code == 2
        assert err.endswith("error: argument --max-len: invalid _nonnegative value: 'x'\n")
        _, _, err = exit_text(capsys, run_command, head + ["--max-len", "-1"])
        assert err.endswith("error: argument --max-len: must be nonnegative, got -1\n")

    @pytest.mark.parametrize(
        "argv",
        [[], ["--help"], ["-h"], ["frobnicate", "--workspace", FIG1], ["--format", "json", "ready"]],
    )
    def test_no_leading_subcommand_gets_the_full_tree(self, capsys, argv):
        full = cli._build_parser().parse_args
        assert exit_text(capsys, run_command, argv) == exit_text(capsys, full, argv)

    def test_top_help_lists_every_subcommand(self, capsys):
        code, out, _ = exit_text(capsys, run_command, ["--help"])
        assert code == 0
        assert out.startswith("usage: dqw [-h] command ...")
        for name, (_, _, summary) in cli._COMMANDS.items():
            assert f"    {name}" in out and summary in out

    def test_unknown_subcommand_lists_the_choices(self, capsys):
        code, _, err = exit_text(capsys, run_command, ["frobnicate", "--workspace", FIG1])
        assert code == 2
        choices = ", ".join(f"'{name}'" for name in cli._COMMANDS)
        assert err.endswith(f"argument command: invalid choice: 'frobnicate' (choose from {choices})\n")


@pytest.mark.parametrize("form", ["text", "json"])
def test_a_reader_that_leaves_early_gets_exit_2_and_no_traceback(form):
    # the report runs to megabytes, far past a pipe's buffer, so writing it
    # meets the closed pipe, as `dqw oracle ... | head -1` does
    argv = ["oracle", "--workspace", FIG1, "--instance", "I", "--seq", "fix", "--budget", "tuples=1,growth"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "dqworkbench.cli", *argv, "--format", form],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert first.startswith(b"outcomes within budget: 5888" if form == "text" else b"{")
    assert err == b""
