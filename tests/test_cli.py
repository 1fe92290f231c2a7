"""Command-line surface: subcommands, exit codes, formats."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from dqworkbench.cli import parse_budget, run_command
from dqworkbench.errors import MalformedParams
from dqworkbench.model import render_instance
from dqworkbench.oracle import Budget

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
        bad.write_text("schema S {")
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

    def test_residual_mode_flags(self, capsys):
        code, _, _ = self.check(capsys, "migrate", "I", "J1", "--per-relation-residual")
        assert code == 0
        with pytest.raises(SystemExit) as e:
            run_command(
                [
                    "check-outcome",
                    "--workspace",
                    FIG1,
                    "--proc",
                    "migrate",
                    "--before",
                    "I",
                    "--after",
                    "J1",
                    "--strict-residual",
                    "--per-relation-residual",
                ]
            )
        assert e.value.code == 2
        capsys.readouterr()

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
