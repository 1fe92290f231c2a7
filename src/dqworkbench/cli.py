"""Command-line workbench running batch analyses over workspace files.

Every subcommand reads a workspace (--workspace FILE, .dq or .dq.json) and
reports on stdout, as text or JSON (--format).  Exit codes follow one
contract: 0 for an affirmative verdict or successful report, 1 for a
negative verdict, 2 for errors (bad arguments, parse failures, analysis
errors).

Sequence arguments (--seq) accept either the name of a declared sequence
or a comma-separated list of procedure names.  Budgets (--budget) are
comma-separated settings for the outcome oracle: extra=N fresh constants,
tuples=N additions per relation, attrs=N unconstrained new attributes,
and the bare word growth to allow schema growth; for example
"extra=1,tuples=2,growth".
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .analyzer import Failure, SchemaRequirement, min_schema, sequence_applicability
from .chase import (
    EmptyResult,
    approximate_outcomes,
    outcomes_nonempty,
    plan_search,
    ready_for,
)
from .constraints import ConjunctiveQuery
from .ctables import ConditionalInstance, LabeledNull, TrueCond, render_ctable
from .dsl import Workspace, load_workspace
from .errors import Incompatible, MalformedParams, ResolutionError, WorkbenchError
from .model import Instance, Schema, render_instance
from .oracle import Budget, compare_with_chase, enumerate_outcomes, minimal_outcomes
from .procedures import NEITHER, Procedure, classify, possible_outcome_report

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


# --- workspace lookups ----------------------------------------------------


def _pick(table: dict, name: str, what: str):
    if name not in table:
        known = ", ".join(sorted(table)) or "none declared"
        raise ResolutionError(f"unknown {what} '{name}' (known: {known})")
    return table[name]


def _sequence(ws: Workspace, spec: str) -> list[Procedure]:
    if spec in ws.sequences:
        names = ws.sequences[spec]
    else:
        names = tuple(part.strip() for part in spec.split(",") if part.strip())
        if not names:
            raise ResolutionError("empty procedure sequence")
    return [_pick(ws.procedures, n, "procedure") for n in names]


def _goal(ws: Workspace, name: str) -> ConjunctiveQuery:
    q = _pick(ws.queries, name, "query")
    if not isinstance(q, ConjunctiveQuery):
        raise Incompatible(f"query '{name}' is not a conjunctive query")
    return q


def parse_budget(spec: str) -> Budget:
    """Comma-separated budget settings; see the module docstring."""
    numbers = {"extra": 0, "tuples": 1, "attrs": 0}
    growth = False
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "growth":
            growth = True
            continue
        key, eq, raw = part.partition("=")
        if key not in numbers or not eq:
            raise MalformedParams(
                f"budget setting '{part}' (expected extra=, tuples=, attrs=, or growth)"
            )
        try:
            numbers[key] = int(raw)
        except ValueError:
            raise MalformedParams(f"budget setting '{part}' needs an integer")
    return Budget(numbers["extra"], numbers["tuples"], numbers["attrs"], growth)


# --- JSON shapes ----------------------------------------------------------


def _schema_json(s: Schema) -> dict:
    return {rel: sorted(attrs) for rel, attrs in s.rels}


def _cell_json(cell) -> dict:
    if isinstance(cell, LabeledNull):
        return {"null": cell.id}
    return {"const": cell.token} if cell.is_constant else {"null": cell.token}


def _instance_json(i: Instance) -> dict:
    return {
        "schema": _schema_json(i.schema),
        "rows": {
            rel: [
                [_cell_json(v) for v in row.values_in_order()]
                for row in sorted(i.rows(rel))
            ]
            for rel in i.schema.names
        },
    }


def _table_json(t: ConditionalInstance) -> dict:
    out: dict = {"schema": _schema_json(t.schema), "rows": {}}
    for rel in t.schema.names:
        entries = []
        for row, cond in sorted(t.rows(rel), key=lambda pair: str(pair)):
            entries.append(
                {
                    "cells": [_cell_json(c) for c in row.values_in_order()],
                    "condition": None if isinstance(cond, TrueCond) else cond.render(),
                }
            )
        out["rows"][rel] = entries
    return out


def _requirement_lines(req: SchemaRequirement) -> list[str]:
    parts = [
        f"{rel}({', '.join(sorted(attrs))})" for rel, attrs in req.schema.rels
    ]
    lines = ["  " + ("; ".join(parts) if parts else "(empty schema)")]
    if req.labels:
        pins = ", ".join(f"{rel}={n}" for rel, n in req.labels)
        lines.append(f"  pinned arities: {pins}")
    return lines


def _requirement_json(req: SchemaRequirement) -> dict:
    return {"schema": _schema_json(req.schema), "pinned": dict(req.labels)}


def _proc_label(p: Procedure) -> str:
    return p.name or "<anonymous>"


# --- subcommand handlers ---------------------------------------------------
# Each returns (exit code, text lines, json payload).

Report = tuple[int, list[str], dict]


def _cmd_validate(ws: Workspace, args) -> Report:
    counts = {
        "schemas": sorted(ws.schemas),
        "instances": sorted(ws.instances),
        "constraints": sorted(ws.constraints),
        "procedures": sorted(ws.procedures),
        "queries": sorted(ws.queries),
        "sequences": sorted(ws.sequences),
    }
    summary = ", ".join(f"{len(names)} {kind}" for kind, names in counts.items())
    lines = [f"workspace OK: {summary}"]
    for kind, names in counts.items():
        if names:
            lines.append(f"  {kind}: {', '.join(names)}")
    return EXIT_YES, lines, {"ok": True, **counts}


def _cmd_schema_min(ws: Workspace, args) -> Report:
    proc = _pick(ws.procedures, args.proc, "procedure")
    schema = _pick(ws.schemas, args.schema, "schema")
    result = min_schema(
        proc, schema, allow_data_preconditions=args.allow_data_preconditions
    )
    if isinstance(result, Failure):
        lines = ["applicable: no", f"  {result.reason}"]
        return EXIT_NO, lines, {"applicable": False, "reason": result.reason}
    lines = ["applicable: yes", "minimal outcome schema:"] + _requirement_lines(result)
    return EXIT_YES, lines, {"applicable": True, "minimal": _requirement_json(result)}


def _cmd_applicable(ws: Workspace, args) -> Report:
    procs = _sequence(ws, args.seq)
    schema = _pick(ws.schemas, args.schema, "schema")
    report = sequence_applicability(
        procs, schema, allow_data_preconditions=args.allow_data_preconditions
    )
    lines = []
    steps_json = []
    for idx, req in enumerate(report.chain):
        label = "input" if idx == 0 else f"after {_proc_label(procs[idx - 1])}"
        lines.append(f"step {idx} ({label}):")
        lines.extend(_requirement_lines(req))
        steps_json.append(_requirement_json(req))
    payload = {"applicable": report.applicable, "chain": steps_json}
    if report.applicable:
        lines.append("applicable: yes")
        return EXIT_YES, lines, payload
    failed = _proc_label(procs[report.failure_index])
    lines.append(f"applicable: no (fails at step {report.failure_index}, {failed})")
    lines.append(f"  {report.failure.reason}")
    payload["failed_step"] = report.failure_index
    payload["reason"] = report.failure.reason
    return EXIT_NO, lines, payload


def _cmd_check_outcome(ws: Workspace, args) -> Report:
    proc = _pick(ws.procedures, args.proc, "procedure")
    before = _pick(ws.instances, args.before, "instance")
    after = _pick(ws.instances, args.after, "instance")
    report = possible_outcome_report(proc, before, after, args.residual_mode)
    payload = {
        "possible": report.ok,
        "applicable": report.applicable,
        "postcondition": report.post_ok,
        "residual": report.residual_ok,
        "safety": report.safety_ok,
        "failures": list(report.failures),
    }
    if report.ok:
        return EXIT_YES, ["possible outcome: yes"], payload
    lines = ["possible outcome: no"] + [f"  {f}" for f in report.failures]
    return EXIT_NO, lines, payload


def _cmd_outcomes(ws: Workspace, args) -> Report:
    instance = _pick(ws.instances, args.instance, "instance")
    result = approximate_outcomes(instance, _sequence(ws, args.seq))
    if isinstance(result, EmptyResult):
        return EXIT_NO, ["no outcomes"], {"outcomes": False, "table": None}
    lines = render_ctable(result.table).splitlines()
    return EXIT_YES, lines, {"outcomes": True, "table": _table_json(result.table)}


def _cmd_nonempty(ws: Workspace, args) -> Report:
    instance = _pick(ws.instances, args.instance, "instance")
    verdict = outcomes_nonempty(instance, _sequence(ws, args.seq))
    word = "yes" if verdict else "no"
    return (
        EXIT_YES if verdict else EXIT_NO,
        [f"outcomes exist: {word}"],
        {"nonempty": verdict},
    )


def _cmd_ready(ws: Workspace, args) -> Report:
    instance = _pick(ws.instances, args.instance, "instance")
    verdict = ready_for(
        instance,
        _sequence(ws, args.seq),
        _goal(ws, args.query),
        max_valuations=args.max_valuations,
    )
    word = "yes" if verdict else "no"
    return (
        EXIT_YES if verdict else EXIT_NO,
        [f"ready: {word}"],
        {"ready": verdict},
    )


def _cmd_plan(ws: Workspace, args) -> Report:
    instance = _pick(ws.instances, args.instance, "instance")
    notices: list[str] = []
    ignored: list[str] = []
    if args.pool:
        pool = _sequence(ws, args.pool)
    else:
        # The default pool is best effort: procedures the planner cannot
        # reason about are dropped with a notice.  An explicit --pool is
        # taken literally and may error instead.
        pool = [p for p in ws.procedures.values() if classify(p) != NEITHER]
        ignored = sorted(
            _proc_label(p) for p in ws.procedures.values() if classify(p) == NEITHER
        )
        if ignored:
            notices.append(
                "ignoring procedures outside the supported classes: "
                + ", ".join(ignored)
            )
    plan = plan_search(
        instance,
        pool,
        _goal(ws, args.query),
        args.max_len,
        max_valuations=args.max_valuations,
    )
    payload = {"max_len": args.max_len, "ignored": ignored}
    if plan is None:
        lines = notices + [f"no plan within {args.max_len} steps"]
        return EXIT_NO, lines, {**payload, "plan": None}
    names = [_proc_label(p) for p in plan]
    text = ", ".join(names) if names else "(empty: goal already guaranteed)"
    return EXIT_YES, notices + [f"plan: {text}"], {**payload, "plan": names}


def _cmd_oracle(ws: Workspace, args) -> Report:
    instance = _pick(ws.instances, args.instance, "instance")
    outcomes = enumerate_outcomes(
        _sequence(ws, args.seq),
        instance,
        parse_budget(args.budget),
        residual_mode=args.residual_mode,
    )
    if args.minimal:
        outcomes = minimal_outcomes(outcomes)
    ordered = sorted(outcomes, key=render_instance)
    label = "minimal outcomes" if args.minimal else "outcomes"
    lines = [f"{label} within budget: {len(ordered)}"]
    for idx, out in enumerate(ordered):
        lines.append(f"--- outcome {idx} ---")
        lines.extend(render_instance(out).splitlines())
    payload = {
        "count": len(ordered),
        "minimal_only": bool(args.minimal),
        "outcomes": [_instance_json(out) for out in ordered],
    }
    return (EXIT_YES if ordered else EXIT_NO), lines, payload


def _cmd_compare(ws: Workspace, args) -> Report:
    instance = _pick(ws.instances, args.instance, "instance")
    report = compare_with_chase(
        instance,
        _sequence(ws, args.seq),
        parse_budget(args.budget),
        residual_mode=args.residual_mode,
        max_valuations=args.max_valuations,
    )
    payload = {
        "ok": report.ok,
        "outcomes_checked": len(report.outcomes),
        "missing": [_instance_json(i) for i in report.missing],
        "minimal_only_oracle": [_instance_json(i) for i in report.minimal_only_oracle],
        "minimal_only_chase": [_instance_json(i) for i in report.minimal_only_chase],
    }
    if report.ok:
        lines = [
            "approximation agrees with the oracle: "
            f"{len(report.outcomes)} outcomes checked"
        ]
        return EXIT_YES, lines, payload
    lines = ["approximation disagrees with the oracle"]
    sections = (
        ("outcomes the approximation fails to represent", report.missing),
        ("minimal only on the oracle side", report.minimal_only_oracle),
        ("minimal only on the approximation side", report.minimal_only_chase),
    )
    for title, instances in sections:
        if not instances:
            continue
        lines.append(f"{title}: {len(instances)}")
        for idx, out in enumerate(instances):
            lines.append(f"--- {title} {idx} ---")
            lines.extend(render_instance(out).splitlines())
    return EXIT_NO, lines, payload


_HANDLERS = {
    "validate": _cmd_validate,
    "schema-min": _cmd_schema_min,
    "applicable": _cmd_applicable,
    "check-outcome": _cmd_check_outcome,
    "outcomes": _cmd_outcomes,
    "nonempty": _cmd_nonempty,
    "ready": _cmd_ready,
    "plan": _cmd_plan,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
}


# --- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dqw",
        description="Reasoning workbench for data-transforming procedures.",
    )
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, description=summary)
        p.add_argument(
            "--workspace",
            required=True,
            metavar="FILE",
            help="workspace file (.dq text or .dq.json)",
        )
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="report format (default: text)",
        )
        return p

    def residual_flags(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--strict-residual",
            dest="residual_mode",
            action="store_const",
            const="strict",
            default="strict",
            help="out-of-scope content preserved as one joint query (default)",
        )
        group.add_argument(
            "--per-relation-residual",
            dest="residual_mode",
            action="store_const",
            const="per-relation",
            help="out-of-scope content preserved relation by relation",
        )

    command("validate", "parse the workspace and list its declarations")

    p = command("schema-min", "minimal outcome schema of one procedure")
    p.add_argument("--proc", required=True, help="procedure name")
    p.add_argument("--schema", required=True, help="input schema name")
    p.add_argument(
        "--allow-data-preconditions",
        action="store_true",
        help="skip dependency preconditions instead of rejecting them",
    )

    p = command("applicable", "thread the minimal schema through a sequence")
    p.add_argument("--seq", required=True, help="sequence name or comma-separated procedures")
    p.add_argument("--schema", required=True, help="input schema name")
    p.add_argument(
        "--allow-data-preconditions",
        action="store_true",
        help="skip dependency preconditions instead of rejecting them",
    )

    p = command("check-outcome", "decide whether one instance is a possible outcome")
    p.add_argument("--proc", required=True, help="procedure name")
    p.add_argument("--before", required=True, help="input instance name")
    p.add_argument("--after", required=True, help="candidate outcome instance name")
    residual_flags(p)

    p = command("outcomes", "conditional table over-approximating the outcome set")
    p.add_argument("--instance", required=True, help="input instance name")
    p.add_argument("--seq", required=True, help="sequence name or comma-separated procedures")

    p = command("nonempty", "decide whether the sequence reaches any outcome")
    p.add_argument("--instance", required=True, help="input instance name")
    p.add_argument("--seq", required=True, help="sequence name or comma-separated procedures")

    p = command("ready", "decide whether the sequence guarantees a boolean goal")
    p.add_argument("--instance", required=True, help="input instance name")
    p.add_argument("--seq", required=True, help="sequence name or comma-separated procedures")
    p.add_argument("--query", required=True, help="boolean goal query name")
    p.add_argument("--max-valuations", type=int, default=200_000, metavar="N")

    p = command("plan", "shortest procedure sequence that guarantees a goal")
    p.add_argument("--instance", required=True, help="input instance name")
    p.add_argument("--query", required=True, help="boolean goal query name")
    p.add_argument("--max-len", required=True, type=int, metavar="K")
    p.add_argument(
        "--pool",
        help="candidate procedures (comma-separated; default: all in the workspace)",
    )
    p.add_argument("--max-valuations", type=int, default=200_000, metavar="N")

    p = command("oracle", "enumerate outcomes exhaustively within a budget")
    p.add_argument("--instance", required=True, help="input instance name")
    p.add_argument("--seq", required=True, help="sequence name or comma-separated procedures")
    p.add_argument("--budget", required=True, help='e.g. "extra=1,tuples=2,growth"')
    p.add_argument(
        "--minimal", action="store_true", help="report only minimal outcomes"
    )
    residual_flags(p)

    p = command("compare", "check the approximation against the budgeted oracle")
    p.add_argument("--instance", required=True, help="input instance name")
    p.add_argument("--seq", required=True, help="sequence name or comma-separated procedures")
    p.add_argument("--budget", required=True, help='e.g. "extra=1,tuples=2,growth"')
    p.add_argument("--max-valuations", type=int, default=200_000, metavar="N")
    residual_flags(p)

    return top


def run_command(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        ws = load_workspace(args.workspace)
        code, lines, payload = _HANDLERS[args.command](ws, args)
    except (WorkbenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return EXIT_ERROR
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
