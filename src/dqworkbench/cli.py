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
"extra=1,tuples=2,growth".  Each exponential search (the oracle's
candidates, membership steps, the valuations behind minimal members)
stops at a fixed cap and exits 2, naming how much it used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .analyzer import Failure, SchemaRequirement, min_schema, sequence_applicability
from .chase import (
    EmptyResult,
    approximate_outcomes,
    outcomes_nonempty,
    plan_search,
    ready_for,
)
from .constraints import ConjunctiveQuery
from .ctables import ConditionalInstance, render_condition, render_ctable
from .dsl import Workspace, cell_to_json, instance_to_json, load_workspace, schema_to_json
from .errors import Incompatible, MalformedParams, ResolutionError, WorkbenchError
from .model import render_instance, render_instances
from .procedures import NEITHER, Procedure, classify, possible_outcome_report

if TYPE_CHECKING:  # `oracle` loads in the handlers that run it
    from .oracle import Budget

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
    from .oracle import Budget

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


def _table_json(t: ConditionalInstance) -> dict:
    out: dict = {"schema": schema_to_json(t.schema), "rows": {}}
    for rel in t.schema.names:
        entries = []
        for row, cond in t.rows(rel):
            entries.append(
                {
                    "cells": [cell_to_json(c) for c in row.values],
                    "condition": render_condition(cond) if cond else None,
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
    return {"schema": schema_to_json(req.schema), "pinned": dict(req.labels)}


def _proc_label(p: Procedure) -> str:
    return p.name or "<anonymous>"


# --- subcommand handlers ---------------------------------------------------
# Each returns (exit code, text lines, json payload); `outcomes` and the oracle
# handlers, whose reports run large, fill only the format asked for.

Report = tuple[int, list[str], dict]


def _cmd_validate(ws: Workspace, args) -> Report:
    kinds = ("schemas", "instances", "constraints", "procedures", "queries", "sequences")
    counts = {kind: sorted(getattr(ws, kind)) for kind in kinds}
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
    report = possible_outcome_report(proc, before, after)
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
    if args.format == "json":
        return EXIT_YES, [], {"outcomes": True, "table": _table_json(result)}
    return EXIT_YES, render_ctable(result).splitlines(), {}


def _verdict(holds: bool, label: str, key: str) -> Report:
    """A yes/no decision: its exit code, the line `label: yes` or `: no`, and `{key: holds}`."""
    return EXIT_YES if holds else EXIT_NO, [f"{label}: {'yes' if holds else 'no'}"], {key: holds}


def _cmd_nonempty(ws: Workspace, args) -> Report:
    instance = _pick(ws.instances, args.instance, "instance")
    return _verdict(outcomes_nonempty(instance, _sequence(ws, args.seq)), "outcomes exist", "nonempty")


def _cmd_ready(ws: Workspace, args) -> Report:
    instance = _pick(ws.instances, args.instance, "instance")
    return _verdict(ready_for(instance, _sequence(ws, args.seq), _goal(ws, args.query)), "ready", "ready")


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
        pool, unsupported = [], []
        for p in ws.procedures.values():
            (unsupported if classify(p) == NEITHER else pool).append(p)
        ignored = sorted(_proc_label(p) for p in unsupported)
        if ignored:
            notices.append(
                "ignoring procedures outside the supported classes: "
                + ", ".join(ignored)
            )
    plan = plan_search(instance, pool, _goal(ws, args.query), args.max_len)
    payload = {"max_len": args.max_len, "ignored": ignored}
    if plan is None:
        lines = notices + [f"no plan within {args.max_len} steps"]
        return EXIT_NO, lines, {**payload, "plan": None}
    names = [_proc_label(p) for p in plan]
    text = ", ".join(names) if names else "(empty: goal already guaranteed)"
    return EXIT_YES, notices + [f"plan: {text}"], {**payload, "plan": names}


def _cmd_oracle(ws: Workspace, args) -> Report:
    from .oracle import enumerate_outcomes, minimal_outcomes

    instance = _pick(ws.instances, args.instance, "instance")
    outcomes = enumerate_outcomes(_sequence(ws, args.seq), instance, parse_budget(args.budget))
    if args.minimal:
        outcomes = minimal_outcomes(outcomes)
    code = EXIT_YES if outcomes else EXIT_NO
    # the rendered text orders the outcomes in both formats
    outcomes = list(outcomes)
    ordered = sorted(zip(render_instances(outcomes), outcomes), key=itemgetter(0))
    if args.format == "json":
        return code, [], {
            "count": len(ordered),
            "minimal_only": bool(args.minimal),
            "outcomes": [instance_to_json(out) for _, out in ordered],
        }
    label = "minimal outcomes" if args.minimal else "outcomes"
    lines = [f"{label} within budget: {len(ordered)}"]
    for idx, (text, _) in enumerate(ordered):
        # one entry per outcome, not per line: a report may hold thousands
        lines.append(f"--- outcome {idx} ---")
        if text:  # an instance over no relation renders as no line
            lines.append(text)
    return code, lines, {}


def _cmd_compare(ws: Workspace, args) -> Report:
    from .oracle import compare_with_chase

    instance = _pick(ws.instances, args.instance, "instance")
    report = compare_with_chase(instance, _sequence(ws, args.seq), parse_budget(args.budget))
    code = EXIT_YES if report.ok else EXIT_NO
    sections = (
        ("missing", "outcomes the approximation fails to represent", report.missing),
        ("minimal_only_oracle", "minimal only on the oracle side", report.minimal_only_oracle),
        ("minimal_only_chase", "minimal only on the approximation side", report.minimal_only_chase),
    )
    if args.format == "json":
        return code, [], {
            "ok": report.ok,
            "outcomes_checked": len(report.outcomes),
            **{key: [instance_to_json(i) for i in found] for key, _, found in sections},
        }
    if report.ok:
        checked = f"{len(report.outcomes)} outcomes checked"
        return code, [f"approximation agrees with the oracle: {checked}"], {}
    lines = ["approximation disagrees with the oracle"]
    for _, title, instances in sections:
        if not instances:
            continue
        lines.append(f"{title}: {len(instances)}")
        for idx, out in enumerate(instances):
            lines.append(f"--- {title} {idx} ---")
            lines.extend(render_instance(out).splitlines())
    return code, lines, {}


# --- argument parsing ------------------------------------------------------


def _nonnegative(text: str) -> int:
    n = int(text)  # argparse reports a ValueError as an invalid value
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


# Every flag's `add_argument` keywords, written once.
_FLAGS = {
    "workspace": dict(required=True, metavar="FILE", help="workspace file (.dq text or .dq.json)"),
    "format": dict(choices=("text", "json"), default="text", help="report format (default: text)"),
    "proc": dict(required=True, help="procedure name"),
    "schema": dict(required=True, help="input schema name"),
    "instance": dict(required=True, help="input instance name"),
    "seq": dict(required=True, help="sequence name or comma-separated procedures"),
    "query": dict(required=True, help="boolean goal query name"),
    "budget": dict(required=True, help='e.g. "extra=1,tuples=2,growth"'),
    "allow-data-preconditions": dict(
        action="store_true", help="skip dependency preconditions instead of rejecting them"
    ),
    "before": dict(required=True, help="input instance name"),
    "after": dict(required=True, help="candidate outcome instance name"),
    "max-len": dict(required=True, type=_nonnegative, metavar="K"),
    "pool": dict(help="candidate procedures (comma-separated; default: all in the workspace)"),
    "minimal": dict(action="store_true", help="report only minimal outcomes (an exact set)"),
}

# name -> (handler, its flags after --workspace and --format, summary), in help order
_COMMANDS = {
    "validate": (_cmd_validate, "", "parse the workspace and list its declarations"),
    "schema-min": (_cmd_schema_min, "proc schema allow-data-preconditions",
                   "minimal outcome schema of one procedure"),
    "applicable": (_cmd_applicable, "seq schema allow-data-preconditions",
                   "thread the minimal schema through a sequence"),
    "check-outcome": (_cmd_check_outcome, "proc before after",
                      "decide whether one instance is a possible outcome"),
    "outcomes": (_cmd_outcomes, "instance seq",
                 "conditional table over-approximating the outcome set"),
    "nonempty": (_cmd_nonempty, "instance seq", "decide whether the sequence reaches any outcome"),
    "ready": (_cmd_ready, "instance seq query",
              "decide whether the sequence guarantees a boolean goal"),
    "plan": (_cmd_plan, "instance query max-len pool",
             "shortest procedure sequence that guarantees a goal"),
    "oracle": (_cmd_oracle, "instance seq budget minimal",
               "enumerate outcomes exhaustively within a budget"),
    "compare": (_cmd_compare, "instance seq budget",
                "check the approximation against the budgeted oracle"),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The `dqw` parser. With `only` it holds that one subcommand's parser,
    which parses, helps and fails as it does in the whole tree."""
    top = argparse.ArgumentParser(
        prog="dqw",
        description="Reasoning workbench for data-transforming procedures.",
    )
    sub = top.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, flags, summary) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=summary, description=summary)
            for flag in ["workspace", "format", *flags.split()]:
                p.add_argument(f"--{flag}", **_FLAGS[flag])
    return top


def run_command(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a leading subcommand name needs only its own parser, anything else the whole tree
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(only).parse_args(argv)
    try:
        ws = load_workspace(args.workspace)
        code, lines, payload = _COMMANDS[args.command][0](ws, args)
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
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left, as `dqw oracle ... | head` does
        # the interpreter flushes stdout once more at exit: let it write nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
