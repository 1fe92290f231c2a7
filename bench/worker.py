"""One benchmark interpreter: runs a workload's command list once.

Usage: python3 bench/worker.py PLAN.json RESULT.json

`run.py` starts each worker as a fresh interpreter with PYTHONHASHSEED
fixed and the checkout's `src/` on PYTHONPATH. The plan names the mode:

- "setup": time the import of `dqworkbench.cli` plus one load of each
  workspace file, and stop;
- "commands": run every command through `cli.run_command`, stdout and
  stderr captured, each under a time limit; with "trace" set, through the
  span tracer of `tracing.py`.

The result file holds per-command timings and verdict checks, the peak
resident memory and, when traced, the per-layer counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import resource
import signal
import sys
import time
from pathlib import Path


class CommandTimeout(Exception):
    """The per-command limit expired.

    Deliberately not a TimeoutError: that subclasses OSError, which
    run_command catches and reports as an ordinary exit 2.
    """


def _expire(signum, frame):
    raise CommandTimeout()


_HEADER = re.compile(r"^(\w+)\(.*\):$")


def table_rows(text: str) -> dict[str, int]:
    """Row counts per relation in a rendered table (`outcomes` text report)."""
    counts: dict[str, int] = {}
    current = None
    for line in text.splitlines():
        header = _HEADER.match(line)
        if header:
            current = header.group(1)
            counts[current] = 0
        elif current and line.startswith("  (") and line != "  (empty)":
            counts[current] += 1
    return counts


def run_one(run_command, command: dict, limit_s: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = None
    outcome = "exit"
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(command["argv"])
    except CommandTimeout:
        outcome = "timeout"
    except Exception as e:  # recorded as a failed command; the run goes on
        outcome = f"exception:{type(e).__name__}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    text = out.getvalue()
    verdict_ok = (
        code == command["code"]
        and command["text"] in text
        and all(table_rows(text).get(rel) == n for rel, n in command["rows"])
    )
    first = text.splitlines()[0] if text else err.getvalue().strip()
    return {
        "seconds": seconds,
        "code": code,
        "outcome": outcome,
        "verdict_ok": verdict_ok,
        "first_line": first[:200],
    }


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    result: dict = {}
    if plan["mode"] == "setup":
        start = time.perf_counter()
        from dqworkbench.dsl import load_workspace
        import dqworkbench.cli  # noqa: F401  (the import a `dqw` user pays)

        for path in plan["files"]:
            load_workspace(path)
        result["setup_s"] = time.perf_counter() - start
    else:
        import dqworkbench.cli as cli

        tracer = None
        if plan["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        signal.signal(signal.SIGALRM, _expire)
        try:
            result["commands"] = [
                run_one(cli.run_command, command, plan["limit_s"])
                for command in plan["commands"]
            ]
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.write_spans(plan["spans_path"])
            result["layers"] = {name: vars(layer) for name, layer in tracer.layers.items()}
            result["edges"] = [[a, b, n] for (a, b), n in tracer.edges.items()]
            result["self_time_gap"] = tracer.self_time_gap()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
