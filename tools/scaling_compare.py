"""Scaling record of `dqw compare` on Figure 1's `fix` with schema growth.

For each `extra` value, runs

    dqw compare --workspace workspaces/fig1.dq --instance I --seq fix \
        --budget extra=E,tuples=1,growth

in fresh interpreters and times it, then times its phases in this process:
`enumerate_outcomes`, `minimal_outcomes`, `enumerate_minimal` on the chase
table, and the whole `compare_with_chase`. Each figure is the best of
`--repeat` runs. It reads `dqworkbench` from `PYTHONPATH`, so one script
measures any checkout:

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/scaling_compare.py --extra 0 1 2

It prints one JSON object, with the log-log slope of each time against the
outcome count over the `extra` values given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from dqworkbench.chase import approximate_outcomes
from dqworkbench.cli import parse_budget
from dqworkbench.ctables import enumerate_minimal
from dqworkbench.dsl import load_workspace
from dqworkbench.model import active_domain
from dqworkbench.oracle import (
    compare_with_chase,
    constraint_constants,
    enumerate_outcomes,
    minimal_outcomes,
)

FIG1 = Path(__file__).resolve().parent.parent / "workspaces" / "fig1.dq"


def best(repeat: int, run) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def fresh_process_s(budget: str, repeat: int) -> tuple[float, int]:
    argv = [sys.executable, "-m", "dqworkbench.cli", "compare", "--workspace", str(FIG1),
            "--instance", "I", "--seq", "fix", "--budget", budget]
    codes = []
    seconds = best(repeat, lambda: codes.append(subprocess.run(argv, capture_output=True).returncode))
    return seconds, codes[-1]


def phases(budget: str, repeat: int) -> dict:
    ws = load_workspace(str(FIG1))
    i = ws.instances["I"]
    ps = [ws.procedures[name] for name in ws.sequences["fix"]]
    b = parse_budget(budget)
    outcomes = enumerate_outcomes(ps, i, b)
    table = approximate_outcomes(i, ps)
    rigid = frozenset(active_domain(i)) | frozenset().union(*(constraint_constants(p) for p in ps))
    return {
        "outcomes": len(outcomes),
        "minimal": len(minimal_outcomes(outcomes)),
        "enumerate_outcomes_s": best(repeat, lambda: enumerate_outcomes(ps, i, b)),
        "minimal_outcomes_s": best(repeat, lambda: minimal_outcomes(outcomes)),
        "enumerate_minimal_s": best(repeat, lambda: enumerate_minimal(table, constants=rigid)),
        "compare_with_chase_s": best(repeat, lambda: compare_with_chase(i, ps, b)),
    }


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--extra", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    rows = []
    for extra in args.extra:
        budget = f"extra={extra},tuples=1,growth"
        seconds, code = fresh_process_s(budget, args.repeat)
        rows.append({"budget": budget, "fresh_process_s": seconds, "exit": code, **phases(budget, args.repeat)})
    out = {"hash_seed": os.environ.get("PYTHONHASHSEED"), "repeat": args.repeat, "sizes": rows}
    if len(rows) > 1:
        n = [r["outcomes"] for r in rows]
        out["slope_vs_outcomes"] = {
            key: slope(n, [r[key] for r in rows])
            for key in ("fresh_process_s", "minimal_outcomes_s", "compare_with_chase_s")
        }
    json.dump(out, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
