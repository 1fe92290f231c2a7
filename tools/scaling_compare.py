"""Scaling record of the oracle on Figure 1: `dqw compare` of `fix` with
schema growth, and the enumeration of `migrate` for one or more checkouts.

For each `extra` value, runs

    dqw compare --workspace workspaces/fig1.dq --instance I --seq fix \
        --budget extra=E,tuples=1,growth

in fresh interpreters and times it, then times its phases in this process:
`enumerate_outcomes`, `minimal_outcomes`, `enumerate_minimal` on the chase
table, and the whole `compare_with_chase`. Each figure is the best of
`--repeat` runs. It reads `dqworkbench` from `PYTHONPATH`, so one script
measures any checkout:

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/scaling_compare.py --extra 0 1 2

Then, for E = 1, 2, 3, it times `enumerate_outcomes` for
`dqw compare --seq migrate --budget extra=E,tuples=2` (727, 998 and 1,329
outcomes), 10 runs each, one enumeration per fresh interpreter: a second
enumeration in one process runs while the first one's outcomes are alive,
and the collector walks them. Each `--tree NAME=SRC` names a checkout's
`src/` (by default, the one `dqworkbench` was imported from); the trees
take turns run by run, the order flipping each run, so drift in the
machine's load reaches each alike. `--extra` with no values skips the
`fix` phases:

    PYTHONPATH=src python tools/scaling_compare.py --extra \
        --tree parent=<parent>/src --tree change=src

It prints one JSON object, with the log-log slope of each time against the
outcome count over the `extra` values given, and the median and quartiles
of each tree's `migrate` enumeration times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import dqworkbench
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
MIGRATE = """\
import sys, time
from dqworkbench.cli import parse_budget
from dqworkbench.dsl import load_workspace
from dqworkbench.oracle import enumerate_outcomes
ws = load_workspace(sys.argv[1])
i, ps, b = ws.instances["I"], [ws.procedures["migrate"]], parse_budget(sys.argv[2])
start = time.perf_counter()
n = len(enumerate_outcomes(ps, i, b))
print(time.perf_counter() - start, n)
"""
MIGRATE_EXTRA = (1, 2, 3)
MIGRATE_RUNS = 10  # fresh interpreters per tree and budget


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


def migrate_enumeration(trees: dict[str, str]) -> dict:
    """Per tree and budget, the outcome count and the median and quartiles of
    the fresh-interpreter times of the `migrate` enumeration."""
    times: dict[tuple[str, int], list[float]] = {(name, e): [] for name in trees for e in MIGRATE_EXTRA}
    counts: dict[int, set[int]] = {e: set() for e in MIGRATE_EXTRA}
    order = list(trees.items())
    for k in range(MIGRATE_RUNS):
        for e in MIGRATE_EXTRA:
            for name, src in order[::-1] if k % 2 else order:
                argv = [sys.executable, "-c", MIGRATE, str(FIG1), f"extra={e},tuples=2"]
                env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
                seconds, n = subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout.split()
                times[name, e].append(float(seconds))
                counts[e].add(int(n))
    if any(len(n) != 1 for n in counts.values()):
        raise SystemExit(f"the trees enumerate different outcome counts: {counts}")
    outcomes = {e: n.pop() for e, n in counts.items()}
    out: dict[str, list[dict]] = {}
    for name in trees:
        out[name] = []
        for e in MIGRATE_EXTRA:
            q1, median, q3 = statistics.quantiles(times[name, e], n=4)
            out[name].append({
                "budget": f"extra={e},tuples=2", "outcomes": outcomes[e],
                "median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4), "runs": MIGRATE_RUNS,
            })
    return out


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--extra", type=int, nargs="*", default=[0, 1, 2], help="fix budgets; none skips them")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--tree", action="append", default=[], metavar="NAME=SRC", help="a checkout's src/; repeat to compare")
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
    trees = dict(spec.split("=", 1) for spec in args.tree) or {"current": str(Path(dqworkbench.__file__).parent.parent)}
    out["migrate_enumeration"] = migrate_enumeration(trees)
    json.dump(out, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
