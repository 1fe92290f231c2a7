"""Scaling record of the parser and the matcher's callers, for one or more checkouts.

Measures, with the garbage collector on unless said otherwise:

- `parse_workspace` of the `scale_join` workspace of `bench/workloads.py`
  at each size (instance `I` and three candidate outcomes), and the same
  with the collector paused;
- `rep_contains` of the one-null-per-row table that `alter_table` makes of
  `bench/workloads._join_data`'s instance (every relation gains attribute
  `d`, one fresh labeled null per row) against its fresh-null image, at
  each size, with its time and its `tracemalloc` peak;
- `approximate_outcomes` of the `pipeline` sequence on the same instance,
  and `canonical_table` of the table it returns (as many nulls as the
  `alter_table` one);
- `possible_outcome_report` of `join` on `I`, as `check-outcome` runs it,
  against each of the candidates `J_closure`, `J_dropped` and `J_changed`;
- `satisfies` per call, for each tgd of Figure 1 on instance `I`;
- `enumerate_outcomes` of the three heavy `oracle`-workload jobs.

Each pass times every figure once, in a fresh interpreter per checkout,
and the checkouts take turns pass by pass, so drift in the machine's load
reaches each alike. Each time is the best of `--repeat` passes
(`--repeat-big` at the largest size), and the log-log slope against *n* is
given per kernel. Usage:

    PYTHONHASHSEED=0 python tools/join_scaling.py --tree parent=<parent>/src \\
        --tree change=src --sizes 640 2560 10240 --out BENCH_30.json
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIG1 = ROOT / "workspaces" / "fig1.dq"
CANDIDATES = ("J_closure", "J_dropped", "J_changed")
ORACLE_JOBS = (
    ("fix", "tuples=1,growth"),
    ("migrate,migrate", "extra=1,tuples=1"),
    ("migrate", "extra=1,tuples=2"),
)


def timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def paused(run) -> float:
    """`timed(run)` with the garbage collector paused."""
    gc.disable()
    try:
        return timed(run)
    finally:
        gc.enable()


def peak_mb(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def measure(sizes: list[int]) -> dict:
    """One pass of every figure for the `dqworkbench` on `sys.path`."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from dqworkbench.chase import approximate_outcomes, canonical_table
    from dqworkbench.cli import parse_budget
    from dqworkbench.constraints import Tgd, satisfies
    from dqworkbench.ctables import (
        ConditionalInstance,
        apply_valuation,
        fresh_null_valuation,
        rep_contains,
    )
    from dqworkbench.dsl import load_workspace, parse_workspace
    from dqworkbench.model import LabeledNull, Schema, with_cells
    from dqworkbench.oracle import enumerate_outcomes
    from dqworkbench.procedures import possible_outcome_report

    rows = []
    for n in sizes:
        # `I` is the instance of `workloads._join_data` at seed 1
        text = workloads.scale_join(1, sizes=(n,)).files[f"join_{n}.dq"]
        ws = parse_workspace(text)
        i = ws.instances["I"]
        pipeline = [ws.procedures[name] for name in ws.sequences["pipeline"]]
        wide = Schema.of({r: i.schema.attrs(r) | {"d"} for r in i.schema.names})
        table = ConditionalInstance.of(wide, {
            r: [(with_cells(row, {"d": LabeledNull(f"{r}_{k}")}), ()) for k, row in enumerate(sorted(i.rows(r)))]
            for r in i.schema.names
        })
        image = apply_valuation(table, fresh_null_valuation(table))
        chased = approximate_outcomes(i, pipeline)
        assert rep_contains(table, image)
        rows.append({
            "n": n,
            "nulls": len(table.nulls()),
            "parse_mb": len(text.encode()) / 2**20,
            "parse_workspace_s": timed(lambda: parse_workspace(text)),
            "parse_workspace_gc_paused_s": paused(lambda: parse_workspace(text)),
            "rep_contains_s": timed(lambda: rep_contains(table, image)),
            "rep_contains_peak_mb": peak_mb(lambda: rep_contains(table, image)),
            "approximate_outcomes_s": timed(lambda: approximate_outcomes(i, pipeline)),
            "canonical_table_s": timed(lambda: canonical_table(chased)),
            **{
                f"possible_outcome_report_{name}_s": timed(
                    lambda j=ws.instances[name]: possible_outcome_report(ws.procedures["join"], i, j)
                )
                for name in CANDIDATES
            },
        })
    out = {"sizes": rows}
    fig1 = load_workspace(str(FIG1))
    i = fig1.instances["I"]
    calls = 2000
    out["satisfies_us_per_call"] = {
        f"{name}.post[{k}]": timed(lambda d=d: [satisfies(d, i) for _ in range(calls)]) / calls * 1e6
        for name, p in fig1.procedures.items()
        for k, d in enumerate(p.post)
        if isinstance(d, Tgd)
    }
    out["enumerate_outcomes_s"] = {}
    for seq, budget in ORACLE_JOBS:
        names = [m for name in seq.split(",") for m in fig1.sequences.get(name, [name])]
        ps = [fig1.procedures[name] for name in names]
        b = parse_budget(budget)
        out["enumerate_outcomes_s"][f"{seq} {budget}"] = timed(lambda: enumerate_outcomes(ps, i, b))
    return out


def least(passes: list[dict]) -> dict:
    """Each figure's least value over the passes, and the slopes of the sized ones."""
    by_n: dict[int, list[dict]] = {}
    for one in passes:
        for row in one["sizes"]:
            by_n.setdefault(row["n"], []).append(row)
    rows = [{key: min(r[key] for r in rs) for key in rs[0]} for _, rs in sorted(by_n.items())]
    out: dict = {"sizes": rows}
    if len(rows) > 1:
        ns = [r["n"] for r in rows]
        out["slopes"] = {key: slope(ns, [r[key] for r in rows]) for key in rows[0] if key.endswith(("_s", "_mb"))}
    for group in ("satisfies_us_per_call", "enumerate_outcomes_s"):
        out[group] = {key: min(one[group][key] for one in passes) for key in passes[0][group]}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[], help="NAME=SRC; measures SRC's dqworkbench")
    ap.add_argument("--sizes", type=int, nargs="+", default=[160, 640, 2560])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--repeat-big", type=int, default=2)
    ap.add_argument("--out", help="write the JSON here as well as to stdout")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        json.dump(measure(args.sizes), sys.stdout)
        return
    out = {
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "repeat": args.repeat,
        "repeat_big": args.repeat_big,
    }
    trees = [spec.split("=", 1) for spec in args.tree or [f"current={ROOT / 'src'}"]]
    passes: dict[str, list[dict]] = {name: [] for name, _ in trees}
    for k in range(max(args.repeat, args.repeat_big)):
        sizes = args.sizes if k < args.repeat_big else [n for n in args.sizes if n != max(args.sizes)]
        for name, src in trees[::-1] if k % 2 else trees:
            argv = [sys.executable, __file__, "--measure", "--sizes", *map(str, sizes)]
            env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
            done = subprocess.run(argv, capture_output=True, text=True, check=True, env=env)
            passes[name].append(json.loads(done.stdout))
    out["trees"] = {name: least(runs) for name, runs in passes.items()}
    text = json.dumps(out, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
