"""Scaling record of the matcher's callers, for one or more checkouts.

Measures, in one fresh interpreter per checkout, with the garbage
collector on:

- `rep_contains` of the one-null-per-row table that `alter_table` makes of
  `bench/workloads._join_data`'s instance (every relation gains attribute
  `d`, one fresh labeled null per row) against its fresh-null image, at
  each size, with its time and its `tracemalloc` peak;
- `approximate_outcomes` of the `pipeline` sequence on the same instance;
- `satisfies` per call, for each tgd of Figure 1 on instance `I`;
- `enumerate_outcomes` of the three heavy `oracle`-workload jobs.

Each time is the best of `--repeat` runs (`--repeat-big` at the largest
size), and the log-log slope against *n* is given per kernel. Usage:

    PYTHONHASHSEED=0 python tools/join_scaling.py --tree parent=<parent>/src \\
        --tree change=src --sizes 160 640 2560 --out BENCH_24.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIG1 = ROOT / "workspaces" / "fig1.dq"
ORACLE_JOBS = (
    ("fix", "tuples=1,growth"),
    ("migrate,migrate", "extra=1,tuples=1"),
    ("migrate", "extra=1,tuples=2"),
)


def best(repeat: int, run) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


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


def measure(sizes: list[int], repeat: int, repeat_big: int) -> dict:
    """Every figure for the `dqworkbench` on `sys.path`."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from dqworkbench.chase import approximate_outcomes
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

    rows = []
    for n in sizes:
        r_rows, t_rows, u0, _, _ = workloads._join_data(random.Random(1), n)
        ws = parse_workspace(workloads._join_text(r_rows, t_rows, u0, {}))
        i = ws.instances["I"]
        pipeline = [ws.procedures[name] for name in ws.sequences["pipeline"]]
        wide = Schema.of({r: i.schema.attrs(r) | {"d"} for r in i.schema.names})
        table = ConditionalInstance.of(wide, {
            r: [(with_cells(row, {"d": LabeledNull(f"{r}_{k}")}), ()) for k, row in enumerate(sorted(i.rows(r)))]
            for r in i.schema.names
        })
        image = apply_valuation(table, fresh_null_valuation(table))
        k = repeat_big if n == max(sizes) else repeat
        assert rep_contains(table, image)
        rows.append({
            "n": n,
            "nulls": len(table.nulls()),
            "rep_contains_s": best(k, lambda: rep_contains(table, image)),
            "rep_contains_peak_mb": peak_mb(lambda: rep_contains(table, image)),
            "approximate_outcomes_s": best(k, lambda: approximate_outcomes(i, pipeline)),
        })
    out = {"sizes": rows}
    ns = [r["n"] for r in rows]
    if len(rows) > 1:
        out["slopes"] = {
            key: slope(ns, [r[key] for r in rows])
            for key in ("rep_contains_s", "rep_contains_peak_mb", "approximate_outcomes_s")
        }
    fig1 = load_workspace(str(FIG1))
    i = fig1.instances["I"]
    calls = 2000
    out["satisfies_us_per_call"] = {
        f"{name}.post[{k}]": best(repeat, lambda d=d: [satisfies(d, i) for _ in range(calls)]) / calls * 1e6
        for name, p in fig1.procedures.items()
        for k, d in enumerate(p.post)
        if isinstance(d, Tgd)
    }
    out["enumerate_outcomes_s"] = {}
    for seq, budget in ORACLE_JOBS:
        names = [m for name in seq.split(",") for m in fig1.sequences.get(name, [name])]
        ps = [fig1.procedures[name] for name in names]
        b = parse_budget(budget)
        out["enumerate_outcomes_s"][f"{seq} {budget}"] = best(repeat, lambda: enumerate_outcomes(ps, i, b))
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
        json.dump(measure(args.sizes, args.repeat, args.repeat_big), sys.stdout)
        return
    out = {
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "repeat": args.repeat,
        "repeat_big": args.repeat_big,
        "trees": {},
    }
    for spec in args.tree or [f"current={ROOT / 'src'}"]:
        name, src = spec.split("=", 1)
        argv = [sys.executable, __file__, "--measure", "--sizes", *map(str, args.sizes),
                "--repeat", str(args.repeat), "--repeat-big", str(args.repeat_big)]
        env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
        done = subprocess.run(argv, capture_output=True, text=True, check=True, env=env)
        out["trees"][name] = json.loads(done.stdout)
    text = json.dumps(out, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
