"""Benchmark of the dqw workbench: time to verdict on generated workspaces.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {scale_join,certainty,oracle} \
        --seed N --seconds S --trace {0,1}

The workload seed makes the workspace files (see `workloads.py`), which
are written under `.bench_work/` and removed at the end. Each command list
then runs once per hash seed of the workload's fixed `HASH_SEEDS`, every
time in a fresh interpreter (`worker.py`) with PYTHONHASHSEED set: set
iteration order decides when searches such as `minimal_outcomes` stop
early, and one fig1 `compare --seq migrate,migrate` took from 3.6 s to
21.7 s over hash seeds 4 to 9, so a single unpinned hash seed cannot repeat
within a tenth. Timings sum over the hash seeds.

With `--trace 0` the run repeats the sweep over the hash seeds until
`--seconds` have passed (at least once) and reports the end-to-end metrics,
medians over the sweeps. With `--trace 1` it makes one sweep untraced and
one traced and reports the per-layer metrics; the spans of the traced
sweep go to `.bench_trace/`. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Fixed, identical on every run and every commit. A sweep costs about 4 s
# per hash seed on scale_join, 2.5 s on certainty and 22 s on oracle.
HASH_SEEDS = {"scale_join": (0, 1, 2, 3), "certainty": (0, 1, 2, 3, 4, 5), "oracle": (0, 1)}
COMMAND_LIMIT_S = 60.0
RUN_DEADLINE_S = 165.0  # no worker starts, or keeps running, past this
SETUP_TRIALS = 7

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "verdict_ok_frac": "ratio",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _layer_units(name: str, *counts: str, seconds: bool = True) -> dict[str, str]:
    units = {f"{name}.{c}": "count" for c in counts}
    if seconds:
        units[f"{name}.self_s"] = "s"
    return units


# The per-layer metrics of the traced run, in BENCHMARK.json's order.
PER_LAYER_UNITS = {
    **_layer_units("dsl.parse_workspace", "calls"),
    "dsl.parse_mb_per_s": "MB/s",
    **_layer_units("constraints.evaluate_query", "calls"),
    **_layer_units("constraints.satisfies", "calls"),
    **_layer_units("constraints.homomorphisms", "calls", "yielded", seconds=False),
    **_layer_units("procedures.possible_outcome_report", "calls"),
    "procedures.accept_ratio": "ratio",
    **_layer_units("analyzer.min_schema", "calls"),
    **_layer_units("chase.chase_safe_scope", "calls"),
    **_layer_units("chase.apply_alter_schema", "calls"),
    "chase.table_rows_out": "count",
    **_layer_units("chase.certain_boolean_cq", "calls"),
    **_layer_units("chase.canonical_table", "calls"),
    **_layer_units("ctables.enumerate_minimal", "calls", "images"),
    **_layer_units("ctables.apply_valuation", "calls", seconds=False),
    **_layer_units("ctables.rep_contains", "calls"),
    "ctables.rep_contains.hit_ratio": "ratio",
    **_layer_units("model.instance_extends", "calls"),
    **_layer_units("oracle.enumerate_outcomes", "outcomes"),
    **_layer_units("oracle.minimal_outcomes", "pairs"),
    "oracle.minimal_outcomes.kept_ratio": "ratio",
    **_layer_units("oracle.compare_with_chase"),
    **_layer_units("cli.run_command"),
    "trace.overhead_frac": "ratio",
    # time to verdict per command family, from the untraced sweep
    "family.check_s": "s",
    "family.chase_s": "s",
    "family.certain_s": "s",
    "family.oracle_s": "s",
}


class Deadline(Exception):
    """The run reached RUN_DEADLINE_S."""


class Run:
    def __init__(self, workload: str, seed: int, smoke: bool):
        self.name = workload
        self.started = time.perf_counter()
        build = (workloads.SMOKE if smoke else workloads.GENERATORS)[workload]
        self.workload = build(seed)
        self.hash_seeds = HASH_SEEDS[workload]
        self.workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True)
        self.files = []
        for name, text in self.workload.files.items():
            path = self.workdir / name
            path.write_text(text, encoding="utf-8")
            self.files.append(str(path))
        self.commands = [
            {
                "argv": [c.argv[0], c.argv[1], str(self.workdir / c.argv[2]), *c.argv[3:]],
                "code": c.code,
                "text": c.text,
                "rows": c.rows,
            }
            for c in self.workload.commands
        ]
        self.workers = 0

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def worker(self, hash_seed: int, **plan) -> dict:
        """Run worker.py in a fresh interpreter and return its result."""
        if self.remaining() <= 0:
            raise Deadline()
        self.workers += 1
        plan_path = self.workdir / f"plan-{self.workers}.json"
        result_path = self.workdir / f"result-{self.workers}.json"
        plan_path.write_text(json.dumps(plan))
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hash_seed)
        env["PYTHONPATH"] = str(ROOT / "src")
        env.pop("DQW_BUDGET_CAP", None)  # the oracle's default candidate cap applies
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired:
            raise Deadline()
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        return json.loads(result_path.read_text())

    def setup_seconds(self) -> float:
        trials = [
            self.worker(self.hash_seeds[k % len(self.hash_seeds)], mode="setup", files=self.files)["setup_s"]
            for k in range(SETUP_TRIALS)
        ]
        return statistics.median(trials)

    def sweep(self, traced: bool) -> list[dict]:
        """The command list once per hash seed; one worker result each."""
        out = []
        for h in self.hash_seeds:
            out.append(
                self.worker(
                    h,
                    mode="commands",
                    commands=self.commands,
                    limit_s=COMMAND_LIMIT_S,
                    trace=traced,
                    spans_path=str(ROOT / ".bench_trace" / f"{self.name}-hash{h}.tsv"),
                )
            )
        return out


class Tally:
    """Verdict accounting over every command run, in any worker."""

    def __init__(self, commands):
        self.commands = commands
        self.attempted = 0
        self.failed = 0
        self.verdict_ok = 0
        self.decided = 0
        self.correct = True
        self.first_lines: dict[int, set[str]] = {}
        self.problems: list[str] = []

    def add(self, results: list[dict]) -> None:
        for k, (command, r) in enumerate(zip(self.commands, results)):
            self.attempted += 1
            decided = r["outcome"] == "exit" and r["code"] in (0, 1)
            self.decided += decided
            self.verdict_ok += r["verdict_ok"]
            label = " ".join(command.argv[:1] + command.argv[3:])
            if decided:
                self.first_lines.setdefault(k, set()).add(r["first_line"])
                if not r["verdict_ok"]:
                    self.correct = False
                    self.failed += 1
                    self.problems.append(f"wrong verdict: {label}: {r['first_line']}")
            elif r["outcome"] != "exit" or not command.known_undecided:
                self.failed += 1
                self.problems.append(f"{r['outcome']} {r['code']}: {label}: {r['first_line']}")

    def fail_run(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(reason)

    def check_consistency(self) -> None:
        """A verdict must not depend on the hash seed."""
        for k, lines in self.first_lines.items():
            if len(lines) > 1:
                self.correct = False
                self.problems.append(f"hash-seed dependent report: {self.commands[k].argv[0]}: {sorted(lines)}")


def _family_seconds(commands, results: list[dict]) -> dict[str, float]:
    out = {f"{family}_s": 0.0 for family in sorted(set(workloads.FAMILIES.values()))}
    for command, r in zip(commands, results):
        out[f"{command.family}_s"] += r["seconds"]
    return out


def _end_to_end(run: Run, tally: Tally, seconds: float) -> dict:
    setup_s = run.setup_seconds()
    sweeps = []
    measure_start = time.perf_counter()
    last = 0.0
    while not sweeps or (
        time.perf_counter() - measure_start < seconds and run.remaining() > 1.5 * last
    ):
        begin = time.perf_counter()
        try:
            sweep = run.sweep(traced=False)
        except Deadline:
            tally.fail_run("run deadline reached during a sweep")
            break
        last = time.perf_counter() - begin
        for results in sweep:
            tally.add(results["commands"])
        sweeps.append(sweep)
    if not sweeps:
        return {}
    return {
        "wall_s": statistics.median(
            sum(r["seconds"] for w in sweep for r in w["commands"]) for sweep in sweeps
        ),
        "setup_s": setup_s,
        "verdict_ok_frac": tally.verdict_ok / tally.attempted,
        "decided_frac": tally.decided / tally.attempted,
        "peak_rss_mb": statistics.median(max(w["peak_rss_mb"] for w in sweep) for sweep in sweeps),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(run: Run, tally: Tally) -> dict:
    plain = run.sweep(traced=False)
    traced = run.sweep(traced=True)
    for w in plain + traced:
        tally.add(w["commands"])
    layers: dict[str, dict] = {}
    edges: dict[tuple[str, str], int] = {}
    for w in traced:
        for name, layer in w["layers"].items():
            acc = layers.setdefault(name, dict.fromkeys(layer, 0))
            for key, value in layer.items():
                acc[key] += value
        for a, b, n in w["edges"]:
            edges[(a, b)] = edges.get((a, b), 0) + n
        gap = abs(w["self_time_gap"])
        if gap > 1e-6 * max(1.0, w["layers"]["cli.run_command"]["total_s"]):
            tally.correct = False
            tally.problems.append(f"span self times miss the command total by {gap:.3g} s")
    metrics: dict[str, float] = {}
    for name, layer in layers.items():
        metrics[f"{name}.calls"] = layer["calls"]
        metrics[f"{name}.self_s"] = layer["self_s"]
    metrics["constraints.homomorphisms.yielded"] = layers["constraints.homomorphisms"]["yielded"]
    parse = layers["dsl.parse_workspace"]
    metrics["dsl.parse_mb_per_s"] = _ratio(parse["units"] / 1e6, parse["self_s"])
    report = layers["procedures.possible_outcome_report"]
    metrics["procedures.accept_ratio"] = _ratio(report["hits"], report["calls"])
    metrics["chase.table_rows_out"] = (
        layers["chase.chase_safe_scope"]["units"] + layers["chase.apply_alter_schema"]["units"]
    )
    metrics["ctables.enumerate_minimal.images"] = layers["ctables.enumerate_minimal"]["units"]
    rep = layers["ctables.rep_contains"]
    metrics["ctables.rep_contains.hit_ratio"] = _ratio(rep["hits"], rep["calls"])
    metrics["oracle.enumerate_outcomes.outcomes"] = layers["oracle.enumerate_outcomes"]["units"]
    minimal = layers["oracle.minimal_outcomes"]
    metrics["oracle.minimal_outcomes.pairs"] = edges.get(
        ("oracle.minimal_outcomes", "model.instance_extends"), 0
    )
    metrics["oracle.minimal_outcomes.kept_ratio"] = _ratio(minimal["hits"], minimal["units"])
    plain_wall = sum(r["seconds"] for w in plain for r in w["commands"])
    traced_wall = sum(r["seconds"] for w in traced for r in w["commands"])
    metrics["trace.overhead_frac"] = _ratio(traced_wall - plain_wall, plain_wall)
    families = [_family_seconds(run.workload.commands, w["commands"]) for w in plain]
    for key in families[0]:
        metrics[f"family.{key}"] = sum(f[key] for f in families)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    if not (ROOT / "src" / "dqworkbench" / "__init__.py").is_file():
        raise SystemExit(f"error: no dqworkbench sources under {ROOT / 'src'}")
    (ROOT / ".bench_trace").mkdir(exist_ok=True)
    bench_run = Run(workload, seed, smoke)
    tally = Tally(bench_run.workload.commands)
    try:
        if trace:
            try:
                metrics = _per_layer(bench_run, tally)
            except Deadline:
                tally.fail_run("run deadline reached in the traced run")
                metrics = {}
            units = PER_LAYER_UNITS
        else:
            metrics = _end_to_end(bench_run, tally, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(bench_run.workdir, ignore_errors=True)
    tally.check_consistency()
    for problem in tally.problems:
        print(problem, file=sys.stderr)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
