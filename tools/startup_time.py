"""Fixed cost of a `dqw` command: fresh-process times and import self times.

Each tree is a checkout's `src/` directory, named on the command line:

    python tools/startup_time.py --tree parent=../parent/src --tree change=src \
        --runs 20 --out BENCH_22.json

For every tree it starts `--runs` fresh interpreters of each command below,
on `workspaces/fig1.dq`, the way the `dqw` script does
(`from dqworkbench.cli import main; main()`):

- `validate`
- `ready --instance I --seq fix --query q_visit`

once without a bytecode cache for the package (a copy of the tree without
`__pycache__`, run with `PYTHONDONTWRITEBYTECODE=1`, so each of its modules
compiles) and once with one (a temporary `PYTHONPYCACHEPREFIX`, filled by a
first run that is not counted). The trees take turns run by run, so drift
in the machine's load reaches each alike. It reports the median and quartiles of the wall times, the
`-X importtime` self time of each `dqworkbench` module (median over the
runs), and, beside them, the start of a bare interpreter with and without
`-S`: the difference is what the environment's site `.pth` files import.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIG1 = str(Path(__file__).resolve().parent.parent / "workspaces" / "fig1.dq")
COMMANDS = {
    "validate": ["validate", "--workspace", FIG1],
    "ready": ["ready", "--workspace", FIG1, "--instance", "I", "--seq", "fix", "--query", "q_visit"],
}
DQW = "import sys; from dqworkbench.cli import main; sys.argv[1:] = {!r}; main()"
WATCHED = ("dataclasses", "inspect", "argparse", "json")  # imports beside the package's


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4), "runs": len(times)}


def clocked(argv: list[str], env: dict, expect: int) -> float:
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True)
    seconds = time.perf_counter() - start
    if done.returncode != expect:
        raise SystemExit(f"{argv} exited {done.returncode}: {done.stderr.decode()[-500:]}")
    return seconds


def import_self_us(env: dict) -> dict[str, int]:
    """`-X importtime` self microseconds of the package's modules and the watched ones."""
    argv = [sys.executable, "-X", "importtime", "-c", "import dqworkbench.cli"]
    err = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stderr
    out = {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if self_us.isdigit() and (name.startswith("dqworkbench") or name in WATCHED):
            out[name] = int(self_us)
    return out


def measure(trees: dict[str, str], runs: int) -> dict:
    base = {k: v for k, v in os.environ.items() if not k.startswith("PYTHONPYCACHE")}
    base["PYTHONHASHSEED"] = "0"
    result: dict = {"commands": {}, "import_self_ms": {}}
    modes = ("no_cache", "cache")
    with tempfile.TemporaryDirectory() as tmp:
        envs = {}
        for name, src in trees.items():
            # a copy without __pycache__ directories compiles every module of
            # the package; the standard library keeps its installed cache
            copy = Path(tmp) / name / "src"
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
            envs["no_cache", name] = {**base, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy)}
            cached = {**base, "PYTHONPATH": str(copy), "PYTHONPYCACHEPREFIX": str(Path(tmp) / name / "pyc")}
            cached.pop("PYTHONDONTWRITEBYTECODE", None)
            envs["cache", name] = cached
        for env in envs.values():  # fill the caches, uncounted
            for args in COMMANDS.values():
                clocked([sys.executable, "-c", DQW.format(args)], env, 0)
        for command, args in COMMANDS.items():
            times = {key: [] for key in envs}
            for _ in range(runs):
                for key, env in envs.items():
                    times[key].append(clocked([sys.executable, "-c", DQW.format(args)], env, 0))
            result["commands"][command] = {
                mode: {name: summary(times[mode, name]) for name in trees} for mode in modes
            }
        for mode in modes:
            samples: dict[str, list] = {name: [] for name in trees}
            for _ in range(runs):  # the trees take turns here too
                for name in trees:
                    samples[name].append(import_self_us(envs[mode, name]))
            result["import_self_ms"][mode] = {
                name: {
                    m: round(statistics.median(s.get(m, 0) for s in runs_) / 1000, 2)
                    for m in sorted(set().union(*runs_))
                }
                for name, runs_ in samples.items()
            }
    result["interpreter_start"] = {
        label: summary([clocked([sys.executable, *flags, "-c", "pass"], base, 0) for _ in range(runs)])
        for label, flags in (("plain", []), ("no_site", ["-S"]))
    }
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, metavar="NAME=SRC",
                        help="a checkout's src/ directory under a name; repeat to compare")
    parser.add_argument("--runs", type=int, default=20, help="fresh processes per figure")
    parser.add_argument("--out", help="also write the JSON object to this file")
    args = parser.parse_args()
    trees = dict(spec.split("=", 1) for spec in args.tree)
    record = {
        "what": "fresh-process time of dqw validate and dqw ready on workspaces/fig1.dq",
        "script": "python tools/startup_time.py "
        + " ".join(f"--tree {name}=<{name} checkout>/src" for name in trees)
        + f" --runs {args.runs}",
        "machine": f"{os.cpu_count()} CPUs, {platform.python_implementation()} "
        f"{platform.python_version()}, {platform.system()}",
        "statistic": "median and quartiles of the wall time of fresh interpreters, the trees "
        "taking turns; import_self_ms is the median -X importtime self time",
        "trees": list(trees),
        **measure(trees, args.runs),
    }
    text = json.dumps(record, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
