"""Byte identity of `dqw` outputs across checkouts and hash seeds.

Runs every command of the seed-1 command lists of the three bench workloads
(`bench/workloads.py`, read only: its generators write the workspace files
into a temporary directory) and the Figure 1 table below, on
`workspaces/fig1.dq`, each in a fresh interpreter, in text and in JSON, at
`PYTHONHASHSEED` 0 and 1, for each tree named:

    python tools/output_identity.py --tree parent=<parent>/src --tree change=src

Each `--tree NAME=SRC` names a checkout's `src/` (by default, this
checkout's). Every tree reads the same input files. It compares each run's
exit code, stdout and stderr with the first tree's run of the same command,
format and hash seed, and with the same tree's run at hash seed 0, and
prints one JSON object: the run counts and every difference, naming the two
runs as TREE@SEED, with the first line where their outputs part. It exits 1
if it found any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIG1 = str(ROOT / "workspaces" / "fig1.dq")
HASH_SEEDS = (0, 1)
FORMATS = ("text", "json")
WORKLOAD_SEED = 1
JOBS = 2  # commands run at once

# the Figure 1 table of ROADMAP.md, on instance I
FIGURE_1 = [
    ["ready", "--seq", "fix", "--query", "q_visit"],
    ["plan", "--query", "q_visit", "--max-len", "2"],
    ["compare", "--seq", "migrate,migrate", "--budget", "extra=1,tuples=1"],
    ["compare", "--seq", "migrate", "--budget", "extra=1,tuples=2"],
    ["oracle", "--seq", "fix", "--budget", "tuples=1,growth"],
    ["oracle", "--minimal", "--seq", "fix", "--budget", "tuples=1,growth"],
    ["compare", "--seq", "fix", "--budget", "extra=1,tuples=1,growth"],
    ["compare", "--seq", "fix", "--budget", "extra=2,tuples=1,growth"],
    ["compare", "--seq", "fix", "--budget", "extra=3,tuples=1,growth"],
]


def command_lists(workdir: Path) -> list[list[str]]:
    """The seed-1 workload commands, their files written under `workdir`, then the Figure 1 table."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    out = []
    for name, build in workloads.GENERATORS.items():
        w = build(WORKLOAD_SEED)
        for file, text in w.files.items():
            (workdir / name).mkdir(exist_ok=True)
            (workdir / name / file).write_text(text, encoding="utf-8")
        out += [[c.argv[0], c.argv[1], str(workdir / name / c.argv[2]), *c.argv[3:]] for c in w.commands]
    out += [[argv[0], "--workspace", FIG1, "--instance", "I", *argv[1:]] for argv in FIGURE_1]
    return out


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def first_difference(a: Path, b: Path) -> dict:
    """The first line number where the two files differ, with both lines."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        for n, (x, y) in enumerate(itertools.zip_longest(fa, fb), 1):
            if x != y:
                show = lambda line: None if line is None else line.decode("utf-8", "replace").rstrip("\n")[:200]
                return {"line": n, "first": show(x), "second": show(y)}
    return {}


def run(tree: str, src: str, argv: list[str], form: str, seed: int, outdir: Path) -> dict:
    stem = outdir / hashlib.sha256(json.dumps([tree, argv, form, seed]).encode()).hexdigest()[:16]
    out, err = stem.with_suffix(".out"), stem.with_suffix(".err")
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "PYTHONHASHSEED": str(seed)}
    with open(out, "wb") as fo, open(err, "wb") as fe:
        code = subprocess.run(
            [sys.executable, "-m", "dqworkbench.cli", *argv, "--format", form], stdout=fo, stderr=fe, env=env
        ).returncode
    return {"code": code, "stdout": out, "stderr": err, "digests": (digest(out), digest(err))}


def differences(a: dict, b: dict) -> list[dict]:
    found = []
    if a["code"] != b["code"]:
        found.append({"stream": "exit", "first": a["code"], "second": b["code"]})
    for k, stream in enumerate(("stdout", "stderr")):
        if a["digests"][k] != b["digests"][k]:
            found.append({"stream": stream, **first_difference(a[stream], b[stream])})
    return found


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[], metavar="NAME=SRC",
                    help="a checkout's src/; repeat to compare")
    args = ap.parse_args()
    trees = dict(spec.split("=", 1) for spec in args.tree) or {"current": str(ROOT / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        workdir, outdir = Path(tmp) / "in", Path(tmp) / "out"
        workdir.mkdir()
        outdir.mkdir()
        commands = command_lists(workdir)
        keys = list(itertools.product(trees, range(len(commands)), FORMATS, HASH_SEEDS))
        with ThreadPoolExecutor(JOBS) as pool:
            done = pool.map(lambda key: run(key[0], trees[key[0]], commands[key[1]], *key[2:], outdir), keys)
            runs = dict(zip(keys, done))
        first = next(iter(trees))
        report = []
        for tree, k, form, seed in keys:
            against = [(first, seed)] if tree != first else []
            against += [(tree, HASH_SEEDS[0])] if seed != HASH_SEEDS[0] else []
            for other, other_seed in against:
                for d in differences(runs[other, k, form, other_seed], runs[tree, k, form, seed]):
                    report.append({
                        "command": " ".join(commands[k]).replace(tmp, "<tmp>"), "format": form,
                        "runs": [f"{other}@{other_seed}", f"{tree}@{seed}"], **d,
                    })
    out = {
        "trees": trees, "commands": len(commands), "formats": list(FORMATS), "hash_seeds": list(HASH_SEEDS),
        "runs_per_tree": len(commands) * len(FORMATS) * len(HASH_SEEDS),
        "exit_codes": {tree: sorted({runs[key]["code"] for key in keys if key[0] == tree}) for tree in trees},
        "differences": report,
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    sys.exit(1 if report else 0)


if __name__ == "__main__":
    main()
