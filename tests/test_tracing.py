"""The benchmark's span tracer still finds every function it wraps.

`bench/tracing.py` looks up each traced function by name in the
`dqworkbench` modules, so renaming or removing one breaks every traced
benchmark run. The benchmark's own smoke test is not under pytest's
`testpaths`; this test loads the tracer read-only and runs one command
under it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from dqworkbench.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
FIG1 = str(ROOT / "workspaces" / "fig1.dq")


def _load_tracing(monkeypatch):
    # no bytecode cache is written next to the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_a_check_outcome_run(monkeypatch, capsys):
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        code = run_command(
            ["check-outcome", "--workspace", FIG1, "--proc", "migrate", "--before", "I", "--after", "J1"]
        )
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.layers["procedures.possible_outcome_report"].calls == 1
