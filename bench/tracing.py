"""Span tracing of dqworkbench's public layer functions, from outside `src/`.

`Tracer.install()` replaces each function named in `SPANS` and `COUNTED`
in every `dqworkbench` module namespace that binds it: `from .x import f`
copies the binding, so patching only the defining module would miss
calls such as `oracle.rep_contains` or `chase.evaluate_query`.

Span functions keep a stack: a span's self time is its duration minus
the durations of the spans it directly encloses, so the self times of all
spans under a root add up to the root's duration. Counted functions are
not timed; their cost shows as the self time of the enclosing span.
Private helpers stay unwrapped for the same reason.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

# module -> public functions traced as spans
SPANS = {
    "cli": ("run_command",),
    "dsl": ("parse_workspace",),
    "constraints": ("evaluate_query", "satisfies"),
    "procedures": ("possible_outcome_report",),
    "analyzer": ("min_schema",),
    "chase": ("chase_safe_scope", "apply_alter_schema", "certain_boolean_cq", "canonical_table"),
    "ctables": ("enumerate_minimal", "rep_contains"),
    "model": ("instance_extends",),
    "oracle": ("enumerate_outcomes", "minimal_outcomes", "compare_with_chase"),
}
# module -> functions whose calls (and, for generators, yields) are counted
COUNTED = {
    "constraints": ("homomorphisms",),
    "ctables": ("apply_valuation",),
}

ROOT = "cli.run_command"
MAX_KEPT_SPANS = 200_000


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    yielded: int = 0
    units: float = 0.0  # a per-layer quantity taken from arguments or results
    hits: int = 0  # results that count as useful


def _table_rows(result) -> int:
    total = getattr(result, "total_size", None)
    return total() if total else 0


# name -> (args, result) -> (units, hit); what each layer's extra metric counts
_OBSERVE = {
    "dsl.parse_workspace": lambda args, r: (len(args[0].encode()), 0),
    "procedures.possible_outcome_report": lambda args, r: (0, r.ok),
    "chase.chase_safe_scope": lambda args, r: (_table_rows(r), 0),
    "chase.apply_alter_schema": lambda args, r: (_table_rows(r), 0),
    "ctables.enumerate_minimal": lambda args, r: (len(r), 0),
    "ctables.rep_contains": lambda args, r: (0, r),
    "oracle.enumerate_outcomes": lambda args, r: (len(r), 0),
    "oracle.minimal_outcomes": lambda args, r: (len(args[0]), len(r)),
}


class Tracer:
    """Per-layer counters plus the first MAX_KEPT_SPANS spans, in memory."""

    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.edges: dict[tuple[str, str], int] = {}
        # (name, parent index or -1, start, end), in order of entry; a kept
        # span's parent entered earlier, so it is kept too
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []  # [name, span index, child seconds]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        originals = {}
        for table, make in ((SPANS, self._span), (COUNTED, self._counter)):
            for module, names in table.items():
                mod = importlib.import_module(f"dqworkbench.{module}")
                for name in names:
                    fn = getattr(mod, name)
                    full = f"{module}.{name}"
                    self.layers[full] = Layer()
                    originals[id(fn)] = (fn, make(full, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dqworkbench" and not mod_name.startswith("dqworkbench."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _span(self, full: str, fn):
        layer = self.layers[full]
        observe = _OBSERVE.get(full)
        stack = self._stack
        spans = self.spans
        edges = self.edges

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None:
                key = (parent[0], full)
                edges[key] = edges.get(key, 0) + 1
            if len(spans) < MAX_KEPT_SPANS:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
            frame = [full, index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                layer.calls += 1
                layer.self_s += duration - frame[2]
                layer.total_s += duration
                if parent is not None:
                    parent[2] += duration
                if index >= 0:
                    spans[index] = (full, parent[1] if parent else -1, start, end)
            if observe is not None:
                units, hits = observe(args, result)
                layer.units += units
                layer.hits += hits
            return result

        return traced

    def _counter(self, full: str, fn):
        layer = self.layers[full]
        if inspect.isgeneratorfunction(fn):

            def counted(*args, **kwargs):
                layer.calls += 1
                for item in fn(*args, **kwargs):
                    layer.yielded += 1
                    yield item

        else:

            def counted(*args, **kwargs):
                layer.calls += 1
                return fn(*args, **kwargs)

        return counted

    def self_time_gap(self) -> float:
        """All self times summed, minus the summed `cli.run_command` durations.

        Zero, up to rounding, when every span runs inside a command.
        """
        total_self = sum(layer.self_s for layer in self.layers.values())
        return total_self - self.layers[ROOT].total_s

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tname\tparent\tstart_s\tend_s\n")
            for k, span in enumerate(self.spans):
                if span is not None:
                    f.write(f"{k}\t{span[0]}\t{span[1]}\t{span[2]:.9f}\t{span[3]:.9f}\n")
