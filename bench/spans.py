"""Spans for the traced run, and the per-module metrics derived from them.

A span is (name, start, end, parent, op, attrs): start and end are
time.perf_counter() seconds, parent is the index of the enclosing span
(None for an operation's root span "op"), op is the operation id and
attrs holds counts read from the call's result.  Spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

# spans reported as mean milliseconds per operation
PER_OP_MS = (
    "discords.cc_discord",
    "discords.cq_discord",
    "discords.qc_discord",
    "bounds.iterate_adaptive",
    "bounds.degenerate_optimized_bounds",
    "bounds.nonoptimal_optimized_aub",
    "bounds.adaptive_bound",
    "bounds.nonadaptive_bound",
    "oracle.grid_cc_discord",
)
# spans reported as mean microseconds per call
PER_CALL_US = (
    "eig3.eigh3",
    "oracle.check_observation2",
    "bloch.load_state",
    "measurements.measure_ab",
    "presets.state",
)


class Tracer:
    def __init__(self):
        self.rows: list[list] = []

    def open(self, name: str, op: int, parent: int | None = None) -> int:
        self.rows.append([name, time.perf_counter(), None, parent, op, None])
        return len(self.rows) - 1

    def close(self, index: int) -> None:
        self.rows[index][2] = time.perf_counter()

    def call(self, name: str, op: int, parent: int, fn, *args, **kwargs):
        index = self.open(name, op, parent)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def note(self, **attrs) -> None:
        """Attach counts to the span recorded last."""
        self.rows[-1][5] = attrs

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op", "attrs")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")


def module_metrics(rows: list[list], in_command: set[str]) -> dict[str, float]:
    """Per-module metrics from the spans of the traced operations.

    in_command names the library spans that replay calls the command
    itself makes; cli.self_ms is the command's span minus those.
    """
    ops = sorted({row[4] for row in rows})
    total = defaultdict(float)
    calls = defaultdict(int)
    command_ms = defaultdict(float)
    library_ms = defaultdict(float)
    attrs = defaultdict(list)
    for name, start, end, _, op, note in rows:
        dur = end - start
        total[name] += dur
        calls[name] += 1
        if name.startswith("cli."):
            command_ms[op] += 1e3 * dur
        elif name in in_command:
            library_ms[op] += 1e3 * dur
        if note:
            attrs[name].append((op, note))

    out = {f"{name}_ms": 1e3 * total[name] / len(ops) for name in PER_OP_MS}
    out.update({f"{name}_us": 1e6 * total[name] / calls[name] for name in PER_CALL_US})
    out["cli.self_ms"] = sum(command_ms[op] - library_ms[op] for op in ops) / len(ops)

    evals = [a["evals"] for _, a in attrs["discords.cc_discord"]]
    out["discords.cc_objective_evals"] = sum(evals) / len(evals)
    iters = [a for _, a in attrs["bounds.iterate_adaptive"]]
    out["bounds.iterate_rounds"] = sum(a["rounds"] for a in iters) / len(iters)
    out["bounds.iterate_budget_share"] = sum(a["budget"] for a in iters) / len(iters)
    return out
