"""Spans around jsnorm's public functions, for the benchmark's traced run.

Each listed function is replaced, under every module attribute bound to it,
by a wrapper that records a span: name, start, end, parent span and op id.
Looking the wrapper up wherever callers look the function up means calls
between jsnorm modules are traced too. Counts are taken at the same
boundaries. Spans stay in memory and are written to one file at the end;
the per-layer metrics are read back from that file.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from typing import Callable, Optional


def _load_json(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _canonical_json(args, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


def _norm_oracle(args, result) -> dict:
    return {"support_atoms": len(args[1].support), "witness_members": len(result.witness)}


def _condition_b(args, result) -> dict:
    return {"undecomposable": 1} if result is None else {}


def _build(args, result) -> dict:
    sampled = sum(1 for rec in result.stage_log if rec.exceeded_pool)
    return {
        "nodes": sum(len(t.nodes) for t in result.trees.values()),
        "enumerated_stages": len(result.stage_log) - sampled,
        "sampled_stages": sampled,
    }


# "<module>.<function>" under jsnorm → counter(args, result) or None.
LAYERS: dict[str, Optional[Callable]] = {
    "cli.main": None,
    "serialize.load_json": _load_json,
    "serialize.family_from_dict": lambda args, result: {"members": len(result.members)},
    "serialize.vector_from_dict": None,
    "serialize.tree_from_dict": None,
    "serialize.weighted_family_from_dict": None,
    "serialize.partition_from_dict": None,
    "serialize.supports_from_dict": None,
    "serialize.canonical_json": _canonical_json,
    "norm.norm_oracle": _norm_oracle,
    "norm.norm_tree_dp": None,
    "norm.norm_weighted": None,
    "norm.sqrt_decimal": None,
    "ci.check_ci": None,
    "ci.check_condition_b": _condition_b,
    "ci.check_condition_c": None,
    "ci.disjointify": lambda args, result: {"parts": len(result.parts)},
    "reznichenko.build": _build,
    "reznichenko.verify_system": None,
    "reznichenko.system_to_dict": None,
    "reznichenko.system_from_dict": None,
    "reznichenko.partition_search": lambda args, result: {"found": int(result is not None)},
    "talagrand.admissible_family": lambda args, result: {"members": len(result[0].members)},
    "talagrand.eberleinize": lambda args, result: {"rows": len(result)},
    "talagrand.qe_partition_search": None,
    "talagrand.saturation_partition": None,
}

# Count keys each layer reports, in the order the metrics list them.
COUNTS = {
    "serialize.load_json": ("bytes",),
    "serialize.canonical_json": ("bytes",),
    "serialize.family_from_dict": ("members",),
    "norm.norm_oracle": ("support_atoms", "witness_members"),
    "ci.check_condition_b": ("undecomposable",),
    "ci.disjointify": ("parts",),
    "reznichenko.build": ("nodes", "enumerated_stages", "sampled_stages"),
    "reznichenko.partition_search": ("found",),
    "talagrand.admissible_family": ("members",),
    "talagrand.eberleinize": ("rows",),
}


class Tracer:
    """Span recorder for one thread. A span is
    [parent index or -1, op id, name, start s, end s, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.t0 = time.perf_counter()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([self.stack[-1] if self.stack else -1, self.op, name, time.perf_counter() - self.t0, None, None])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter() - self.t0
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                self.spans[index][5] = counter(args, result) or None
            return result

        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every LAYERS function at each jsnorm module attribute bound
        to it; returns a function that puts the originals back."""
        modules = [m for n, m in sys.modules.items() if n == "jsnorm" or n.startswith("jsnorm.")]
        undo = []
        for name, counter in LAYERS.items():
            module, func = name.split(".")
            original = getattr(sys.modules[f"jsnorm.{module}"], func)
            wrapper = self.wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))

        def restore() -> None:
            for mod, attr, original in undo:
                setattr(mod, attr, original)

        return restore

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": ["parent", "op", "name", "start", "end", "counts"], "spans": self.spans}, fh)


def read_spans(path: str) -> list[list]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """calls, inclusive busy time, self time and counts per layer."""
    child_time = [0.0] * len(spans)
    for parent, _op, _name, start, end, _counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (0, "count")
        out[f"{name}.busy_s"] = (0.0, "s")
        out[f"{name}.self_s"] = (0.0, "s")
        for key in COUNTS.get(name, ()):
            out[f"{name}.{key}"] = (0, "bytes" if key == "bytes" else "count")
    for i, (_parent, _op, name, start, end, counts) in enumerate(spans):
        if name not in LAYERS:
            continue
        for key, add in (("calls", 1), ("busy_s", end - start), ("self_s", end - start - child_time[i])):
            value, unit = out[f"{name}.{key}"]
            out[f"{name}.{key}"] = (value + add, unit)
        for key, add in (counts or {}).items():
            value, unit = out[f"{name}.{key}"]
            out[f"{name}.{key}"] = (value + add, unit)
    return out


def op_coverage(spans: list[list]) -> float:
    """Share of the op spans' time that their traced child spans cover."""
    op_time = covered = 0.0
    for parent, _op, name, start, end, _counts in spans:
        if parent < 0:
            op_time += end - start
        elif spans[parent][0] < 0:
            covered += end - start
    return covered / op_time if op_time else 0.0
