"""Spans around the calls into each loccdist layer, recorded from outside.

The program is not edited: :func:`install` replaces a public function by a
timing wrapper in every module that binds it, so a call from ``cli`` into
``distinguish.decide`` or from ``distinguish`` into
``relativity.overlap_graph`` opens a span.  Spans are kept in memory, each
with its parent and the request it belongs to, and written out when the run
ends.  Counters read from a call's arguments or result (graph sizes, tree
shapes) are computed on a paused clock, so they do not inflate the time of
the enclosing spans.
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Any, Callable

Counter = Callable[[tuple, dict, Any], dict]


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _trace_shape(result: Any) -> dict:
    from loccdist.distinguish import TraceSplit, TraceStuck

    splits = stuck = max_depth = 0
    todo = [(result.trace, 0)] if result.trace is not None else []
    while todo:
        node, depth = todo.pop()
        if isinstance(node, TraceSplit):
            splits += 1
            max_depth = max(max_depth, depth + 1)
            todo.extend((child, depth + 1) for child in node.children)
        elif isinstance(node, TraceStuck):
            stuck += 1
    return {"splits": splits, "stuck_blocks": stuck, "max_depth": max_depth}


def _instruments(root: Any) -> int:
    from loccdist.simulate import SimNode

    count, todo = 0, [root]
    while todo:
        node = todo.pop()
        if isinstance(node, SimNode):
            count += 1
            todo.extend(node.children)
    return count


# (layer, function, binding modules, counter); the span name is layer.function.
TARGETS: tuple[tuple[str, str, tuple[str, ...], Counter | None], ...] = (
    ("cli", "main", ("cli",), None),
    ("jsonio", "parse_json", ("cli", "ensemble", "distinguish", "simulate"),
     lambda a, k, r: {"bytes": len(a[0])}),
    ("jsonio", "canonical_dumps", ("cli", "ensemble", "distinguish", "simulate"),
     lambda a, k, r: {"bytes": len(r)}),
    ("ensemble", "parse_ensemble", ("cli",), None),
    ("ensemble", "validate", ("ensemble",),
     lambda a, k, r: {"pairs": _pairs(len(a[0].states))}),
    ("relativity", "overlap_graph", ("distinguish", "oracle", "relativity"),
     lambda a, k, r: {"pairs": _pairs(len(r.members))}),
    ("relativity", "components", ("distinguish", "oracle", "relativity"),
     lambda a, k, r: {"split": int(len(r.blocks) >= 2)}),
    ("distinguish", "decide", ("cli", "simulate"), lambda a, k, r: _trace_shape(r)),
    ("distinguish", "stuck_certificate", ("distinguish", "oracle"), None),
    ("distinguish", "verdict_to_json", ("cli",), None),
    ("simulate", "parse_sim_protocol", ("cli",), None),
    ("simulate", "run_protocol", ("cli",),
     lambda a, k, r: {"instruments": _instruments(a[1]),
                      "branch_records": sum(len(b) for b in r.branches.values())}),
    ("simulate", "report_to_json", ("cli",), None),
    ("oracle", "exhaustive_decide", ("cli",), None),
    ("oracle", "enumerate_valid_partitions", ("oracle",), None),
)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request = 0
        self._stack: list[int] = []
        self._paused = 0.0

    def now(self) -> float:
        """Clock that excludes the time spent computing counters."""
        return time.perf_counter() - self._paused

    def wrap(self, name: str, layer: str, fn: Callable, counter: Counter | None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "request": self.request, "name": name, "layer": layer}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.now()
                self._stack.pop()
            if counter is not None:
                began = time.perf_counter()
                span["counts"] = counter(args, kwargs, result)
                self._paused += time.perf_counter() - began
            return result

        return traced

    def install(self) -> dict[str, Callable]:
        """Wrap every target in every module that binds it.

        Returns the wrapped functions by span name, for a client that calls
        the library directly.
        """
        wrapped: dict[str, Callable] = {}
        for layer, func, binders, counter in TARGETS:
            name = f"{layer}.{func}"
            original = getattr(sys.modules[f"loccdist.{layer}"], func)
            wrapped[name] = self.wrap(name, layer, original, counter)
            for binder in binders:
                module = sys.modules[f"loccdist.{binder}"]
                if getattr(module, func) is not original:
                    raise RuntimeError(f"loccdist.{binder}.{func} is not {name}")
                setattr(module, func, wrapped[name])
        return wrapped

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def import_layers() -> None:
    """Import every module that TARGETS names, so install can patch them."""
    import loccdist.cli  # noqa: F401  (imports every other layer)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counters, summed over every span of the run."""
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    depth = 0
    for s, mine in zip(spans, own):
        name = s["name"]
        total[name] = total.get(name, 0.0) + s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + mine
        self_by_layer[s["layer"]] = self_by_layer.get(s["layer"], 0.0) + mine
        for key, value in s.get("counts", {}).items():
            if key == "max_depth":
                depth = max(depth, value)
            else:
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    graphs = calls.get("relativity.overlap_graph", 0)
    return {
        "jsonio.parse_s": total.get("jsonio.parse_json", 0.0),
        "jsonio.parse_bytes": counts.get("jsonio.parse_json.bytes", 0),
        "jsonio.emit_s": total.get("jsonio.canonical_dumps", 0.0),
        "jsonio.emit_bytes": counts.get("jsonio.canonical_dumps.bytes", 0),
        "ensemble.parse_s": self_by_name.get("ensemble.parse_ensemble", 0.0),
        "ensemble.validate_s": total.get("ensemble.validate", 0.0),
        "ensemble.validate_pairs": counts.get("ensemble.validate.pairs", 0),
        "relativity.overlap_graph_s": total.get("relativity.overlap_graph", 0.0),
        "relativity.overlap_graph_calls": graphs,
        "relativity.graph_pairs": counts.get("relativity.overlap_graph.pairs", 0),
        "relativity.components_s": total.get("relativity.components", 0.0),
        "relativity.components_calls": calls.get("relativity.components", 0),
        "relativity.split_yield": (
            counts.get("relativity.components.split", 0) / graphs if graphs else 0.0
        ),
        "distinguish.decide_s": total.get("distinguish.decide", 0.0),
        "distinguish.search_self_s": self_by_name.get("distinguish.decide", 0.0),
        "distinguish.certificate_s": total.get("distinguish.stuck_certificate", 0.0),
        "distinguish.verdict_json_s": total.get("distinguish.verdict_to_json", 0.0),
        "distinguish.splits": counts.get("distinguish.decide.splits", 0),
        "distinguish.stuck_blocks": counts.get("distinguish.decide.stuck_blocks", 0),
        "distinguish.max_depth": depth,
        "simulate.parse_protocol_s": self_by_name.get("simulate.parse_sim_protocol", 0.0),
        "simulate.run_s": total.get("simulate.run_protocol", 0.0),
        "simulate.report_json_s": total.get("simulate.report_to_json", 0.0),
        "simulate.instruments": counts.get("simulate.run_protocol.instruments", 0),
        "simulate.branch_records": counts.get("simulate.run_protocol.branch_records", 0),
        "oracle.exhaustive_s": self_by_layer.get("oracle", 0.0),
        "oracle.partition_families": calls.get("oracle.enumerate_valid_partitions", 0),
        "oracle.cases": calls.get("oracle.exhaustive_decide", 0),
    }


def self_time_sum(spans: list[dict]) -> float:
    return math.fsum(self_times(spans))
