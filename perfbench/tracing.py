"""Spans recorded by the benchmark around its own calls into qforge.

The benchmark times each layer from outside: every call it makes into a
public function of a qforge module runs inside a span named after that
module.  Nothing inside the package is edited or re-bound.  Untraced runs
use ``NO_TRACE``, whose spans cost one ``nullcontext``.
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter

# Complete spines whose build time is reported on its own, by spine size p.
COMPLETE_SPINE_SIZES = (12, 20, 28)


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    A span is a dict with the layer (a qforge module name), a label, start
    and end on ``clock`` (``perf_counter`` unless given), the index of the
    enclosing span, and whatever tags the caller attaches while it is open.
    """

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, layer: str, label: str = ""):
        record = {
            "layer": layer,
            "label": label,
            "parent": self._open[-1] if self._open else None,
            "start": self.clock(),
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


class _NoTrace:
    """Stand-in for a Tracer when tracing is off: records nothing."""

    def span(self, layer: str, label: str = ""):
        return nullcontext({})

    def count(self, name: str, amount: int = 1) -> None:
        pass


NO_TRACE = _NoTrace()


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _busy(spans: list[dict], layer: str, label: str | None = None) -> float:
    return sum(
        _duration(s)
        for s in spans
        if s["layer"] == layer and (label is None or s["label"] == label)
    )


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 with fewer than two
    points."""
    if len(points) < 2:
        return 0.0
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    return statistics.linear_regression(xs, ys).slope


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced run.

    A layer the workload does not call reports zero work and zero time.
    """
    spans, counts = tracer.spans, tracer.counts
    m: dict[str, tuple[float, str]] = {}

    formulas_s = _busy(spans, "formulas")
    m["formulas.calls"] = (counts.get("formulas.calls", 0), "count")
    m["formulas.busy_s"] = (formulas_s, "s")
    m["formulas.genera_per_s"] = (_rate(counts.get("formulas.calls", 0), formulas_s), "1/s")

    m["graph.busy_s"] = (_busy(spans, "graph"), "s")

    m["embedding.load_s"] = (_busy(spans, "embedding", "load"), "s")
    m["embedding.validate_s"] = (_busy(spans, "embedding", "validate"), "s")
    m["embedding.save_s"] = (_busy(spans, "embedding", "save"), "s")
    k28 = [
        s for s in spans
        if s["layer"] == "embedding" and s["label"] == "validate" and s.get("document") == "K28"
    ]
    m["embedding.darts_per_s"] = (
        _rate(sum(s["darts"] for s in k28), sum(_duration(s) for s in k28)),
        "1/s",
    )

    spinal_s = _busy(spans, "spinal")
    steps = counts.get("spinal.steps", 0)
    m["spinal.busy_s"] = (spinal_s, "s")
    m["spinal.steps"] = (steps, "count")
    m["spinal.step_ms"] = (1000 * spinal_s / steps if steps else 0.0, "ms")
    m["spinal.backtracks"] = (counts.get("spinal.backtracks", 0), "count")
    points = []
    for p in COMPLETE_SPINE_SIZES:
        seconds = _busy(spans, "spinal", f"K{p}")
        m[f"spinal.k{p}_s"] = (seconds, "s")
        if seconds > 0:
            points.append((p, seconds))
    m["spinal.p_exponent"] = (_slope(points), "1")

    searches = [s for s in spans if s["layer"] == "oracle"]
    decided = [s for s in searches if "nodes" in s]
    nodes = [s["nodes"] for s in decided]
    m["oracle.busy_s"] = (_busy(spans, "oracle"), "s")
    m["oracle.nodes"] = (sum(nodes), "count")
    m["oracle.nodes_per_s"] = (_rate(sum(nodes), sum(_duration(s) for s in decided)), "1/s")
    m["oracle.nodes_to_verdict_p50"] = (statistics.median(nodes) if nodes else 0, "count")
    m["oracle.decided"] = (sum(1 for s in searches if s.get("verdict")), "count")
    m["oracle.inconclusive"] = (sum(1 for s in searches if s.get("verdict") is False), "count")

    cli_s = _busy(spans, "cli")
    replay_s = sum(_duration(s) for s in spans if s.get("replay"))
    m["cli.busy_s"] = (cli_s, "s")
    m["cli.verify_s"] = (_busy(spans, "cli", "verify"), "s")
    m["cli.minorder_s"] = (_busy(spans, "cli", "minorder"), "s")
    m["cli.self_s"] = (cli_s - replay_s if cli_s else 0.0, "s")

    m["trace_overhead_ratio"] = (overhead_ratio, "ratio")
    return m
