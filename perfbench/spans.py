"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: the recorder
replaces a layer's public function with a timing wrapper at the place
where the calling module looks it up (``rcbench.bench.voxelize`` rather
than ``rcbench.expansion.voxelize``), so no program file changes.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at the top

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Nested spans of one thread, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            opened = self.spans[index]
            self.spans[index] = Span(name, opened.start_ns, time.perf_counter_ns(), parent)

    def patch(self, module_name: str, attr: str, span_name: str, observe=None) -> None:
        """Wrap ``module.attr`` in a span; ``observe(args, kwargs, result)``
        runs after the call, outside the span."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(span_name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans) -> list[int]:
    """Per span: its duration minus the part its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start_ns, span.end_ns))
    return [
        span.duration_ns - covered_ns(span.start_ns, span.end_ns, kids)
        for span, kids in zip(spans, children)
    ]


def summarize(spans, names, composite, percentiles) -> dict[str, float]:
    """calls and total_ms for every name; self_ms for spans that have
    children; per-call p50_ms and p90_ms for the names in ``percentiles``."""
    selfs = self_times_ns(spans)
    durations: dict[str, list[int]] = {name: [] for name in names}
    self_sum: dict[str, int] = {name: 0 for name in names}
    for span, own in zip(spans, selfs):
        if span.name in durations:
            durations[span.name].append(span.duration_ns)
            self_sum[span.name] += own
    out: dict[str, float] = {}
    for name in names:
        ds = durations[name]
        out[f"{name}.calls"] = len(ds)
        out[f"{name}.total_ms"] = sum(ds) / 1e6
        if name in composite:
            out[f"{name}.self_ms"] = self_sum[name] / 1e6
        if name in percentiles:
            p50, p90 = deciles_ms(ds)
            out[f"{name}.p50_ms"] = p50
            out[f"{name}.p90_ms"] = p90
    return out


def deciles_ms(durations_ns) -> tuple[float, float]:
    """Median and 90th percentile in ms; 0 when nothing was recorded."""
    if not durations_ns:
        return 0.0, 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e6, durations_ns[0] / 1e6
    q = statistics.quantiles(durations_ns, n=10, method="inclusive")
    return q[4] / 1e6, q[8] / 1e6


def total_ns(spans, name: str) -> int:
    return sum(s.duration_ns for s in spans if s.name == name)
