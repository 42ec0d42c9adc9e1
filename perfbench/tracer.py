"""Spans recorded from outside kerndep, around its public functions.

kerndep's modules call each other through module globals (``hsic`` calls
``sq_dist_matrix`` through its own ``from .kernels import``), so a wrapper is
bound in place of the original in every kerndep namespace that holds it, and
put back afterwards. Spans stay in memory until the run ends.

Each thread keeps its own span stack. ``evaluate`` fans episodes out to a
thread pool; a span opened in a worker thread with an empty stack takes the
enclosing ``evaluate`` span as its parent. A span's self time is its duration
minus the union of the intervals its children cover, which stays correct when
the children ran at once in several threads.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

TRACED = {
    "kernels": ("sq_dist_matrix", "kernel_from_sq_dists", "label_kernel_matrix",
                "median_sq_distance", "cosine_gram"),
    "hsic": ("select_bandwidth", "hsic_unbiased", "hsic_variance"),
    "adapt": ("run_episode", "dependence_loss", "dependence_loss_gradient", "ncc_loss",
              "ncc_loss_gradient", "adadelta_step", "transform", "ncc_predict"),
    "tasks": ("load_embeddings", "sample_task"),
    "evaluation": ("evaluate",),
    "cli": ("main",),
}
FAN_OUT = "evaluation.evaluate"
SELECT = "hsic.select_bandwidth"


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    command: int


@dataclass(frozen=True)
class Selection:
    """HSIC diagnostics read from one BandwidthSelection."""

    command: int
    clamped_rows: int
    edge: bool


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.selections: list[Selection] = []
        self.missing: list[str] = []
        self.command = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._fan_out: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._fan_out
            span_id = next(self._ids)
            command = self.command
            stack.append(span_id)
            if name == FAN_OUT:
                outer, self._fan_out = self._fan_out, span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == FAN_OUT:
                    self._fan_out = outer
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), command))
            if name == SELECT:
                sigmas = [row.sigma for row in result.table]
                self.selections.append(Selection(
                    command,
                    sum(1 for row in result.table if row.raw_variance <= 0.0),
                    result.sigma in (min(sigmas), max(sigmas)),
                ))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Bind wrappers in every loaded kerndep namespace; restore on exit."""
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name == "kerndep" or name.startswith("kerndep.")]
        undo = []
        self.missing = []
        for module_name, names in TRACED.items():
            module = sys.modules[f"kerndep.{module_name}"]
            for fn_name in names:
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{fn_name}")
                    continue
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for ns in namespaces:
                    if vars(ns).get(fn_name) is original:
                        setattr(ns, fn_name, wrapper)
                        undo.append((ns, fn_name, original))
        try:
            yield self
        finally:
            for ns, fn_name, original in reversed(undo):
                setattr(ns, fn_name, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def _covered(span: Span, children: list[Span]) -> float:
    return union_length([(max(c.start, span.start), min(c.end, span.end))
                         for c in children if c.end > span.start and c.start < span.end])


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of the children's intervals, clipped to the span."""
    by_id = {s.span_id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)
    return {s.span_id: (s.end - s.start) - _covered(s, children[s.span_id]) for s in spans}


def thread_accounting(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per thread: ``self_s``, the sum of its spans' self times, and
    ``waited_s``, the time its spans were covered by children running in
    other threads. For the thread that ran the command the two add up to the
    duration of its root span."""
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    cross = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread != s.thread:
            cross[parent.span_id].append(s)
    out: dict[int, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.thread, {"self_s": 0.0, "waited_s": 0.0})
        row["self_s"] += selfs[s.span_id]
        row["waited_s"] += _covered(s, cross[s.span_id])
    return out
