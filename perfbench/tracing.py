"""Spans and counters recorded around calls into liftcal's layers.

A span is a name, a start and an end time, and the span that was open when it
started.  Spans are kept in memory for one pass and summarised when the pass
ends.  A tracer that is switched off hands out one shared no-op span and drops
counts, so the same request code runs with tracing on and off.
"""

from __future__ import annotations

import time


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        parent = tracer.stack[-1] if tracer.stack else None
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0.0, 0.0, parent])

    def __enter__(self):
        self.tracer.stack.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Spans and counters of one pass; inert when `enabled` is false."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.counts = {}

    def span(self, name):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def count(self, name, amount):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def summary(self):
        """Total and self seconds per span name, summed over the pass.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        total = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent is not None:
                child[parent] += end - start
        own = {}
        for (name, start, end, _), kids in zip(self.spans, child):
            own[name] = own.get(name, 0.0) + (end - start - kids)
        return total, own
