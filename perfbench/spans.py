"""In-memory spans at the package's layer boundaries.

A span records its name, start, end, parent span and chain id.  The
benchmark opens spans around its own calls into the package, and while a
traced pass runs it also wraps a few module-level functions that the
package calls internally (``validate`` inside the sweeps,
``cycle_hierarchy`` and ``class_hierarchy`` inside report building, the
generator and eigensolver inside
``compare_spectrum``, ``simulate`` inside ``simulate_ensemble`` and the
tie-tolerant sweep inside ``kinesin_sweep``).  The wrappers are removed
when the pass ends; untraced passes run the package untouched.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """Collects spans and counters; disabled, every call is a plain call."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []  # [name, start, end, parent, chain]
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self.chain = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, _clock(), None, parent, self.chain]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = _clock()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        if self.enabled:
            self.counts[name] += value

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self, result)
            return result

        return traced

    @contextmanager
    def active(self, patches):
        """Enable tracing and install ``(module, attr, name, counter)`` wrappers.

        An attribute the module no longer has is skipped, so its layer reads 0.
        """
        saved = []
        try:
            for module, attr, name, counter in patches:
                original = getattr(module, attr, None)
                if original is None:
                    continue  # the package no longer calls it there: no spans
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter))
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self) -> tuple:
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts

    @staticmethod
    def totals(spans, seconds=lambda start, end, name: end - start) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        ``seconds(start, end, name)`` measures a span.  Self time is the
        share of a span's clock time that no child covers, in the span's
        own measure.
        """
        child_clock = defaultdict(float)
        for _name, start, end, parent, _chain in spans:
            if parent is not None:
                child_clock[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, _parent, _chain) in enumerate(spans):
            measured = seconds(start, end, name)
            clock_time = end - start
            row = out[name]
            row[0] += 1
            row[1] += measured
            if clock_time > 0:
                row[2] += measured * (clock_time - child_clock[idx]) / clock_time
        return dict(out)

    @staticmethod
    def totals_by(spans, key, seconds=lambda start, end, name: end - start) -> dict:
        """Inclusive seconds per ``(name, key(chain))``."""
        out: dict = defaultdict(float)
        for name, start, end, _parent, chain in spans:
            out[(name, key(chain))] += seconds(start, end, name)
        return dict(out)

    @staticmethod
    def dump(spans, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, chain in spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "chain": chain}
                    )
                    + "\n"
                )
