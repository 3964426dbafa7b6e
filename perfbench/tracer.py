"""In-memory spans with parent links, run ids and counters.

Standard library only: the set-up probe imports this module before it
times the import of ``fockdecay.cli``, so it must not pull in numpy.
The benchmark runs on one thread, so spans nest strictly and the children
of one span never overlap.
"""
from __future__ import annotations

import itertools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    run_id: str
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts; nothing is written until ``to_json``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = {}
        self.run_id = ""
        self._stack: list[int] = []
        self._ids = itertools.count()

    def start_run(self, run_id: str) -> None:
        """Every span and count recorded from now on belongs to ``run_id``."""
        if self._stack:
            raise RuntimeError("cannot start a run inside an open span")
        self.run_id = run_id
        self.counts[run_id] = Counter()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.run_id][key] += n

    def set_count(self, key: str, value: int) -> None:
        self.counts[self.run_id][key] = value

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self.run_id, name, start, end))

    def wrap(self, fn, name: str, hook=None):
        """``fn`` inside a span named ``name``.

        ``hook(tracer, args, kwargs, result)`` runs after the span closes,
        inside its own ``bench.hook`` span so that its cost lands in no
        layer, and returns the value handed back to the caller.
        """
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is None:
                return result
            with self.span("bench.hook"):
                return hook(self, args, kwargs, result)

        return traced

    def run_spans(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def self_times(self, run_id: str) -> dict[str, float]:
        """Summed self time per span name: duration minus the children's."""
        spans = self.run_spans(run_id)
        child_time: Counter = Counter()
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: Counter = Counter()
        for s in spans:
            out[s.name] += s.duration - child_time[s.span_id]
        return dict(out)

    def to_json(self) -> dict:
        return {
            "spans": [asdict(s) for s in sorted(self.spans, key=lambda s: s.span_id)],
            "counts": {run: dict(c) for run, c in self.counts.items()},
        }


@contextmanager
def patched(patches):
    """Replace ``(module, attribute, replacement)`` triples, restoring on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, replacement in patches:
            setattr(mod, attr, replacement)
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)
