"""In-memory spans recorded by the benchmark around calls into each layer.

A span is (name, start, end, parent, run): ``run`` groups the spans of one
unit of work (the index set-up, one query, the kernel breakdown), so a
query's children can be told apart from the next query's. Spans are kept
in memory and written out once, when the benchmark ends. A disabled tracer
records nothing, so the untraced run executes the same code path.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._run = "main"

    @contextmanager
    def run(self, run_id: str):
        """Tag every span opened inside with ``run_id``."""
        outer, self._run = self._run, run_id
        try:
            yield
        finally:
            self._run = outer

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self._run)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the time its children cover.

        Children of one span run one after another (one thread), so their
        durations add up without overlap.
        """
        out = {s.id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def self_by_name(self) -> dict[str, float]:
        """Self time summed over all spans of each name."""
        own = self.self_seconds()
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + own[s.id]
        return out

    def as_records(self) -> list[dict]:
        own = self.self_seconds()
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "run": s.run,
                "self_s": own[s.id],
            }
            for s in self.spans
        ]
