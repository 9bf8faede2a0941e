"""In-memory span records and their self-time analysis.

A span is a named interval with the index of its parent span. The child
process keeps spans in a list while the CLI runs and writes them out once
at exit; run.py turns them into per-layer numbers. The layer of a span
is the part of its name before the first dot (``physics.rhs`` belongs to
``physics``), so layers are this repository's module names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Stack of open spans; the span open at entry is the new span's parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, at: float | None = None) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, clock() if at is None else at, parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        index = self._stack.pop()
        if self.spans[index] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.end = clock()

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "attrs": s.attrs}
            for s in self.spans
        ]


def load(rows: list[dict]) -> list[Span]:
    return [Span(r["name"], r["start"], r["end"], r["parent"], r["attrs"]) for r in rows]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part its children cover.

    Children of one parent never overlap (they come from one stack), so
    their durations simply add up.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def total(spans: list[Span], name: str) -> float:
    return sum((s.duration for s in spans if s.name == name), 0.0)


def count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)
