"""In-memory spans and counters for the traced benchmark run.

A span is one call into a layer's public function, recorded from the
benchmark's side of the call: name, start and end (``perf_counter_ns``), the
span that was open when it started, and free-form attributes.  Spans stay in
memory until ``Tracer.write`` dumps them as JSON lines at the end of a run.

``NullTracer`` has the same interface and records nothing; running the same
pipeline under both gives the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter_ns


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.record = [len(tracer.spans), None, name, 0, 0, attrs]

    def __enter__(self) -> dict:
        tracer = self.tracer
        rec = self.record
        if tracer._open:
            rec[1] = tracer._open[-1][0]
        tracer._open.append(rec)
        tracer.spans.append(rec)
        rec[3] = perf_counter_ns()
        return rec[5]

    def __exit__(self, *exc) -> None:
        self.record[4] = perf_counter_ns()
        self.tracer._open.pop()


class _ElementCounter:
    """Counts instances of a class constructed while the block runs, by
    wrapping its ``__init__``; the original is restored on exit."""

    def __init__(self, tracer: "Tracer", cls: type) -> None:
        self.tracer = tracer
        self.cls = cls
        self.original = None

    def __enter__(self) -> None:
        original = self.cls.__init__
        tracer = self.tracer

        def counted(obj, *args, **kwargs):
            tracer.elements_built += 1
            original(obj, *args, **kwargs)

        self.original = original
        self.cls.__init__ = counted

    def __exit__(self, *exc) -> None:
        self.cls.__init__ = self.original


class Tracer:
    """Records spans and an element-construction count."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[list] = []
        self.elements_built = 0
        self.scale = 1.0  # multiplies the times mean_us, median_us and total_us report

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def counting(self, cls: type) -> _ElementCounter:
        return _ElementCounter(self, cls)

    def durations_ns(self, name: str, **match) -> list[int]:
        """Durations of the spans called ``name`` whose attributes include ``match``."""
        return [
            rec[4] - rec[3]
            for rec in self.spans
            if rec[2] == name and all(rec[5].get(k) == v for k, v in match.items())
        ]

    def mean_us(self, name: str, **match) -> float:
        ns = self.durations_ns(name, **match)
        return self.scale * sum(ns) / len(ns) / 1000 if ns else 0.0

    def median_us(self, name: str, **match) -> float:
        ns = self.durations_ns(name, **match)
        return self.scale * statistics.median(ns) / 1000 if ns else 0.0

    def total_us(self, name: str, **match) -> float:
        return self.scale * sum(self.durations_ns(name, **match)) / 1000

    def write(self, path: Path, trace_id: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "trace": trace_id,
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """Same interface as Tracer; records nothing."""

    _SPAN = _NullSpan()

    def __init__(self) -> None:
        self.elements_built = 0

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._SPAN

    def counting(self, cls: type) -> _NullSpan:
        return self._SPAN
