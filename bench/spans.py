"""In-memory spans for the traced benchmark run.

A span wraps one call from the benchmark into one layer of the package;
its name is ``<layer>.<stage>``, where the layer is a module of the
package (``spinors``, ``tessellation``, ``quadruples``, ``disks``,
``svg``, ``enumeration``, ``cli``).  A request's root span is named
``<workload>.request``; every span opened inside it records the
innermost open span as its parent, so following parents from any span
leads to the root that identifies its request.  Spans stay in memory
until ``summary`` folds them at the end of the run.

``NULL`` is the tracer of untraced runs: its spans do nothing.
"""

from __future__ import annotations

from time import perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


class _NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


NULL = _NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "index", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.parent = tracer.open[-1] if tracer.open else -1
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer.open.append(self.index)
        self.start = perf_counter()

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tracer = self.tracer
        tracer.open.pop()
        tracer.spans[self.index] = (self.name, self.start, end, self.parent)


class Tracer:
    """Records ``(name, start, end, parent_index)`` for every span."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list = []
        self.open: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def summary(self) -> dict:
        """Per span name: call count, total time and self time, plus the
        total time of root spans (the requests).

        Self time is a span's duration minus the time its direct
        children cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: dict[str, dict] = {}
        roots = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            entry = names.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
            if parent < 0:
                roots += duration
        return {"names": names, "requests_s": roots}
