"""In-memory spans recorded around calls into the library's modules.

A span has a name, a start, an end and the span that was open when it
began.  A name's self time is the sum of its spans' durations minus the
part covered by their child spans.  The untraced run uses NullTracer, so
both runs execute the same job code.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, tag)
        self._open: list[tuple[int, str | None, str]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.spans_under: dict[str, int] = defaultdict(int)  # by root span name

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        """tag labels a root span (the job kind); child spans inherit it."""
        index = len(self.spans)
        parent, root = None, name
        if self._open:
            parent, tag, root = self._open[-1]
        self.spans_under[root] += 1
        self.spans.append(None)
        self._open.append((index, tag, root))
        start = perf_counter()
        try:
            yield
        finally:
            # a tuple of plain values leaves the garbage collector's lists
            self.spans[index] = (name, start, perf_counter(), parent, tag)
            self._open.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[tuple[str | None, str], float]:
        """Self time summed by (tag, span name)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[tuple[str | None, str], float] = defaultdict(float)
        for (name, start, end, _, tag), child in zip(self.spans, covered):
            out[tag, name] += end - start - child
        return out

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)


def span_cost(repeats: int = 20000) -> float:
    """Seconds one empty span adds, measured on a throwaway tracer."""
    tracer = Tracer()
    start = perf_counter()
    for _ in range(repeats):
        with tracer.span("calibration"):
            pass
    return (perf_counter() - start) / repeats


class NullTracer:
    _null = nullcontext()

    def span(self, name: str, tag: str | None = None):
        return self._null

    def count(self, name: str, amount: int) -> None:
        pass
