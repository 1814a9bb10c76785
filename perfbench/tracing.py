"""In-memory spans and counters recorded from the benchmark's own code.

A span has a name, a start and end (``perf_counter_ns``), the id of the
span that caused it and the id of the request it belongs to.  Spans and
counts stay in memory and are written out once, when the run ends.  The
untraced run uses ``NULL_TRACER``, whose methods do nothing, so the
end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    request: int
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "request": self.request,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Records spans and per-pass counts for one traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[Span] = []
        self._request = 0

    def begin_request(self, request: int) -> None:
        self._request = request

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Time the body as a child of ``parent``, or of the innermost open span.

        A child belongs to its parent's request, also when it is recorded
        after the parent has ended (the building-block replays).
        """
        if parent is None and self._stack:
            parent = self._stack[-1].span_id
        request = self.spans[parent - 1].request if parent else self._request
        sp = Span(len(self.spans) + 1, parent, request, name, 0, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start_ns = time.perf_counter_ns()
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class _NullTracer:
    enabled = False
    _null = contextlib.nullcontext()

    def begin_request(self, request: int) -> None:
        pass

    def span(self, name: str, parent: int | None = None, **attrs):
        return self._null

    def count(self, name: str, value: int) -> None:
        pass


NULL_TRACER = _NullTracer()
