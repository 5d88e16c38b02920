"""Pass-level tracing primitives: spans, events, typed counters.

The pipeline, the hot transformation passes and the interpreter are all
instrumented against the tiny protocol defined here.  Two
implementations exist:

* :data:`NULL_TRACER` -- the default everywhere.  Every method is a
  no-op returning a shared singleton, so uninstrumented runs pay only a
  pointer comparison (``tracer.enabled`` is a class attribute, no
  dictionaries are touched, no records allocated).  Hot loops must
  guard any *argument construction* behind ``if tracer.enabled``.
* :class:`Tracer` -- records everything:

  - **spans**: nested timed regions (``with tracer.span("phase:ssa")``)
    carrying a perf-counter start/duration in nanoseconds plus a
    wall-clock start, their nesting depth and parent;
  - **events**: point-in-time decision records
    (``tracer.event("coalesce.merge", block="head")``);
  - **counters**: named monotonically increasing integers counting
    *decisions* (``tracer.count("coalesce.pins_applied")``, or a
    pre-bound :meth:`Tracer.counter` handle for hot paths) -- a cache
    hit replays them and the stats digest covers them;
  - **environment**: integers describing the run's surroundings rather
    than its decisions (``tracer.note("interp.code_cache.hits")``:
    process-global cache heat, compile time), kept apart so that
    ``counters`` needs no filtering.

A single sequence number is shared by spans and events, so the merged
stream is monotonically ordered and a span's position relative to the
decisions made inside it is exact.  The tracer is deliberately
single-threaded, matching the pipeline; nothing here locks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class SpanRecord:
    """One completed (or still-open) timed region."""

    name: str
    seq: int                     # shared monotonic order with events
    depth: int                   # nesting depth, 0 = top level
    parent: Optional[int]        # seq of the enclosing span, if any
    start_ns: int                # perf-counter ns relative to the epoch
    wall_start: float            # epoch seconds (time.time) at start
    duration_ns: int = -1        # -1 while the span is still open
    attrs: dict = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.duration_ns >= 0


@dataclass
class EventRecord:
    """One point-in-time decision record."""

    name: str
    seq: int
    ts_ns: int                   # perf-counter ns relative to the epoch
    span: Optional[int]          # seq of the enclosing span, if any
    attrs: dict = field(default_factory=dict)


class _NullSpan:
    """Reusable no-op context manager yielded by the null tracer."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


class _NullCounter:
    __slots__ = ()

    def add(self, n: int = 1) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_COUNTER = _NullCounter()


class NullTracer:
    """The zero-overhead default tracer.

    Shared, stateless and safe to use from anywhere; prefer the
    :data:`NULL_TRACER` singleton over instantiating this class.
    """

    enabled = False
    __slots__ = ()

    def span(self, name: str, **attrs):
        return _NULL_SPAN

    def event(self, name: str, **attrs):
        return None

    def count(self, name: str, n: int = 1) -> None:
        return None

    def counter(self, name: str):
        return _NULL_COUNTER

    def note(self, name: str, n: int = 1) -> None:
        return None


NULL_TRACER = NullTracer()


def resolve(tracer) -> NullTracer:
    """Normalize an optional tracer argument: ``None`` -> the null
    singleton, anything else passes through unchanged."""
    return NULL_TRACER if tracer is None else tracer


class _OpenSpan:
    """Context manager for one live span; created by :meth:`Tracer.span`.

    The record is allocated on ``__enter__`` (so an unused handle costs
    nothing) and appended to ``tracer.spans`` immediately -- spans are
    therefore listed in *start* order, with ``duration_ns`` filled in on
    exit.  ``with tracer.span(...) as rec:`` yields the record, letting
    callers read its timing right after the block.
    """

    __slots__ = ("_tracer", "_name", "_attrs", "record")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.record: Optional[SpanRecord] = None

    def __enter__(self) -> SpanRecord:
        tracer = self._tracer
        parent = tracer._stack[-1].seq if tracer._stack else None
        start_ns = tracer._now()
        record = SpanRecord(
            name=self._name, seq=tracer._next_seq(),
            depth=len(tracer._stack), parent=parent, start_ns=start_ns,
            wall_start=tracer.epoch_wall + start_ns / 1e9,
            attrs=self._attrs)
        self.record = record
        tracer.spans.append(record)
        tracer._stack.append(record)
        return record

    def __exit__(self, exc_type, exc, tb):
        tracer = self._tracer
        record = self.record
        if not tracer._stack or tracer._stack[-1] is not record:
            raise RuntimeError(
                f"span {record.name!r} closed out of order")
        tracer._stack.pop()
        record.duration_ns = tracer._now() - record.start_ns
        return False


class _BoundCounter:
    """A pre-resolved counter handle for hot paths (one dict lookup
    saved per increment, and no string re-hashing in tight loops)."""

    __slots__ = ("_counters", "name")

    def __init__(self, counters: dict, name: str) -> None:
        self._counters = counters
        self.name = name

    def add(self, n: int = 1) -> None:
        counters = self._counters
        counters[self.name] = counters.get(self.name, 0) + n


class Tracer(NullTracer):
    """The recording tracer.  See the module docstring for the model."""

    enabled = True
    __slots__ = ("spans", "events", "counters", "environment", "epoch_ns",
                 "epoch_wall", "_seq", "_stack")

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self.counters: dict[str, int] = {}
        self.environment: dict[str, int] = {}
        self.epoch_ns = time.perf_counter_ns()
        self.epoch_wall = time.time()
        self._seq = 0
        self._stack: list[SpanRecord] = []

    # ------------------------------------------------------------------
    def _now(self) -> int:
        return time.perf_counter_ns() - self.epoch_ns

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq = seq + 1
        return seq

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _OpenSpan:
        return _OpenSpan(self, name, attrs)

    def event(self, name: str, **attrs) -> EventRecord:
        record = EventRecord(
            name=name, seq=self._next_seq(), ts_ns=self._now(),
            span=self._stack[-1].seq if self._stack else None, attrs=attrs)
        self.events.append(record)
        return record

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def counter(self, name: str) -> _BoundCounter:
        return _BoundCounter(self.counters, name)

    def note(self, name: str, n: int = 1) -> None:
        self.environment[name] = self.environment.get(name, 0) + n

    # ------------------------------------------------------------------
    def events_in(self, span: SpanRecord) -> list[EventRecord]:
        """Events whose enclosing span is *span* (direct children only)."""
        return [e for e in self.events if e.span == span.seq]

    def children(self, span: SpanRecord) -> list[SpanRecord]:
        """Spans directly nested inside *span*, in start order."""
        return [s for s in self.spans if s.parent == span.seq]
