"""Per-query span tracing: a hierarchical view inside one query.

The metrics layer (:mod:`repro.obs.metrics`) answers *how much* — flat
counters and stage histograms over a whole workload.  The paper's
performance arguments, however, are about decisions *inside* a single
query: which edges the signature test pruned (§3.1/§3.3), how far the
INE frontier travelled before the λ-driven bound of §4.3 terminated the
expansion, which pairwise distances were answered from cache.  This
module answers *why* at that granularity.

A :class:`Tracer` collects one span tree per query:

* :meth:`Tracer.span` opens a span — a named, nestable interval with
  start time, duration and free-form attributes.  Spans opened while
  another span is active become its children; a span opened at the top
  level is the query's root (:attr:`Tracer.last_trace`).
* :meth:`Tracer.add_span` records an already-measured interval as a
  *completed* child of the current span.  Hot loops that are
  generators (the INE expansion, COM's incremental consumption) use
  this form so no span stays open across a ``yield``.
* :meth:`Tracer.event` annotates the current span with a point-in-time
  event ("this edge was pruned", "this pair hit the cache").

Both capacities are bounded (``max_children``, ``max_events``) with
drop counters, so tracing a long query cannot grow memory without
bound.

The disabled path is :data:`NULL_TRACER` — a singleton whose ``span``
returns one shared no-op context manager and whose ``event`` is a
``pass``.  Every instrumented hot path guards on ``tracer.enabled``
before building attribute dicts, so a database without tracing pays one
attribute read per check and allocates nothing.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]

#: One point-in-time annotation: (name, seconds-since-tracer-origin, attrs).
SpanEvent = Tuple[str, float, Dict[str, Any]]


class Span:
    """One named interval in a query's execution.

    A span is also its own context manager: entering starts the clock
    and pushes it on the owning tracer's stack, exiting records the
    duration and pops it.  ``set`` updates attributes while the span is
    open (or after — EXPLAIN summaries are attached post-hoc), and
    ``event`` appends point annotations subject to the tracer's
    ``max_events`` bound.
    """

    __slots__ = (
        "name", "attrs", "start", "duration", "children", "events",
        "dropped_children", "dropped_events", "_tracer",
    )

    def __init__(self, tracer: Optional["Tracer"], name: str,
                 attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        #: Seconds since the tracer's origin; filled on __enter__ (or by
        #: Tracer.add_span for completed spans).
        self.start = 0.0
        self.duration = 0.0
        self.children: List["Span"] = []
        self.events: List[SpanEvent] = []
        self.dropped_children = 0
        self.dropped_events = 0
        self._tracer = tracer

    # -- recording ----------------------------------------------------
    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> None:
        tracer = self._tracer
        limit = tracer.max_events if tracer is not None else 1024
        if len(self.events) >= limit:
            self.dropped_events += 1
            return
        now = tracer._now() if tracer is not None else 0.0
        self.events.append((name, now, attrs))

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, *exc) -> None:
        self.duration = self._tracer._now() - self.start
        self._tracer._pop(self)

    # -- introspection (EXPLAIN, slow-query records) -----------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form of the subtree (debugging, artifacts)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }
        if self.events:
            out["events"] = [
                {"name": n, "ts": t, "attrs": a} for n, t, a in self.events
            ]
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        if self.dropped_children:
            out["dropped_children"] = self.dropped_children
        if self.dropped_events:
            out["dropped_events"] = self.dropped_events
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output.

        Used by the slow-query log renderer (``repro slowlog``) to turn
        persisted JSON records back into trees that
        :func:`repro.obs.explain.render_span_tree` can narrate.
        """
        span = cls(None, str(data.get("name", "?")),
                   dict(data.get("attrs", {})))
        span.start = float(data.get("start", 0.0))
        span.duration = float(data.get("duration", 0.0))
        span.events = [
            (ev.get("name", "?"), float(ev.get("ts", 0.0)),
             dict(ev.get("attrs", {})))
            for ev in data.get("events", ())
        ]
        span.children = [cls.from_dict(c) for c in data.get("children", ())]
        span.dropped_children = int(data.get("dropped_children", 0))
        span.dropped_events = int(data.get("dropped_events", 0))
        return span

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"Span({self.name}, dur={self.duration * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


class Tracer:
    """Collects the span tree of one query.

    A tracer is a span *stack* and is never shared between threads or
    queries: when tracing is on, each
    :class:`~repro.engine.context.ExecutionContext` builds its own, the
    query's entry point opens the root span on it, and the finished
    root rides the query's event (``QueryEvent.trace``).
    :attr:`last_trace` is the most recent top-level span.
    """

    enabled = True

    def __init__(
        self, max_children: int = 512, max_events: int = 1024
    ) -> None:
        self.max_children = max_children
        self.max_events = max_events
        self.last_trace: Optional[Span] = None
        self._stack: List[Span] = []
        self._origin = time.perf_counter()

    # -- time ---------------------------------------------------------
    def _now(self) -> float:
        """Seconds since this tracer was created (monotonic)."""
        return time.perf_counter() - self._origin

    # -- span lifecycle -----------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """A new span to be used as a context manager."""
        return Span(self, name, attrs)

    def _push(self, span: Span) -> None:
        span.start = self._now()
        self._attach(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exceptions unwinding several spans at once: pop up
        # to and including the given span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    def _attach(self, span: Span) -> None:
        if self._stack:
            parent = self._stack[-1]
            if len(parent.children) >= self.max_children:
                parent.dropped_children += 1
            else:
                parent.children.append(span)
        else:
            self.last_trace = span

    def add_span(
        self,
        name: str,
        duration: float,
        start: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Record a completed interval as a child of the current span.

        ``start`` is an absolute :func:`time.perf_counter` reading (the
        caller's own ``t0``); when omitted the span is backdated by
        ``duration`` from now.  Generator-driven hot loops use this so
        no span object is held open across a ``yield`` (closing a
        generator early would otherwise leave the tracer stack torn).
        """
        span = Span(self, name, attrs)
        if start is not None:
            span.start = start - self._origin
        else:
            span.start = self._now() - duration
        span.duration = duration
        self._attach(span)
        return span

    # -- events -------------------------------------------------------
    def event(self, name: str, **attrs: Any) -> None:
        """Annotate the current span; dropped when no span is open."""
        if self._stack:
            self._stack[-1].event(name, **attrs)


class _NullSpan:
    """Shared no-op span: one instance serves every disabled call site."""

    __slots__ = ()
    name = ""
    attrs: Dict[str, Any] = {}
    children: List[Span] = []
    events: List[SpanEvent] = []
    duration = 0.0
    start = 0.0

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``Database`` installs this by default, so untraced queries pay one
    ``tracer.enabled`` attribute read per instrumentation site and
    allocate nothing — the "no measurable overhead" path.
    """

    enabled = False
    last_trace = None
    max_events = 0

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def add_span(self, name: str, duration: float,
                 start: Optional[float] = None, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass


#: The shared disabled tracer.  Identity-comparable: code may test
#: ``tracer is NULL_TRACER`` to see whether tracing is off.
NULL_TRACER = NullTracer()
