"""Tests for the span-tracing primitives (repro.obs.tracing)."""

import pytest

from repro.obs import tracing
from repro.obs.tracing import NULL_TRACER, NullTracer, Span, Tracer
from tests.reference import event_count


class TestSpanTree:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        with tracer.span("root", kind="query"):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        root = tracer.last_trace
        assert root.name == "root"
        assert root.attrs == {"kind": "query"}
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert root.children[0].children[0].name == "grandchild"

    def test_durations_are_measured_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.last_trace
        inner = outer.children[0]
        assert outer.duration >= inner.duration >= 0.0
        assert inner.start >= outer.start

    def test_top_level_spans_become_separate_traces(self):
        tracer = Tracer()
        roots = []
        for i in range(3):
            with tracer.span("query", n=i):
                pass
            roots.append(tracer.last_trace)
        # Each top-level span is a root of its own, never another's child.
        assert [t.attrs["n"] for t in roots] == [0, 1, 2]
        assert all(not t.children for t in roots)

    def test_set_updates_attributes(self):
        tracer = Tracer()
        with tracer.span("q") as span:
            span.set(results=7, candidates=20)
        assert tracer.last_trace.attrs == {"results": 7, "candidates": 20}

    def test_exception_unwinds_the_stack(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer._stack == []
        assert tracer.last_trace.name == "outer"
        # A new span after the exception starts a fresh trace.
        with tracer.span("next"):
            pass
        assert tracer.last_trace.name == "next"
        assert not tracer.last_trace.children


class TestAddSpan:
    def test_completed_span_attaches_to_current(self):
        tracer = Tracer()
        with tracer.span("root"):
            tracer.add_span("round", 0.25, frontier=3)
        child = tracer.last_trace.children[0]
        assert child.name == "round"
        assert child.duration == 0.25
        assert child.attrs == {"frontier": 3}

    def test_backdated_start_when_omitted(self):
        tracer = Tracer()
        with tracer.span("root"):
            span = tracer.add_span("work", 0.5)
            now = tracer._now()
        # Backdated: the span ends (start + duration) at record time.
        assert span.start + span.duration == pytest.approx(now, abs=0.05)
        assert span.duration == 0.5

    def test_explicit_start_is_relative_to_origin(self):
        import time

        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer.span("root"):
            span = tracer.add_span("work", 0.001, start=t0)
        assert 0.0 <= span.start <= tracer._now()


class TestEvents:
    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        with tracer.span("root"):
            tracer.event("prune", edge=4)
            with tracer.span("child"):
                tracer.event("hit")
        root = tracer.last_trace
        assert event_count(root, "prune") == 1
        assert event_count(root.children[0], "hit") == 1
        name, ts, attrs = root.events[0]
        assert (name, attrs) == ("prune", {"edge": 4})
        assert ts >= 0.0

    def test_event_without_open_span_is_dropped(self):
        tracer = Tracer()
        tracer.event("orphan")
        assert tracer.last_trace is None

    def test_max_events_bound_with_drop_counter(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_EVENTS", 2)
        tracer = Tracer()
        with tracer.span("root") as span:
            for _ in range(5):
                tracer.event("e")
        assert len(span.events) == 2
        assert span.dropped_events == 3
        assert "dropped_events" in span.to_dict()


class TestBounds:
    def test_max_children_bound(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_CHILDREN", 2)
        tracer = Tracer()
        with tracer.span("root") as root:
            for i in range(4):
                tracer.add_span("c", 0.0, n=i)
        assert len(root.children) == 2
        assert root.dropped_children == 2


class TestIntrospection:
    def _tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("x"):
                tracer.add_span("leaf", 0.0, n=1)
            tracer.add_span("leaf", 0.0, n=2)
        return tracer.last_trace

    def test_to_dict_round_trips_structure(self):
        import json

        root = self._tree()
        doc = root.to_dict()
        json.dumps(doc)  # JSON-able
        assert doc["name"] == "root"
        assert [c["name"] for c in doc["children"]] == ["x", "leaf"]


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        with NULL_TRACER.span("q", a=1) as span:
            span.set(b=2)
            span.event("e")
        NULL_TRACER.event("x")
        NULL_TRACER.add_span("y", 1.0)
        assert NULL_TRACER.last_trace is None

    def test_no_allocation_on_disabled_path(self):
        """The structural no-overhead property: every span/add_span on
        the null tracer returns the same shared no-op object, so the
        disabled path allocates nothing per call."""
        a = NULL_TRACER.span("one", attr=1)
        b = NULL_TRACER.span("two")
        c = NULL_TRACER.add_span("three", 0.5)
        assert a is b is c

    def test_instrumentation_guard_pattern(self):
        """Hot paths guard attribute-dict construction on `enabled`."""
        tracer = NULL_TRACER
        built = []
        if tracer.enabled:  # the guard every hot path uses
            built.append({"expensive": "dict"})
        assert built == []


class TestSpanStandalone:
    def test_span_without_tracer_records_events(self):
        span = Span(None, "detached", {})
        span.event("e", k=1)
        assert event_count(span, "e") == 1
