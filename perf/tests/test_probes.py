import sys
import types
import warnings

import pytest

from perf.probes import REBUILT, ProbeSet, SpanTracker, resolve


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_hand_built_span_tree():
    # facade 0..10 { plan 1..3, execute 3..9 { expansion 4..6, pairwise 6..8 } }
    clock = FakeClock()
    t = SpanTracker(clock)
    bucket = t.new_bucket()

    def span(name, start, end, body=lambda: None):
        clock.now = start
        started = t.begin(name)
        body()
        clock.now = end
        t.end(name, started)

    span("facade", 0, 10, lambda: (
        span("engine.plan", 1, 3),
        span("engine.execute", 3, 9, lambda: (
            span("core.expansion", 4, 6),
            span("network.pairwise", 6, 8),
        )),
    ))
    assert bucket["facade"] == [1, 10.0, 2.0]
    assert bucket["engine.plan"] == [1, 2.0, 2.0]
    assert bucket["engine.execute"] == [1, 6.0, 2.0]
    assert bucket["core.expansion"] == [1, 2.0, 2.0]
    # Self times add up to the root's duration: nothing counted twice.
    assert sum(slot[2] for slot in bucket.values()) == 10.0


def test_nested_span_of_the_same_name_is_counted_once():
    clock = FakeClock()
    t = SpanTracker(clock)
    bucket = t.new_bucket()

    def inner():
        clock.now += 1.0
        return "d"

    wrapped_inner = t.wrap_call("network.pairwise", inner)

    def outer():
        return [wrapped_inner() for _ in range(4)]

    assert t.wrap_call("network.pairwise", outer)() == ["d"] * 4
    assert bucket["network.pairwise"] == [1, 4.0, 4.0]


def test_generator_steps_are_timed_and_closing_reaches_the_source():
    clock = FakeClock()
    t = SpanTracker(clock)
    bucket = t.new_bucket()
    closed = []

    def source():
        try:
            for i in range(5):
                clock.now += 2.0  # producing an item costs 2
                yield i
        finally:
            closed.append(True)

    t.capture = []
    stream = t.wrap_generator("core.expansion", source)()
    first = next(stream)
    clock.now += 100.0  # the consumer's time is not the generator's
    second = next(stream)
    stream.close()
    assert (first, second) == (0, 1)
    assert bucket["core.expansion"] == [2, 4.0, 4.0]
    assert t.capture == [0, 1]
    assert closed == [True]


def test_exhausted_generator_counts_its_last_step():
    clock = FakeClock()
    t = SpanTracker(clock)
    bucket = t.new_bucket()

    def source():
        clock.now += 1.0
        yield "a"
        clock.now += 3.0

    assert list(t.wrap_generator("core.expansion", source)()) == ["a"]
    assert bucket["core.expansion"] == [2, 4.0, 4.0]


def test_rebuild_probe_counts_new_objects_only():
    t = SpanTracker(FakeClock())
    bucket = t.new_bucket()
    built = [object()]
    probe = t.wrap_rebuild("network.rebuild.csr", lambda: built[0])
    probe()
    probe()
    assert bucket["network.rebuild.csr" + REBUILT][0] == 1
    built[0] = object()
    probe()
    assert bucket["network.rebuild.csr" + REBUILT][0] == 2
    assert bucket["network.rebuild.csr"][0] == 3


@pytest.fixture
def fake_module():
    module = types.ModuleType("perf_fake_layer")
    module.work = lambda x: x + 1
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_missing_probe_target_reads_null_not_crash(fake_module):
    t = SpanTracker()
    table = (
        ("layer.work", "perf_fake_layer:work", "call"),
        ("layer.gone", "perf_fake_layer:deleted_mode", "call"),
        ("layer.nomodule", "perf_no_such_module:f", "call"),
    )
    original = fake_module.work
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with ProbeSet(t, table) as probes:
            assert probes.missing == ["layer.gone", "layer.nomodule"]
            t.new_bucket()
            assert fake_module.work(1) == 2
            assert t.bucket["layer.work"][0] == 1
    assert len(caught) == 2
    assert fake_module.work is original


def test_every_probe_target_exists_today():
    from perf.probes import PROBES

    for _name, target, _kind in PROBES:
        resolve(target)
    with pytest.raises(LookupError):
        resolve("repro.core.database:Database.no_such_method")
