"""Outside-in layer probes: spans recorded from the benchmark's own files.

The benchmark wraps each layer's public callables (resolved by dotted
name when the traced pass starts) and keeps, per operation, one
aggregate per span name: calls, inclusive seconds and self seconds.
That is the span tree of the operation folded by name — enough for
per-layer means, self times and coverage, at a cost small enough to
leave the proportions alone (`obs.trace_overhead_pct` reports it).

A span name is *re-entrant safe*: while a span of some name is open, a
nested call under the same name is passed straight through, so
``pairwise()`` calling ``distance()`` four thousand times counts its
time once.  A missing target (a later PR deleted a mode) is recorded in
``ProbeSet.missing`` and its metric reads ``null`` — never a crash.
"""

from __future__ import annotations

import functools
import importlib
import time
import warnings
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SpanTracker", "ProbeSet", "PROBES", "resolve"]

#: ``(span name, target, kind)``.  Targets are ``module:attr.path``;
#: kinds are ``call`` (time the call), ``generator`` (time every
#: ``__next__`` of the returned generator) and ``rebuild`` (time the
#: call and count it as a rebuild when it returns a new object).
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("engine.plan", "repro.core.database:plan_sk", "call"),
    ("engine.plan", "repro.core.database:plan_diversified", "call"),
    ("engine.execute", "repro.engine.executor:QueryEngine.execute", "call"),
    ("core.expansion", "repro.core.ine:INEExpansion.run", "generator"),
    ("core.expansion", "repro.core.ine:INEExpansion.run_to_completion", "call"),
    ("index.load_objects", "repro.index.sif:SIFIndex.load_objects", "call"),
    ("index.load_objects",
     "repro.index.inverted_file:InvertedFileIndex.load_objects", "call"),
    ("index.signature", "repro.index.signature:SignatureFile.test", "call"),
    ("index.signature", "repro.index.signature:SignatureFile.test_many", "call"),
    ("index.signature",
     "repro.index.signature:SignatureFile.combined_row", "call"),
    ("network.pairwise",
     "repro.network.distance:PairwiseDistanceComputer.distance", "call"),
    ("network.pairwise",
     "repro.network.distance:PairwiseDistanceComputer.pairwise", "call"),
    ("network.pairwise",
     "repro.network.distance:PairwiseDistanceComputer.pairwise_matrix", "call"),
    ("network.pairwise",
     "repro.network.distance:PairwiseDistanceComputer.prefetch", "call"),
    ("core.greedy", "repro.core.diversified_search:greedy_diversify", "call"),
    ("core.core_pairs",
     "repro.core.core_pairs:CorePairMaintainer.bootstrap", "call"),
    ("core.core_pairs", "repro.core.core_pairs:CorePairMaintainer.add", "call"),
    ("core.core_pairs", "repro.core.core_pairs:CorePairMaintainer.prune", "call"),
    ("network.rebuild.csr", "repro.core.database:Database.csr_graph", "rebuild"),
    ("network.rebuild.ch", "repro.core.database:Database.ch_oracle", "rebuild"),
    ("network.rebuild.hub", "repro.core.database:Database.hub_oracle", "rebuild"),
)

#: Suffix of the pseudo-span counting calls that returned a new object.
REBUILT = "#rebuilt"


class SpanTracker:
    """Folds the span tree of the current operation by span name.

    ``bucket`` maps a span name to ``[calls, inclusive_s, self_s]``.
    The harness swaps in a fresh bucket per operation
    (:meth:`new_bucket`); self time is a span's duration minus the part
    its direct child spans cover.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.bucket: Dict[str, List[float]] = {}
        #: One accumulator of child time per open span.
        self._child_time: List[float] = []
        self._open: set = set()
        #: When a list, generator probes append every item they yield.
        self.capture: Optional[list] = None

    def new_bucket(self) -> Dict[str, List[float]]:
        self.bucket = {}
        return self.bucket

    def begin(self, name: str) -> Optional[float]:
        """Open a span; ``None`` means re-entrant (do not call :meth:`end`)."""
        if name in self._open:
            return None
        self._open.add(name)
        self._child_time.append(0.0)
        return self.clock()

    def end(self, name: str, started: float) -> float:
        duration = self.clock() - started
        children = self._child_time.pop()
        self._open.discard(name)
        slot = self._slot(name)
        slot[0] += 1
        slot[1] += duration
        slot[2] += duration - children
        if self._child_time:
            self._child_time[-1] += duration
        return duration

    def count(self, name: str) -> None:
        self._slot(name)[0] += 1

    def _slot(self, name: str) -> List[float]:
        slot = self.bucket.get(name)
        if slot is None:
            slot = self.bucket[name] = [0, 0.0, 0.0]
        return slot

    # -- wrappers ------------------------------------------------------
    def wrap_call(self, name: str, fn: Callable) -> Callable:
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            started = begin(name)
            if started is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                end(name, started)

        return probe

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time every step of the generator ``fn`` returns.

        Closing the wrapper closes the underlying generator, so COM's
        early termination still stops the network expansion.
        """
        tracker = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    started = tracker.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if started is not None:
                            tracker.end(name, started)
                    if tracker.capture is not None:
                        tracker.capture.append(item)
                    yield item
            finally:
                inner.close()

        return probe

    def wrap_rebuild(self, name: str, fn: Callable) -> Callable:
        """Time ``fn`` and count the calls that return a new object."""
        tracker = self
        last: List[object] = [None]

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            started = tracker.begin(name)
            try:
                value = fn(*args, **kwargs)
            finally:
                if started is not None:
                    tracker.end(name, started)
            if value is not last[0]:
                last[0] = value
                tracker.count(name + REBUILT)
            return value

        return probe


def resolve(target: str):
    """``module:attr.path`` → ``(owner, attribute name, current value)``.

    Raises ``LookupError`` when the module or any attribute is missing.
    """
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{target}: {exc}") from None
    parts = path.split(".")
    for part in parts[:-1]:
        try:
            owner = getattr(owner, part)
        except AttributeError:
            raise LookupError(f"{target}: no attribute {part!r}") from None
    try:
        value = getattr(owner, parts[-1])
    except AttributeError:
        raise LookupError(f"{target}: no attribute {parts[-1]!r}") from None
    return owner, parts[-1], value


class ProbeSet:
    """Installs and removes the probe table on the live modules."""

    def __init__(self, tracker: SpanTracker, table=PROBES) -> None:
        self.tracker = tracker
        self.table = tuple(table)
        self._installed: List[Tuple[object, str, object]] = []
        #: Span names none of whose targets resolved: their metric is null.
        self.missing: List[str] = []

    def install(self) -> "ProbeSet":
        wrappers = {
            "call": self.tracker.wrap_call,
            "generator": self.tracker.wrap_generator,
            "rebuild": self.tracker.wrap_rebuild,
        }
        found = set()
        for name, target, kind in self.table:
            try:
                owner, attr, original = resolve(target)
            except LookupError as exc:
                warnings.warn(f"perf probe target missing: {exc}")
                continue
            setattr(owner, attr, wrappers[kind](name, original))
            self._installed.append((owner, attr, original))
            found.add(name)
        self.missing = sorted(
            {name for name, _t, _k in self.table} - found
        )
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "ProbeSet":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
