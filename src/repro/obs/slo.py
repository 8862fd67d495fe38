"""Declarative service-level objectives over a metrics snapshot.

An :class:`SLOSpec` is a named list of :class:`SLORule`\\ s, each a
single comparison against one derived value of a
:class:`~repro.obs.metrics.MetricsRegistry` snapshot:

* ``histogram_quantile`` — a quantile of a recorded histogram, e.g.
  *p95 of ``query.wall_seconds`` must stay ≤ 50 ms*;
* ``counter_ratio`` — a numerator counter over the sum of denominator
  counters, e.g. *pairwise node-map hit rate ≥ 0.6* or *early-termination
  share of diversified queries ≥ 0.3*;
* ``counter`` — a raw counter value.

Rules compare with ``<=`` or ``>=`` (SLOs bound both "keep latency
down" and "keep hit rates up").  A rule whose metric recorded no data
passes with ``no_data`` set — an empty run should not trip a gate —
and :meth:`SLOSpec.evaluate` returns one check dict per rule.
:class:`SLOMonitor` judges a spec against any snapshot source: the
registry at the end of a run, a sliding window while it runs.

Specs round-trip through plain dicts (:meth:`SLOSpec.to_dict` /
:meth:`SLOSpec.from_dict`) so they live in JSON files next to the
workloads they judge.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["SLORule", "SLOSpec", "SLOMonitor", "render_check"]

_KINDS = ("histogram_quantile", "counter_ratio", "counter")
_OPS = ("<=", ">=")
_QUANTILE_KEYS = {50: "p50", 95: "p95", 99: "p99"}


class SLORule:
    """One objective: ``value(kind, metric) op threshold``."""

    __slots__ = (
        "name", "kind", "metric", "op", "threshold",
        "quantile", "denominator",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        metric: str,
        op: str,
        threshold: float,
        quantile: Optional[int] = None,
        denominator: Sequence[str] = (),
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown SLO rule kind {kind!r}; expected one of {_KINDS}")
        if op not in _OPS:
            raise ValueError(f"unknown SLO op {op!r}; expected one of {_OPS}")
        if kind == "histogram_quantile":
            if quantile not in _QUANTILE_KEYS:
                raise ValueError(
                    "histogram_quantile rules need quantile in "
                    f"{sorted(_QUANTILE_KEYS)}, got {quantile!r}"
                )
        if kind == "counter_ratio" and not denominator:
            raise ValueError("counter_ratio rules need a denominator counter list")
        self.name = name
        self.kind = kind
        self.metric = metric
        self.op = op
        self.threshold = float(threshold)
        self.quantile = quantile
        self.denominator = tuple(denominator)

    # -- evaluation ----------------------------------------------------
    def value(self, snapshot: Dict[str, Any]) -> Optional[float]:
        """The rule's observed value in ``snapshot``; ``None`` = no data."""
        if self.kind == "histogram_quantile":
            hist = snapshot.get("histograms", {}).get(self.metric)
            if not hist or not hist.get("count"):
                return None
            return float(hist[_QUANTILE_KEYS[self.quantile]])
        counters = snapshot.get("counters", {})
        if self.kind == "counter":
            if self.metric not in counters:
                return None
            return float(counters[self.metric])
        # counter_ratio
        denom = sum(counters.get(name, 0) for name in self.denominator)
        if denom <= 0:
            return None
        return float(counters.get(self.metric, 0)) / denom

    def check(self, snapshot: Dict[str, Any]) -> Dict[str, Any]:
        """The outcome against ``snapshot`` (what :func:`render_check`
        reads)."""
        value = self.value(snapshot)
        passed = value is None or (
            value <= self.threshold if self.op == "<=" else value >= self.threshold
        )
        return {"rule": self.to_dict(), "value": value, "passed": passed,
                "no_data": value is None}

    # -- (de)serialisation ---------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "op": self.op,
            "threshold": self.threshold,
        }
        if self.quantile is not None:
            out["quantile"] = self.quantile
        if self.denominator:
            out["denominator"] = list(self.denominator)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SLORule":
        return cls(
            name=data["name"],
            kind=data["kind"],
            metric=data["metric"],
            op=data["op"],
            threshold=data["threshold"],
            quantile=data.get("quantile"),
            denominator=data.get("denominator", ()),
        )

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"SLORule({self.name!r}: {self.kind} {self.metric} {self.op} {self.threshold})"


def shown(value: Any, spec: str = "") -> str:
    """``value`` formatted by ``spec``; ``?`` when it is not a number."""
    return format(value, spec) if isinstance(value, (int, float)) else "?"


def render_check(check: Dict[str, Any]) -> str:
    """The one spelling of a check line, over :meth:`SLORule.check`.

    The dict form is what a live verdict, a load-test report and a
    persisted ``slo_breach`` record hold, so a key missing from a file
    written elsewhere renders as ``?`` instead of raising.
    """
    rule = check.get("rule") or {}
    name, metric = rule.get("name", "?"), rule.get("metric", "?")
    if check.get("no_data"):
        return f"SKIP  {name}: no data for {metric}"
    status = "PASS" if check.get("passed") else "FAIL"
    return (
        f"{status}  {name}: {metric} = {shown(check.get('value'), '.6g')} "
        f"(want {rule.get('op', '?')} {shown(rule.get('threshold'), 'g')})"
    )


class SLOSpec:
    """A named set of rules, evaluated together."""

    def __init__(self, name: str, rules: Sequence[SLORule]) -> None:
        if not rules:
            raise ValueError("an SLO spec needs at least one rule")
        self.name = name
        self.rules = list(rules)

    def evaluate(self, snapshot: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [rule.check(snapshot) for rule in self.rules]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro-slo-spec/v1",
            "name": self.name,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SLOSpec":
        return cls(
            name=data.get("name", "slo"),
            rules=[SLORule.from_dict(r) for r in data["rules"]],
        )


class SLOMonitor:
    """Judge ``spec`` against whatever ``snapshot()`` returns now:
    ``db.metrics.snapshot`` for the end-of-run ``--slo`` gate, a
    sliding window's ``snapshot`` for the live one.

    When any rule fails, ``evaluate()`` records one *breach event*:
    ``slo.breaches`` (plus per-rule ``slo.breach#<rule>`` labelled
    counters) and a ``slo_breach`` record in ``metrics``, and a note in
    the slow-query log ``slowlog()`` returns — asked at every breach,
    so a monitor may be installed before that log and may outlive it.
    With neither, a failing evaluation records nothing.
    """

    def __init__(
        self,
        spec: SLOSpec,
        snapshot: Callable[[], Dict[str, Any]],
        metrics=None,
        slowlog: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.spec = spec
        self.snapshot = snapshot
        self.metrics = metrics
        self.slowlog = slowlog
        self._lock = threading.Lock()
        #: Lifetime evaluation / breach-window counts.
        self.evaluations = 0
        self.breaches = 0
        self._last_checks: List[Dict[str, Any]] = []

    def evaluate(self) -> List[Dict[str, Any]]:
        snap = self.snapshot()
        checks = self.spec.evaluate(snap)
        failed = [c for c in checks if not c["passed"]]
        with self._lock:
            self.evaluations += 1
            if failed:
                self.breaches += 1
            self._last_checks = checks
        if failed:
            record = {
                "type": "slo_breach",
                "spec": self.spec.name,
                "window": snap,
                "failed": failed,
            }
            if self.metrics is not None:
                self.metrics.inc("slo.breaches")
                for check in failed:
                    self.metrics.inc(f"slo.breach#{check['rule']['name']}")
                self.metrics.emit(record)
            log = self.slowlog() if self.slowlog is not None else None
            if log is not None:
                log.note(record)
        return checks

    def verdict(self) -> Dict[str, Any]:
        """JSON-able state of the most recent evaluation."""
        with self._lock:
            checks = list(self._last_checks)
            return {
                "spec": self.spec.name,
                "evaluations": self.evaluations,
                "breach_windows": self.breaches,
                "passed": all(c["passed"] for c in checks),
                "checks": checks,
            }
