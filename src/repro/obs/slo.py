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
and :meth:`SLOSpec.evaluate` returns one :class:`SLOCheck` per rule so
the caller (``repro ... --slo spec.json`` or a test) can render or gate
on the whole set.

Specs round-trip through plain dicts (:meth:`SLOSpec.to_dict` /
:meth:`SLOSpec.from_dict`) so they live in JSON files next to the
workloads they judge.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

__all__ = ["SLORule", "SLOSpec", "SLOCheck", "render_check"]

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

    def check(self, snapshot: Dict[str, Any]) -> "SLOCheck":
        value = self.value(snapshot)
        if value is None:
            return SLOCheck(self, None, passed=True, no_data=True)
        passed = value <= self.threshold if self.op == "<=" else value >= self.threshold
        return SLOCheck(self, value, passed=passed)

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


class SLOCheck:
    """The outcome of one rule against one snapshot."""

    __slots__ = ("rule", "value", "passed", "no_data")

    def __init__(
        self,
        rule: SLORule,
        value: Optional[float],
        passed: bool,
        no_data: bool = False,
    ) -> None:
        self.rule = rule
        self.value = value
        self.passed = passed
        self.no_data = no_data

    def render(self) -> str:
        return render_check(self.to_dict())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule.to_dict(),
            "value": self.value,
            "passed": self.passed,
            "no_data": self.no_data,
        }


def render_check(check: Dict[str, Any]) -> str:
    """The one spelling of a check line, over :meth:`SLOCheck.to_dict`.

    The dict form is what a live verdict, a load-test report and a
    persisted ``slo_breach`` record hold, so a key missing from a file
    written elsewhere renders as ``?`` instead of raising.
    """
    rule = check.get("rule") or {}
    name, metric = rule.get("name", "?"), rule.get("metric", "?")
    if check.get("no_data"):
        return f"SKIP  {name}: no data for {metric}"
    status = "PASS" if check.get("passed") else "FAIL"
    value, threshold = check.get("value"), rule.get("threshold")
    shown = f"{value:.6g}" if isinstance(value, (int, float)) else "?"
    want = f"{threshold:g}" if isinstance(threshold, (int, float)) else "?"
    return (
        f"{status}  {name}: {metric} = {shown} "
        f"(want {rule.get('op', '?')} {want})"
    )


class SLOSpec:
    """A named set of rules, evaluated together."""

    def __init__(self, name: str, rules: Sequence[SLORule]) -> None:
        if not rules:
            raise ValueError("an SLO spec needs at least one rule")
        self.name = name
        self.rules = list(rules)

    def evaluate(self, snapshot: Dict[str, Any]) -> List[SLOCheck]:
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
