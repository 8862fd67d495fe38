"""EXPLAIN: render a query's span tree as a pruning-decision report.

:meth:`repro.core.database.Database.explain` runs one query under a
temporary tracer and wraps the resulting span tree in an
:class:`ExplainReport`.  The report renders the tree as an indented
text document in which every span is narrated in terms of the paper's
pruning machinery — how many edges the signature filter dropped
(§3.1/§3.3), how far the INE frontier travelled (§2.3), which COM
round triggered the §4.3 early termination — rather than as raw
attribute dicts.  ``repro explain`` on the CLI prints exactly this.

The report also exposes the structured side (``spans``,
``signature_stats``, ``terminated_early``) so tests can assert on
pruning behaviour without parsing the rendered text.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from .tracing import Span

__all__ = ["ExplainReport", "render_span_tree"]


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def _num(value: Any) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.4g}"
    return str(value)


def _ratio(part: int, whole: int) -> str:
    if whole <= 0:
        return f"{part}/{whole}"
    return f"{part}/{whole} ({100.0 * part / whole:.0f}%)"


# ----------------------------------------------------------------------
# Per-span narration
# ----------------------------------------------------------------------
def _describe_query_sk(span: Span) -> str:
    a = span.attrs
    terms = "+".join(a.get("terms", ())) or "?"
    return (
        f"SK range query [{a.get('index', '?')}] terms={terms} "
        f"δmax={_num(a.get('delta_max', '?'))} → "
        f"{a.get('results', '?')} results in {_ms(span.duration)}"
    )


def _describe_query_knn(span: Span) -> str:
    a = span.attrs
    terms = "+".join(a.get("terms", ())) or "?"
    return (
        f"SK kNN query [{a.get('index', '?')}] terms={terms} "
        f"k={a.get('k', '?')} → {a.get('results', '?')} results "
        f"in {_ms(span.duration)}"
    )


def _describe_query_diversified(span: Span) -> str:
    a = span.attrs
    terms = "+".join(a.get("terms", ())) or "?"
    line = (
        f"diversified query/{a.get('method', '?')} [{a.get('index', '?')}] "
        f"terms={terms} k={a.get('k', '?')} λ={_num(a.get('lambda_', '?'))} "
        f"δmax={_num(a.get('delta_max', '?'))} → "
        f"{a.get('results', '?')}/{a.get('candidates', '?')} objects, "
        f"objective {_num(a.get('objective_value', '?'))}, "
        f"{_ms(span.duration)}"
    )
    backend = a.get("backend")
    if backend and backend != "csgraph":  # the default goes unsaid
        line += f"  [distances via {backend}]"
    if a.get("terminated_early"):
        line += "  [expansion terminated early]"
    return line


def _describe_ine_round(span: Span) -> str:
    a = span.attrs
    frac = a.get("watermark_fraction")
    frac_s = f" ({_num(frac)}·δmax)" if frac is not None else ""
    return (
        f"INE round #{a.get('round', '?')}: settled "
        f"{a.get('nodes_settled', '?')} nodes, frontier "
        f"{a.get('frontier', '?')}, watermark "
        f"{_num(a.get('watermark', '?'))}{frac_s}, "
        f"{a.get('objects_emitted', 0)} objects emitted"
    )


def _describe_signature_filter(span: Span) -> str:
    a = span.attrs
    pruned = a.get("edges_pruned", 0)
    probed = a.get("edges_probed", 0)
    tested = a.get("candidates_tested", 0)
    false_pos = a.get("false_positives", 0)
    line = (
        f"signature filter [{a.get('partition', '?')}]: dropped "
        f"{_ratio(pruned, pruned + probed)} visited edges; "
        f"{tested} candidate objects verified"
    )
    if tested:
        line += f", {_ratio(false_pos, tested)} false positives"
    return line


def _describe_pairwise(span: Span) -> str:
    a = span.attrs
    sources = a.get("sources", 1)
    what = (
        f"pairwise Dijkstra from edge {a.get('source_edge', '?')}"
        if sources == 1 else f"{sources} pairwise Dijkstras in one call"
    )
    return (
        f"{what}: {a.get('map_nodes', '?')} nodes mapped "
        f"within {_num(a.get('limit', '?'))} in {_ms(span.duration)}"
    )


def _describe_com_round(span: Span) -> str:
    a = span.attrs
    action = a.get("action", "?")
    base = (
        f"COM round (candidate #{a.get('candidate', '?')}): "
        f"γ={_num(a.get('gamma', '?'))} θ_T={_num(a.get('theta_t', '?'))}"
    )
    if action == "terminate":
        return (
            base
            + f" ub(unvisited)={_num(a.get('ub_unvisited', '?'))} < θ_T"
            + " → TERMINATE expansion (§4.3)"
        )
    if action == "unvisited_pair_possible":
        return (
            base
            + f" ub(unvisited)={_num(a.get('ub_unvisited', '?'))} ≥ θ_T"
            + " → keep expanding"
        )
    if action == "visited_pair_possible":
        extra = ""
        if a.get("pruned"):
            extra = f", pruned {a['pruned']} visited objects"
        return base + f" → a visited object may still pair{extra}"
    if action == "cp_not_full":
        return base + " → core pairs not full yet"
    if action == "no_pruning":
        return base + " → pruning disabled (ablation)"
    return base + f" → {action}"


def _describe_com_maintenance(span: Span) -> str:
    a = span.attrs
    line = (
        f"COM maintenance: {a.get('candidates', '?')} candidates, "
        f"{a.get('theta_evaluations', '?')} θ evaluations, "
        f"pruned {a.get('pruned_objects', 0)} objects"
    )
    line += (
        ", terminated early"
        if a.get("terminated_early")
        else ", ran to exhaustion"
    )
    return line


def _describe_greedy(span: Span) -> str:
    a = span.attrs
    return (
        f"greedy diversification: {a.get('candidates', '?')} candidates "
        f"→ top-{a.get('k', '?')} in {_ms(span.duration)}"
    )


def _describe_generic(span: Span) -> str:
    attrs = ", ".join(f"{k}={_num(v)}" for k, v in span.attrs.items())
    line = f"{span.name} ({_ms(span.duration)})"
    if attrs:
        line += f": {attrs}"
    return line


_FORMATTERS = {
    "query.sk": _describe_query_sk,
    "query.knn": _describe_query_knn,
    "query.diversified": _describe_query_diversified,
    "ine.round": _describe_ine_round,
    "signature.filter": _describe_signature_filter,
    "pairwise.dijkstra": _describe_pairwise,
    "com.round": _describe_com_round,
    "com.maintenance": _describe_com_maintenance,
    "greedy.select": _describe_greedy,
}

_EVENT_LABELS = {
    "signature.prune": "edges pruned by signature",
    "signature.partial_prune": "edges partially pruned (SIF-P segments)",
    "pairwise.cache_hit": "pairwise distances answered from cache",
    "com.core_pair": "core-pair insertions",
    "com.early_termination": "early termination",
    "ine.terminated": "expansion stop",
}

#: Collapse runs of same-named siblings longer than this into a summary
#: line — a COM trace can hold hundreds of per-arrival rounds, and the
#: interesting ones (first, termination) survive the collapse.
_MAX_SIBLINGS_PER_NAME = 6


def describe_span(span: Span) -> str:
    """One-line narration of a span, by name."""
    return _FORMATTERS.get(span.name, _describe_generic)(span)


def _event_lines(span: Span) -> List[str]:
    counts: Dict[str, int] = {}
    for name, _ts, _attrs in span.events:
        counts[name] = counts.get(name, 0) + 1
    lines = []
    for name, count in counts.items():
        label = _EVENT_LABELS.get(name, name)
        lines.append(f"· {count} × {label}")
    if span.dropped_events:
        lines.append(f"· ({span.dropped_events} events dropped at capacity)")
    return lines


def _render_into(span: Span, depth: int, out: List[str]) -> None:
    pad = "  " * depth
    out.append(pad + describe_span(span))
    for line in _event_lines(span):
        out.append(pad + "  " + line)

    # Group consecutive same-named children so huge fan-outs (one
    # com.round per arrival) stay readable: keep head and tail of each
    # run, summarise the middle.
    children = span.children
    i = 0
    while i < len(children):
        j = i
        while j < len(children) and children[j].name == children[i].name:
            j += 1
        run = children[i:j]
        if len(run) <= _MAX_SIBLINGS_PER_NAME:
            for child in run:
                _render_into(child, depth + 1, out)
        else:
            head = run[: _MAX_SIBLINGS_PER_NAME - 2]
            for child in head:
                _render_into(child, depth + 1, out)
            hidden = run[len(head):-1]
            total = sum(c.duration for c in hidden)
            out.append(
                "  " * (depth + 1)
                + f"… {len(hidden)} more {run[0].name} spans "
                f"({_ms(total)} total) …"
            )
            _render_into(run[-1], depth + 1, out)
        i = j
    if span.dropped_children:
        out.append(
            "  " * (depth + 1)
            + f"({span.dropped_children} child spans dropped at capacity)"
        )


def render_span_tree(root: Span) -> str:
    """The indented text report for one trace."""
    out: List[str] = []
    _render_into(root, 0, out)
    return "\n".join(out)


class ExplainReport:
    """A query's span tree plus its result, with a text renderer.

    ``plan`` optionally carries the executed
    :class:`~repro.engine.plan.QueryPlan`; when present the rendered
    report opens with the planner's description (algorithm choice,
    cost hints, rationale) ahead of the span tree.
    """

    def __init__(
        self,
        trace: Optional[Span],
        result: Any = None,
        plan: Any = None,
        slow_threshold: Any = None,
    ) -> None:
        if trace is None:
            raise ValueError(
                "explain produced no trace — was the query executed with "
                "tracing enabled?"
            )
        self.trace = trace
        self.result = result
        self.plan = plan
        #: Optional :class:`~repro.obs.slowlog.SlowQueryThreshold`; when
        #: set the rendered report closes with its SLOW/OK verdict.
        self.slow_threshold = slow_threshold

    @property
    def digest(self) -> Optional[str]:
        """The result's flight-recorder digest, when a result is held.

        The same :func:`repro.obs.recorder.result_digest` the flight
        recorder computes — so an EXPLAIN of one query is directly
        comparable against a captured flight record or a replay
        divergence, without re-running anything.
        """
        if self.result is None or not hasattr(self.result, "items"):
            return None
        from .recorder import result_digest

        return result_digest(self.result)

    # -- structured access (tests) ------------------------------------
    def spans(self, name: str) -> List[Span]:
        """Every span named ``name`` in the trace, depth-first."""
        return self.trace.find_all(name)

    def span(self, name: str) -> Optional[Span]:
        return self.trace.find(name)

    def signature_stats(self) -> Dict[str, Any]:
        """Attrs of the per-query ``signature.filter`` summary span.

        Empty dict when the query recorded none (e.g. an index without
        signatures).
        """
        found = self.trace.find("signature.filter")
        return dict(found.attrs) if found is not None else {}

    @property
    def terminated_early(self) -> bool:
        """Whether the COM §4.3 bound terminated the expansion."""
        root_attr = self.trace.attrs.get("terminated_early")
        if root_attr is not None:
            return bool(root_attr)
        maint = self.trace.find("com.maintenance")
        return bool(maint is not None and maint.attrs.get("terminated_early"))

    def top_level_breakdown(self) -> List[Dict[str, Any]]:
        """Wall-clock spent per direct child of the root span.

        Same-named children are merged; ``share`` is the fraction of
        the root span's duration (clamped to 1 for clock jitter).
        """
        total = self.trace.duration
        merged: Dict[str, Dict[str, Any]] = {}
        for child in self.trace.children:
            slot = merged.setdefault(
                child.name, {"name": child.name, "seconds": 0.0, "count": 0}
            )
            slot["seconds"] += child.duration
            slot["count"] += 1
        rows = sorted(merged.values(), key=lambda r: -r["seconds"])
        for row in rows:
            row["share"] = min(row["seconds"] / total, 1.0) if total > 0 else 0.0
        return rows

    def slow_verdict(self) -> Optional[str]:
        """The threshold's SLOW/OK one-liner, or ``None`` without one."""
        if self.slow_threshold is None:
            return None
        stats = getattr(self.result, "stats", None)
        wall = stats.wall_seconds if stats is not None else self.trace.duration
        nodes = stats.nodes_accessed if stats is not None else 0
        return self.slow_threshold.verdict(wall, nodes)

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        header = f"EXPLAIN  ({_ms(self.trace.duration)} total)"
        parts = [header]
        if self.plan is not None:
            parts.append(self.plan.describe())
        parts.append(render_span_tree(self.trace))
        breakdown = self.top_level_breakdown()
        if breakdown:
            lines = ["wall clock by top-level span:"]
            for row in breakdown:
                count = f" ×{row['count']}" if row["count"] > 1 else ""
                lines.append(
                    f"  {row['name']}{count}: {_ms(row['seconds'])} "
                    f"({row['share'] * 100:.0f}%)"
                )
            parts.append("\n".join(lines))
        digest = self.digest
        if digest is not None:
            parts.append(
                f"result digest: {digest} "
                f"({len(self.result.items)} results)"
            )
        verdict = self.slow_verdict()
        if verdict is not None:
            parts.append(f"slow-query verdict: {verdict}")
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.render()
