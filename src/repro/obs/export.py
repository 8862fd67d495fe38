"""Prometheus text exposition of a metrics registry.

Every registry counter becomes a ``counter`` metric, every histogram a
``summary`` with quantile lines plus ``_sum``/``_count``, and
caller-supplied point-in-time values (buffer-pool hit rate and
evictions, hub-label sizes — see :func:`database_gauges`) become
``gauge`` metrics.  Names are sanitised to the Prometheus grammar.  The
same text is written to a file at the end of a run (``--prom``) and
served live at ``/metrics`` (:mod:`repro.obs.server`).
Dependency-free.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Dict, List, Optional, Union

from .metrics import MetricsRegistry

__all__ = [
    "prometheus_text",
    "write_prometheus",
    "database_gauges",
    "escape_label_value",
    "VALID_METRIC_NAME",
    "VALID_LABEL_NAME",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
#: The exposition-format grammar for metric names (strict scrapers
#: reject anything else); label names additionally forbid the colon.
VALID_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
VALID_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _metric_name(name: str, prefix: str) -> str:
    sanitised = _NAME_RE.sub("_", f"{prefix}_{name}" if prefix else name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def _label_name(name: str) -> str:
    sanitised = _NAME_RE.sub("_", name).replace(":", "_")
    if not sanitised or sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def escape_label_value(value: str) -> str:
    """Escape per the exposition format: backslash, quote, newline.

    Plan labels like ``SIF/COM`` are legal label *values* as-is (any
    UTF-8 goes), but quotes/backslashes/newlines must be escaped or
    the scrape line is unparseable.
    """
    return (
        value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
    )


def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _split_labelled(name: str):
    """Split the ``family#value`` labelled-counter convention.

    Counters named e.g. ``query.plan#SIF/COM`` expose one Prometheus
    family ``query_plan`` with a label named after the family's last
    segment: ``repro_query_plan{plan="SIF/COM"}``.  Returns
    ``(family, label_name, label_value)``; label parts are ``None``
    for plain names.
    """
    family, sep, value = name.partition("#")
    if not sep:
        return name, None, None
    label = _label_name(family.rsplit(".", 1)[-1] or "label")
    return family, label, value


class _Family:
    """One exposition family: TYPE/HELP emitted once, then samples."""

    __slots__ = ("metric", "kind", "help", "samples")

    def __init__(self, metric: str, kind: str, help_text: str) -> None:
        self.metric = metric
        self.kind = kind
        self.help = help_text
        self.samples: List[str] = []

    def lines(self) -> List[str]:
        return [
            f"# HELP {self.metric} {self.help}",
            f"# TYPE {self.metric} {self.kind}",
            *self.samples,
        ]


def prometheus_text(
    registry: MetricsRegistry,
    prefix: str = "repro",
    gauges: Optional[Dict[str, float]] = None,
) -> str:
    """Point-in-time exposition of every counter and histogram.

    ``gauges`` adds caller-supplied point-in-time values (cache hit
    rates, pool occupancy — see :func:`database_gauges`) as ``gauge``
    metrics.  Empty histograms are skipped entirely — a summary with
    NaN quantiles scrapes as an error in strict parsers.

    The output follows the exposition format strictly: names are
    sanitised to the metric-name grammar, ``# HELP``/``# TYPE`` are
    emitted exactly once per family (two raw names that sanitise to
    the same family share one header instead of emitting a duplicate,
    which strict parsers reject), label values are escaped, and
    counters following the ``family#value`` convention (e.g. the
    per-plan ``query.plan#SIF/COM``) become labelled samples of one
    family.  The registry is read under its lock, so scraping a
    database mid-workload never observes a half-sorted histogram.
    """
    families: Dict[str, _Family] = {}

    def family(raw: str, kind: str) -> _Family:
        metric = _metric_name(raw, prefix)
        existing = families.get(metric)
        if existing is None:
            # HELP text references the *sanitised* family name only —
            # raw dotted names never leak into the exposition.
            existing = families[metric] = _Family(
                metric, kind, f"repro {kind} {metric}"
            )
        return existing

    def sample(raw: str, kind: str, value: str) -> None:
        """One sample of a plain or ``family#value``-labelled name."""
        base, label, label_value = _split_labelled(raw)
        fam = family(base, kind)
        labels = "" if label is None else (
            f'{{{label}="{escape_label_value(label_value)}"}}'
        )
        fam.samples.append(f"{fam.metric}{labels} {value}")

    with registry.locked():
        for name, value in registry.counters().items():
            sample(name, "counter", str(value))
        for name, hist in sorted(registry.histograms().items()):
            if not hist.count:
                continue
            fam = family(name, "summary")
            for q in (0.5, 0.95, 0.99):
                fam.samples.append(
                    f'{fam.metric}{{quantile="{q}"}} '
                    f"{_fmt_value(hist.percentile(q * 100))}"
                )
            fam.samples.append(f"{fam.metric}_sum {_fmt_value(hist.total)}")
            fam.samples.append(f"{fam.metric}_count {hist.count}")
    for name, value in sorted((gauges or {}).items()):
        if not math.isfinite(value):
            # A NaN/Inf gauge (e.g. hit rate before any access) reads
            # as a measurement to downstream alerting; omit it, like
            # empty histograms.
            continue
        sample(name, "gauge", _fmt_value(value))
    lines: List[str] = []
    for fam in families.values():
        lines.extend(fam.lines())
    return "\n".join(lines) + "\n"


def database_gauges(db) -> Dict[str, float]:
    """Point-in-time gauge values for a database's shared caches.

    ``db`` is a :class:`~repro.core.database.Database`: whichever of
    the hub-label oracle and the flight recorder is installed
    contributes its state, the disk's I/O totals the buffer pool's
    hit/miss/eviction counts plus a derived hit rate (``NaN``-free: a
    pool that was never consulted reports rate 0).
    """
    gauges: Dict[str, float] = {}

    def copy(prefix: str, stats: Dict[str, float], *names: str) -> None:
        for name in names:
            gauges[f"{prefix}.{name}"] = float(stats[name])

    # One-hot backend label: repro_distance_backend_hub 1.0 says the
    # scrape came from a hub-backed run without needing label pairs.
    # (Imported here: network.distance itself imports obs.tracing.)
    from ..network.distance import DISTANCE_BACKENDS

    for name in DISTANCE_BACKENDS:
        gauges[f"distance_backend.{name}"] = float(db.distance_backend == name)
    # Packed signature footprint across every index built on this
    # database (SIF/SIF-G expose a SignatureFile; SIF-P accounts
    # for its virtual-edge matrix itself).
    sig_bytes = 0.0
    signed_terms = 0.0
    seen_any = False
    for index in db.indexes:
        sig = getattr(index, "signatures", None)
        if sig is not None:
            sig_bytes += float(sig.size_bytes())
            signed_terms += float(sig.num_signed_terms)
            seen_any = True
            continue
        size_fn = getattr(index, "signature_size_bytes", None)
        if callable(size_fn):
            sig_bytes += float(size_fn())
            signed_terms += float(getattr(index, "num_signed_terms", 0))
            seen_any = True
    if seen_any:
        gauges["signature.bytes"] = sig_bytes
        gauges["signature.signed_terms"] = signed_terms
    if db._hub_oracle is not None:
        copy("hub_label", db._hub_oracle.stats(), "build_seconds", "labels",
             "label_entries", "pruned_entries", "avg_label_size",
             "max_label_size")
    gauges["data_version"] = float(db.data_version)
    gauges["updates.journal_length"] = float(len(db.update_journal))
    for kind, count in db.update_journal.counts().items():
        gauges[f"updates.{kind}"] = float(count)
    if db.flight_recorder is not None:
        copy("recorder", db.flight_recorder.summary(), "observed",
             "buffered", "dropped", "updates", "max_records")
    io = db.disk.stats
    gauges["buffer_pool.capacity"] = float(db.disk.buffer.capacity)
    gauges["buffer_pool.hits"] = float(io.buffer_hits)
    gauges["buffer_pool.misses"] = float(io.physical_reads)
    gauges["buffer_pool.evictions"] = float(io.evictions)
    lookups = io.logical_reads
    gauges["buffer_pool.hit_rate"] = io.buffer_hits / lookups if lookups else 0.0
    return gauges


def write_prometheus(
    path: Union[str, Path],
    registry: MetricsRegistry,
    prefix: str = "repro",
    gauges: Optional[Dict[str, float]] = None,
) -> Path:
    """Write the exposition text; returns the path."""
    path = Path(path)
    path.write_text(
        prometheus_text(registry, prefix=prefix, gauges=gauges),
        encoding="utf-8",
    )
    return path
