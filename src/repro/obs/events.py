"""The per-query event: what every observer of a finished query is told.

:meth:`QueryEngine.execute <repro.engine.executor.QueryEngine.execute>`
builds one :class:`QueryEvent` per finished (or failed) query and
:meth:`Database.publish <repro.core.database.Database.publish>` hands
it, once, to every subscriber: the metrics registry, the sliding-window
rollup, the slow-query log, the flight recorder.  The event holds
references — plan, result, span tree; what is *derived* from them
(worker name, result digest, the JSON encoding) is computed the first
time a subscriber asks and kept, so a database with no log, recorder
or sink derives nothing and one with all three encodes once.

:meth:`QueryEvent.to_dict` is the one encoding of a finished query: the
``"query"`` line of a ``--metrics`` file, a ``slow_query`` record and a
``flight`` record are that dict plus the keys only they own (DESIGN.md
"Life of a finished query" has the table).
"""

from __future__ import annotations

import dataclasses
import threading
from functools import cached_property
from typing import Any, Dict, Optional

from .recorder import DIGEST_PRECISION, query_to_dict, result_digest

__all__ = ["QueryEvent", "stats_to_dict"]


def stats_to_dict(stats) -> Dict[str, Any]:
    """A JSON-able snapshot of one query's :class:`QueryStats`.

    One key per dataclass field, under the field's own name, so a field
    added to ``QueryStats`` is encoded without anyone remembering to;
    ``io`` is ``None`` when the query ran outside an I/O scope.
    """
    out = {
        f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
    }
    out["stage_seconds"] = dict(stats.stage_seconds)
    if stats.io is not None:
        out["io"] = {
            "logical_reads": stats.io.logical_reads,
            "physical_reads": stats.io.physical_reads,
            "buffer_hits": stats.io.buffer_hits,
        }
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class QueryEvent:
    """One finished (``error is None``) or failed query execution.

    Immutable: subscribers on the same delivery share it.  ``worker``,
    ``digest`` and ``to_dict()`` are computed on first use and must be
    asked for during delivery — the worker name is the asking thread's.
    """

    plan: Any
    #: The kind-specific result object; ``None`` when the query failed.
    result: Any
    error: Optional[BaseException] = None
    #: The query's index within its batch, when the caller knew one.
    sequence: Optional[int] = None
    #: Root of the query's span tree, when it was traced.
    trace: Any = None

    @property
    def stats(self):
        """The query's ``QueryStats`` (``None`` for a failed query)."""
        return self.result.stats if self.result is not None else None

    @cached_property
    def worker(self) -> str:
        """Name of the thread that executed (and is delivering) the query."""
        return threading.current_thread().name

    @cached_property
    def digest(self) -> str:
        """The result's :func:`~repro.obs.recorder.result_digest`."""
        return result_digest(self.result)

    @cached_property
    def _encoded(self) -> Dict[str, Any]:
        plan, result, stats = self.plan, self.result, self.result.stats
        out: Dict[str, Any] = {
            "kind": plan.kind,
            "label": plan.label,
            "algorithm": plan.algorithm,
            "index": plan.index.name,
            "query": query_to_dict(plan.query),
            "epoch": stats.epoch,
            "results": len(result),
            "wall_seconds": stats.wall_seconds,
            "worker": self.worker,
            "stats": stats_to_dict(stats),
        }
        if self.sequence is not None:
            out["sequence"] = self.sequence
        if plan.hints is not None:
            out["hints"] = {
                "distance_backend": plan.hints.distance_backend,
                "data_version": plan.hints.data_version,
                "estimated_matches": plan.hints.estimated_matches,
            }
        objective = getattr(result, "objective_value", None)
        if objective is not None:
            out["objective"] = round(objective, DIGEST_PRECISION)
        return out

    def to_dict(self) -> Dict[str, Any]:
        """The one JSON-able encoding of a finished query, built once
        and shared: copy it before adding keys."""
        return self._encoded
