"""Plan-then-execute query engine.

Three layers, used in order:

1. **Planner** (:mod:`repro.engine.plan`) — ``plan_sk`` /
   ``plan_diversified`` turn a query + index into an
   immutable :class:`QueryPlan` with cost hints and an algorithm
   choice.
2. **Context** (:mod:`repro.engine.context`) —
   :class:`ExecutionContext` owns all per-query mutable state, keeping
   the shared index/storage structures read-only during queries.
3. **Executor** (:mod:`repro.engine.executor`) —
   :class:`QueryEngine` runs plans, one at a time or concurrently via
   ``execute_many(plans, workers=N)``.

The :class:`~repro.core.database.Database` facade wraps all three; use
this package directly for planner introspection or concurrent batches.
"""

from .context import ExecutionContext
from .executor import QueryEngine
from .plan import CostHints, QueryPlan, plan_diversified, plan_sk

__all__ = [
    "CostHints",
    "ExecutionContext",
    "QueryEngine",
    "QueryPlan",
    "plan_diversified",
    "plan_sk",
]
