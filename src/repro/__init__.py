"""Diversified spatial keyword search on road networks.

A from-scratch reproduction of "Diversified Spatial Keyword Search On
Road Networks" (EDBT 2014): a disk-resident road-network substrate
(CCAM layout, B+-trees, R-trees over a simulated buffer-managed disk),
the signature-based inverted indexes IR / IF / SIF / SIF-P / SIF-G, the
incremental-network-expansion SK search, and the SEQ / COM diversified
search algorithms.

Quickstart::

    from repro import Database, DiversifiedSKQuery, datasets, workloads

    db = datasets.build_dataset("NA", scale=0.25)
    index = db.build_index("sif-p")
    query = workloads.generate_diversified_queries(
        db, workloads.WorkloadConfig(num_queries=1)
    )[0]
    result = db.diversified_search(index, query, method="com")
    for item in result:
        print(item.object.object_id, round(item.distance, 1))

``db.diversified_search`` plans and executes through the engine; the
loop beneath it, :func:`repro.core.diversified_search.diversified_search`,
takes the query's own ``PairwiseDistanceComputer``
(``db.pairwise_computer(query.delta_max)``).
"""

from . import datasets, engine, obs, workloads
from .core.database import INDEX_KINDS, Database
from .engine import (
    CostHints,
    ExecutionContext,
    QueryEngine,
    QueryPlan,
    plan_diversified,
    plan_sk,
)
from .core.ine import INEExpansion
from .core.objective import DiversificationObjective
from .core.queries import (
    DiversifiedResult,
    DiversifiedSKQuery,
    QueryStats,
    ResultItem,
    SKQuery,
    SKResult,
)
from .errors import (
    DatasetError,
    GraphError,
    QueryError,
    ReproError,
    StorageError,
)
from .network.distance import PairwiseDistanceComputer
from .network.graph import Edge, NetworkPosition, Node, RoadNetwork
from .network.objects import ObjectStore, SpatioTextualObject
from .obs import MetricsRegistry
from .spatial.geometry import MBR, Point

__version__ = "1.0.0"

__all__ = [
    "datasets",
    "engine",
    "obs",
    "workloads",
    "INDEX_KINDS",
    "Database",
    "CostHints",
    "ExecutionContext",
    "QueryEngine",
    "QueryPlan",
    "plan_diversified",
    "plan_sk",
    "PairwiseDistanceComputer",
    "MetricsRegistry",
    "INEExpansion",
    "DiversificationObjective",
    "DiversifiedResult",
    "DiversifiedSKQuery",
    "QueryStats",
    "ResultItem",
    "SKQuery",
    "SKResult",
    "DatasetError",
    "GraphError",
    "QueryError",
    "ReproError",
    "StorageError",
    "Edge",
    "NetworkPosition",
    "Node",
    "RoadNetwork",
    "ObjectStore",
    "SpatioTextualObject",
    "MBR",
    "Point",
    "__version__",
]
