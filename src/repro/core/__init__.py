"""Core algorithms: SK search, diversification, and the Database facade."""

from .analysis import CostModel
from .core_pairs import CorePair, CorePairMaintainer
from .database import INDEX_KINDS, Database
from .diversify import greedy_diversify
from .ine import ExpansionStats, INEExpansion
from .objective import DiversificationObjective
from .queries import (
    DiversifiedResult,
    DiversifiedSKQuery,
    QueryStats,
    ResultItem,
    SKQuery,
    SKResult,
)

__all__ = [
    "CostModel",
    "CorePair",
    "CorePairMaintainer",
    "INDEX_KINDS",
    "Database",
    "greedy_diversify",
    "ExpansionStats",
    "INEExpansion",
    "DiversificationObjective",
    "DiversifiedResult",
    "DiversifiedSKQuery",
    "QueryStats",
    "ResultItem",
    "SKQuery",
    "SKResult",
]
