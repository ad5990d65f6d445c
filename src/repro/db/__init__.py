"""In-memory database substrate with a simulated client/server boundary."""

from .connection import Connection, ConnectionStats, CostParameters, describe_plan
from .engine import (
    Database,
    EngineDivergenceError,
    EngineError,
    ReferenceEvaluator,
    UnknownTableError,
)
from .stats import (
    STATS_EXACT_MAX,
    STATS_SAMPLE_SIZE,
    CardinalityEstimator,
    ColumnStats,
    Histogram,
    TableStats,
    build_sampled_table_stats,
    estimate_ndv,
)
from .types import Row, row_size_bytes, value_size_bytes

__all__ = [
    "STATS_EXACT_MAX",
    "STATS_SAMPLE_SIZE",
    "CardinalityEstimator",
    "ColumnStats",
    "Connection",
    "ConnectionStats",
    "CostParameters",
    "Database",
    "EngineDivergenceError",
    "EngineError",
    "Histogram",
    "ReferenceEvaluator",
    "Row",
    "TableStats",
    "UnknownTableError",
    "build_sampled_table_stats",
    "estimate_ndv",
    "describe_plan",
    "row_size_bytes",
    "value_size_bytes",
]
