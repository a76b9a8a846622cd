"""ShapeSearch execution engine (paper §5–§6)."""

from repro.engine.cache import CacheStats, EngineCache, LRUCache
from repro.engine.chains import Chain, ChainUnit, CompiledQuery, compile_query
from repro.engine.executor import ALGORITHMS, ExecutionStats, Match, ShapeSearchEngine
from repro.engine.parallel import WorkerPool
from repro.engine.statistics import PrefixStats, SummaryStats
from repro.engine.trendline import Trendline, build_trendline

__all__ = [
    "Chain",
    "ChainUnit",
    "CompiledQuery",
    "compile_query",
    "ALGORITHMS",
    "ExecutionStats",
    "Match",
    "ShapeSearchEngine",
    "WorkerPool",
    "EngineCache",
    "LRUCache",
    "CacheStats",
    "PrefixStats",
    "SummaryStats",
    "Trendline",
    "build_trendline",
]
