"""Unit tests for the result-caching subsystem."""

import numpy as np
import pytest

from repro.algebra import builder as q
from repro.api import parse_query
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine.cache import (
    EngineCache,
    LRUCache,
    canonical_query_text,
    coerce_cache,
    plan_fingerprint,
    table_fingerprint,
    trendline_cache_key,
)
from repro.engine.executor import ShapeSearchEngine
from repro.engine.pushdown import PushdownPlan


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", "fallback") == "fallback"

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # promote "a"; "b" becomes the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache

    def test_put_overwrites_and_promotes(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite promotes
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_stats_accounting(self):
        cache = LRUCache(capacity=1)
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts "a"
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.evictions == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_defined_when_unused(self):
        assert LRUCache().stats.hit_rate == 0.0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_evict_listener_sees_evicted_values(self):
        dropped = []
        cache = LRUCache(capacity=2)
        cache.add_evict_listener(dropped.append)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert dropped == [1]
        cache.put("d", 4)  # evicts "b"
        assert dropped == [1, 2]

    def test_evict_listener_not_called_on_overwrite(self):
        dropped = []
        cache = LRUCache(capacity=2)
        cache.add_evict_listener(dropped.append)
        cache.put("a", 1)
        cache.put("a", 10)
        assert dropped == []

    def test_evict_listeners_deduplicated(self):
        dropped = []
        cache = LRUCache(capacity=1)
        cache.add_evict_listener(dropped.append)
        cache.add_evict_listener(dropped.append)
        cache.put("a", 1)
        cache.put("b", 2)
        assert dropped == [1]

    def test_clear(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0


class TestTableFingerprint:
    def _table(self, values):
        return Table.from_arrays(
            z=np.array(["a", "a", "b", "b"], dtype=object),
            x=np.array([0.0, 1.0, 0.0, 1.0]),
            y=np.asarray(values, dtype=float),
        )

    def test_identical_content_same_fingerprint(self):
        assert table_fingerprint(self._table([1, 2, 3, 4])) == table_fingerprint(
            self._table([1, 2, 3, 4])
        )

    def test_changed_value_changes_fingerprint(self):
        assert table_fingerprint(self._table([1, 2, 3, 4])) != table_fingerprint(
            self._table([1, 2, 3, 5])
        )

    def test_renamed_column_changes_fingerprint(self):
        base = self._table([1, 2, 3, 4])
        renamed = Table.from_arrays(
            z=base.column("z"), x=base.column("x"), y2=base.column("y")
        )
        assert table_fingerprint(base) != table_fingerprint(renamed)

    def test_fingerprint_memoized_on_instance(self):
        table = self._table([1, 2, 3, 4])
        first = table_fingerprint(table)
        assert table._fingerprint == first
        assert table_fingerprint(table) is first

    def test_columns_read_only_so_memo_cannot_go_stale(self):
        table = self._table([1, 2, 3, 4])
        table_fingerprint(table)
        with pytest.raises(ValueError):
            table.column("y")[0] = 99.0

    def test_caller_buffer_mutation_cannot_reach_table(self):
        source = np.array([1.0, 2.0, 3.0, 4.0])
        table = Table.from_arrays(
            z=np.array(["a", "a", "b", "b"], dtype=object),
            x=np.array([0.0, 1.0, 0.0, 1.0]),
            y=source,
        )
        fingerprint = table_fingerprint(table)
        source[:] = 0.0  # the caller's own array stays writable...
        # ...but the table copied it, so contents and fingerprint hold.
        assert float(table.column("y")[0]) == 1.0
        assert table_fingerprint(table) == fingerprint


class TestKeys:
    def test_trendline_key_varies_with_params(self):
        table = Table.from_arrays(
            z=np.array(["a", "a"], dtype=object), x=np.array([0.0, 1.0]), y=np.array([1.0, 2.0])
        )
        base = VisualParams(z="z", x="x", y="y")
        binned = VisualParams(z="z", x="x", y="y", bin_width=2.0)
        assert trendline_cache_key(table, base, True) != trendline_cache_key(
            table, binned, True
        )
        assert trendline_cache_key(table, base, True) != trendline_cache_key(
            table, base, False
        )

    def test_plan_fingerprint_trivial_plans_share_none(self):
        assert plan_fingerprint(None) is None
        assert plan_fingerprint(PushdownPlan(has_eager_checks=True)) is None

    def test_plan_fingerprint_captures_generation_effects(self):
        pinned = PushdownPlan(required_spans=[(0.0, 10.0)], keep_span=(0.0, 10.0))
        other = PushdownPlan(required_spans=[(0.0, 20.0)], keep_span=(0.0, 20.0))
        assert plan_fingerprint(pinned) is not None
        assert plan_fingerprint(pinned) != plan_fingerprint(other)

    def test_canonical_text_unifies_front_ends(self):
        built = canonical_query_text(q.concat(q.up(), q.down()))
        parsed = canonical_query_text(parse_query("[p=up][p=down]"))
        assert built == parsed


class TestCoerce:
    def test_none_and_false_disable(self):
        assert coerce_cache(None) is None
        assert coerce_cache(False) is None

    def test_true_builds_fresh_cache(self):
        cache = coerce_cache(True)
        assert isinstance(cache, EngineCache)
        assert coerce_cache(True) is not cache

    def test_instance_passes_through(self):
        cache = EngineCache.with_capacity(trendlines=2, plans=4)
        assert coerce_cache(cache) is cache
        assert cache.trendlines.capacity == 2
        assert cache.plans.capacity == 4

    def test_invalid_rejected(self):
        with pytest.raises(TypeError):
            coerce_cache("big")


class TestEngineIntegration:
    def _table(self, seed=0):
        rng = np.random.default_rng(seed)
        zs, xs, ys = [], [], []
        for key in ("a", "b", "c"):
            series = rng.normal(0, 1, 25).cumsum()
            for index, value in enumerate(series):
                zs.append(key)
                xs.append(float(index))
                ys.append(float(value))
        return Table.from_arrays(z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys))

    def test_repeat_query_hits_both_caches(self):
        engine = ShapeSearchEngine(cache=True)
        table = self._table()
        params = VisualParams(z="z", x="x", y="y")
        query = q.concat(q.up(), q.down())
        first = engine.run(table, params, query, k=2)
        second = engine.run(table, params, query, k=2)
        assert not first.stats.trendline_cache_hit and not first.stats.plan_cache_hit
        assert second.stats.trendline_cache_hit and second.stats.plan_cache_hit
        assert [(m.key, m.score) for m in first] == [(m.key, m.score) for m in second]

    def test_cached_results_identical_to_uncached(self):
        table = self._table()
        params = VisualParams(z="z", x="x", y="y")
        query = q.concat(q.up(), q.down())
        plain = ShapeSearchEngine().run(table, params, query, k=3)
        cached_engine = ShapeSearchEngine(cache=True)
        cached_engine.run(table, params, query, k=3)  # warm
        warm = cached_engine.run(table, params, query, k=3)
        assert [(m.key, m.score) for m in plain] == [(m.key, m.score) for m in warm]

    def test_data_change_misses_cache(self):
        engine = ShapeSearchEngine(cache=True)
        params = VisualParams(z="z", x="x", y="y")
        query = q.concat(q.up(), q.down())
        engine.run(table=self._table(seed=0), params=params, query=query, k=2)
        stats = engine.run(
            table=self._table(seed=1), params=params, query=query, k=2
        ).stats
        assert not stats.trendline_cache_hit
        assert stats.plan_cache_hit  # the plan is data-independent

    def test_shared_cache_across_engines(self):
        shared = EngineCache()
        table = self._table()
        params = VisualParams(z="z", x="x", y="y")
        query = q.concat(q.up(), q.down())
        ShapeSearchEngine(cache=shared).run(table, params, query, k=2)
        stats = ShapeSearchEngine(cache=shared).run(
            table, params, query, k=2
        ).stats
        assert stats.trendline_cache_hit and stats.plan_cache_hit

    def test_disabled_cache_never_hits(self):
        engine = ShapeSearchEngine()
        table = self._table()
        params = VisualParams(z="z", x="x", y="y")
        query = q.concat(q.up(), q.down())
        engine.run(table, params, query, k=2)
        stats = engine.run(table, params, query, k=2).stats
        assert engine.cache is None
        assert not stats.trendline_cache_hit and not stats.plan_cache_hit


class TestBytesBudget:
    """LRUCache with a byte budget: cost-tracked entries and eviction."""

    def test_validation(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=2, max_bytes=0)
        with pytest.raises(ValueError):
            LRUCache(capacity=2, max_bytes=-1)

    def test_cost_is_tracked_and_released(self):
        cache = LRUCache(capacity=8, max_bytes=100)
        cache.put("a", "x", cost=40)
        cache.put("b", "y", cost=40)
        assert cache.stats.bytes == 80
        cache.put("c", "z", cost=40)  # evicts "a", the LRU entry
        assert cache.stats.bytes == 80
        assert cache.get("a") is None
        assert cache.get("b") == "y"
        assert cache.get("c") == "z"

    def test_oversized_entry_is_rejected_outright(self):
        cache = LRUCache(capacity=8, max_bytes=100)
        cache.put("small", "x", cost=10)
        cache.put("huge", "y", cost=101)  # can never fit: dropped, no eviction
        assert cache.get("huge") is None
        assert cache.get("small") == "x"
        assert cache.stats.bytes == 10

    def test_overwrite_adjusts_accounting(self):
        cache = LRUCache(capacity=8, max_bytes=100)
        cache.put("k", "v1", cost=60)
        cache.put("k", "v2", cost=20)
        assert cache.stats.bytes == 20
        assert cache.get("k") == "v2"

    def test_recency_decides_the_victim(self):
        cache = LRUCache(capacity=8, max_bytes=90)
        cache.put("a", 1, cost=30)
        cache.put("b", 2, cost=30)
        cache.put("c", 3, cost=30)
        assert cache.get("a") == 1  # promote "a"; "b" is now the LRU
        cache.put("d", 4, cost=30)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3 and cache.get("d") == 4

    def test_clear_resets_bytes(self):
        cache = LRUCache(capacity=8, max_bytes=100)
        cache.put("a", "x", cost=75)
        cache.clear()
        assert cache.stats.bytes == 0
        cache.put("b", "y", cost=100)  # the full budget is available again
        assert cache.get("b") == "y"
