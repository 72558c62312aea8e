"""Evaluator memoization: hits, invalidation, transparency.

The evaluator caches query-index maps, index-cost maps and scheduler
orders keyed by (pending queries, configuration content, engine state
signature).  These tests verify that

- repeated calls with unchanged inputs reuse the memoized DP order,
- any change to the engine's physical design or knob settings, the
  configuration content, or the pending-query set invalidates the
  cached order,
- cached and uncached evaluators return identical results.
"""

import pytest

import repro.core.evaluator as evaluator_module
from repro.core.config import Configuration
from repro.core.evaluator import ConfigurationEvaluator
from repro.db.indexes import Index
from repro.db.postgres import PostgresEngine


@pytest.fixture()
def config(pg_engine):
    return Configuration(
        name="cache-probe",
        settings={"work_mem": "64MB"},
        indexes=[Index("events", ("user_id2",)), Index("users", ("age",))],
    )


@pytest.fixture()
def count_dp(monkeypatch):
    """Count invocations of the DP core inside plan_order."""
    calls = {"n": 0}
    real = evaluator_module.compute_order_dp

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluator_module, "compute_order_dp", counting)
    return calls


class TestOrderCacheHits:
    def test_repeat_call_reuses_order(
        self, pg_engine, tiny_workload, config, count_dp
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        queries = list(tiny_workload.queries)
        first = evaluator.plan_order(queries, config)
        second = evaluator.plan_order(queries, config)
        assert count_dp["n"] == 1
        assert [q.name for q in first] == [q.name for q in second]

    def test_caches_disabled_recomputes(
        self, pg_engine, tiny_workload, config, count_dp
    ):
        evaluator = ConfigurationEvaluator(
            PostgresEngine(pg_engine.catalog, caches=False)
        )
        queries = list(tiny_workload.queries)
        evaluator.plan_order(queries, config)
        evaluator.plan_order(queries, config)
        assert count_dp["n"] == 2


class TestOrderCacheInvalidation:
    def test_engine_index_change_invalidates(
        self, pg_engine, tiny_workload, config, count_dp
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        queries = list(tiny_workload.queries)
        evaluator.plan_order(queries, config)
        # A new physical index zeroes its creation cost, changing the
        # DP input -- the memoized order must not be reused.
        pg_engine.create_index(Index("events", ("user_id2",)))
        evaluator.plan_order(queries, config)
        assert count_dp["n"] == 2

    def test_engine_knob_change_invalidates(
        self, pg_engine, tiny_workload, config, count_dp
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        queries = list(tiny_workload.queries)
        evaluator.plan_order(queries, config)
        # maintenance memory sizes index builds => different DP costs.
        pg_engine.set_knob("maintenance_work_mem", "1GB")
        evaluator.plan_order(queries, config)
        assert count_dp["n"] == 2

    def test_config_content_change_invalidates(
        self, pg_engine, tiny_workload, config, count_dp
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        queries = list(tiny_workload.queries)
        evaluator.plan_order(queries, config)
        mutated = Configuration(
            name=config.name,
            settings=dict(config.settings),
            indexes=list(config.indexes) + [Index("users", ("country",))],
        )
        evaluator.plan_order(queries, mutated)
        assert count_dp["n"] == 2

    def test_pending_set_change_invalidates(
        self, pg_engine, tiny_workload, config, count_dp
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        queries = list(tiny_workload.queries)
        evaluator.plan_order(queries, config)
        evaluator.plan_order(queries[1:], config)
        assert count_dp["n"] == 2


class TestEvictionKeepsRecentEntries:
    def make_config(self, position: int) -> Configuration:
        return Configuration(
            name=f"stream-{position}",
            settings={"work_mem": f"{16 + position}MB"},
            indexes=[Index("events", ("user_id2",))],
        )

    def test_pathological_stream_keeps_hit_rate_nonzero(
        self, pg_engine, tiny_workload, config, count_dp, monkeypatch
    ):
        """A stream of distinct configurations overflowing the cache must
        evict oldest-first, not clear wholesale: the configurations of
        the *current* selection round (inserted last) keep hitting."""
        monkeypatch.setattr(evaluator_module, "_MAX_CACHE_ENTRIES", 4)
        evaluator = ConfigurationEvaluator(pg_engine)
        queries = list(tiny_workload.queries)

        stream = [self.make_config(position) for position in range(10)]
        for candidate in stream:
            evaluator.plan_order(queries, candidate)
        filled = count_dp["n"]
        assert filled == len(stream)
        assert len(evaluator._order_cache) == 4

        # The four most-recent configurations survive: re-planning them
        # is pure cache hits (the old clear-on-overflow emptied the
        # cache here, forcing a DP recomputation for every one).
        for candidate in stream[-4:]:
            evaluator.plan_order(queries, candidate)
        assert count_dp["n"] == filled

        # The evicted oldest entries recompute -- and evict the current
        # front, never the entries just inserted.
        evaluator.plan_order(queries, stream[0])
        assert count_dp["n"] == filled + 1
        assert len(evaluator._order_cache) == 4

    def test_eviction_is_oldest_first(self, pg_engine, tiny_workload, monkeypatch):
        monkeypatch.setattr(evaluator_module, "_MAX_CACHE_ENTRIES", 2)
        evaluator = ConfigurationEvaluator(pg_engine)
        queries = list(tiny_workload.queries)
        keys = []
        for position in range(4):
            evaluator.plan_order(queries, self.make_config(position))
            keys.append(list(evaluator._order_cache))
        assert len(keys[-1]) == 2
        # Each overflow drops the front entry; the newest key is always last.
        assert keys[2][0] == keys[1][1]
        assert keys[3][0] == keys[2][1]


class TestCacheTransparency:
    def test_cached_and_uncached_orders_identical(
        self, pg_engine, tiny_workload, config
    ):
        queries = list(tiny_workload.queries)
        cached = ConfigurationEvaluator(pg_engine)
        uncached = ConfigurationEvaluator(
            PostgresEngine(pg_engine.catalog, caches=False)
        )
        for pending in (queries, queries[1:], queries):
            assert [
                q.name for q in cached.plan_order(pending, config)
            ] == [q.name for q in uncached.plan_order(pending, config)]

    def test_index_cost_map_tracks_engine_state(self, pg_engine, config):
        evaluator = ConfigurationEvaluator(pg_engine)
        before = evaluator.index_cost_map(config)
        target = config.indexes[0]
        assert before[target] > 0.0
        pg_engine.create_index(target)
        after = evaluator.index_cost_map(config)
        assert after[target] == 0.0
