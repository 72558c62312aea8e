"""Engine behaviour tests: config, indexes, execution, timeouts."""

import pytest

import repro.db.engine as engine_module
from repro.db.engine import shared_plan_cache
from repro.db.indexes import Index
from repro.db.postgres import PostgresEngine
from repro.errors import ConfigurationError, KnobError


JOIN_SQL = (
    "SELECT u.country, count(*) FROM users u, events e "
    "WHERE u.user_id = e.user_id2 GROUP BY u.country"
)


class TestConfiguration:
    def test_defaults_loaded(self, pg_engine):
        assert pg_engine.get("shared_buffers") == 128 * 1024**2

    def test_apply_config_advances_clock_by_restart(self, pg_engine):
        elapsed = pg_engine.apply_config({"work_mem": "64MB"})
        assert elapsed == pg_engine.restart_seconds
        assert pg_engine.clock.now == pg_engine.restart_seconds

    def test_empty_config_is_free(self, pg_engine):
        assert pg_engine.apply_config({}) == 0.0
        assert pg_engine.clock.now == 0.0

    def test_invalid_setting_rejected_atomically(self, pg_engine):
        before = pg_engine.config
        with pytest.raises(KnobError):
            pg_engine.apply_config({"work_mem": "64MB", "nonsense_knob": 1})
        assert pg_engine.config == before
        assert pg_engine.clock.now == 0.0

    def test_reset_config_restores_defaults(self, pg_engine):
        pg_engine.apply_config({"work_mem": "1GB"})
        pg_engine.reset_config()
        assert pg_engine.get("work_mem") == 4 * 1024**2

    def test_set_many_is_clock_free(self, pg_engine):
        pg_engine.set_many({"work_mem": "2GB"})
        assert pg_engine.clock.now == 0.0
        assert pg_engine.get("work_mem") == 2 * 1024**3

    def test_config_returns_copy(self, pg_engine):
        config = pg_engine.config
        config["work_mem"] = 0
        assert pg_engine.get("work_mem") != 0


class TestIndexLifecycle:
    def test_create_index_advances_clock(self, pg_engine):
        seconds = pg_engine.create_index(Index("events", ("kind",)))
        assert seconds > 0
        assert pg_engine.clock.now == pytest.approx(seconds)

    def test_create_index_idempotent(self, pg_engine):
        index = Index("events", ("kind",))
        pg_engine.create_index(index)
        assert pg_engine.create_index(index) == 0.0

    def test_index_creation_seconds_estimate_matches(self, pg_engine):
        index = Index("events", ("kind",))
        estimate = pg_engine.index_creation_seconds(index)
        actual = pg_engine.create_index(index)
        assert estimate == pytest.approx(actual)
        assert pg_engine.index_creation_seconds(index) == 0.0

    def test_drop_index(self, pg_engine):
        index = Index("events", ("kind",))
        pg_engine.create_index(index)
        pg_engine.drop_index(index)
        assert not pg_engine.has_index(index)

    def test_drop_missing_index_is_free(self, pg_engine):
        assert pg_engine.drop_index(Index("events", ("kind",))) == 0.0

    def test_drop_all_indexes(self, pg_engine):
        pg_engine.create_index(Index("events", ("kind",)))
        pg_engine.create_index(Index("users", ("age",)))
        pg_engine.drop_all_indexes()
        assert pg_engine.indexes == []

    def test_invalid_index_rejected(self, pg_engine):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            pg_engine.create_index(Index("events", ("missing",)))

    def test_hypothetical_indexes_are_free_and_transient(self, pg_engine):
        index = Index("events", ("user_id2",))
        before = pg_engine.estimate_seconds(JOIN_SQL)
        pg_engine.set_knob("random_page_cost", 1.1)
        pg_engine.set_knob("effective_cache_size", "45GB")
        with pg_engine.hypothetical_indexes([index]):
            during = pg_engine.estimate_seconds(JOIN_SQL)
            assert pg_engine.has_index(index)
        assert not pg_engine.has_index(index)
        assert pg_engine.clock.now == 0.0
        assert during != before

    def test_hypothetical_does_not_steal_existing(self, pg_engine):
        index = Index("events", ("kind",))
        pg_engine.create_index(index)
        with pg_engine.hypothetical_indexes([index]):
            pass
        assert pg_engine.has_index(index)


class TestExecution:
    def test_execute_complete(self, pg_engine):
        result = pg_engine.execute(JOIN_SQL)
        assert result.complete
        assert result.execution_time > 0
        assert pg_engine.clock.now == pytest.approx(result.execution_time)

    def test_execute_with_sufficient_timeout(self, pg_engine):
        result = pg_engine.execute(JOIN_SQL, timeout=1e9)
        assert result.complete

    def test_timeout_interrupts_and_charges_timeout(self, pg_engine):
        full = pg_engine.estimate_seconds(JOIN_SQL)
        result = pg_engine.execute(JOIN_SQL, timeout=full / 2)
        assert not result.complete
        assert result.execution_time == pytest.approx(full / 2)
        assert pg_engine.clock.now == pytest.approx(full / 2)

    def test_nonpositive_timeout_executes_nothing(self, pg_engine):
        result = pg_engine.execute(JOIN_SQL, timeout=0.0)
        assert not result.complete
        assert result.execution_time == 0.0
        assert pg_engine.clock.now == 0.0

    def test_execution_deterministic(self, pg_engine):
        a = pg_engine.execute(JOIN_SQL).execution_time
        b = pg_engine.execute(JOIN_SQL).execution_time
        assert a == b

    def test_estimate_does_not_advance_clock(self, pg_engine):
        pg_engine.estimate_seconds(JOIN_SQL)
        assert pg_engine.clock.now == 0.0

    def test_execute_query_object(self, pg_engine, tiny_workload):
        result = pg_engine.execute(tiny_workload.query("join_all"))
        assert result.complete

    def test_execute_rejects_garbage(self, pg_engine):
        with pytest.raises(ConfigurationError):
            pg_engine.execute(12345)

    def test_run_workload_totals(self, pg_engine, tiny_workload):
        total = pg_engine.run_workload(list(tiny_workload.queries))
        assert total == pytest.approx(pg_engine.clock.now)

    def test_plan_included_in_result(self, pg_engine):
        result = pg_engine.execute(JOIN_SQL)
        assert result.plan is not None
        assert result.plan.joins

    def test_config_change_invalidates_plan_cache(self, pg_engine):
        before = pg_engine.estimate_seconds(JOIN_SQL)
        pg_engine.set_many({"shared_buffers": "16GB", "work_mem": "1GB"})
        after = pg_engine.estimate_seconds(JOIN_SQL)
        assert after != before

    def test_query_info_cached(self, pg_engine):
        info1 = pg_engine.query_info(JOIN_SQL)
        info2 = pg_engine.query_info(JOIN_SQL)
        assert info1 is info2

    def test_snapshot_shape(self, pg_engine):
        snapshot = pg_engine.snapshot()
        assert snapshot["system"] == "postgres"
        assert "config" in snapshot and "indexes" in snapshot


class TestSharedPlanCacheValve:
    """The catalog-shared plan cache drops its oldest entries at the cap,
    so a long-lived process keeps the plans it made last."""

    def test_evicts_oldest_first(self, tiny_catalog, tiny_workload, monkeypatch):
        monkeypatch.setattr(engine_module, "_MAX_SHARED_CACHE_ENTRIES", 3)
        engine = PostgresEngine(tiny_catalog)
        reference = PostgresEngine(tiny_catalog, caches=False)
        plan_cache = shared_plan_cache(tiny_catalog)
        inserted = []
        for work_mem in ("4MB", "64MB", "1GB"):
            engine.set_knob("work_mem", work_mem)
            reference.set_knob("work_mem", work_mem)
            for query in tiny_workload.queries:
                known = set(plan_cache)
                result = engine.execute(query)
                expected = reference.execute(query)
                assert repr(result.execution_time) == repr(expected.execution_time)
                inserted.extend(key for key in plan_cache if key not in known)
                assert len(plan_cache) <= 3
        assert len(inserted) == 9
        assert list(plan_cache) == inserted[-3:]
        assert repr(engine.clock.now) == repr(reference.clock.now)

    def test_batch_larger_than_the_cap(
        self, tiny_catalog, tiny_workload, monkeypatch
    ):
        """A batch planning more queries than the cap evicts its own
        first plans from the shared cache and still returns them all."""
        monkeypatch.setattr(engine_module, "_MAX_SHARED_CACHE_ENTRIES", 2)
        queries = list(tiny_workload.queries)
        engine = PostgresEngine(tiny_catalog)
        reference = PostgresEngine(tiny_catalog, caches=False)
        for _ in range(2):
            batch = engine.execute_many(queries)
            expected = reference.execute_many(queries)
            assert batch.times.tolist() == expected.times.tolist()
            assert len(shared_plan_cache(tiny_catalog)) == 2
