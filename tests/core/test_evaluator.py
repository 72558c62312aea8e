"""Configuration evaluator tests (Algorithm 3)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import Configuration
from repro.core.evaluator import ConfigMeta, ConfigurationEvaluator
from repro.db.indexes import Index
from repro.db.postgres import PostgresEngine
from tests.oracles import decode_index_map, query_index_map_reference


@pytest.fixture()
def config_with_index():
    return Configuration(
        name="c1",
        settings={"work_mem": "64MB"},
        indexes=[Index("events", ("user_id2",)), Index("users", ("age",))],
    )


class TestConfigMeta:
    def test_initial_state_matches_paper_table2(self):
        meta = ConfigMeta()
        assert meta.time == 0.0
        assert meta.is_complete is False
        assert meta.index_time == 0.0
        assert meta.completed_queries == set()

    def test_throughput(self):
        meta = ConfigMeta(time=2.0, completed_queries={"a", "b"})
        assert meta.throughput() == 1.0
        assert ConfigMeta().throughput() == 0.0


class TestQueryIndexMap:
    def test_join_column_index_is_relevant(
        self, pg_engine, tiny_workload, config_with_index
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        mapping = decode_index_map(
            evaluator,
            evaluator.query_index_map(list(tiny_workload.queries), config_with_index),
            config_with_index,
        )
        join_indexes = {index.name for index in mapping["join_all"]}
        assert "idx_events_user_id2" in join_indexes

    def test_unrelated_index_not_relevant(
        self, pg_engine, tiny_workload, config_with_index
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        mapping = decode_index_map(
            evaluator,
            evaluator.query_index_map(list(tiny_workload.queries), config_with_index),
            config_with_index,
        )
        # kind_filter touches events.kind/payload only.
        assert all(
            index.name != "idx_users_age" for index in mapping["kind_filter"]
        )

    def test_filter_column_index_is_relevant(self, pg_engine, tiny_workload):
        config = Configuration("c", indexes=[Index("users", ("country",))])
        evaluator = ConfigurationEvaluator(pg_engine)
        mapping = evaluator.query_index_map(list(tiny_workload.queries), config)
        assert mapping["by_country"]


    def test_pending_subset_is_restriction_of_full_map(self, job):
        config = Configuration(
            "c",
            indexes=[
                Index("cast_info", ("movie_id",)),
                Index("movie_info", ("movie_id", "info_type_id")),
                Index("title", ("id",)),
                Index("title", ("production_year",)),
            ],
        )
        cached = ConfigurationEvaluator(PostgresEngine(job.catalog))
        uncached = ConfigurationEvaluator(
            PostgresEngine(job.catalog, caches=False)
        )
        queries = list(job.queries)
        full = cached.query_index_map(queries, config)
        assert full == uncached.query_index_map(queries, config)
        for pending in (queries[5:], queries[::3], queries[-1:], []):
            mapping = cached.query_index_map(pending, config)
            assert mapping == {query.name: full[query.name] for query in pending}
            assert mapping == uncached.query_index_map(pending, config)

    def test_settings_only_configs_share_relevance(self, pg_engine, tiny_workload):
        indexes = [Index("events", ("user_id2",)), Index("users", ("age",))]
        first = Configuration("a", settings={"work_mem": "64MB"}, indexes=indexes)
        second = Configuration(
            "b", settings={"work_mem": "8MB"}, indexes=list(indexes)
        )
        evaluator = ConfigurationEvaluator(pg_engine)
        queries = list(tiny_workload.queries)
        a = evaluator.query_index_map(queries, first)
        b = evaluator.query_index_map(queries, second)
        assert all(b[name] is a[name] for name in a)

    def test_same_name_other_sql_does_not_share(self, pg_engine, tiny_catalog):
        from repro.workloads.base import Query

        by_age = Query.from_sql(
            "q", "SELECT count(*) FROM users WHERE age > 30", tiny_catalog
        )
        by_kind = Query.from_sql(
            "q", "SELECT count(*) FROM events WHERE kind = 'x'", tiny_catalog
        )
        config = Configuration(
            "c", indexes=[Index("users", ("age",)), Index("events", ("kind",))]
        )
        evaluator = ConfigurationEvaluator(pg_engine)
        age_map = evaluator.query_index_map([by_age], config)
        kind_map = evaluator.query_index_map([by_kind], config)
        ages = decode_index_map(evaluator, age_map, config)["q"]
        kinds = decode_index_map(evaluator, kind_map, config)["q"]
        assert {index.name for index in ages} == {"idx_users_age"}
        assert {index.name for index in kinds} == {"idx_events_kind"}
        fresh = ConfigurationEvaluator(
            PostgresEngine(tiny_catalog, caches=False)
        )
        assert kind_map == fresh.query_index_map([by_kind], config)


@st.composite
def index_lists(draw, catalog):
    """Config index lists on ``catalog``: multi-column indexes, and maybe
    a repeated entry and one key under a second name."""
    tables = catalog.tables
    indexes = []
    for _ in range(draw(st.integers(0, 10))):
        table = draw(st.sampled_from(tables))
        columns = draw(
            st.lists(
                st.sampled_from(sorted(table.columns)),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        indexes.append(Index(table.name, tuple(columns)))
    if indexes and draw(st.booleans()):
        indexes.append(draw(st.sampled_from(indexes)))
    if indexes and draw(st.booleans()):
        twin = draw(st.sampled_from(indexes))
        indexes.append(Index(twin.table, twin.columns, name=f"{twin.name}_twin"))
    return draw(st.permutations(indexes))


class TestRelevanceMatchesReference:
    """Masks, decoded over ``index_universe``, against the pair-by-pair
    relevance oracle in ``tests/oracles/evaluator.py``."""

    @pytest.mark.parametrize("caches", [True, False])
    @pytest.mark.parametrize("workload", ["tiny_workload", "tpch", "job"])
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_decoded_masks_equal_reference(self, request, workload, caches, data):
        workload = request.getfixturevalue(workload)
        queries = list(workload.queries)
        config = Configuration("c", indexes=data.draw(index_lists(workload.catalog)))
        evaluator = ConfigurationEvaluator(
            PostgresEngine(workload.catalog, caches=caches)
        )
        universe = evaluator.index_universe(config)
        assert universe == tuple(sorted(set(config.indexes), key=str))
        expected = query_index_map_reference(queries, config)
        pending = queries[data.draw(st.integers(0, len(queries))) :]
        for subset in (queries, pending, queries):
            masks = evaluator.query_index_map(subset, config)
            assert list(masks) == [query.name for query in subset]
            assert decode_index_map(evaluator, masks, config) == {
                query.name: expected[query.name] for query in subset
            }


class TestEvaluate:
    def test_complete_run_updates_meta(
        self, pg_engine, tiny_workload, config_with_index
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        meta = ConfigMeta()
        evaluator.evaluate(
            config_with_index, list(tiny_workload.queries), 1e9, meta
        )
        assert meta.is_complete
        assert meta.completed_queries == {q.name for q in tiny_workload.queries}
        assert meta.time > 0

    def test_settings_applied(self, pg_engine, tiny_workload, config_with_index):
        evaluator = ConfigurationEvaluator(pg_engine)
        evaluator.evaluate(
            config_with_index, list(tiny_workload.queries), 1e9, ConfigMeta()
        )
        assert pg_engine.get("work_mem") == 64 * 1024**2

    def test_indexes_dropped_after_evaluation(
        self, pg_engine, tiny_workload, config_with_index
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        evaluator.evaluate(
            config_with_index, list(tiny_workload.queries), 1e9, ConfigMeta()
        )
        assert pg_engine.indexes == []

    def test_preexisting_indexes_survive(self, pg_engine, tiny_workload):
        existing = Index("users", ("user_id",))
        pg_engine.create_index(existing)
        config = Configuration(
            "c", indexes=[Index("events", ("user_id2",)), existing]
        )
        evaluator = ConfigurationEvaluator(pg_engine)
        evaluator.evaluate(config, list(tiny_workload.queries), 1e9, ConfigMeta())
        assert pg_engine.has_index(existing)
        assert len(pg_engine.indexes) == 1

    def test_timeout_interrupts_and_flags_incomplete(
        self, pg_engine, tiny_workload, config_with_index
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        meta = ConfigMeta()
        evaluator.evaluate(
            config_with_index, list(tiny_workload.queries), 1e-4, meta
        )
        assert not meta.is_complete
        assert len(meta.completed_queries) < len(tiny_workload.queries)

    def test_index_time_tracked_separately(
        self, pg_engine, tiny_workload, config_with_index
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        meta = ConfigMeta()
        evaluator.evaluate(
            config_with_index, list(tiny_workload.queries), 1e9, meta
        )
        assert meta.index_time > 0
        # Query time excludes index builds and reconfiguration.
        assert meta.time < pg_engine.clock.now

    def test_lazy_creation_skips_unreached_indexes(
        self, pg_engine, tiny_workload
    ):
        # An index relevant only to the join query; timeout so small that
        # only the cheapest no-index cluster runs first.
        config = Configuration("c", indexes=[Index("events", ("user_id2",))])
        evaluator = ConfigurationEvaluator(pg_engine)
        meta = ConfigMeta()
        evaluator.evaluate(config, list(tiny_workload.queries), 1e-4, meta)
        # Scheduler puts index-free queries first; the expensive events
        # index must not have been built for an interrupted run.
        assert meta.index_time == 0.0

    def test_eager_mode_builds_everything_upfront(
        self, pg_engine, tiny_workload, config_with_index
    ):
        evaluator = ConfigurationEvaluator(pg_engine, lazy_indexes=False)
        meta = ConfigMeta()
        evaluator.evaluate(
            config_with_index, list(tiny_workload.queries), 1e-4, meta
        )
        assert meta.index_time > 0  # paid despite the interrupt

    def test_resume_skips_completed_queries(
        self, pg_engine, tiny_workload, config_with_index
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        meta = ConfigMeta()
        all_queries = list(tiny_workload.queries)
        evaluator.evaluate(config_with_index, all_queries, 1e9, meta)
        first_time = meta.time
        pending = [
            q for q in all_queries if q.name not in meta.completed_queries
        ]
        assert pending == []
        evaluator.evaluate(config_with_index, pending, 1e9, meta)
        assert meta.time == first_time


class TestPlanOrder:
    def test_scheduler_puts_cheap_index_clusters_first(
        self, pg_engine, tiny_workload, config_with_index
    ):
        evaluator = ConfigurationEvaluator(pg_engine)
        order = evaluator.plan_order(list(tiny_workload.queries), config_with_index)
        names = [query.name for query in order]
        # by_country and kind_filter need no (or cheap) indexes; the
        # events join needs the expensive one and must come last.
        assert names[-1] == "join_all"

    def test_scheduler_disabled_preserves_order(
        self, pg_engine, tiny_workload, config_with_index
    ):
        evaluator = ConfigurationEvaluator(pg_engine, use_scheduler=False)
        order = evaluator.plan_order(list(tiny_workload.queries), config_with_index)
        assert [q.name for q in order] == [q.name for q in tiny_workload.queries]

    def test_large_workload_scheduling_within_cap(self, job, config_with_index):
        from repro.db.postgres import PostgresEngine

        engine = PostgresEngine(job.catalog)
        config = Configuration(
            "c",
            indexes=[
                Index("cast_info", ("movie_id",)),
                Index("movie_info", ("movie_id",)),
                Index("title", ("id",)),
            ],
        )
        evaluator = ConfigurationEvaluator(engine)
        order = evaluator.plan_order(list(job.queries), config)
        assert sorted(q.name for q in order) == sorted(
            q.name for q in job.queries
        )
