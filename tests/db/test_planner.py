"""Planner behaviour tests against the tiny schema.

Every plan checked here is also a single-query equivalence input: it
must be repr-equal to the scalar reference planner's.
"""

import pytest

from repro.db.cost_model import PlannerCosts
from repro.db.indexes import Index
from repro.db.planner import Planner
from tests.oracles import plan_many_scalar, reference_mode


def plan_for(engine, sql):
    """``engine.explain(sql)``, asserted repr-equal to the oracle's plan."""
    engine._plan_cache.clear()
    with reference_mode():
        reference = engine.explain(sql)
    engine._plan_cache.clear()
    plan = engine.explain(sql)
    assert repr(plan) == repr(reference)
    return plan


class TestScanChoice:
    def test_seq_scan_without_indexes(self, pg_engine):
        plan = plan_for(pg_engine, "SELECT count(*) FROM events WHERE events.kind = 'x'")
        assert plan.scans[0].method == "seq"

    def test_index_scan_with_selective_filter(self, pg_engine):
        pg_engine.create_index(Index("events", ("payload",)))
        pg_engine.set_knob("random_page_cost", 1.1)
        plan = plan_for(
            pg_engine, "SELECT count(*) FROM events WHERE events.payload = 'x'"
        )
        assert plan.scans[0].method == "index"

    def test_high_random_page_cost_discourages_index(self, pg_engine):
        pg_engine.create_index(Index("events", ("kind",)))
        pg_engine.set_knob("random_page_cost", 100.0)
        pg_engine.set_knob("effective_cache_size", 8192)
        plan = plan_for(
            pg_engine, "SELECT count(*) FROM events WHERE events.kind = 'x'"
        )
        assert plan.scans[0].method == "seq"

    def test_unselective_predicate_prefers_seq(self, pg_engine):
        pg_engine.create_index(Index("events", ("kind",)))
        plan = plan_for(
            pg_engine, "SELECT count(*) FROM events WHERE events.kind <> 'x'"
        )
        assert plan.scans[0].method == "seq"

    def test_filtered_cardinality_reduces_out_rows(self, pg_engine):
        plan = plan_for(
            pg_engine, "SELECT count(*) FROM events WHERE events.kind = 'x'"
        )
        scan = plan.scans[0]
        assert scan.out_rows < scan.in_rows


class TestJoins:
    JOIN_SQL = (
        "SELECT u.country, count(*) FROM users u, events e "
        "WHERE u.user_id = e.user_id2 GROUP BY u.country"
    )

    def test_hash_join_default(self, pg_engine):
        plan = plan_for(pg_engine, self.JOIN_SQL)
        assert plan.joins[0].method == "hash"

    def test_join_condition_recorded(self, pg_engine):
        plan = plan_for(pg_engine, self.JOIN_SQL)
        assert plan.joins[0].condition is not None
        costs = plan.join_estimated_costs()
        assert len(costs) == 1
        assert list(costs.values())[0] > 0

    def test_indexed_nestloop_when_enabled(self, pg_engine):
        pg_engine.create_index(Index("events", ("user_id2",)))
        pg_engine.set_knob("random_page_cost", 1.1)
        pg_engine.set_knob("effective_cache_size", "45GB")
        plan = plan_for(pg_engine, self.JOIN_SQL)
        assert plan.joins[0].method == "nestloop"
        assert plan.joins[0].index is not None

    def test_inl_inner_scan_not_double_counted(self, pg_engine):
        pg_engine.create_index(Index("events", ("user_id2",)))
        pg_engine.set_knob("random_page_cost", 1.1)
        pg_engine.set_knob("effective_cache_size", "45GB")
        plan = plan_for(pg_engine, self.JOIN_SQL)
        probe_scans = [s for s in plan.scans if s.method == "probe"]
        assert probe_scans and all(s.actual_cost == 0.0 for s in probe_scans)

    def test_disabling_hashjoin_changes_method(self, pg_engine):
        pg_engine.set_knob("enable_hashjoin", False)
        pg_engine.set_knob("enable_nestloop", False)
        plan = plan_for(pg_engine, self.JOIN_SQL)
        assert plan.joins[0].method == "merge"

    def test_all_joins_disabled_falls_back_to_nestloop(self, pg_engine):
        for knob in ("enable_hashjoin", "enable_mergejoin", "enable_nestloop"):
            pg_engine.set_knob(knob, False)
        plan = plan_for(pg_engine, self.JOIN_SQL)
        assert plan.joins[0].method == "nestloop"

    def test_cross_product_when_no_condition(self, pg_engine):
        plan = plan_for(pg_engine, "SELECT count(*) FROM users, events")
        assert plan.joins[0].method == "cross"
        assert plan.joins[0].estimated_cost > 1e6

    def test_smaller_filtered_side_drives_join_order(self, pg_engine):
        plan = plan_for(
            pg_engine,
            "SELECT count(*) FROM users u, events e "
            "WHERE u.user_id = e.user_id2 AND u.age = 30",
        )
        # users shrinks to ~125 rows and should be scanned first.
        assert plan.scans[0].table == "users"


class TestPostProcessing:
    def test_group_by_adds_cost(self, pg_engine):
        flat = plan_for(pg_engine, "SELECT count(*) FROM events")
        grouped = plan_for(
            pg_engine, "SELECT events.kind, count(*) FROM events GROUP BY events.kind"
        )
        assert grouped.post_actual_cost > flat.post_actual_cost

    def test_order_by_adds_cost(self, pg_engine):
        plain = plan_for(
            pg_engine, "SELECT events.kind, count(*) FROM events GROUP BY events.kind"
        )
        ordered = plan_for(
            pg_engine,
            "SELECT events.kind, count(*) FROM events GROUP BY events.kind "
            "ORDER BY events.kind",
        )
        assert ordered.post_actual_cost > plain.post_actual_cost

    def test_empty_from_plan(self, pg_engine):
        plan = plan_for(pg_engine, "SELECT 1")
        assert plan.out_rows == 1.0
        assert plan.actual_cost == 0.0


class TestEstimatedVsActualSeparation:
    def test_planner_constants_change_estimates_not_actuals(self, pg_engine):
        sql = "SELECT count(*) FROM events WHERE events.kind = 'x'"
        before = plan_for(pg_engine, sql)
        pg_engine.set_knob("cpu_tuple_cost", 0.09)
        after = plan_for(pg_engine, sql)
        assert after.estimated_cost > before.estimated_cost
        # No plan change is possible here (no indexes), so actual cost
        # must be identical.
        assert after.actual_cost == pytest.approx(before.actual_cost)

    def test_join_search_depth_one_degrades_order(self, tpch):
        from repro.db.postgres import PostgresEngine

        engine = PostgresEngine(tpch.catalog)
        query = tpch.query("q5")
        full = engine.explain(query).actual_cost

        planner = Planner(
            tpch.catalog,
            {},
            PlannerCosts(join_search_depth=1),
            engine._runtime_env(),  # noqa: SLF001 - test introspection
        )
        truncated = planner.plan_many([query.info])[0]
        assert repr(truncated) == repr(plan_many_scalar(planner, [query.info])[0])
        assert truncated.actual_cost >= full
