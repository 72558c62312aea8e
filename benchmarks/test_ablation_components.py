"""Ablation benches for design choices called out in DESIGN.md.

These go beyond the paper's Figure 6: they isolate the timeout
progression scheme, the scheduler policy, and the ILP snippet selector
against simpler alternatives.
"""

import math

import pytest

from repro.core.prompt.ilp import select_snippets
from repro.core.scheduler import compute_order_dp, expected_cost, greedy_order
from repro.db.postgres import PostgresEngine
from repro.sql.analyzer import JoinCondition
from repro.workloads import load_workload
from tests.oracles import compute_order_dp_sets, decode_mask

pytestmark = pytest.mark.slow


class TestTimeoutProgression:
    """Geometric vs linear timeout progressions (Theorem 4.3 motivates
    the geometric choice: wasted prior-round work stays proportional)."""

    @staticmethod
    def rounds_until(total_needed: float, timeouts) -> tuple[int, float]:
        spent = 0.0
        for round_number, timeout in enumerate(timeouts, start=1):
            spent += min(timeout, total_needed)
            if timeout >= total_needed:
                return round_number, spent
        return -1, spent

    def test_geometric_bounds_waste(self, benchmark):
        def run():
            total = 500.0
            geometric = [1.0 * (2.0**k) for k in range(20)]
            linear = [1.0 * (k + 1) for k in range(4000)]
            g_rounds, g_spent = self.rounds_until(total, geometric)
            l_rounds, l_spent = self.rounds_until(total, linear)
            return g_rounds, g_spent, l_rounds, l_spent

        g_rounds, g_spent, l_rounds, l_spent = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        print(f"\ngeometric: {g_rounds} rounds, {g_spent:.0f}s total")
        print(f"linear:    {l_rounds} rounds, {l_spent:.0f}s total")
        # Geometric: total work <= 3x the final round (Theorem 4.3).
        assert g_spent <= 3 * 500.0
        # Linear wastes quadratically more.
        assert l_spent > 10 * g_spent


class TestSchedulerPolicy:
    """DP vs greedy vs arbitrary order on JOB-like index dependencies."""

    def test_dp_beats_alternatives(self, benchmark):
        workload = load_workload("job")
        engine = PostgresEngine(workload.catalog)
        columns = sorted(
            {c for cond in workload.join_conditions for c in cond.columns}
        )[:10]
        from repro.db.indexes import Index

        index_cost = {}
        index_map = {}
        indexes = []
        for qualified in columns:
            table, column = qualified.rsplit(".", 1)
            index = Index(table, (column,))
            indexes.append(index)
            index_cost[index] = engine.index_creation_seconds(index)
        queries = [query.name for query in workload.queries[:12]]
        for query in workload.queries[:12]:
            relevant = frozenset(
                index
                for index in indexes
                if any(
                    c in query.info.referenced_columns
                    for c in index.qualified_columns()
                )
            )
            index_map[query.name] = relevant

        def run():
            dp = expected_cost(
                compute_order_dp_sets(queries, index_map, index_cost),
                index_map,
                index_cost,
            )
            greedy = expected_cost(
                greedy_order(queries, index_map, index_cost),
                index_map,
                index_cost,
            )
            arbitrary = expected_cost(queries, index_map, index_cost)
            return dp, greedy, arbitrary

        dp, greedy, arbitrary = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\nexpected index cost -- dp: {dp:.1f}, greedy: {greedy:.1f}, "
              f"arbitrary: {arbitrary:.1f}")
        assert dp <= greedy + 1e-9
        assert dp <= arbitrary + 1e-9


class TestSnippetSelectorQuality:
    """Exact ILP vs greedy heuristic under tight token budgets."""

    def test_ilp_beats_greedy_on_tpch_values(self, benchmark):
        workload = load_workload("tpch-sf1")
        engine = PostgresEngine(workload.catalog)
        from repro.db.explain import join_condition_values

        values = join_condition_values(engine, list(workload.queries))

        def run():
            results = {}
            for budget in (40, 60, 80):
                exact = select_snippets(values, budget, method="auto")
                heuristic = select_snippets(values, budget, method="greedy")
                results[budget] = (exact.value, heuristic.value)
            return results

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        print()
        wins = 0
        for budget, (exact, heuristic) in results.items():
            print(f"budget {budget}: ilp={exact:.0f} greedy={heuristic:.0f}")
            assert exact >= heuristic - 1e-9
            if exact > heuristic + 1e-9:
                wins += 1
        assert wins >= 1  # the exact solver must strictly win somewhere


class TestClusteringCapSensitivity:
    """Sensitivity of the scheduling quality to the DP input cap."""

    def test_cap_thirteen_close_to_larger_caps(self, benchmark):
        from repro.core.clustering import cluster_queries
        from repro.core.evaluator import ConfigurationEvaluator
        from repro.core.config import Configuration
        from repro.db.indexes import Index

        workload = load_workload("job")
        engine = PostgresEngine(workload.catalog)
        columns = sorted(
            {c for cond in workload.join_conditions for c in cond.columns}
        )[:16]
        indexes = []
        for qualified in columns:
            table, column = qualified.rsplit(".", 1)
            indexes.append(Index(table, (column,)))
        config = Configuration("c", indexes=indexes)
        evaluator = ConfigurationEvaluator(engine)
        masks = evaluator.query_index_map(list(workload.queries), config)
        universe = evaluator.index_universe(config)
        index_cost = {
            index: engine.index_creation_seconds(index) for index in indexes
        }
        bit_costs = [index_cost[index] for index in universe]

        def cost_at_cap(cap: int) -> float:
            clusters = cluster_queries(
                [q.name for q in workload.queries], masks, max_clusters=cap
            )
            handles = list(range(len(clusters)))
            cluster_masks = {h: clusters[h].indexes for h in handles}
            cluster_map = {
                h: decode_mask(clusters[h].indexes, universe) for h in handles
            }
            if len(handles) <= 13:
                order = compute_order_dp(handles, cluster_masks, bit_costs)
            else:
                order = greedy_order(handles, cluster_map, index_cost)
            return expected_cost(order, cluster_map, index_cost)

        def run():
            return {cap: cost_at_cap(cap) for cap in (4, 8, 13)}

        costs = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\nexpected cost by cluster cap: "
              + ", ".join(f"{cap}->{cost:.1f}" for cap, cost in costs.items()))
        assert all(math.isfinite(cost) for cost in costs.values())
        # Finer clustering never hurts the modelled cost by much.
        assert costs[13] <= costs[4] * 1.05
