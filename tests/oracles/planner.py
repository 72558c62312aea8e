"""The scalar reference planner: ``Planner.plan_many`` one query at a time.

:func:`plan_many_scalar` has ``Planner.plan_many``'s contract and
signature.  It reads the production planner's context (the catalog,
the indexes by table, the planner costs and the runtime env) and plans
each query alone with :class:`ScalarPlanner`: one literal cost formula
per scan, join-order step, join operator and post-processing pass,
with no arrays, no precomputed statistics and no memo.  The array
planner in ``repro.db.planner`` must return plan-for-plan identical
trees and bit-identical cost floats.
"""

from __future__ import annotations

import math

from repro.db.catalog import PAGE_SIZE, Table
from repro.db.catalog_stats import INDEX_FANOUT
from repro.db.cost_model import (
    TRUE_CPU_INDEX_TUPLE,
    TRUE_CPU_OPERATOR,
    TRUE_CPU_TUPLE,
    TRUE_RANDOM_PAGE_FACTOR,
    cache_hit_ratio,
    parallel_speedup,
    spill_passes,
)
from repro.db.indexes import Index
from repro.db.planner import JOIN_ROW_WIDTH, JoinNode, Planner, QueryPlan, ScanNode
from repro.sql.analyzer import JoinCondition, QueryInfo


def plan_many_scalar(planner: Planner, infos: list[QueryInfo]) -> list[QueryPlan]:
    """Plan each analyzed query alone with the scalar planner."""
    scalar = ScalarPlanner(planner)
    return [scalar.plan(info) for info in infos]


class ScalarPlanner:
    """Builds and costs one query's plan in ``planner``'s context."""

    def __init__(self, planner: Planner) -> None:
        self._catalog = planner.catalog
        self._costs = planner.costs
        self._env = planner.env
        self._indexes_by_table = planner.indexes_by_table

    def plan(self, info: QueryInfo) -> QueryPlan:
        """Build the full plan for an analyzed query."""
        plan = QueryPlan()
        if not info.tables:
            plan.out_rows = 1.0
            return plan

        scans = {table: self._plan_scan(table, info) for table in sorted(info.tables)}
        order = self._join_order(info, scans)

        plan.scans.append(scans[order[0]])
        current_rows = scans[order[0]].out_rows
        joined: set[str] = {order[0]}
        joined_width = JOIN_ROW_WIDTH

        for table in order[1:]:
            scan = scans[table]
            condition = self._connecting_condition(info, joined, table)
            join, current_rows = self._plan_join(
                current_rows, joined_width, scan, condition, info
            )
            if join.method == "nestloop" and join.index is not None:
                # The inner relation is accessed through index probes;
                # its standalone scan never runs.
                scan = ScanNode(
                    table=scan.table,
                    method="probe",
                    index=join.index,
                    in_rows=scan.in_rows,
                    out_rows=scan.out_rows,
                    estimated_cost=0.0,
                    actual_cost=0.0,
                )
            plan.scans.append(scan)
            plan.joins.append(join)
            joined.add(table)
            joined_width += JOIN_ROW_WIDTH

        est_post, act_post, out_rows = self._plan_post(info, current_rows, joined_width)
        plan.post_estimated_cost = est_post
        plan.post_actual_cost = act_post
        plan.out_rows = out_rows
        return plan

    # -- scans ------------------------------------------------------------------

    def _plan_scan(self, table_name: str, info: QueryInfo) -> ScanNode:
        table = self._catalog.table(table_name)
        selectivity = self._table_selectivity(table, info)
        out_rows = max(1.0, table.rows * selectivity)
        filter_count = max(
            1, sum(1 for predicate in info.filters if predicate.table == table_name)
        )

        est_seq, act_seq = self._scan_seq_costs(table, filter_count)

        best_index = self._best_filter_index(table_name, info)
        if best_index is not None:
            index, index_selectivity = best_index
            est_idx, act_idx = self._scan_index_costs(
                table, index, index_selectivity, filter_count
            )
            if est_idx < est_seq:
                return ScanNode(
                    table=table_name,
                    method="index",
                    index=index,
                    in_rows=float(table.rows),
                    out_rows=out_rows,
                    estimated_cost=est_idx,
                    actual_cost=act_idx,
                )
        return ScanNode(
            table=table_name,
            method="seq",
            index=None,
            in_rows=float(table.rows),
            out_rows=out_rows,
            estimated_cost=est_seq,
            actual_cost=act_seq,
        )

    def _scan_seq_costs(self, table: Table, filter_count: int) -> tuple[float, float]:
        costs = self._costs
        pages = table.pages
        rows = table.rows
        estimated = (
            pages * costs.seq_page_cost
            + rows * costs.cpu_tuple_cost
            + rows * filter_count * costs.cpu_operator_cost
        )
        hit = cache_hit_ratio(self._env, table.size_bytes)
        actual = (
            pages * (1.0 - hit)
            + rows * TRUE_CPU_TUPLE
            + rows * filter_count * TRUE_CPU_OPERATOR
        )
        workers = self._scan_workers(pages)
        actual /= parallel_speedup(workers, self._env.hardware.cores)
        return estimated, actual

    def _scan_index_costs(
        self,
        table: Table,
        index: Index,
        selectivity: float,
        filter_count: int,
    ) -> tuple[float, float]:
        costs = self._costs
        rows = table.rows
        fetched = max(1.0, rows * selectivity)
        depth = max(1.0, math.log(max(rows, 2), INDEX_FANOUT))

        # The planner discounts random fetches by its *assumed* cache
        # fraction, driven by effective_cache_size (the PostgreSQL
        # behaviour that makes raising effective_cache_size encourage
        # index plans).
        assumed_hit = min(
            0.95, costs.effective_cache_bytes / max(1, table.size_bytes)
        )
        estimated = (
            depth * costs.random_page_cost
            + fetched * costs.cpu_index_tuple_cost
            + fetched * costs.random_page_cost * (1.0 - assumed_hit)
            + fetched * costs.cpu_tuple_cost
            + fetched * filter_count * costs.cpu_operator_cost
        )
        hit = cache_hit_ratio(
            self._env, table.size_bytes + index.size_bytes(self._catalog)
        )
        io_factor = TRUE_RANDOM_PAGE_FACTOR / max(1.0, self._env.io_concurrency**0.5)
        actual = (
            depth * io_factor
            + fetched * TRUE_CPU_INDEX_TUPLE
            + fetched * io_factor * (1.0 - hit)
            + fetched * TRUE_CPU_TUPLE
            + fetched * filter_count * TRUE_CPU_OPERATOR
        )
        return estimated, actual

    def _best_filter_index(
        self, table_name: str, info: QueryInfo
    ) -> tuple[Index, float] | None:
        """Most selective (index, selectivity) usable by a filter predicate."""
        candidates = self._indexes_by_table.get(table_name, ())
        table = self._catalog.table(table_name)
        best: tuple[Index, float] | None = None
        for index in candidates:
            selectivity = self._column_selectivity(table, index.leading_column, info)
            if selectivity is None:
                continue
            if best is None or selectivity < best[1]:
                best = (index, selectivity)
        return best

    def _column_selectivity(
        self, table: Table, column: str, info: QueryInfo
    ) -> float | None:
        """Combined selectivity of predicates on one column, None if none."""
        product: float | None = None
        for predicate in info.filters:
            if predicate.table != table.name or predicate.column != column:
                continue
            selectivity = predicate.selectivity
            if predicate.op == "=":
                ndv = table.column(column).distinct_values(table.rows)
                selectivity = 1.0 / ndv
            product = selectivity if product is None else product * selectivity
        return product

    def _table_selectivity(self, table: Table, info: QueryInfo) -> float:
        product = 1.0
        seen_eq: set[str] = set()
        for predicate in info.filters:
            if predicate.table != table.name:
                continue
            selectivity = predicate.selectivity
            if predicate.op == "=" and predicate.column not in seen_eq:
                ndv = table.column(predicate.column).distinct_values(table.rows)
                selectivity = 1.0 / ndv
                seen_eq.add(predicate.column)
            product *= selectivity
        return max(product, 1e-9)

    def _scan_workers(self, pages: int) -> int:
        # Parallel scans only pay off on big tables (PostgreSQL gates this
        # on min_parallel_table_scan_size).
        if pages < 1024:
            return 1
        return max(1, self._env.parallel_workers)

    # -- join ordering -----------------------------------------------------------

    def _join_order(self, info: QueryInfo, scans: dict[str, ScanNode]) -> list[str]:
        """Greedy left-deep order by estimated intermediate cardinality.

        With a full search depth the greedy chooser considers all
        remaining tables at each step; with a truncated depth it only
        looks at the first ``depth`` candidates in catalog order, which
        degrades order quality the way a truncated DP search would.
        """
        tables = sorted(info.tables)
        if len(tables) == 1:
            return tables

        remaining = set(tables)
        # Tie-break equal cardinalities by name: ``min`` over a set would
        # otherwise pick whichever tied table iterates first, which
        # depends on PYTHONHASHSEED (small dimension tables all floor at
        # out_rows == 1.0, so ties are common).
        start = min(remaining, key=lambda name: (scans[name].out_rows, name))
        order = [start]
        remaining.discard(start)
        joined = {start}
        current_rows = scans[start].out_rows

        depth = max(1, self._costs.join_search_depth)
        while remaining:
            candidates = sorted(remaining)[:depth]
            best_table: str | None = None
            best_rows = math.inf
            for name in candidates:
                condition = self._connecting_condition(info, joined, name)
                rows = self._join_cardinality(
                    current_rows, scans[name].out_rows, condition
                )
                # Prefer connected joins over cross products strongly.
                penalty = 1.0 if condition is not None else 1e6
                if rows * penalty < best_rows:
                    best_rows = rows * penalty
                    best_table = name
            assert best_table is not None
            order.append(best_table)
            condition = self._connecting_condition(info, joined, best_table)
            current_rows = self._join_cardinality(
                current_rows, scans[best_table].out_rows, condition
            )
            joined.add(best_table)
            remaining.discard(best_table)
        return order

    def _connecting_condition(
        self, info: QueryInfo, joined: set[str], new_table: str
    ) -> JoinCondition | None:
        for condition in sorted(info.join_conditions, key=str):
            left_table = condition.left.rsplit(".", 1)[0]
            right_table = condition.right.rsplit(".", 1)[0]
            if left_table == new_table and right_table in joined:
                return condition
            if right_table == new_table and left_table in joined:
                return condition
        return None

    def _join_cardinality(
        self, left_rows: float, right_rows: float, condition: JoinCondition | None
    ) -> float:
        if condition is None:
            return left_rows * right_rows
        ndv = 1
        for qualified in condition.columns:
            try:
                table, column = self._catalog.resolve_column(qualified)
            except Exception:
                continue
            ndv = max(ndv, column.distinct_values(table.rows))
        return max(1.0, left_rows * right_rows / ndv)

    # -- join operators -----------------------------------------------------------

    def _plan_join(
        self,
        outer_rows: float,
        outer_width: int,
        inner_scan: ScanNode,
        condition: JoinCondition | None,
        info: QueryInfo,
    ) -> tuple[JoinNode, float]:
        inner_rows = inner_scan.out_rows
        out_rows = self._join_cardinality(outer_rows, inner_rows, condition)

        if condition is None:
            cpu = outer_rows * inner_rows * 1.0
            node = JoinNode(
                inner_table=inner_scan.table,
                method="cross",
                condition=None,
                index=None,
                out_rows=out_rows,
                estimated_cost=cpu * self._costs.cpu_operator_cost,
                actual_cost=cpu * TRUE_CPU_OPERATOR,
            )
            return node, out_rows

        options: list[tuple[float, float, str, Index | None]] = []
        if self._costs.enable_hashjoin:
            est, act = self._hash_join_costs(
                outer_rows, outer_width, inner_rows, out_rows
            )
            options.append((est, act, "hash", None))
        if self._costs.enable_mergejoin:
            est, act = self._merge_join_costs(
                outer_rows, outer_width, inner_rows, out_rows
            )
            options.append((est, act, "merge", None))
        if self._costs.enable_nestloop:
            index = self._join_index(inner_scan.table, condition)
            est, act = self._nestloop_costs(
                outer_rows, inner_scan, index, out_rows
            )
            options.append((est, act, "nestloop", index))
        if not options:
            # All join methods disabled: PostgreSQL falls back to a
            # (painful) nested loop regardless of the enable flag.
            est, act = self._nestloop_costs(outer_rows, inner_scan, None, out_rows)
            options.append((est, act, "nestloop", None))

        # Index nested-loops replace the inner table's scan entirely, so
        # the comparison must credit them with the avoided scan cost.
        def comparison_key(option: tuple[float, float, str, Index | None]) -> float:
            est_cost, _, method, index = option
            if method == "nestloop" and index is not None:
                return est_cost
            return est_cost + inner_scan.estimated_cost

        est, act, method, index = min(options, key=comparison_key)
        node = JoinNode(
            inner_table=inner_scan.table,
            method=method,
            condition=condition,
            index=index,
            out_rows=out_rows,
            estimated_cost=est,
            actual_cost=act,
        )
        return node, out_rows

    def _hash_join_costs(
        self,
        outer_rows: float,
        outer_width: int,
        inner_rows: float,
        out_rows: float,
    ) -> tuple[float, float]:
        costs = self._costs
        build_rows = min(outer_rows, inner_rows)
        probe_rows = max(outer_rows, inner_rows)
        build_bytes = int(build_rows * JOIN_ROW_WIDTH)
        probe_bytes = int(probe_rows * outer_width)

        cpu_est = (
            build_rows * (costs.cpu_operator_cost + costs.cpu_tuple_cost)
            + probe_rows * costs.cpu_operator_cost
            + out_rows * costs.cpu_tuple_cost
        )
        cpu_act = (
            build_rows * (TRUE_CPU_OPERATOR + TRUE_CPU_TUPLE)
            + probe_rows * TRUE_CPU_OPERATOR
            + out_rows * TRUE_CPU_TUPLE
        )
        passes = spill_passes(build_bytes, self._env.sort_hash_mem_bytes)
        spill_pages = (build_bytes + probe_bytes) / PAGE_SIZE
        io_est = spill_pages * passes * costs.seq_page_cost
        io_act = spill_pages * passes * 2.0  # write + re-read
        workers = max(1, self._env.parallel_workers)
        speedup = parallel_speedup(workers, self._env.hardware.cores)
        return cpu_est + io_est, (cpu_act + io_act) / speedup

    def _merge_join_costs(
        self,
        outer_rows: float,
        outer_width: int,
        inner_rows: float,
        out_rows: float,
    ) -> tuple[float, float]:
        costs = self._costs

        def sort_cost(rows: float, width: int, op_cost: float) -> float:
            if rows < 2:
                return 0.0
            comparisons = rows * math.log2(rows)
            passes = spill_passes(int(rows * width), self._env.sort_hash_mem_bytes)
            io = rows * width / PAGE_SIZE * passes * 2.0
            return comparisons * op_cost + io

        est = (
            sort_cost(outer_rows, outer_width, costs.cpu_operator_cost)
            + sort_cost(inner_rows, JOIN_ROW_WIDTH, costs.cpu_operator_cost)
            + (outer_rows + inner_rows) * costs.cpu_operator_cost
            + out_rows * costs.cpu_tuple_cost
        )
        act = (
            sort_cost(outer_rows, outer_width, TRUE_CPU_OPERATOR)
            + sort_cost(inner_rows, JOIN_ROW_WIDTH, TRUE_CPU_OPERATOR)
            + (outer_rows + inner_rows) * TRUE_CPU_OPERATOR
            + out_rows * TRUE_CPU_TUPLE
        )
        workers = max(1, self._env.parallel_workers)
        return est, act / parallel_speedup(workers, self._env.hardware.cores)

    def _nestloop_costs(
        self,
        outer_rows: float,
        inner_scan: ScanNode,
        index: Index | None,
        out_rows: float,
    ) -> tuple[float, float]:
        costs = self._costs
        inner_table = self._catalog.table(inner_scan.table)
        inner_rows = max(1.0, inner_scan.out_rows)
        matches_per_probe = max(out_rows / max(outer_rows, 1.0), 1e-3)

        if index is not None:
            depth = max(1.0, math.log(max(inner_table.rows, 2), INDEX_FANOUT))
            assumed_hit = min(
                0.95,
                costs.effective_cache_bytes / max(1, inner_table.size_bytes),
            )
            per_probe_est = (
                depth * costs.cpu_index_tuple_cost
                + costs.random_page_cost * (1.0 - assumed_hit)
                + matches_per_probe * costs.cpu_tuple_cost
            )
            hit = cache_hit_ratio(
                self._env,
                inner_table.size_bytes + index.size_bytes(self._catalog),
            )
            io_factor = TRUE_RANDOM_PAGE_FACTOR / max(
                1.0, self._env.io_concurrency**0.5
            )
            per_probe_act = (
                depth * TRUE_CPU_INDEX_TUPLE
                + io_factor * (1.0 - hit)
                + matches_per_probe * TRUE_CPU_TUPLE
            )
            # Output tuples are accounted inside the per-probe match term.
            est = outer_rows * per_probe_est
            act = outer_rows * per_probe_act
            return est, act

        # No usable index: rescan the inner relation per outer row.
        est = (
            outer_rows * inner_rows * costs.cpu_operator_cost
            + out_rows * costs.cpu_tuple_cost
        )
        act = outer_rows * inner_rows * TRUE_CPU_OPERATOR + out_rows * TRUE_CPU_TUPLE
        return est, act

    def _join_index(self, table_name: str, condition: JoinCondition) -> Index | None:
        """An index on the inner table whose leading key is the join column."""
        join_column: str | None = None
        for qualified in condition.columns:
            table, column = qualified.rsplit(".", 1)
            if table == table_name:
                join_column = column
        if join_column is None:
            return None
        for index in self._indexes_by_table.get(table_name, ()):
            if index.leading_column == join_column:
                return index
        return None

    # -- aggregation / sorting ------------------------------------------------------

    def _plan_post(
        self, info: QueryInfo, in_rows: float, width: int
    ) -> tuple[float, float, float]:
        costs = self._costs
        est = 0.0
        act = 0.0
        out_rows = in_rows

        if info.group_by_columns or info.aggregates:
            groups = self._group_count(info, in_rows)
            agg_count = max(1, len(info.aggregates))
            est += in_rows * costs.cpu_operator_cost * agg_count
            est += groups * costs.cpu_tuple_cost
            act += in_rows * TRUE_CPU_OPERATOR * agg_count
            act += groups * TRUE_CPU_TUPLE
            passes = spill_passes(int(groups * width), self._env.agg_mem_bytes)
            spill_io = groups * width / PAGE_SIZE * passes * 2.0
            est += spill_io * costs.seq_page_cost
            act += spill_io
            out_rows = groups

        if info.order_by_columns and out_rows > 1:
            comparisons = out_rows * math.log2(max(out_rows, 2))
            est += comparisons * costs.cpu_operator_cost
            act += comparisons * TRUE_CPU_OPERATOR
            passes = spill_passes(int(out_rows * width), self._env.sort_hash_mem_bytes)
            spill_io = out_rows * width / PAGE_SIZE * passes * 2.0
            est += spill_io * costs.seq_page_cost
            act += spill_io

        if info.has_subquery:
            # Decorrelated subqueries add one extra pass over the driving
            # relation's output in this simplified model.
            est += in_rows * costs.cpu_operator_cost
            act += in_rows * TRUE_CPU_OPERATOR

        return est, act, max(out_rows, 1.0)

    def _group_count(self, info: QueryInfo, in_rows: float) -> float:
        if not info.group_by_columns:
            return 1.0
        distinct = 1.0
        for qualified in sorted(info.group_by_columns):
            try:
                table, column = self._catalog.resolve_column(qualified)
            except Exception:
                continue
            distinct *= min(column.distinct_values(table.rows), 1000)
        return max(1.0, min(distinct, in_rows))
