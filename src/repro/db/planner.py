"""Plan construction and cost evaluation for the simulated engines.

Given a query's :class:`~repro.sql.analyzer.QueryInfo`, the catalog, the
set of existing indexes, the configured :class:`PlannerCosts` and the
true :class:`RuntimeEnv`, the planner

1. chooses a scan method per table (sequential vs. index) using the
   *configured* constants,
2. picks a left-deep join order greedily by estimated cardinality
   (bounded by ``join_search_depth`` -- a small depth degrades order
   quality, modelling MySQL's ``optimizer_search_depth``),
3. picks a join operator per join (hash / merge / index nested-loop)
   again by configured cost, and
4. evaluates the chosen plan with *true* physical constants to obtain
   the simulated execution time.

Every node carries both its estimated cost (planner units, configured
constants) and actual cost (planner units, true constants); the engine
converts actual units to seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.db.catalog import PAGE_SIZE, Catalog, Table
from repro.db.cost_model import (
    PlannerCosts,
    RuntimeEnv,
    TRUE_CPU_INDEX_TUPLE,
    TRUE_CPU_OPERATOR,
    TRUE_CPU_TUPLE,
    TRUE_RANDOM_PAGE_FACTOR,
    cache_hit_ratio,
    parallel_speedup,
    spill_passes,
)
from repro.db.indexes import Index
from repro.sql.analyzer import JoinCondition, QueryInfo

# Rows per B-tree leaf page, for index depth estimates.
_INDEX_FANOUT = 256
# Width in bytes contributed by each joined table to intermediate rows.
_JOIN_ROW_WIDTH = 32

@dataclass(slots=True)
class ScanNode:
    """Access path for one base table."""

    table: str
    method: str  # "seq" | "index"
    index: Index | None
    in_rows: float
    out_rows: float
    estimated_cost: float
    actual_cost: float


@dataclass(slots=True)
class JoinNode:
    """One left-deep join step bringing in a new base table."""

    inner_table: str
    method: str  # "hash" | "merge" | "nestloop" | "cross"
    condition: JoinCondition | None
    index: Index | None
    out_rows: float
    estimated_cost: float
    actual_cost: float


@dataclass(slots=True)
class QueryPlan:
    """A complete plan with per-operator costs."""

    scans: list[ScanNode] = field(default_factory=list)
    joins: list[JoinNode] = field(default_factory=list)
    post_estimated_cost: float = 0.0  # aggregation + sorting
    post_actual_cost: float = 0.0
    out_rows: float = 0.0

    @property
    def estimated_cost(self) -> float:
        return (
            sum(scan.estimated_cost for scan in self.scans)
            + sum(join.estimated_cost for join in self.joins)
            + self.post_estimated_cost
        )

    @property
    def actual_cost(self) -> float:
        return (
            sum(scan.actual_cost for scan in self.scans)
            + sum(join.actual_cost for join in self.joins)
            + self.post_actual_cost
        )

    def join_estimated_costs(self) -> dict[JoinCondition, float]:
        """Estimated cost per join condition (for EXPLAIN / compressor)."""
        result: dict[JoinCondition, float] = {}
        for join in self.joins:
            if join.condition is not None:
                cost = result.get(join.condition, 0.0)
                result[join.condition] = cost + join.estimated_cost
        return result


class Planner:
    """Builds and costs plans for one (catalog, config) context."""

    def __init__(
        self,
        catalog: Catalog,
        indexes: dict[tuple[str, tuple[str, ...]], Index],
        planner_costs: PlannerCosts,
        env: RuntimeEnv,
        selectivity_cache: dict | None = None,
    ) -> None:
        self._catalog = catalog
        self._planner = planner_costs
        self._env = env
        # Optional cross-planner memo for per-predicate selectivities.
        # Selectivity depends only on catalog statistics and the query's
        # predicate list -- never on indexes or knobs -- so the engine
        # shares one dict per catalog and keys fold in the catalog
        # generation for invalidation on schema change.
        self._selectivity_cache = selectivity_cache
        self._indexes_by_table: dict[str, list[Index]] = {}
        for index in indexes.values():
            self._indexes_by_table.setdefault(index.table, []).append(index)

    # -- public API -----------------------------------------------------------

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
        joined_width = _JOIN_ROW_WIDTH

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
            joined_width += _JOIN_ROW_WIDTH

        est_post, act_post, out_rows = self._plan_post(info, current_rows, joined_width)
        plan.post_estimated_cost = est_post
        plan.post_actual_cost = act_post
        plan.out_rows = out_rows
        return plan

    def plan_many(self, infos: list[QueryInfo]) -> list[QueryPlan]:
        """Build plans for a batch of analyzed queries.

        Batches of two or more are costed in array passes by
        ``repro.db.planner_vec``, bit-identical to calling :meth:`plan`
        per query; a single query takes :meth:`plan`, since arrays only
        pay off across queries.
        """
        if len(infos) > 1:
            from repro.db.planner_vec import plan_many_vectorized

            return plan_many_vectorized(self, infos)
        return [self.plan(info) for info in infos]

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
        planner = self._planner
        pages = table.pages
        rows = table.rows
        estimated = (
            pages * planner.seq_page_cost
            + rows * planner.cpu_tuple_cost
            + rows * filter_count * planner.cpu_operator_cost
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
        planner = self._planner
        rows = table.rows
        fetched = max(1.0, rows * selectivity)
        depth = max(1.0, math.log(max(rows, 2), _INDEX_FANOUT))

        # The planner discounts random fetches by its *assumed* cache
        # fraction, driven by effective_cache_size (the PostgreSQL
        # behaviour that makes raising effective_cache_size encourage
        # index plans).
        assumed_hit = min(
            0.95, planner.effective_cache_bytes / max(1, table.size_bytes)
        )
        estimated = (
            depth * planner.random_page_cost
            + fetched * planner.cpu_index_tuple_cost
            + fetched * planner.random_page_cost * (1.0 - assumed_hit)
            + fetched * planner.cpu_tuple_cost
            + fetched * filter_count * planner.cpu_operator_cost
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

    def _predicate_signature(
        self, table: Table, info: QueryInfo, column: str | None
    ) -> tuple:
        """Ordered key material for the predicates a memo entry covers.

        Order is preserved: float multiplication is not associative, so
        two predicate lists must share a memo entry only when they would
        multiply in exactly the same sequence.
        """
        return tuple(
            (predicate.column, predicate.op, predicate.selectivity)
            for predicate in info.filters
            if predicate.table == table.name
            and (column is None or predicate.column == column)
        )

    def _column_selectivity(
        self, table: Table, column: str, info: QueryInfo
    ) -> float | None:
        """Combined selectivity of predicates on one column, None if none."""
        cache = self._selectivity_cache
        if cache is not None:
            key = (
                "column",
                self._catalog.generation,
                table.name,
                column,
                self._predicate_signature(table, info, column),
            )
            cached = cache.get(key)
            if cached is not None:
                return cached[0]
        product: float | None = None
        for predicate in info.filters:
            if predicate.table != table.name or predicate.column != column:
                continue
            selectivity = predicate.selectivity
            if predicate.op == "=":
                ndv = table.column(column).distinct_values(table.rows)
                selectivity = 1.0 / ndv
            product = selectivity if product is None else product * selectivity
        if cache is not None:
            cache[key] = (product,)
        return product

    def _table_selectivity(self, table: Table, info: QueryInfo) -> float:
        cache = self._selectivity_cache
        if cache is not None:
            key = (
                "table",
                self._catalog.generation,
                table.name,
                self._predicate_signature(table, info, None),
            )
            cached = cache.get(key)
            if cached is not None:
                return cached
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
        product = max(product, 1e-9)
        if cache is not None:
            cache[key] = product
        return product

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

        depth = max(1, self._planner.join_search_depth)
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
                estimated_cost=cpu * self._planner.cpu_operator_cost,
                actual_cost=cpu * TRUE_CPU_OPERATOR,
            )
            return node, out_rows

        options: list[tuple[float, float, str, Index | None]] = []
        if self._planner.enable_hashjoin:
            est, act = self._hash_join_costs(
                outer_rows, outer_width, inner_rows, out_rows
            )
            options.append((est, act, "hash", None))
        if self._planner.enable_mergejoin:
            est, act = self._merge_join_costs(
                outer_rows, outer_width, inner_rows, out_rows
            )
            options.append((est, act, "merge", None))
        if self._planner.enable_nestloop:
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
        planner = self._planner
        build_rows = min(outer_rows, inner_rows)
        probe_rows = max(outer_rows, inner_rows)
        build_bytes = int(build_rows * _JOIN_ROW_WIDTH)
        probe_bytes = int(probe_rows * outer_width)

        cpu_est = (
            build_rows * (planner.cpu_operator_cost + planner.cpu_tuple_cost)
            + probe_rows * planner.cpu_operator_cost
            + out_rows * planner.cpu_tuple_cost
        )
        cpu_act = (
            build_rows * (TRUE_CPU_OPERATOR + TRUE_CPU_TUPLE)
            + probe_rows * TRUE_CPU_OPERATOR
            + out_rows * TRUE_CPU_TUPLE
        )
        passes = spill_passes(build_bytes, self._env.sort_hash_mem_bytes)
        spill_pages = (build_bytes + probe_bytes) / PAGE_SIZE
        io_est = spill_pages * passes * planner.seq_page_cost
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
        planner = self._planner

        def sort_cost(rows: float, width: int, op_cost: float) -> float:
            if rows < 2:
                return 0.0
            comparisons = rows * math.log2(rows)
            passes = spill_passes(int(rows * width), self._env.sort_hash_mem_bytes)
            io = rows * width / PAGE_SIZE * passes * 2.0
            return comparisons * op_cost + io

        est = (
            sort_cost(outer_rows, outer_width, planner.cpu_operator_cost)
            + sort_cost(inner_rows, _JOIN_ROW_WIDTH, planner.cpu_operator_cost)
            + (outer_rows + inner_rows) * planner.cpu_operator_cost
            + out_rows * planner.cpu_tuple_cost
        )
        act = (
            sort_cost(outer_rows, outer_width, TRUE_CPU_OPERATOR)
            + sort_cost(inner_rows, _JOIN_ROW_WIDTH, TRUE_CPU_OPERATOR)
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
        planner = self._planner
        inner_table = self._catalog.table(inner_scan.table)
        inner_rows = max(1.0, inner_scan.out_rows)
        matches_per_probe = max(out_rows / max(outer_rows, 1.0), 1e-3)

        if index is not None:
            depth = max(1.0, math.log(max(inner_table.rows, 2), _INDEX_FANOUT))
            assumed_hit = min(
                0.95,
                planner.effective_cache_bytes / max(1, inner_table.size_bytes),
            )
            per_probe_est = (
                depth * planner.cpu_index_tuple_cost
                + planner.random_page_cost * (1.0 - assumed_hit)
                + matches_per_probe * planner.cpu_tuple_cost
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
            outer_rows * inner_rows * planner.cpu_operator_cost
            + out_rows * planner.cpu_tuple_cost
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
        planner = self._planner
        est = 0.0
        act = 0.0
        out_rows = in_rows

        if info.group_by_columns or info.aggregates:
            groups = self._group_count(info, in_rows)
            agg_count = max(1, len(info.aggregates))
            est += in_rows * planner.cpu_operator_cost * agg_count
            est += groups * planner.cpu_tuple_cost
            act += in_rows * TRUE_CPU_OPERATOR * agg_count
            act += groups * TRUE_CPU_TUPLE
            passes = spill_passes(int(groups * width), self._env.agg_mem_bytes)
            spill_io = groups * width / PAGE_SIZE * passes * 2.0
            est += spill_io * planner.seq_page_cost
            act += spill_io
            out_rows = groups

        if info.order_by_columns and out_rows > 1:
            comparisons = out_rows * math.log2(max(out_rows, 2))
            est += comparisons * planner.cpu_operator_cost
            act += comparisons * TRUE_CPU_OPERATOR
            passes = spill_passes(int(out_rows * width), self._env.sort_hash_mem_bytes)
            spill_io = out_rows * width / PAGE_SIZE * passes * 2.0
            est += spill_io * planner.seq_page_cost
            act += spill_io

        if info.has_subquery:
            # Decorrelated subqueries add one extra pass over the driving
            # relation's output in this simplified model.
            est += in_rows * planner.cpu_operator_cost
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
