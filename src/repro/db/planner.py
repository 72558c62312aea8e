"""Plan construction and cost evaluation for the simulated engines.

Given analyzed queries (:class:`~repro.sql.analyzer.QueryInfo`), the
catalog, the set of existing indexes, the configured
:class:`PlannerCosts` and the true :class:`RuntimeEnv`, the planner

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

:meth:`Planner.plan_many` costs a batch of any size -- one query
included -- in three passes:

- **Phase A** flattens every (query, table) pair into arrays and costs
  all sequential and index scan alternatives vectorized;
- **Phase B** runs the greedy left-deep join ordering per query as a
  tight scalar loop over precomputed :class:`QueryStatics` (sorted
  join-condition adjacency with NDV, so no per-probe
  ``sorted(..., key=str)`` / ``resolve_column`` work is left); the
  join-operator cost expressions are written term for term with every
  loop-invariant factor (operator cost knobs, the parallel speedup,
  per-table depth/cache figures) hoisted out of the per-join path;
- **Phase C** costs aggregation/sort/subquery post-processing for all
  queries in one masked array pass.

Bit-transparency contract: every ``ScanNode``/``JoinNode`` field, plan
cost float, and output cardinality equals the scalar reference planner
(``tests/oracles/planner.py``, one query at a time, one literal cost
formula per step) bit for bit.  The "reference" helpers named in the
comments below live there.  The float-operation *order* of the
reference is reproduced expression by expression; numpy is used only
for elementwise ``+ - * / min max where`` (IEEE-754-identical to
CPython), while every transcendental (``log``, ``log2``, ``** 0.8``)
goes through ``math`` exactly as the scalar code does (see
``cost_model``'s array kernels and ``tests/db/test_planner_vectorized``
for the enforcement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.db.catalog import PAGE_SIZE, Catalog
from repro.db.catalog_stats import QueryStatics, catalog_stats
from repro.db.cost_model import (
    TRUE_CPU_INDEX_TUPLE,
    TRUE_CPU_OPERATOR,
    TRUE_CPU_TUPLE,
    TRUE_RANDOM_PAGE_FACTOR,
    PlannerCosts,
    RuntimeEnv,
    cache_hit_ratio,
    cache_hit_ratio_array,
    parallel_speedup,
    parallel_speedup_array,
    spill_passes_array,
)
from repro.db.indexes import Index
from repro.sql.analyzer import JoinCondition, QueryInfo

#: Width in bytes contributed by each joined table to intermediate rows.
JOIN_ROW_WIDTH = 32


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


#: Sentinel distinguishing "not memoized yet" from a memoized ``None``.
_UNSET = object()


def _connecting(
    statics: QueryStatics, joined: set, new_table: str
) -> tuple | None:
    """First sorted condition connecting ``new_table`` to ``joined``.

    Equivalent to the reference ``_connecting_condition``: a connecting
    condition necessarily mentions ``new_table`` on one side, so walking
    only that table's conditions (kept in global sorted order) visits
    the same candidates in the same order.
    """
    conditions = statics.conditions
    for position in statics.conditions_by_table.get(new_table, ()):
        entry = conditions[position]
        _, left_table, right_table, _ = entry
        if left_table == new_table and right_table in joined:
            return entry
        if right_table == new_table and left_table in joined:
            return entry
    return None


def _join_order(
    statics: QueryStatics, scans: dict, depth: int
) -> list[str]:
    """Reference ``_join_order`` over the precomputed adjacency.

    ``_connecting`` and the reference ``_join_cardinality`` are inlined
    into the candidate loop (same expressions: ``rows * penalty`` with
    penalty 1.0 / 1e6, ``max(1.0, outer * inner / ndv)`` with the NDV
    precomputed) to keep this hot loop free of call overhead.
    """
    conditions = statics.conditions
    by_table = statics.conditions_by_table
    remaining = list(statics.tables)  # sorted, and stays sorted
    start = remaining[0]
    start_rows = scans[start].out_rows
    for name in remaining[1:]:
        rows = scans[name].out_rows
        # min() by (out_rows, name): the name tiebreak never fires, the
        # list is already name-sorted, so strict < on rows suffices.
        if rows < start_rows:
            start = name
            start_rows = rows
    order = [start]
    remaining.remove(start)
    joined = {start}
    current_rows = start_rows

    while remaining:
        best_table: str | None = None
        best_key = math.inf
        best_rows = 0.0
        candidates = remaining if len(remaining) <= depth else remaining[:depth]
        for name in candidates:
            entry = None
            for position in by_table.get(name, ()):
                candidate = conditions[position]
                _, left_table, right_table, _ = candidate
                if left_table == name:
                    if right_table in joined:
                        entry = candidate
                        break
                elif right_table == name and left_table in joined:
                    entry = candidate
                    break
            inner_rows = scans[name].out_rows
            if entry is None:
                rows = current_rows * inner_rows
                key = rows * 1e6
            else:
                rows = current_rows * inner_rows / entry[3]
                if rows <= 1.0:
                    rows = 1.0
                key = rows * 1.0
            if key < best_key:
                best_key = key
                best_table = name
                best_rows = rows
        assert best_table is not None
        order.append(best_table)
        current_rows = best_rows
        joined.add(best_table)
        remaining.remove(best_table)
    return order


class Planner:
    """Builds and costs plans for one (catalog, configuration) context.

    The context is all a plan depends on: the catalog, the indexes by
    table, the configured planner costs and the true runtime env.
    """

    def __init__(
        self,
        catalog: Catalog,
        indexes: dict[tuple[str, tuple[str, ...]], Index],
        planner_costs: PlannerCosts,
        env: RuntimeEnv,
    ) -> None:
        self.catalog = catalog
        self.costs = planner_costs
        self.env = env
        self.indexes_by_table: dict[str, list[Index]] = {}
        for index in indexes.values():
            self.indexes_by_table.setdefault(index.table, []).append(index)

    def plan_many(self, infos: list[QueryInfo]) -> list[QueryPlan]:
        """Build the full plan of every analyzed query (module docstring)."""

        catalog = self.catalog
        costs = self.costs
        env = self.env
        stats = catalog_stats(catalog)
        statics = [stats.query_statics(catalog, info) for info in infos]

        plans = [QueryPlan() for _ in infos]
        active: list[int] = []
        for position, query_statics in enumerate(statics):
            if query_statics.tables:
                active.append(position)
            else:
                plans[position].out_rows = 1.0
        if not active:
            return plans

        # ---- Phase A: scan costing over flattened (query, table) pairs ----------
        pair_tid = np.concatenate([statics[qi].table_ids for qi in active])
        pair_fc = np.concatenate([statics[qi].filter_count for qi in active])
        pair_out = np.concatenate([statics[qi].out_rows for qi in active])
        rows = stats.rows[pair_tid]
        pages = stats.pages[pair_tid]
        hit = cache_hit_ratio_array(env, stats.size_bytes)[pair_tid]

        # Reference ``_scan_seq_costs``, expression for expression.
        est_seq = (
            pages * costs.seq_page_cost
            + rows * costs.cpu_tuple_cost
            + rows * pair_fc * costs.cpu_operator_cost
        )
        act_seq = (
            pages * (1.0 - hit)
            + rows * TRUE_CPU_TUPLE
            + rows * pair_fc * TRUE_CPU_OPERATOR
        )
        scan_workers = np.where(pages < 1024, 1, max(1, env.parallel_workers))
        act_seq = act_seq / parallel_speedup_array(scan_workers, env.hardware.cores)

        # Index alternatives: pick the best filter index per pair with the
        # reference's first-wins strict-< rule, then cost the chosen subset
        # vectorized (``_scan_index_costs``).
        indexes_by_table = self.indexes_by_table
        chosen: dict[int, tuple] = {}
        if indexes_by_table:
            pair_names: list[tuple[int, str]] = []
            for qi in active:
                pair_names.extend((qi, name) for name in statics[qi].tables)
            idx_positions: list[int] = []
            idx_objects: list = []
            idx_sel: list[float] = []
            idx_hit: list[float] = []
            hit_memo: dict = {}
            for position, (qi, name) in enumerate(pair_names):
                candidates = indexes_by_table.get(name)
                if not candidates:
                    continue
                column_sel = statics[qi].column_selectivity
                best = None
                for index in candidates:
                    selectivity = column_sel.get((name, index.leading_column))
                    if selectivity is None:
                        continue
                    if best is None or selectivity < best[1]:
                        best = (index, selectivity)
                if best is None:
                    continue
                index, selectivity = best
                hit_value = hit_memo.get(index.key)
                if hit_value is None:
                    tid = stats.table_id[name]
                    hit_value = cache_hit_ratio(
                        env,
                        stats.size_bytes_int[tid] + stats.index_size(catalog, index),
                    )
                    hit_memo[index.key] = hit_value
                idx_positions.append(position)
                idx_objects.append(index)
                idx_sel.append(selectivity)
                idx_hit.append(hit_value)

            if idx_positions:
                sub = np.array(idx_positions, dtype=np.intp)
                sub_tid = pair_tid[sub]
                sub_rows = rows[sub]
                sub_fc = pair_fc[sub]
                sub_depth = stats.depth[sub_tid]
                assumed_hit = np.minimum(
                    0.95,
                    costs.effective_cache_bytes
                    / np.maximum(1.0, stats.size_bytes[sub_tid]),
                )
                fetched = np.maximum(1.0, sub_rows * np.array(idx_sel))
                est_idx = (
                    sub_depth * costs.random_page_cost
                    + fetched * costs.cpu_index_tuple_cost
                    + fetched * costs.random_page_cost * (1.0 - assumed_hit)
                    + fetched * costs.cpu_tuple_cost
                    + fetched * sub_fc * costs.cpu_operator_cost
                )
                io_factor = TRUE_RANDOM_PAGE_FACTOR / max(
                    1.0, env.io_concurrency**0.5
                )
                hit_idx = np.array(idx_hit, dtype=np.float64)
                act_idx = (
                    sub_depth * io_factor
                    + fetched * TRUE_CPU_INDEX_TUPLE
                    + fetched * io_factor * (1.0 - hit_idx)
                    + fetched * TRUE_CPU_TUPLE
                    + fetched * sub_fc * TRUE_CPU_OPERATOR
                )
                better = est_idx < est_seq[sub]
                for k, position in enumerate(idx_positions):
                    if better[k]:
                        chosen[position] = (
                            idx_objects[k],
                            float(est_idx[k]),
                            float(act_idx[k]),
                        )

        # ``tolist()`` converts whole arrays to Python floats in one C pass
        # (exact values), instead of a ``float(arr[i])`` per node field.
        rows_list = rows.tolist()
        out_list = pair_out.tolist()
        est_seq_list = est_seq.tolist()
        act_seq_list = act_seq.tolist()
        scans_by_query: dict[int, dict] = {}
        position = 0
        for qi in active:
            scans: dict = {}
            for name in statics[qi].tables:
                alternative = chosen.get(position)
                if alternative is not None:
                    index, est_value, act_value = alternative
                    scans[name] = ScanNode(
                        table=name,
                        method="index",
                        index=index,
                        in_rows=rows_list[position],
                        out_rows=out_list[position],
                        estimated_cost=est_value,
                        actual_cost=act_value,
                    )
                else:
                    scans[name] = ScanNode(
                        table=name,
                        method="seq",
                        index=None,
                        in_rows=rows_list[position],
                        out_rows=out_list[position],
                        estimated_cost=est_seq_list[position],
                        actual_cost=act_seq_list[position],
                    )
                position += 1
            scans_by_query[qi] = scans

        # ---- Phase B: join ordering + operator choice per query -----------------
        # The operator cost expressions below are the reference planner's
        # ``_hash_join_costs`` / ``_merge_join_costs`` / ``_nestloop_costs``
        # inlined term for term, with everything loop-invariant hoisted out:
        # cost knobs, the (constant-argument) parallel speedup, and the
        # per-table depth / size / cache figures.  Expression shape and
        # evaluation order are preserved, so every float is bit-identical.
        depth_limit = max(1, costs.join_search_depth)
        cpu_op = costs.cpu_operator_cost
        cpu_tup = costs.cpu_tuple_cost
        cpu_idx_tup = costs.cpu_index_tuple_cost
        seq_page = costs.seq_page_cost
        random_page = costs.random_page_cost
        eff_cache = costs.effective_cache_bytes
        enable_hash = costs.enable_hashjoin
        enable_merge = costs.enable_mergejoin
        enable_nest = costs.enable_nestloop
        sort_mem = env.sort_hash_mem_bytes
        #: ``spill_passes``'s clamped memory budget, hoisted (the function
        #: recomputes ``max(memory_bytes, 64 * 1024)`` per call).
        spill_mem = max(sort_mem, 64 * 1024)
        join_speedup = parallel_speedup(
            max(1, env.parallel_workers), env.hardware.cores
        )
        nl_io_factor = TRUE_RANDOM_PAGE_FACTOR / max(1.0, env.io_concurrency**0.5)
        log2 = math.log2
        table_id = stats.table_id
        size_bytes_int = stats.size_bytes_int
        depth_arr = stats.depth
        inf = math.inf

        #: per inner table: (depth, assumed_hit) for index nested loops.
        nest_memo: dict[str, tuple[float, float]] = {}
        #: per (inner table, index): true cache hit ratio.
        nl_hit_memo: dict[tuple[str, object], float] = {}
        #: per (inner table, condition): usable join index or None.
        join_index_memo: dict[tuple[str, object], object] = {}
        indexes_by_table_get = self.indexes_by_table.get

        post_inputs: list[tuple[int, float, int]] = []
        for qi in active:
            query_statics = statics[qi]
            scans = scans_by_query[qi]
            plan = plans[qi]
            tables = query_statics.tables
            order = (
                list(tables)
                if len(tables) == 1
                else _join_order(query_statics, scans, depth_limit)
            )

            plan_scans = plan.scans
            plan_joins = plan.joins
            plan_scans.append(scans[order[0]])
            current_rows = scans[order[0]].out_rows
            joined = {order[0]}
            joined_width = JOIN_ROW_WIDTH

            for name in order[1:]:
                scan = scans[name]
                entry = _connecting(query_statics, joined, name)
                inner_rows = scan.out_rows
                # Reference ``_join_cardinality`` (``max(1.0, outer*inner/ndv)``).
                if entry is None:
                    out_rows = current_rows * inner_rows
                else:
                    out_rows = current_rows * inner_rows / entry[3]
                    if out_rows <= 1.0:
                        out_rows = 1.0

                if entry is None:
                    cpu = current_rows * inner_rows * 1.0
                    join = JoinNode(
                        inner_table=name,
                        method="cross",
                        condition=None,
                        index=None,
                        out_rows=out_rows,
                        estimated_cost=cpu * cpu_op,
                        actual_cost=cpu * TRUE_CPU_OPERATOR,
                    )
                else:
                    condition = entry[0]
                    inner_scan_cost = scan.estimated_cost
                    best_key = inf
                    best_est = best_act = 0.0
                    best_method: str | None = None
                    best_index = None

                    if enable_hash:
                        # Reference ``_hash_join_costs``.
                        if current_rows < inner_rows:
                            build_rows, probe_rows = current_rows, inner_rows
                        else:
                            build_rows, probe_rows = inner_rows, current_rows
                        build_bytes = int(build_rows * JOIN_ROW_WIDTH)
                        probe_bytes = int(probe_rows * joined_width)
                        cpu_est = (
                            build_rows * (cpu_op + cpu_tup)
                            + probe_rows * cpu_op
                            + out_rows * cpu_tup
                        )
                        cpu_act = (
                            build_rows * (TRUE_CPU_OPERATOR + TRUE_CPU_TUPLE)
                            + probe_rows * TRUE_CPU_OPERATOR
                            + out_rows * TRUE_CPU_TUPLE
                        )
                        if build_bytes <= spill_mem or build_bytes <= 0:
                            passes = 0.0
                        else:
                            passes = 1.0 + log2(build_bytes / spill_mem) / 6.0
                        spill_pages = (build_bytes + probe_bytes) / PAGE_SIZE
                        est = cpu_est + spill_pages * passes * seq_page
                        act = (
                            cpu_act + spill_pages * passes * 2.0
                        ) / join_speedup
                        best_key = est + inner_scan_cost
                        best_est, best_act = est, act
                        best_method = "hash"

                    if enable_merge:
                        # Reference ``_merge_join_costs``; each ``sort_cost``
                        # half shares its comparisons/io between est and act.
                        if current_rows < 2:
                            comp_outer = io_outer = 0.0
                        else:
                            comp_outer = current_rows * log2(current_rows)
                            sort_bytes = int(current_rows * joined_width)
                            if sort_bytes <= spill_mem or sort_bytes <= 0:
                                outer_passes = 0.0
                            else:
                                outer_passes = (
                                    1.0 + log2(sort_bytes / spill_mem) / 6.0
                                )
                            io_outer = (
                                current_rows * joined_width / PAGE_SIZE
                                * outer_passes * 2.0
                            )
                        if inner_rows < 2:
                            comp_inner = io_inner = 0.0
                        else:
                            comp_inner = inner_rows * log2(inner_rows)
                            sort_bytes = int(inner_rows * JOIN_ROW_WIDTH)
                            if sort_bytes <= spill_mem or sort_bytes <= 0:
                                inner_passes = 0.0
                            else:
                                inner_passes = (
                                    1.0 + log2(sort_bytes / spill_mem) / 6.0
                                )
                            io_inner = (
                                inner_rows * JOIN_ROW_WIDTH / PAGE_SIZE
                                * inner_passes * 2.0
                            )
                        est = (
                            (comp_outer * cpu_op + io_outer)
                            + (comp_inner * cpu_op + io_inner)
                            + (current_rows + inner_rows) * cpu_op
                            + out_rows * cpu_tup
                        )
                        act = (
                            (comp_outer * TRUE_CPU_OPERATOR + io_outer)
                            + (comp_inner * TRUE_CPU_OPERATOR + io_inner)
                            + (current_rows + inner_rows) * TRUE_CPU_OPERATOR
                            + out_rows * TRUE_CPU_TUPLE
                        ) / join_speedup
                        key = est + inner_scan_cost
                        if key < best_key:
                            best_key = key
                            best_est, best_act = est, act
                            best_method = "merge"

                    if enable_nest:
                        # Reference ``_join_index``, memoized per
                        # (inner table, condition).
                        memo_key = (name, condition)
                        index = join_index_memo.get(memo_key, _UNSET)
                        if index is _UNSET:
                            join_column = None
                            for qualified in condition.columns:
                                table, _, column = qualified.rpartition(".")
                                if table == name:
                                    join_column = column
                            index = None
                            if join_column is not None:
                                for candidate in indexes_by_table_get(name, ()):
                                    if candidate.leading_column == join_column:
                                        index = candidate
                                        break
                            join_index_memo[memo_key] = index

                        # Reference ``_nestloop_costs``.
                        nl_inner_rows = max(1.0, inner_rows)
                        matches_per_probe = max(
                            out_rows / max(current_rows, 1.0), 1e-3
                        )
                        if index is not None:
                            parts = nest_memo.get(name)
                            if parts is None:
                                tid = table_id[name]
                                size = size_bytes_int[tid]
                                parts = (
                                    float(depth_arr[tid]),
                                    min(0.95, eff_cache / max(1, size)),
                                )
                                nest_memo[name] = parts
                            nl_depth, assumed_hit = parts
                            hit_key = (name, index.key)
                            hit = nl_hit_memo.get(hit_key)
                            if hit is None:
                                tid = table_id[name]
                                hit = cache_hit_ratio(
                                    env,
                                    size_bytes_int[tid]
                                    + stats.index_size(catalog, index),
                                )
                                nl_hit_memo[hit_key] = hit
                            per_probe_est = (
                                nl_depth * cpu_idx_tup
                                + random_page * (1.0 - assumed_hit)
                                + matches_per_probe * cpu_tup
                            )
                            per_probe_act = (
                                nl_depth * TRUE_CPU_INDEX_TUPLE
                                + nl_io_factor * (1.0 - hit)
                                + matches_per_probe * TRUE_CPU_TUPLE
                            )
                            est = current_rows * per_probe_est
                            act = current_rows * per_probe_act
                            key = est
                        else:
                            est = (
                                current_rows * nl_inner_rows * cpu_op
                                + out_rows * cpu_tup
                            )
                            act = (
                                current_rows * nl_inner_rows * TRUE_CPU_OPERATOR
                                + out_rows * TRUE_CPU_TUPLE
                            )
                            key = est + inner_scan_cost
                        if key < best_key:
                            best_key = key
                            best_est, best_act = est, act
                            best_method = "nestloop"
                            best_index = index

                    if best_method is None:
                        # Every operator disabled: forced plain nested loop.
                        nl_inner_rows = max(1.0, inner_rows)
                        best_est = (
                            current_rows * nl_inner_rows * cpu_op
                            + out_rows * cpu_tup
                        )
                        best_act = (
                            current_rows * nl_inner_rows * TRUE_CPU_OPERATOR
                            + out_rows * TRUE_CPU_TUPLE
                        )
                        best_method = "nestloop"

                    join = JoinNode(
                        inner_table=name,
                        method=best_method,
                        condition=condition,
                        index=best_index,
                        out_rows=out_rows,
                        estimated_cost=best_est,
                        actual_cost=best_act,
                    )

                current_rows = out_rows
                if join.method == "nestloop" and join.index is not None:
                    scan = ScanNode(
                        table=name,
                        method="probe",
                        index=join.index,
                        in_rows=scan.in_rows,
                        out_rows=scan.out_rows,
                        estimated_cost=0.0,
                        actual_cost=0.0,
                    )
                plan_scans.append(scan)
                plan_joins.append(join)
                joined.add(name)
                joined_width += JOIN_ROW_WIDTH

            post_inputs.append((qi, current_rows, joined_width))

        # ---- Phase C: aggregation / sort / subquery costs, one array pass -------
        in_rows = np.array([value for _, value, _ in post_inputs], dtype=np.float64)
        width = np.array([value for _, _, value in post_inputs], dtype=np.float64)
        group_mask = np.array(
            [statics[qi].has_group for qi, _, _ in post_inputs], dtype=bool
        )
        agg_count = np.array(
            [statics[qi].agg_count for qi, _, _ in post_inputs], dtype=np.float64
        )
        distinct = np.array(
            [statics[qi].group_distinct for qi, _, _ in post_inputs],
            dtype=np.float64,
        )
        order_mask = np.array(
            [statics[qi].has_order for qi, _, _ in post_inputs], dtype=bool
        )
        subquery_mask = np.array(
            [statics[qi].has_subquery for qi, _, _ in post_inputs], dtype=bool
        )
        count = in_rows.shape[0]

        # Reference ``_plan_post``: the ``est += ...`` / ``act += ...``
        # accumulation sequence is reproduced term for term; masked-off
        # terms contribute an exact ``+ 0.0``.
        est = np.zeros(count, dtype=np.float64)
        act = np.zeros(count, dtype=np.float64)

        groups = np.maximum(1.0, np.minimum(distinct, in_rows))
        est = est + np.where(
            group_mask, in_rows * costs.cpu_operator_cost * agg_count, 0.0
        )
        est = est + np.where(group_mask, groups * costs.cpu_tuple_cost, 0.0)
        act = act + np.where(group_mask, in_rows * TRUE_CPU_OPERATOR * agg_count, 0.0)
        act = act + np.where(group_mask, groups * TRUE_CPU_TUPLE, 0.0)
        group_passes = spill_passes_array(np.trunc(groups * width), env.agg_mem_bytes)
        group_spill = groups * width / PAGE_SIZE * group_passes * 2.0
        est = est + np.where(group_mask, group_spill * costs.seq_page_cost, 0.0)
        act = act + np.where(group_mask, group_spill, 0.0)
        out_rows_arr = np.where(group_mask, groups, in_rows)

        sort_mask = order_mask & (out_rows_arr > 1.0)
        comparisons = np.zeros(count, dtype=np.float64)
        sorting = np.nonzero(sort_mask)[0]
        if sorting.size:
            values = out_rows_arr[sorting].tolist()
            comparisons[sorting] = [
                value * math.log2(max(value, 2)) for value in values
            ]
        est = est + np.where(sort_mask, comparisons * costs.cpu_operator_cost, 0.0)
        act = act + np.where(sort_mask, comparisons * TRUE_CPU_OPERATOR, 0.0)
        sort_passes = spill_passes_array(
            np.trunc(out_rows_arr * width), env.sort_hash_mem_bytes
        )
        sort_spill = out_rows_arr * width / PAGE_SIZE * sort_passes * 2.0
        est = est + np.where(sort_mask, sort_spill * costs.seq_page_cost, 0.0)
        act = act + np.where(sort_mask, sort_spill, 0.0)

        est = est + np.where(subquery_mask, in_rows * costs.cpu_operator_cost, 0.0)
        act = act + np.where(subquery_mask, in_rows * TRUE_CPU_OPERATOR, 0.0)

        final_rows = np.maximum(out_rows_arr, 1.0)
        est_list = est.tolist()
        act_list = act.tolist()
        final_list = final_rows.tolist()
        for k, (qi, _, _) in enumerate(post_inputs):
            plan = plans[qi]
            plan.post_estimated_cost = est_list[k]
            plan.post_actual_cost = act_list[k]
            plan.out_rows = final_list[k]
        return plans
