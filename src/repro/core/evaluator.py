"""Configuration evaluation (paper §5.1, Algorithm 3).

``ConfigurationEvaluator.evaluate`` runs one configuration's
not-yet-completed queries under a timeout:

- parameter settings are applied up front (a restart),
- indexes are created **lazily**, right before the first query that
  could use them, so a timeout never pays for indexes of queries that
  never run,
- queries are executed in the order chosen by the DP scheduler over
  index-dependency clusters (§5.3-5.4), minimizing expected index cost,
- indexes created here are implicitly dropped when evaluation ends
  (pre-existing indexes are left alone), and
- per-configuration metadata -- completed query time, completion flag,
  cumulative index time, completed query set -- is updated in place,
  exactly the ``ConfigMeta`` of the paper's Table 2.

Selection (Algorithm 2) calls ``evaluate`` for the same configurations
round after round while the pending-query set only shrinks, so the
expensive pure derivations are memoized for the evaluator's lifetime
(one selection), each keyed on the inputs it actually reads rather than
on the pending set:

- predicate columns per query ``(name, sql)``;
- index relevance per (config index tuple, query ``(name, sql)``), so
  any pending subset is answered by lookup;
- index-creation costs per (configuration content, engine signature);
- K-means labels per (distinct index signatures, cluster cap, seed);
- the DP's order per encoded input ``(n, qmasks, bit_costs)``;
- the final order per (pending names, configuration content, engine
  signature).

A cache hit returns exactly what recomputation would: every input that
could change the result is part of the key, so the memoization is
bit-transparent (same seed => identical ``TuningResult``).  The
evaluator memoizes exactly when its engine does (``engine.caches``).

``evaluate`` has one implementation: it runs each index-stable segment
of the order in one ``engine.execute_many`` call.  The per-query loop
that states Algorithm 3 literally lives with the other reference
implementations in the test package (``tests/oracles``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache import MISS, active_cache
from repro.core.clustering import cluster_queries
from repro.core.config import Configuration
from repro.core.scheduler import MAX_DP_INPUT, compute_order_dp, greedy_order
from repro.db.engine import DatabaseEngine
from repro.db.indexes import Index
from repro.db.resources import ResourceBudget
from repro.errors import (
    BudgetInfeasibleError,
    ConfigurationError,
    ConfigurationRejectedError,
    EngineFaultError,
)
from repro.workloads.base import Query

#: Safety valve: drop memoized derivations if a pathological workload
#: would otherwise grow them without bound.
_MAX_CACHE_ENTRIES = 4096


@dataclass(slots=True)
class ConfigMeta:
    """Per-configuration bookkeeping (paper Table 2)."""

    time: float = 0.0
    is_complete: bool = False
    index_time: float = 0.0
    completed_queries: set[str] = field(default_factory=set)
    #: Quarantine flag: evaluation hit an engine fault or the script
    #: proved inapplicable.  A failed configuration is excluded from all
    #: later selection rounds (paper §4: invalid configurations are
    #: discarded, not propagated).  Partial progress -- completed
    #: queries and their time -- is preserved for reporting.
    failed: bool = False
    #: Human-readable failure cause, carrying the injected fault's
    #: ``(seed, site, key)`` replay label when chaos testing.
    failure: str = ""

    def throughput(self) -> float:
        """Completed queries per second of completed-query time."""
        if self.time <= 0.0:
            return 0.0
        return len(self.completed_queries) / self.time

    def reject_error(self) -> ConfigurationRejectedError:
        """The typed error describing why this configuration failed."""
        return ConfigurationRejectedError(self.failure or "configuration failed")


class ConfigurationEvaluator:
    """Evaluates candidate configurations on the live engine."""

    def __init__(
        self,
        engine: DatabaseEngine,
        *,
        use_scheduler: bool = True,
        lazy_indexes: bool = True,
        max_dp_input: int = MAX_DP_INPUT,
        cluster_seed: int = 0,
        budget: ResourceBudget | None = None,
    ) -> None:
        self._engine = engine
        self._use_scheduler = use_scheduler
        self._lazy_indexes = lazy_indexes
        self._max_dp_input = max_dp_input
        self._cluster_seed = cluster_seed
        self._caches = engine.caches
        self._budget = budget
        # query (name, sql) -> columns its predicates touch
        self._predicate_columns: dict[tuple[str, str], frozenset[str]] = {}
        # config index tuple -> {query (name, sql): relevant indexes}
        self._relevance: dict[tuple[Index, ...], dict[tuple, frozenset]] = {}
        # config signature + engine signature -> {index: creation seconds}
        self._index_cost_cache: dict[tuple, dict[Index, float]] = {}
        # query-name tuple + config signature + engine signature -> order
        self._order_cache: dict[tuple, list[str]] = {}
        # encoded DP input (n, qmasks, bit_costs) -> order of positions
        self._dp_memo: dict[tuple, tuple[int, ...]] = {}
        # (distinct signatures, cap, seed) -> K-means labels
        self._label_memo: dict[tuple, tuple[int, ...]] = {}

    # -- resource feasibility ---------------------------------------------------------

    def _check_budget(self, config: Configuration) -> None:
        """Reject a candidate whose footprint exceeds the resource budget.

        Raises :class:`BudgetInfeasibleError` -- a
        :class:`ConfigurationError` -- so infeasible candidates take the
        same quarantine path as inapplicable scripts.  The footprint is a
        pure function of (engine class, hardware, catalog, settings,
        indexes), and the check runs *before* any settings are applied,
        so an infeasible candidate fails with zero clock advance.
        """
        if self._budget is None:
            return
        footprint = self._engine.resource_footprint(
            config.settings, config.indexes
        )
        violation = self._budget.violation(footprint)
        if violation:
            raise BudgetInfeasibleError(
                f"configuration {config.name!r} infeasible under budget: "
                f"{violation}"
            )

    # -- cache keys -----------------------------------------------------------------

    @staticmethod
    def _config_key(config: Configuration) -> tuple:
        """Cache identity of a configuration (see ``content_key``)."""
        return config.content_key()

    @staticmethod
    def _evict_if_full(cache: dict) -> None:
        """Deterministic oldest-first partial eviction.

        Dicts preserve insertion order, so dropping from the front
        evicts the longest-resident derivations while the configurations
        of the current selection -- inserted most recently -- keep
        hitting.  Clearing wholesale here (the previous behaviour) made
        one pathological config stream evict every warm entry at once.
        """
        while len(cache) >= _MAX_CACHE_ENTRIES:
            del cache[next(iter(cache))]

    # -- index relevance ------------------------------------------------------------

    def query_index_map(
        self, queries: list[Query], config: Configuration
    ) -> dict[str, frozenset]:
        """Map each query name to the config indexes it could use.

        An index is potentially relevant when its indexed columns
        overlap the columns in the query's predicates (paper §5.1).
        Relevance reads only the query's analyzer facts and the config's
        index list, so it is memoized per (config indexes, query
        ``(name, sql)``) -- shared by configurations that differ only in
        settings -- and any pending subset is answered by lookup.
        """
        indexes = tuple(config.indexes)
        relevance = self._relevance.get(indexes) if self._caches else None
        if relevance is None:
            relevance = {}
            if self._caches:
                self._evict_if_full(self._relevance)
                self._relevance[indexes] = relevance
        index_columns = [(index, index.qualified_columns()) for index in indexes]
        result: dict[str, frozenset] = {}
        for query in queries:
            key = (query.name, query.sql)
            relevant = relevance.get(key)
            if relevant is None:
                predicate_columns = self._query_columns(query, key)
                relevant = relevance[key] = frozenset(
                    index
                    for index, columns in index_columns
                    if any(column in predicate_columns for column in columns)
                )
            result[query.name] = relevant
        return result

    def _query_columns(self, query: Query, key: tuple) -> frozenset[str]:
        """Qualified columns in the query's filters and join conditions."""
        columns = self._predicate_columns.get(key)
        if columns is None:
            found = {
                predicate.qualified_column for predicate in query.info.filters
            }
            for condition in query.info.join_conditions:
                found.update(condition.columns)
            columns = frozenset(found)
            if self._caches:
                self._evict_if_full(self._predicate_columns)
                self._predicate_columns[key] = columns
        return columns

    # -- index creation costs ---------------------------------------------------------

    def index_cost_map(self, config: Configuration) -> dict[Index, float]:
        """Estimated creation seconds per recommended index.

        Memoized per (configuration content, engine state): the engine
        signature covers both the knob settings (which size the
        maintenance memory) and the current physical design (already
        present indexes cost zero).
        """
        key = None
        if self._caches:
            key = (self._config_key(config), self._engine.config_signature)
            cached = self._index_cost_cache.get(key)
            if cached is not None:
                return cached
        result = {
            index: self._engine.index_creation_seconds(index)
            for index in config.indexes
        }
        if key is not None:
            self._evict_if_full(self._index_cost_cache)
            self._index_cost_cache[key] = result
        return result

    # -- ordering -----------------------------------------------------------------------

    def plan_order(
        self, queries: list[Query], config: Configuration
    ) -> list[Query]:
        """Choose the execution order (Algorithm 4 over clusters).

        The computed order is memoized keyed by (pending queries,
        configuration content, engine state signature).  When the
        pending set changed, the K-means labels and the DP still come
        from their memos whenever their own inputs -- the distinct index
        signatures, and the encoded DP input -- repeat.
        """
        if not self._use_scheduler or len(queries) <= 1:
            return list(queries)

        key = None
        if self._caches:
            key = (
                tuple(query.name for query in queries),
                self._config_key(config),
                self._engine.config_signature,
            )
            cached = self._order_cache.get(key)
            if cached is not None:
                by_name = {query.name: query for query in queries}
                return [by_name[name] for name in cached]

        # Persistent tier: the clustering + DP order is the single most
        # expensive pure derivation in a tune, and it is fully
        # determined by content the key below spells out.
        persistent = active_cache() if key is not None else None
        material = None
        if persistent is not None:
            engine = self._engine
            material = (
                engine.system,
                (
                    engine.hardware.memory_gb,
                    engine.hardware.cores,
                    engine.hardware.disk_mb_per_s,
                ),
                engine.catalog.content_fingerprint(),
                engine.content_key(),
                self._config_key(config),
                tuple((query.name, query.sql) for query in queries),
                self._cluster_seed,
                self._max_dp_input,
            )
            value = persistent.fetch("order", material)
            if value is not MISS:
                names = list(value)
                self._evict_if_full(self._order_cache)
                self._order_cache[key] = names
                by_name = {query.name: query for query in queries}
                return [by_name[name] for name in names]

        index_map = self.query_index_map(queries, config)
        index_cost = self.index_cost_map(config)

        label_memo = dp_memo = None
        if key is not None:
            self._evict_if_full(self._label_memo)
            self._evict_if_full(self._dp_memo)
            label_memo, dp_memo = self._label_memo, self._dp_memo
        clusters = cluster_queries(
            [query.name for query in queries],
            index_map,
            max_clusters=self._max_dp_input,
            seed=self._cluster_seed,
            memo=label_memo,
        )
        cluster_handles = list(range(len(clusters)))
        cluster_index_map = {
            handle: clusters[handle].indexes for handle in cluster_handles
        }
        if len(cluster_handles) <= self._max_dp_input:
            ordered_handles = compute_order_dp(
                cluster_handles, cluster_index_map, index_cost, memo=dp_memo
            )
        else:  # pragma: no cover - cluster_queries respects the cap
            ordered_handles = greedy_order(
                cluster_handles, cluster_index_map, index_cost
            )

        by_name = {query.name: query for query in queries}
        ordered: list[Query] = []
        for handle in ordered_handles:
            for name in clusters[handle].queries:
                ordered.append(by_name[name])

        if key is not None:
            self._evict_if_full(self._order_cache)
            names = [query.name for query in ordered]
            self._order_cache[key] = names
            if persistent is not None:
                persistent.store("order", material, tuple(names))
        return ordered

    # -- evaluation (Algorithm 3) ----------------------------------------------------------

    def evaluate(
        self,
        config: Configuration,
        queries: list[Query],
        timeout: float,
        meta: ConfigMeta,
    ) -> None:
        """Run pending queries for ``config`` under ``timeout`` seconds.

        Advances the engine clock by reconfiguration, index creation and
        query execution time; updates ``meta`` in place.

        An :class:`EngineFaultError` (query crash, OOM kill, interrupted
        index build) or an inapplicable script quarantines the
        configuration: ``meta.failed`` is set and the fault recorded,
        while partial progress -- queries completed *before* the fault
        and their times -- is preserved, so selection never re-runs them
        (Algorithm 2's resumability).  The error never propagates.

        The order decomposes into *segments*: maximal runs whose queries
        need no new lazy index, so the engine's (settings, index set)
        signature -- and with it every plan and noise draw -- is
        constant across the run.  Each segment executes in one
        ``execute_many`` call, and ``ConfigMeta.time`` adds the
        segment's times with ``np.cumsum``, the same left-to-right
        chain as a per-query ``meta.time += s`` loop.
        """
        if meta.failed:
            # Quarantined configurations are never re-evaluated.
            return
        engine = self._engine
        remaining_time = timeout
        created_here: list[Index] = []
        preexisting = {index.key for index in engine.indexes}

        try:
            self._check_budget(config)
            config.apply_settings(engine)
            meta.is_complete = True

            index_map = self.query_index_map(queries, config)
            ordered = self.plan_order(queries, config)

            if not self._lazy_indexes:
                # Ablation: build every recommended index up front.
                for index in config.indexes:
                    if index.key not in preexisting:
                        meta.index_time += engine.create_index(index)
                        created_here.append(index)

            position = 0
            total = len(ordered)
            # With no relevant indexes anywhere the lazy-creation
            # scan and the boundary scan are both no-ops: the whole
            # order is one segment.
            no_index_work = not any(index_map.values())
            while position < total:
                if self._lazy_indexes and not no_index_work:
                    for index in sorted(index_map[ordered[position].name], key=str):
                        if index.key in preexisting or engine.has_index(index):
                            continue
                        meta.index_time += engine.create_index(index)
                        created_here.append(index)

                end = total if no_index_work else self._segment_end(
                    ordered, position, index_map, preexisting
                )
                batch = engine.execute_many(
                    ordered[position:end], timeout=remaining_time
                )
                if batch.completed:
                    meta.time = float(
                        np.cumsum(np.concatenate(((meta.time,), batch.times)))[-1]
                    )
                    for query in ordered[position : position + batch.completed]:
                        meta.completed_queries.add(query.name)
                remaining_time = batch.remaining
                if batch.fault is not None:
                    # The completed prefix is banked above, as a
                    # per-query loop banks it before the fault raises.
                    raise batch.fault
                if not batch.complete:
                    meta.is_complete = False
                    break
                position = end
        except (EngineFaultError, ConfigurationError) as failure:
            meta.is_complete = False
            meta.failed = True
            meta.failure = str(failure)
        finally:
            # Indexes created by this evaluation are implicitly dropped so
            # other configurations start from a clean slate (§5.1).
            for index in created_here:
                engine.drop_index(index)

    def _segment_end(
        self,
        ordered: list[Query],
        position: int,
        index_map: dict[str, frozenset],
        preexisting: set,
    ) -> int:
        """Exclusive end of the index-stable segment starting at ``position``.

        Called *after* the indexes for ``ordered[position]`` exist, so
        the scan extends exactly to the next query whose relevant
        indexes include one not yet built -- the point where the engine
        signature would change.  Without lazy indexes every index is
        built up front and the whole order is one segment.
        """
        engine = self._engine
        end = position + 1
        if self._lazy_indexes:
            while end < len(ordered):
                needs_index = any(
                    index.key not in preexisting and not engine.has_index(index)
                    for index in index_map[ordered[end].name]
                )
                if needs_index:
                    break
                end += 1
        else:
            end = len(ordered)
        return end
