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

- per config index tuple: its universe (the distinct indexes sorted by
  ``str``, bit ``b`` of a mask standing for the ``b``-th), a posting map
  from each qualified column to the bits of the indexes on it, and each
  query's mask per ``(name, sql)``, which clustering, the DP and the
  lazy builds read; any pending subset is answered by lookup;
- index-creation costs per (configuration content, engine signature);
- K-means labels per (packed distinct masks, cluster cap, seed);
- the DP's order per packed input ``(n, qmasks, bit_costs)``;
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
from repro.core.scheduler import MAX_DP_INPUT, compute_order_dp
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


class _Relevance:
    """One index tuple's canonical universe and the masks over it."""

    __slots__ = ("universe", "postings", "key_bits", "masks")

    def __init__(self, indexes: tuple[Index, ...]) -> None:
        self.universe = tuple(sorted(set(indexes), key=str))
        self.postings: dict[str, int] = {}  # column -> bits of its indexes
        self.key_bits: dict[tuple, int] = {}  # index key -> bits with that key
        for bit, index in enumerate(self.universe):
            flag = 1 << bit
            for column in index.qualified_columns():
                self.postings[column] = self.postings.get(column, 0) | flag
            self.key_bits[index.key] = self.key_bits.get(index.key, 0) | flag
        self.masks: dict[tuple[str, str], int] = {}  # query (name, sql) -> mask


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
        # config index tuple -> its universe, postings and query masks
        self._relevance: dict[tuple[Index, ...], _Relevance] = {}
        # config signature + engine signature -> {index: creation seconds}
        self._index_cost_cache: dict[tuple, dict[Index, float]] = {}
        # query-name tuple + config signature + engine signature -> order
        self._order_cache: dict[tuple, list[str]] = {}
        # packed DP input (n, qmasks, bit_costs) -> order of positions
        self._dp_memo: dict[tuple, tuple[int, ...]] = {}
        # (packed distinct masks, cap, seed) -> K-means labels
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

    def _relevance_of(self, config: Configuration) -> _Relevance:
        """The memo entry of the configuration's index tuple."""
        indexes = tuple(config.indexes)
        relevance = self._relevance.get(indexes) if self._caches else None
        if relevance is None:
            relevance = _Relevance(indexes)
            if self._caches:
                self._evict_if_full(self._relevance)
                self._relevance[indexes] = relevance
        return relevance

    def index_universe(self, config: Configuration) -> tuple[Index, ...]:
        """The config's distinct indexes in ``str`` order; bit ``b`` of a
        :meth:`query_index_map` mask stands for the ``b``-th."""
        return self._relevance_of(config).universe

    def query_index_map(
        self, queries: list[Query], config: Configuration
    ) -> dict[str, int]:
        """Map each query name to the mask of config indexes it could use.

        An index is potentially relevant when its indexed columns
        overlap the columns in the query's predicates (paper §5.1), so a
        query's mask is the OR of the postings of its filter and join
        columns.  Relevance reads only the query's analyzer facts and
        the config's index list, so it is memoized per (config indexes,
        query ``(name, sql)``) -- shared by configurations that differ
        only in settings -- and any pending subset is answered by lookup.
        """
        relevance = self._relevance_of(config)
        postings, known = relevance.postings, relevance.masks
        result: dict[str, int] = {}
        for query in queries:
            key = (query.name, query.sql)
            mask = known.get(key)
            if mask is None:
                info = query.info
                mask = 0
                for predicate in info.filters:
                    mask |= postings.get(predicate.qualified_column, 0)
                for condition in info.join_conditions:
                    mask |= postings.get(condition.left, 0)
                    mask |= postings.get(condition.right, 0)
                known[key] = mask
            result[query.name] = mask
        return result

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
        from their memos whenever their own inputs -- the packed
        distinct masks, and the packed DP input -- repeat.
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

        masks = self.query_index_map(queries, config)
        index_cost = self.index_cost_map(config)
        bit_costs = [index_cost[index] for index in self.index_universe(config)]

        label_memo = dp_memo = None
        if key is not None:
            self._evict_if_full(self._label_memo)
            self._evict_if_full(self._dp_memo)
            label_memo, dp_memo = self._label_memo, self._dp_memo
        clusters = cluster_queries(
            [query.name for query in queries],
            masks,
            max_clusters=self._max_dp_input,
            seed=self._cluster_seed,
            memo=label_memo,
        )
        cluster_handles = list(range(len(clusters)))
        ordered_handles = compute_order_dp(
            cluster_handles,
            {handle: clusters[handle].indexes for handle in cluster_handles},
            bit_costs,
            memo=dp_memo,
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

            masks = self.query_index_map(queries, config)
            ordered = self.plan_order(queries, config)

            if not self._lazy_indexes:
                # Ablation: build every recommended index up front.
                for index in config.indexes:
                    if index.key not in preexisting:
                        meta.index_time += engine.create_index(index)
                        created_here.append(index)

            relevance = self._relevance_of(config)
            # Bits whose index key the engine has: built here, or before.
            built = 0
            for index_key in preexisting:
                built |= relevance.key_bits.get(index_key, 0)
            # Without lazy builds, or with no relevant index anywhere,
            # the whole order is one segment.
            lazy = self._lazy_indexes and any(masks.values())
            position = 0
            total = len(ordered)
            while position < total:
                end = total
                if lazy:
                    # Build the query's missing indexes in bit (``str``)
                    # order; a build also covers the bits of its key.
                    unbuilt = masks[ordered[position].name] & ~built
                    while unbuilt:
                        bit = (unbuilt & -unbuilt).bit_length() - 1
                        index = relevance.universe[bit]
                        meta.index_time += engine.create_index(index)
                        created_here.append(index)
                        built |= relevance.key_bits[index.key]
                        unbuilt &= ~built
                    # The segment ends before the next query that needs
                    # an unbuilt index: the engine signature changes there.
                    end = position + 1
                    while end < total and not masks[ordered[end].name] & ~built:
                        end += 1
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
