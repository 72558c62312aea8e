"""The simulated database engine.

:class:`DatabaseEngine` exposes exactly the surface the tuning systems
need from a DBMS:

- ``apply_config`` / ``reset_config`` -- ALTER SYSTEM SET + restart,
- ``create_index`` / ``drop_index`` / ``drop_all_indexes`` -- physical
  design changes with simulated durations,
- ``execute(query, timeout)`` -- run one query under a timeout,
- ``explain(query)`` -- optimizer cost estimates without executing.

All durations advance the engine's :class:`VirtualClock`; nothing in the
tuning stack ever reads wall-clock time.

Memoization is a property of the engine: ``DatabaseEngine(...,
caches=False)`` turns off its own memos, the catalog-shared caches and
the persistent artifact cache for its plans, and every component that
derives from the engine -- the evaluator, ``compile_workload``,
``join_condition_values`` -- reads the same setting from it.  The
caches are bit-transparent, so the setting changes speed only.

Single-query planning (``explain``, ``execute``) is the batch path of
one query, and the fault-injecting segment loop consults the same
per-query hook as ``execute``, so each layer has one implementation.
"""

from __future__ import annotations

import abc
import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.cache import MISS, active_cache
from repro.db.catalog import Catalog
from repro.db.clock import VirtualClock
from repro.db.cost_model import (
    PlannerCosts,
    RuntimeEnv,
    deterministic_noise,
    deterministic_noise_vector,
)
from repro.db.hardware import HardwareSpec
from repro.db.indexes import Index
from repro.db.knobs import KnobCategory, KnobKind, KnobSpace
from repro.db.resources import ResourceFootprint
from repro.db.planner import Planner, QueryPlan
from repro.errors import ConfigurationError, EngineFaultError, TransientEngineError
from repro.sql.analyzer import QueryInfo, analyze


#: Safety valve for the catalog-shared plan cache: a pathological stream
#: of distinct configurations must not grow it without bound.
_MAX_SHARED_CACHE_ENTRIES = 65536


#: Safety valve for the per-engine segment-duration memo (one float64
#: array per (configuration signature, segment queries) pair).  Evicted
#: oldest-first, so the segments of the workload currently being tuned
#: stay resident.
_MAX_SECONDS_CACHE_ENTRIES = 512


def shared_catalog_cache(catalog: Catalog, section: str, factory=dict) -> dict:
    """A named cache dictionary attached to a :class:`Catalog` instance.

    Derivations that depend only on catalog content (SQL analysis) or on
    content-hashed state (plans keyed by configuration signature) are
    shared across *all* engines built over the same catalog object: the
    bench harness builds 14+ engines per scenario and every job of a
    ``tune_many`` batch builds its own, all over identical workloads.
    The caches live on the catalog instance so they are
    garbage-collected with it.
    """
    caches = getattr(catalog, "_shared_caches", None)
    if caches is None:
        caches = {}
        catalog._shared_caches = caches  # type: ignore[attr-defined]
    return caches.setdefault(section, factory())


def shared_analysis_cache(catalog: Catalog) -> dict[str, QueryInfo]:
    """The per-catalog SQL-analysis cache, shared across engines."""
    return shared_catalog_cache(catalog, "analysis")


def shared_plan_cache(catalog: Catalog) -> OrderedDict:
    """The per-catalog plan cache, shared across engines.

    Keyed by ``(system, hardware, sql, config signature)``: the
    signature is a content hash of settings plus physical design, so two
    engines in the same state produce interchangeable plans.  Values are
    ``(plan, pre-noise seconds)``; per-query deterministic noise is
    applied at lookup because it depends on the query *name*, not text.
    At the size valve the oldest plan goes, in one ``popitem`` call that
    engines on other server threads cannot interleave.
    """
    return shared_catalog_cache(catalog, "plans", OrderedDict)


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """Outcome of executing one query (the paper's ``Metrics`` object)."""

    complete: bool
    execution_time: float
    plan: QueryPlan | None = None


@dataclass(slots=True)
class BatchExecution:
    """Outcome of executing one index-stable query segment in bulk.

    ``times`` holds the execution seconds of the *completed* prefix, in
    execution order -- exactly the values a scalar :meth:`execute` loop
    would have returned for them.  ``remaining`` is the timeout budget
    left after that prefix (``None`` when no timeout was given).  A
    fault that fired mid-segment is *returned*, not raised, so the
    caller can bank the completed prefix -- matching the scalar loop,
    which updates its bookkeeping per query before the fault raises --
    and then re-raise into its own quarantine handling.
    """

    times: np.ndarray
    complete: bool
    remaining: float | None
    fault: EngineFaultError | None = None

    @property
    def completed(self) -> int:
        """Number of queries that ran to completion."""
        return int(self.times.shape[0])


@dataclass(frozen=True, slots=True)
class EngineState:
    """Picklable snapshot of an engine's mutable state.

    Captures exactly what evaluation can change -- parameter settings,
    the physical design, and the clock -- so a resumed session can
    rebuild a bit-identical engine from ``(catalog, hardware, state)``.
    """

    settings: tuple[tuple[str, object], ...]
    indexes: tuple[Index, ...]
    clock: float


class DatabaseEngine(abc.ABC):
    """Common machinery for the PostgreSQL and MySQL simulators."""

    #: Simulated server restart duration after ALTER SYSTEM changes.
    restart_seconds: float = 2.0
    #: Simulated cost of dropping one index.
    drop_index_seconds: float = 0.05
    #: Installed :class:`repro.faults.FaultPlan`, or ``None``.  A class
    #: attribute default keeps the fault hooks to a single ``is None``
    #: attribute check on the hot path when chaos testing is off.
    fault_plan = None
    #: Simulated recovery cost of one transient I/O retry; folded into
    #: the query runtime, so an I/O storm can push a query over its
    #: timeout exactly like a genuinely slow execution would.
    io_retry_seconds: float = 0.05
    #: Internal retry budget for transient I/O faults; storms beyond it
    #: surface as :class:`TransientEngineError`.
    max_io_retries: int = 3
    #: Memory-oversubscription swap factor above which an active
    #: ``engine.oom`` fault site kills queries and index builds: the
    #: configured memory knobs demand measurably more than the
    #: simulated RAM.
    oom_swap_threshold: float = 1.05

    def __init__(
        self,
        catalog: Catalog,
        hardware: HardwareSpec | None = None,
        clock: VirtualClock | None = None,
        *,
        caches: bool = True,
    ) -> None:
        self.catalog = catalog
        self.hardware = hardware or HardwareSpec.paper_default()
        #: Memoize derivations (see the module docstring).  ``False``
        #: recomputes everything and leaves the catalog-shared caches
        #: and the persistent artifact cache untouched.
        self.caches = caches
        self.clock = clock or VirtualClock()
        # Static knob bounds describe what the DBMS accepts; overlay the
        # host-derived memory ceilings so impossible allocations are
        # rejected with a typed HardwareLimitError at coerce time.
        self.knob_space: KnobSpace = self._build_knob_space().with_hardware_limits(
            self.hardware
        )
        self._config: dict[str, object] = dict(self.knob_space.defaults())
        self._indexes: dict[tuple[str, tuple[str, ...]], Index] = {}
        self._column_owner = catalog.column_owner_map()
        if caches:
            self._analysis_cache = shared_analysis_cache(catalog)
            self._plan_cache = shared_plan_cache(catalog)
        else:
            self._analysis_cache = {}
            self._plan_cache = OrderedDict()
        # Memoization keyed by the settings-only part of the signature:
        # planner costs and the runtime env do not depend on indexes.
        self._settings_text = ""
        self._signature_cache: dict[tuple[str, tuple], int] = {}
        self._env_cache: dict[str, RuntimeEnv] = {}
        self._planner_costs_cache: dict[str, PlannerCosts] = {}
        # (system, hardware, config signature, names, sqls) -> the full
        # segment duration vector; selection re-executes the same
        # segments round after round, and one dict hit replaces the
        # plan-lookup pass and the per-name SHA-256 noise draws.
        self._seconds_cache: dict[tuple, np.ndarray] = {}
        self._config_signature = 0
        self._refresh_settings_text()
        self._refresh_signature()

    # -- to be provided by concrete engines ------------------------------------

    @property
    @abc.abstractmethod
    def system(self) -> str:
        """Lower-case system name ('postgres' or 'mysql')."""

    @abc.abstractmethod
    def _build_knob_space(self) -> KnobSpace:
        """The tunable parameter space of this system."""

    @abc.abstractmethod
    def _planner_costs(self) -> PlannerCosts:
        """Configured optimizer constants derived from current settings."""

    @abc.abstractmethod
    def _runtime_env(self) -> RuntimeEnv:
        """True execution environment derived from current settings."""

    # -- cached derivations -------------------------------------------------------

    def planner_costs(self) -> PlannerCosts:
        """Configured optimizer constants, memoized per settings state."""
        if not self.caches:
            return self._planner_costs()
        costs = self._planner_costs_cache.get(self._settings_text)
        if costs is None:
            costs = self._planner_costs()
            self._planner_costs_cache[self._settings_text] = costs
        return costs

    def runtime_env(self) -> RuntimeEnv:
        """True execution environment, memoized per settings state."""
        if not self.caches:
            return self._runtime_env()
        env = self._env_cache.get(self._settings_text)
        if env is None:
            env = self._runtime_env()
            self._env_cache[self._settings_text] = env
        return env

    # -- configuration -----------------------------------------------------------

    @property
    def config(self) -> dict[str, object]:
        """A copy of the current parameter settings."""
        return dict(self._config)

    @property
    def config_signature(self) -> int:
        """Stable digest of the current settings *and* index set.

        Changes whenever a knob or the physical design changes; the
        evaluator uses it as a cache-invalidation key for memoized
        query-index maps and plan orders.
        """
        return self._config_signature

    def content_key(self) -> tuple[str, str]:
        """Cross-process content key for the engine's mutable state.

        ``config_signature`` collapses the same content to 64 bits for
        hot-path dict keys; the persistent artifact cache wants the full
        pre-image (settings text plus sorted index keys) so digests are
        collision-free by construction.
        """
        return (
            self._settings_text,
            ",".join(str(index_key) for index_key in sorted(self._indexes)),
        )

    def get(self, knob_name: str) -> object:
        """Current value of one knob."""
        knob = self.knob_space.knob(knob_name)
        return self._config[knob.name]

    def set_knob(self, name: str, raw_value: object) -> None:
        """Validate and apply one setting (no restart cost; used by tests)."""
        knob = self.knob_space.knob(name)
        self._config[knob.name] = knob.coerce(raw_value)
        self._refresh_settings_text()
        self._refresh_signature()

    def set_many(self, settings: dict[str, object]) -> None:
        """Apply settings without restart cost (what-if analysis only)."""
        for name, raw in settings.items():
            knob = self.knob_space.knob(name)
            self._config[knob.name] = knob.coerce(raw)
        self._refresh_settings_text()
        self._refresh_signature()

    def apply_config(self, settings: dict[str, object]) -> float:
        """Apply parameter settings and restart; returns the restart time.

        Settings are validated *before* anything is applied, so an
        invalid script leaves the engine untouched.
        """
        coerced: dict[str, object] = {}
        for name, raw in settings.items():
            knob = self.knob_space.knob(name)
            coerced[knob.name] = knob.coerce(raw)
        if not coerced:
            return 0.0
        self._config.update(coerced)
        self._refresh_settings_text()
        self._refresh_signature()
        self.clock.advance(self.restart_seconds)
        return self.restart_seconds

    def reset_config(self) -> float:
        """Restore every knob to its default and restart."""
        self._config = dict(self.knob_space.defaults())
        self._refresh_settings_text()
        self._refresh_signature()
        self.clock.advance(self.restart_seconds)
        return self.restart_seconds

    # -- physical design ------------------------------------------------------------

    @property
    def indexes(self) -> list[Index]:
        return list(self._indexes.values())

    def has_index(self, index: Index) -> bool:
        return index.key in self._indexes

    def index_creation_seconds(self, index: Index) -> float:
        """Estimated build time under current settings (no state change)."""
        if index.key in self._indexes:
            return 0.0
        env = self.runtime_env()
        return (
            index.creation_seconds(
                self.catalog, env.maintenance_mem_bytes, self.hardware.disk_mb_per_s
            )
            * env.swap_factor
        )

    def create_index(self, index: Index) -> float:
        """Build an index, advancing the clock; idempotent (0 s if present)."""
        index.validate(self.catalog)
        if index.key in self._indexes:
            return 0.0
        env = self.runtime_env()
        seconds = index.creation_seconds(
            self.catalog, env.maintenance_mem_bytes, self.hardware.disk_mb_per_s
        )
        seconds *= env.swap_factor
        if self.fault_plan is not None:
            # Faults are checked before any state mutation: an
            # interrupted build leaves no index behind, only the clock
            # time already sunk into the partial build.
            seconds = self._inject_faults(
                "engine.index_interrupt",
                f"index:{index.key}",
                seconds,
                None,
                "index build interrupted",
            )
        self._indexes[index.key] = index
        self._refresh_signature()
        self.clock.advance(seconds)
        return seconds

    def drop_index(self, index: Index) -> float:
        if index.key not in self._indexes:
            return 0.0
        del self._indexes[index.key]
        self._refresh_signature()
        self.clock.advance(self.drop_index_seconds)
        return self.drop_index_seconds

    @contextmanager
    def hypothetical_indexes(self, indexes: list[Index]):
        """What-if planning: indexes exist inside the block at zero cost.

        Used by the index-advisor baselines (Dexter, DB2 Advisor) the way
        real advisors use hypothetical index catalog entries -- the clock
        never advances and the indexes vanish on exit.
        """
        added: list[Index] = []
        for index in indexes:
            index.validate(self.catalog)
            if index.key not in self._indexes:
                self._indexes[index.key] = index
                added.append(index)
        self._refresh_signature()
        try:
            yield self
        finally:
            for index in added:
                self._indexes.pop(index.key, None)
            self._refresh_signature()

    def drop_all_indexes(self) -> float:
        """Drop every index (the implicit cleanup between evaluations)."""
        total = 0.0
        for index in list(self._indexes.values()):
            total += self.drop_index(index)
        return total

    # -- execution -------------------------------------------------------------------

    def analyze_query(self, sql: str) -> QueryInfo:
        """Analyze SQL against this engine's catalog (cached)."""
        info = self._analysis_cache.get(sql)
        if info is None:
            info = analyze(sql, self._column_owner)
            self._analysis_cache[sql] = info
        return info

    def query_info(self, query: "str | object") -> QueryInfo:
        """Analyzer facts for a query or SQL string (cached)."""
        _, _, info = self._query_parts(query)
        return info

    def explain(self, query: "str | object") -> QueryPlan:
        """Plan a query with current settings without executing it."""
        return self.plan_many([query])[0]

    def estimate_seconds(self, query: "str | object") -> float:
        """Simulated runtime under current settings, without executing."""
        name, sql, info = self._query_parts(query)
        _, seconds = self._planned(name, sql, info)
        return seconds

    def plan_many(self, queries: list) -> list[QueryPlan]:
        """Plan a whole workload in one pass (:meth:`explain` of many).

        Cache misses are costed together by ``Planner.plan_many`` and
        stored in the in-process and persistent plan caches; a plan is
        bit-identical whether its query was planned alone or in a batch.
        """
        parts = [self._query_parts(query) for query in queries]
        return [plan for plan, _ in self._planned_batch(parts)]

    def estimate_many(self, queries: list) -> list[float]:
        """Batched :meth:`estimate_seconds` over a list of queries."""
        parts = [self._query_parts(query) for query in queries]
        planned = self._planned_batch(parts)
        bases = np.array([seconds for _, seconds in planned], dtype=np.float64)
        noise = deterministic_noise_vector(
            [
                (self.system, name, self._config_signature)
                for name, _, _ in parts
            ]
        )
        seconds = np.maximum(bases * noise, 1e-4)
        return [float(value) for value in seconds]

    def _plan_material(self, sql: str) -> tuple:
        """Persistent-cache material for one query's plan (see ``_planned``)."""
        return (
            self.system,
            (
                self.hardware.memory_gb,
                self.hardware.cores,
                self.hardware.disk_mb_per_s,
            ),
            self.catalog.content_fingerprint(),
            self.content_key(),
            sql,
        )

    def _planned_batch(
        self, parts: list[tuple[str, str, QueryInfo]]
    ) -> list[tuple[QueryPlan, float]]:
        """``(plan, base_seconds)`` per ``(name, sql, info)`` part.

        ``base_seconds`` excludes the per-name deterministic noise.
        Plans are cached by SQL text, not name: the cache is shared by
        every engine over this catalog, where distinct workloads may
        reuse query names.
        """
        system = self.system
        hardware = self.hardware
        signature = self._config_signature
        plan_cache = self._plan_cache
        keys: dict[str, tuple] = {}
        missing: dict[str, QueryInfo] = {}
        # ``resolved`` collects one entry per unique sql -- shared-cache
        # hits and everything this call plans -- so the final gather is
        # immune to the size valve evicting entries mid-batch.
        resolved: dict[str, tuple[QueryPlan, float]] = {}
        for _, sql, info in parts:
            if sql not in keys:
                key = keys[sql] = (system, hardware, sql, signature)
                cached = plan_cache.get(key)
                if cached is None:
                    missing[sql] = info
                else:
                    resolved[sql] = cached

        fresh: dict[str, tuple[QueryPlan, float]] = {}
        if missing:
            persistent = active_cache() if self.caches else None
            unplanned: dict[str, QueryInfo] = {}
            for sql, info in missing.items():
                cached = None
                if persistent is not None:
                    value = persistent.fetch("plan", self._plan_material(sql))
                    if value is not MISS:
                        cached = value
                if cached is None:
                    unplanned[sql] = info
                else:
                    fresh[sql] = cached
            if unplanned:
                env = self.runtime_env()
                planner = Planner(
                    self.catalog, self._indexes, self.planner_costs(), env
                )
                sqls = list(unplanned)
                plans = planner.plan_many([unplanned[sql] for sql in sqls])
                # ``plan.actual_cost`` inlined (same left-to-right adds)
                # with the env factors hoisted, multiplied in the order
                # ``actual_cost * seconds_per_cost_unit * logging_factor
                # * swap_factor``.
                seconds_per_cost_unit = env.seconds_per_cost_unit
                logging_factor = env.logging_factor
                swap_factor = env.swap_factor
                for sql, plan in zip(sqls, plans):
                    scans_total: float = 0
                    for node in plan.scans:
                        scans_total += node.actual_cost
                    joins_total: float = 0
                    for node in plan.joins:
                        joins_total += node.actual_cost
                    base_seconds = (
                        (scans_total + joins_total + plan.post_actual_cost)
                        * seconds_per_cost_unit
                        * logging_factor
                        * swap_factor
                    )
                    cached = (plan, base_seconds)
                    if persistent is not None:
                        persistent.store("plan", self._plan_material(sql), cached)
                    fresh[sql] = cached
            for sql, cached in fresh.items():
                while len(plan_cache) >= _MAX_SHARED_CACHE_ENTRIES:
                    plan_cache.popitem(last=False)
                plan_cache[keys[sql]] = cached
            resolved.update(fresh)

        return [resolved[sql] for _, sql, _ in parts]

    def execute(
        self, query: "str | object", timeout: float | None = None
    ) -> ExecutionResult:
        """Run one query; advance the clock by min(runtime, timeout).

        With a fault plan installed, the run may cost extra transient
        I/O retries or raise :class:`EngineFaultError` mid-query (crash
        or OOM kill) after sinking the partial runtime into the clock.
        """
        if timeout is not None and timeout <= 0:
            return ExecutionResult(complete=False, execution_time=0.0)
        name, sql, info = self._query_parts(query)
        plan, seconds = self._planned(name, sql, info)
        if self.fault_plan is not None:
            seconds = self._inject_faults(
                "engine.query_crash", f"query:{name}", seconds, timeout, "query crashed"
            )
        if timeout is not None and seconds > timeout:
            self.clock.advance(timeout)
            return ExecutionResult(complete=False, execution_time=timeout, plan=plan)
        self.clock.advance(seconds)
        return ExecutionResult(complete=True, execution_time=seconds, plan=plan)

    def execute_many(
        self, queries: list, timeout: float | None = None
    ) -> BatchExecution:
        """Run an index-stable query segment in one vectorized call.

        Bit-identical to a scalar loop that calls ``execute(query,
        timeout=remaining)`` per query while subtracting each completed
        query's time from ``remaining``: plans come from
        ``_planned_batch``, noise from ``deterministic_noise_vector``,
        and the timeout cut from the prefix sum ``timeout - s0 - s1 -
        ...`` -- ``np.cumsum`` performs the same left-to-right float64
        chain as the sequential subtractions, and IEEE-754 defines
        ``a - b`` as ``a + (-b)``, so the first negative prefix entry
        identifies exactly the query the scalar loop would cut at.  The
        clock advances through :meth:`VirtualClock.advance_many` (one
        cumsum jump, same adds).  With a fault plan installed the
        segment runs through :meth:`_execute_batch_faulty` instead;
        either way a mid-segment fault is returned in the result rather
        than raised (see :class:`BatchExecution`).
        """
        if timeout is not None and timeout <= 0:
            return BatchExecution(
                times=np.empty(0, dtype=np.float64),
                complete=False,
                remaining=timeout,
            )
        if not queries:
            return BatchExecution(
                times=np.empty(0, dtype=np.float64),
                complete=True,
                remaining=timeout,
            )

        # Memoize the whole segment's duration vector: ``seconds`` is
        # pure in (system, hardware, config signature, names, sqls) --
        # the same inputs the plan cache and the noise draws key on --
        # so selection rounds re-running an unchanged segment skip the
        # plan-lookup and noise passes entirely.  Bit-transparent: the
        # noise factors are pure in (system, name, config signature).
        names: tuple | None = None
        cache_key: tuple | None = None
        seconds: np.ndarray | None = None
        if self.caches:
            try:
                names = tuple(query.name for query in queries)
                cache_key = (
                    self.system,
                    self.hardware,
                    self._config_signature,
                    names,
                    tuple(query.sql for query in queries),
                )
            except AttributeError:
                cache_key = None  # str queries: take the full path
            else:
                seconds = self._seconds_cache.get(cache_key)
        if seconds is None:
            parts = [self._query_parts(query) for query in queries]
            planned = self._planned_batch(parts)
            bases = np.array([base for _, base in planned], dtype=np.float64)
            signature = self._config_signature
            noise = deterministic_noise_vector(
                [(self.system, name, signature) for name, _, _ in parts]
            )
            seconds = np.maximum(bases * noise, 1e-4)
            names = tuple(name for name, _, _ in parts)
            if cache_key is not None:
                while len(self._seconds_cache) >= _MAX_SECONDS_CACHE_ENTRIES:
                    del self._seconds_cache[next(iter(self._seconds_cache))]
                self._seconds_cache[cache_key] = seconds

        if self.fault_plan is not None:
            return self._execute_batch_faulty(names, seconds, timeout)

        if timeout is None:
            self.clock.advance_many(seconds)
            return BatchExecution(times=seconds, complete=True, remaining=None)

        chain = np.cumsum(
            np.concatenate(
                (np.array([timeout], dtype=np.float64), np.negative(seconds))
            )
        )
        below = chain[1:] < 0.0
        cut = int(np.argmax(below)) if bool(below.any()) else len(names)
        completed = seconds[:cut]
        self.clock.advance_many(completed)
        if cut == len(names):
            return BatchExecution(
                times=completed, complete=True, remaining=float(chain[-1])
            )
        # The cut query sees either an already-exhausted budget (scalar
        # ``execute`` returns incomplete without touching the clock) or
        # a partial run that sinks exactly the leftover budget.
        leftover = float(chain[cut])
        if leftover > 0:
            self.clock.advance(leftover)
        return BatchExecution(times=completed, complete=False, remaining=leftover)

    def _execute_batch_faulty(
        self,
        names: "tuple[str, ...] | list[str]",
        seconds: np.ndarray,
        timeout: float | None,
    ) -> BatchExecution:
        """The segment as ``execute``'s per-query loop, with faults.

        Each query consults :meth:`_inject_faults` exactly as
        :meth:`execute` does, against the running budget; the first
        fault truncates the segment and is returned, not raised.
        """
        clock = self.clock
        remaining = timeout
        times: list[float] = []
        complete = True
        fault: EngineFaultError | None = None
        for name, value in zip(names, seconds):
            if remaining is not None and remaining <= 0:
                complete = False
                break
            try:
                run_seconds = self._inject_faults(
                    "engine.query_crash",
                    f"query:{name}",
                    float(value),
                    remaining,
                    "query crashed",
                )
            except EngineFaultError as error:
                fault = error
                complete = False
                break
            if remaining is not None and run_seconds > remaining:
                clock.advance(remaining)
                complete = False
                break
            clock.advance(run_seconds)
            times.append(run_seconds)
            if remaining is not None:
                remaining = remaining - run_seconds
        return BatchExecution(
            times=np.array(times, dtype=np.float64),
            complete=complete,
            remaining=remaining,
            fault=fault,
        )

    def run_workload(self, queries: list) -> float:
        """Execute all queries to completion, returning total query time."""
        total = 0.0
        for query in queries:
            total += self.execute(query).execution_time
        return total

    # -- fault injection ----------------------------------------------------------------

    def install_faults(self, plan) -> None:
        """Install (or with ``None``, remove) a fault plan on this engine."""
        self.fault_plan = plan

    def _inject_faults(
        self,
        site: str,
        label: str,
        seconds: float,
        timeout: float | None,
        message: str,
    ) -> float:
        """Consult the fault plan for one unit of engine work.

        Returns the (possibly retry-inflated) duration, or raises
        :class:`EngineFaultError` / :class:`TransientEngineError` after
        advancing the clock by the partial work sunk before the fault.
        Fault keys combine the work label with the configuration
        signature, so whether a query crashes depends on the candidate
        configuration under evaluation -- the scenario of paper §4 --
        and decisions are identical in every process that runs the job.
        """
        plan = self.fault_plan
        key = f"{label}|{self._config_signature:016x}"

        # Transient I/O hiccups: the engine retries internally; each
        # retry inflates the runtime, it never changes the outcome --
        # unless the storm exceeds the engine's retry budget, at which
        # point the sunk retry time is charged and the transient error
        # surfaces to the caller.
        retries = plan.transient_count("engine.io_transient", key)
        if retries > self.max_io_retries:
            sunk = self.io_retry_seconds * self.max_io_retries
            if timeout is None or sunk <= timeout:
                self.clock.advance(sunk)
                raise TransientEngineError(
                    "persistent I/O errors",
                    site="engine.io_transient",
                    key=key,
                    seed=plan.seed,
                )
            return seconds
        for _ in range(retries):
            seconds += self.io_retry_seconds

        decision = None
        fault_message = message
        if plan.fires("engine.oom", key):
            # OOM kills only trigger when the configured memory knobs
            # actually oversubscribe the simulated RAM (swap pressure).
            if self.runtime_env().swap_factor > self.oom_swap_threshold:
                decision = plan.decide("engine.oom", key)
                fault_message = "out of memory"
        if decision is None:
            decision = plan.decide(site, key)
        if decision is None:
            return seconds

        sunk = seconds * decision.magnitude
        if timeout is not None and sunk > timeout:
            # The timeout fires first; the caller sees an ordinary
            # incomplete execution, never the crash behind it.
            return seconds
        self.clock.advance(sunk)
        raise EngineFaultError(
            fault_message,
            site=decision.site,
            key=decision.key,
            seed=decision.seed,
        )

    # -- internals ----------------------------------------------------------------------

    def _query_parts(self, query: "str | object") -> tuple[str, str, QueryInfo]:
        if isinstance(query, str):
            return query, query, self.analyze_query(query)
        sql = getattr(query, "sql", None)
        if sql is None:
            raise ConfigurationError(
                f"cannot execute object of type {type(query).__name__}"
            )
        name = getattr(query, "name", None) or sql
        info = getattr(query, "info", None)
        if info is None:
            info = self.analyze_query(sql)
        return name, sql, info

    def _planned(self, name: str, sql: str, info: QueryInfo) -> tuple[QueryPlan, float]:
        """One query's plan and noisy seconds: ``_planned_batch`` of one."""
        ((plan, seconds),) = self._planned_batch([(name, sql, info)])
        seconds *= deterministic_noise(self.system, name, self._config_signature)
        return plan, max(seconds, 1e-4)

    def _refresh_settings_text(self) -> None:
        """Rebuild the settings half of the signature text.

        Only called when parameter settings change; index-only changes
        (the evaluator's per-round create/drop churn) reuse it.
        """
        self._settings_text = "|".join(
            f"{name}={value}" for name, value in sorted(self._config.items())
        )

    def _refresh_signature(self) -> None:
        # hashlib, not hash(): the signature feeds the deterministic
        # noise, so it must be stable across processes (PYTHONHASHSEED).
        # The evaluator re-creates and drops the same index sets every
        # selection round, so signatures for recurring (settings, index
        # set) states are memoized.
        key = (self._settings_text, tuple(sorted(self._indexes)))
        if self.caches:
            cached = self._signature_cache.get(key)
            if cached is not None:
                self._config_signature = cached
                return
        text = key[0] + "#" + ",".join(str(index_key) for index_key in key[1])
        digest = hashlib.sha256(text.encode()).digest()
        signature = int.from_bytes(digest[:8], "big")
        if self.caches:
            self._signature_cache[key] = signature
        self._config_signature = signature

    # -- capture / restore (session checkpoint support) ---------------------------------

    def capture_state(self) -> EngineState:
        """Snapshot settings, physical design, and clock (picklable)."""
        return EngineState(
            settings=tuple(sorted(self._config.items())),
            indexes=tuple(self._indexes.values()),
            clock=self.clock.now,
        )

    def restore_state(self, state: EngineState) -> None:
        """Replace the mutable state with a previously captured one.

        Settings are restored verbatim (full replacement, no merge), so
        the engine carries no residue from its earlier state.
        """
        self._config = {name: value for name, value in state.settings}
        self._indexes = {index.key: index for index in state.indexes}
        self.clock = VirtualClock(state.clock)
        self._refresh_settings_text()
        self._refresh_signature()

    # -- resource accounting -----------------------------------------------------------

    def resource_footprint(
        self,
        settings: dict[str, object] | None = None,
        indexes: tuple[Index, ...] | list[Index] = (),
    ) -> ResourceFootprint:
        """Peak-memory and disk footprint of a hypothetical configuration.

        Computed over the knob *defaults* overlaid with ``settings`` --
        never the engine's current configuration -- so a candidate's
        footprint is a pure function of (engine class, hardware, catalog,
        pre-existing indexes, settings, extra indexes).  That makes the
        budget feasibility gate deterministic across serial, thread, and
        process executors regardless of which candidates were applied
        before the check runs.

        ``indexes`` are prospective additions (a candidate's CREATE INDEX
        statements); indexes already installed on the engine count too,
        deduplicated by key.
        """
        config: dict[str, object] = dict(self.knob_space.defaults())
        if settings:
            for name, raw in settings.items():
                knob = self.knob_space.knob(name)
                config[knob.name] = knob.coerce(raw)
        seen: set[tuple] = set()
        index_bytes = 0
        for index in (*self._indexes.values(), *indexes):
            if index.key in seen:
                continue
            seen.add(index.key)
            index_bytes += index.size_bytes(self.catalog)
        disk = (
            self._data_disk_bytes(config)
            + int(index_bytes * self._index_disk_factor(config))
            + self._disk_overhead_bytes(config)
        )
        return ResourceFootprint(
            peak_memory_bytes=int(self._peak_memory_bytes(config)),
            disk_bytes=int(disk),
        )

    def _peak_memory_bytes(self, config: dict[str, object]) -> int:
        """Worst-case resident memory under ``config``.

        Engines override this with their allocation model; the generic
        fallback sums every MEMORY-category SIZE knob, which is a sane
        upper bound for any backend that declares its pools as knobs.
        """
        total = 0
        for knob in self.knob_space:
            if knob.kind is KnobKind.SIZE and knob.category is KnobCategory.MEMORY:
                total += int(config[knob.name])
        return total

    def _data_disk_bytes(self, config: dict[str, object]) -> int:
        """On-disk size of the base data (row stores: raw heap bytes)."""
        return self.catalog.total_size_bytes

    def _index_disk_factor(self, config: dict[str, object]) -> float:
        """Scaling of :meth:`Index.size_bytes` for this storage layout."""
        return 1.0

    def _disk_overhead_bytes(self, config: dict[str, object]) -> int:
        """Config-dependent disk overhead (WAL/redo logs, checkpoints)."""
        return 0

    # -- convenience -------------------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Serializable summary of engine state (used in reports/tests)."""
        return {
            "system": self.system,
            "clock": self.clock.now,
            "config": self.config,
            "indexes": [index.name for index in self.indexes],
        }
