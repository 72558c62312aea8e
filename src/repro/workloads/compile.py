"""The process-wide workload compile cache.

Tuning a workload repeatedly recompiles the same artifacts: every tuner
instantiation re-parses and re-analyzes the workload SQL, re-extracts
join snippets from default plans, and re-estimates default query costs
-- once per candidate configuration, per baseline, and per benchmark
figure.  :func:`compile_workload` computes them once per
``(workload, system, hardware)`` key into a picklable
:class:`CompiledWorkload` artifact that is shared by the tuners, the
baselines, and the figure runners.

The artifact piggybacks on the catalog-shared caches (see
``repro.db.engine.shared_catalog_cache``): building it warms the
analysis, plan, and join-value caches, so every engine subsequently
constructed over the same catalog skips that work even when it never
touches the artifact directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache import MISS, active_cache
from repro.db.engine import DatabaseEngine, shared_catalog_cache
from repro.db.explain import join_condition_values
from repro.db.hardware import HardwareSpec
from repro.errors import ReproError
from repro.sql.analyzer import JoinCondition
from repro.workloads.base import Query, Workload


@dataclass(slots=True)
class CompiledWorkload:
    """Everything derivable from (workload, catalog, default settings).

    Picklable, so one artifact can be shipped to pool workers instead of
    having each worker re-derive it.
    """

    workload_name: str
    system: str
    hardware: HardwareSpec
    #: Queries with their cached analysis (parse -> analyze).
    queries: list[Query] = field(default_factory=list)
    #: Join-snippet values V(p) under default plans (paper §3.2).
    join_values: dict[JoinCondition, float] = field(default_factory=dict)
    #: Per-query simulated seconds under the default configuration.
    default_costs: dict[str, float] = field(default_factory=dict)

    @property
    def default_time(self) -> float:
        """Total workload seconds under the default configuration."""
        return sum(self.default_costs.values())

    def query_by_name(self, name: str) -> Query:
        for query in self.queries:
            if query.name == name:
                return query
        raise ReproError(f"compiled workload has no query {name!r}")


def make_engine(workload: Workload, system: str) -> DatabaseEngine:
    """A default-configured engine for ``system`` over the workload's catalog.

    Resolution goes through the backend registry, so any registered
    engine -- including ones registered by tests or plugins -- is
    constructible here.  Unknown systems raise ``ReproError``.
    """
    # Local import: the registry's factories import repro.db.engine,
    # which this module's callers may be mid-importing.
    from repro.db.registry import create_engine

    return create_engine(system, workload.catalog)


_make_engine = make_engine


def compile_workload(
    workload: Workload,
    system: str = "postgres",
    engine: DatabaseEngine | None = None,
) -> CompiledWorkload:
    """Compile ``workload`` for ``system``, memoized on the catalog.

    Pass ``engine`` to reuse an existing default-configured engine (its
    catalog must be the workload's catalog); otherwise a throwaway
    default engine is built.  The result is cached per
    ``(workload name, system, hardware, query set)`` on the catalog
    object, so repeated calls -- one per tuner, per baseline, per figure
    -- return the same artifact.  An engine built with ``caches=False``
    recomputes it and touches neither that cache nor the persistent one.
    """
    if engine is not None:
        system = engine.system
        if engine.catalog is not workload.catalog:
            raise ReproError(
                "compile_workload: engine catalog differs from workload catalog"
            )
    names = tuple(query.name for query in workload.queries)
    cache = None
    key = None
    caches = engine is None or engine.caches
    if caches:
        cache = shared_catalog_cache(workload.catalog, "compiled")
        if engine is not None:
            # The artifact depends on the engine's full state: settings
            # and physical design both change default plans and costs.
            state = (engine.hardware, engine.config_signature)
        else:
            # A freshly constructed engine over this catalog is always in
            # the same (default) state, so a sentinel key suffices.
            state = None
        key = (workload.name, system, state, names)
        cached = cache.get(key)
        if cached is not None:
            return cached

    if engine is None:
        engine = make_engine(workload, system)

    # Persistent tier: keyed by full content (catalog fingerprint,
    # hardware, engine settings + physical design, and every query's
    # name and SQL), so a warm hit from disk is exactly the artifact a
    # cold compile would produce.
    persistent = active_cache() if caches else None
    material = None
    if persistent is not None:
        material = (
            workload.name,
            system,
            (
                engine.hardware.memory_gb,
                engine.hardware.cores,
                engine.hardware.disk_mb_per_s,
            ),
            workload.catalog.content_fingerprint(),
            engine.content_key(),
            tuple((query.name, query.sql) for query in workload.queries),
        )
        value = persistent.fetch("compiled", material)
        if value is not MISS:
            if cache is not None:
                cache[key] = value
            return value

    queries = list(workload.queries)
    # Cost the whole workload in one vectorized pass first: the default
    # costs warm the shared plan cache, so the per-query EXPLAIN walk in
    # ``join_condition_values`` below hits it instead of re-planning.
    default_costs = dict(
        zip(
            (query.name for query in queries),
            engine.estimate_many(queries),
        )
    )
    compiled = CompiledWorkload(
        workload_name=workload.name,
        system=system,
        hardware=engine.hardware,
        queries=queries,
        join_values=join_condition_values(engine, queries),
        default_costs=default_costs,
    )
    if cache is not None:
        cache[key] = compiled
    if persistent is not None:
        persistent.store("compiled", material, compiled)
    return compiled
