"""EXPLAIN-style cost extraction for the workload compressor.

The compressor (paper §3.2) weights each join condition p by
``V(p) = sum of estimated costs EC_j of all join operators j evaluating
p`` under the optimizer's *default* plans.  This module produces those
values from the simulated engines' plans.
"""

from __future__ import annotations

from repro.db.engine import DatabaseEngine, shared_catalog_cache
from repro.sql.analyzer import JoinCondition


def workload_key(engine: DatabaseEngine, queries: list) -> tuple:
    """Everything a default-plan derivation over ``queries`` reads.

    ``(system, hardware, config signature, query texts)``: the catalog
    is implied by the catalog-shared cache the key is used in.
    """
    texts = tuple(getattr(query, "sql", None) or str(query) for query in queries)
    return (engine.system, engine.hardware, engine.config_signature, texts)


def join_condition_values(
    engine: DatabaseEngine, queries: list
) -> dict[JoinCondition, float]:
    """Aggregate estimated join cost per join condition over a workload.

    Costs come from ``engine.explain`` under the *current* configuration
    (callers pass a default-configured engine, matching the paper's use
    of default plans).  The aggregate is part of the shared
    workload-compile cache: every tuner instantiation re-extracts the
    same snippet values from the same default plans, so the result is
    memoized per (system, hardware, configuration signature, query set)
    on the catalog, unless the engine was built with ``caches=False``.
    """
    cache = None
    key = None
    if engine.caches:
        cache = shared_catalog_cache(engine.catalog, "join_values")
        key = workload_key(engine, queries)
        cached = cache.get(key)
        if cached is not None:
            return dict(cached)
    values: dict[JoinCondition, float] = {}
    for query in queries:
        plan = engine.explain(query)
        for condition, cost in plan.join_estimated_costs().items():
            values[condition] = values.get(condition, 0.0) + cost
    if cache is not None:
        cache[key] = dict(values)
    return values


def workload_join_conditions(engine: DatabaseEngine, queries: list) -> set[JoinCondition]:
    """All distinct join conditions appearing in the workload."""
    conditions: set[JoinCondition] = set()
    for query in queries:
        conditions.update(engine.query_info(query).join_conditions)
    return conditions


_SCAN_LABELS = {
    "seq": "Seq Scan",
    "index": "Index Scan",
    "probe": "Index Probe (via join)",
}
_JOIN_LABELS = {
    "hash": "Hash Join",
    "merge": "Merge Join",
    "nestloop": "Nested Loop",
    "cross": "Nested Loop (cross)",
}


def format_plan(engine: DatabaseEngine, query: "str | object") -> str:
    """Render a plan the way ``EXPLAIN`` would.

    Shows the join pipeline bottom-up with estimated (planner) and
    actual (simulated) costs per operator, e.g.::

        Hash Join on lineitem  (est=41320.0, act=38754.2, rows=59986)
          Seq Scan on orders  (est=9423.1, act=7866.0, rows=228311)
    """
    plan = engine.explain(query)
    lines: list[str] = []

    scans_by_table = {scan.table: scan for scan in plan.scans}
    if plan.scans:
        first = plan.scans[0]
        lines.append(_scan_line(first, indent=len(plan.joins)))
    for position, join in enumerate(reversed(plan.joins)):
        indent = position
        label = _JOIN_LABELS.get(join.method, join.method)
        condition = f" on {join.condition}" if join.condition else ""
        lines.insert(
            0,
            "  " * indent
            + f"{label}{condition}  "
            + f"(est={join.estimated_cost:.1f}, act={join.actual_cost:.1f}, "
            + f"rows={join.out_rows:.0f})",
        )
        inner = scans_by_table.get(join.inner_table)
        if inner is not None:
            lines.insert(1, _scan_line(inner, indent=indent + 1))
    if plan.post_actual_cost > 0:
        lines.insert(
            0,
            f"Aggregate/Sort  (est={plan.post_estimated_cost:.1f}, "
            f"act={plan.post_actual_cost:.1f}, rows={plan.out_rows:.0f})",
        )
    if not lines:
        lines.append("Result  (rows=1)")
    return "\n".join(lines)


def _scan_line(scan, indent: int) -> str:
    label = _SCAN_LABELS.get(scan.method, scan.method)
    index_note = f" using {scan.index.name}" if scan.index is not None else ""
    return (
        "  " * indent
        + f"{label} on {scan.table}{index_note}  "
        + f"(est={scan.estimated_cost:.1f}, act={scan.actual_cost:.1f}, "
        + f"rows={scan.out_rows:.0f})"
    )
