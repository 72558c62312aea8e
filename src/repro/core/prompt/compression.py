"""Workload compression (paper §3.2).

The compressor decomposes the workload into *query snippets* -- binary
relationships between columns -- weights each join condition by the
optimizer-estimated cost of the joins that evaluate it, and selects the
most valuable subset under the token budget via the §3.3 ILP.

Beyond join conditions, the same machinery supports the other binary
relationships the paper mentions (§3.2: table co-occurrence in queries,
column usage), exposed through ``relation=``.

The prompt depends on the workload alone, so every tune of a workload
would solve the same ILP to the same answer.
:meth:`WorkloadCompressor.compress` therefore memoizes its result on the
catalog (section :data:`SELECTION_SECTION` of ``shared_catalog_cache``),
keyed on what the selection reads: the ``join_condition_values`` key
(system, hardware, engine ``config_signature``, query texts) plus the
relation, the token budget and the solver method.  The memo follows ``engine.caches`` and
sits in front of the persistent ``ilp`` tier: a miss still calls
:func:`select_snippets` through this module, so every real solve stays
visible to anything that wraps that name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.prompt.ilp import SnippetSelection, select_snippets
from repro.db.engine import DatabaseEngine, shared_catalog_cache
from repro.db.explain import join_condition_values, workload_key
from repro.errors import ReproError
from repro.sql.analyzer import JoinCondition

RELATIONS = ("join", "co_occurrence", "column_usage")

#: The catalog-shared cache section holding compression results.
SELECTION_SECTION = "snippet_selection"


@dataclass(slots=True)
class CompressionResult:
    """Compressed workload representation for the prompt."""

    lines: list[str]
    tokens_used: int
    selected_value: float
    total_value: float
    conditions: set[JoinCondition] = field(default_factory=set)

    @property
    def text(self) -> str:
        return "\n".join(self.lines)

    @property
    def coverage(self) -> float:
        """Fraction of total join-cost value conveyed to the LLM."""
        if self.total_value <= 0:
            return 1.0
        return self.selected_value / self.total_value


class WorkloadCompressor:
    """Builds the compressed workload block of the prompt."""

    def __init__(
        self,
        engine: DatabaseEngine,
        *,
        solver_method: str = "auto",
        relation: str = "join",
    ) -> None:
        if relation not in RELATIONS:
            raise ReproError(
                f"unknown relation {relation!r}; choose one of {RELATIONS}"
            )
        self._engine = engine
        self._solver_method = solver_method
        self._relation = relation

    # -- snippet extraction ------------------------------------------------------

    def snippet_values(self, queries: list) -> dict[JoinCondition, float]:
        """Value V(p) per binary relationship in the workload."""
        if self._relation == "join":
            return join_condition_values(self._engine, queries)
        if self._relation == "co_occurrence":
            return self._co_occurrence_values(queries)
        return self._column_usage_values(queries)

    def _co_occurrence_values(self, queries: list) -> dict[JoinCondition, float]:
        """Pairs of tables appearing in the same query, weighted by cost.

        Plans come from one batched :meth:`DatabaseEngine.plan_many`
        call -- the vectorized planning core costs the whole workload
        in a single pass, bit-identical to per-query ``explain``.
        """
        values: dict[JoinCondition, float] = {}
        plans = self._engine.plan_many(queries)
        for query, plan in zip(queries, plans):
            cost = plan.estimated_cost
            tables = sorted(self._engine.query_info(query).tables)
            for i, left in enumerate(tables):
                for right in tables[i + 1 :]:
                    condition = JoinCondition.make(
                        f"{left}._table", f"{right}._table"
                    )
                    values[condition] = values.get(condition, 0.0) + cost
        return values

    def _column_usage_values(self, queries: list) -> dict[JoinCondition, float]:
        """Filtered columns paired with their table, weighted by scan cost.

        Batched like :meth:`_co_occurrence_values`: one ``plan_many``
        pass replaces N ``explain`` round-trips, values unchanged.
        """
        values: dict[JoinCondition, float] = {}
        plans = self._engine.plan_many(queries)
        for query, plan in zip(queries, plans):
            scan_cost = {scan.table: scan.estimated_cost for scan in plan.scans}
            info = self._engine.query_info(query)
            for predicate in info.filters:
                condition = JoinCondition.make(
                    f"{predicate.table}._filters",
                    predicate.qualified_column,
                )
                values[condition] = values.get(condition, 0.0) + scan_cost.get(
                    predicate.table, 0.0
                )
        return values

    # -- compression -----------------------------------------------------------------

    def compress(self, queries: list, token_budget: int) -> CompressionResult:
        """Select and render the most valuable snippets under the budget.

        Memoized on the catalog unless the engine was built with
        ``caches=False``; every call returns its own copy of ``lines``
        and ``conditions``.
        """
        cache = None
        if self._engine.caches:
            cache = shared_catalog_cache(self._engine.catalog, SELECTION_SECTION)
            key = (
                workload_key(self._engine, queries),
                self._relation,
                token_budget,
                self._solver_method,
            )
            cached = cache.get(key)
            if cached is not None:
                return _copy(cached)
        values = self.snippet_values(queries)
        total_value = sum(values.values())
        selection = select_snippets(
            values, token_budget, method=self._solver_method
        )
        result = CompressionResult(
            lines=render_lines(selection, values),
            tokens_used=selection.tokens_used,
            selected_value=selection.value,
            total_value=total_value,
            conditions=selection.conditions,
        )
        if cache is not None:
            cache[key] = _copy(result)
        return result


def _copy(result: CompressionResult) -> CompressionResult:
    """``result`` with its own ``lines`` and ``conditions`` containers."""
    return replace(
        result, lines=list(result.lines), conditions=set(result.conditions)
    )


def render_lines(
    selection: SnippetSelection,
    values: dict[JoinCondition, float] | None = None,
) -> list[str]:
    """Render ``head: partner, partner`` lines, most valuable first.

    Ordering lines by the total optimizer cost of their join conditions
    conveys importance to the LLM positionally, without spending tokens
    on explicit weights.
    """

    def line_value(head: str, partners: list[str]) -> float:
        if not values:
            return 0.0
        return sum(
            values.get(JoinCondition.make(head, partner), 0.0)
            for partner in partners
        )

    ordered = sorted(
        selection.lines.items(),
        key=lambda item: (-line_value(item[0], item[1]), item[0]),
    )
    return [f"{head}: {', '.join(partners)}" for head, partners in ordered]
