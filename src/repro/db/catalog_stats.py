"""Numpy statistics view over a :class:`Catalog` (vectorized planning).

:class:`CatalogStats` flattens the catalog's per-table statistics into
numpy arrays once, so the planner
(``repro.db.planner``) can cost whole workloads in array passes
instead of chasing ``dict``-of-``dataclass`` pointers per query.  It
also hosts the per-query *statics* cache: everything about a query that
depends only on (catalog, analyzed query) -- selectivities, join
adjacency, group cardinalities -- and therefore survives across the
thousands of candidate configurations a tune evaluates.

Invalidation follows the existing discipline: both the array view and
the statics are keyed by ``Catalog.generation``, the monotonic counter
the catalog bumps on every schema mutation.  A stale view is simply
rebuilt; nothing here is ever mutated in place.

Exactness notes (the same bit-transparency contract as
``cost_model``'s array kernels):

- integer row/page/byte counts below 2**53 convert to float64 exactly;
- ``depth`` (the B-tree descent estimate) involves ``math.log``, whose
  SIMD numpy counterpart rounds differently, so it is precomputed here
  per table with CPython's libm -- the planner never calls a numpy
  transcendental;
- selectivity products are computed with the exact scalar loop of the
  reference planner (``tests/oracles/planner.py``; float
  multiplication is order-sensitive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.db.catalog import Catalog
from repro.db.indexes import Index
from repro.sql.analyzer import JoinCondition, QueryInfo

#: Rows per B-tree leaf page, for index depth estimates.
INDEX_FANOUT = 256

#: Safety valve for the per-query statics cache.
_MAX_QUERY_STATICS = 65536

@dataclass(slots=True)
class QueryStatics:
    """Configuration-independent planning facts for one analyzed query.

    Everything here is a pure function of (catalog content, analyzer
    facts); none of it depends on knob settings or the index set, so one
    instance serves every candidate configuration of a tune.
    """

    #: Sorted base tables (the reference planner's scan/order universe).
    tables: tuple[str, ...]
    #: Row ids of ``tables`` into the CatalogStats arrays.
    table_ids: np.ndarray
    #: ``max(1, #filters)`` per table, as float64.
    filter_count: np.ndarray
    #: ``max(1.0, rows * selectivity)`` per table (scan output rows),
    #: from the combined filter selectivity of reference
    #: ``_table_selectivity``, including the 1e-9 floor.
    out_rows: np.ndarray
    #: Per-column combined filter selectivity (reference
    #: ``_column_selectivity``); absent key == no predicate == ``None``.
    column_selectivity: dict[tuple[str, str], float]
    #: Join conditions sorted by ``str`` with their endpoints and NDV:
    #: ``(condition, left_table, right_table, ndv)``.
    conditions: list[tuple[JoinCondition, str, str, int]]
    #: Positions into ``conditions`` mentioning each table, in global
    #: sorted order (preserves the reference first-match semantics).
    conditions_by_table: dict[str, list[int]]
    #: ``prod(min(ndv, 1000))`` over sorted group-by columns.
    group_distinct: float
    has_group: bool
    agg_count: int
    has_order: bool
    has_subquery: bool


@dataclass(slots=True)
class CatalogStats:
    """Immutable numpy view of one catalog generation."""

    generation: int
    #: Table name -> position in catalog iteration order.
    table_id: dict[str, int]
    #: Per-table arrays (float64; exact for counts < 2**53).
    rows: np.ndarray
    pages: np.ndarray
    size_bytes: np.ndarray
    #: Exact integer sizes, for the scalar cache-hit kernel calls that
    #: mix table and index bytes.
    size_bytes_int: list[int]
    #: Precomputed B-tree depth per table:
    #: ``max(1.0, math.log(max(rows, 2), INDEX_FANOUT))`` via libm.
    depth: np.ndarray
    #: Memoized ``Index.size_bytes`` per index key (catalog-dependent).
    _index_sizes: dict[tuple[str, tuple[str, ...]], int] = field(
        default_factory=dict
    )
    #: Per-query statics keyed by ``id(info)``.  ``QueryInfo`` is a
    #: mutable slots dataclass (unhashable), so the value pins a strong
    #: reference to the info object to keep its id from being reused.
    _query_statics: dict[int, tuple[QueryInfo, QueryStatics]] = field(
        default_factory=dict
    )

    # -- construction ----------------------------------------------------------

    @staticmethod
    def build(catalog: Catalog) -> "CatalogStats":
        tables = catalog.tables
        table_id = {table.name: position for position, table in enumerate(tables)}
        rows = np.array([table.rows for table in tables], dtype=np.float64)
        pages = np.array([table.pages for table in tables], dtype=np.float64)
        size_int = [table.size_bytes for table in tables]
        size = np.array(size_int, dtype=np.float64)
        depth = np.array(
            [
                max(1.0, math.log(max(table.rows, 2), INDEX_FANOUT))
                for table in tables
            ],
            dtype=np.float64,
        )
        return CatalogStats(
            generation=catalog.generation,
            table_id=table_id,
            rows=rows,
            pages=pages,
            size_bytes=size,
            size_bytes_int=size_int,
            depth=depth,
        )

    # -- lookups ---------------------------------------------------------------

    def index_size(self, catalog: Catalog, index: Index) -> int:
        """``index.size_bytes(catalog)``, memoized per index identity."""
        size = self._index_sizes.get(index.key)
        if size is None:
            size = index.size_bytes(catalog)
            self._index_sizes[index.key] = size
        return size

    def query_statics(self, catalog: Catalog, info: QueryInfo) -> QueryStatics:
        """The per-query statics for ``info``, built once per catalog view."""
        key = id(info)
        hit = self._query_statics.get(key)
        if hit is not None and hit[0] is info:
            return hit[1]
        statics = self._build_statics(catalog, info)
        if len(self._query_statics) > _MAX_QUERY_STATICS:
            self._query_statics.clear()
        self._query_statics[key] = (info, statics)
        return statics

    # -- statics construction --------------------------------------------------

    def _build_statics(self, catalog: Catalog, info: QueryInfo) -> QueryStatics:
        tables = tuple(sorted(info.tables))
        table_ids = np.array(
            [self.table_id[name] for name in tables], dtype=np.intp
        )

        selectivity: list[float] = []
        filter_count: list[float] = []
        column_selectivity: dict[tuple[str, str], float] = {}
        for name in tables:
            table = catalog.table(name)
            # Reference ``_table_selectivity``: the first "=" per column
            # refines to 1/NDV, later ones keep the analyzer default;
            # multiplication order is the filter-list order.
            product = 1.0
            seen_eq: set[str] = set()
            count = 0
            for predicate in info.filters:
                if predicate.table != name:
                    continue
                count += 1
                factor = predicate.selectivity
                if predicate.op == "=" and predicate.column not in seen_eq:
                    ndv = table.column(predicate.column).distinct_values(
                        table.rows
                    )
                    factor = 1.0 / ndv
                    seen_eq.add(predicate.column)
                product *= factor
            selectivity.append(max(product, 1e-9))
            filter_count.append(float(max(1, count)))
            # Reference ``_column_selectivity``: every "=" refines,
            # no first-wins set.
            for column_name in {
                predicate.column
                for predicate in info.filters
                if predicate.table == name
            }:
                col_product: float | None = None
                for predicate in info.filters:
                    if (
                        predicate.table != name
                        or predicate.column != column_name
                    ):
                        continue
                    factor = predicate.selectivity
                    if predicate.op == "=":
                        ndv = table.column(column_name).distinct_values(
                            table.rows
                        )
                        factor = 1.0 / ndv
                    col_product = (
                        factor if col_product is None else col_product * factor
                    )
                if col_product is not None:
                    column_selectivity[(name, column_name)] = col_product

        out_rows = np.maximum(
            1.0, self.rows[table_ids] * np.array(selectivity, dtype=np.float64)
        )

        conditions: list[tuple[JoinCondition, str, str, int]] = []
        conditions_by_table: dict[str, list[int]] = {}
        for condition in sorted(info.join_conditions, key=str):
            left_table = condition.left.rsplit(".", 1)[0]
            right_table = condition.right.rsplit(".", 1)[0]
            # Reference ``_join_cardinality``: NDV is the max over the
            # condition's resolvable columns, unresolvable ones skipped.
            ndv = 1
            for qualified in condition.columns:
                try:
                    table, column = catalog.resolve_column(qualified)
                except Exception:
                    continue
                ndv = max(ndv, column.distinct_values(table.rows))
            position = len(conditions)
            conditions.append((condition, left_table, right_table, ndv))
            for endpoint in {left_table, right_table}:
                conditions_by_table.setdefault(endpoint, []).append(position)

        # Reference ``_group_count`` static part: the distinct product.
        group_distinct = 1.0
        for qualified in sorted(info.group_by_columns):
            try:
                table, column = catalog.resolve_column(qualified)
            except Exception:
                continue
            group_distinct *= min(column.distinct_values(table.rows), 1000)

        return QueryStatics(
            tables=tables,
            table_ids=table_ids,
            filter_count=np.array(filter_count, dtype=np.float64),
            out_rows=out_rows,
            column_selectivity=column_selectivity,
            conditions=conditions,
            conditions_by_table=conditions_by_table,
            group_distinct=group_distinct,
            has_group=bool(info.group_by_columns or info.aggregates),
            agg_count=max(1, len(info.aggregates)),
            has_order=bool(info.order_by_columns),
            has_subquery=info.has_subquery,
        )


def catalog_stats(catalog: Catalog) -> CatalogStats:
    """The (cached) numpy view of ``catalog``'s current generation.

    Cached directly on the catalog object -- the same lifetime pattern
    as ``shared_catalog_cache`` -- and rebuilt whenever the generation
    counter shows a schema mutation.
    """
    cached = getattr(catalog, "_catalog_stats", None)
    if cached is not None and cached.generation == catalog.generation:
        return cached
    stats = CatalogStats.build(catalog)
    catalog._catalog_stats = stats  # type: ignore[attr-defined]
    return stats
