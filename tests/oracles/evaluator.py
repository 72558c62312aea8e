"""Algorithm 3 one query at a time, and index relevance over frozensets.

:func:`evaluate_scalar` has ``ConfigurationEvaluator.evaluate``'s
contract and signature: it runs the pending queries in the evaluator's
order, builds each query's lazy indexes right before it, in ``str``
order, and calls ``engine.execute`` per query, threading the remaining
timeout by subtraction and adding each time to ``meta.time``.  The
production evaluator must match it bit for bit.

:func:`query_index_map_reference` states paper §5.1's relevance pair by
pair: the set of config indexes with a column among the query's
predicate columns.  ``ConfigurationEvaluator.query_index_map`` returns
the same sets as masks over ``index_universe``; :func:`evaluate_scalar`
reads this oracle, so a reference tune checks the masks' lazy builds
against it.
"""

from __future__ import annotations

from repro.core.config import Configuration
from repro.core.evaluator import ConfigMeta, ConfigurationEvaluator
from repro.db.indexes import Index
from repro.errors import ConfigurationError, EngineFaultError
from repro.workloads.base import Query
from tests.oracles.scheduler import decode_mask


def query_columns(query: Query) -> frozenset[str]:
    """Qualified columns in the query's filters and join conditions."""
    found = {predicate.qualified_column for predicate in query.info.filters}
    for condition in query.info.join_conditions:
        found.update(condition.columns)
    return frozenset(found)


def query_index_map_reference(
    queries: list[Query], config: Configuration
) -> dict[str, frozenset[Index]]:
    """Map each query name to the config indexes it could use."""
    index_columns = [(index, index.qualified_columns()) for index in config.indexes]
    result: dict[str, frozenset[Index]] = {}
    for query in queries:
        predicate_columns = query_columns(query)
        result[query.name] = frozenset(
            index
            for index, columns in index_columns
            if any(column in predicate_columns for column in columns)
        )
    return result


def decode_index_map(
    evaluator: ConfigurationEvaluator, masks: dict[str, int], config: Configuration
) -> dict[str, frozenset[Index]]:
    """``query_index_map``'s masks as index sets, over the evaluator's
    universe for ``config``."""
    universe = evaluator.index_universe(config)
    return {name: decode_mask(mask, universe) for name, mask in masks.items()}


def evaluate_scalar(
    evaluator: ConfigurationEvaluator,
    config: Configuration,
    queries: list[Query],
    timeout: float,
    meta: ConfigMeta,
) -> None:
    """Run pending queries for ``config`` under ``timeout``, per query."""
    if meta.failed:
        return
    engine = evaluator._engine
    remaining_time = timeout
    created_here: list[Index] = []
    preexisting = {index.key for index in engine.indexes}

    try:
        evaluator._check_budget(config)
        config.apply_settings(engine)
        meta.is_complete = True

        index_map = query_index_map_reference(queries, config)
        ordered = evaluator.plan_order(queries, config)

        if not evaluator._lazy_indexes:
            for index in config.indexes:
                if index.key not in preexisting:
                    meta.index_time += engine.create_index(index)
                    created_here.append(index)

        for query in ordered:
            if evaluator._lazy_indexes:
                for index in sorted(index_map[query.name], key=str):
                    if index.key in preexisting or engine.has_index(index):
                        continue
                    meta.index_time += engine.create_index(index)
                    created_here.append(index)

            result = engine.execute(query, timeout=remaining_time)
            if not result.complete:
                meta.is_complete = False
                break
            remaining_time -= result.execution_time
            meta.time += result.execution_time
            meta.completed_queries.add(query.name)
    except (EngineFaultError, ConfigurationError) as failure:
        meta.is_complete = False
        meta.failed = True
        meta.failure = str(failure)
    finally:
        for index in created_here:
            engine.drop_index(index)
