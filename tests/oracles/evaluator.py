"""Algorithm 3 one query at a time.

:func:`evaluate_scalar` has ``ConfigurationEvaluator.evaluate``'s
contract and signature: it runs the pending queries in the evaluator's
order, builds each query's lazy indexes right before it, and calls
``engine.execute`` per query, threading the remaining timeout by
subtraction and adding each time to ``meta.time``.  The production
evaluator must match it bit for bit.
"""

from __future__ import annotations

from repro.core.config import Configuration
from repro.core.evaluator import ConfigMeta, ConfigurationEvaluator
from repro.db.indexes import Index
from repro.errors import ConfigurationError, EngineFaultError
from repro.workloads.base import Query


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

        index_map = evaluator.query_index_map(queries, config)
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
