"""Perf-regression guards for the scheduler/evaluation hot path.

Microbenchmarks the bitmask DP core at representative cluster counts
(n = 8 / 11 / 13, the paper's §5.4 cap) on fixed randomized instances of
two shapes -- sparse ones, and ones shaped like the cluster inputs of a
JOB tune, whose marginal-cost table dominates the kernel -- the
scheduling front end (``plan_order``: relevance masks, clustering and
the DP) on the configurations a tune samples, plus the full ``tune()``
pipeline on TPC-H and JOB with the memoization layers on:

    PYTHONPATH=src python -m pytest benchmarks/test_perf_scheduler.py \
        -m slow --benchmark-json=bench.json

Each benchmark also asserts correctness (optimal-order equality with
the executable specification; identical results across runs), so a
perf run doubles as a regression test.  The speedup gates -- batched
planning and evaluate against their scalar references, a warm artifact
cache against a cold one, and ``tune_many`` process scaling -- are in
``benchmarks/test_perf_gates.py``; the end-to-end wall-clock suite is
``python3 perfbench/run.py``.
"""

import random

import pytest

from repro.cache import install_cache
from repro.core import LambdaTune, LambdaTuneOptions
from repro.core.config import Configuration
from repro.core.evaluator import ConfigMeta, ConfigurationEvaluator
from repro.core.scheduler import MAX_DP_INPUT, compute_order_dp
from repro.db.postgres import PostgresEngine
from repro.llm import SimulatedLLM
from repro.workloads import job_workload, load_workload, tpch_workload
from tests.oracles import (
    cluster_queries_reference,
    compute_order_dp_reference,
    compute_order_dp_sets,
    encode_bitmasks,
    query_index_map_reference,
    reference_mode,
)

pytestmark = pytest.mark.slow


def _instance(n_queries: int, seed: int = 99, shape: str = "sparse"):
    """``sparse``: 1-5 of 2n indexes per query.  ``job``: 7-22 of 29-32
    indexes per query, as the cluster inputs of JOB tunes have."""
    rng = random.Random(seed)
    if shape == "job":
        n_indexes, per_query = rng.randint(29, 32), (7, 22)
    else:
        n_indexes, per_query = 2 * n_queries, (1, 5)
    index_names = [f"i{k}" for k in range(n_indexes)]
    costs = {name: rng.uniform(0.1, 30.0) for name in index_names}
    index_map = {
        f"q{q}": frozenset(rng.sample(index_names, rng.randint(*per_query)))
        for q in range(n_queries)
    }
    return list(index_map), index_map, costs


@pytest.mark.parametrize("shape", ["sparse", "job"])
@pytest.mark.parametrize("n_queries", [8, 11, 13])
def test_dp_bitmask(benchmark, n_queries, shape):
    queries, index_map, costs = _instance(n_queries, shape=shape)
    masks, universe = encode_bitmasks(queries, index_map)
    bit_costs = [costs[index] for index in universe]
    order = benchmark(compute_order_dp, queries, masks, bit_costs)
    assert order == compute_order_dp_reference(queries, index_map, costs)


@pytest.mark.parametrize("n_queries", [13])
def test_dp_reference(benchmark, n_queries):
    """The pre-rewrite formulation, benchmarked for the speedup ratio."""
    queries, index_map, costs = _instance(n_queries)
    order = benchmark(compute_order_dp_reference, queries, index_map, costs)
    assert order == compute_order_dp_sets(queries, index_map, costs)


def _oracle_order(evaluator, queries, config):
    """``plan_order`` through the oracles: pair-by-pair relevance,
    frozenset clustering, then Algorithm 4 over dict/frozenset states."""
    index_map = query_index_map_reference(queries, config)
    clusters = cluster_queries_reference(
        [query.name for query in queries], index_map, max_clusters=MAX_DP_INPUT
    )
    handles = list(range(len(clusters)))
    order = compute_order_dp_reference(
        handles,
        {handle: clusters[handle].indexes for handle in handles},
        evaluator.index_cost_map(config),
    )
    return [name for handle in order for name in clusters[handle].queries]


@pytest.mark.parametrize("workload_name", ["tpch", "job"])
def test_plan_order(benchmark, workload_name):
    """``plan_order`` on a fresh evaluator for each configuration that
    ``SimulatedLLM`` samples for seed 0, with no artifact cache."""
    workload = tpch_workload() if workload_name == "tpch" else job_workload()
    queries = list(workload.queries)
    tuner = LambdaTune(
        PostgresEngine(workload.catalog), SimulatedLLM(), LambdaTuneOptions(seed=0)
    )
    configs = tuner.sample_configurations(tuner.generate_prompt(queries))
    assert len(configs) == 5

    def run():
        evaluators = [
            ConfigurationEvaluator(PostgresEngine(workload.catalog)) for _ in configs
        ]
        orders = [
            evaluator.plan_order(queries, config)
            for evaluator, config in zip(evaluators, configs)
        ]
        return evaluators, orders

    previous = install_cache(None)
    try:
        evaluators, orders = benchmark(run)
    finally:
        install_cache(previous)
    for evaluator, config, order in zip(evaluators, configs, orders):
        assert [query.name for query in order] == _oracle_order(
            evaluator, queries, config
        )


@pytest.mark.parametrize("workload_name", ["tpch", "job"])
def test_full_tune(benchmark, quick_options, workload_name):
    workload = tpch_workload() if workload_name == "tpch" else job_workload()

    def run():
        tuner = LambdaTune(
            PostgresEngine(workload.catalog),
            SimulatedLLM(),
            quick_options,
        )
        return tuner.tune(list(workload.queries))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    repeat = run()
    assert repeat.best_time == result.best_time
    assert repeat.tuning_seconds == result.tuning_seconds


def _evaluate_harness(n_queries: int):
    """A warm evaluator over an SF100 synthetic workload, plus a runner
    that performs one full ``evaluate`` pass (fresh meta each call)."""
    workload = load_workload(
        f"synthetic:queries={n_queries},scale=100,"
        "dimension_tables=8,max_joins=6,max_filters=4"
    )
    queries = list(workload.queries)
    evaluator = ConfigurationEvaluator(PostgresEngine(workload.catalog))
    config = Configuration(name="bench-probe", settings={"work_mem": "64MB"})

    def run():
        meta = ConfigMeta()
        evaluator.evaluate(config, queries, 1e12, meta)
        return meta

    return run


@pytest.mark.parametrize("n_queries", [500, 2000])
def test_evaluate_batched(benchmark, n_queries):
    """The segment-batched evaluate loop (``execute_many`` per segment)."""
    run = _evaluate_harness(n_queries)
    reference = run()  # warm plan/order/noise caches before timing
    meta = benchmark(run)
    assert meta.is_complete
    assert repr(meta.time) == repr(reference.time)
    assert meta.completed_queries == reference.completed_queries


@pytest.mark.parametrize("n_queries", [2000])
def test_evaluate_scalar_reference(benchmark, n_queries):
    """The per-query reference loop, benchmarked for the speedup ratio."""
    run = _evaluate_harness(n_queries)
    batched_reference = run()
    with reference_mode():
        run()  # warm the scalar path too
        meta = benchmark(run)
    assert meta.is_complete
    assert repr(meta.time) == repr(batched_reference.time)
    assert meta.completed_queries == batched_reference.completed_queries
