"""Vectorized planner equivalence properties.

The contract under test: ``Planner.plan_many``, the array planner,
produces plan-for-plan identical trees and bit-identical cost floats to
the scalar planner (``tests.oracles.plan_many_scalar``, one query at a
time), over randomized generated workloads, across PYTHONHASHSEED
subprocesses, through a full configuration selection, and under catalog
mutation (generation-counter invalidation of ``CatalogStats``).

The unmarked tests are the fast smoke subset that tier-1 always runs;
the randomized sweeps and subprocess matrices carry ``slow``.
"""

import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.db.catalog import Column
from repro.db.catalog_stats import catalog_stats
from repro.db.cost_model import (
    RuntimeEnv,
    cache_hit_ratio,
    cache_hit_ratio_array,
    deterministic_noise,
    deterministic_noise_vector,
    oversubscription_penalty,
    oversubscription_penalty_array,
    parallel_speedup,
    parallel_speedup_array,
    spill_passes,
    spill_passes_array,
)
from repro.db.hardware import HardwareSpec
from repro.db.indexes import Index
from repro.db.mysql import MySQLEngine
from repro.db.planner import Planner
from repro.db.postgres import PostgresEngine
from repro.sql.analyzer import QueryInfo
from repro.workloads.generator import synthetic_workload
from tests.oracles import plan_many_scalar, reference_mode

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
#: The repository root, where ``tests.oracles`` imports from.
_REPO_ROOT = str(Path(__file__).resolve().parents[2])


def plan_fingerprint(plan):
    """Bit-exact identity of a QueryPlan (floats via repr)."""
    return (
        tuple(
            (
                scan.table,
                scan.method,
                scan.index.key if scan.index else None,
                repr(scan.in_rows),
                repr(scan.out_rows),
                repr(scan.estimated_cost),
                repr(scan.actual_cost),
            )
            for scan in plan.scans
        ),
        tuple(
            (
                join.inner_table,
                join.method,
                str(join.condition) if join.condition else None,
                join.index.key if join.index else None,
                repr(join.out_rows),
                repr(join.estimated_cost),
                repr(join.actual_cost),
            )
            for join in plan.joins
        ),
        repr(plan.post_estimated_cost),
        repr(plan.post_actual_cost),
        repr(plan.out_rows),
    )


def add_leading_indexes(engine, catalog, wide=False):
    """Index the first column of every table (and a composite when wide)."""
    for table in catalog.tables:
        columns = list(table.columns)
        engine.create_index(Index(table=table.name, columns=(columns[0],)))
        if wide and len(columns) > 1:
            engine.create_index(
                Index(table=table.name, columns=(columns[1], columns[0]))
            )


def assert_vectorized_matches_reference(engine, queries):
    """The core property: batched output == per-query reference output."""
    with reference_mode():
        reference = [
            (plan_fingerprint(engine.explain(query)),
             repr(engine.estimate_seconds(query)))
            for query in queries
        ]
    engine._plan_cache.clear()
    plans = engine.plan_many(queries)
    seconds = engine.estimate_many(queries)
    vectorized = [
        (plan_fingerprint(plan), repr(value))
        for plan, value in zip(plans, seconds)
    ]
    assert vectorized == reference


class TestArrayKernels:
    """Each array kernel is elementwise bit-identical to its scalar twin."""

    ENV = RuntimeEnv(
        buffer_pool_bytes=2 * 1024**3,
        sort_hash_mem_bytes=64 * 1024**2,
        agg_mem_bytes=64 * 1024**2,
        maintenance_mem_bytes=64 * 1024**2,
        parallel_workers=4,
        io_concurrency=16.0,
        logging_factor=1.0,
        swap_factor=1.0,
        hardware=HardwareSpec(memory_gb=61.0, cores=8),
    )

    BYTES = [0, 1, 4096, 64 * 1024, 64 * 1024 + 1, 10**6, 10**9, 3 * 10**10]

    def test_cache_hit_ratio(self):
        result = cache_hit_ratio_array(
            self.ENV, np.array(self.BYTES, dtype=np.float64)
        )
        expected = [cache_hit_ratio(self.ENV, value) for value in self.BYTES]
        assert result.tolist() == expected

    def test_spill_passes(self):
        for memory in (0, 64 * 1024, 64 * 1024**2):
            result = spill_passes_array(
                np.array(self.BYTES, dtype=np.float64), memory
            )
            expected = [spill_passes(value, memory) for value in self.BYTES]
            assert result.tolist() == expected

    def test_parallel_speedup(self):
        workers = [1, 2, 3, 4, 7, 8, 9, 64]
        for cores in (1, 8):
            result = parallel_speedup_array(np.array(workers), cores)
            expected = [parallel_speedup(value, cores) for value in workers]
            assert result.tolist() == expected

    def test_oversubscription_penalty(self):
        memory = 4 * 1024**3
        allocated = [0, memory // 2, int(memory * 0.8), memory, 3 * memory]
        result = oversubscription_penalty_array(
            np.array(allocated, dtype=np.float64), memory
        )
        expected = [
            oversubscription_penalty(value, memory) for value in allocated
        ]
        assert result.tolist() == expected

    def test_deterministic_noise(self):
        draws = [("postgres", f"q{n}", n * 17) for n in range(32)]
        result = deterministic_noise_vector(draws)
        expected = [deterministic_noise(*parts) for parts in draws]
        assert result.tolist() == expected


class TestVectorizedSmoke:
    """Fast tier-1 coverage of the batched path end to end."""

    def test_matches_reference_on_synthetic(self):
        workload = synthetic_workload(seed=5, queries=40, scale=1.0)
        engine = PostgresEngine(
            workload.catalog, HardwareSpec(memory_gb=61.0, cores=8)
        )
        add_leading_indexes(engine, workload.catalog)
        assert_vectorized_matches_reference(engine, workload.queries)

    def test_matches_reference_on_tiny_fixture(self, pg_engine, tiny_workload):
        assert_vectorized_matches_reference(pg_engine, tiny_workload.queries)

    def test_single_query_and_empty_batches(self, pg_engine, tiny_workload):
        assert pg_engine.plan_many([]) == []
        assert pg_engine.estimate_many([]) == []
        query = tiny_workload.queries[0]
        assert plan_fingerprint(
            pg_engine.plan_many([query])[0]
        ) == plan_fingerprint(pg_engine.explain(query))
        assert pg_engine.estimate_many([query]) == [
            pg_engine.estimate_seconds(query)
        ]

    def test_tableless_queries_plan_to_constants(self, tiny_catalog):
        engine = PostgresEngine(tiny_catalog)
        planner = Planner(
            tiny_catalog, {}, engine.planner_costs(), engine.runtime_env()
        )
        infos = [QueryInfo(), QueryInfo(tables={"users"})]
        vectorized = planner.plan_many(infos)
        reference = plan_many_scalar(planner, infos)
        assert [plan_fingerprint(plan) for plan in vectorized] == [
            plan_fingerprint(plan) for plan in reference
        ]
        assert vectorized[0].out_rows == 1.0

    def test_reference_mode_uses_scalar_path(self, pg_engine, tiny_workload):
        with reference_mode():
            pg_engine._plan_cache.clear()
            plans = pg_engine.plan_many(tiny_workload.queries)
        pg_engine._plan_cache.clear()
        expected = [pg_engine.explain(query) for query in tiny_workload.queries]
        assert [plan_fingerprint(plan) for plan in plans] == [
            plan_fingerprint(plan) for plan in expected
        ]


class TestCatalogStatsInvalidation:
    def test_generation_bump_rebuilds_view(self):
        workload = synthetic_workload(seed=2, queries=10, scale=1.0)
        catalog = workload.catalog
        first = catalog_stats(catalog)
        assert catalog_stats(catalog) is first  # cached while unchanged
        catalog.add_table(
            "late_arrival",
            5_000,
            [Column("late_arrival_id", 4, is_primary_key=True),
             Column("late_arrival_value", 8, 500)],
        )
        second = catalog_stats(catalog)
        assert second is not first
        assert second.generation == catalog.generation
        assert "late_arrival" in second.table_id

    def test_plans_stay_correct_across_mutation(self):
        workload = synthetic_workload(seed=4, queries=30, scale=1.0)
        engine = PostgresEngine(
            workload.catalog, HardwareSpec(memory_gb=61.0, cores=8)
        )
        assert_vectorized_matches_reference(engine, workload.queries)
        # Mutate the catalog (generation bump) and require the batched
        # path to re-derive everything rather than serve stale arrays.
        workload.catalog.add_table(
            "mutation_probe",
            1_000,
            [Column("mutation_probe_id", 4, is_primary_key=True)],
        )
        engine._plan_cache.clear()
        assert_vectorized_matches_reference(engine, workload.queries)

    def test_index_creation_is_picked_up(self):
        workload = synthetic_workload(seed=6, queries=30, scale=1.0)
        engine = PostgresEngine(
            workload.catalog, HardwareSpec(memory_gb=61.0, cores=8)
        )
        assert_vectorized_matches_reference(engine, workload.queries)
        add_leading_indexes(engine, workload.catalog, wide=True)
        assert_vectorized_matches_reference(engine, workload.queries)


@pytest.mark.slow
class TestRandomizedProperty:
    """Randomized sweep: many seeds, shapes, engines, and knob settings."""

    KNOB_VARIANTS = {
        "postgres": [
            {},
            {"random_page_cost": 1.1, "work_mem": "64kB"},
            {"enable_hashjoin": "off", "enable_mergejoin": "off"},
            {"enable_nestloop": "off"},
            {
                "shared_buffers": "128MB",
                "work_mem": "64kB",
                "max_parallel_workers_per_gather": 0,
            },
        ],
        "mysql": [
            {},
            {"sort_buffer_size": "65536", "join_buffer_size": "65536"},
            {"innodb_buffer_pool_size": "134217728"},
        ],
    }

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_randomized_workloads(self, seed):
        workload = synthetic_workload(
            seed=seed,
            queries=60,
            scale=float(1 + seed * 7),
            dimension_tables=4 + seed,
            max_joins=3 + (seed % 3),
            max_filters=2 + (seed % 3),
        )
        for make, system in ((PostgresEngine, "postgres"), (MySQLEngine, "mysql")):
            engine = make(
                workload.catalog, HardwareSpec(memory_gb=61.0, cores=8)
            )
            add_leading_indexes(engine, workload.catalog, wide=(seed % 2 == 0))
            for config in self.KNOB_VARIANTS[system]:
                engine.apply_config(config)
                assert_vectorized_matches_reference(engine, workload.queries)


_HASH_SEED_SCRIPT = """\
from contextlib import nullcontext
from repro.db.hardware import HardwareSpec
from repro.db.indexes import Index
from repro.db.postgres import PostgresEngine
from repro.workloads.generator import synthetic_workload
from tests.oracles import reference_mode
w = synthetic_workload(seed=5, queries=60, scale=3.0)
e = PostgresEngine(w.catalog, HardwareSpec(memory_gb=61.0, cores=8))
for t in w.catalog.tables:
    e.create_index(Index(table=t.name, columns=(list(t.columns)[0],)))
with {context}:
    estimates = {estimates}
print('|'.join(repr(s) for s in estimates))
"""

#: ``(context, estimates)`` per leg: the batched estimate, the per-query
#: one (each query a single-query array ``plan_many``), and the per-query
#: one on the scalar planner of ``tests.oracles``.
_LEGS = (
    ("nullcontext()", "e.estimate_many(w.queries)"),
    ("nullcontext()", "[e.estimate_seconds(q) for q in w.queries]"),
    ("reference_mode()", "[e.estimate_seconds(q) for q in w.queries]"),
)


@pytest.mark.slow
class TestCrossProcess:
    """Hash-seed independence of the batched path, vs the reference."""

    @staticmethod
    def _run(script: str, hash_seed: str) -> str:
        python_path = _SRC_DIR + os.pathsep + _REPO_ROOT
        if os.environ.get("PYTHONPATH"):
            python_path += os.pathsep + os.environ["PYTHONPATH"]
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": hash_seed,
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                "PYTHONPATH": python_path,
            },
            check=True,
        )
        return result.stdout.strip()

    def test_vectorized_matches_reference_across_hash_seeds(self):
        outputs = {
            self._run(
                _HASH_SEED_SCRIPT.format(context=context, estimates=estimates),
                hash_seed,
            )
            for context, estimates in _LEGS
            for hash_seed in ("1", "2")
        }
        # All six (leg, hash seed) combinations print the same bits.
        assert len(outputs) == 1


@pytest.mark.slow
class TestSelectionEquivalence:
    """Vectorized planning is invisible to configuration selection."""

    def _selection_fingerprint(self, tpch, vectorized):
        from repro.core.evaluator import ConfigurationEvaluator
        from repro.core.selector import ConfigurationSelector
        from repro.core.tuner import LambdaTune, LambdaTuneOptions
        from repro.llm.mock import SimulatedLLM

        with nullcontext() if vectorized else reference_mode():
            engine = PostgresEngine(tpch.catalog)
            options = LambdaTuneOptions(
                token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9
            )
            tuner = LambdaTune(engine, SimulatedLLM(), options)
            configs = tuner.sample_configurations(
                tuner.generate_prompt(list(tpch.queries))
            )
            evaluator = ConfigurationEvaluator(engine, cluster_seed=9)
            selector = ConfigurationSelector(
                engine, evaluator, initial_timeout=0.5, alpha=2.0
            )
            selection = selector.select(list(tpch.queries), configs)
        return (
            repr(selection.best.time),
            selection.best.config.name if selection.best.config else None,
            tuple(
                (name, repr(meta.time), meta.is_complete)
                for name, meta in sorted(selection.meta.items())
            ),
        )

    def test_selection_matches_scalar_reference(self, tpch):
        reference = self._selection_fingerprint(tpch, vectorized=False)
        assert self._selection_fingerprint(tpch, vectorized=True) == reference
