"""The batched multi-workload tuning driver."""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.cache import ArtifactCache, active_cache, install_cache
from repro.core import BatchJob, LambdaTune, LambdaTuneOptions, tune_many
from repro.core.batch import run_job
from repro.db.mysql import MySQLEngine
from repro.errors import ConfigurationError
from repro.llm.mock import SimulatedLLM
from repro.workloads import tpch_workload
from repro.workloads.base import Query

OPTIONS = LambdaTuneOptions(
    token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9
)


@pytest.fixture(autouse=True)
def _no_ambient_cache():
    previous = install_cache(None)
    yield
    install_cache(previous)


def tiny_jobs(tiny_workload, count: int = 2) -> list[BatchJob]:
    return [
        BatchJob(workload=tiny_workload, options=OPTIONS.ablated(seed=9 + i))
        for i in range(count)
    ]


def test_results_come_back_in_job_order(tiny_workload):
    jobs = tiny_jobs(tiny_workload, 3)
    results = tune_many(jobs, max_workers=3)
    assert len(results) == 3
    assert all(result.workload == "tiny" for result in results)


def test_concurrent_matches_serial(tiny_workload):
    serial = tune_many(tiny_jobs(tiny_workload), max_workers=1)
    concurrent = tune_many(tiny_jobs(tiny_workload), max_workers=2)
    for a, b in zip(serial, concurrent):
        assert a.fingerprint() == b.fingerprint()


def test_classmethod_entry_point_delegates(tiny_workload):
    direct = tune_many(tiny_jobs(tiny_workload), max_workers=1)
    via_tuner = LambdaTune.tune_many(tiny_jobs(tiny_workload), max_workers=1)
    for a, b in zip(direct, via_tuner):
        assert a.fingerprint() == b.fingerprint()


def test_empty_batch_is_rejected():
    with pytest.raises(ConfigurationError):
        tune_many([])


def test_cache_dir_is_installed_for_the_batch_only(tiny_workload, tmp_path):
    sentinel = ArtifactCache(None)
    install_cache(sentinel)
    tune_many(tiny_jobs(tiny_workload, 1), cache_dir=tmp_path / "shared")
    assert active_cache() is sentinel  # restored afterwards
    # The batch actually used the shared dir: entries were written.
    assert list((tmp_path / "shared").rglob("*.bin"))


def test_jobs_can_target_different_systems(tiny_workload):
    jobs = [
        BatchJob(workload=tiny_workload, options=OPTIONS),
        BatchJob(workload=tiny_workload, system="mysql", options=OPTIONS),
    ]
    results = tune_many(jobs, max_workers=2)
    assert results[0].system == "postgres"
    assert results[1].system == "mysql"


def test_job_build_honours_engine(tiny_workload, tiny_catalog):
    engine = MySQLEngine(tiny_catalog)
    job = BatchJob(
        workload=tiny_workload, engine=engine, llm=SimulatedLLM(), options=OPTIONS
    )
    tuner = job.build()
    assert tuner._engine is engine


def test_shared_cache_beats_nothing_but_results_identical(tiny_workload, tmp_path):
    """Same jobs, shared disk cache on/off: fingerprints must agree."""
    without = tune_many(tiny_jobs(tiny_workload), max_workers=2)
    with_cache = tune_many(
        tiny_jobs(tiny_workload), max_workers=2, cache_dir=tmp_path / "c"
    )
    warm = tune_many(
        tiny_jobs(tiny_workload), max_workers=2, cache_dir=tmp_path / "c"
    )
    for a, b, c in zip(without, with_cache, warm):
        assert a.fingerprint() == b.fingerprint() == c.fingerprint()


def _live_queries() -> int:
    return sum(isinstance(obj, Query) for obj in gc.get_objects())


def test_run_job_keeps_no_unpickled_queries_alive():
    """Every process-pool job unpickles fresh ``Query`` objects; after a
    job returns, nothing in the process may keep them alive (a memo
    keyed by object ids once pinned every job's queries)."""
    workload = tpch_workload()
    payload = pickle.dumps(BatchJob(workload=workload, options=OPTIONS))
    run_job(pickle.loads(payload))  # settle one-off module state
    gc.collect()
    before = _live_queries()
    for _ in range(20):
        run_job(pickle.loads(payload))
    gc.collect()
    assert _live_queries() - before <= len(workload.queries)
