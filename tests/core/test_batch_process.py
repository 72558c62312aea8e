"""The ``executor="process"`` path of ``tune_many`` (PR 10).

Byte-identity across serial / thread / process executors -- with and
without a deterministic :class:`FaultPlan` -- plus the executor-aware
``max_workers`` heuristic and journaled resume from a worker process.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cache import install_cache
from repro.core import BatchJob, LambdaTuneOptions, tune_many
from repro.core.batch import (
    _default_max_workers,
    job_pool,
    preferred_mp_context,
    resume_job,
    run_job,
)
from repro.db.postgres import PostgresEngine
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.llm.mock import SimulatedLLM

OPTIONS = LambdaTuneOptions(
    token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9
)

SEEDS = list(range(8))


@pytest.fixture(autouse=True)
def _no_ambient_cache():
    previous = install_cache(None)
    yield
    install_cache(previous)


def seeded_jobs(workload, *, fault_plan=None, journal_dir=None):
    return [
        BatchJob(
            workload=workload,
            options=OPTIONS.ablated(seed=9 + seed),
            fault_plan=fault_plan,
            journal_path=(
                None if journal_dir is None else journal_dir / f"job-{seed}.wal"
            ),
        )
        for seed in SEEDS
    ]


def fingerprints(results):
    return [result.fingerprint() for result in results]


class TestByteIdentity:
    def test_process_matches_serial_and_thread(self, tiny_workload):
        serial = tune_many(seeded_jobs(tiny_workload), max_workers=1)
        thread = tune_many(
            seeded_jobs(tiny_workload), executor="thread", max_workers=4
        )
        process = tune_many(
            seeded_jobs(tiny_workload), executor="process", max_workers=4
        )
        assert fingerprints(serial) == fingerprints(thread)
        assert fingerprints(serial) == fingerprints(process)

    def test_process_matches_serial_under_faults(self, tiny_workload):
        plan = FaultPlan(seed=3, density=0.05)
        serial = tune_many(
            seeded_jobs(tiny_workload, fault_plan=plan), max_workers=1
        )
        process = tune_many(
            seeded_jobs(tiny_workload, fault_plan=plan),
            executor="process",
            max_workers=4,
        )
        assert fingerprints(serial) == fingerprints(process)

    def test_process_matches_serial_under_spawn(self, tiny_workload, monkeypatch):
        """Without ``fork`` the pool falls back to ``spawn``: workers
        re-import ``repro``, and the pinned environment (PYTHONPATH +
        PYTHONHASHSEED) keeps them deterministic."""
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert preferred_mp_context().get_start_method() == "spawn"
        serial = tune_many(seeded_jobs(tiny_workload), max_workers=1)
        spawned = tune_many(
            seeded_jobs(tiny_workload), executor="process", max_workers=2
        )
        assert fingerprints(spawned) == fingerprints(serial)

    def test_shared_disk_cache_is_transparent(self, tiny_workload, tmp_path):
        serial = tune_many(seeded_jobs(tiny_workload), max_workers=1)
        process = tune_many(
            seeded_jobs(tiny_workload),
            executor="process",
            max_workers=2,
            cache_dir=tmp_path / "cache",
        )
        assert fingerprints(serial) == fingerprints(process)

    def test_journaled_process_jobs_match_plain(self, tiny_workload, tmp_path):
        plain = tune_many(seeded_jobs(tiny_workload), max_workers=1)
        journaled = tune_many(
            seeded_jobs(tiny_workload, journal_dir=tmp_path),
            executor="process",
            max_workers=4,
        )
        assert fingerprints(plain) == fingerprints(journaled)
        assert sorted(tmp_path.glob("*.wal"))


class TestProcessResume:
    def test_resume_in_worker_process(self, tiny_workload, tmp_path):
        """A journal begun anywhere resumes bit-identically in a pool worker."""
        job = BatchJob(
            workload=tiny_workload,
            options=OPTIONS,
            journal_path=tmp_path / "resume.wal",
        )
        reference = run_job(
            BatchJob(workload=tiny_workload, options=OPTIONS)
        ).fingerprint()
        run_job(job)  # complete journal on disk
        with job_pool(1) as pool:
            resumed = pool.submit(resume_job, job).result()
        assert resumed.fingerprint() == reference


class TestValidation:
    def test_unknown_executor_rejected(self, tiny_workload):
        with pytest.raises(ConfigurationError, match="unknown batch executor"):
            tune_many(
                [BatchJob(workload=tiny_workload, options=OPTIONS)],
                executor="fiber",
            )

    def test_explicit_engine_rejected_for_process(self, tiny_workload):
        job = BatchJob(
            workload=tiny_workload,
            options=OPTIONS,
            engine=PostgresEngine(tiny_workload.catalog),
        )
        with pytest.raises(ConfigurationError, match="process"):
            tune_many([job, job], executor="process", max_workers=2)

    def test_explicit_llm_rejected_for_process(self, tiny_workload):
        job = BatchJob(
            workload=tiny_workload, options=OPTIONS, llm=SimulatedLLM()
        )
        with pytest.raises(ConfigurationError, match="process"):
            tune_many([job, job], executor="process", max_workers=2)


class TestWorkerHeuristic:
    """``max_workers=None`` must not oversubscribe a process pool."""

    def test_process_default_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(4)))
        assert _default_max_workers(64, "process") == 4

    def test_process_default_respects_affinity_mask(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
        assert _default_max_workers(64, "process") == 2

    def test_process_default_without_affinity_support(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        assert _default_max_workers(64, "process") == 4

    def test_thread_default_keeps_prior_behavior(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
        assert _default_max_workers(64, "thread") == 4
        assert _default_max_workers(2, "thread") == 2

    def test_fewer_jobs_than_cores(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 16)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(16)))
        assert _default_max_workers(3, "process") == 3
