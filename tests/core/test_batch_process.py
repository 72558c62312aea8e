"""``tune_many`` with more than one worker: the process pool (PR 10).

Byte-identity between the serial loop and pool workers -- with and
without a deterministic :class:`FaultPlan` -- plus the typed errors for
jobs the pool cannot take and journaled resume from a worker process.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cache import install_cache
from repro.core import BatchJob, LambdaTuneOptions, tune_many
from repro.core.batch import (
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
    def test_process_matches_serial(self, tiny_workload):
        serial = tune_many(seeded_jobs(tiny_workload), max_workers=1)
        process = tune_many(seeded_jobs(tiny_workload), max_workers=4)
        assert fingerprints(serial) == fingerprints(process)

    def test_process_matches_serial_under_faults(self, tiny_workload):
        plan = FaultPlan(seed=3, density=0.05)
        serial = tune_many(
            seeded_jobs(tiny_workload, fault_plan=plan), max_workers=1
        )
        process = tune_many(
            seeded_jobs(tiny_workload, fault_plan=plan), max_workers=4
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
        spawned = tune_many(seeded_jobs(tiny_workload), max_workers=2)
        assert fingerprints(spawned) == fingerprints(serial)

    def test_shared_disk_cache_is_transparent(self, tiny_workload, tmp_path):
        serial = tune_many(seeded_jobs(tiny_workload), max_workers=1)
        process = tune_many(
            seeded_jobs(tiny_workload), max_workers=2, cache_dir=tmp_path / "cache"
        )
        assert fingerprints(serial) == fingerprints(process)

    def test_journaled_process_jobs_match_plain(self, tiny_workload, tmp_path):
        plain = tune_many(seeded_jobs(tiny_workload), max_workers=1)
        journaled = tune_many(
            seeded_jobs(tiny_workload, journal_dir=tmp_path), max_workers=4
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
    @pytest.mark.parametrize("max_workers", [None, 0, -2])
    def test_worker_count_must_be_positive(self, tiny_workload, max_workers):
        with pytest.raises(ConfigurationError, match="max_workers"):
            tune_many(
                [BatchJob(workload=tiny_workload, options=OPTIONS)],
                max_workers=max_workers,
            )

    def test_explicit_engine_rejected_for_process(self, tiny_workload):
        job = BatchJob(
            workload=tiny_workload,
            options=OPTIONS,
            engine=PostgresEngine(tiny_workload.catalog),
        )
        with pytest.raises(ConfigurationError, match="max_workers > 1"):
            tune_many([job, job], max_workers=2)

    def test_explicit_llm_rejected_for_process(self, tiny_workload):
        job = BatchJob(
            workload=tiny_workload, options=OPTIONS, llm=SimulatedLLM()
        )
        with pytest.raises(ConfigurationError, match="max_workers > 1"):
            tune_many([job, job], max_workers=2)

    def test_explicit_engine_runs_in_the_default_serial_loop(self, tiny_workload):
        job = BatchJob(
            workload=tiny_workload,
            options=OPTIONS,
            engine=PostgresEngine(tiny_workload.catalog),
            llm=SimulatedLLM(),
        )
        [result] = tune_many([job])
        assert result.fingerprint() == run_job(
            BatchJob(workload=tiny_workload, options=OPTIONS)
        ).fingerprint()
