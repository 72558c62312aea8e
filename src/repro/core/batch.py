"""Batched multi-workload tuning over a shared pool and shared cache.

:func:`tune_many` runs N independent tuning jobs concurrently.  Each job
gets its own engine, virtual clock, and LLM client, so job results are
byte-identical to running the same jobs serially -- concurrency changes
wall-clock time only.  What the jobs *share* is the process-wide
persistent :class:`repro.cache.ArtifactCache`: overlapping workloads
(TPC-H / TPC-DS / JOB share the planner, solver, and scheduler work for
any queries, plans, and prompts they have in common) warm each other's
artifacts mid-batch, and the disk tier carries the warmth to the next
invocation.

Two batch executors drive the jobs.  ``executor="thread"`` (default)
fits wall-clock dominated by engine waits under a positive
``realtime_factor`` -- sleeps release the GIL -- and all jobs see the
same cache object without serialization.  ``executor="process"`` fits
CPU-bound batches (``realtime_factor=0``): worker processes rebuild each
job's engine/LLM from the pickled :class:`BatchJob` spec and share the
on-disk artifact cache.  :func:`job_pool` builds that process pool for
both drivers, ``tune_many`` and the service's process executor; its
initializer installs the parent's cache root and nothing else.  Inside
each job, Algorithm 2 evaluates one candidate at a time on the job's own
engine (the serial ``RoundDriver`` of :mod:`repro.core.rounds`): jobs
are the unit of parallelism.

:class:`BatchJob` doubles as the execution recipe for the service layer
(:mod:`repro.service`): its :meth:`~BatchJob.build_engine` /
:meth:`~BatchJob.build_llm` factories are the *only* place engines and
LLM clients are constructed for batch and service work, so a resumed
service job rebuilds collaborators identically to a fresh one, and
:func:`run_job` is the single per-job runner both drivers share --
journaled (crash-safe via :class:`repro.session.TuningSession`) when the
job carries a ``journal_path``, plain otherwise.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.cache import ArtifactCache, active_cache, install_cache
from repro.core.result import TuningResult
from repro.core.tuner import LambdaTune, LambdaTuneOptions
from repro.db.engine import DatabaseEngine
from repro.errors import ConfigurationError
from repro.llm.client import LLMClient
from repro.workloads.base import Workload
from repro.workloads.compile import make_engine

#: Batch-level executors: how *jobs* are distributed.
BATCH_EXECUTORS = ("thread", "process")


@dataclass(slots=True)
class BatchJob:
    """One workload to tune, with everything the tune needs.

    ``engine`` and ``llm`` default to a fresh default-configured engine
    for ``system`` and a fresh :class:`repro.llm.mock.SimulatedLLM`.
    Jobs must not share mutable collaborators: passing the same engine
    or a stateful LLM client (e.g. the fault-injecting wrapper) to two
    jobs makes results depend on scheduling order.
    """

    workload: Workload
    system: str = "postgres"
    options: LambdaTuneOptions = field(default_factory=LambdaTuneOptions)
    engine: DatabaseEngine | None = None
    llm: LLMClient | None = None
    #: Wall-clock seconds slept per simulated second of engine work on
    #: this job's engine (see ``DatabaseEngine.realtime_factor``).
    realtime_factor: float = 0.0
    #: Deterministic chaos plan (PR 3).  Installed on the built engine
    #: and wrapped around the built LLM client; results stay a pure
    #: function of ``(job, plan)``.  Ignored for an explicit ``engine``
    #: / ``llm`` -- the caller owns those collaborators.
    fault_plan: object | None = None
    #: Write-ahead journal for this job (crash-safe resume, PR 4).
    #: ``None`` tunes unjournaled.
    journal_path: str | os.PathLike[str] | None = None

    def build_engine(self) -> DatabaseEngine:
        """A fresh engine for this job (fault plan installed)."""
        engine = self.engine
        if engine is None:
            engine = make_engine(self.workload, self.system)
            if self.fault_plan is not None:
                engine.install_faults(self.fault_plan)
        if self.realtime_factor > 0:
            engine.realtime_factor = self.realtime_factor
        return engine

    def build_llm(self) -> LLMClient:
        """A fresh LLM client for this job (fault wrapper applied).

        The fault wrapper's transient-retry backoff sleeps are disabled:
        they are wall-clock only (the virtual clock never sees them), so
        in batch and service contexts they would merely stall a worker.
        """
        llm = self.llm
        if llm is not None:
            return llm
        from repro.llm.mock import SimulatedLLM

        llm = SimulatedLLM()
        if self.fault_plan is not None:
            from repro.faults import FaultyLLMClient

            llm = FaultyLLMClient(llm, self.fault_plan)
            llm.sleep = lambda seconds: None
        return llm

    def build(self) -> LambdaTune:
        return LambdaTune(
            self.build_engine(), self.build_llm(), options=self.options
        )


def run_job(job: BatchJob, *, journal_factory=None) -> TuningResult:
    """Run one job to completion; the shared batch/service runner.

    With a ``journal_path`` on the job the tune runs inside a
    :class:`~repro.session.TuningSession` (``journal_factory`` is
    forwarded, letting the service layer interpose cancellation and
    chaos checks); otherwise it is a plain ``tune()`` call.  Either way
    the result is bit-identical -- journaling observes, never perturbs.
    """
    tuner = job.build()
    queries = list(job.workload.queries)
    if job.journal_path is None:
        return tuner.tune(queries, workload_name=job.workload.name)
    from repro.session import TuningSession

    session = TuningSession(
        tuner,
        Path(job.journal_path),
        workload_name=job.workload.name,
        journal_factory=journal_factory,
    )
    return session.run(queries)


def resume_job(job: BatchJob, *, journal_factory=None) -> TuningResult:
    """Continue ``job``'s journal on freshly built collaborators.

    The engine is built *without* the fault plan -- resume reinstalls
    the journaled plan itself -- while the LLM client is rebuilt exactly
    as :meth:`BatchJob.build_llm` would, so replayed samples and fresh
    samples alike come from the same deterministic source.
    """
    if job.journal_path is None:
        raise ConfigurationError("resume_job needs a job with a journal_path")
    from repro.session import TuningSession

    engine = make_engine(job.workload, job.system)
    if job.realtime_factor > 0:
        engine.realtime_factor = job.realtime_factor
    return TuningSession.resume(
        Path(job.journal_path),
        engine=engine,
        llm=job.build_llm(),
        journal_factory=journal_factory,
    )


def _run_job(job: BatchJob) -> TuningResult:
    return run_job(job)


# -- process-pool plumbing ----------------------------------------------------


def ensure_pool_env() -> None:
    """Pin child-process environment before a process pool is created.

    Under the ``spawn`` start method worker processes re-import ``repro``
    from scratch, so the interpreter they run must (a) find the package
    -- ``PYTHONPATH`` gains the directory containing ``repro`` -- and
    (b) hash strings the same way every run -- ``PYTHONHASHSEED`` is
    pinned (to its current value, or 0 when unset/random).  Mutating
    ``os.environ`` is inherited by children; the parent's own hashing
    was fixed at startup and is unaffected.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            src_dir + os.pathsep + existing if existing else src_dir
        )
    hash_seed = os.environ.get("PYTHONHASHSEED", "")
    if not hash_seed or hash_seed == "random":
        os.environ["PYTHONHASHSEED"] = "0"


def preferred_mp_context():
    """The multiprocessing context process pools should use.

    ``fork`` when available (shares the already-imported interpreter
    state: no re-import, no context pickling, much cheaper worker
    start-up), else ``spawn``.  Shared by ``tune_many(executor=
    "process")`` and the service's process workers.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _init_batch_worker(cache_root: str | None) -> None:
    """Process-pool initializer: install the parent's on-disk cache."""
    if cache_root is not None:
        install_cache(ArtifactCache(cache_root))


def job_pool(max_workers: int) -> ProcessPoolExecutor:
    """The process pool that runs job bodies for both drivers.

    Workers start from :func:`preferred_mp_context` with the pinned
    environment of :func:`ensure_pool_env`, and each installs the
    *root* of the parent's active artifact cache, so every process
    shares one disk tier (the memory tiers are process-local; the
    store's atomic ``os.replace`` publishes make the shared tier safe).
    A memory-only or absent cache gives workers none.
    """
    cache = active_cache()
    cache_root = cache.root if cache is not None else None
    ensure_pool_env()
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=preferred_mp_context(),
        initializer=_init_batch_worker,
        initargs=(cache_root,),
    )


def _check_process_portable(job: BatchJob) -> None:
    """Process workers rebuild collaborators from the spec; an explicit
    engine or LLM client cannot cross the process boundary (it is both
    unpicklable in general and, per the :class:`BatchJob` contract,
    owned by the caller)."""
    if job.engine is not None or job.llm is not None:
        raise ConfigurationError(
            "executor='process' requires jobs that build their own "
            "engine and LLM (leave BatchJob.engine / BatchJob.llm unset)"
        )


def _default_max_workers(n_jobs: int, executor: str) -> int:
    """The ``max_workers=None`` heuristic, executor-aware.

    A process worker burns a whole core; oversubscribing past the
    *usable* core count (affinity/cgroup-aware, and never above
    ``os.cpu_count()``) adds fork and pickling overhead without
    parallelism, no matter how many jobs are queued.  Thread workers
    mostly wait on engine sleeps (``realtime_factor``) and keep the
    pre-PR-10 default unchanged.
    """
    cpus = os.cpu_count() or 1
    if executor == "process":
        try:
            usable = len(os.sched_getaffinity(0)) or 1
        except (AttributeError, OSError):  # platforms without affinity
            usable = cpus
        return max(1, min(n_jobs, usable, cpus))
    return max(1, min(n_jobs, cpus))


def tune_many(
    jobs: list[BatchJob],
    *,
    max_workers: int | None = None,
    executor: str = "thread",
    cache_dir: str | os.PathLike[str] | None = None,
) -> list[TuningResult]:
    """Tune every job, concurrently, returning results in job order.

    ``executor`` picks the scale-out mechanism.  ``"thread"`` (the
    default, unchanged semantics) runs jobs on a thread pool -- right
    when wall-clock is dominated by engine waits (``realtime_factor``),
    which release the GIL.  ``"process"`` runs each job in a
    :func:`job_pool` worker process: jobs are pickled to workers that
    rebuild engine/LLM from the :class:`BatchJob` spec and install the
    shared on-disk artifact cache -- right when jobs are CPU-bound
    simulation work that a thread pool would serialize on the GIL.
    Results are byte-identical across serial, thread, and process
    paths: each job owns its engine, virtual clock, and LLM client, so
    only wall-clock time changes.

    ``cache_dir`` installs a shared persistent artifact cache for the
    duration of the batch (restoring the previously active cache after);
    omit it to use whatever cache is already active -- including none.
    Process workers inherit the same cache directory through their
    initializer, so the batch still shares one warm disk tier.
    """
    if not jobs:
        raise ConfigurationError("tune_many needs at least one job")
    if executor not in BATCH_EXECUTORS:
        raise ConfigurationError(
            f"unknown batch executor {executor!r}; "
            f"expected one of {BATCH_EXECUTORS}"
        )
    if max_workers is None:
        max_workers = _default_max_workers(len(jobs), executor)
    max_workers = max(1, min(max_workers, len(jobs)))

    previous = active_cache()
    if cache_dir is not None:
        install_cache(ArtifactCache(cache_dir))
    try:
        if max_workers == 1:
            return [_run_job(job) for job in jobs]
        if executor == "process":
            for job in jobs:
                _check_process_portable(job)
            # Journaled jobs write their journals from the worker; the
            # journal file is the job's event stream back to the parent.
            with job_pool(max_workers) as pool:
                return list(pool.map(_run_job, jobs))
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(_run_job, jobs))
    finally:
        if cache_dir is not None:
            install_cache(previous)
