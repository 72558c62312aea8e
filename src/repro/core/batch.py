"""Batched multi-workload tuning over a shared pool and shared cache.

:func:`tune_many` runs N independent tuning jobs.  Each job gets its own
engine, virtual clock, and LLM client, so job results are byte-identical
however many workers run them -- the worker count changes wall-clock
time only.  What the jobs *share* is the process-wide persistent
:class:`repro.cache.ArtifactCache`: overlapping workloads (TPC-H /
TPC-DS / JOB share the planner, solver, and scheduler work for any
queries, plans, and prompts they have in common) warm each other's
artifacts mid-batch, and the disk tier carries the warmth to the next
invocation.

One worker runs the jobs in order in the caller's process.  More than
one runs each job in a worker process of :func:`job_pool`: the worker
rebuilds the job's engine/LLM from the pickled :class:`BatchJob` spec
and shares the on-disk artifact cache.  :func:`job_pool` builds that
process pool for both drivers, ``tune_many`` and the service's process
executor; its initializer installs the parent's cache root and nothing
else.  Inside each job, Algorithm 2 evaluates one candidate at a time on
the job's own engine (the serial ``RoundDriver`` of
:mod:`repro.core.rounds`): jobs are the unit of parallelism.

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
from concurrent.futures import ProcessPoolExecutor
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


@dataclass(slots=True)
class BatchJob:
    """One workload to tune, with everything the tune needs.

    ``engine`` and ``llm`` default to a fresh default-configured engine
    for ``system`` and a fresh :class:`repro.llm.mock.SimulatedLLM`.
    Jobs must not share mutable collaborators: the same engine or a
    stateful LLM client (e.g. the fault-injecting wrapper) passed to two
    jobs carries one job's state into the other.  A job with an explicit
    ``engine`` or ``llm`` cannot be sent to a worker process, so it runs
    only in a one-worker :func:`tune_many`.
    """

    workload: Workload
    system: str = "postgres"
    options: LambdaTuneOptions = field(default_factory=LambdaTuneOptions)
    engine: DatabaseEngine | None = None
    llm: LLMClient | None = None
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

    return TuningSession.resume(
        Path(job.journal_path),
        engine=make_engine(job.workload, job.system),
        llm=job.build_llm(),
        journal_factory=journal_factory,
    )


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
    start-up), else ``spawn``.  Used by :func:`job_pool`.
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
            "max_workers > 1 runs jobs in worker processes, which need "
            "jobs that build their own engine and LLM (leave "
            "BatchJob.engine / BatchJob.llm unset)"
        )


def tune_many(
    jobs: list[BatchJob],
    *,
    max_workers: int = 1,
    cache_dir: str | os.PathLike[str] | None = None,
) -> list[TuningResult]:
    """Tune every job, returning results in job order.

    With ``max_workers=1`` (the default) the jobs run one after another
    in this process.  With more, each job runs in a :func:`job_pool`
    worker process, at most one worker per job: jobs are pickled to
    workers that rebuild engine/LLM from the :class:`BatchJob` spec and
    install the shared on-disk artifact cache.  Results are
    byte-identical either way: each job owns its engine, virtual clock,
    and LLM client, so only wall-clock time changes.  A job is CPU-bound
    simulation work, so more workers than usable cores buy nothing.

    ``cache_dir`` installs a shared persistent artifact cache for the
    duration of the batch (restoring the previously active cache after);
    omit it to use whatever cache is already active -- including none.
    Process workers inherit the same cache directory through their
    initializer, so the batch still shares one warm disk tier.
    """
    if not jobs:
        raise ConfigurationError("tune_many needs at least one job")
    if not isinstance(max_workers, int) or max_workers < 1:
        raise ConfigurationError(
            f"max_workers must be a positive integer, not {max_workers!r}"
        )
    workers = min(max_workers, len(jobs))
    if workers > 1:
        for job in jobs:
            _check_process_portable(job)

    previous = active_cache()
    if cache_dir is not None:
        install_cache(ArtifactCache(cache_dir))
    try:
        if workers == 1:
            return [run_job(job) for job in jobs]
        # Journaled jobs write their journals from the worker; the
        # journal file is the job's event stream back to the parent.
        with job_pool(workers) as pool:
            return list(pool.map(run_job, jobs))
    finally:
        if cache_dir is not None:
            install_cache(previous)
