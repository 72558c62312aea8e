"""The multi-tenant tuning job server.

:class:`TuningServer` glues the existing primitives into a service:

- jobs are :class:`~repro.service.jobs.JobSpec`\\ s persisted
  write-ahead under the service root, admitted through a
  :class:`~repro.service.queue.JobQueue` (priorities, aging,
  per-tenant quotas), and run by a pool of worker threads; each job
  body is one call of :func:`_run_job_body`, made on the worker thread
  or, with ``executor="process"``, in a worker process of
  :func:`~repro.core.batch.job_pool`, the pool ``tune_many`` uses;
- every job executes as a PR-4 :class:`~repro.session.TuningSession`
  whose journal *is* the durable job record: :meth:`TuningServer.start`
  discovers incomplete journals (torn tails included) and resumes them
  mid-round with zero re-executed completed queries, reproducing the
  uninterrupted result byte-for-byte;
- all tenants share one installed
  :class:`~repro.cache.ArtifactCache` as a warm-start tier -- plans,
  compiled workloads, ILP solutions, and LLM samples computed for one
  tenant are served from disk to every other -- and because the cache
  is bit-transparent (PR 5) and each job owns its engine/clock/LLM,
  concurrent multi-tenant results are byte-identical to isolated runs;
- a journal lease (:class:`~repro.session.JournalLease`) guards every
  adoption, so two workers -- or two servers sharing a root -- can
  never double-resume one journal.

Cancellation and chaos share one mechanism: the job body wraps its
journal so that *before every append* it checks the server's kill flag
(thread runner), the job's durable cancel marker, and the server's
crash probe.  A cancelled job unwinds with
:class:`~repro.errors.JobCancelledError` at the next journal boundary,
releases its quota, and leaves a resumable journal; a chaos kill
(:class:`~repro.errors.ServerKilledError`) abandons leases and
in-memory state exactly as ``kill -9`` would, leaving recovery to the
next server instance.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.cache import ArtifactCache, active_cache, install_cache
from repro.core.batch import job_pool, resume_job, run_job
from repro.core.result import TuningResult
from repro.errors import (
    ConfigurationError,
    JobCancelledError,
    ServerKilledError,
    ServiceError,
    UnknownJobError,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobSpec,
    ServiceRoot,
    durable_spec,
)
from repro.service.queue import JobQueue, TenantQuota
from repro.session import JournalLease, TuningJournal, discover_journals
from repro.session.discover import read_result, register_owner, retire_owner
from repro.workloads.base import Workload
from repro.workloads.registry import load_workload

_SERVER_TOKENS = itertools.count()

#: Where job bodies run: the server's worker threads or a process pool.
BATCH_EXECUTORS = ("thread", "process")

#: Registry workloads one process keeps between jobs.
_WORKER_WORKLOAD_SLOTS = 4

#: The artifact-cache counters :meth:`TuningServer.tenant_cache_stats`
#: reports.
_TENANT_COUNTERS = ("memory_hits", "disk_hits", "stores")


class _JobControl:
    """The checks one job makes before every journal append.

    In order: the server's kill flag (``killed``; the thread runner
    only, since :meth:`TuningServer.kill` terminates pool workers), the
    job's durable cancel marker, which :meth:`TuningServer.cancel`
    writes, and the server's chaos probe.
    """

    def __init__(self, body: _JobBody, killed: threading.Event | None) -> None:
        self._body = body
        self._killed = killed
        self.appends = 0

    def before_append(self) -> None:
        job_id = self._body.spec.job_id
        if self._killed is not None and self._killed.is_set():
            raise ServerKilledError(f"server is down (job {job_id})")
        if os.path.exists(self._body.cancel_path):
            raise JobCancelledError(f"job {job_id} cancelled by tenant")
        self.appends += 1
        if self._body.probe is not None:
            self._body.probe(job_id, self.appends)


class _ServiceJournal(TuningJournal):
    """A journal that consults the job control before every append."""

    def __init__(self, path, *, append: bool = False, control=None) -> None:
        super().__init__(path, append=append)
        self._control = control

    def append(self, kind, payload, *, sync: bool = False) -> int:
        self._control.before_append()
        return super().append(kind, payload, sync=sync)


@dataclass(slots=True)
class _JobBody:
    """Everything :func:`_run_job_body` needs to run one service job.

    The server keeps the lease, the record and the queue; the body is
    the picklable recipe both runners execute.  A registry spec string
    (``"tpch-sf1"``) stays a string, which the body resolves through
    its process's :class:`_WorkloadLRU`; a ``Workload`` object or an
    ``"@name"`` reference arrives resolved.  ``probe`` is the server's
    chaos hook, which the process runner can send only if it pickles
    (a module-level function, not a closure).
    """

    spec: JobSpec
    journal_path: str
    resumed: bool
    cancel_path: str
    probe: object | None = None


class _WorkloadLRU:
    """The registry workloads one process keeps between its jobs.

    A workload carries its catalog's caches (analysis, plans,
    selectivity, compiled workloads, join values, snippet selections),
    so a job that reuses its spec's workload starts with whatever the
    process's earlier jobs derived.  The caches are bit-transparent:
    results do not depend on which jobs ran before.  At most ``slots``
    workloads stay; the least recently used one goes first.  The
    thread runner's worker threads share one instance, hence the lock.
    """

    def __init__(self, slots: int) -> None:
        self._slots = slots
        self._workloads: OrderedDict[str, Workload] = OrderedDict()
        self.lock = threading.Lock()

    def get(self, spec: str) -> Workload:
        """The workload ``spec`` names, loaded on its first use."""
        with self.lock:
            workload = self._workloads.get(spec)
            if workload is None:
                workload = load_workload(spec)
                self._workloads[spec] = workload
                if len(self._workloads) > self._slots:
                    self._workloads.popitem(last=False)
            else:
                self._workloads.move_to_end(spec)
            return workload


#: This process's registry workloads: the server's under the thread
#: runner, each pool worker's own under the process runner.
_worker_workloads = _WorkloadLRU(_WORKER_WORKLOAD_SLOTS)


def _fresh_lock_after_fork() -> None:
    # A pool worker forked while a server thread was loading a workload
    # would otherwise inherit the lock held, by a thread it lacks.
    _worker_workloads.lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_after_fork)


def _cache_counters() -> dict[str, int] | None:
    """This process's artifact-cache counters; ``None`` without a cache."""
    cache = active_cache()
    return None if cache is None else cache.stats.snapshot()


def _run_job_body(
    body: _JobBody, killed: threading.Event | None = None
) -> tuple[TuningResult, dict[str, int] | None]:
    """Run one service job: the only path from a ``JobSpec`` to a result.

    The thread runner calls it on a worker thread with the server's
    kill flag; the process runner submits it to the
    :func:`~repro.core.batch.job_pool`.  Returns the result and the
    job's artifact-cache counter deltas (memory hits, disk hits,
    stores) in the process that ran it, ``None`` without a cache.
    ``JobCancelledError``, ``ServerKilledError`` and the errors of
    resolving an unknown spec string propagate, through the future
    under the process runner, to ``_run_record``'s handlers.
    """
    before = _cache_counters()
    control = _JobControl(body, killed)

    def factory(path, *, append: bool = False):
        return _ServiceJournal(path, append=append, control=control)

    spec = body.spec
    name = spec.registry_spec()
    if name is not None:
        spec = replace(spec, workload=_worker_workloads.get(name))
    job = spec.to_batch_job(journal_path=body.journal_path)
    if body.resumed:
        result = resume_job(job, journal_factory=factory)
    else:
        result = run_job(job, journal_factory=factory)
    after = _cache_counters()
    if before is None or after is None:
        return result, None
    return result, {
        key: max(0, after[key] - before[key]) for key in _TENANT_COUNTERS
    }


class TuningServer:
    """A restartable multi-tenant tuning service over one root directory.

    Parameters
    ----------
    root:
        Service directory (spec files, journals, leases).  Restarting a
        server over the same root recovers every incomplete job.
    workers:
        Worker threads.  Each runs one job at a time, and a job
        evaluates its candidates one at a time (Algorithm 2), so
        ``workers`` bounds how many jobs tune concurrently.
    executor:
        Where the job body, :func:`_run_job_body`, runs; both runners
        execute the same one.  ``"thread"`` (default) calls it on the
        worker threads themselves.  ``"process"`` keeps the threads
        for queueing, leases, and state, and submits each body to a
        :func:`~repro.core.batch.job_pool` process pool, whose children
        install the shared on-disk cache.  A registry spec string
        travels as the string and is resolved through the running
        process's :class:`_WorkloadLRU` -- the server's under
        ``"thread"``, each pool worker's under ``"process"`` -- so
        later jobs on the same spec start with that workload's catalog
        caches warm.  ``"@name"`` and ``Workload`` jobs are resolved by
        the server; ``"process"`` pickles them into each job, schema
        only.  Jobs are CPU-bound, so only ``"process"`` runs them in
        parallel; worker threads serialize them on the GIL.  Results
        stay byte-identical either way.  The thread runner stays for
        what cannot cross a process boundary: a closure
        ``crash_probe`` (the pool needs a module-level function) and
        test guards patched into this process.
    quotas / default_quota / aging:
        Scheduling policy, passed to :class:`JobQueue`.
    cache_dir:
        Directory for the shared cross-tenant artifact cache, installed
        process-wide for the server's lifetime (previous cache restored
        on stop).  ``None`` leaves the ambient cache untouched.
    workload_resolver:
        Name -> :class:`Workload` mapping backing ``"@name"`` workload
        references.  Workload objects submitted in-process register
        themselves here automatically.
    crash_probe:
        Chaos hook: ``(job_id, append_ordinal)`` called before every
        journal append; raise :class:`ServerKilledError` to simulate a
        hard kill at that boundary.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        workers: int = 2,
        executor: str = "thread",
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        aging: int = 1,
        cache_dir: str | os.PathLike[str] | None = None,
        workload_resolver: dict[str, Workload] | None = None,
        crash_probe=None,
    ) -> None:
        self.root = ServiceRoot(root)
        self.token = f"server-{os.getpid()}-{next(_SERVER_TOKENS)}"
        self.crash_probe = crash_probe
        self._queue = JobQueue(
            quotas=quotas,
            default_quota=default_quota or TenantQuota(),
            aging=aging,
        )
        if executor not in BATCH_EXECUTORS:
            raise ConfigurationError(
                f"unknown service executor {executor!r}; "
                f"expected one of {BATCH_EXECUTORS}"
            )
        self.executor = executor
        self._pool: ProcessPoolExecutor | None = None
        self._workers_wanted = max(1, workers)
        self._cache_dir = cache_dir
        self._previous_cache: ArtifactCache | None = None
        self._cache_installed = False
        self._resolver = dict(workload_resolver or {})
        self._records: dict[str, JobRecord] = {}
        self._terminal: dict[str, threading.Event] = {}
        self._tenant_stats: dict[str, dict[str, int]] = {}
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._killed = threading.Event()
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "TuningServer":
        """Install the shared cache, recover the root, start workers."""
        if self._started:
            raise ServiceError("server already started")
        self._started = True
        self.root.ensure()
        register_owner(self.token)
        if self._cache_dir is not None:
            self._previous_cache = install_cache(ArtifactCache(self._cache_dir))
            self._cache_installed = True
        self._recover()
        if self.executor == "process":
            self._start_pool()
        for number in range(self._workers_wanted):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"{self.token}-worker-{number}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def _start_pool(self) -> None:
        """Bring up the process pool (``executor="process"`` only).

        Runs after the cache install, so the children inherit the
        server's cache root.
        """
        self._pool = job_pool(self._workers_wanted)

    def _teardown_pool(self, *, terminate: bool = False) -> None:
        """Shut the pool down; ``terminate`` kills the children first."""
        if self._pool is not None:
            if terminate:
                # kill -9 fidelity: children die mid-write, leaving
                # torn journal tails for the next server to recover.
                for process in list(
                    getattr(self._pool, "_processes", {}).values()
                ):
                    process.terminate()
            self._pool.shutdown(wait=not terminate, cancel_futures=True)
            self._pool = None

    def _recover(self) -> None:
        """Rebuild queue state from the root's spec files and journals.

        Classification per persisted job:

        - cancel marker, no journal -> ``cancelled`` (never ran);
        - journal with a ``done`` event -> ``done`` (result on disk);
        - journal without ``done`` (torn tail included) -> requeued as
          a *resume* job, unless a cancel marker holds it cancelled;
        - no journal -> requeued to run from scratch.
        """
        journals = {
            info.name: info
            for info in discover_journals(self.root.journals_dir)
        }
        with self._lock:
            for job_id in self.root.job_ids():
                spec = self.root.read_spec(job_id)
                record = JobRecord(spec=spec)
                info = journals.get(job_id)
                if info is not None and info.complete:
                    record.state = DONE
                    self._register(record, terminal=True)
                elif self.root.is_cancelled(job_id):
                    record.state = CANCELLED
                    record.resumed = info is not None
                    self._register(record, terminal=True)
                else:
                    # A journal whose only content is a torn line carries
                    # no intact state: drop it and run from scratch (the
                    # crash predates the first fsync'd event).
                    if info is not None and info.events == 0:
                        info.path.unlink(missing_ok=True)
                        info = None
                    record.resumed = info is not None
                    self._register(record, terminal=False)
                    self._queue.submit(record, enforce_quota=False)

    def _register(self, record: JobRecord, *, terminal: bool) -> None:
        """Track ``record``; the caller holds ``self._lock``."""
        self._records[record.job_id] = record
        event = threading.Event()
        if terminal:
            event.set()
        self._terminal[record.job_id] = event

    def stop(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Shut down: optionally drain the queue, then join the workers."""
        self._stopping.set()
        if not drain:
            self._killed.set()
        self._queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._teardown_pool()
        retire_owner(self.token)
        if self._cache_installed:
            install_cache(self._previous_cache)
            self._cache_installed = False

    def kill(self) -> None:
        """Chaos: die *now*, abandoning state as ``kill -9`` would.

        In-flight jobs stop at their next journal append; leases stay
        on disk (stale-breakable); the queue's memory is lost.  Only a
        new server instance over the same root can continue the work.
        """
        self._killed.set()
        self._stopping.set()
        self._queue.close()
        self._teardown_pool(terminate=True)
        retire_owner(self.token)
        for thread in self._threads:
            thread.join(timeout=30.0)
        if self._cache_installed:
            install_cache(self._previous_cache)
            self._cache_installed = False

    @property
    def killed(self) -> bool:
        return self._killed.is_set()

    # -- submission & control --------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Admit one job: durable spec write, quota check, enqueue.

        A spec without a ``job_id`` gets the next free ``job-NNNN`` id.
        The id check, the exclusive spec write and the registration run
        under the server lock, so concurrent submitters can neither
        share an id nor overwrite each other's spec.
        """
        with self._lock:
            if not self._started or self._stopping.is_set():
                raise ServiceError("server is not accepting submissions")
            if spec.job_id in self._records:
                raise ServiceError(f"job id {spec.job_id!r} already exists")
            if isinstance(spec.workload, Workload):
                self._resolver.setdefault(spec.workload.name, spec.workload)
            # Write-ahead: the spec hits disk before the queue, so an
            # admitted job survives any later crash; a quota rejection
            # removes the spec again below.
            job_id = self.root.write_spec(durable_spec(spec)).job_id
            record = JobRecord(spec=replace(spec, job_id=job_id))
            self._register(record, terminal=False)
        try:
            self._queue.submit(record)
        except Exception:
            # Rejected after persisting: remove the spec so a restart
            # does not resurrect a job that was never admitted.
            self.root.spec_path(job_id).unlink(missing_ok=True)
            with self._lock:
                self._records.pop(job_id, None)
                self._terminal.pop(job_id, None)
            raise
        return job_id

    def cancel(self, job_id: str) -> str:
        """Cancel a job; returns its resulting state.

        Queued jobs leave the queue immediately (quota released).  A
        running job is stopped at its next journal boundary -- its
        journal stays on disk, resumable if the tenant changes its
        mind.  Terminal jobs are left untouched.
        """
        record = self._record(job_id)
        if record.state == QUEUED:
            try:
                cancelled = self._queue.cancel(job_id)
            except UnknownJobError:
                cancelled = None  # dispatched while we looked: fall through
            if cancelled is not None:
                record.state = CANCELLED
                self.root.mark_cancelled(job_id)
                self._terminal[job_id].set()
                return CANCELLED
        if record.state == RUNNING:
            self.root.mark_cancelled(job_id)
        return record.state

    # -- inspection ------------------------------------------------------------

    def _record(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise UnknownJobError(f"no such job {job_id!r}")
        return record

    def status(self, job_id: str) -> dict:
        record = self._record(job_id)
        return {
            "job_id": record.job_id,
            "tenant": record.tenant,
            "priority": record.spec.priority,
            "state": record.state,
            "resumed": record.resumed,
            "error": record.error,
        }

    def jobs(self, tenant: str | None = None) -> list[dict]:
        with self._lock:
            records = sorted(self._records.values(), key=lambda r: r.job_id)
        return [
            self.status(record.job_id)
            for record in records
            if tenant is None or record.tenant == tenant
        ]

    def result(
        self, job_id: str, *, timeout: float | None = None
    ) -> TuningResult:
        """Block until ``job_id`` is terminal and return its result."""
        record = self._record(job_id)
        if not self._terminal[job_id].wait(timeout=timeout):
            raise ServiceError(f"job {job_id!r} did not finish in time")
        if record.state != DONE:
            raise ServiceError(
                f"job {job_id!r} is {record.state}"
                + (f": {record.error}" if record.error else "")
            )
        if record.result is None:
            # Completed in a previous server life: the journal has it.
            record.result = read_result(self.root.journal_path(job_id))
        return record.result

    def wait_all(self, *, timeout: float | None = None) -> bool:
        """Wait until every known job is terminal; False on timeout."""
        with self._lock:
            events = list(self._terminal.values())
        for event in events:
            if not event.wait(timeout=timeout):
                return False
        return True

    def cache_stats(self) -> dict[str, int] | None:
        return _cache_counters()

    def tenant_cache_stats(self, tenant: str) -> dict[str, int]:
        """Artifact-cache memory hits, disk hits and stores of this
        tenant's finished jobs.

        Each job body returns the deltas of the cache counters of the
        process that ran it.  A pool worker runs one job at a time, so
        under ``executor="process"`` every job's count is exact; so it
        is under ``"thread"`` with one worker.  Concurrent worker
        threads share the server's cache, and a job then also counts
        what overlapping jobs did while it ran.
        """
        with self._lock:
            return dict(
                self._tenant_stats.get(
                    tenant, dict.fromkeys(_TENANT_COUNTERS, 0)
                )
            )

    # -- the worker loop -------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._killed.is_set():
            record = self._queue.acquire(timeout=0.05)
            if record is None:
                if self._stopping.is_set() and self._queue.pending_count() == 0:
                    return
                continue
            try:
                self._run_record(record)
            except ServerKilledError:
                return
            finally:
                self._queue.release(record)

    def _run_record(self, record: JobRecord) -> None:
        job_id = record.job_id
        journal_path = self.root.journal_path(job_id)
        try:
            lease = JournalLease.acquire(journal_path, owner_token=self.token)
        except ServiceError as error:
            record.state = FAILED
            record.error = str(error)
            self._terminal[job_id].set()
            return

        try:
            spec = record.spec
            if spec.registry_spec() is None:
                spec = replace(spec, workload=spec.resolve_workload(self._resolver))
            body = _JobBody(
                spec=spec,
                journal_path=os.fspath(journal_path),
                resumed=record.resumed or journal_path.exists(),
                cancel_path=os.fspath(self.root.cancel_path(job_id)),
                probe=self.crash_probe,
            )
            pool = self._pool
            if pool is None:
                # The thread runner, or a process server that kill() has
                # torn down: its kill flag stops the body at the first
                # journal append.
                result, counters = _run_job_body(body, self._killed)
            else:
                try:
                    result, counters = pool.submit(_run_job_body, body).result()
                except (BrokenProcessPool, RuntimeError) as error:
                    if not self._killed.is_set():
                        raise
                    # kill() terminated the pool workers mid-job.
                    raise ServerKilledError(
                        f"server {self.token} is down (job {job_id})"
                    ) from error
            self._account(record.tenant, counters)
            record.result = result
            record.state = DONE
            record.error = None
            lease.release()
            self._terminal[job_id].set()
        except JobCancelledError:
            record.state = CANCELLED
            lease.release()
            self._terminal[job_id].set()
        except ServerKilledError:
            # kill -9 semantics: the lease file survives (stale), the
            # record stays RUNNING in this dead server's memory, and
            # the journal on disk is the only truth.
            lease.abandon()
            raise
        except Exception as error:
            record.state = FAILED
            record.error = f"{type(error).__name__}: {error}"
            lease.release()
            self._terminal[job_id].set()

    def _account(self, tenant: str, counters: dict[str, int] | None) -> None:
        if counters is None:
            return
        with self._lock:
            bucket = self._tenant_stats.setdefault(
                tenant, dict.fromkeys(_TENANT_COUNTERS, 0)
            )
            for key in bucket:
                bucket[key] += counters[key]

    # -- context manager -------------------------------------------------------

    def __enter__(self) -> "TuningServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        if not self._killed.is_set():
            self.stop()
