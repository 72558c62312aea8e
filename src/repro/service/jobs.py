"""Durable job records for the tuning service.

A job is described by a :class:`JobSpec` and tracked by a
:class:`JobRecord`.  Durability is two files under the service root:

- ``jobs/<job_id>.job`` -- the spec, written atomically and exclusively
  (fsynced tmp file hard-linked into place) *before* the job is admitted
  to the queue, so an accepted submission survives any later crash and
  two submitters can never claim one id;
- ``journals/<job_id>.journal`` -- the PR-4 write-ahead tuning journal,
  which doubles as the job's progress record and, once it holds a
  ``done`` event, its result of record.

A ``jobs/<job_id>.cancel`` marker persists an offline cancellation (the
CLI can cancel jobs while no server is running); recovery honours it.

Specs are serialized with the session codec
(:mod:`repro.session.codec`), so options and fault plans round-trip
with exact floats and no pickling.  Workloads are persisted as spec
*strings*: either a :func:`repro.workloads.load_workload` spec
(``"tpch-sf1"``, ``"synthetic:queries=200,scale=100"``), or
``"@<name>"`` naming an entry in the server's in-process workload
resolver -- the escape hatch tests and embedders use for workloads that
have no registry spelling.

The two spellings travel differently.  A registry spec string stays a
string until the job body runs, which resolves it through a small LRU
of workloads kept by the process running the body: the server's own
under ``TuningServer(executor="thread")``, each pool worker's under
``"process"``.  A later job on the same spec therefore reuses that
workload's warm catalog caches, and only the string crosses to a pool
worker.  An ``"@<name>"`` reference (or a ``Workload`` object) is
resolved by the server before the body runs; under ``"process"`` the
workload is pickled into every job it dispatches, without its catalog
caches.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.batch import BatchJob
from repro.core.tuner import LambdaTuneOptions
from repro.errors import ServiceError, UnknownJobError
from repro.session import codec
from repro.session.discover import JOURNAL_SUFFIX
from repro.workloads.base import Workload
from repro.workloads.registry import load_workload

#: Job lifecycle states (see DESIGN.md §13 for the transition diagram).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

SPEC_SUFFIX = ".job"
CANCEL_SUFFIX = ".cancel"

#: Spec files carry their own format version, separate from the journal
#: codec's: the two evolve independently.
SPEC_VERSION = 1


@dataclass(frozen=True, slots=True)
class JobSpec:
    """Everything needed to run -- or re-run -- one tuning job."""

    #: ``None`` until submitted: :meth:`ServiceRoot.write_spec` then
    #: claims the next free ``job-NNNN`` id for it.
    job_id: str | None
    workload: str | Workload
    tenant: str = "default"
    priority: int = 0
    system: str = "postgres"
    options: LambdaTuneOptions = field(default_factory=LambdaTuneOptions)
    fault_plan: object | None = None

    def workload_ref(self) -> str:
        """The durable string form of :attr:`workload`."""
        if isinstance(self.workload, str):
            return self.workload
        return "@" + self.workload.name

    def registry_spec(self) -> str | None:
        """The :func:`~repro.workloads.load_workload` spec this job names.

        ``None`` for a ``Workload`` object or an ``"@<name>"`` reference.
        """
        if isinstance(self.workload, str) and not self.workload.startswith("@"):
            return self.workload
        return None

    def resolve_workload(
        self, resolver: dict[str, Workload] | None = None
    ) -> Workload:
        """The concrete workload this spec names."""
        if isinstance(self.workload, Workload):
            return self.workload
        if self.workload.startswith("@"):
            name = self.workload[1:]
            if resolver is None or name not in resolver:
                raise ServiceError(
                    f"job {self.job_id!r} references in-process workload "
                    f"{name!r} but the server has no resolver entry for it"
                )
            return resolver[name]
        return load_workload(self.workload)

    def to_batch_job(
        self, *, journal_path: str | os.PathLike[str] | None = None
    ) -> BatchJob:
        """The :class:`~repro.core.batch.BatchJob` executing this spec.

        An ``"@<name>"`` reference must be resolved first (see
        :meth:`resolve_workload`); a registry spec string loads afresh.
        """
        return BatchJob(
            workload=self.resolve_workload(),
            system=self.system,
            options=self.options,
            fault_plan=self.fault_plan,
            journal_path=journal_path,
        )


@dataclass(slots=True)
class JobRecord:
    """One job's in-memory state on a running server."""

    spec: JobSpec
    state: str = QUEUED
    #: Present for DONE jobs run in this server's lifetime; recovered
    #: DONE jobs read their result lazily from the journal.
    result: object | None = None
    error: str | None = None
    #: Submission order (server-lifetime monotonic).
    seq: int = 0
    #: Global dispatch counter value at enqueue time (priority aging).
    enqueued_at: int = 0
    #: The journal existed before this server adopted the job.
    resumed: bool = False

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def tenant(self) -> str:
        return self.spec.tenant


# -- service root layout ------------------------------------------------------


class ServiceRoot:
    """Path layout + durable spec persistence for one service directory."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.journals_dir = self.root / "journals"

    def ensure(self) -> None:
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.journals_dir.mkdir(parents=True, exist_ok=True)

    def spec_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}{SPEC_SUFFIX}"

    def cancel_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}{CANCEL_SUFFIX}"

    def journal_path(self, job_id: str) -> Path:
        return self.journals_dir / f"{job_id}{JOURNAL_SUFFIX}"

    def job_ids(self) -> list[str]:
        """Every persisted job id, in submission (= allocation) order."""
        if not self.jobs_dir.is_dir():
            return []
        return sorted(
            path.name[: -len(SPEC_SUFFIX)]
            for path in self.jobs_dir.glob(f"*{SPEC_SUFFIX}")
        )

    def allocate_job_id(self) -> str:
        """The next free ``job-NNNN`` id (sorted = submission order).

        A concurrent submitter may claim the same id first; only
        :meth:`write_spec` claims one.
        """
        taken = set(self.job_ids())
        number = len(taken)
        while f"job-{number:04d}" in taken:
            number += 1
        return f"job-{number:04d}"

    def write_spec(self, spec: JobSpec) -> JobSpec:
        """Persist ``spec`` durably; the write-ahead step of submit.

        An id that is already taken raises :class:`ServiceError`.  A spec
        without a ``job_id`` gets the next free ``job-NNNN`` id, moving
        on to the following one whenever a concurrent submitter (thread
        or process) claims it first.  Returns the spec as written.
        """
        self.ensure()
        if spec.job_id is not None:
            if not self._publish(spec):
                raise ServiceError(f"job id {spec.job_id!r} already exists")
            return spec
        while True:
            claimed = replace(spec, job_id=self.allocate_job_id())
            if self._publish(claimed):
                return claimed

    def _publish(self, spec: JobSpec) -> bool:
        """Write ``spec`` unless its id is taken; True if it was written.

        The fsynced temp file is hard-linked to the spec path, and
        ``os.link`` fails if that path exists: of two writers racing for
        one id exactly one wins, and neither overwrites the other.
        """
        payload = {
            "spec_version": SPEC_VERSION,
            "job_id": spec.job_id,
            "tenant": spec.tenant,
            "priority": spec.priority,
            "workload": spec.workload_ref(),
            "system": spec.system,
            "options": codec.encode(spec.options),
            "fault_plan": codec.encode(spec.fault_plan),
        }
        data = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        fd, temp_path = tempfile.mkstemp(dir=self.jobs_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            try:
                os.link(temp_path, self.spec_path(spec.job_id))
            except FileExistsError:
                return False
            return True
        finally:
            try:
                os.unlink(temp_path)
            except OSError:
                pass

    def read_spec(self, job_id: str) -> JobSpec:
        path = self.spec_path(job_id)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise UnknownJobError(f"no such job {job_id!r}") from None
        except (OSError, json.JSONDecodeError) as error:
            raise ServiceError(
                f"unreadable job spec {path}: {error}"
            ) from error
        version = payload.get("spec_version")
        if version != SPEC_VERSION:
            raise ServiceError(
                f"job spec {path} has version {version!r}; "
                f"this build reads version {SPEC_VERSION}"
            )
        # Only the keys below are read.  Specs written by older builds
        # also carry ``realtime_factor`` (wall-clock sleep per simulated
        # second, which never changed a result); it is dropped here,
        # whatever its value.
        return JobSpec(
            job_id=payload["job_id"],
            tenant=payload["tenant"],
            priority=payload["priority"],
            workload=payload["workload"],
            system=payload["system"],
            options=codec.decode(payload["options"]),
            fault_plan=codec.decode(payload["fault_plan"]),
        )

    def mark_cancelled(self, job_id: str) -> None:
        """Persist an offline cancellation marker."""
        if not self.spec_path(job_id).exists():
            raise UnknownJobError(f"no such job {job_id!r}")
        self.cancel_path(job_id).write_text("", encoding="utf-8")

    def is_cancelled(self, job_id: str) -> bool:
        return self.cancel_path(job_id).exists()


def durable_spec(spec: JobSpec) -> JobSpec:
    """A copy of ``spec`` with its workload in durable string form."""
    if isinstance(spec.workload, str):
        return spec
    return replace(spec, workload=spec.workload_ref())
