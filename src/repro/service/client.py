"""The thin front-end API over a :class:`TuningServer`.

:class:`JobClient` is what an embedding application (or the
``scripts/serve.py`` CLI) programs against: submit / status / result /
cancel / list, with workloads given as registry spec strings or
in-process :class:`~repro.workloads.base.Workload` objects.  It owns no
state beyond a reference to the server -- every durable fact lives in
the service root.
"""

from __future__ import annotations

from repro.core.result import TuningResult
from repro.core.tuner import LambdaTuneOptions
from repro.service.jobs import JobSpec
from repro.service.server import TuningServer
from repro.workloads.base import Workload


class JobClient:
    """One tenant-agnostic handle on a running tuning server."""

    def __init__(self, server: TuningServer) -> None:
        self._server = server

    def submit(
        self,
        workload: str | Workload,
        *,
        tenant: str = "default",
        priority: int = 0,
        system: str = "postgres",
        options: LambdaTuneOptions | None = None,
        fault_plan: object | None = None,
        job_id: str | None = None,
    ) -> str:
        """Submit one tuning job; returns its job id.

        Without a ``job_id`` the server assigns the next free
        ``job-NNNN`` id, distinct even under concurrent submits.

        Raises :class:`~repro.errors.QuotaExceededError` when the
        tenant's admission quota rejects the job -- nothing is enqueued
        or persisted in that case.
        """
        spec = JobSpec(
            job_id=job_id,
            workload=workload,
            tenant=tenant,
            priority=priority,
            system=system,
            options=options or LambdaTuneOptions(),
            fault_plan=fault_plan,
        )
        return self._server.submit(spec)

    def status(self, job_id: str) -> dict:
        """The job's lifecycle snapshot (state, tenant, priority, ...)."""
        return self._server.status(job_id)

    def result(
        self, job_id: str, *, timeout: float | None = None
    ) -> TuningResult:
        """Block for the job's :class:`TuningResult` (or raise on failure)."""
        return self._server.result(job_id, timeout=timeout)

    def cancel(self, job_id: str) -> str:
        """Cancel the job; returns the state the job ended up in."""
        return self._server.cancel(job_id)

    def jobs(self, tenant: str | None = None) -> list[dict]:
        """Status rows for every known job (optionally one tenant's)."""
        return self._server.jobs(tenant)

    def wait_all(self, *, timeout: float | None = None) -> bool:
        return self._server.wait_all(timeout=timeout)
