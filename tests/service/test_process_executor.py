"""The server's ``executor="process"`` path (PR 10).

Process-served jobs must be byte-identical to thread-served jobs and
to the bare ``run_job`` reference -- with and without a fault plan --
and the crash-restart machinery must span executors: a journal torn by
a thread-mode crash resumes bit-exactly on a process-mode server, and
a process worker killed mid-flight by the chaos probe leaves a journal
the next server recovers.
"""

from __future__ import annotations

import functools
import multiprocessing
import time

import pytest

from repro.cache import ArtifactCache, digest_key
from repro.errors import ConfigurationError, ServerKilledError
from repro.faults import FaultPlan
from repro.service import JobClient, TuningServer
from repro.service import server as server_module
from repro.service.jobs import JobSpec, ServiceRoot
from repro.workloads.registry import load_workload
from tests.service.conftest import (
    fingerprint,
    job_options,
    make_server,
    reference_result,
)
from tests.service.test_restart import wait_for_workers

SEEDS = list(range(8))

#: A registry spec string small enough for many served jobs.
SPEC = "synthetic:queries=8,scale=2"


def _serve_all(root, workload, options_list, *, executor, fault_plan=None):
    with make_server(
        root,
        workers=2,
        executor=executor,
        workload_resolver={workload.name: workload},
    ) as server:
        client = JobClient(server)
        job_ids = [
            client.submit(workload, options=options, fault_plan=fault_plan)
            for options in options_list
        ]
        return [
            fingerprint(server.result(job_id, timeout=300.0))
            for job_id in job_ids
        ]


class TestProcessServedIdentity:
    def test_eight_seeds_match_thread_and_reference(
        self, tiny_workload, tmp_path
    ):
        options = [job_options(seed) for seed in SEEDS]
        references = [
            fingerprint(reference_result(tiny_workload, options=opts))
            for opts in options
        ]
        served_process = _serve_all(
            tmp_path / "process", tiny_workload, options, executor="process"
        )
        served_thread = _serve_all(
            tmp_path / "thread", tiny_workload, options, executor="thread"
        )
        assert served_process == references
        assert served_thread == references

    def test_fault_plan_rides_into_the_worker_process(
        self, tiny_workload, tmp_path
    ):
        plan = FaultPlan(seed=2, density=0.4)
        options = [job_options(2)]
        reference = fingerprint(
            reference_result(tiny_workload, options=options[0], fault_plan=plan)
        )
        served = _serve_all(
            tmp_path / "chaos",
            tiny_workload,
            options,
            executor="process",
            fault_plan=plan,
        )
        assert served == [reference]

    def test_shared_cache_dir_is_transparent(self, tiny_workload, tmp_path):
        options = [job_options(seed) for seed in (0, 1)]
        references = [
            fingerprint(reference_result(tiny_workload, options=opts))
            for opts in options
        ]
        with make_server(
            tmp_path / "svc",
            workers=2,
            executor="process",
            cache_dir=tmp_path / "cache",
            workload_resolver={"tiny": tiny_workload},
        ) as server:
            client = JobClient(server)
            job_ids = [
                client.submit(tiny_workload, options=opts) for opts in options
            ]
            served = [
                fingerprint(server.result(job_id, timeout=300.0))
                for job_id in job_ids
            ]
        assert served == references


def _hold_until_cancelled(root, job_id, appends):
    """Module-level (hence picklable, through ``functools.partial``)
    crash probe: at the job's second append, wait -- with a bound --
    until the job's cancel marker file exists."""
    if appends != 2:
        return
    marker = ServiceRoot(root).cancel_path(job_id)
    deadline = time.monotonic() + 60.0
    while not marker.exists() and time.monotonic() < deadline:
        time.sleep(0.005)


class TestProcessCancellation:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_live_cancel_crosses_via_durable_marker(
        self, tiny_workload, tmp_path, executor
    ):
        """The job body polls the on-disk cancel marker, the only cancel
        signal under either runner.

        The crash probe holds the job at its second journal append until
        the marker exists, so the job is still in flight when ``cancel``
        lands; the server writes the marker file, and the body -- on a
        worker thread or in a worker *process* -- unwinds at its next
        journal append, leaving a resumable journal behind.
        """
        with make_server(
            tmp_path / "svc",
            executor=executor,
            workload_resolver={"tiny": tiny_workload},
            crash_probe=functools.partial(
                _hold_until_cancelled, str(tmp_path / "svc")
            ),
        ) as server:
            job_id = server.submit(
                JobSpec(
                    job_id=None,  # the server claims the next free id
                    workload=tiny_workload,
                    tenant="t",
                    options=job_options(0),
                )
            )
            deadline = time.monotonic() + 60.0
            while server.status(job_id)["state"] == "queued":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            server.cancel(job_id)
            assert server.wait_all(timeout=120.0)
            assert server.status(job_id)["state"] == "cancelled"
            journal = tmp_path / "svc" / "journals" / f"{job_id}.journal"
            assert journal.exists(), "cancel should leave a resumable journal"

    def test_pre_cancelled_spec_never_runs(self, tiny_workload, tmp_path):
        """Recovery classifies marker-without-journal as cancelled."""
        from repro.service.jobs import durable_spec

        root = ServiceRoot(tmp_path / "svc")
        root.ensure()
        spec = JobSpec(
            job_id=root.allocate_job_id(),
            workload="tiny",
            tenant="t",
            options=job_options(0),
        )
        root.write_spec(durable_spec(spec))
        root.mark_cancelled(spec.job_id)
        with make_server(
            tmp_path / "svc",
            executor="process",
            workload_resolver={"tiny": tiny_workload},
        ) as server:
            assert server.wait_all(timeout=120.0)
            assert server.status(spec.job_id)["state"] == "cancelled"


def _chaos_kill_at_five(job_id, appends):
    """Module-level (hence picklable) crash probe for process workers."""
    if appends >= 5:
        raise ServerKilledError(f"chaos kill at append {appends}")


class TestProcessCrashRestart:
    def test_thread_crash_resumes_on_process_server(
        self, tiny_workload, tmp_path, no_rerun_guard
    ):
        """Cross-executor recovery: torn by threads, finished by processes."""
        options = job_options(6)
        reference = reference_result(tiny_workload, options=options)

        def probe(job_id, appends):
            if appends >= 5:
                raise ServerKilledError("chaos")

        server = make_server(tmp_path / "svc", crash_probe=probe)
        server.start()
        job_id = JobClient(server).submit(tiny_workload, options=options)
        wait_for_workers(server)
        server.kill()

        with make_server(
            tmp_path / "svc",
            executor="process",
            workload_resolver={"tiny": tiny_workload},
        ) as restarted:
            result = restarted.result(job_id, timeout=300.0)
            assert restarted.status(job_id)["resumed"]
        assert fingerprint(result) == fingerprint(reference)

    def test_process_crash_resumes_on_process_server(
        self, tiny_workload, tmp_path, no_rerun_guard
    ):
        """The probe fires *inside* the worker process; the abandoned
        journal resumes bit-exactly on a fresh process-mode server."""
        options = job_options(6)
        reference = reference_result(tiny_workload, options=options)

        server = make_server(
            tmp_path / "svc",
            executor="process",
            crash_probe=_chaos_kill_at_five,
            workload_resolver={"tiny": tiny_workload},
        )
        server.start()
        job_id = JobClient(server).submit(tiny_workload, options=options)
        wait_for_workers(server)
        server.kill()
        assert server.status(job_id)["state"] == "running"
        lock = tmp_path / "svc" / "journals" / f"{job_id}.journal.lock"
        assert lock.exists(), "kill must abandon the lease, not release it"

        with make_server(
            tmp_path / "svc",
            executor="process",
            workload_resolver={"tiny": tiny_workload},
        ) as restarted:
            result = restarted.result(job_id, timeout=300.0)
            assert restarted.status(job_id)["resumed"]
        assert fingerprint(result) == fingerprint(reference)


class TestRegistrySpecJobs:
    """Jobs naming a registry spec string, which the pool worker resolves."""

    def test_seeds_match_reference_and_thread(self, tmp_path):
        seeds = range(4)
        workload = load_workload(SPEC)
        references = [
            fingerprint(reference_result(workload, options=job_options(seed)))
            for seed in seeds
        ]
        served = {}
        for executor in ("process", "thread"):
            with make_server(tmp_path / executor, executor=executor) as server:
                client = JobClient(server)
                job_ids = [
                    client.submit(SPEC, options=job_options(seed)) for seed in seeds
                ]
                served[executor] = [
                    fingerprint(server.result(job_id, timeout=300.0))
                    for job_id in job_ids
                ]
        assert served["process"] == references
        assert served["thread"] == references

    @staticmethod
    def plan_fetches_of_two_jobs(tmp_path, monkeypatch, executor):
        """The ``plan`` fetch keys of two successive jobs on :data:`SPEC`,
        run by a server whose process starts with an empty workload LRU
        (forked pool workers copy the server's)."""
        monkeypatch.setattr(
            server_module,
            "_worker_workloads",
            server_module._WorkloadLRU(server_module._WORKER_WORKLOAD_SLOTS),
        )
        log = tmp_path / "plan-fetches"
        log.touch()
        original = ArtifactCache.fetch

        def recording(self, kind, material):
            if kind == "plan":
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(digest_key(kind, material) + "\n")
            return original(self, kind, material)

        monkeypatch.setattr(ArtifactCache, "fetch", recording)
        with make_server(
            tmp_path / "svc", executor=executor, cache_dir=tmp_path / "cache"
        ) as server:
            client = JobClient(server)
            server.result(client.submit(SPEC, options=job_options(0)), timeout=300.0)
            first = log.read_text(encoding="utf-8").split()
            server.result(client.submit(SPEC, options=job_options(1)), timeout=300.0)
            second = log.read_text(encoding="utf-8").split()[len(first):]
        return first, second

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the recording patch reaches pool workers through fork",
    )
    def test_second_job_runs_on_the_workers_workload(self, tmp_path, monkeypatch):
        """No ``plan`` fetch repeats one the worker's first job sent:
        the plans it made are still in the workload's catalog cache."""
        first, second = self.plan_fetches_of_two_jobs(
            tmp_path, monkeypatch, "process"
        )
        assert first, "the worker's first job should fetch its plans"
        assert not set(second) & set(first)

    def test_second_thread_job_runs_on_the_servers_workload(
        self, tmp_path, monkeypatch
    ):
        """The thread runner resolves spec strings through the same LRU,
        in the server's process: its second job re-fetches no plan."""
        first, second = self.plan_fetches_of_two_jobs(
            tmp_path, monkeypatch, "thread"
        )
        assert first, "the server's first job should fetch its plans"
        assert not set(second) & set(first)

    def test_process_crash_resumes_bit_exactly(self, tmp_path, no_rerun_guard):
        options = job_options(6)
        reference = reference_result(load_workload(SPEC), options=options)
        server = make_server(
            tmp_path / "svc", executor="process", crash_probe=_chaos_kill_at_five
        )
        server.start()
        job_id = JobClient(server).submit(SPEC, options=options)
        wait_for_workers(server)
        server.kill()
        assert server.status(job_id)["state"] == "running"

        with make_server(tmp_path / "svc", executor="process") as restarted:
            result = restarted.result(job_id, timeout=300.0)
            assert restarted.status(job_id)["resumed"]
        assert fingerprint(result) == fingerprint(reference)

    def test_unknown_spec_fails_alike_under_both_executors(self, tmp_path):
        errors = {}
        for executor in ("thread", "process"):
            with make_server(tmp_path / executor, executor=executor) as server:
                job_id = JobClient(server).submit(
                    "no-such-workload", options=job_options(0)
                )
                assert server.wait_all(timeout=120.0)
                status = server.status(job_id)
            assert status["state"] == "failed"
            errors[executor] = status["error"]
        assert "unknown workload 'no-such-workload'" in errors["thread"]
        assert errors["process"] == errors["thread"]

    def test_worker_lru_evicts_the_least_recently_used_spec(self, monkeypatch):
        loads = []

        def load(spec):
            loads.append(spec)
            return object()

        monkeypatch.setattr(server_module, "load_workload", load)
        slots = server_module._WORKER_WORKLOAD_SLOTS
        lru = server_module._WorkloadLRU(slots)
        specs = [f"spec-{number}" for number in range(slots)]
        kept = [lru.get(spec) for spec in specs]
        assert lru.get(specs[0]) is kept[0]  # a hit makes it most recent
        lru.get("one-more")  # full: specs[1] is the least recently used
        assert loads == specs + ["one-more"]
        for spec, workload in zip(specs[2:], kept[2:]):
            assert lru.get(spec) is workload
        assert lru.get(specs[0]) is kept[0]
        assert lru.get(specs[1]) is not kept[1]
        assert loads == specs + ["one-more", specs[1]]


class TestValidation:
    def test_unknown_executor_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown service executor"):
            TuningServer(tmp_path / "svc", executor="fiber")
