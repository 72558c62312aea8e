"""Service-layer basics: discovery, durable specs, server API, CLI.

The restart/chaos, quota, and shared-cache guarantees have their own
suites (``test_restart.py``, ``test_quotas.py``,
``test_shared_cache.py``); this one pins the plumbing they stand on.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.db.resources import parse_budget
from repro.errors import ServiceError, UnknownJobError
from repro.faults import FaultPlan
from repro.service import JobClient, JobSpec, ServiceRoot
from repro.service.cli import main as cli_main
from repro.session.discover import (
    discover_journals,
    inspect_journal,
    read_result,
)
from repro.workloads.registry import load_workload
from tests.service.conftest import (
    fingerprint,
    job_options,
    make_server,
    reference_result,
)
from tests.session.conftest import journaled_tune


class TestDiscovery:
    def test_missing_directory_is_empty(self, tmp_path):
        assert discover_journals(tmp_path / "nope") == []

    def test_complete_journal_classified_done(self, tiny_workload, tmp_path):
        path = tmp_path / "job-0000.journal"
        result = journaled_tune(tiny_workload, path)
        info = inspect_journal(path)
        assert info.name == "job-0000"
        assert info.complete and not info.torn_tail and not info.resumable
        assert fingerprint(read_result(path)) == fingerprint(result)

    def test_incomplete_journal_is_resumable(self, tiny_workload, tmp_path):
        path = tmp_path / "job.journal"
        journaled_tune(tiny_workload, path)
        lines = path.read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.journal"
        cut.write_text("".join(lines[:5]))
        info = inspect_journal(cut)
        assert info.events == 5
        assert info.resumable and not info.complete and not info.torn_tail
        assert read_result(cut) is None

    def test_torn_tail_detected_and_still_resumable(
        self, tiny_workload, tmp_path
    ):
        path = tmp_path / "job.journal"
        journaled_tune(tiny_workload, path)
        lines = path.read_text().splitlines(keepends=True)
        torn = tmp_path / "torn.journal"
        torn.write_text("".join(lines[:5]) + lines[5][: len(lines[5]) // 2])
        info = inspect_journal(torn)
        assert info.torn_tail and info.resumable
        assert info.events == 5  # the torn line is not an event

    def test_discovery_sorts_and_classifies_a_directory(
        self, tiny_workload, tmp_path
    ):
        journaled_tune(tiny_workload, tmp_path / "b.journal")
        lines = (tmp_path / "b.journal").read_text().splitlines(keepends=True)
        (tmp_path / "a.journal").write_text("".join(lines[:4]))
        infos = discover_journals(tmp_path)
        assert [info.name for info in infos] == ["a", "b"]
        assert [info.complete for info in infos] == [False, True]


class TestServiceRoot:
    def test_spec_round_trips_exactly(self, service_root):
        root = ServiceRoot(service_root)
        spec = JobSpec(
            job_id="job-0000",
            workload="synthetic:queries=12,scale=2",
            tenant="acme",
            priority=7,
            options=job_options(3),
            fault_plan=FaultPlan(seed=5, density=0.25),
        )
        root.write_spec(spec)
        loaded = root.read_spec("job-0000")
        assert loaded == spec
        assert "realtime_factor" not in root.spec_path("job-0000").read_text()

    def test_duplicate_id_rejected(self, service_root):
        root = ServiceRoot(service_root)
        spec = JobSpec(job_id="job-0000", workload="tpch-sf1")
        root.write_spec(spec)
        with pytest.raises(ServiceError):
            root.write_spec(spec)

    def test_unknown_job_raises(self, service_root):
        root = ServiceRoot(service_root)
        with pytest.raises(UnknownJobError):
            root.read_spec("job-9999")
        with pytest.raises(UnknownJobError):
            root.mark_cancelled("job-9999")

    def test_job_ids_allocate_in_order(self, service_root):
        root = ServiceRoot(service_root)
        first = root.allocate_job_id()
        root.write_spec(JobSpec(job_id=first, workload="tpch-sf1"))
        second = root.allocate_job_id()
        assert [first, second] == ["job-0000", "job-0001"]
        root.write_spec(JobSpec(job_id=second, workload="tpch-sf1"))
        assert root.job_ids() == ["job-0000", "job-0001"]

    def test_spec_without_id_claims_the_next_free_one(self, service_root):
        root = ServiceRoot(service_root)
        written = root.write_spec(JobSpec(job_id=None, workload="tpch-sf1"))
        assert written.job_id == "job-0000"
        assert root.read_spec("job-0000") == written

    def test_allocation_retries_after_losing_a_race(
        self, service_root, monkeypatch
    ):
        # Another submitter claimed job-0000 between this writer's
        # allocation and its publish: move on, never overwrite.
        root = ServiceRoot(service_root)
        root.write_spec(JobSpec(job_id="job-0000", workload="tpch-sf1"))
        stale = iter(["job-0000"])
        allocate = root.allocate_job_id
        monkeypatch.setattr(
            root, "allocate_job_id", lambda: next(stale, None) or allocate()
        )
        written = root.write_spec(JobSpec(job_id=None, workload="tpch-sf2"))
        assert written.job_id == "job-0001"
        assert root.read_spec("job-0000").workload == "tpch-sf1"


class TestServerBasics:
    def test_submitted_job_matches_unserviced_reference(
        self, service_root, tiny_workload
    ):
        options = job_options(4)
        reference = reference_result(tiny_workload, options=options)
        with make_server(service_root) as server:
            client = JobClient(server)
            job_id = client.submit(tiny_workload, options=options)
            result = client.result(job_id, timeout=60.0)
        assert fingerprint(result) == fingerprint(reference)
        status = server.status(job_id)
        assert status["state"] == "done" and status["error"] is None

    def test_workload_object_persisted_as_named_reference(
        self, service_root, tiny_workload
    ):
        with make_server(service_root) as server:
            job_id = JobClient(server).submit(
                tiny_workload, options=job_options(1)
            )
            server.wait_all(timeout=60.0)
        assert server.root.read_spec(job_id).workload == "@tiny"

    def test_duplicate_submission_rejected(self, service_root, tiny_workload):
        with make_server(service_root) as server:
            client = JobClient(server)
            client.submit(tiny_workload, options=job_options(1), job_id="j")
            with pytest.raises(ServiceError):
                client.submit(tiny_workload, options=job_options(1), job_id="j")
            server.wait_all(timeout=60.0)

    def test_unresolvable_workload_fails_cleanly(self, service_root):
        with make_server(service_root) as server:
            client = JobClient(server)
            job_id = client.submit("@ghost", options=job_options(1))
            server.wait_all(timeout=60.0)
            assert server.status(job_id)["state"] == "failed"
            with pytest.raises(ServiceError, match="failed"):
                client.result(job_id)
        # The failure left no lock behind; the journal slot is clean.
        assert not server.root.journal_path(job_id).exists()

    def test_worker_survives_job_failure(self, service_root, tiny_workload):
        # A failed job must not take its worker thread down with it.
        options = job_options(2)
        reference = reference_result(tiny_workload, options=options)
        with make_server(service_root) as server:
            client = JobClient(server)
            client.submit("@ghost", options=job_options(1))
            ok = client.submit(tiny_workload, options=options)
            result = client.result(ok, timeout=60.0)
        assert fingerprint(result) == fingerprint(reference)

    def test_unknown_job_everywhere(self, service_root):
        with make_server(service_root) as server:
            for call in (server.status, server.result, server.cancel):
                with pytest.raises(UnknownJobError):
                    call("job-9999")

    def test_submissions_refused_when_not_running(
        self, service_root, tiny_workload
    ):
        server = make_server(service_root)
        spec = JobSpec(job_id="job-0000", workload=tiny_workload)
        with pytest.raises(ServiceError):
            server.submit(spec)  # never started
        server.start()
        server.stop()
        with pytest.raises(ServiceError):
            server.submit(spec)  # already stopped

    def test_jobs_listing_filters_by_tenant(self, service_root, tiny_workload):
        with make_server(service_root) as server:
            client = JobClient(server)
            client.submit(tiny_workload, tenant="a", options=job_options(1))
            client.submit(tiny_workload, tenant="b", options=job_options(2))
            server.wait_all(timeout=60.0)
            assert len(client.jobs()) == 2
            (only,) = client.jobs(tenant="b")
            assert only["tenant"] == "b"


def run_concurrently(count, action):
    """Call ``action(i)`` for i in range(count) on barrier-released
    threads, switching threads as often as the interpreter allows;
    returns (results by i, exceptions raised)."""
    barrier = threading.Barrier(count)
    results, errors = {}, []

    def body(i):
        barrier.wait(timeout=30.0)
        try:
            results[i] = action(i)
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results, errors


class TestConcurrentSubmit:
    WORKLOAD = "synthetic:queries=8,scale=2"

    def test_submits_without_ids_get_distinct_ids(self, service_root):
        with make_server(service_root, workers=2) as server:
            client = JobClient(server)
            ids, errors = run_concurrently(
                8,
                lambda seed: client.submit(
                    self.WORKLOAD, options=job_options(seed)
                ),
            )
            assert not errors
            assert len(set(ids.values())) == 8
            results = {
                seed: client.result(job_id, timeout=120.0)
                for seed, job_id in ids.items()
            }
        workload = load_workload(self.WORKLOAD)
        for seed, result in results.items():
            reference = reference_result(workload, options=job_options(seed))
            assert fingerprint(result) == fingerprint(reference)

    def test_explicit_duplicate_id_still_rejected(self, service_root):
        with make_server(service_root, workers=2) as server:
            client = JobClient(server)
            ids, errors = run_concurrently(
                4,
                lambda seed: client.submit(
                    self.WORKLOAD, options=job_options(seed), job_id="same"
                ),
            )
            assert list(ids.values()) == ["same"]
            assert len(errors) == 3
            assert all(isinstance(error, ServiceError) for error in errors)
            server.wait_all(timeout=120.0)


class TestBudgetJobs:
    """Budget-constrained tuning through the whole service stack."""

    def test_budget_job_matches_unserviced_reference(
        self, service_root, tiny_workload
    ):
        options = job_options(budget=parse_budget("ram=32GB"))
        reference = reference_result(tiny_workload, options=options)
        assert reference.extras["failed_configs"], (
            "budget quarantined nothing; scenario is vacuous"
        )
        with make_server(service_root) as server:
            client = JobClient(server)
            job_id = client.submit(tiny_workload, options=options)
            result = client.result(job_id, timeout=60.0)
        assert fingerprint(result) == fingerprint(reference)
        assert result.extras["feasible"] is True
        assert all(
            "infeasible under budget" in m.failure
            for m in result.extras["meta"].values()
            if m.failed
        )

    def test_columnar_budget_job(self, service_root, tiny_workload):
        options = job_options(
            3, budget=parse_budget("ram=60GB,disk=200GB")
        )
        reference = reference_result(
            tiny_workload, options=options, system="columnar"
        )
        with make_server(service_root) as server:
            client = JobClient(server)
            job_id = client.submit(
                tiny_workload, options=options, system="columnar"
            )
            result = client.result(job_id, timeout=60.0)
        assert fingerprint(result) == fingerprint(reference)
        assert result.system == "columnar"


class TestCLI:
    WORKLOAD = "synthetic:queries=8,scale=2"

    def submit(self, root, *extra):
        return cli_main(
            ["--root", str(root), "submit", "--workload", self.WORKLOAD,
             "--token-budget", "400", "--timeout", "0.5", "--alpha", "2.0",
             "--num-configs", "3", *extra]
        )

    def test_full_offline_lifecycle(self, service_root, capsys):
        assert self.submit(service_root, "--tenant", "acme") == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id == "job-0000"

        assert cli_main(["--root", str(service_root), "list"]) == 0
        assert "queued" in capsys.readouterr().out

        # No result before any server ran.
        assert cli_main(["--root", str(service_root), "result", job_id]) == 1
        capsys.readouterr()

        assert cli_main(
            ["--root", str(service_root), "run", "--workers", "1"]
        ) == 0
        assert "done" in capsys.readouterr().out

        assert cli_main(["--root", str(service_root), "status", job_id]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "done" and status["tenant"] == "acme"

        assert cli_main(["--root", str(service_root), "result", job_id]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["job_id"] == job_id
        assert float(result["best_time"]) > 0

    def test_offline_cancel_honoured_by_next_run(self, service_root, capsys):
        self.submit(service_root)
        job_id = capsys.readouterr().out.strip()
        assert cli_main(["--root", str(service_root), "cancel", job_id]) == 0
        capsys.readouterr()
        assert cli_main(
            ["--root", str(service_root), "run", "--workers", "1"]
        ) == 0
        assert "cancelled" in capsys.readouterr().out

    def test_unknown_job_exits_2(self, service_root, capsys):
        (service_root / "jobs").mkdir(parents=True)
        assert cli_main(
            ["--root", str(service_root), "status", "job-9999"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_budget_and_engine_flags(self, service_root, capsys):
        assert self.submit(
            service_root,
            "--engine", "columnar",
            "--budget", "ram=60GB,disk=200GB",
        ) == 0
        job_id = capsys.readouterr().out.strip()

        assert cli_main(["--root", str(service_root), "status", job_id]) == 0
        assert json.loads(capsys.readouterr().out)["system"] == "columnar"

        assert cli_main(
            ["--root", str(service_root), "run", "--workers", "1"]
        ) == 0
        capsys.readouterr()
        assert cli_main(["--root", str(service_root), "result", job_id]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["system"] == "columnar"
        assert result["budget"] == "ram=60GB,disk=200GB"
        assert result["feasible"] is True
        assert result["cheapest_tier"]

    def test_unknown_engine_rejected_at_submit(self, service_root, capsys):
        assert self.submit(service_root, "--engine", "oracle") == 2
        assert "unknown system 'oracle'" in capsys.readouterr().err

    def test_malformed_budget_rejected_at_submit(self, service_root, capsys):
        assert self.submit(service_root, "--budget", "cpu=4") == 2
        assert "error:" in capsys.readouterr().err

    def test_run_reports_resumed_jobs(self, service_root, capsys):
        # Interrupt a run by truncating its journal, then re-run.
        self.submit(service_root)
        job_id = capsys.readouterr().out.strip()
        assert cli_main(
            ["--root", str(service_root), "run", "--workers", "1"]
        ) == 0
        capsys.readouterr()
        journal = service_root / "journals" / f"{job_id}.journal"
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[: len(lines) // 2]))
        assert cli_main(
            ["--root", str(service_root), "run", "--workers", "1"]
        ) == 0
        assert "[resumed]" in capsys.readouterr().out
