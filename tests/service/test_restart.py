"""Crash-restart chaos suite: kill the server anywhere, lose nothing.

The acceptance bar (ISSUE 8): for ≥8 seeds, a server killed at *any*
injected checkpoint -- every journal durability boundary, which
includes mid-round ``update_folded`` events -- and restarted over the
same root must

- finish every job with a result byte-identical to an uninterrupted
  run (fingerprints compare floats via ``repr``), and
- never re-execute a query its journal already recorded as completed
  (``no_rerun_guard`` enforces this for whole sweeps).

Checkpoints are injected two ways: *offline* truncation of the journal
to every prefix (the same technique the session suite proved out, here
driven through full server recovery), and *live* kills raised from the
server's ``crash_probe`` at a chosen append ordinal, leaving abandoned
lease files behind exactly as ``kill -9`` would.

Also here: journal-directory hygiene (torn tails resumed, zero-event
husks restarted fresh) and the double-resume protections
(:class:`~repro.session.JournalLease`).
"""

from __future__ import annotations

import json
import shutil
import time

import pytest

from repro.errors import JournalLockedError, ServerKilledError, SessionError
from repro.faults import FaultPlan
from repro.service import JobClient
from repro.session import JournalLease
from repro.session.discover import register_owner, retire_owner
from tests.service.conftest import (
    fingerprint,
    job_options,
    make_server,
    reference_result,
)

SEEDS = list(range(8))


def served_once(root, workload, options, *, fault_plan=None, workers=1):
    """One uninterrupted run through a server; (job_id, result)."""
    with make_server(
        root, workers=workers, workload_resolver={workload.name: workload}
    ) as server:
        job_id = JobClient(server).submit(
            workload, options=options, fault_plan=fault_plan
        )
        result = server.result(job_id, timeout=120.0)
    return job_id, result


def crash_root(base, full_root, job_id, journal_text, tag):
    """A service root left behind by a crash: spec + partial journal."""
    root = base / f"crash-{tag}"
    (root / "jobs").mkdir(parents=True)
    (root / "journals").mkdir(parents=True)
    shutil.copy(
        full_root / "jobs" / f"{job_id}.job", root / "jobs" / f"{job_id}.job"
    )
    (root / "journals" / f"{job_id}.journal").write_text(journal_text)
    return root


def recover(root, workload, job_id, *, expect_resumed=True):
    """Restart a server over ``root``; return the job's result."""
    with make_server(
        root, workload_resolver={workload.name: workload}
    ) as server:
        result = server.result(job_id, timeout=120.0)
        status = server.status(job_id)
    assert status["resumed"] == expect_resumed, (
        "recovery misclassified the journal"
    )
    return result


def restart_sweep(tmp_path, workload, *, seed, plan=None):
    """Crash the service at every journal boundary; recover; compare."""
    options = job_options(seed)
    reference = reference_result(workload, options=options, fault_plan=plan)

    full_root = tmp_path / "full"
    job_id, served = served_once(full_root, workload, options, fault_plan=plan)
    assert fingerprint(served) == fingerprint(reference), (
        f"service layer changed the result (seed={seed})"
    )

    journal = full_root / "journals" / f"{job_id}.journal"
    lines = journal.read_text().splitlines(keepends=True)
    assert len(lines) >= 8, "journal suspiciously short for a full tune"
    kinds = [json.loads(line)["kind"] for line in lines]
    for boundary in range(1, len(lines) + 1):
        root = crash_root(
            tmp_path, full_root, job_id, "".join(lines[:boundary]), boundary
        )
        # The final boundary is the intact journal: recovery must hand
        # back the recorded result without re-driving the job.
        resumed = recover(
            root, workload, job_id, expect_resumed=boundary < len(lines)
        )
        assert fingerprint(resumed) == fingerprint(reference), (
            f"restart diverged at boundary {boundary}/{len(lines)} "
            f"(after {kinds[boundary - 1]!r}; seed={seed}, plan={plan!r})"
        )


class TestRestartSweep:
    """Offline crash at every boundary, every seed -- the acceptance bar."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_restart_at_every_boundary(
        self, tiny_workload, tmp_path, seed, no_rerun_guard
    ):
        restart_sweep(tmp_path, tiny_workload, seed=seed)


class TestChaosRestartSweep:
    """The same sweep with a PR-3 fault plan riding in the job spec."""

    @pytest.mark.parametrize("seed,density", [(0, 0.15), (2, 0.4)])
    def test_restart_under_faults(
        self, tiny_workload, tmp_path, seed, density, no_rerun_guard
    ):
        plan = FaultPlan(seed=seed, density=density)
        restart_sweep(tmp_path, tiny_workload, seed=seed, plan=plan)

    def test_fault_plan_rides_the_spec(self, tiny_workload, tmp_path):
        # The plan reaches a recovered job from the journal header, via
        # a spec file round-trip -- no in-memory state involved.
        plan = FaultPlan(seed=2, density=0.4)
        options = job_options(2)
        reference = reference_result(
            tiny_workload, options=options, fault_plan=plan
        )
        assert (
            reference.extras["failed_configs"]
            or reference.extras["dropped_samples"]
        ), "plan injected no faults; chaos sweep is vacuous"
        full_root = tmp_path / "full"
        job_id, _ = served_once(
            full_root, tiny_workload, options, fault_plan=plan
        )
        journal = full_root / "journals" / f"{job_id}.journal"
        lines = journal.read_text().splitlines(keepends=True)
        root = crash_root(
            tmp_path, full_root, job_id, "".join(lines[: len(lines) // 2]), "f"
        )
        resumed = recover(root, tiny_workload, job_id)
        assert fingerprint(resumed) == fingerprint(reference)


def with_fields(text, extra):
    """``text`` (newline-terminated JSON lines) with ``extra[kind]``
    merged into every codec-encoded object of that kind."""

    def visit(node):
        if isinstance(node, dict):
            for value in node.values():
                visit(value)
            node.update(extra.get(node.get("__k__"), {}))
        elif isinstance(node, list):
            for item in node:
                visit(item)

    out = []
    for line in text.splitlines():
        data = json.loads(line)
        visit(data)
        out.append(json.dumps(data, separators=(",", ":")) + "\n")
    return "".join(out)


class TestRetiredFields:
    """Specs and journals from builds that still had a candidate
    executor carry ``workers``/``executor`` in every encoded
    ``LambdaTuneOptions`` and ``stats`` in every ``SelectionState``;
    specs from builds with simulated waits carry ``realtime_factor``."""

    RETIRED = {
        "LambdaTuneOptions": {"workers": 4, "executor": "thread"},
        "SelectionState": {
            "stats": {"folded": 3, "recomputed": 1, "skipped": 0, "inline": 1}
        },
    }

    #: Retired top-level keys of a spec file.
    RETIRED_SPEC = {"realtime_factor": 0.125}

    def old_format_root(self, tmp_path, workload, extra):
        """A crash root whose spec and torn journal carry ``extra``, and
        whose spec also carries the top-level :attr:`RETIRED_SPEC` keys."""
        full_root = tmp_path / "full"
        job_id, _ = served_once(full_root, workload, job_options(3))
        journal = full_root / "journals" / f"{job_id}.journal"
        lines = journal.read_text().splitlines(keepends=True)
        kinds = [json.loads(line)["kind"] for line in lines]
        cut = kinds.index("checkpoint") + 2
        torn = with_fields("".join(lines[:cut]), extra)
        root = crash_root(
            tmp_path, full_root, job_id, torn + lines[cut][:40], "old"
        )
        spec = root / "jobs" / f"{job_id}.job"
        payload = json.loads(with_fields(spec.read_text(), extra))
        payload.update(self.RETIRED_SPEC)
        spec.write_text(json.dumps(payload, separators=(",", ":")))
        return root, job_id

    def test_server_resumes_old_spec_and_journal(
        self, tiny_workload, tmp_path, no_rerun_guard
    ):
        reference = reference_result(tiny_workload, options=job_options(3))
        root, job_id = self.old_format_root(tmp_path, tiny_workload, self.RETIRED)
        journal = (root / "journals" / f"{job_id}.journal").read_text()
        assert '"stats"' in journal and '"executor"' in journal
        spec = json.loads((root / "jobs" / f"{job_id}.job").read_text())
        assert spec["realtime_factor"] == 0.125
        resumed = recover(root, tiny_workload, job_id)
        assert fingerprint(resumed) == fingerprint(reference)

    def test_resume_keeps_the_intact_lines_byte_for_byte(
        self, tiny_workload, tmp_path, no_rerun_guard
    ):
        """Resume cuts only the torn tail: the intact lines, retired
        fields and all, are not re-encoded."""
        root, job_id = self.old_format_root(tmp_path, tiny_workload, self.RETIRED)
        journal = root / "journals" / f"{job_id}.journal"
        intact = journal.read_text().splitlines(keepends=True)[:-1]
        assert all(line.endswith("\n") for line in intact)
        recover(root, tiny_workload, job_id)
        resumed = journal.read_text().splitlines(keepends=True)
        assert resumed[: len(intact)] == intact

    def test_unknown_header_field_raises_session_error(
        self, tiny_workload, tmp_path
    ):
        extra = {"LambdaTuneOptions": {"verbosity": 2}}
        root, job_id = self.old_format_root(tmp_path, tiny_workload, extra)
        (root / "jobs" / f"{job_id}.job").unlink()  # leave only the journal
        server = make_server(
            root, workload_resolver={tiny_workload.name: tiny_workload}
        )
        with pytest.raises(SessionError, match="verbosity"):
            server.start()
        server.stop()


def wait_for_workers(server, timeout=30.0):
    deadline = time.monotonic() + timeout
    while any(thread.is_alive() for thread in server._threads):
        assert time.monotonic() < deadline, "worker did not die"
        time.sleep(0.005)


class TestLiveKill:
    """In-flight ``kill -9`` via the crash probe, then restart."""

    @pytest.mark.parametrize("kill_at", [1, 3, 7, 15])
    def test_kill_midflight_then_recover(
        self, service_root, tiny_workload, kill_at, no_rerun_guard
    ):
        options = job_options(6)
        reference = reference_result(tiny_workload, options=options)

        def probe(job_id, appends):
            if appends >= kill_at:
                raise ServerKilledError(f"chaos kill at append {appends}")

        server = make_server(service_root, crash_probe=probe)
        server.start()
        job_id = JobClient(server).submit(tiny_workload, options=options)
        wait_for_workers(server)  # the probe killed the worker
        server.kill()
        assert server.killed
        # kill -9 semantics: the dead server still believes the job is
        # running, and its lease file is abandoned on disk.
        assert server.status(job_id)["state"] == "running"
        lock = service_root / "journals" / f"{job_id}.journal.lock"
        assert lock.exists(), "kill must abandon the lease, not release it"

        # kill_at=1 dies before the first append: zero durable events,
        # so recovery restarts the job fresh rather than resuming it.
        result = recover(
            service_root, tiny_workload, job_id, expect_resumed=kill_at > 1
        )
        assert fingerprint(result) == fingerprint(reference)
        assert not lock.exists(), "recovery should break the stale lease"

    def test_finished_jobs_survive_a_kill_untouched(
        self, service_root, tiny_workload
    ):
        # Jobs 1+2 complete; job 3 dies mid-flight.  After restart, the
        # finished journals must be byte-untouched (recovered as done,
        # not re-driven) and the third resumed to the right answer.
        options = [job_options(seed) for seed in (0, 1, 2)]
        references = [
            reference_result(tiny_workload, options=opts) for opts in options
        ]
        victim = {}

        def probe(job_id, appends):
            if job_id == victim.get("id") and appends >= 5:
                raise ServerKilledError("chaos")

        server = make_server(service_root, crash_probe=probe)
        server.start()
        client = JobClient(server)
        first = client.submit(tiny_workload, options=options[0])
        second = client.submit(tiny_workload, options=options[1])
        client.result(first, timeout=120.0)
        client.result(second, timeout=120.0)
        victim["id"] = client.submit(tiny_workload, options=options[2])
        wait_for_workers(server)
        server.kill()

        journals = service_root / "journals"
        before = {
            job_id: (journals / f"{job_id}.journal").read_bytes()
            for job_id in (first, second)
        }
        with make_server(
            service_root, workload_resolver={"tiny": tiny_workload}
        ) as restarted:
            results = [
                restarted.result(job_id, timeout=120.0)
                for job_id in (first, second, victim["id"])
            ]
            assert not restarted.status(first)["resumed"]
            assert restarted.status(victim["id"])["resumed"]
        for job_id, expected in zip((first, second), before.items()):
            assert (journals / f"{job_id}.journal").read_bytes() == expected[1]
        for result, reference in zip(results, references):
            assert fingerprint(result) == fingerprint(reference)


class TestJournalHygiene:
    def test_torn_tail_resumed_not_skipped(
        self, tmp_path, tiny_workload, no_rerun_guard
    ):
        options = job_options(4)
        reference = reference_result(tiny_workload, options=options)
        full_root = tmp_path / "full"
        job_id, _ = served_once(full_root, tiny_workload, options)
        lines = (
            (full_root / "journals" / f"{job_id}.journal")
            .read_text()
            .splitlines(keepends=True)
        )
        torn = "".join(lines[:9]) + lines[9][: len(lines[9]) // 2]
        root = crash_root(tmp_path, full_root, job_id, torn, "torn")
        resumed = recover(root, tiny_workload, job_id)
        assert fingerprint(resumed) == fingerprint(reference)

    def test_zero_event_husk_restarted_fresh(self, tmp_path, tiny_workload):
        # A journal holding only a torn partial line has no intact
        # header: recovery must discard it and run from scratch, not
        # fail or append garbage after garbage.
        options = job_options(5)
        reference = reference_result(tiny_workload, options=options)
        full_root = tmp_path / "full"
        job_id, _ = served_once(full_root, tiny_workload, options)
        first = (
            (full_root / "journals" / f"{job_id}.journal")
            .read_text()
            .splitlines(keepends=True)[0]
        )
        root = crash_root(
            tmp_path, full_root, job_id, first[: len(first) // 2], "husk"
        )
        with make_server(
            root, workload_resolver={"tiny": tiny_workload}
        ) as server:
            result = server.result(job_id, timeout=120.0)
            assert not server.status(job_id)["resumed"]
        assert fingerprint(result) == fingerprint(reference)


class TestDoubleResumeProtection:
    def test_lease_is_exclusive_in_process(self, tmp_path):
        register_owner("srv-a")
        register_owner("srv-b")
        try:
            journal = tmp_path / "j.journal"
            lease = JournalLease.acquire(journal, owner_token="srv-a")
            # A second worker -- same or different server object -- must
            # not adopt the journal while the lease is held.
            with pytest.raises(JournalLockedError):
                JournalLease.acquire(journal, owner_token="srv-a")
            with pytest.raises(JournalLockedError):
                JournalLease.acquire(journal, owner_token="srv-b")
            lease.release()
            JournalLease.acquire(journal, owner_token="srv-b").release()
        finally:
            retire_owner("srv-a")
            retire_owner("srv-b")

    def test_abandoned_lease_breakable_only_after_owner_dies(self, tmp_path):
        register_owner("srv-dead")
        journal = tmp_path / "j.journal"
        lease = JournalLease.acquire(journal, owner_token="srv-dead")
        lease.abandon()  # kill -9: file survives, in-process hold dropped
        assert (tmp_path / "j.journal.lock").exists()
        # Owner still registered as live: the lock is NOT stale.
        with pytest.raises(JournalLockedError):
            JournalLease.acquire(journal, owner_token="srv-new")
        retire_owner("srv-dead")  # the process dies
        register_owner("srv-new")
        try:
            taken = JournalLease.acquire(journal, owner_token="srv-new")
            taken.release()
        finally:
            retire_owner("srv-new")

    def test_unreadable_lock_is_stale(self, tmp_path):
        journal = tmp_path / "j.journal"
        (tmp_path / "j.journal.lock").write_text("{torn garba")
        register_owner("srv")
        try:
            JournalLease.acquire(journal, owner_token="srv").release()
        finally:
            retire_owner("srv")

    def test_server_refuses_journal_leased_elsewhere(
        self, tmp_path, tiny_workload
    ):
        # Root holds an incomplete job whose journal a *live* foreign
        # owner has leased: the server must fail the job, not resume it
        # behind the other owner's back.  Once the owner dies, a fresh
        # server resumes it normally.
        options = job_options(7)
        reference = reference_result(tiny_workload, options=options)
        full_root = tmp_path / "full"
        job_id, _ = served_once(full_root, tiny_workload, options)
        lines = (
            (full_root / "journals" / f"{job_id}.journal")
            .read_text()
            .splitlines(keepends=True)
        )
        root = crash_root(
            tmp_path, full_root, job_id, "".join(lines[:8]), "leased"
        )
        register_owner("foreign")
        foreign = JournalLease.acquire(
            root / "journals" / f"{job_id}.journal", owner_token="foreign"
        )
        try:
            with make_server(
                root, workload_resolver={"tiny": tiny_workload}
            ) as server:
                server.wait_all(timeout=120.0)
                status = server.status(job_id)
            assert status["state"] == "failed"
            assert "leased" in status["error"]
        finally:
            foreign.abandon()
            retire_owner("foreign")
        result = recover(root, tiny_workload, job_id)
        assert fingerprint(result) == fingerprint(reference)
