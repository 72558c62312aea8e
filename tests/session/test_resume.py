"""Kill-at-every-journal-boundary resume sweeps (the PR's acceptance bar).

For ≥8 seeds, a journaled tune is truncated after *every* event line --
simulating a crash at each durability boundary -- and resumed on a
fresh engine.  Every resumed run must

- reproduce the uninterrupted run's result byte-for-byte (floats via
  ``repr``, trace, meta, workload name, tuning clock), and
- never re-execute a query the journal already recorded as completed
  (enforced by ``no_rerun_guard`` for the whole sweep).

A chaos variant repeats the sweep with a PR-3 ``FaultPlan`` installed
engine- and LLM-side: resume must reinstall the journaled plan and
still converge to the identical fingerprint.
"""

import json

import pytest

from repro.db.columnar import ColumnarEngine
from repro.db.resources import parse_budget
from repro.faults import FaultPlan
from repro.session import TuningJournal
from tests.session.conftest import (
    fingerprint,
    journaled_tune,
    plain_tune,
    resume_tune,
)

#: ≥8 distinct LLM seeds.
RESUME_SEEDS = list(range(8))


def boundary_sweep(
    workload, tmp_path, *, seed, plan=None, engine_cls=None, budget=None
):
    """Truncate after every journal line; resume; compare fingerprints."""
    kwargs = dict(seed=seed, plan=plan)
    if engine_cls is not None:
        kwargs["engine_cls"] = engine_cls
    if budget is not None:
        kwargs["budget"] = budget
    reference = plain_tune(workload, **kwargs)

    path = tmp_path / "run.journal"
    journaled = journaled_tune(workload, path, **kwargs)
    assert fingerprint(journaled) == fingerprint(reference), (
        f"journaling changed the result (seed={seed})"
    )

    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) >= 8, "journal suspiciously short for a full tune"
    kinds = [json.loads(line)["kind"] for line in lines]
    for boundary in range(1, len(lines) + 1):
        trunc = tmp_path / "crash.journal"
        trunc.write_text("".join(lines[:boundary]))
        resume_kwargs = {"plan": plan}
        if engine_cls is not None:
            resume_kwargs["engine_cls"] = engine_cls
        resumed = resume_tune(workload, trunc, **resume_kwargs)
        assert fingerprint(resumed) == fingerprint(reference), (
            f"resume diverged at boundary {boundary}/{len(lines)} "
            f"(after {kinds[boundary - 1]!r}; seed={seed}, plan={plan!r})"
        )


class TestBoundarySweep:
    @pytest.mark.parametrize("seed", RESUME_SEEDS)
    def test_resume_is_byte_identical_at_every_boundary(
        self, tiny_workload, tmp_path, seed, no_rerun_guard
    ):
        boundary_sweep(tiny_workload, tmp_path, seed=seed)

    def test_resume_after_torn_tail(self, tiny_workload, tmp_path):
        # A crash mid-write leaves a torn final line; resume must drop
        # it and continue from the last intact event.
        reference = plain_tune(tiny_workload)
        path = tmp_path / "run.journal"
        journaled_tune(tiny_workload, path)
        lines = path.read_text().splitlines(keepends=True)
        trunc = tmp_path / "crash.journal"
        trunc.write_text("".join(lines[:10]) + lines[10][: len(lines[10]) // 2])
        resumed = resume_tune(tiny_workload, trunc)
        assert fingerprint(resumed) == fingerprint(reference)


class TestChaosBoundarySweep:
    """The sweep under PR-3 fault injection."""

    @pytest.mark.parametrize("seed,density", [(0, 0.05), (1, 0.15), (5, 0.4)])
    def test_resume_under_faults(
        self, tiny_workload, tmp_path, seed, density, no_rerun_guard
    ):
        plan = FaultPlan(seed=seed, density=density)
        boundary_sweep(tiny_workload, tmp_path, seed=seed, plan=plan)

    def test_fault_plan_reinstalled_on_resume(self, tiny_workload, tmp_path):
        # resume_tune builds the engine WITHOUT the plan; equality with
        # the faulted reference proves resume reinstalled it from the
        # journal header.
        plan = FaultPlan(seed=2, density=0.4)
        reference = plain_tune(tiny_workload, plan=plan)
        path = tmp_path / "run.journal"
        journaled_tune(tiny_workload, path, plan=plan)
        lines = path.read_text().splitlines(keepends=True)
        trunc = tmp_path / "crash.journal"
        trunc.write_text("".join(lines[: len(lines) // 2]))
        resumed = resume_tune(tiny_workload, trunc, plan=plan)
        assert fingerprint(resumed) == fingerprint(reference)
        assert reference.extras["failed_configs"] or reference.extras[
            "dropped_samples"
        ], "plan injected no faults; chaos sweep is vacuous"


class TestBudgetBoundarySweep:
    """The sweep with the resource-budget objective active.

    ``resume_tune`` never sees the budget -- resume must recover it
    from the journaled options, or the resumed run would admit the
    quarantined configs and diverge.
    """

    def test_resume_preserves_quarantine(
        self, tiny_workload, tmp_path, no_rerun_guard
    ):
        budget = parse_budget("ram=32GB")
        boundary_sweep(tiny_workload, tmp_path, seed=9, budget=budget)
        # The scenario must actually exercise the gate.
        reference = plain_tune(tiny_workload, seed=9, budget=budget)
        assert reference.extras["failed_configs"], (
            "budget quarantined nothing; sweep is vacuous"
        )
        assert all(
            "infeasible under budget" in m.failure
            for m in reference.extras["meta"].values()
            if m.failed
        )

    def test_resume_preserves_fallback_under_budget(
        self, tiny_workload, tmp_path
    ):
        # Every LLM sample is infeasible: the run must fall back to the
        # default config, on resume exactly as uninterrupted.
        budget = parse_budget("ram=16GB")
        boundary_sweep(tiny_workload, tmp_path, seed=9, budget=budget)
        reference = plain_tune(tiny_workload, budget=budget)
        assert reference.extras["fallback"] is True


class TestColumnarBoundarySweep:
    """The sweep on the third backend, with and without chaos."""

    def test_resume_is_byte_identical(
        self, tiny_workload, tmp_path, no_rerun_guard
    ):
        boundary_sweep(
            tiny_workload, tmp_path, seed=0, engine_cls=ColumnarEngine
        )

    def test_resume_under_faults_and_budget(
        self, tiny_workload, tmp_path, no_rerun_guard
    ):
        boundary_sweep(
            tiny_workload,
            tmp_path,
            seed=2,
            plan=FaultPlan(seed=2, density=0.15),
            engine_cls=ColumnarEngine,
            budget=parse_budget("ram=60GB,disk=200GB"),
        )


class TestNoReexecution:
    def test_completed_queries_never_rerun_on_resume(
        self, tiny_workload, tmp_path, monkeypatch
    ):
        """Strict form: resumed evaluations may only see pending queries."""
        from repro.core.evaluator import ConfigurationEvaluator

        path = tmp_path / "run.journal"
        journaled_tune(tiny_workload, path)
        lines = path.read_text().splitlines(keepends=True)

        executed: list[tuple[str, str]] = []
        original = ConfigurationEvaluator.evaluate

        def spying(self, config, queries, timeout, meta):
            overlap = {q.name for q in queries} & meta.completed_queries
            assert not overlap, f"re-ran {sorted(overlap)} for {config.name}"
            executed.extend((config.name, q.name) for q in queries)
            return original(self, config, queries, timeout, meta)

        monkeypatch.setattr(ConfigurationEvaluator, "evaluate", spying)

        # Resume from the last checkpoint: the replayed prefix holds
        # completed work that must not be touched again.
        checkpoint_at = max(
            i
            for i, line in enumerate(lines)
            if json.loads(line)["kind"] == "checkpoint"
        )
        trunc = tmp_path / "crash.journal"
        trunc.write_text("".join(lines[: checkpoint_at + 1]))
        resume_tune(tiny_workload, trunc)
        assert executed, "resume did no work at all -- sweep is vacuous"
