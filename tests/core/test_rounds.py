"""Unit tests for the shared Algorithm-2 round-driver state machine."""

import math

import pytest

from repro.core.config import Configuration
from repro.core.evaluator import ConfigMeta, ConfigurationEvaluator
from repro.core.rounds import (
    PHASE_FINAL,
    PHASE_ROUNDS,
    RoundCursor,
    RoundDriver,
    SelectionState,
    TuningObserver,
)
from repro.errors import BudgetExceededError


def configs(*names):
    return [Configuration(name=name) for name in names]


class TestSelectionState:
    def test_initial(self):
        state = SelectionState.initial(configs("a", "b"), 10.0)
        assert state.timeout == 10.0
        assert state.rounds == 0
        assert set(state.meta) == {"a", "b"}
        assert math.isinf(state.best.time)
        assert not state.finished_first
        assert state.candidates is None

    def test_begin_round_counts_and_enforces_budget(self):
        state = SelectionState.initial(configs("a"), 1.0)
        state.begin_round(max_rounds=2)
        state.begin_round(max_rounds=2)
        assert state.rounds == 2
        with pytest.raises(BudgetExceededError, match="2 rounds"):
            state.begin_round(max_rounds=2)

    def test_fold_update_improves_only_on_faster_completion(self):
        [config] = configs("a")
        state = SelectionState.initial([config], 1.0)
        incomplete = ConfigMeta(time=0.5, is_complete=False)
        assert state.fold_update(config, incomplete, clock_now=1.0) is False
        assert state.trace == []

        complete = ConfigMeta(time=2.0, is_complete=True)
        assert state.fold_update(config, complete, clock_now=3.0) is True
        assert state.best.time == 2.0
        assert state.best.config is config
        assert state.trace == [(3.0, 2.0)]

        slower = ConfigMeta(time=5.0, is_complete=True)
        assert state.fold_update(config, slower, clock_now=4.0) is False
        assert state.trace == [(3.0, 2.0)]

    def test_advance_timeout_geometric(self):
        state = SelectionState.initial(configs("a"), 2.0)
        state.advance_timeout(alpha=10.0, adaptive=False)
        assert state.timeout == 20.0

    def test_advance_timeout_adaptive_folds_index_overheads(self):
        state = SelectionState.initial(configs("a", "b"), 2.0)
        state.meta["a"].index_time = 7.0
        state.meta["b"].index_time = 3.0
        state.advance_timeout(alpha=10.0, adaptive=True)
        # max(2.0, 7.0, 3.0) * 10 -- exact float semantics.
        assert state.timeout == 70.0

    def test_enter_final_pass_excludes_winner(self):
        pool = configs("a", "b", "c")
        state = SelectionState.initial(pool, 1.0)
        state.enter_final_pass(pool, winner=pool[1])
        assert state.candidates == ["a", "c"]

    def test_result_shares_state_objects(self):
        state = SelectionState.initial(configs("a"), 1.0)
        result = state.result()
        assert result.meta is state.meta
        assert result.best is state.best
        assert result.trace is state.trace


class TestRoundCursor:
    def test_remaining_respects_position(self):
        pool = configs("a", "b", "c")
        by_name = {c.name: c for c in pool}
        cursor = RoundCursor(phase=PHASE_ROUNDS, order=["c", "a", "b"], position=1)
        assert [c.name for c in cursor.remaining(by_name)] == ["a", "b"]


class TestDriverValidation:
    def make_driver(self, pg_engine, **kwargs):
        evaluator = ConfigurationEvaluator(pg_engine)
        return RoundDriver(pg_engine, evaluator, **kwargs)

    def test_rejects_nonpositive_timeout(self, pg_engine):
        with pytest.raises(BudgetExceededError, match="timeout"):
            self.make_driver(pg_engine, initial_timeout=0.0)

    def test_rejects_alpha_at_most_one(self, pg_engine):
        with pytest.raises(BudgetExceededError, match="alpha"):
            self.make_driver(pg_engine, alpha=1.0)

    def test_rejects_empty_candidate_pool(self, pg_engine, tiny_workload):
        driver = self.make_driver(pg_engine)
        with pytest.raises(BudgetExceededError, match="no candidate"):
            driver.run(list(tiny_workload.queries), [])


class RecordingObserver(TuningObserver):
    def __init__(self):
        self.events: list[tuple] = []

    def round_started(self, state, phase, order):
        self.events.append(("round_started", phase, tuple(order)))

    def update_folded(self, config, position, meta, state, engine):
        self.events.append(("update_folded", config.name, position))

    def config_quarantined(self, config, meta):
        self.events.append(("quarantined", config.name))

    def best_improved(self, config, state):
        self.events.append(("best_improved", config.name, state.best.time))

    def round_checkpoint(self, state, engine):
        self.events.append(("checkpoint", state.rounds))


class TestDriverEventProtocol:
    def run_selection(self, pg_engine, tiny_workload, candidates):
        evaluator = ConfigurationEvaluator(pg_engine)
        driver = RoundDriver(
            pg_engine, evaluator, initial_timeout=0.5, alpha=2.0
        )
        observer = RecordingObserver()
        result = driver.run(
            list(tiny_workload.queries), candidates, observer=observer
        )
        return result, observer.events

    def test_event_ordering_invariants(self, pg_engine, tiny_workload):
        pool = [
            Configuration(name="fast", settings={"work_mem": "512MB"}),
            Configuration(name="default"),
        ]
        result, events = self.run_selection(pg_engine, tiny_workload, pool)
        assert result.best.config is not None

        kinds = [e[0] for e in events]
        # Every phase announces itself before any of its updates.
        assert kinds[0] == "round_started"
        # Each main round ends in exactly one checkpoint...
        main_rounds = sum(
            1 for e in events if e[0] == "round_started" and e[1] == PHASE_ROUNDS
        )
        assert kinds.count("checkpoint") == main_rounds
        # ...and nothing follows the final pass's updates (no checkpoint
        # after final: its updates are not idempotent on resume).
        final_at = next(
            i
            for i, e in enumerate(events)
            if e[0] == "round_started" and e[1] == PHASE_FINAL
        )
        assert "checkpoint" not in kinds[final_at:]

    def test_positions_align_with_round_order(self, pg_engine, tiny_workload):
        pool = [Configuration(name="a"), Configuration(name="b")]
        _, events = self.run_selection(pg_engine, tiny_workload, pool)
        order: tuple = ()
        for event in events:
            if event[0] == "round_started":
                order = event[2]
            elif event[0] == "update_folded":
                _, name, position = event
                assert order[position] == name
