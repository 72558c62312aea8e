"""The Algorithm-2 round driver: one selection state machine.

This module is the *single* home of the paper's configuration-selection
control flow (§4, Algorithm 2), driven over one explicit, serializable
:class:`SelectionState`:

- the quarantine filter (failed candidates drop out of every later
  round),
- the decreasing-throughput iteration order,
- the Update procedure with its configuration-specific timeout
  ``best.time - meta[c].time``,
- the adaptive-timeout fold of index-creation overheads, and
- the final candidates pass once a first configuration completes

all live here and only here.  :class:`SelectionState` round-trips
through :mod:`repro.session.codec`, and the driver accepts a
:class:`RoundCursor` to continue a selection mid-phase -- the mechanism
crash-safe tuning sessions (:mod:`repro.session`) are built on.

Candidates are evaluated one at a time, as the paper specifies: knob
settings apply to the whole DBMS instance, so two candidates cannot be
measured on it at once.  Concurrency lives one level up, across
independent tuning jobs (:func:`repro.core.batch.tune_many` and
:class:`repro.service.TuningServer`).

Query execution goes through ``ConfigurationEvaluator.evaluate``, which
runs each index-stable segment of the scheduled order in one batched
``execute_many`` call; the Update timeouts threaded from here are
consumed by the batch's prefix-sum cut, bit-identically to subtracting
each query's time in turn (the per-query loop in ``tests/oracles``).

Theorem 4.3: total evaluation time is O(k * alpha * C_best) for
alpha >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.config import Configuration
from repro.core.evaluator import ConfigMeta, ConfigurationEvaluator
from repro.db.engine import DatabaseEngine
from repro.errors import BudgetExceededError
from repro.workloads.base import Query

#: The geometric main rounds of Algorithm 2 (lines 3-15).
PHASE_ROUNDS = "rounds"
#: The one-chance candidates pass after the first completion (line 14).
PHASE_FINAL = "final"


@dataclass(slots=True)
class BestConfig:
    """The best fully-evaluated configuration so far."""

    time: float = math.inf
    config: Configuration | None = None


@dataclass(slots=True)
class SelectionResult:
    """Outcome of Algorithm 2 with per-configuration metadata."""

    best: BestConfig
    meta: dict[str, ConfigMeta]
    rounds: int
    #: (clock time, best completed workload time) trace for plots.
    trace: list[tuple[float, float]] = field(default_factory=list)


@dataclass(slots=True)
class SelectionState:
    """The explicit, serializable state of one Algorithm-2 selection.

    Everything the round loop reads or writes lives here: the current
    round timeout, the round counter, the per-configuration
    :class:`ConfigMeta` table, the running best, the convergence trace,
    and the candidates earmarked for the final pass.  Transitions are
    methods that touch nothing but this object, and the whole object
    round-trips through :mod:`repro.session.codec` for checkpoint/resume.
    """

    timeout: float
    rounds: int = 0
    meta: dict[str, ConfigMeta] = field(default_factory=dict)
    best: BestConfig = field(default_factory=BestConfig)
    trace: list[tuple[float, float]] = field(default_factory=list)
    #: Names of the remaining candidates once a first configuration
    #: completes (``None`` until then).
    candidates: list[str] | None = None

    @classmethod
    def initial(
        cls, configs: list[Configuration], initial_timeout: float
    ) -> "SelectionState":
        return cls(
            timeout=initial_timeout,
            meta={config.name: ConfigMeta() for config in configs},
        )

    # -- transitions ------------------------------------------------------------

    @property
    def finished_first(self) -> bool:
        """Whether some configuration has completed the whole workload."""
        return not math.isinf(self.best.time)

    def begin_round(self, max_rounds: int) -> None:
        """Start one geometric round (Algorithm 2, line 3)."""
        self.rounds += 1
        if self.rounds > max_rounds:
            raise BudgetExceededError(
                f"no configuration finished within {max_rounds} rounds"
            )

    def fold_update(
        self, config: Configuration, meta: ConfigMeta, clock_now: float
    ) -> bool:
        """Fold one Update outcome into best/trace (lines 23-25).

        ``meta`` is the (already mutated) per-configuration record;
        returns whether the running best improved.
        """
        if meta.is_complete and meta.time < self.best.time:
            self.best.time = meta.time
            self.best.config = config
            self.trace.append((clock_now, self.best.time))
            return True
        return False

    def advance_timeout(self, alpha: float, adaptive: bool) -> None:
        """End-of-round timeout transition (line 15).

        With adaptive timeouts, reconfiguration overheads are folded in
        first so index builds never dominate query evaluation (§4).
        ``index_time`` is cumulative across rounds: evaluation drops its
        indexes on exit, so a slow configuration may rebuild the same
        index every round and the cumulative figure is the conservative
        upper bound on what the next round may spend rebuilding before
        any query runs.
        """
        if adaptive:
            index_times = (m.index_time for m in self.meta.values())
            self.timeout = max(self.timeout, *index_times)
        self.timeout *= alpha

    def enter_final_pass(
        self, configs: list[Configuration], winner: Configuration
    ) -> None:
        """Earmark every other candidate for the final pass (line 14)."""
        self.candidates = [
            config.name for config in configs if config.name != winner.name
        ]

    def result(self) -> SelectionResult:
        return SelectionResult(
            best=self.best,
            meta=self.meta,
            rounds=self.rounds,
            trace=self.trace,
        )


@dataclass(slots=True)
class RoundCursor:
    """Where inside a phase a resumed selection should pick back up.

    ``order`` is the phase's canonical candidate order as journaled by
    its ``round_started`` event; ``position`` is the index of the next
    candidate to evaluate.  Candidates the original run *skipped* emit
    no journal events, so a cursor may point at one -- re-evaluating the
    skip condition is deterministic and free, which keeps the cursor
    well-defined without journaling non-events.
    """

    phase: str
    order: list[str]
    position: int = 0

    def remaining(
        self, by_name: dict[str, Configuration]
    ) -> list[Configuration]:
        return [by_name[name] for name in self.order[self.position:]]


class TuningObserver:
    """No-op observer of the tuning pipeline.

    :class:`repro.session.TuningSession` subclasses this to journal
    every stage; the default implementation makes observation free for
    plain tunes.  Selection-level callbacks are invoked by
    :class:`RoundDriver`; pipeline-level ones by
    :class:`repro.core.tuner.LambdaTune`.
    """

    # -- pipeline stages (emitted by LambdaTune) ------------------------------

    def prompt_generated(self, prompt) -> None:
        pass

    def sample_accepted(self, ordinal: int, config: Configuration) -> None:
        pass

    def sample_dropped(
        self, ordinal: int, reason: str, *, llm_error: bool = False
    ) -> None:
        pass

    def selection_started(
        self,
        label: str,
        configs: list[Configuration],
        carryover_meta: dict[str, ConfigMeta] | None = None,
    ) -> None:
        pass

    def selection_finished(self, label: str, result: SelectionResult) -> None:
        pass

    def done(self, result) -> None:
        pass

    # -- selection events (emitted by RoundDriver) ----------------------------

    def round_started(
        self, state: SelectionState, phase: str, order: list[str]
    ) -> None:
        pass

    def update_folded(
        self,
        config: Configuration,
        position: int,
        meta: ConfigMeta,
        state: SelectionState,
        engine: DatabaseEngine,
    ) -> None:
        pass

    def config_quarantined(self, config: Configuration, meta: ConfigMeta) -> None:
        pass

    def best_improved(self, config: Configuration, state: SelectionState) -> None:
        pass

    def round_checkpoint(
        self, state: SelectionState, engine: DatabaseEngine
    ) -> None:
        pass


NULL_OBSERVER = TuningObserver()


class RoundDriver:
    """Runs Algorithm 2 against a live engine, one Update at a time."""

    def __init__(
        self,
        engine: DatabaseEngine,
        evaluator: ConfigurationEvaluator,
        *,
        initial_timeout: float = 10.0,
        alpha: float = 10.0,
        adaptive_timeout: bool = True,
        max_rounds: int = 64,
    ) -> None:
        if initial_timeout <= 0:
            raise BudgetExceededError("initial timeout must be positive")
        if alpha <= 1.0:
            raise BudgetExceededError("alpha must exceed 1 for progress")
        self.engine = engine
        self.evaluator = evaluator
        self.initial_timeout = initial_timeout
        self.alpha = alpha
        self.adaptive_timeout = adaptive_timeout
        self.max_rounds = max_rounds

    # -- the loop (Algorithm 2, lines 1-15) -------------------------------------

    def run(
        self,
        workload: list[Query],
        configs: list[Configuration],
        *,
        state: SelectionState | None = None,
        cursor: RoundCursor | None = None,
        observer: TuningObserver | None = None,
    ) -> SelectionResult:
        """Identify the best configuration among the candidates.

        Candidates whose evaluation fails (crash, OOM, inapplicable
        script) are quarantined: they drop out of every later round and
        of the final candidates pass.  If every candidate fails, the
        result carries ``best.config is None`` and the per-candidate
        failure records -- callers degrade gracefully instead of
        receiving an exception mid-tune.

        Pass ``state``/``cursor`` (rehydrated from a session journal) to
        continue an interrupted selection: the driver resumes inside the
        cursor's phase at its position and the journaled prefix is never
        re-executed.  ``offset`` below is the starting position within
        the phase's canonical order -- non-zero only for such a resumed
        phase -- and keeps journaled ``update_folded`` positions aligned
        with the order recorded by the phase's ``round_started`` event.
        """
        if not configs:
            raise BudgetExceededError("no candidate configurations to select from")
        observer = observer or NULL_OBSERVER
        by_name = {config.name: config for config in configs}
        if state is None:
            state = SelectionState.initial(configs, self.initial_timeout)

        while not state.finished_first:
            if cursor is not None and cursor.phase == PHASE_ROUNDS:
                # Resumed mid-round: the round is already counted and
                # journaled; evaluate only its remaining tail.
                ordered = cursor.remaining(by_name)
                offset = cursor.position
                cursor = None
            else:
                active = self.surviving(configs, state.meta)
                if not active:
                    # Every candidate is quarantined; report, don't raise.
                    return state.result()
                state.begin_round(self.max_rounds)
                ordered = self.by_throughput(active, state.meta)
                offset = 0
                observer.round_started(
                    state, PHASE_ROUNDS, [c.name for c in ordered]
                )
            # A round stops at the first configuration whose Update
            # completes the workload.
            for position, config in enumerate(ordered, start=offset):
                self.update(config, workload, state, observer, position)
                if state.meta[config.name].is_complete:
                    state.enter_final_pass(configs, config)
                    break
            state.advance_timeout(self.alpha, self.adaptive_timeout)
            observer.round_checkpoint(state, self.engine)

        if cursor is not None and cursor.phase == PHASE_FINAL:
            ordered = cursor.remaining(by_name)
            offset = cursor.position
        else:
            remaining = [by_name[name] for name in state.candidates or []]
            ordered = self.by_throughput(
                self.surviving(remaining, state.meta), state.meta
            )
            offset = 0
            observer.round_started(state, PHASE_FINAL, [c.name for c in ordered])
        # Every remaining candidate gets its one final chance.
        for position, config in enumerate(ordered, start=offset):
            self.update(config, workload, state, observer, position)

        return state.result()

    # -- the Update procedure (Algorithm 2, lines 16-25) ------------------------

    def update(
        self,
        config: Configuration,
        workload: list[Query],
        state: SelectionState,
        observer: TuningObserver,
        position: int,
    ) -> None:
        meta = state.meta[config.name]
        if meta.failed:
            return
        pending = self.pending(workload, meta)
        if meta.is_complete and not pending:
            return
        effective_timeout = self.effective_timeout(state, meta)
        if effective_timeout is None:
            return

        self.evaluator.evaluate(config, pending, effective_timeout, meta)
        improved = state.fold_update(config, meta, self.engine.clock.now)
        observer.update_folded(config, position, meta, state, self.engine)
        if meta.failed:
            observer.config_quarantined(config, meta)
        if improved:
            observer.best_improved(config, state)

    def effective_timeout(
        self, state: SelectionState, meta: ConfigMeta
    ) -> float | None:
        """The Update call's timeout, or ``None`` when it must be skipped.

        Before the first completion every Update gets the round timeout;
        afterwards each configuration gets ``best.time - meta.time`` --
        anything slower than the best known total is provably
        sub-optimal (§4).
        """
        effective = state.timeout
        if state.finished_first:
            effective = state.best.time - meta.time
            if effective <= 0:
                return None
        return effective

    # -- loop-body helpers -------------------------------------------------------

    @staticmethod
    def surviving(
        configs: list[Configuration], meta: dict[str, ConfigMeta]
    ) -> list[Configuration]:
        """Candidates not yet quarantined by a failed evaluation."""
        return [config for config in configs if not meta[config.name].failed]

    @staticmethod
    def by_throughput(
        configs: list[Configuration], meta: dict[str, ConfigMeta]
    ) -> list[Configuration]:
        """Decreasing order of queries finished per unit time."""
        return sorted(
            configs,
            key=lambda config: -meta[config.name].throughput(),
        )

    @staticmethod
    def pending(workload: list[Query], config_meta: ConfigMeta) -> list[Query]:
        return [
            query
            for query in workload
            if query.name not in config_meta.completed_queries
        ]
