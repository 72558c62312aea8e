"""Crash-safe tuning sessions: journal, checkpoint, resume.

:class:`TuningSession` wraps :meth:`repro.core.tuner.LambdaTune.tune`
with a write-ahead JSONL journal (:mod:`repro.session.journal`): every
pipeline stage -- prompt generation, LLM sampling, each selection
round's folded updates, quarantines, best improvements, and round
checkpoints -- is appended *after* it takes effect on the in-memory
state, with ``fsync`` at round and selection boundaries.

:meth:`TuningSession.resume` rebuilds the run from the journal: it
restores the engine via
:meth:`~repro.db.engine.DatabaseEngine.restore_state`, rehydrates the
selection's :class:`~repro.core.rounds.SelectionState`, replays the
journal tail recorded since the last checkpoint, and continues the tune
from the exact :class:`~repro.core.rounds.RoundCursor` position --
producing the same ``SelectionResult`` floats, trace, and fingerprint
as a never-interrupted run, and never re-running a query the journal
recorded as completed.

Replay rules (one per event kind):

- ``checkpoint`` wholesale-replaces the selection state and engine
  snapshot and clears the cursor -- everything before it is final.
- ``round_started`` sets the round counter/timeout and opens a cursor
  at position 0 of the journaled candidate order.
- ``update_folded`` replaces the candidate's ``ConfigMeta``, re-folds
  it into best/trace via the same
  :meth:`~repro.core.rounds.SelectionState.fold_update` transition the
  live driver used (the event's engine clock is the fold timestamp),
  adopts the event's engine snapshot, and advances the cursor past the
  candidate's position.  ``best_improved`` / ``config_quarantined`` are
  therefore informational on replay -- their effects are already part
  of the fold.
- ``selection_finished`` freezes the selection: its replayed state *is*
  the result, and the driver is never re-entered (final-pass updates
  are not idempotent).

Skipped updates emit no events by design: re-evaluating a skip
condition on resume is deterministic and free, so a cursor may point at
a skipped candidate without corrupting positions (``update_folded``
carries its explicit position).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import Configuration
from repro.core.rounds import (
    PHASE_ROUNDS,
    RoundCursor,
    SelectionState,
    TuningObserver,
)
from repro.core.result import TuningResult
from repro.core.tuner import LambdaTune, LambdaTuneOptions
from repro.db.engine import DatabaseEngine, EngineState
from repro.errors import SessionError
from repro.llm.client import LLMClient
from repro.session import codec
from repro.session.journal import JournalEvent, TuningJournal
from repro.workloads.base import Query


class JournalingObserver(TuningObserver):
    """Streams every pipeline event into the session journal."""

    def __init__(self, journal: TuningJournal, *, label: str | None = None) -> None:
        self._journal = journal
        #: The selection currently emitting round events (seeded on
        #: resume, since ``selection_started`` is not re-emitted then).
        self._label = label

    # -- pipeline stages --------------------------------------------------------

    def prompt_generated(self, prompt) -> None:
        coverage = prompt.compression.coverage if prompt.compression else None
        self._journal.append(
            "prompt_generated", {"tokens": prompt.tokens, "coverage": coverage}
        )

    def sample_accepted(self, ordinal: int, config: Configuration) -> None:
        self._journal.append(
            "sample_accepted", {"ordinal": ordinal, "config": config}
        )

    def sample_dropped(
        self, ordinal: int, reason: str, *, llm_error: bool = False
    ) -> None:
        self._journal.append(
            "sample_dropped",
            {"ordinal": ordinal, "reason": reason, "llm_error": llm_error},
        )

    def selection_started(self, label, configs, carryover_meta=None) -> None:
        self._label = label
        self._journal.append(
            "selection_started",
            {
                "label": label,
                "configs": configs,
                "carryover_meta": carryover_meta,
            },
            sync=True,
        )

    def selection_finished(self, label, result) -> None:
        self._journal.append("selection_finished", {"label": label}, sync=True)

    def done(self, result: TuningResult) -> None:
        self._journal.append("done", {"result": result}, sync=True)

    # -- selection events -------------------------------------------------------

    def round_started(self, state, phase, order) -> None:
        self._journal.append(
            "round_started",
            {
                "label": self._label,
                "phase": phase,
                "round": state.rounds,
                "timeout": state.timeout,
                "order": order,
            },
        )

    def update_folded(self, config, position, meta, state, engine) -> None:
        self._journal.append(
            "update_folded",
            {
                "label": self._label,
                "name": config.name,
                "position": position,
                "meta": meta,
                "engine": engine.capture_state(),
            },
        )

    def config_quarantined(self, config, meta) -> None:
        self._journal.append(
            "config_quarantined",
            {"label": self._label, "name": config.name, "failure": meta.failure},
        )

    def best_improved(self, config, state) -> None:
        self._journal.append(
            "best_improved",
            {
                "label": self._label,
                "name": config.name,
                "at": state.trace[-1][0],
                "best_time": state.best.time,
            },
        )

    def round_checkpoint(self, state, engine) -> None:
        self._journal.append(
            "checkpoint",
            {
                "label": self._label,
                "state": state,
                "engine": engine.capture_state(),
            },
            sync=True,
        )


@dataclass(slots=True)
class SelectionReplay:
    """One labeled selection's rehydrated progress."""

    label: str
    configs: list[Configuration]
    carryover_meta: dict | None
    state: SelectionState
    cursor: RoundCursor | None = None
    finished: bool = False


@dataclass(slots=True)
class ResumePoint:
    """Everything :meth:`LambdaTune.tune` needs to continue a journal."""

    options: LambdaTuneOptions
    workload_name: str
    system: str
    queries: list[Query]
    engine_state: EngineState
    fault_plan: object | None
    start_clock: float
    prompt_tokens: int | None = None
    compression_coverage: float | None = None
    #: ordinal -> ("accepted", config) | ("dropped", reason, llm_error)
    samples: dict[int, tuple] = field(default_factory=dict)
    selections: dict[str, SelectionReplay] = field(default_factory=dict)
    active_label: str | None = None
    result: TuningResult | None = None


def rehydrate(events: list[JournalEvent], catalog) -> ResumePoint:
    """Fold a journal's events into a :class:`ResumePoint`."""
    if not events or events[0].kind != "session_start":
        raise SessionError("journal does not begin with a session_start event")
    header = events[0].payload
    codec.check_version(header.get("codec_version"))
    queries = [
        Query.from_sql(name, sql, catalog) for name, sql in header["queries"]
    ]
    point = ResumePoint(
        options=header["options"],
        workload_name=header["workload_name"],
        system=header["system"],
        queries=queries,
        engine_state=header["engine"],
        fault_plan=header["fault_plan"],
        start_clock=header["start_clock"],
    )
    current: SelectionReplay | None = None

    for event in events[1:]:
        payload = event.payload
        kind = event.kind
        if kind == "prompt_generated":
            point.prompt_tokens = payload["tokens"]
            point.compression_coverage = payload["coverage"]
        elif kind == "sample_accepted":
            point.samples[payload["ordinal"]] = ("accepted", payload["config"])
        elif kind == "sample_dropped":
            point.samples[payload["ordinal"]] = (
                "dropped",
                payload["reason"],
                payload["llm_error"],
            )
        elif kind == "selection_started":
            current = SelectionReplay(
                label=payload["label"],
                configs=payload["configs"],
                carryover_meta=payload["carryover_meta"],
                state=SelectionState.initial(
                    payload["configs"], point.options.initial_timeout
                ),
            )
            point.selections[current.label] = current
            point.active_label = current.label
        elif kind == "round_started":
            state = _active(current, kind).state
            if payload["phase"] == PHASE_ROUNDS:
                state.rounds = payload["round"]
                state.timeout = payload["timeout"]
            current.cursor = RoundCursor(
                phase=payload["phase"], order=payload["order"], position=0
            )
        elif kind == "update_folded":
            replay = _active(current, kind)
            meta = payload["meta"]
            replay.state.meta[payload["name"]] = meta
            config = _config_named(replay, payload["name"])
            # Re-fold through the same transition the live driver used;
            # the event's engine clock is the fold timestamp, so
            # best/trace floats come back bit-identical.
            replay.state.fold_update(config, meta, payload["engine"].clock)
            point.engine_state = payload["engine"]
            if replay.cursor is not None:
                replay.cursor.position = payload["position"] + 1
        elif kind in ("best_improved", "config_quarantined"):
            # Informational: both effects are already part of the
            # preceding update_folded's re-fold.
            pass
        elif kind == "checkpoint":
            replay = _active(current, kind)
            replay.state = payload["state"]
            point.engine_state = payload["engine"]
            replay.cursor = None
        elif kind == "selection_finished":
            replay = _active(current, kind)
            replay.finished = True
            replay.cursor = None
        elif kind == "done":
            point.result = payload["result"]
        else:
            raise SessionError(f"unknown journal event kind {kind!r}")

    for replay in point.selections.values():
        if replay.finished:
            continue
        state = replay.state
        if (
            replay.cursor is not None
            and replay.cursor.phase == PHASE_ROUNDS
            and state.finished_first
        ):
            # Crashed between the winning fold and its round checkpoint:
            # the driver had not yet earmarked the final candidates or
            # advanced the timeout.  Both transitions are pure functions
            # of replayed state, so apply them here; the resumed driver
            # then enters the final pass directly.
            state.enter_final_pass(replay.configs, state.best.config)
            state.advance_timeout(
                point.options.alpha, point.options.adaptive_timeout
            )
            replay.cursor = None

    return point


def _active(current: SelectionReplay | None, kind: str) -> SelectionReplay:
    if current is None:
        raise SessionError(
            f"journal event {kind!r} appears before any selection_started"
        )
    return current


def _config_named(replay: SelectionReplay, name: str) -> Configuration:
    for config in replay.configs:
        if config.name == name:
            return config
    raise SessionError(
        f"journal references unknown configuration {name!r} "
        f"in selection {replay.label!r}"
    )


class TuningSession:
    """One journaled tuning run, resumable after a crash."""

    def __init__(
        self,
        tuner: LambdaTune,
        path: str | Path,
        *,
        workload_name: str = "",
        journal_factory=None,
    ) -> None:
        self._tuner = tuner
        self.path = Path(path)
        self._workload_name = workload_name
        #: ``(path, *, append=False) -> TuningJournal``-compatible hook;
        #: the service layer injects a wrapper that checks cancellation
        #: and chaos crash points before every append.
        self._journal_factory = journal_factory or TuningJournal

    def run(self, queries: list[Query]) -> TuningResult:
        """Run the tune with every stage journaled to :attr:`path`."""
        engine = self._tuner.engine
        queries = list(queries)
        with self._journal_factory(self.path) as journal:
            journal.append(
                "session_start",
                {
                    "codec_version": codec.CODEC_VERSION,
                    "options": self._tuner.options,
                    "workload_name": self._workload_name,
                    "system": engine.system,
                    "queries": [(query.name, query.sql) for query in queries],
                    "engine": engine.capture_state(),
                    "fault_plan": engine.fault_plan,
                    "start_clock": engine.clock.now,
                },
                sync=True,
            )
            return self._tuner.tune(
                queries,
                workload_name=self._workload_name,
                observer=JournalingObserver(journal),
            )

    @classmethod
    def resume(
        cls,
        path: str | Path,
        *,
        engine: DatabaseEngine,
        llm: LLMClient,
        journal_factory=None,
    ) -> TuningResult:
        """Continue an interrupted session from its journal.

        ``engine`` must be a fresh engine of the same class and catalog
        the original run used (its mutable state -- settings, physical
        design, clock -- is replaced by the journaled snapshot; the
        original fault plan is reinstalled).  ``llm`` replaces the
        original client; journaled samples are never re-requested, so
        it is only consulted for ordinals the journal has no outcome
        for.  If the journal already holds a ``done`` event, the
        recorded result is returned without touching the engine.
        """
        events = TuningJournal.read(path)
        point = rehydrate(events, engine.catalog)
        if point.result is not None:
            return point.result
        engine.restore_state(point.engine_state)
        if point.fault_plan is not None:
            engine.install_faults(point.fault_plan)
        tuner = LambdaTune(engine, llm, point.options)
        factory = journal_factory or TuningJournal
        with factory(path, append=True) as journal:
            observer = JournalingObserver(journal, label=point.active_label)
            return tuner.tune(
                point.queries,
                workload_name=point.workload_name,
                observer=observer,
                resume=point,
            )
