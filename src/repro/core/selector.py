"""Configuration selection (paper §4, Algorithm 2).

The selection control flow lives in :mod:`repro.core.rounds` -- one
round driver over an explicit :class:`~repro.core.rounds.SelectionState`.
:class:`ConfigurationSelector` is its public entry point: it accepts a
rehydrated ``state``/``cursor`` pair (see :mod:`repro.session`) to
continue an interrupted selection exactly where it stopped.
"""

from __future__ import annotations

from repro.core.config import Configuration
from repro.core.rounds import (
    BestConfig,
    RoundCursor,
    RoundDriver,
    SelectionResult,
    SelectionState,
    TuningObserver,
)
from repro.workloads.base import Query

__all__ = [
    "BestConfig",
    "SelectionResult",
    "ConfigurationSelector",
]


class ConfigurationSelector(RoundDriver):
    """Runs Algorithm 2 against a live engine, one Update at a time."""

    def select(
        self,
        workload: list[Query],
        configs: list[Configuration],
        *,
        state: SelectionState | None = None,
        cursor: RoundCursor | None = None,
        observer: TuningObserver | None = None,
    ) -> SelectionResult:
        """Identify the best configuration among the candidates.

        See :meth:`repro.core.rounds.RoundDriver.run` for quarantine and
        resume semantics.
        """
        return self.run(
            workload, configs, state=state, cursor=cursor, observer=observer
        )
