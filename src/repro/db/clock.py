"""Virtual time.

All tuning algorithms in this reproduction measure time against a
:class:`VirtualClock` owned by the database engine.  Query execution,
index builds and reconfigurations advance the clock by their simulated
durations, so the paper's timeout and budget logic (Algorithms 2 and 3)
runs unchanged -- just compressed from hours of wall time to
milliseconds of simulation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


class VirtualClock:
    """A monotonically advancing simulated clock, in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ReproError("clock cannot start before time zero")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock and return the new time.

        Negative durations are rejected: simulated work never takes
        negative time, and silently accepting it would corrupt every
        timeout computation built on top.
        """
        if seconds < 0:
            raise ReproError(f"cannot advance clock by {seconds!r} seconds")
        self._now += seconds
        return self._now

    def advance_many(self, durations) -> float:
        """Advance by a whole sequence of durations in one call.

        Bit-identical to calling :meth:`advance` once per element:
        ``np.cumsum`` accumulates float64 partial sums left to right --
        the same IEEE-754 addition chain as the sequential ``+=`` --
        so the final clock value matches the per-element path to the
        last ulp (pinned by ``tests/core/test_evaluator_batched.py``).
        """
        values = np.asarray(durations, dtype=np.float64)
        if values.size == 0:
            return self._now
        if np.any(values < 0):
            raise ReproError("cannot advance clock by negative durations")
        chain = np.cumsum(np.concatenate(((self._now,), values)))
        self._now = float(chain[-1])
        return self._now

    def reset(self, to: float = 0.0) -> None:
        """Rewind the clock (scenario setup only -- never during tuning)."""
        if to < 0:
            raise ReproError("cannot reset clock below zero")
        self._now = float(to)

    def elapsed_since(self, start: float) -> float:
        """Seconds elapsed between ``start`` and now."""
        return self._now - start

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.3f})"

