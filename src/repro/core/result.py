"""Common result types shared by lambda-Tune and every baseline tuner."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class TracePoint:
    """Best workload execution time known at a point in tuning time.

    This is exactly one data point of the paper's convergence plots
    (Figures 3 and 4): x = optimization time, y = best execution time
    found so far.
    """

    time: float
    best_time: float


@dataclass(slots=True)
class TuningResult:
    """Outcome of one tuning run."""

    tuner: str
    workload: str
    system: str
    best_time: float
    best_config: object | None
    trace: list[TracePoint] = field(default_factory=list)
    configs_evaluated: int = 0
    tuning_seconds: float = 0.0
    extras: dict[str, object] = field(default_factory=dict)

    def best_time_until(self, time_limit: float) -> float:
        """Best execution time found up to ``time_limit`` (inf if none)."""
        best = float("inf")
        for point in self.trace:
            if point.time <= time_limit and point.best_time < best:
                best = point.best_time
        return best

    def record(self, time: float, best_time: float) -> None:
        self.trace.append(TracePoint(time=time, best_time=best_time))
        if best_time < self.best_time:
            self.best_time = best_time

    def fingerprint(self) -> dict:
        """Bit-exact, JSON-serializable identity of this result.

        Floats are rendered with ``repr`` (shortest round-trip form), so
        two results fingerprint equal iff their floats are bit-identical
        -- the equality the determinism, executor-equivalence, and
        crash-resume guarantees are stated in.  Of ``extras``, only the
        per-configuration ``meta`` records, the round count, the failed
        configurations and the fallback flag are part of result identity.
        """
        meta = self.extras.get("meta", {})
        return {
            "tuner": self.tuner,
            "workload": self.workload,
            "system": self.system,
            "best_time": repr(self.best_time),
            "tuning_seconds": repr(self.tuning_seconds),
            "best_config": self.best_config.name if self.best_config else None,
            "configs_evaluated": self.configs_evaluated,
            "rounds": self.extras.get("rounds"),
            "trace": [
                (repr(point.time), repr(point.best_time))
                for point in self.trace
            ],
            "meta": {
                name: {
                    "time": repr(m.time),
                    "is_complete": m.is_complete,
                    "index_time": repr(m.index_time),
                    "completed_queries": sorted(m.completed_queries),
                    "failed": m.failed,
                    "failure": m.failure,
                }
                for name, m in sorted(meta.items())
            },
            "failed_configs": list(self.extras.get("failed_configs", [])),
            "fallback": self.extras.get("fallback", False),
        }
