"""Resource accounting: peak-memory and disk-footprint budgets.

The paper optimizes workload latency only.  Production tuning is
usually the dual problem: *fit* the workload under a resource budget,
or find the cheapest hardware tier that can run it at all
(QueryTorque's thesis).  This module provides the vocabulary:

- :class:`ResourceFootprint` -- what a candidate configuration would
  consume (peak memory across concurrent allocations, disk including
  base data, indexes, and log/WAL overheads), produced by
  ``DatabaseEngine.resource_footprint``,
- :class:`ResourceBudget` -- per-resource caps with a deterministic
  violation report; parsed from ``ram=8GB,disk=100GB`` strings,
- :class:`HardwareTier` -- a priced instance type; and
  :func:`cheapest_feasible_tier`, which picks the cheapest tier whose
  RAM and disk admit a footprint by solving a tiny binary ILP through
  the same :class:`~repro.solver.model.ILPModel` (and backends) the
  prompt compressor uses.

Everything here is frozen and picklable: budgets travel to process-pool
job workers inside ``LambdaTuneOptions`` and round-trip through the
session codec.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.hardware import HardwareSpec
from repro.db.knobs import GB, format_size, parse_size
from repro.errors import ConfigurationError

__all__ = [
    "ResourceFootprint",
    "ResourceBudget",
    "HardwareTier",
    "DEFAULT_TIERS",
    "parse_budget",
    "cheapest_feasible_tier",
]


@dataclass(frozen=True, slots=True)
class ResourceFootprint:
    """What one engine configuration would consume if installed."""

    #: Worst-case resident memory: fixed pools plus every concurrent
    #: per-operation allocation the settings permit at once.
    peak_memory_bytes: int
    #: Disk usage: base data, index structures, and log/WAL overheads.
    disk_bytes: int

    def describe(self) -> str:
        return (
            f"peak memory {format_size(self.peak_memory_bytes)}, "
            f"disk {format_size(self.disk_bytes)}"
        )


@dataclass(frozen=True, slots=True)
class ResourceBudget:
    """Per-resource caps a candidate configuration must fit under.

    ``None`` for a resource means "uncapped".  Frozen and picklable so
    it can ride in evaluator worker options and session journals.
    """

    max_memory_bytes: int | None = None
    max_disk_bytes: int | None = None

    def __post_init__(self) -> None:
        for label, value in (
            ("ram", self.max_memory_bytes),
            ("disk", self.max_disk_bytes),
        ):
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"budget {label} cap must be positive, got {value!r}"
                )
        if self.max_memory_bytes is None and self.max_disk_bytes is None:
            raise ConfigurationError(
                "a resource budget must cap at least one resource"
            )

    def violation(self, footprint: ResourceFootprint) -> str:
        """A deterministic description of the first violated cap.

        Returns the empty string when the footprint fits.  The message
        is a pure function of (budget, footprint), so quarantine records
        are byte-identical across serial/thread/process executors.
        """
        if (
            self.max_memory_bytes is not None
            and footprint.peak_memory_bytes > self.max_memory_bytes
        ):
            return (
                f"peak memory {format_size(footprint.peak_memory_bytes)} "
                f"exceeds budget {format_size(self.max_memory_bytes)}"
            )
        if (
            self.max_disk_bytes is not None
            and footprint.disk_bytes > self.max_disk_bytes
        ):
            return (
                f"disk footprint {format_size(footprint.disk_bytes)} "
                f"exceeds budget {format_size(self.max_disk_bytes)}"
            )
        return ""

    def admits(self, footprint: ResourceFootprint) -> bool:
        return not self.violation(footprint)

    def describe(self) -> str:
        parts = []
        if self.max_memory_bytes is not None:
            parts.append(f"ram={format_size(self.max_memory_bytes)}")
        if self.max_disk_bytes is not None:
            parts.append(f"disk={format_size(self.max_disk_bytes)}")
        return ",".join(parts)


_BUDGET_KEYS = {"ram": "max_memory_bytes", "disk": "max_disk_bytes"}


def parse_budget(text: str) -> ResourceBudget:
    """Parse a ``ram=8GB,disk=100GB`` budget string (CLI surface)."""
    caps: dict[str, int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, separator, raw = chunk.partition("=")
        key = key.strip().lower()
        field = _BUDGET_KEYS.get(key)
        if not separator or field is None:
            raise ConfigurationError(
                f"cannot parse budget component {chunk!r}; expected "
                f"key=value with key in {sorted(_BUDGET_KEYS)}"
            )
        if field in caps:
            raise ConfigurationError(f"duplicate budget component {key!r}")
        caps[field] = parse_size(raw.strip())
    if not caps:
        raise ConfigurationError(f"empty budget specification {text!r}")
    return ResourceBudget(**caps)


@dataclass(frozen=True, slots=True)
class HardwareTier:
    """A priced instance type a tuned configuration could be placed on."""

    name: str
    hardware: HardwareSpec
    disk_bytes: int
    monthly_cost: float

    def budget(self) -> ResourceBudget:
        """The resource budget this tier imposes."""
        return ResourceBudget(
            max_memory_bytes=self.hardware.memory_bytes,
            max_disk_bytes=self.disk_bytes,
        )

    def admits(self, footprint: ResourceFootprint) -> bool:
        return self.budget().admits(footprint)


#: A small EC2-flavoured ladder (memory, cores, disk, $/month).  The
#: paper's p3.2xlarge (61 GB / 8 cores) sits in the middle.
DEFAULT_TIERS: tuple[HardwareTier, ...] = (
    HardwareTier("small", HardwareSpec(8.0, 2), 100 * GB, 70.0),
    HardwareTier("medium", HardwareSpec(16.0, 4), 250 * GB, 140.0),
    HardwareTier("large", HardwareSpec(32.0, 8), 500 * GB, 280.0),
    HardwareTier("xlarge", HardwareSpec(61.0, 8), 1024 * GB, 560.0),
    HardwareTier("2xlarge", HardwareSpec(122.0, 16), 2048 * GB, 1120.0),
)


def cheapest_feasible_tier(
    footprint: ResourceFootprint,
    tiers: tuple[HardwareTier, ...] = DEFAULT_TIERS,
    method: str = "auto",
) -> HardwareTier | None:
    """The cheapest tier whose RAM and disk admit ``footprint``.

    Formulated as a binary ILP over :class:`~repro.solver.model.ILPModel`
    so all three solver backends (scipy/HiGHS, branch-and-bound, greedy)
    agree on the selection: one binary variable per tier rewarded by its
    cost headroom under the most expensive tier, at most one tier chosen,
    infeasible tiers forced to zero.  Returns ``None`` when no tier fits.
    """
    from repro.solver.model import ILPModel

    if not tiers:
        return None
    model = ILPModel()
    ceiling = max(tier.monthly_cost for tier in tiers) + 1.0
    choice = {}
    for tier in tiers:
        index = model.add_variable(
            f"tier:{tier.name}", ceiling - tier.monthly_cost
        )
        choice[index] = tier
        if not tier.admits(footprint):
            model.add_constraint({index: 1.0}, 0.0)
    model.add_constraint({index: 1.0 for index in choice}, 1.0)
    solution = model.solve(method)
    selected = solution.selected()
    if not selected:
        return None
    return choice[selected[0]]
