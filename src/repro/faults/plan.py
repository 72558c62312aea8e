"""Deterministic, seeded fault plans.

A :class:`FaultPlan` decides -- purely from ``(seed, site, key)`` --
whether a fault fires at a given injection site, how severe it is, and
how many transient retries it costs.  Decisions are derived from SHA-256
digests, so they are:

- **deterministic**: the same plan object, a pickled copy of it, or a
  plan rebuilt from the same constructor arguments in another process
  all make identical decisions (no ``PYTHONHASHSEED`` dependence, no
  mutable state),
- **replayable**: every injected fault is labeled with its
  ``(seed, site, key)`` triple; :meth:`FaultPlan.single_site` rebuilds
  a plan that reproduces exactly the faults of one site, and
- **order-independent**: a decision never depends on how many faults
  fired before it, so a job sees identical faults for identical work
  whether it runs uninterrupted, resumed, or in a pool worker.

The plan is consulted through three methods only -- :meth:`fires`,
:meth:`magnitude`, and :meth:`transient_count` -- keeping the hook cost
in fault-free runs to a single ``is None`` check at each site.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import ReproError

#: Engine-level sites (consulted by :mod:`repro.db.engine`).
ENGINE_QUERY_CRASH = "engine.query_crash"
ENGINE_INDEX_INTERRUPT = "engine.index_interrupt"
ENGINE_IO_TRANSIENT = "engine.io_transient"
ENGINE_OOM = "engine.oom"

#: LLM-level sites (consulted by :class:`repro.faults.llm.FaultyLLMClient`).
LLM_TRANSIENT = "llm.transient"
LLM_TRUNCATE = "llm.truncate"
LLM_UNKNOWN_KNOB = "llm.unknown_knob"
LLM_OUT_OF_RANGE = "llm.out_of_range"
LLM_MALFORMED = "llm.malformed"

ENGINE_SITES = frozenset(
    {ENGINE_QUERY_CRASH, ENGINE_INDEX_INTERRUPT, ENGINE_IO_TRANSIENT, ENGINE_OOM}
)
LLM_SITES = frozenset(
    {LLM_TRANSIENT, LLM_TRUNCATE, LLM_UNKNOWN_KNOB, LLM_OUT_OF_RANGE, LLM_MALFORMED}
)
ALL_SITES = ENGINE_SITES | LLM_SITES


@dataclass(frozen=True, slots=True)
class FaultDecision:
    """One fired fault, fully labeled for replay."""

    site: str
    key: str
    seed: int
    #: Severity in [0, 1): where a crash lands mid-query, how much of a
    #: script survives truncation, and so on.
    magnitude: float

    def describe(self) -> str:
        """The replay label printed with every injected fault."""
        return f"(seed={self.seed}, site={self.site!r}, key={self.key!r})"


class FaultPlan:
    """A picklable, seed-derived schedule of injected faults.

    ``density`` is the per-(site, key) firing probability mass; it can
    be overridden per site via ``site_density``.  ``sites`` restricts
    which sites may fire at all (defaults to every known site).
    """

    __slots__ = ("seed", "density", "sites", "site_density", "max_transient")

    def __init__(
        self,
        seed: int,
        *,
        density: float = 0.1,
        sites: frozenset[str] | set[str] | None = None,
        site_density: dict[str, float] | None = None,
        max_transient: int = 2,
    ) -> None:
        if not 0.0 <= density <= 1.0:
            raise ReproError(f"fault density must be in [0, 1], got {density!r}")
        if max_transient < 0:
            raise ReproError("max_transient cannot be negative")
        chosen = frozenset(ALL_SITES if sites is None else sites)
        unknown = chosen - ALL_SITES
        if unknown:
            raise ReproError(f"unknown fault sites: {sorted(unknown)}")
        self.seed = seed
        self.density = density
        self.sites = chosen
        self.site_density = dict(site_density or {})
        self.max_transient = max_transient

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def single_site(
        cls, seed: int, site: str, *, density: float = 1.0, max_transient: int = 2
    ) -> "FaultPlan":
        """Rebuild the plan that replays one site's faults exactly.

        Given the ``(seed, site)`` pair printed with a chaos failure,
        ``FaultPlan.single_site(seed, site)`` fires the same faults at
        the same keys (density 1.0 is a superset of any density: the
        unit draw per key is identical, only the threshold moves).
        """
        return cls(seed, density=density, sites={site}, max_transient=max_transient)

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "seed": self.seed,
            "density": self.density,
            "sites": self.sites,
            "site_density": self.site_density,
            "max_transient": self.max_transient,
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self.__getstate__() == other.__getstate__()

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, density={self.density}, "
            f"sites={sorted(self.sites)})"
        )

    # -- the decision function ----------------------------------------------------

    def _unit(self, site: str, key: str, salt: str = "") -> float:
        """A uniform draw in [0, 1) pure in ``(seed, site, key, salt)``."""
        text = f"{self.seed}|{site}|{key}|{salt}"
        digest = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(digest[:8], "big") / float(2**64)

    def _density_for(self, site: str) -> float:
        return self.site_density.get(site, self.density)

    def fires(self, site: str, key: str) -> bool:
        """Whether the fault at ``(site, key)`` is scheduled to fire."""
        if site not in self.sites:
            return False
        return self._unit(site, key) < self._density_for(site)

    def magnitude(self, site: str, key: str) -> float:
        """Severity draw in [0, 1) for a fired fault (independent of
        the firing draw, so densities don't skew severities)."""
        return self._unit(site, key, salt="magnitude")

    def transient_count(self, site: str, key: str) -> int:
        """How many consecutive transient failures precede success.

        Zero when the site doesn't fire; otherwise between 1 and
        ``max_transient``, derived from the severity draw.
        """
        if not self.fires(site, key):
            return 0
        if self.max_transient == 0:
            return 0
        return 1 + int(self.magnitude(site, key) * self.max_transient)

    def decide(self, site: str, key: str) -> FaultDecision | None:
        """The fired-fault record for ``(site, key)``, or ``None``."""
        if not self.fires(site, key):
            return None
        return FaultDecision(
            site=site, key=key, seed=self.seed, magnitude=self.magnitude(site, key)
        )
