"""Chaos suite: randomized fault plans against the full tuning loop.

For ≥20 distinct fault seeds × fault densities, the tuner must

- always terminate and return an *applicable* configuration,
- never re-run a query already completed for a candidate (Algorithm 2
  resumability, fault or no fault),
- produce byte-identical results when rerun under the same
  :class:`FaultPlan`.

Every assertion message embeds ``repr(plan)`` -- the ``(seed, site)``
pair needed to replay a failing case exactly via
``FaultPlan.single_site`` -- so a red test is a reproducible bug report.
"""

import pytest

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.tuner import LambdaTune, LambdaTuneOptions
from repro.db.postgres import PostgresEngine
from repro.faults import ENGINE_QUERY_CRASH, FaultPlan, FaultyLLMClient
from repro.llm.mock import SimulatedLLM

#: ≥20 distinct fault seeds (acceptance criterion); density cycles with
#: the seed so the matrix covers light mishaps through catastrophic
#: storms without a cross-product blow-up.
CHAOS_SEEDS = list(range(24))
DENSITIES = (0.05, 0.15, 0.4)


def chaos_plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, density=DENSITIES[seed % len(DENSITIES)])


def fingerprint(result):
    """Bit-exact identity of a TuningResult (floats via repr)."""
    meta = result.extras.get("meta", {})
    return (
        repr(result.best_time),
        result.best_config.name if result.best_config else None,
        tuple(
            (
                name,
                repr(m.time),
                m.is_complete,
                repr(m.index_time),
                m.failed,
                m.failure,
                tuple(sorted(m.completed_queries)),
            )
            for name, m in sorted(meta.items())
        ),
        tuple((repr(p.time), repr(p.best_time)) for p in result.trace),
        result.extras.get("rounds"),
        result.extras.get("fallback"),
        tuple(result.extras.get("failed_configs", ())),
        tuple(result.extras.get("dropped_samples", ())),
    )


def chaos_tune(workload, plan, *, llm_faults=True, **option_changes):
    """One full tune with the plan installed engine- and LLM-side."""
    options = LambdaTuneOptions(
        token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9
    ).ablated(**option_changes)
    engine = PostgresEngine(workload.catalog)
    engine.install_faults(plan)
    llm = SimulatedLLM()
    if llm_faults:
        llm = FaultyLLMClient(llm, plan)
        llm.sleep = lambda seconds: None
    tuner = LambdaTune(engine, llm, options)
    return tuner.tune(list(workload.queries))


def assert_applicable(result, plan, workload):
    """The recommended configuration must apply on a healthy engine."""
    config = result.best_config
    assert config is not None, f"no configuration returned; replay: {plan!r}"
    clean = PostgresEngine(workload.catalog)
    config.apply_settings(clean)  # must not raise
    for index in config.indexes:
        index.validate(workload.catalog)


@pytest.fixture()
def no_rerun_guard(monkeypatch):
    """Fail the test if any evaluation re-runs a completed query."""
    original = ConfigurationEvaluator.evaluate

    def checked(self, config, queries, timeout, meta):
        overlap = {query.name for query in queries} & meta.completed_queries
        assert not overlap, (
            f"re-ran completed queries {sorted(overlap)} for {config.name}"
        )
        return original(self, config, queries, timeout, meta)

    monkeypatch.setattr(ConfigurationEvaluator, "evaluate", checked)


class TestChaosMatrix:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_tuner_survives(self, tpch, seed, no_rerun_guard):
        plan = chaos_plan(seed)
        assert_applicable(chaos_tune(tpch, plan), plan, tpch)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:6])
    def test_chaos_runs_are_reproducible(self, tpch, seed):
        plan = chaos_plan(seed)
        first = chaos_tune(tpch, plan)
        second = chaos_tune(tpch, plan)
        assert fingerprint(first) == fingerprint(second), (
            f"non-deterministic chaos run; replay: {plan!r}"
        )

    def test_engine_only_storm_on_tiny_workload(self, tiny_workload, no_rerun_guard):
        # High-density engine faults without LLM corruption: the LLM
        # pool is healthy, every candidate crashes, fallback engages.
        plan = FaultPlan(seed=1, density=0.9, sites={ENGINE_QUERY_CRASH})
        result = chaos_tune(tiny_workload, plan, llm_faults=False)
        assert result.best_config is not None, f"replay: {plan!r}"
        assert result.extras["failed_configs"], f"replay: {plan!r}"


class TestForcedCrashAcceptance:
    """The ISSUE's acceptance scenario, pinned to an exact plan.

    ``FaultPlan(seed=0, density=0.02, sites={engine.query_crash})``
    crashes the two candidates that would otherwise win the TPC-H tune;
    the tuner must quarantine them and return the best survivor.
    """

    PLAN = FaultPlan(seed=0, density=0.02, sites={ENGINE_QUERY_CRASH})

    def test_quarantines_crashed_candidate_returns_best_survivor(self, tpch):
        clean = chaos_tune(tpch, FaultPlan(seed=0, density=0.0), llm_faults=False)
        faulted = chaos_tune(tpch, self.PLAN, llm_faults=False)
        failed = faulted.extras["failed_configs"]
        assert failed, f"expected ≥1 quarantined candidate; replay: {self.PLAN!r}"
        # The no-fault winner is among the crashed candidates, so the
        # tuner had to fall back to the best *surviving* configuration.
        assert clean.best_config.name in failed
        assert faulted.best_config is not None
        assert faulted.best_config.name not in failed
        assert faulted.best_time < float("inf")
        assert faulted.extras["fallback"] is False


class TestReplayability:
    def test_single_site_plan_reproduces_the_same_quarantines(self, tpch):
        # A chaos failure prints (seed, site); rebuilding via
        # single_site must quarantine a superset of the same candidates
        # (density 1.0 only adds faults at the same keys).
        original = FaultPlan(seed=0, density=0.02, sites={ENGINE_QUERY_CRASH})
        replay = FaultPlan.single_site(0, ENGINE_QUERY_CRASH, density=0.02)
        first = chaos_tune(tpch, original, llm_faults=False)
        second = chaos_tune(tpch, replay, llm_faults=False)
        assert fingerprint(first) == fingerprint(second)
