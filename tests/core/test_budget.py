"""The resource-budget objective: feasibility gates in selection.

With ``LambdaTuneOptions.budget`` set, candidates whose footprint
exceeds the caps are quarantined through the same typed path as
inapplicable scripts -- deterministically, before any settings touch
the engine.  Without a budget nothing changes at all.
"""

import pytest

from repro.core.config import Configuration
from repro.core.evaluator import ConfigMeta, ConfigurationEvaluator
from repro.core.tuner import LambdaTune, LambdaTuneOptions
from repro.db.hardware import HardwareSpec
from repro.db.registry import available_engines, create_engine
from repro.db.resources import ResourceBudget, parse_budget
from repro.errors import BudgetInfeasibleError, ConfigurationError
from repro.llm.mock import SimulatedLLM

GB = 1024**3
HARDWARE = HardwareSpec(memory_gb=61.0, cores=8)
FAST = LambdaTuneOptions(token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9)

#: Quarantines the oversubscribing samples but keeps modest ones
#: (seed 9 on the tiny catalog: 3 of 5 PostgreSQL samples ask for
#: ~205GB of peak memory on a 61GB box).
PARTIAL_BUDGET = parse_budget("ram=32GB")
#: Nothing the LLM samples fits; only the default config survives.
IMPOSSIBLE_BUDGET = parse_budget("ram=16GB")
#: Admits everything the LLM can possibly ask for.
GENEROUS_BUDGET = parse_budget("ram=1024GB,disk=1024GB")


def fingerprint(result):
    meta = result.extras.get("meta", {})
    return (
        repr(result.best_time),
        result.best_config.name if result.best_config else None,
        tuple(
            (name, repr(m.time), m.is_complete, m.failed, m.failure)
            for name, m in sorted(meta.items())
        ),
        tuple((repr(p.time), repr(p.best_time)) for p in result.trace),
        tuple(result.extras["failed_configs"]),
        result.extras["fallback"],
    )


def budget_tune(workload, *, budget, system="postgres"):
    engine = create_engine(system, workload.catalog, HARDWARE)
    options = FAST.ablated(budget=budget)
    return LambdaTune(engine, SimulatedLLM(), options).tune(
        list(workload.queries)
    )


class TestEvaluatorGate:
    def test_infeasible_config_quarantined_before_any_apply(self, pg_engine):
        evaluator = ConfigurationEvaluator(
            pg_engine, budget=ResourceBudget(max_memory_bytes=1 * GB)
        )
        config = Configuration(
            name="fat", settings={"shared_buffers": "8GB"}
        )
        meta = ConfigMeta()
        evaluator.evaluate(config, [], 10.0, meta)
        assert meta.failed
        assert "infeasible under budget" in meta.failure
        assert "peak memory" in meta.failure
        # Nothing was applied and no simulated time passed.
        assert pg_engine.clock.now == 0.0
        assert pg_engine.get("shared_buffers") == 128 * 1024**2

    def test_check_raises_typed_configuration_error(self, pg_engine):
        evaluator = ConfigurationEvaluator(
            pg_engine, budget=ResourceBudget(max_memory_bytes=1 * GB)
        )
        config = Configuration(name="fat", settings={"shared_buffers": "8GB"})
        with pytest.raises(BudgetInfeasibleError) as excinfo:
            evaluator._check_budget(config)  # noqa: SLF001
        assert isinstance(excinfo.value, ConfigurationError)

    def test_no_budget_admits_everything(self, pg_engine):
        evaluator = ConfigurationEvaluator(pg_engine)
        config = Configuration(
            name="fat", settings={"shared_buffers": "55GB"}
        )
        meta = ConfigMeta()
        evaluator.evaluate(config, [], 10.0, meta)
        assert not meta.failed


class TestTuneUnderBudget:
    def test_partial_budget_quarantines_oversubscribers(self, tiny_workload):
        result = budget_tune(tiny_workload, budget=PARTIAL_BUDGET)
        assert result.extras["failed_configs"] == [
            "llm-config-1", "llm-config-2", "llm-config-4",
        ]
        assert not result.extras["fallback"]
        assert result.best_config.name not in result.extras["failed_configs"]
        for name, meta in result.extras["meta"].items():
            if meta.failed:
                assert "infeasible under budget" in meta.failure

    def test_result_extras_report_the_objective(self, tiny_workload):
        result = budget_tune(tiny_workload, budget=PARTIAL_BUDGET)
        assert result.extras["budget"] == "ram=32GB"
        assert result.extras["feasible"] is True
        footprint = result.extras["resource_footprint"]
        assert footprint["peak_memory_bytes"] <= 32 * GB
        assert result.extras["cheapest_tier"] == "large"

    def test_impossible_budget_falls_back_to_default(self, tiny_workload):
        result = budget_tune(tiny_workload, budget=IMPOSSIBLE_BUDGET)
        assert result.extras["fallback"] is True
        assert len(result.extras["failed_configs"]) == 5
        assert result.best_config.name == "default-config"
        # The default config itself fits comfortably.
        assert result.extras["feasible"] is True
        assert result.extras["cheapest_tier"] == "small"

    def test_latency_only_results_untouched_by_generous_budget(
        self, tiny_workload
    ):
        """The gate never fires under a generous budget, so everything
        the fingerprint covers is byte-identical to a budget-free run;
        only the extras report the objective."""
        plain = budget_tune(tiny_workload, budget=None)
        budgeted = budget_tune(tiny_workload, budget=GENEROUS_BUDGET)
        assert fingerprint(budgeted) == fingerprint(plain)
        assert "budget" not in plain.extras
        assert budgeted.extras["budget"] == "ram=1024GB,disk=1024GB"

    def test_options_reject_non_budget_values(self):
        with pytest.raises(ConfigurationError):
            FAST.ablated(budget="ram=8GB")


class TestEveryBackend:
    @pytest.mark.parametrize("system", available_engines())
    def test_budget_tune_returns_a_feasible_config(self, tiny_workload, system):
        budget = parse_budget("ram=60GB,disk=200GB")
        result = budget_tune(tiny_workload, budget=budget, system=system)
        engine = create_engine(system, tiny_workload.catalog, HARDWARE)
        footprint = engine.resource_footprint(
            result.best_config.settings, result.best_config.indexes
        )
        assert budget.admits(footprint)
        assert result.extras["feasible"] is True
