"""End-to-end lambda-Tune pipeline tests (Algorithm 1)."""

import math

import pytest

from repro.core import LambdaTune, LambdaTuneOptions
from repro.errors import ConfigurationError
from repro.llm import SimulatedLLM


def make_tuner(engine, **option_changes):
    options = LambdaTuneOptions(
        token_budget=300, initial_timeout=0.1, alpha=2.0
    ).ablated(**option_changes)
    return LambdaTune(engine, SimulatedLLM(), options)


class TestOptions:
    def test_paper_defaults(self):
        options = LambdaTuneOptions()
        assert options.num_configs == 5
        assert options.initial_timeout == 10.0
        assert options.alpha == 10.0

    def test_ablated_copies(self):
        options = LambdaTuneOptions()
        changed = options.ablated(use_scheduler=False)
        assert not changed.use_scheduler
        assert options.use_scheduler  # original untouched

    def test_invalid_num_configs_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="num_configs"):
            LambdaTuneOptions(num_configs=0)

    def test_ablated_revalidates(self):
        with pytest.raises(ConfigurationError, match="num_configs"):
            LambdaTuneOptions().ablated(num_configs=0)


class TestPipeline:
    def test_empty_workload_rejected(self, pg_engine):
        with pytest.raises(ConfigurationError):
            make_tuner(pg_engine).tune([])

    def test_tune_returns_complete_result(self, pg_engine, tiny_workload):
        result = make_tuner(pg_engine).tune(list(tiny_workload.queries))
        assert result.tuner == "lambda-tune"
        assert result.system == "postgres"
        assert math.isfinite(result.best_time)
        assert result.best_config is not None
        assert result.configs_evaluated == 5
        assert result.tuning_seconds > 0
        assert result.trace

    def test_best_time_agrees_with_trace(self, pg_engine, tiny_workload):
        # Regression: best_time is selection.best.time; the trace's last
        # point must already agree, with no post-hoc overwrite.
        result = make_tuner(pg_engine).tune(list(tiny_workload.queries))
        assert result.trace
        assert result.best_time == result.trace[-1].best_time

    def test_workload_name_threaded_into_result(self, pg_engine, tiny_workload):
        result = make_tuner(pg_engine).tune(
            list(tiny_workload.queries), workload_name=tiny_workload.name
        )
        assert result.workload == "tiny"

    def test_improves_over_default(self, pg_engine, tiny_workload):
        default_time = sum(
            pg_engine.estimate_seconds(query) for query in tiny_workload.queries
        )
        result = make_tuner(pg_engine).tune(list(tiny_workload.queries))
        assert result.best_time < default_time

    def test_deterministic_given_seed(self, tiny_catalog, tiny_workload):
        from repro.db.postgres import PostgresEngine

        results = []
        for _ in range(2):
            engine = PostgresEngine(tiny_catalog)
            results.append(
                make_tuner(engine, seed=5).tune(list(tiny_workload.queries))
            )
        assert results[0].best_time == results[1].best_time
        assert results[0].best_config.name == results[1].best_config.name

    def test_k_configs_requested(self, pg_engine, tiny_workload):
        result = make_tuner(pg_engine, num_configs=3).tune(
            list(tiny_workload.queries)
        )
        assert result.configs_evaluated == 3

    def test_parameters_only_mode(self, pg_engine, tiny_workload):
        result = make_tuner(pg_engine, parameters_only=True).tune(
            list(tiny_workload.queries)
        )
        assert result.best_config.indexes == []

    def test_indexes_only_mode(self, pg_engine, tiny_workload):
        result = make_tuner(pg_engine, indexes_only=True).tune(
            list(tiny_workload.queries)
        )
        assert result.best_config.settings == {}

    def test_mysql_pipeline(self, mysql_engine, tiny_workload):
        result = make_tuner(mysql_engine).tune(list(tiny_workload.queries))
        assert result.system == "mysql"
        assert math.isfinite(result.best_time)
        assert "innodb_buffer_pool_size" in result.best_config.settings

    def test_prompt_token_accounting(self, pg_engine, tiny_workload):
        result = make_tuner(pg_engine).tune(list(tiny_workload.queries))
        assert result.extras["prompt_tokens"] > 0
        assert result.extras["compression_coverage"] == pytest.approx(1.0)

    def test_obfuscation_equivalent_quality(self, tiny_catalog, tiny_workload):
        """Paper §6.4.3: obfuscation leaves performance virtually equal."""
        from repro.db.postgres import PostgresEngine

        plain = make_tuner(PostgresEngine(tiny_catalog)).tune(
            list(tiny_workload.queries)
        )
        hidden = make_tuner(
            PostgresEngine(tiny_catalog), obfuscate=True
        ).tune(list(tiny_workload.queries))
        assert hidden.best_time == pytest.approx(plain.best_time, rel=0.15)

    def test_engine_left_without_candidate_indexes(
        self, pg_engine, tiny_workload
    ):
        make_tuner(pg_engine).tune(list(tiny_workload.queries))
        # Evaluation indexes are transient.
        assert pg_engine.indexes == []


class TestStages:
    def test_generate_prompt_stage(self, pg_engine, tiny_workload):
        tuner = make_tuner(pg_engine)
        prompt = tuner.generate_prompt(list(tiny_workload.queries))
        assert "PostgreSQL" in prompt.text
        assert prompt.compression is not None

    def test_sample_configurations_stage(self, pg_engine, tiny_workload):
        tuner = make_tuner(pg_engine)
        prompt = tuner.generate_prompt(list(tiny_workload.queries))
        candidates = tuner.sample_configurations(prompt)
        assert len(candidates) == 5
        assert all(not config.is_empty for config in candidates)
        assert len({config.name for config in candidates}) == 5


class TestTokenBudgetDefaults:
    def test_none_budget_uses_model_limit(self, pg_engine, tiny_workload):
        tuner = make_tuner(pg_engine, token_budget=None)
        prompt = tuner.generate_prompt(list(tiny_workload.queries))
        # Everything fits: full join-cost coverage.
        assert prompt.compression.coverage == pytest.approx(1.0)

    def test_none_budget_tunes(self, pg_engine, tiny_workload):
        result = make_tuner(pg_engine, token_budget=None).tune(
            list(tiny_workload.queries)
        )
        assert math.isfinite(result.best_time)
