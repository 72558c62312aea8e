"""Shared helpers for the crash-safe session suite."""

from __future__ import annotations

import pytest

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.tuner import LambdaTune, LambdaTuneOptions
from repro.db.postgres import PostgresEngine
from repro.faults import FaultyLLMClient
from repro.llm.mock import SimulatedLLM
from repro.session import TuningSession
from repro.workloads.base import Workload

#: Small, fast tuning options shared by every session test; seeds are
#: layered on top so each sweep sees different LLM samples.
FAST_OPTIONS = LambdaTuneOptions(
    token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9
)


def fingerprint(result):
    """Bit-exact identity of a TuningResult (floats via ``repr``).

    Mirrors the chaos-suite fingerprint and additionally pins the
    fields the session layer is responsible for restoring: the workload
    name and the tuning-clock total.
    """
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
        result.workload,
        repr(result.tuning_seconds),
    )


def make_llm(plan=None):
    llm = SimulatedLLM()
    if plan is not None:
        llm = FaultyLLMClient(llm, plan)
        llm.sleep = lambda seconds: None
    return llm


def make_tuner(
    workload: Workload,
    *,
    seed=9,
    plan=None,
    engine_cls=PostgresEngine,
    budget=None,
) -> LambdaTune:
    options = FAST_OPTIONS.ablated(seed=seed, budget=budget)
    engine = engine_cls(workload.catalog)
    if plan is not None:
        engine.install_faults(plan)
    return LambdaTune(engine, make_llm(plan), options)


def plain_tune(workload, **kwargs):
    """An unjournaled reference run."""
    tuner = make_tuner(workload, **kwargs)
    return tuner.tune(list(workload.queries), workload_name=workload.name)


def journaled_tune(workload, path, **kwargs):
    """The same run through :class:`TuningSession`."""
    tuner = make_tuner(workload, **kwargs)
    session = TuningSession(tuner, path, workload_name=workload.name)
    return session.run(list(workload.queries))


def resume_tune(workload, path, *, plan=None, engine_cls=PostgresEngine):
    """Continue ``path`` on a *fresh* engine and LLM client.

    The engine is created without the fault plan installed: resume must
    reinstall the journaled plan itself, and these tests rely on that.
    Likewise the resource budget is *not* passed in here -- resume must
    recover it from the journaled options.
    """
    engine = engine_cls(workload.catalog)
    return TuningSession.resume(path, engine=engine, llm=make_llm(plan))


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
