"""The 24 reference fingerprints, pinned to digests recorded earlier.

``LambdaTune.tune()`` with ``LambdaTuneOptions(seed=0..7)`` on ``tpch``,
``job`` and ``synthetic:queries=2000,scale=100`` must reproduce, byte
for byte, the ``fingerprint()`` digests committed in
``tests/data/reference_fingerprints.json``.  Performance work on the
scheduler, the evaluator or the planner is only exact if these hold.

One more tune is pinned to plain values: ``LambdaTuneOptions(
token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9)`` on ``tpch``
and ``job``, whose ``best_time`` and ``tuning_seconds`` every committed
``BENCH_2.json`` .. ``BENCH_9.json`` records under ``full_tune``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.cache import install_cache
from repro.core import LambdaTune, LambdaTuneOptions
from repro.db.postgres import PostgresEngine
from repro.llm.mock import SimulatedLLM
from repro.workloads import job_workload, load_workload, tpch_workload

REFERENCE = json.loads(
    (Path(__file__).parents[1] / "data" / "reference_fingerprints.json").read_text()
)["workloads"]


@functools.cache
def workload(spec: str):
    return load_workload(spec)


@pytest.fixture(autouse=True)
def _no_ambient_cache():
    previous = install_cache(None)
    yield
    install_cache(previous)


@pytest.mark.parametrize(
    "spec, seed",
    [(spec, seed) for spec, digests in REFERENCE.items() for seed in range(len(digests))],
)
def test_fingerprint_matches_recorded_digest(spec, seed):
    tuned = workload(spec)
    tuner = LambdaTune(
        PostgresEngine(tuned.catalog), SimulatedLLM(), LambdaTuneOptions(seed=seed)
    )
    result = tuner.tune(list(tuned.queries), workload_name=tuned.name)
    digest = hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest()
    assert digest == REFERENCE[spec][seed]


#: ``full_tune`` of BENCH_2.json .. BENCH_9.json: (best_time, tuning_seconds).
BENCH_FULL_TUNE = {
    "tpch": ("6.456043191889179", "85.88018112293881"),
    "job": ("18.152338537086692", "254.528012802271"),
}


@pytest.mark.parametrize("name", sorted(BENCH_FULL_TUNE))
def test_bench_tune_matches_committed_values(name):
    tuned = tpch_workload() if name == "tpch" else job_workload()
    options = LambdaTuneOptions(
        token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9
    )
    tuner = LambdaTune(PostgresEngine(tuned.catalog), SimulatedLLM(), options)
    result = tuner.tune(list(tuned.queries))
    best_time, tuning_seconds = BENCH_FULL_TUNE[name]
    assert repr(result.best_time) == best_time
    assert repr(result.tuning_seconds) == tuning_seconds
