"""The 24 reference fingerprints, pinned to digests recorded earlier.

``LambdaTune.tune()`` with ``LambdaTuneOptions(seed=0..7)`` on ``tpch``,
``job`` and ``synthetic:queries=2000,scale=100`` must reproduce, byte
for byte, the ``fingerprint()`` digests committed in
``tests/data/reference_fingerprints.json``.  Performance work on the
scheduler, the evaluator or the planner is only exact if these hold.
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
from repro.workloads import load_workload

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
