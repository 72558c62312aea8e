"""Shared configuration for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at a
reduced scale (quick budgets, representative scenario subset) so the
whole suite finishes in minutes.  ``lambda-tune-bench --scale full``
runs the complete protocol.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.tuner import LambdaTuneOptions

# The reference implementations are imported as ``tests.oracles`` from
# the repository root, however pytest was started.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

#: Tuning budget per scenario for benchmark runs (virtual seconds).
QUICK_BUDGET = 400.0

#: lambda-Tune options scaled to the simulator's compressed time scale.
QUICK_OPTIONS = LambdaTuneOptions(
    token_budget=400, initial_timeout=0.5, alpha=2.0
)


@pytest.fixture(scope="session")
def quick_budget() -> float:
    return QUICK_BUDGET


@pytest.fixture(scope="session")
def quick_options() -> LambdaTuneOptions:
    return QUICK_OPTIONS
