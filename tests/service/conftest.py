"""Shared helpers for the tuning-service suite.

The service tests lean on the session suite's bit-exactness machinery:
``fingerprint`` (TuningResult identity with floats via ``repr``),
``FAST_OPTIONS`` (small fast tuning runs), and the ``no_rerun_guard``
fixture (fails the test if any evaluation re-runs a completed query).
"""

from __future__ import annotations

import pytest

from repro.cache import active_cache, install_cache
from repro.core.batch import BatchJob, run_job
from repro.core.tuner import LambdaTuneOptions
from repro.service import TuningServer
from tests.session.conftest import (  # noqa: F401  (no_rerun_guard is a fixture)
    FAST_OPTIONS,
    fingerprint,
    no_rerun_guard,
)


def job_options(seed: int = 9, **overrides) -> LambdaTuneOptions:
    """The session suite's fast options, re-seeded for one service job."""
    return FAST_OPTIONS.ablated(seed=seed, **overrides)


def reference_result(workload, *, options, system="postgres", fault_plan=None):
    """The ground-truth result: the exact build path the server uses,
    minus the service layer (no journal, no queue, no cache)."""
    return run_job(
        BatchJob(
            workload=workload,
            system=system,
            options=options,
            fault_plan=fault_plan,
        )
    )


def make_server(root, **kwargs):
    """A :class:`TuningServer` wired for tests: 1 worker, no cache,
    unless overridden."""
    kwargs.setdefault("workers", 1)
    return TuningServer(root, **kwargs)


@pytest.fixture()
def service_root(tmp_path):
    return tmp_path / "svc"


@pytest.fixture(autouse=True)
def _no_ambient_cache():
    """Service tests control cache installation explicitly."""
    previous = active_cache()
    install_cache(None)
    yield
    install_cache(previous)
