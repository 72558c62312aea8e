"""Bit-transparency of the persistent artifact cache.

For every cached artifact type (plans, compiled workloads, ILP
solutions, LLM samples, plan orders) a warm hit must be byte-identical
to a cold computation -- across ``PYTHONHASHSEED`` values, in-process
and across concurrent ``tune_many`` jobs, and after a poisoning attack
on every disk entry.  The full tuning pipeline exercises all five artifact kinds
in one run, so it is the property under test.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cache import ArtifactCache, install_cache
from repro.core import BatchJob, LambdaTune, LambdaTuneOptions, tune_many
from repro.db.postgres import PostgresEngine
from repro.llm.mock import SimulatedLLM
from repro.workloads import tpch_workload

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

OPTIONS = LambdaTuneOptions(
    token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9
)

#: Runs one tune against the cache dir in argv[1] and prints the result
#: fingerprint digest plus the persistent-cache hit/store counters.
TUNE_SCRIPT = """
import hashlib, sys
from repro.cache import configure_cache
from repro.core import LambdaTune, LambdaTuneOptions
from repro.db.postgres import PostgresEngine
from repro.llm.mock import SimulatedLLM
from repro.workloads import tpch_workload

cache = configure_cache(sys.argv[1]) if sys.argv[1] else None
workload = tpch_workload()
tuner = LambdaTune(
    PostgresEngine(workload.catalog),
    SimulatedLLM(),
    LambdaTuneOptions(token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9),
)
result = tuner.tune(list(workload.queries), workload_name=workload.name)
digest = hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest()
hits = 0 if cache is None else cache.stats.disk_hits + cache.stats.memory_hits
stores = 0 if cache is None else cache.stats.stores
print(digest, hits, stores)
"""


def run_tune(cache_dir: str, hash_seed: str) -> tuple[str, int, int]:
    python_path = _SRC_DIR
    if os.environ.get("PYTHONPATH"):
        python_path += os.pathsep + os.environ["PYTHONPATH"]
    result = subprocess.run(
        [sys.executable, "-c", TUNE_SCRIPT, cache_dir],
        capture_output=True,
        text=True,
        check=True,
        env={
            "PYTHONHASHSEED": hash_seed,
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": python_path,
        },
    )
    digest, hits, stores = result.stdout.split()
    return digest, int(hits), int(stores)


@pytest.fixture(autouse=True)
def _no_ambient_cache():
    previous = install_cache(None)
    yield
    install_cache(previous)


def test_warm_hits_identical_across_hash_seeds(tmp_path):
    """Cold (seed A) then warm (seeds B, C): one fingerprint, real hits.

    The warm runs read artifacts written by a process with a *different*
    hash seed, so any hash()-dependent key material or payload would
    surface as a digest mismatch or a changed fingerprint.
    """
    cache_dir = str(tmp_path / "cache")
    no_cache_digest, _, _ = run_tune("", "1")
    cold = run_tune(cache_dir, "2")
    warm_a = run_tune(cache_dir, "3")
    warm_b = run_tune(cache_dir, "4")

    assert cold[0] == no_cache_digest  # cache does not change results
    assert warm_a[0] == no_cache_digest
    assert warm_b[0] == no_cache_digest
    assert cold[1] == 0 and cold[2] > 0  # cold run stored artifacts
    assert warm_a[1] > 0 and warm_a[2] == 0  # warm runs only hit
    assert warm_b[1] > 0 and warm_b[2] == 0


def test_poisoned_entries_recomputed_end_to_end(tmp_path):
    """Corrupt every disk entry; the tune must detect and recompute."""
    cache_dir = str(tmp_path / "cache")
    cold_digest, _, _ = run_tune(cache_dir, "1")

    entries = glob.glob(os.path.join(cache_dir, "**", "*.bin"), recursive=True)
    assert entries
    for path in entries:
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            # Flip one payload byte: header and digest stay plausible,
            # only content verification can catch it.
            handle.write(raw[:-1] + bytes([raw[-1] ^ 0xFF]))

    cache = ArtifactCache(cache_dir)
    install_cache(cache)
    workload = tpch_workload()
    tuner = LambdaTune(
        PostgresEngine(workload.catalog), SimulatedLLM(), options=OPTIONS
    )
    result = tuner.tune(list(workload.queries), workload_name=workload.name)

    import hashlib

    digest = hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest()
    assert digest == cold_digest
    assert cache.stats.poisoned == len(entries)
    assert cache.stats.disk_hits == 0  # nothing corrupt was ever trusted


def test_cold_and_warm_tunes_identical_to_uncached(tmp_path):
    """Tunes over a cold, then warm, cache match the uncached run."""
    workload = tpch_workload()
    reference = LambdaTune(
        PostgresEngine(workload.catalog), SimulatedLLM(), options=OPTIONS
    ).tune(list(workload.queries), workload_name=workload.name)

    install_cache(ArtifactCache(tmp_path / "cache"))
    for _ in range(2):  # cold then warm
        tuned = LambdaTune(
            PostgresEngine(tpch_workload().catalog),
            SimulatedLLM(),
            options=OPTIONS,
        ).tune(list(workload.queries), workload_name=workload.name)
        assert tuned.fingerprint() == reference.fingerprint()


def test_batch_results_identical_to_serial_reference(tmp_path):
    """tune_many over a shared cache returns serial-reference results."""
    def jobs():
        return [
            BatchJob(workload=tpch_workload(), options=OPTIONS),
            BatchJob(workload=tpch_workload(), options=OPTIONS.ablated(seed=11)),
            BatchJob(workload=tpch_workload(), options=OPTIONS),
        ]

    reference = tune_many(jobs(), max_workers=1)
    concurrent = tune_many(
        jobs(), max_workers=3, cache_dir=str(tmp_path / "cache")
    )
    for serial, batched in zip(reference, concurrent):
        assert batched.fingerprint() == serial.fingerprint()
