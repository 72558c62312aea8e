"""Cross-process artifact-cache races (PR 10).

Two processes publishing the same key concurrently must both succeed
(atomic tmpfile + ``os.replace`` -- last writer wins, every reader
sees a complete entry), and a worker that reads a half-written /
corrupted shared cache must degrade to recompute with identical
results.  These are the disk-tier guarantees the process pool workers
(`tune_many(..., max_workers=n > 1)`, `TuningServer(executor="process")`)
stand on.
"""

from __future__ import annotations

import glob
import multiprocessing
import os

import pytest

from repro.cache import MISS, ArtifactCache, install_cache
from repro.core.batch import preferred_mp_context


@pytest.fixture(autouse=True)
def _no_ambient_cache():
    previous = install_cache(None)
    yield
    install_cache(previous)


def entry_files(root) -> list[str]:
    return sorted(
        glob.glob(os.path.join(str(root), "**", "*.bin"), recursive=True)
    )


def _publish_same_key(root, barrier, payload_tag):
    """Worker: race one store of the same (kind, material) key."""
    cache = ArtifactCache(root)
    value = {"tag": payload_tag, "rows": [1.5, 2.5, 3.5]}
    barrier.wait(timeout=60.0)
    cache.store("plan", ("q1", "config-A"), value)
    return payload_tag


def test_concurrent_same_key_stores_leave_one_valid_entry(tmp_path):
    """Both writers replace atomically; a later reader gets a complete,
    verifiable entry (one of the two payloads, never a torn mix)."""
    ctx = preferred_mp_context()
    barrier = ctx.Barrier(2)
    workers = [
        ctx.Process(
            target=_publish_same_key, args=(str(tmp_path), barrier, tag)
        )
        for tag in ("left", "right")
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120.0)
        assert worker.exitcode == 0

    assert len(entry_files(tmp_path)) == 1, "same key must map to one file"
    reader = ArtifactCache(tmp_path)
    value = reader.fetch("plan", ("q1", "config-A"))
    assert value is not MISS
    assert value["tag"] in ("left", "right")
    assert value["rows"] == [1.5, 2.5, 3.5]
    assert reader.stats.disk_hits == 1


def _corrupt(path: str, mode: str) -> None:
    raw = open(path, "rb").read()
    if mode == "truncate":
        open(path, "wb").write(raw[: len(raw) // 2])
    elif mode == "flip":
        mutated = bytearray(raw)
        mutated[-1] ^= 0xFF
        open(path, "wb").write(bytes(mutated))
    else:
        open(path, "wb").write(b"")


@pytest.mark.parametrize("mode", ["truncate", "flip", "empty"])
def test_poisoned_shared_entry_degrades_to_recompute(tmp_path, mode):
    """A half-written or bit-flipped entry is a miss, not an error, and
    the recomputed value is identical to the clean-cache one."""
    writer = ArtifactCache(tmp_path)
    clean = writer.get_or_compute(
        "plan", ("q7",), lambda: {"cost": 12.125, "rows": 4096}
    )
    (entry,) = entry_files(tmp_path)
    _corrupt(entry, mode)

    # A fresh instance simulates the worker process attaching the
    # shared directory: the poisoned read must fall through to compute.
    worker = ArtifactCache(tmp_path)
    recomputed = worker.get_or_compute(
        "plan", ("q7",), lambda: {"cost": 12.125, "rows": 4096}
    )
    assert recomputed == clean
    assert worker.stats.disk_hits == 0
    assert worker.stats.misses >= 1
    # The poisoned file was discarded and republished; a third reader
    # now disk-hits the fresh entry.
    third = ArtifactCache(tmp_path)
    assert third.fetch("plan", ("q7",)) == clean
    assert third.stats.disk_hits == 1


def _tune_with_shared_cache(root, workload_payload, queue):
    """Worker: run one tiny tune against the shared cache directory."""
    import pickle

    from repro.core import BatchJob, LambdaTuneOptions
    from repro.core.batch import run_job

    install_cache(ArtifactCache(root))
    workload = pickle.loads(workload_payload)
    options = LambdaTuneOptions(
        token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9
    )
    result = run_job(BatchJob(workload=workload, options=options))
    queue.put(result.fingerprint())


def test_poisoned_shared_cache_keeps_tuning_bit_identical(
    tmp_path, tiny_workload
):
    """End-to-end: a worker over a fully corrupted shared cache still
    reproduces the clean result digest-for-digest."""
    import pickle

    payload = pickle.dumps(tiny_workload)
    ctx = preferred_mp_context()

    def run_worker(root):
        queue = ctx.Queue()
        worker = ctx.Process(
            target=_tune_with_shared_cache, args=(str(root), payload, queue)
        )
        worker.start()
        fingerprint = queue.get(timeout=300.0)
        worker.join(timeout=60.0)
        return fingerprint

    clean_fingerprint = run_worker(tmp_path)
    assert entry_files(tmp_path), "the warm run should have published entries"
    for entry in entry_files(tmp_path):
        _corrupt(entry, "truncate")
    poisoned_fingerprint = run_worker(tmp_path)
    assert poisoned_fingerprint == clean_fingerprint


def test_barrier_module_is_multiprocessing(tmp_path):
    """Guard: the race test must use real processes, not threads."""
    ctx = preferred_mp_context()
    assert isinstance(ctx, multiprocessing.context.BaseContext)
