"""Shared-cache stress: many tenants, one artifact cache, zero drift.

All tenants of a server share one installed
:class:`~repro.cache.ArtifactCache`.  The cache is bit-transparent
(PR 5), so this must hold under any interleaving:

- N tenants tuning overlapping workloads concurrently produce results
  byte-identical to isolated, cache-less runs;
- artifacts computed for one tenant are served to other tenants -- from
  memory within a server's lifetime, from disk across server restarts
  (the cross-tenant disk-hit test);
- a poisoned disk tier (every entry corrupted) is detected entry by
  entry under concurrent access, recomputed, and never changes a
  result.
"""

from __future__ import annotations

import pytest

from repro.service import JobClient
from tests.service.conftest import (
    fingerprint,
    job_options,
    make_server,
    reference_result,
)

TENANTS = ["acme", "globex", "initech", "umbrella"]


def overlapping_jobs():
    """(tenant, seed) pairs where seeds repeat across tenants, so the
    tenants' workloads overlap completely at the artifact level."""
    return [(tenant, seed) for seed in (0, 1) for tenant in TENANTS]


class TestSharedCache:
    def test_concurrent_tenants_identical_to_isolated(
        self, service_root, tiny_workload, tmp_path
    ):
        pairs = overlapping_jobs()
        references = {
            seed: reference_result(tiny_workload, options=job_options(seed))
            for seed in {seed for _, seed in pairs}
        }
        with make_server(
            service_root, workers=4, cache_dir=tmp_path / "cache"
        ) as server:
            client = JobClient(server)
            jobs = [
                (
                    client.submit(
                        tiny_workload, tenant=tenant, options=job_options(seed)
                    ),
                    seed,
                )
                for tenant, seed in pairs
            ]
            for job_id, seed in jobs:
                result = client.result(job_id, timeout=120.0)
                assert fingerprint(result) == fingerprint(references[seed]), (
                    f"shared cache perturbed job {job_id} (seed {seed})"
                )
            stats = server.cache_stats()
        # 4 tenants ran each seed: at least 3 of 4 runs per artifact
        # were served from the shared cache.
        assert stats["memory_hits"] + stats["disk_hits"] > 0, (
            "workloads never overlapped in the cache -- stress is vacuous"
        )

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_cross_tenant_disk_hits_across_restart(
        self, service_root, tiny_workload, tmp_path, executor
    ):
        """Each job body returns its own cache-counter deltas, so the
        tenant stats read the same under either runner."""
        cache_dir = tmp_path / "cache"
        options = job_options(2)
        reference = reference_result(tiny_workload, options=options)

        with make_server(
            service_root / "a", cache_dir=cache_dir, executor=executor
        ) as first_life:
            job_id = JobClient(first_life).submit(
                tiny_workload, tenant="acme", options=options
            )
            first_life.result(job_id, timeout=120.0)
            assert first_life.tenant_cache_stats("acme")["stores"] > 0

        # A new server = a cold memory tier: the only way tenant
        # "globex" can hit is via the disk artifacts "acme" left behind.
        with make_server(
            service_root / "b", cache_dir=cache_dir, executor=executor
        ) as second_life:
            job_id = JobClient(second_life).submit(
                tiny_workload, tenant="globex", options=options
            )
            result = second_life.result(job_id, timeout=120.0)
            crossed = second_life.tenant_cache_stats("globex")
        assert fingerprint(result) == fingerprint(reference)
        assert crossed["disk_hits"] > 0, (
            "no cross-tenant disk hits recorded across the restart"
        )

    def test_every_entry_poisoned_under_concurrent_access(
        self, service_root, tiny_workload, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        seeds = [0, 1, 2]
        references = {
            seed: reference_result(tiny_workload, options=job_options(seed))
            for seed in seeds
        }

        # Populate the disk tier.
        with make_server(
            service_root / "warm", workers=2, cache_dir=cache_dir
        ) as warm:
            client = JobClient(warm)
            for seed in seeds:
                client.submit(
                    tiny_workload, tenant=f"t{seed}", options=job_options(seed)
                )
            assert warm.wait_all(timeout=120.0)

        entries = sorted(cache_dir.rglob("*.bin"))
        assert entries, "cache stored nothing -- poisoning pass is vacuous"
        for path in entries:
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))

        # Rerun the same artifact keys concurrently over the poisoned
        # tier: every entry must be detected, recomputed, and no result
        # may move.
        with make_server(
            service_root / "poisoned", workers=3, cache_dir=cache_dir
        ) as poisoned:
            client = JobClient(poisoned)
            jobs = [
                (
                    client.submit(
                        tiny_workload,
                        tenant=f"p{seed}",
                        options=job_options(seed),
                    ),
                    seed,
                )
                for seed in seeds
            ]
            for job_id, seed in jobs:
                result = client.result(job_id, timeout=120.0)
                assert fingerprint(result) == fingerprint(references[seed]), (
                    f"poisoned cache leaked into job {job_id}"
                )
            stats = poisoned.cache_stats()
        assert stats["poisoned"] >= len(entries), (
            f"only {stats['poisoned']} of {len(entries)} poisoned entries "
            f"were detected"
        )

    @pytest.mark.slow
    def test_big_concurrent_overlap_matrix(
        self, service_root, tiny_workload, tmp_path
    ):
        # The heavyweight variant: every tenant runs every seed, three
        # times the tenants, under maximum worker parallelism.
        seeds = list(range(4))
        references = {
            seed: reference_result(tiny_workload, options=job_options(seed))
            for seed in seeds
        }
        with make_server(
            service_root, workers=6, cache_dir=tmp_path / "cache"
        ) as server:
            client = JobClient(server)
            jobs = [
                (
                    client.submit(
                        tiny_workload,
                        tenant=f"tenant-{index}",
                        options=job_options(seed),
                    ),
                    seed,
                )
                for index in range(3 * len(TENANTS))
                for seed in seeds
            ]
            for job_id, seed in jobs:
                result = client.result(job_id, timeout=300.0)
                assert fingerprint(result) == fingerprint(references[seed])
