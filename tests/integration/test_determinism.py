"""Cross-component determinism guarantees.

Everything in the reproduction must be bit-stable for a given seed:
engines (deterministic noise via content hashes, not ``hash()``),
the LLM (seeded styles), K-means (seeded numpy RNG), and the tuners
(seeded ``random.Random``).  A tune on the reference implementations
(``tests.oracles.reference_mode()`` on a ``caches=False`` engine) must
fingerprint like the optimized tune, on TPC-H and on JOB.
Cross-process tests additionally pin down independence from
``PYTHONHASHSEED`` -- no simulated timing may depend on set/dict
iteration order.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cache import ArtifactCache, install_cache
from repro.core import LambdaTune, LambdaTuneOptions
from repro.core.prompt.compression import SELECTION_SECTION
from repro.db.postgres import PostgresEngine
from repro.llm import SimulatedLLM
from repro.workloads import job_workload, tpch_workload
from tests.oracles import reference_mode

#: Import root of the in-tree package, propagated to subprocesses so
#: ``import repro`` works without an installed distribution.
_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _tune(workload, *, caches=True, options=None):
    """One ``tune()`` of ``workload`` on a fresh engine."""
    options = options or LambdaTuneOptions(initial_timeout=0.5, alpha=2.0, seed=9)
    engine = PostgresEngine(workload.catalog, caches=caches)
    return LambdaTune(engine, SimulatedLLM(), options).tune(list(workload.queries))


def _subprocess_env(hash_seed: str) -> dict[str, str]:
    python_path = _SRC_DIR
    if os.environ.get("PYTHONPATH"):
        python_path += os.pathsep + os.environ["PYTHONPATH"]
    return {
        "PYTHONHASHSEED": hash_seed,
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": python_path,
    }


def _run_under_hash_seeds(script: str, hash_seeds: tuple[str, ...]) -> set[str]:
    outputs = set()
    for hash_seed in hash_seeds:
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=_subprocess_env(hash_seed),
            check=True,
        )
        outputs.add(result.stdout.strip())
    return outputs


class TestInProcessDeterminism:
    def test_engine_times_stable_across_instances(self):
        workload = tpch_workload()
        times = []
        for _ in range(2):
            engine = PostgresEngine(workload.catalog)
            engine.apply_config({"work_mem": "128MB"})
            times.append(
                [engine.estimate_seconds(q) for q in workload.queries]
            )
        assert times[0] == times[1]

    def test_full_pipeline_stable_across_instances(self):
        from repro.core import LambdaTune, LambdaTuneOptions
        from repro.llm import SimulatedLLM

        workload = tpch_workload()
        results = []
        for _ in range(2):
            tuner = LambdaTune(
                PostgresEngine(workload.catalog),
                SimulatedLLM(),
                LambdaTuneOptions(initial_timeout=0.5, alpha=2.0, seed=9),
            )
            results.append(tuner.tune(list(workload.queries)))
        assert results[0].best_time == results[1].best_time
        assert results[0].tuning_seconds == results[1].tuning_seconds

    def test_caching_is_bit_transparent(self):
        """Engine + evaluator caches must not change any result value."""
        workload = tpch_workload()
        results = [_tune(workload, caches=cached) for cached in (True, False)]
        assert results[0].best_time == results[1].best_time
        assert results[0].tuning_seconds == results[1].tuning_seconds

    def test_reference_mode_tune_matches_optimized(self):
        """A tune on the reference implementations, with every cache
        off, fingerprints like the optimized tune (TPC-H)."""
        _assert_reference_mode_matches(tpch_workload())

    def test_reference_mode_job_tune_matches_optimized(self):
        """The same check on JOB, whose 13-cluster orders run the
        hoisted DP kernel against the dict/frozenset reference."""
        _assert_reference_mode_matches(job_workload())


def _assert_reference_mode_matches(workload):
    options = LambdaTuneOptions(
        token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9
    )
    optimized = _tune(workload, options=options)
    with reference_mode():
        reference = _tune(workload, caches=False, options=options)
    assert reference.fingerprint() == optimized.fingerprint()


class _KindRecorder(ArtifactCache):
    """A memory-only artifact cache that records every kind it serves."""

    def __init__(self) -> None:
        super().__init__()
        self.kinds: list[str] = []

    def fetch(self, kind, material):
        self.kinds.append(kind)
        return super().fetch(kind, material)

    def store(self, kind, material, value):
        self.kinds.append(kind)
        super().store(kind, material, value)


class TestCacheSettingBelongsToEngine:
    """``caches=False`` on the engine reaches every component of a tune."""

    #: Artifact kinds whose caching follows the engine; the LLM and ILP
    #: tiers cache independently of it.
    ENGINE_KINDS = {"plan", "order", "compiled"}

    @staticmethod
    def _snapshot(catalog) -> dict:
        """Every catalog-shared section, whatever its name."""
        caches = getattr(catalog, "_shared_caches", {})
        return {name: dict(entries) for name, entries in caches.items()}

    def test_uncached_tune_leaves_every_cache_alone(self):
        workload = tpch_workload()
        recorder = _KindRecorder()
        previous = install_cache(recorder)
        try:
            cached = _tune(workload)
            assert "order" in recorder.kinds  # the recorder sees traffic
            recorder.kinds.clear()
            before = self._snapshot(workload.catalog)
            assert SELECTION_SECTION in before
            uncached = _tune(workload, caches=False)
        finally:
            install_cache(previous)
        after = self._snapshot(workload.catalog)
        assert after.keys() == before.keys()
        for name, entries in before.items():
            assert after[name].keys() == entries.keys(), name
            assert all(after[name][key] is value for key, value in entries.items())
        assert not self.ENGINE_KINDS & set(recorder.kinds)
        assert uncached.fingerprint() == cached.fingerprint()


class TestCrossProcessDeterminism:
    SCRIPT = (
        "from repro.db.postgres import PostgresEngine;"
        "from repro.workloads import tpch_workload;"
        "w = tpch_workload();"
        "e = PostgresEngine(w.catalog);"
        "print(sum(e.estimate_seconds(q) for q in w.queries))"
    )

    PIPELINE_SCRIPT = (
        "from repro.core import LambdaTune, LambdaTuneOptions;"
        "from repro.db.postgres import PostgresEngine;"
        "from repro.llm import SimulatedLLM;"
        "from repro.workloads import tpch_workload;"
        "w = tpch_workload();"
        "t = LambdaTune(PostgresEngine(w.catalog), SimulatedLLM(),"
        " LambdaTuneOptions(initial_timeout=0.5, alpha=2.0, seed=9));"
        "r = t.tune(list(w.queries));"
        "print(repr(r.best_time), repr(r.tuning_seconds))"
    )

    def test_times_identical_under_different_hash_seeds(self):
        """PYTHONHASHSEED must not influence simulated timings."""
        outputs = _run_under_hash_seeds(self.SCRIPT, ("1", "2"))
        assert len(outputs) == 1

    BUDGET_SCRIPT = (
        "from repro.core import LambdaTune, LambdaTuneOptions;"
        "from repro.db.registry import create_engine;"
        "from repro.db.resources import parse_budget;"
        "from repro.llm import SimulatedLLM;"
        "from repro.workloads import tpch_workload;"
        "w = tpch_workload();"
        "o = LambdaTuneOptions(initial_timeout=0.5, alpha=2.0, seed=9,"
        " budget=parse_budget('ram=32GB'));"
        "t = LambdaTune(create_engine('columnar', w.catalog), SimulatedLLM(), o);"
        "r = t.tune(list(w.queries));"
        "print(repr(r.best_time), sorted(r.extras['failed_configs']),"
        " r.extras['cheapest_tier'])"
    )

    def test_full_pipeline_identical_under_different_hash_seeds(self):
        """The whole tune() pipeline is hash-seed independent.

        Guards the determinism repairs in the planner (join-order
        tie-break), the mock LLM (join-graph insertion order) and the
        scheduler (canonical-order cost summation).
        """
        outputs = _run_under_hash_seeds(self.PIPELINE_SCRIPT, ("1", "3"))
        assert len(outputs) == 1

    def test_budget_pipeline_identical_under_different_hash_seeds(self):
        """The feasibility gate (footprints, quarantine order, the tier
        ILP) must be as hash-seed independent as the latency path."""
        outputs = _run_under_hash_seeds(self.BUDGET_SCRIPT, ("1", "2"))
        assert len(outputs) == 1
