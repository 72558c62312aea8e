"""Wall-clock speedup gates, each beside the equality it is measured on.

Four fast paths must beat what they replace by a fixed factor, and must
produce exactly what it produces:

- the batched numpy planner (``engine.plan_many``) against the scalar
  reference planner, an ``engine.explain`` loop under
  ``tests.oracles.reference_mode()``, over SF100 workloads: plans
  repr-equal node for node, ``estimate_many`` repr-equal to the
  reference's ``estimate_seconds`` loop, and ≥5x on workloads of ≥1000
  queries;
- the segment-batched ``evaluate`` against the per-query reference loop
  (``tests.oracles.reference_mode()``): ``ConfigMeta`` and engine clock
  repr-equal, and ≥5x at 2000 queries;
- a TPC-H tune over a warm artifact cache against the cold tune that
  filled it: fingerprints equal to the uncached tune, zero stores on
  the warm run, and ≥3x;
- ``tune_many`` over 8 TPC-H jobs in 4 pool workers against the serial
  loop: fingerprints equal at 2 and 4 workers and over a shared disk
  cache, and ≥2.5x, enforced only where ≥4 cores are usable (CPU-bound
  jobs cannot scale past the cores there are).

The fast path is the pytest-benchmark target; the path it replaces is
timed by hand in the untimed ``setup`` between rounds, so both sample
the same machine conditions.  Each test prints what it read:

    PYTHONPATH=src python -m pytest benchmarks/test_perf_gates.py -m slow -s
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import nullcontext

import pytest

from repro.cache import ArtifactCache, install_cache
from repro.core import BatchJob, LambdaTune, tune_many
from repro.core.config import Configuration
from repro.core.evaluator import ConfigMeta, ConfigurationEvaluator
from repro.db.postgres import PostgresEngine
from repro.llm import SimulatedLLM
from repro.workloads import load_workload, tpch_workload
from tests.oracles import reference_mode

pytestmark = pytest.mark.slow

SCALE_UP = "scale=100,dimension_tables=8,max_joins=6,max_filters=4"

#: Reference draws per gate; the fast path gets ``fast_per_reference``
#: draws for each.
REFERENCE_ROUNDS = 5


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def interleaved_speedup(benchmark, reference, fast, *, fast_per_reference=1):
    """Best-of ``reference`` seconds over best-of ``fast`` seconds.

    ``fast`` is benchmarked for ``REFERENCE_ROUNDS * fast_per_reference``
    rounds, and ``reference`` runs before every ``fast_per_reference``-th
    of them.  Skips (after the caller's equality asserts have run) when
    pytest-benchmark is disabled, since then nothing is timed.
    """
    reference_times = []
    rounds = itertools.count()

    def setup():
        if next(rounds) % fast_per_reference == 0:
            reference_times.append(_seconds(reference))

    benchmark.pedantic(
        fast, setup=setup, rounds=REFERENCE_ROUNDS * fast_per_reference
    )
    if benchmark.disabled:
        pytest.skip("pytest-benchmark is disabled: nothing was timed")
    reference_s = min(reference_times)
    fast_s = benchmark.stats.stats.min
    benchmark.extra_info.update(
        reference_s=reference_s, fast_s=fast_s, speedup=reference_s / fast_s
    )
    return reference_s, fast_s


@pytest.mark.parametrize(
    "spec",
    [
        "tpch-sf100",
        f"synthetic:queries=200,{SCALE_UP}",
        f"synthetic:queries=1000,{SCALE_UP}",
        f"synthetic:queries=2000,{SCALE_UP}",
    ],
    ids=["tpch-sf100", "synthetic-200", "synthetic-1000", "synthetic-2000"],
)
def test_planning_speedup(benchmark, spec):
    workload = load_workload(spec)
    queries = list(workload.queries)
    engine = PostgresEngine(workload.catalog)

    def scalar_pass():
        engine._plan_cache.clear()
        with reference_mode():
            return [engine.explain(query) for query in queries]

    def batched_pass():
        engine._plan_cache.clear()
        return engine.plan_many(queries)

    reference_plans = scalar_pass()
    with reference_mode():  # served from the scalar plans just cached
        reference_seconds = [
            repr(engine.estimate_seconds(query)) for query in queries
        ]
    batched_plans = batched_pass()  # warms catalog stats + statics
    for query, ref, got in zip(queries, reference_plans, batched_plans):
        assert repr(ref) == repr(got), f"{spec}: plan of {query.name!r} diverged"
    assert [
        repr(value) for value in engine.estimate_many(queries)
    ] == reference_seconds

    reference_s, batched_s = interleaved_speedup(
        benchmark, scalar_pass, batched_pass, fast_per_reference=4
    )
    speedup = reference_s / batched_s
    gated = len(queries) >= 1000
    label = spec.split(",")[0]
    print(
        f"\nplanning {label}: {len(queries)} queries, {reference_s:.4f} s -> "
        f"{batched_s:.4f} s ({speedup:.2f}x, "
        f"{'gate >=5x' if gated else 'informational'})"
    )
    if gated:
        assert speedup >= 5.0, f"batched planner only {speedup:.2f}x; 5x gate missed"


def _meta_label(meta: ConfigMeta) -> tuple:
    return (
        repr(meta.time),
        meta.is_complete,
        repr(meta.index_time),
        tuple(sorted(meta.completed_queries)),
        meta.failed,
        meta.failure,
    )


@pytest.mark.parametrize(
    "spec",
    [f"synthetic:queries=500,{SCALE_UP}", f"synthetic:queries=2000,{SCALE_UP}"],
    ids=["synthetic-500", "synthetic-2000"],
)
def test_evaluator_speedup(benchmark, spec):
    workload = load_workload(spec)
    queries = list(workload.queries)
    config = Configuration(name="throughput-probe", settings={"work_mem": "64MB"})

    def first_evaluate(scalar: bool):
        """A fresh engine's first evaluate: its meta label and clock."""
        engine = PostgresEngine(workload.catalog)
        meta = ConfigMeta()
        with reference_mode() if scalar else nullcontext():
            ConfigurationEvaluator(engine).evaluate(config, queries, 1e12, meta)
        return _meta_label(meta), repr(engine.clock.now)

    assert first_evaluate(scalar=False) == first_evaluate(scalar=True)

    def warm_pass(scalar: bool):
        """One more evaluate on a warm evaluator (plan/order/noise caches)."""
        evaluator = ConfigurationEvaluator(PostgresEngine(workload.catalog))

        def one_pass():
            evaluator.evaluate(config, queries, 1e12, ConfigMeta())

        if not scalar:
            one_pass()
            return one_pass

        def scalar_pass():
            with reference_mode():
                one_pass()

        scalar_pass()
        return scalar_pass

    scalar_s, batched_s = interleaved_speedup(
        benchmark, warm_pass(scalar=True), warm_pass(scalar=False)
    )
    speedup = scalar_s / batched_s
    gated = len(queries) >= 2000
    label = spec.split(",")[0]
    print(
        f"\nevaluator {label}: {len(queries)} queries, {scalar_s:.4f} s -> "
        f"{batched_s:.4f} s ({speedup:.2f}x, "
        f"{'gate >=5x' if gated else 'informational'})"
    )
    if gated:
        assert speedup >= 5.0, f"batched evaluate only {speedup:.2f}x; 5x gate missed"


def _tune(workload, options):
    tuner = LambdaTune(PostgresEngine(workload.catalog), SimulatedLLM(), options)
    return tuner.tune(list(workload.queries))


def test_warm_cache_speedup(benchmark, quick_options, tmp_path):
    """Every run gets a fresh ``tpch_workload()``, so the catalog caches
    start cold and the artifact cache is what is measured; each warm run
    opens the directory its round's cold run filled through a fresh
    ``ArtifactCache`` (empty memory tier), as a new process would."""
    options = quick_options.ablated(seed=9)
    previous = install_cache(None)
    try:
        uncached = _tune(tpch_workload(), options).fingerprint()
        cold_times, warm_caches = [], []
        rounds = itertools.count()

        def setup():
            directory = tmp_path / f"cold-{next(rounds)}"
            install_cache(ArtifactCache(directory))
            start = time.perf_counter()
            cold = _tune(tpch_workload(), options)
            cold_times.append(time.perf_counter() - start)
            assert cold.fingerprint() == uncached
            warm_caches.append(ArtifactCache(directory))
            install_cache(warm_caches[-1])
            return (tpch_workload(), options), {}

        warm = benchmark.pedantic(_tune, setup=setup, rounds=REFERENCE_ROUNDS)
    finally:
        install_cache(previous)

    assert warm.fingerprint() == uncached
    stores = [cache.stats.snapshot()["stores"] for cache in warm_caches]
    assert not any(stores), f"warm tunes recomputed artifacts: {stores}"
    if benchmark.disabled:
        pytest.skip("pytest-benchmark is disabled: nothing was timed")
    cold_s, warm_s = min(cold_times), benchmark.stats.stats.min
    speedup = cold_s / warm_s
    disk_hits = warm_caches[-1].stats.snapshot()["disk_hits"]
    benchmark.extra_info.update(cold_s=cold_s, warm_s=warm_s, speedup=speedup)
    print(
        f"\nartifact cache tpch: cold {cold_s:.4f} s -> warm {warm_s:.4f} s "
        f"({speedup:.2f}x, {disk_hits} disk hits, gate >=3x)"
    )
    assert speedup >= 3.0, f"warm tune only {speedup:.2f}x faster; 3x gate missed"


def test_process_scaling(benchmark, quick_options, tmp_path):
    workload = tpch_workload()
    batch = [
        BatchJob(workload=workload, options=quick_options.ablated(seed=9 + i))
        for i in range(8)
    ]

    def fingerprints(results):
        return [result.fingerprint() for result in results]

    start = time.perf_counter()
    reference = fingerprints(tune_many(batch))
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    assert fingerprints(tune_many(batch, max_workers=2)) == reference
    two_s = time.perf_counter() - start
    cached = tune_many(batch, max_workers=2, cache_dir=tmp_path / "cache")
    assert fingerprints(cached) == reference

    results = benchmark.pedantic(
        tune_many, args=(batch,), kwargs={"max_workers": 4}, rounds=1
    )
    assert fingerprints(results) == reference
    if benchmark.disabled:
        pytest.skip("pytest-benchmark is disabled: nothing was timed")
    four_s = benchmark.stats.stats.min
    speedup = serial_s / four_s
    try:
        usable_cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity
        usable_cores = os.cpu_count() or 1
    gated = usable_cores >= 4
    benchmark.extra_info.update(
        serial_s=serial_s, usable_cores=usable_cores, speedup=speedup
    )
    print(
        f"\nscaling 8 tpch jobs on {usable_cores} cores: serial {serial_s:.3f} s, "
        f"2 workers {two_s:.3f} s ({serial_s / two_s:.2f}x), 4 workers "
        f"{four_s:.3f} s ({speedup:.2f}x, "
        f"{'gate >=2.5x' if gated else 'informational below 4 cores'})"
    )
    if gated:
        assert speedup >= 2.5, f"4 workers only {speedup:.2f}x; 2.5x gate missed"
