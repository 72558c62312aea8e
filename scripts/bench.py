#!/usr/bin/env python
"""Perf-regression harness for the scheduler/evaluation hot path.

Measures the optimized implementations against the retained reference
implementations and verifies bit-identical results:

1. DP microbench: ``compute_order_dp`` (bitmask core) vs
   ``compute_order_dp_reference`` (pre-rewrite dict/frozenset spec) at
   n = 8 / 11 / 13 clusters, asserting identical orders.
2. Full ``tune()`` on TPC-H and JOB, optimized (engine + evaluator
   caches on, bitmask DP) vs reference (a ``caches=False`` engine under
   ``tests.oracles.reference_mode()``: reference DP, per-query planner
   and evaluate loop), asserting byte-identical ``TuningResult``
   fingerprints.
3. Workload compile cache: ``compile_workload`` memoized vs recomputed.
4. Fault-injection overhead: the engine fault hooks are always compiled
   in; with no :class:`FaultPlan` installed the tuned ``best_time`` must
   stay within 2% of the committed ``BENCH_2.json`` value (it is in fact
   bit-identical -- the hook is one ``is None`` check), and a chaos tune
   with a crash plan must quarantine the crashed candidates and return
   the best survivor.
5. Crash-safe sessions: a journaled TPC-H tune must fingerprint
   byte-identically to an unjournaled one, its selection time must stay
   within 2% of the committed ``BENCH_3.json`` value, and a resume from
   a truncated journal must reproduce the identical result; the
   wall-clock journaling overhead (append + fsync) is reported.
6. Persistent artifact cache: a full TPC-H tune against a cold
   content-addressed disk cache vs a warm one (fresh process-equivalent
   cache instance, so every artifact is re-read and re-verified from
   disk).  The warm tune must be ≥3x faster than the cold one, the
   fingerprints byte-identical to the uncached run, and the selection
   time within 2% of the committed ``BENCH_4.json`` value.
7. Batched multi-workload tuning: ``tune_many`` over three overlapping
   TPC-H jobs sharing one artifact cache vs three isolated cold runs;
   shared must be faster and every fingerprint byte-identical to the
   serial no-cache reference.
8. Planning throughput: the batched numpy planner
   (``Planner.plan_many``) vs the scalar planner over
   SF100-scale synthetic workloads of 200 / 1000 / 2000 queries (plus
   TPC-H SF100 for reference).  Every plan tree must match the scalar
   planner node-for-node (repr-exact, so bit-identical floats) and the
   batched path must be ≥5x faster on workloads of ≥1000 queries; the
   script refuses to write the report otherwise.
9. Evaluator throughput: the segment-batched ``evaluate`` (whole
   index-stable segments through ``engine.execute_many``) vs the
   per-query reference loop over SF100-scale synthetic workloads
   of 500 / 2000 queries.  The batched ``ConfigMeta`` must match the
   scalar one ``repr``-exactly (every float bit-for-bit), the batched
   path must be ≥5x faster at ≥2000 queries, and the tuned TPC-H
   ``best_time`` must stay within 2% of the committed ``BENCH_6.json``
   value; the script refuses to write the report otherwise.
10. Tuning-as-a-service throughput: K TPC-H jobs (distinct seeds)
    submitted to a multi-tenant ``TuningServer`` (worker pool + shared
    artifact cache + write-ahead journals) vs the same K jobs as
    sequential isolated ``tune()`` calls.  The served jobs must be ≥2x
    faster end-to-end, every fingerprint byte-identical to the
    sequential reference, and the tuned TPC-H ``best_time`` within 2%
    of the committed ``BENCH_7.json`` value.
11. Multi-objective tuning: a budget-constrained TPC-H tune
    (``ram=32GB,disk=100GB``) must quarantine at least one infeasible
    candidate, return a winner whose modelled footprint fits the caps
    (``feasible`` true, with a ``cheapest_tier`` pick), a *generous*
    budget must reproduce the unconstrained fingerprint bit-exactly
    (the gate is transparent when it never fires), and the
    unconstrained ``best_time`` must stay within 2% of the committed
    ``BENCH_8.json`` value.
12. Process scale-out (``scaling``): ``tune_many`` over K CPU-bound
    TPC-H jobs at 1 / 2 / 4 / 8 workers, ``executor="process"`` vs
    ``executor="thread"``.  Every point's fingerprints must be
    byte-identical to the 1-worker serial reference (with and without
    a shared on-disk cache), and the seed-9 job's ``best_time`` must
    stay within 2% of the committed ``BENCH_9.json`` value.  On hosts
    with ≥4 usable cores the 4-process-worker point must be ≥2.5x
    faster than 1 worker; on smaller hosts the curve is recorded as
    informational (a 1-core host cannot express CPU-bound speedup).
13. Optionally consumes ``pytest-benchmark`` stats from
    ``benchmarks/test_perf_scheduler.py`` via ``--benchmark-json``.

Regression gate: if a committed ``BENCH_9.json`` (or, failing that,
``BENCH_8.json`` / ``BENCH_7.json`` / ``BENCH_6.json`` /
``BENCH_5.json`` / ``BENCH_4.json`` / ``BENCH_3.json`` /
``BENCH_2.json`` / ``BENCH_1.json``) exists, the tuned TPC-H/JOB
``best_time`` must not be worse than recorded there; the script exits
non-zero otherwise.

``--sections`` runs a comma-separated subset by name (see
``SECTIONS``; e.g. ``--sections scaling``); sections whose gates need
the full-tune report pull ``full_tune`` in automatically, and a
subset run skips writing the report file unless ``--output`` is
given explicitly.

Writes the combined report to ``BENCH_10.json`` (or ``--output``):

    PYTHONPATH=src python scripts/bench.py
    PYTHONPATH=src python scripts/bench.py --skip-pytest --quick
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(1, str(REPO))  # the reference implementations: tests.oracles

from repro.cache import ArtifactCache, install_cache  # noqa: E402
from repro.core import (  # noqa: E402
    BatchJob,
    LambdaTune,
    LambdaTuneOptions,
    tune_many,
)
from repro.core.evaluator import ConfigurationEvaluator  # noqa: E402
from repro.core.scheduler import compute_order_dp  # noqa: E402
from repro.db.postgres import PostgresEngine  # noqa: E402
from repro.workloads import (  # noqa: E402
    compile_workload,
    job_workload,
    load_workload,
    tpch_workload,
)
from tests.oracles import (  # noqa: E402
    compute_order_dp_reference,
    reference_mode,
)

TUNE_OPTIONS = LambdaTuneOptions(
    token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9
)


# -- DP microbench ------------------------------------------------------------


def _dp_instance(n_queries: int, seed: int = 99):
    rng = random.Random(seed)
    index_names = [f"i{k}" for k in range(2 * n_queries)]
    costs = {name: rng.uniform(0.1, 30.0) for name in index_names}
    index_map = {
        f"q{q}": frozenset(rng.sample(index_names, rng.randint(1, 5)))
        for q in range(n_queries)
    }
    return list(index_map), index_map, costs


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall-clock seconds (insensitive to scheduler jitter)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def dp_microbench(repeats: int) -> dict:
    report = {}
    for n_queries in (8, 11, 13):
        queries, index_map, costs = _dp_instance(n_queries)
        bitmask_order = compute_order_dp(queries, index_map, costs)
        reference_order = compute_order_dp_reference(queries, index_map, costs)
        assert bitmask_order == reference_order, "DP rewrite diverged from spec"
        bitmask = _best_of(
            lambda: compute_order_dp(queries, index_map, costs), repeats
        )
        reference = _best_of(
            lambda: compute_order_dp_reference(queries, index_map, costs),
            max(3, repeats // 4),
        )
        report[f"n={n_queries}"] = {
            "reference_ms": round(reference * 1e3, 4),
            "bitmask_ms": round(bitmask * 1e3, 4),
            "speedup": round(reference / bitmask, 2),
            "orders_identical": True,
        }
    return report


# -- full tune() --------------------------------------------------------------


def _fingerprint(result) -> dict:
    """Deterministic, exact (repr of floats) digest of a TuningResult."""
    return result.fingerprint()


def _tune_once(workload, caches: bool = True):
    from repro.llm import SimulatedLLM

    tuner = LambdaTune(
        PostgresEngine(workload.catalog, caches=caches),
        SimulatedLLM(),
        TUNE_OPTIONS,
    )
    return tuner.tune(list(workload.queries))


def _timed_tune(workload, caches: bool = True) -> tuple[dict, float]:
    start = time.perf_counter()
    result = _tune_once(workload, caches)
    elapsed = time.perf_counter() - start
    return _fingerprint(result), elapsed


def tune_benchmark(workload_name: str, rounds: int) -> dict:
    workload = tpch_workload() if workload_name == "tpch" else job_workload()

    optimized_prints, optimized_times = [], []
    for _ in range(rounds):
        fingerprint, elapsed = _timed_tune(workload)
        optimized_prints.append(fingerprint)
        optimized_times.append(elapsed)

    with reference_mode():
        reference_print, reference_time = _timed_tune(workload, caches=False)

    assert all(p == optimized_prints[0] for p in optimized_prints), (
        f"{workload_name}: optimized runs are not deterministic"
    )
    identical = optimized_prints[0] == reference_print
    assert identical, (
        f"{workload_name}: optimized TuningResult diverged from reference"
    )
    optimized = min(optimized_times)
    return {
        "optimized_s": round(optimized, 4),
        "reference_s": round(reference_time, 4),
        "speedup": round(reference_time / optimized, 2),
        "result_identical": identical,
        "best_time": optimized_prints[0]["best_time"],
        "tuning_seconds": optimized_prints[0]["tuning_seconds"],
    }


# -- workload compile cache ---------------------------------------------------


def compile_cache_benchmark(repeats: int) -> dict:
    workload = tpch_workload()
    start = time.perf_counter()
    compiled = compile_workload(workload)
    first_s = time.perf_counter() - start
    cached_s = _best_of(lambda: compile_workload(workload), repeats)

    def uncached():
        engine = PostgresEngine(workload.catalog, caches=False)
        return compile_workload(workload, engine=engine)

    with reference_mode():
        uncached_s = _best_of(uncached, max(3, repeats // 4))
        reference = uncached()
    identical = (
        reference.default_costs == compiled.default_costs
        and reference.join_values == compiled.join_values
    )
    assert identical, "cached CompiledWorkload diverged from uncached"
    return {
        "first_ms": round(first_s * 1e3, 4),
        "uncached_ms": round(uncached_s * 1e3, 4),
        "cached_ms": round(cached_s * 1e3, 4),
        "speedup": round(uncached_s / cached_s, 1),
        "artifact_identical": identical,
    }


# -- regression gate vs the committed baseline --------------------------------


def _newest_baseline() -> Path:
    """The most recent committed benchmark report, newest first."""
    for name in (
        "BENCH_9.json",
        "BENCH_8.json",
        "BENCH_7.json",
        "BENCH_6.json",
        "BENCH_5.json",
        "BENCH_4.json",
        "BENCH_3.json",
        "BENCH_2.json",
        "BENCH_1.json",
    ):
        path = REPO / name
        if path.is_file():
            return path
    return REPO / "BENCH_1.json"


def regression_gate(tune_report: dict) -> dict:
    """Fail (exit non-zero) if tuned best_time regressed vs the newest
    committed baseline (BENCH_9.json, else BENCH_8.json, ... BENCH_1.json)."""
    baseline_path = _newest_baseline()
    gate: dict = {"baseline": baseline_path.name, "checked": False}
    if not baseline_path.is_file():
        gate["note"] = "no committed baseline; gate skipped"
        return gate
    previous = json.loads(baseline_path.read_text()).get("full_tune", {})
    for workload_name, row in tune_report.items():
        old = previous.get(workload_name, {}).get("best_time")
        if old is None:
            continue
        gate["checked"] = True
        new = row["best_time"]
        if float(new) > float(old) + 1e-12:
            raise SystemExit(
                f"{workload_name}: tuned best_time regressed vs "
                f"{baseline_path.name} ({old} -> {new})"
            )
        gate[workload_name] = {"baseline_best_time": old, "best_time": new}
    return gate


# -- fault-injection overhead -------------------------------------------------


def _chaos_tune(workload, plan):
    """One full tune with a fault plan installed."""
    from repro.llm import SimulatedLLM

    options = LambdaTuneOptions(
        token_budget=400, initial_timeout=0.5, alpha=2.0, seed=9
    )
    engine = PostgresEngine(workload.catalog)
    engine.install_faults(plan)
    tuner = LambdaTune(engine, SimulatedLLM(), options)
    return _fingerprint(tuner.tune(list(workload.queries)))


def fault_overhead_benchmark(tune_report: dict, repeats: int) -> dict:
    """Overhead + correctness of the engine fault hooks.

    Gate 1 (inert hooks): the ``full_tune`` numbers above already ran
    with the hooks compiled in and no plan installed; the tuned
    ``best_time`` must be within 2% of the committed ``BENCH_2.json``
    value (exit non-zero otherwise).

    Gate 2 (chaos quarantine): a TPC-H tune with a crash plan that
    kills ≥1 candidate must quarantine it and return the best surviving
    configuration.
    """
    from repro.faults import ENGINE_QUERY_CRASH, FaultPlan

    report: dict = {}

    baseline_path = REPO / "BENCH_2.json"
    gate: dict = {"baseline": baseline_path.name, "checked": False}
    if baseline_path.is_file():
        previous = json.loads(baseline_path.read_text()).get("full_tune", {})
        for workload_name, row in tune_report.items():
            old = previous.get(workload_name, {}).get("best_time")
            if old is None:
                continue
            gate["checked"] = True
            ratio = float(row["best_time"]) / float(old)
            if ratio > 1.02:
                raise SystemExit(
                    f"{workload_name}: best_time with inert fault hooks is "
                    f"{(ratio - 1) * 100:.2f}% worse than {baseline_path.name} "
                    f"({old} -> {row['best_time']}); 2% gate exceeded"
                )
            gate[workload_name] = {
                "bench2_best_time": old,
                "best_time": row["best_time"],
                "slowdown_pct": round((ratio - 1) * 100, 4),
            }
    else:
        gate["note"] = "no committed BENCH_2.json; gate skipped"
    report["inert_hook_gate"] = gate

    # Hot-path micro-overhead: execute() with fault_plan None (the
    # production default) vs a zero-density plan installed (hooks active
    # but every draw misses).  Simulated execution times are identical
    # by construction; this measures wall-clock hook cost only.
    workload = tpch_workload()
    engine = PostgresEngine(workload.catalog)
    queries = list(workload.queries)[:6]

    def run_all():
        for query in queries:
            engine.execute(query)

    run_all()  # warm analysis/plan caches before timing
    plan_none_s = _best_of(run_all, repeats)
    engine.install_faults(FaultPlan(seed=0, density=0.0))
    inert_plan_s = _best_of(run_all, repeats)
    engine.install_faults(None)
    report["execute_hot_path"] = {
        "queries": len(queries),
        "plan_none_ms": round(plan_none_s * 1e3, 4),
        "inert_plan_ms": round(inert_plan_s * 1e3, 4),
        "inert_plan_overhead_pct": round(
            (inert_plan_s / plan_none_s - 1) * 100, 2
        ),
    }

    # Chaos quarantine: seed 0 at density 0.02 crashes the candidates
    # that would otherwise win the TPC-H tune (see tests/faults).
    plan = FaultPlan(seed=0, density=0.02, sites={ENGINE_QUERY_CRASH})
    chaos_print = _chaos_tune(workload, plan)
    if not chaos_print["failed_configs"]:
        raise SystemExit(f"chaos tune quarantined nothing; replay: {plan!r}")
    if chaos_print["best_config"] in chaos_print["failed_configs"]:
        raise SystemExit("chaos tune returned a quarantined configuration")
    report["chaos_quarantine"] = {
        "plan": repr(plan),
        "failed_configs": chaos_print["failed_configs"],
        "best_config": chaos_print["best_config"],
        "best_time": chaos_print["best_time"],
        "fallback": chaos_print["fallback"],
    }
    return report


# -- crash-safe sessions ------------------------------------------------------


def session_benchmark(repeats: int) -> dict:
    """Overhead + correctness of journaled tuning sessions.

    Gate 1 (identity): a TPC-H tune run through ``TuningSession`` must
    fingerprint byte-identically to the same tune without a journal --
    journaling reads state, it never perturbs the virtual clock.

    Gate 2 (≤2% overhead): the journaled tune's selection time
    (``best_time``, virtual seconds) must be within 2% of the committed
    ``BENCH_3.json`` value, mirroring the PR-3 inert-fault-hook gate.

    Gate 3 (resume): the journal truncated at a mid-selection boundary
    must resume on a fresh engine to the identical fingerprint.

    Wall-clock journaling overhead (append + fsync cost) is measured
    and reported alongside.
    """
    from repro.llm import SimulatedLLM
    from repro.session import TuningSession

    workload = tpch_workload()

    def make_tuner():
        return LambdaTune(
            PostgresEngine(workload.catalog), SimulatedLLM(), TUNE_OPTIONS
        )

    def plain_tune():
        return make_tuner().tune(
            list(workload.queries), workload_name=workload.name
        )

    def journaled_tune(path):
        session = TuningSession(
            make_tuner(), path, workload_name=workload.name
        )
        return session.run(list(workload.queries))

    plain_tune()  # warm shared per-catalog caches before timing
    plain_times, journaled_times = [], []
    plain_print = journaled_print = None
    with tempfile.TemporaryDirectory() as tmp:
        journal_path = Path(tmp) / "bench.journal"
        for _ in range(max(3, repeats // 4)):
            start = time.perf_counter()
            plain_print = _fingerprint(plain_tune())
            plain_times.append(time.perf_counter() - start)

            journal_path.unlink(missing_ok=True)
            start = time.perf_counter()
            journaled_print = _fingerprint(journaled_tune(journal_path))
            journaled_times.append(time.perf_counter() - start)

        if journaled_print != plain_print:
            raise SystemExit("journaled tune diverged from plain tune")

        # Gate 3: crash after the first checkpoint, resume elsewhere.
        journal_path.unlink(missing_ok=True)
        journaled_tune(journal_path)
        lines = journal_path.read_text().splitlines(keepends=True)
        kinds = [json.loads(line)["kind"] for line in lines]
        boundary = kinds.index("checkpoint") + 1
        crash_path = Path(tmp) / "crash.journal"
        crash_path.write_text("".join(lines[:boundary]))
        resumed = TuningSession.resume(
            crash_path,
            engine=PostgresEngine(workload.catalog),
            llm=SimulatedLLM(),
        )
        if _fingerprint(resumed) != plain_print:
            raise SystemExit(
                f"resume from boundary {boundary} diverged from plain tune"
            )

    report: dict = {
        "result_identical": True,
        "resume_identical": True,
        "resume_boundary": f"{boundary}/{len(lines)}",
        "journal_events": len(lines),
        "best_time": plain_print["best_time"],
        "plain_wall_s": round(min(plain_times), 4),
        "journaled_wall_s": round(min(journaled_times), 4),
        "journal_wall_overhead_pct": round(
            (min(journaled_times) / min(plain_times) - 1) * 100, 2
        ),
    }

    baseline_path = REPO / "BENCH_3.json"
    gate: dict = {"baseline": baseline_path.name, "checked": False}
    if baseline_path.is_file():
        previous = json.loads(baseline_path.read_text()).get("full_tune", {})
        old = previous.get("tpch", {}).get("best_time")
        if old is not None:
            gate["checked"] = True
            ratio = float(plain_print["best_time"]) / float(old)
            if ratio > 1.02:
                raise SystemExit(
                    f"journaled selection time is {(ratio - 1) * 100:.2f}% "
                    f"worse than {baseline_path.name} "
                    f"({old} -> {plain_print['best_time']}); 2% gate exceeded"
                )
            gate["bench3_best_time"] = old
            gate["best_time"] = plain_print["best_time"]
            gate["slowdown_pct"] = round((ratio - 1) * 100, 4)
    else:
        gate["note"] = "no committed BENCH_3.json; gate skipped"
    report["overhead_gate"] = gate
    return report


# -- persistent artifact cache ------------------------------------------------


def artifact_cache_benchmark(repeats: int) -> dict:
    """Cold vs warm full ``tune()`` over the persistent artifact cache.

    Gate 1 (identity): the tuned fingerprint must be byte-identical
    across uncached / cold-cache / warm-cache runs -- the cache stores
    exact artifacts, it never changes results.

    Gate 2 (≥3x): a warm tune (every plan, compiled workload, ILP
    solution, LLM sample and plan order served from disk) must be at
    least 3x faster than the cold tune that populated the cache.

    Gate 3 (≤2%): the tuned selection time (``best_time``, virtual
    seconds) must be within 2% of the committed ``BENCH_4.json`` value;
    the cache machinery must not perturb what is selected.

    Every run uses a fresh ``tpch_workload()`` object so the in-process
    per-catalog caches start cold and the persistent tier is what is
    measured; warm runs additionally use a fresh ``ArtifactCache``
    instance (empty memory tier), simulating a new process over the
    same cache directory.
    """
    reps = max(3, repeats // 4)
    previous = install_cache(None)
    try:
        none_print, none_s = _timed_tune(tpch_workload())
        with tempfile.TemporaryDirectory() as tmp:
            cold_times = []
            for i in range(reps):  # each repetition populates its own dir
                install_cache(ArtifactCache(Path(tmp) / f"cold-{i}"))
                cold_print, elapsed = _timed_tune(tpch_workload())
                cold_times.append(elapsed)
            populated = Path(tmp) / f"cold-{reps - 1}"
            warm_times = []
            for _ in range(reps):
                warm_cache = ArtifactCache(populated)
                install_cache(warm_cache)
                warm_print, elapsed = _timed_tune(tpch_workload())
                warm_times.append(elapsed)
            stats = warm_cache.stats.snapshot()
    finally:
        install_cache(previous)

    identical = none_print == cold_print == warm_print
    assert identical, "cached tune diverged from the uncached run"
    if stats["stores"]:
        raise SystemExit(
            f"warm tune recomputed {stats['stores']} artifacts; cache keys "
            f"are unstable across runs"
        )
    cold_s, warm_s = min(cold_times), min(warm_times)
    speedup = cold_s / warm_s
    if speedup < 3.0:
        raise SystemExit(
            f"warm tune is only {speedup:.2f}x faster than cold "
            f"({cold_s:.3f} s -> {warm_s:.3f} s); 3x gate missed"
        )

    baseline_path = REPO / "BENCH_4.json"
    gate: dict = {"baseline": baseline_path.name, "checked": False}
    if baseline_path.is_file():
        previous_tune = json.loads(baseline_path.read_text()).get("full_tune", {})
        old = previous_tune.get("tpch", {}).get("best_time")
        if old is not None:
            gate["checked"] = True
            ratio = float(warm_print["best_time"]) / float(old)
            if ratio > 1.02:
                raise SystemExit(
                    f"selection time with the artifact cache is "
                    f"{(ratio - 1) * 100:.2f}% worse than {baseline_path.name} "
                    f"({old} -> {warm_print['best_time']}); 2% gate exceeded"
                )
            gate["bench4_best_time"] = old
            gate["best_time"] = warm_print["best_time"]
            gate["slowdown_pct"] = round((ratio - 1) * 100, 4)
    else:
        gate["note"] = "no committed BENCH_4.json; gate skipped"

    return {
        "workload": "tpch",
        "uncached_s": round(none_s, 4),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup_vs_cold": round(speedup, 2),
        "result_identical": identical,
        "best_time": warm_print["best_time"],
        "tuning_seconds": warm_print["tuning_seconds"],
        "warm_disk_hits": stats["disk_hits"],
        "warm_stores": stats["stores"],
        "selection_gate": gate,
    }


# -- batched multi-workload tuning --------------------------------------------


def batched_tuning_benchmark(realtime_factor: float) -> dict:
    """``tune_many`` over three overlapping jobs: shared vs isolated cache.

    Three TPC-H jobs (seeds 9/10/11) under a latency-realistic engine.
    *Isolated* runs them sequentially, each against its own cold cache
    directory -- the multi-tenant worst case.  *Shared* runs them
    concurrently over one cache directory, so plans, compiled workloads
    and plan orders computed for one job are reused by the others.
    Shared must beat isolated on wall-clock, and every fingerprint must
    be byte-identical to the serial no-cache reference.
    """

    def jobs(factor: float) -> list[BatchJob]:
        return [
            BatchJob(
                workload=tpch_workload(),
                options=TUNE_OPTIONS.ablated(seed=9 + i),
                realtime_factor=factor,
            )
            for i in range(3)
        ]

    # The realtime waits never touch the virtual clock, so the fast
    # no-wait serial run is the reference fingerprint.
    reference = [
        _fingerprint(result) for result in tune_many(jobs(0.0), max_workers=1)
    ]

    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        isolated = []
        for i, job in enumerate(jobs(realtime_factor)):
            isolated.extend(
                tune_many([job], max_workers=1, cache_dir=Path(tmp) / f"iso-{i}")
            )
        isolated_s = time.perf_counter() - start

        start = time.perf_counter()
        shared = tune_many(
            jobs(realtime_factor), max_workers=3, cache_dir=Path(tmp) / "shared"
        )
        shared_s = time.perf_counter() - start

    if [_fingerprint(result) for result in isolated] != reference:
        raise SystemExit("isolated batched tuning diverged from serial reference")
    if [_fingerprint(result) for result in shared] != reference:
        raise SystemExit("shared batched tuning diverged from serial reference")
    if shared_s >= isolated_s:
        raise SystemExit(
            f"shared-cache batch ({shared_s:.2f} s) did not beat three "
            f"isolated cold runs ({isolated_s:.2f} s)"
        )
    return {
        "jobs": 3,
        "workload": "tpch (seeds 9/10/11)",
        "realtime_factor": realtime_factor,
        "isolated_cold_s": round(isolated_s, 4),
        "shared_cache_s": round(shared_s, 4),
        "speedup": round(isolated_s / shared_s, 2),
        "result_identical": True,
    }


# -- tuning-as-a-service throughput -------------------------------------------


def service_throughput_benchmark(realtime_factor: float, jobs: int = 4) -> dict:
    """K jobs through a ``TuningServer`` vs sequential ``tune()`` calls.

    The sequential baseline runs the K jobs (TPC-H, seeds 9..9+K-1)
    one after another, each against its own cold artifact cache -- what
    K tenants running the library by hand would pay.  The served run
    submits all K to one multi-tenant server: a K-worker pool overlaps
    the engine waits, every job is write-ahead journaled (crash-safe),
    and one shared artifact cache warm-starts the overlapping work.

    Three hard gates refuse the report:

    - every served fingerprint must be byte-identical to the no-wait
      sequential reference (the service layer observes, never perturbs);
    - the served batch must be ≥2x faster end-to-end than the
      sequential baseline; and
    - chained to the committed ``BENCH_7.json``: the seed-9 tuned TPC-H
      ``best_time`` must be within 2% of that baseline.
    """
    from repro.service import JobClient, TuningServer

    seeds = list(range(9, 9 + jobs))

    def batch_jobs(factor: float) -> list[BatchJob]:
        return [
            BatchJob(
                workload=tpch_workload(),
                options=TUNE_OPTIONS.ablated(seed=seed),
                realtime_factor=factor,
            )
            for seed in seeds
        ]

    # Realtime waits never touch the virtual clock: the fast no-wait
    # sequential run is the reference fingerprint set.
    reference = [
        _fingerprint(result)
        for result in tune_many(batch_jobs(0.0), max_workers=1)
    ]

    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        sequential = []
        for i, job in enumerate(batch_jobs(realtime_factor)):
            sequential.extend(
                tune_many([job], max_workers=1, cache_dir=Path(tmp) / f"iso-{i}")
            )
        sequential_s = time.perf_counter() - start

        start = time.perf_counter()
        with TuningServer(
            Path(tmp) / "service",
            workers=jobs,
            cache_dir=Path(tmp) / "shared",
        ) as server:
            client = JobClient(server)
            job_ids = [
                client.submit(
                    tpch_workload(),
                    tenant=f"tenant-{i % 2}",
                    options=TUNE_OPTIONS.ablated(seed=seed),
                    realtime_factor=realtime_factor,
                )
                for i, seed in enumerate(seeds)
            ]
            served = [
                client.result(job_id, timeout=600.0) for job_id in job_ids
            ]
        served_s = time.perf_counter() - start

    if [_fingerprint(result) for result in sequential] != reference:
        raise SystemExit(
            "sequential service baseline diverged from the no-wait reference"
        )
    if [_fingerprint(result) for result in served] != reference:
        raise SystemExit(
            "served tuning results diverged from sequential tune() calls"
        )
    speedup = sequential_s / served_s
    if speedup < 2.0:
        raise SystemExit(
            f"served batch ({served_s:.2f} s) is only {speedup:.2f}x faster "
            f"than {jobs} sequential tune() calls ({sequential_s:.2f} s); "
            f"2x gate missed"
        )

    baseline_path = REPO / "BENCH_7.json"
    gate: dict = {"baseline": baseline_path.name, "checked": False}
    if baseline_path.is_file():
        previous_tune = json.loads(baseline_path.read_text()).get("full_tune", {})
        old = previous_tune.get("tpch", {}).get("best_time")
        if old is not None:
            gate["checked"] = True
            new = reference[0]["best_time"]  # the seed-9 job
            ratio = float(new) / float(old)
            if ratio > 1.02:
                raise SystemExit(
                    f"selection time through the service is "
                    f"{(ratio - 1) * 100:.2f}% worse than {baseline_path.name} "
                    f"({old} -> {new}); 2% gate exceeded"
                )
            gate["bench7_best_time"] = old
            gate["best_time"] = new
            gate["slowdown_pct"] = round((ratio - 1) * 100, 4)
    else:
        gate["note"] = "no committed BENCH_7.json; gate skipped"

    return {
        "jobs": jobs,
        "workload": f"tpch (seeds {seeds[0]}..{seeds[-1]})",
        "realtime_factor": realtime_factor,
        "sequential_s": round(sequential_s, 4),
        "served_s": round(served_s, 4),
        "speedup": round(speedup, 2),
        "result_identical": True,
        "selection_gate": gate,
    }


# -- multi-objective tuning (resource budgets vs latency-only) ----------------


def multi_objective_benchmark(tune_report: dict) -> dict:
    """Budget-constrained TPC-H tune vs the unconstrained one.

    Four hard gates refuse the report:

    - feasibility: under ``ram=32GB,disk=100GB`` the tune must
      quarantine at least one infeasible candidate (every quarantine
      message naming the budget), return a winner that is *not*
      quarantined and whose modelled footprint fits the caps
      (``extras['feasible']`` true), and pick a ``cheapest_tier``;
    - transparency: a generous budget (1 TB RAM/disk) that never fires
      must reproduce the unconstrained fingerprint byte-for-byte;
    - the unconstrained run here must fingerprint identically to the
      ``full_tune`` run above (the budget plumbing is inert when
      ``budget`` is ``None``); and
    - chained to the committed ``BENCH_8.json``: the unconstrained
      tuned TPC-H ``best_time`` must be within 2% of that baseline.
    """
    from repro.db.registry import create_engine
    from repro.db.resources import parse_budget
    from repro.llm import SimulatedLLM

    workload = tpch_workload()

    def tune_with(budget):
        engine = create_engine("postgres", workload.catalog)
        options = TUNE_OPTIONS.ablated(budget=budget)
        tuner = LambdaTune(engine, SimulatedLLM(), options)
        start = time.perf_counter()
        result = tuner.tune(list(workload.queries))
        return result, time.perf_counter() - start

    budget = parse_budget("ram=32GB,disk=100GB")
    constrained, constrained_s = tune_with(budget)
    unconstrained, unconstrained_s = tune_with(None)
    generous, _ = tune_with(parse_budget("ram=1024GB,disk=1024GB"))

    failed = list(constrained.extras["failed_configs"])
    if not failed:
        raise SystemExit(
            "multi-objective: budget quarantined nothing; gate is vacuous"
        )
    for name, meta in constrained.extras["meta"].items():
        if meta.failed and "infeasible under budget" not in meta.failure:
            raise SystemExit(
                f"multi-objective: {name} failed for a non-budget reason "
                f"under the budget run: {meta.failure}"
            )
    if constrained.best_config.name in failed:
        raise SystemExit(
            "multi-objective: budget tune returned a quarantined config"
        )
    if not constrained.extras["feasible"]:
        raise SystemExit(
            "multi-objective: budget tune's winner does not fit the budget"
        )
    footprint = create_engine("postgres", workload.catalog).resource_footprint(
        constrained.best_config.settings, constrained.best_config.indexes
    )
    if not budget.admits(footprint):
        raise SystemExit(
            "multi-objective: recomputed winner footprint violates the budget"
        )

    if _fingerprint(generous) != _fingerprint(unconstrained):
        raise SystemExit(
            "multi-objective: a generous budget perturbed the latency-only "
            "result; the gate is not transparent"
        )

    baseline_path = REPO / "BENCH_8.json"
    gate: dict = {"baseline": baseline_path.name, "checked": False}
    if baseline_path.is_file():
        previous_tune = json.loads(baseline_path.read_text()).get("full_tune", {})
        old = previous_tune.get("tpch", {}).get("best_time")
        if old is not None:
            gate["checked"] = True
            new = unconstrained.best_time
            ratio = float(new) / float(old)
            if ratio > 1.02:
                raise SystemExit(
                    f"multi-objective: unconstrained best_time is "
                    f"{(ratio - 1) * 100:.2f}% worse than {baseline_path.name} "
                    f"({old} -> {new}); 2% gate exceeded"
                )
            gate["bench8_best_time"] = old
            gate["best_time"] = new
            gate["slowdown_pct"] = round((ratio - 1) * 100, 4)
    else:
        gate["note"] = "no committed BENCH_8.json; gate skipped"

    if _fingerprint(unconstrained)["best_time"] != tune_report["tpch"]["best_time"]:
        raise SystemExit(
            "multi-objective: unconstrained run diverged from full_tune "
            f"({tune_report['tpch']['best_time']} -> {unconstrained.best_time})"
        )

    return {
        "workload": "tpch",
        "budget": budget.describe(),
        "quarantined": failed,
        "best_config": constrained.best_config.name,
        "constrained_best_time": repr(constrained.best_time),
        "unconstrained_best_time": repr(unconstrained.best_time),
        "latency_cost_of_budget_pct": round(
            (constrained.best_time / unconstrained.best_time - 1) * 100, 2
        ),
        "winner_peak_memory_gb": round(footprint.peak_memory_bytes / 1024**3, 2),
        "winner_disk_gb": round(footprint.disk_bytes / 1024**3, 2),
        "cheapest_tier": constrained.extras["cheapest_tier"],
        "fallback": constrained.extras["fallback"],
        "generous_budget_identical": True,
        "constrained_wall_s": round(constrained_s, 4),
        "unconstrained_wall_s": round(unconstrained_s, 4),
        "selection_gate": gate,
    }


# -- planning throughput (batched numpy planner vs scalar reference) ----------


def planning_throughput_benchmark(repeats: int) -> dict:
    """Batched numpy planner vs the scalar reference over SF100 workloads.

    Times a full planning pass (plan cache cleared inside the timed
    region) through ``engine.plan_many`` -- the batched numpy path --
    against a scalar ``engine.explain`` loop, which always runs the
    retained reference planner.  Two hard gates refuse the report:

    - every batched plan must equal the scalar plan node-for-node
      (dataclass ``repr`` comparison, so every cardinality and cost
      float is compared bit-for-bit), and ``estimate_many`` must match
      a scalar ``estimate_seconds`` loop ``repr``-exactly; and
    - the batched path must be ≥5x faster on every workload of ≥1000
      queries.
    """
    reps = max(3, repeats // 4)
    scale_up = "scale=100,dimension_tables=8,max_joins=6,max_filters=4"
    report: dict = {}
    for label, spec in (
        ("tpch-sf100", "tpch-sf100"),
        ("synthetic-200", f"synthetic:queries=200,{scale_up}"),
        ("synthetic-1000", f"synthetic:queries=1000,{scale_up}"),
        ("synthetic-2000", f"synthetic:queries=2000,{scale_up}"),
    ):
        workload = load_workload(spec)
        queries = list(workload.queries)
        engine = PostgresEngine(workload.catalog)

        def scalar_pass():
            engine._plan_cache.clear()
            return [engine.explain(query) for query in queries]

        def batched_pass():
            engine._plan_cache.clear()
            return engine.plan_many(queries)

        reference_plans = scalar_pass()  # warms catalog stats + statics
        batched_plans = batched_pass()
        for position, (ref, got) in enumerate(zip(reference_plans, batched_plans)):
            if repr(ref) != repr(got):
                raise SystemExit(
                    f"planning throughput ({label}): batched plan for query "
                    f"{queries[position].name!r} diverged from the scalar "
                    f"reference planner; refusing to write the report"
                )
        reference_seconds = [repr(engine.estimate_seconds(q)) for q in queries]
        batched_seconds = [repr(value) for value in engine.estimate_many(queries)]
        if reference_seconds != batched_seconds:
            raise SystemExit(
                f"planning throughput ({label}): estimate_many diverged from "
                f"the scalar estimate_seconds loop; refusing to write the report"
            )

        # Interleave the draws so both paths sample the same machine
        # conditions (after the pool-heavy sections above, load decays
        # over the measurement window; timing one path entirely before
        # the other biases the ratio), and give the much-shorter
        # batched pass extra draws per round to shed scheduler noise.
        reference_times, batched_times = [], []
        for _ in range(reps):
            start = time.perf_counter()
            scalar_pass()
            reference_times.append(time.perf_counter() - start)
            for _ in range(4):
                start = time.perf_counter()
                batched_pass()
                batched_times.append(time.perf_counter() - start)
        reference_s = min(reference_times)
        batched_s = min(batched_times)
        speedup = reference_s / batched_s
        gated = len(queries) >= 1000
        if gated and speedup < 5.0:
            raise SystemExit(
                f"planning throughput ({label}): batched planner is only "
                f"{speedup:.2f}x faster than the scalar reference over "
                f"{len(queries)} queries; 5x gate missed"
            )
        report[label] = {
            "queries": len(queries),
            "reference_s": round(reference_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(speedup, 2),
            "reference_queries_per_s": round(len(queries) / reference_s, 1),
            "batched_queries_per_s": round(len(queries) / batched_s, 1),
            "plans_identical": True,
            "seconds_identical": True,
            "speedup_gate": "≥5x" if gated else "informational",
        }
    return report


# -- evaluator throughput (segment-batched evaluate vs scalar loop) -----------


def evaluator_throughput_benchmark(tune_report: dict, repeats: int) -> dict:
    """Segment-batched ``evaluate`` vs the retained scalar per-query loop.

    Both paths run with warm plan/order/noise caches (one warm-up
    evaluate each); the scalar one runs under ``reference_mode()``, so
    the measurement isolates the execute-loop cost: one ``execute_many``
    cumsum per index-stable segment against one ``execute`` round-trip
    per query.  Three hard gates refuse the report:

    - the batched ``ConfigMeta`` (time, completion, index time,
      completed set, quarantine fields) and the engine clock must match
      the scalar run ``repr``-exactly, so every float is bit-identical;
    - the batched path must be ≥5x faster on workloads of ≥2000
      queries; and
    - chained to the committed ``BENCH_6.json``: the tuned TPC-H
      ``best_time`` from the ``full_tune`` section above must be within
      2% of that baseline (the batched execute path must not perturb
      what selection picks).
    """
    from repro.core.config import Configuration
    from repro.core.evaluator import ConfigMeta

    reps = max(3, repeats // 4)
    scale_up = "scale=100,dimension_tables=8,max_joins=6,max_filters=4"
    report: dict = {}

    def meta_label(meta, engine):
        return (
            repr(meta.time),
            meta.is_complete,
            repr(meta.index_time),
            tuple(sorted(meta.completed_queries)),
            meta.failed,
            meta.failure,
            repr(engine.clock.now),
        )

    for label, spec in (
        ("synthetic-500", f"synthetic:queries=500,{scale_up}"),
        ("synthetic-2000", f"synthetic:queries=2000,{scale_up}"),
    ):
        workload = load_workload(spec)
        queries = list(workload.queries)
        config = Configuration(
            name="throughput-probe", settings={"work_mem": "64MB"}
        )

        def run_evaluate(batched: bool):
            engine = PostgresEngine(workload.catalog)
            evaluator = ConfigurationEvaluator(engine)

            def one_pass():
                meta = ConfigMeta()
                evaluator.evaluate(config, queries, 1e12, meta)
                return meta

            with nullcontext() if batched else reference_mode():
                warm_meta = one_pass()  # warm plan/order/noise caches
                elapsed = _best_of(one_pass, reps)
            return meta_label(warm_meta, engine), elapsed

        batched_label, batched_s = run_evaluate(True)
        scalar_label, scalar_s = run_evaluate(False)
        # The warm-up metas came from fresh engines whose clocks advanced
        # differently afterwards; compare the first-evaluate labels only
        # up to the clock, then the clock from dedicated single runs.
        if batched_label[:-1] != scalar_label[:-1]:
            raise SystemExit(
                f"evaluator throughput ({label}): batched ConfigMeta "
                f"diverged from the scalar loop; refusing to write the report"
            )
        clocks = []
        for batched in (True, False):
            engine = PostgresEngine(workload.catalog)
            evaluator = ConfigurationEvaluator(engine)
            with nullcontext() if batched else reference_mode():
                evaluator.evaluate(config, queries, 1e12, ConfigMeta())
            clocks.append(repr(engine.clock.now))
        if clocks[0] != clocks[1]:
            raise SystemExit(
                f"evaluator throughput ({label}): batched engine clock "
                f"diverged from the scalar loop; refusing to write the report"
            )

        speedup = scalar_s / batched_s
        gated = len(queries) >= 2000
        if gated and speedup < 5.0:
            raise SystemExit(
                f"evaluator throughput ({label}): batched evaluate is only "
                f"{speedup:.2f}x faster than the scalar loop over "
                f"{len(queries)} queries; 5x gate missed"
            )
        report[label] = {
            "queries": len(queries),
            "scalar_s": round(scalar_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(speedup, 2),
            "scalar_queries_per_s": round(len(queries) / scalar_s, 1),
            "batched_queries_per_s": round(len(queries) / batched_s, 1),
            "result_identical": True,
            "speedup_gate": "≥5x" if gated else "informational",
        }

    baseline_path = REPO / "BENCH_6.json"
    gate: dict = {"baseline": baseline_path.name, "checked": False}
    if baseline_path.is_file():
        previous_tune = json.loads(baseline_path.read_text()).get("full_tune", {})
        old = previous_tune.get("tpch", {}).get("best_time")
        if old is not None:
            gate["checked"] = True
            new = tune_report["tpch"]["best_time"]
            ratio = float(new) / float(old)
            if ratio > 1.02:
                raise SystemExit(
                    f"selection time with batched execution is "
                    f"{(ratio - 1) * 100:.2f}% worse than {baseline_path.name} "
                    f"({old} -> {new}); 2% gate exceeded"
                )
            gate["bench6_best_time"] = old
            gate["best_time"] = new
            gate["slowdown_pct"] = round((ratio - 1) * 100, 4)
    else:
        gate["note"] = "no committed BENCH_6.json; gate skipped"
    report["selection_gate"] = gate
    return report


# -- pytest-benchmark consumption ---------------------------------------------


# -- process scale-out (multiprocess tune_many) --------------------------------


def scaling_benchmark(jobs: int = 8) -> dict:
    """Process-pool ``tune_many`` scaling curve.

    K CPU-bound TPC-H jobs (distinct seeds, ``realtime_factor=0`` so
    there is nothing for threads to overlap but pure Python/numpy
    work) through ``tune_many`` at 1 / 2 / 4 / 8 workers, thread vs
    process executors.  Hard gates:

    - every curve point's fingerprints must be byte-identical to the
      1-worker serial reference, and a re-run over a shared on-disk
      artifact cache must not perturb them;
    - the seed-9 job's ``best_time`` must stay within 2% of the
      committed ``BENCH_9.json`` full-tune value (expected
      bit-identical);
    - with ≥4 usable cores, 4 process workers must be ≥2.5x faster
      than 1 (CPU-bound work scales only across real cores, so on
      smaller hosts the curve is informational, like the
      ``speedup_gate`` idiom in the planning section).
    """
    workload = tpch_workload()
    batch = [
        BatchJob(workload=workload, options=TUNE_OPTIONS.ablated(seed=9 + i))
        for i in range(jobs)
    ]

    start = time.perf_counter()
    reference = tune_many(batch, max_workers=1)
    serial_s = time.perf_counter() - start
    reference_prints = [_fingerprint(result) for result in reference]

    try:
        usable_cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable_cores = os.cpu_count() or 1
    gated = usable_cores >= 4

    curve: dict = {}
    for executor in ("thread", "process"):
        for workers in (1, 2, 4, 8):
            start = time.perf_counter()
            results = tune_many(batch, executor=executor, max_workers=workers)
            wall = time.perf_counter() - start
            prints = [_fingerprint(result) for result in results]
            if prints != reference_prints:
                raise SystemExit(
                    f"scaling: {executor} executor at {workers} workers "
                    "diverged from the serial reference"
                )
            curve[f"{executor}_x{workers}"] = {
                "wall_s": round(wall, 4),
                "speedup": round(serial_s / wall, 2),
                "result_identical": True,
            }

    # Shared on-disk cache across process workers: same fingerprints.
    with tempfile.TemporaryDirectory() as tmp:
        cached = tune_many(
            batch, executor="process", max_workers=2, cache_dir=tmp
        )
    if [_fingerprint(result) for result in cached] != reference_prints:
        raise SystemExit(
            "scaling: a shared disk cache perturbed process-worker results"
        )

    process_x4 = curve["process_x4"]["speedup"]
    if gated and process_x4 < 2.5:
        raise SystemExit(
            f"scaling: 4 process workers gained only {process_x4}x over "
            f"serial on {usable_cores} cores; ≥2.5x gate failed"
        )

    baseline_path = REPO / "BENCH_9.json"
    gate: dict = {"baseline": baseline_path.name, "checked": False}
    if baseline_path.is_file():
        previous_tune = json.loads(baseline_path.read_text()).get(
            "full_tune", {}
        )
        old = previous_tune.get("tpch", {}).get("best_time")
        if old is not None:
            gate["checked"] = True
            new = reference_prints[0]["best_time"]
            ratio = float(new) / float(old)
            if ratio > 1.02:
                raise SystemExit(
                    f"scaling: seed-9 best_time is {(ratio - 1) * 100:.2f}% "
                    f"worse than {baseline_path.name} ({old} -> {new}); "
                    "2% gate exceeded"
                )
            gate["bench9_best_time"] = old
            gate["best_time"] = new
            gate["slowdown_pct"] = round((ratio - 1) * 100, 4)
    else:
        gate["note"] = "no committed BENCH_9.json; gate skipped"

    return {
        "jobs": jobs,
        "workload": f"tpch (seeds 9..{9 + jobs - 1})",
        "usable_cores": usable_cores,
        "serial_s": round(serial_s, 4),
        "curve": curve,
        "shared_cache_identical": True,
        "speedup_gate": "≥2.5x at process_x4" if gated else "informational",
        "selection_gate": gate,
    }


def pytest_benchmarks() -> dict | None:
    """Run the perf suite with --benchmark-json and summarize its stats."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "pytest_bench.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "benchmarks/test_perf_scheduler.py",
                "-m",
                "slow",
                f"--benchmark-json={json_path}",
            ],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout[-2000:], file=sys.stderr)
            raise SystemExit("pytest benchmark run failed")
        data = json.loads(json_path.read_text())
    return {
        bench["name"]: {
            "mean_ms": round(bench["stats"]["mean"] * 1e3, 4),
            "min_ms": round(bench["stats"]["min"] * 1e3, 4),
            "rounds": bench["stats"]["rounds"],
        }
        for bench in data["benchmarks"]
    }


# -- entry point --------------------------------------------------------------

#: Section name -> implementing benchmark function.  ``--sections``
#: validates against this registry, and the tier-1 smoke test imports
#: it to assert every section is a live callable.
SECTIONS = {
    "dp_microbench": dp_microbench,
    "full_tune": tune_benchmark,
    "regression_gate": regression_gate,
    "compile_cache": compile_cache_benchmark,
    "fault_injection": fault_overhead_benchmark,
    "sessions": session_benchmark,
    "artifact_cache": artifact_cache_benchmark,
    "batched_tuning": batched_tuning_benchmark,
    "service_throughput": service_throughput_benchmark,
    "multi_objective": multi_objective_benchmark,
    "planning_throughput": planning_throughput_benchmark,
    "evaluator_throughput": evaluator_throughput_benchmark,
    "scaling": scaling_benchmark,
    "pytest": pytest_benchmarks,
}

#: Sections whose gates consume the full-tune report; requesting any of
#: them via ``--sections`` pulls ``full_tune`` in automatically.
NEEDS_FULL_TUNE = frozenset(
    ("regression_gate", "fault_injection", "evaluator_throughput",
     "multi_objective")
)


def _parse_sections(text: str) -> set[str]:
    names = {name.strip() for name in text.split(",") if name.strip()}
    unknown = names - set(SECTIONS)
    if unknown:
        raise SystemExit(
            f"unknown section(s) {sorted(unknown)}; "
            f"choose from {sorted(SECTIONS)}"
        )
    if names & NEEDS_FULL_TUNE:
        names.add("full_tune")
    return names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", type=Path, default=None,
        help="report destination (default: BENCH_10.json at the repo "
             "root for a full run; subset runs write no file unless "
             "--output is given)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repeats; for smoke-testing the harness itself",
    )
    parser.add_argument(
        "--skip-pytest", action="store_true",
        help="skip the pytest-benchmark suite (microbench + tune only)",
    )
    parser.add_argument(
        "--sections", type=_parse_sections, default=None,
        metavar="NAME[,NAME...]",
        help="run only the named sections (e.g. --sections scaling); "
             f"known: {', '.join(sorted(SECTIONS))}",
    )
    args = parser.parse_args()

    selected = args.sections if args.sections is not None else set(SECTIONS)
    output = args.output
    if output is None and args.sections is None:
        output = REPO / "BENCH_10.json"
    if output is not None and not output.parent.is_dir():
        parser.error(f"output directory does not exist: {output.parent}")

    dp_repeats = 5 if args.quick else 30
    tune_rounds = 1 if args.quick else 3
    compile_repeats = 5 if args.quick else 20
    realtime_factor = 0.003 if args.quick else 0.01

    report: dict = {}

    if "dp_microbench" in selected:
        print("== DP microbench (bitmask vs reference) ==")
        dp_report = dp_microbench(dp_repeats)
        for label, row in dp_report.items():
            print(
                f"  {label}: {row['reference_ms']:.2f} ms -> "
                f"{row['bitmask_ms']:.2f} ms ({row['speedup']}x)"
            )
        report["dp_microbench"] = dp_report

    tune_report = {}
    if "full_tune" in selected:
        for workload_name in ("tpch", "job"):
            print(f"== full tune() on {workload_name} ==")
            tune_report[workload_name] = tune_benchmark(
                workload_name, tune_rounds
            )
            row = tune_report[workload_name]
            print(
                f"  {row['reference_s']:.2f} s -> {row['optimized_s']:.2f} s "
                f"({row['speedup']}x), identical={row['result_identical']}"
            )
        report["full_tune"] = tune_report

    if "regression_gate" in selected:
        gate_report = regression_gate(tune_report)
        print(f"== regression gate vs {gate_report['baseline']} ==")
        print(f"  checked={gate_report['checked']}, no regressions")
        report["regression_gate"] = gate_report

    if "compile_cache" in selected:
        print("== workload compile cache ==")
        compile_report = compile_cache_benchmark(compile_repeats)
        print(
            f"  {compile_report['uncached_ms']:.2f} ms -> "
            f"{compile_report['cached_ms']:.4f} ms "
            f"({compile_report['speedup']}x)"
        )
        report["compile_cache"] = compile_report

    if "fault_injection" in selected:
        print("== fault-injection overhead + chaos quarantine ==")
        fault_report = fault_overhead_benchmark(tune_report, compile_repeats)
        hot = fault_report["execute_hot_path"]
        print(
            f"  execute hot path: {hot['plan_none_ms']:.3f} ms (no plan) vs "
            f"{hot['inert_plan_ms']:.3f} ms (inert plan), "
            f"{hot['inert_plan_overhead_pct']:+.2f}%"
        )
        chaos = fault_report["chaos_quarantine"]
        print(
            f"  chaos: quarantined {chaos['failed_configs']}, best survivor "
            f"{chaos['best_config']}"
        )
        report["fault_injection"] = fault_report

    if "sessions" in selected:
        print("== crash-safe sessions (journal overhead + resume) ==")
        session_report = session_benchmark(compile_repeats)
        print(
            f"  journaled tune: "
            f"identical={session_report['result_identical']}, "
            f"wall overhead "
            f"{session_report['journal_wall_overhead_pct']:+.2f}% "
            f"({session_report['journal_events']} events); resume from "
            f"boundary {session_report['resume_boundary']}: "
            f"identical={session_report['resume_identical']}"
        )
        report["sessions"] = session_report

    if "artifact_cache" in selected:
        print("== persistent artifact cache (cold vs warm full tune) ==")
        cache_report = artifact_cache_benchmark(compile_repeats)
        print(
            f"  cold {cache_report['cold_s']:.3f} s -> warm "
            f"{cache_report['warm_s']:.3f} s "
            f"({cache_report['warm_speedup_vs_cold']}x, "
            f"{cache_report['warm_disk_hits']} disk hits), "
            f"identical={cache_report['result_identical']}"
        )
        report["artifact_cache"] = cache_report

    if "batched_tuning" in selected:
        print("== batched multi-workload tuning (shared vs isolated cache) ==")
        batch_report = batched_tuning_benchmark(realtime_factor)
        print(
            f"  3 isolated cold runs {batch_report['isolated_cold_s']:.2f} s "
            f"-> shared cache {batch_report['shared_cache_s']:.2f} s "
            f"({batch_report['speedup']}x), "
            f"identical={batch_report['result_identical']}"
        )
        report["batched_tuning"] = batch_report

    if "service_throughput" in selected:
        print("== service throughput (K jobs via TuningServer vs sequential) ==")
        service_report = service_throughput_benchmark(realtime_factor)
        print(
            f"  {service_report['jobs']} sequential tune() calls "
            f"{service_report['sequential_s']:.2f} s -> served "
            f"{service_report['served_s']:.2f} s "
            f"({service_report['speedup']}x), "
            f"identical={service_report['result_identical']}"
        )
        report["service_throughput"] = service_report

    if "multi_objective" in selected:
        print("== multi-objective tuning (resource budget vs latency-only) ==")
        objective_report = multi_objective_benchmark(tune_report)
        print(
            f"  budget {objective_report['budget']}: quarantined "
            f"{objective_report['quarantined']}, winner "
            f"{objective_report['best_config']} "
            f"({objective_report['winner_peak_memory_gb']} GB peak, tier "
            f"{objective_report['cheapest_tier']}), latency cost "
            f"{objective_report['latency_cost_of_budget_pct']:+.2f}%"
        )
        report["multi_objective"] = objective_report

    if "planning_throughput" in selected:
        print("== planning throughput (batched numpy planner vs scalar) ==")
        planning_report = planning_throughput_benchmark(compile_repeats)
        for label, row in planning_report.items():
            print(
                f"  {label}: {row['queries']} queries, "
                f"{row['reference_s']:.3f} s -> {row['batched_s']:.3f} s "
                f"({row['speedup']}x, gate {row['speedup_gate']})"
            )
        report["planning_throughput"] = planning_report

    if "evaluator_throughput" in selected:
        print("== evaluator throughput (segment-batched evaluate vs scalar) ==")
        evaluator_report = evaluator_throughput_benchmark(
            tune_report, compile_repeats
        )
        for label, row in evaluator_report.items():
            if "queries" in row:
                print(
                    f"  {label}: {row['queries']} queries, "
                    f"{row['scalar_s']:.3f} s -> {row['batched_s']:.3f} s "
                    f"({row['speedup']}x, gate {row['speedup_gate']})"
                )
        report["evaluator_throughput"] = evaluator_report

    if "scaling" in selected:
        print("== process scale-out (tune_many workers curve) ==")
        scaling_report = scaling_benchmark()
        for label, row in scaling_report["curve"].items():
            print(
                f"  {label}: {row['wall_s']:.2f} s ({row['speedup']}x), "
                f"identical={row['result_identical']}"
            )
        print(
            f"  gate {scaling_report['speedup_gate']} "
            f"on {scaling_report['usable_cores']} cores"
        )
        report["scaling"] = scaling_report

    report["python"] = sys.version.split()[0]
    if "pytest" in selected and not args.skip_pytest:
        print("== pytest-benchmark suite ==")
        report["pytest_benchmarks"] = pytest_benchmarks()

    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {output}")


if __name__ == "__main__":
    main()
