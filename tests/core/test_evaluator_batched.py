"""Batched execution (``execute_many`` + segment-batched evaluate).

The batched path must be *byte-identical* to the per-query reference
loop in ``tests.oracles`` -- same completed-query sets, same ``ConfigMeta.time``
floats, same quarantine labels, same ``TuningResult.fingerprint()`` --
across seeds and chaos fault plans.  The suite pins:

- the keystone numeric fact: ``np.cumsum`` over float64 performs the
  same left-to-right IEEE-754 addition chain as sequential ``+=``
  (and ``a - b == a + (-b)``), so prefix-sum timeout cuts and one-jump
  clock advances are exact;
- micro equivalence of ``execute_many`` against a scalar ``execute``
  loop, including exact-tie timeouts, exhausted budgets, ``None``
  timeouts, and fault plans (crash / OOM / transient-storm truncation);
- ``evaluate`` equivalence with lazy index creation (multi-segment
  orders) and quarantine parity under chaos plans;
- full-tune fingerprints across 8 seeds x chaos densities, plus the
  candidate sets with exact timeout ties and a final pass that improves
  ``best``; and
- resume from a journal boundary that falls mid-segment: the resumed
  evaluate starts inside what the uninterrupted run executed as one
  index-stable segment, and must still fingerprint identically.
"""

import json
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.config import Configuration
from repro.core.evaluator import ConfigMeta, ConfigurationEvaluator
from repro.db.clock import VirtualClock
from repro.db.indexes import Index
from repro.db.postgres import PostgresEngine
from repro.errors import EngineFaultError
from repro.faults import FaultPlan
from repro.session import codec
from tests.faults.test_chaos import chaos_plan, chaos_tune
from tests.faults.test_chaos import fingerprint as tune_fingerprint
from tests.oracles import reference_mode
from tests.session.conftest import (
    fingerprint as session_fingerprint,
)
from tests.session.conftest import (
    journaled_tune,
    plain_tune,
    resume_tune,
)

SEEDS = list(range(8))
DENSITIES = (0.05, 0.15, 0.4)


def scalar_segment_run(engine, queries, timeout):
    """The scalar loop ``execute_many`` replaces, threading the timeout
    exactly as ``tests.oracles.evaluate_scalar`` does."""
    remaining = timeout
    times = []
    complete = True
    fault = None
    for query in queries:
        try:
            result = engine.execute(query, timeout=remaining)
        except EngineFaultError as error:
            fault = error
            complete = False
            break
        if not result.complete:
            complete = False
            break
        if remaining is not None:
            remaining -= result.execution_time
        times.append(result.execution_time)
    return times, complete, remaining, fault


def fault_label(fault):
    if fault is None:
        return None
    return (type(fault).__name__, str(fault), fault.site, fault.key, fault.seed)


# -- the keystone numeric facts ------------------------------------------------


class TestCumsumBitIdentity:
    def test_cumsum_matches_sequential_accumulation(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            values = rng.uniform(1e-4, 30.0, size=rng.integers(1, 200))
            start = float(rng.uniform(0.0, 1e4))
            chain = np.cumsum(np.concatenate(((start,), values)))
            acc = start
            for position, value in enumerate(values, start=1):
                acc += float(value)
                assert repr(acc) == repr(float(chain[position])), (
                    f"cumsum diverged from += at trial {trial}, "
                    f"position {position}"
                )

    def test_subtraction_chain_matches_negated_cumsum(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            values = rng.uniform(1e-4, 5.0, size=rng.integers(1, 100))
            timeout = float(rng.uniform(0.0, 100.0))
            chain = np.cumsum(np.concatenate(((timeout,), np.negative(values))))
            remaining = timeout
            for position, value in enumerate(values, start=1):
                remaining -= float(value)
                assert repr(remaining) == repr(float(chain[position])), (
                    f"a - b != a + (-b) chain at trial {trial}"
                )

    def test_advance_many_matches_advance_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            values = rng.uniform(1e-4, 10.0, size=rng.integers(0, 50))
            one = VirtualClock(5.0)
            many = VirtualClock(5.0)
            for value in values:
                one.advance(float(value))
            many.advance_many(values)
            assert repr(one.now) == repr(many.now)


# -- execute_many micro equivalence --------------------------------------------


class TestExecuteManyMicro:
    def check(self, workload, queries, timeout, plan=None):
        scalar_engine = PostgresEngine(workload.catalog)
        batched_engine = PostgresEngine(workload.catalog)
        if plan is not None:
            scalar_engine.install_faults(plan)
            batched_engine.install_faults(plan)

        times, complete, remaining, fault = scalar_segment_run(
            scalar_engine, queries, timeout
        )
        batch = batched_engine.execute_many(queries, timeout=timeout)

        context = f"timeout={timeout!r}, plan={plan!r}"
        assert [repr(t) for t in times] == [
            repr(float(t)) for t in batch.times
        ], context
        assert complete == batch.complete, context
        if remaining is None:
            assert batch.remaining is None, context
        else:
            assert repr(remaining) == repr(batch.remaining), context
        assert fault_label(fault) == fault_label(batch.fault), context
        assert repr(scalar_engine.clock.now) == repr(
            batched_engine.clock.now
        ), context

    def test_no_timeout_runs_everything(self, tpch):
        self.check(tpch, list(tpch.queries), None)

    def test_exhausted_budget_is_an_immediate_cut(self, tpch):
        self.check(tpch, list(tpch.queries), 0.0)
        self.check(tpch, list(tpch.queries), -1.0)

    def test_timeout_sweep(self, tpch):
        queries = list(tpch.queries)
        probe = PostgresEngine(tpch.catalog)
        full = probe.execute_many(queries, timeout=None)
        total = float(np.cumsum(full.times)[-1])
        for fraction in (0.001, 0.01, 0.2, 0.5, 0.9, 0.999, 1.5):
            self.check(tpch, queries, total * fraction)

    def test_exact_tie_timeout(self, tpch):
        """A budget equal to the float prefix sum, to the bit: the next
        query must see remaining == 0.0 and cut with no clock advance."""
        queries = list(tpch.queries)
        probe = PostgresEngine(tpch.catalog)
        full = probe.execute_many(queries, timeout=None)
        for prefix in (1, 3, len(queries) - 1):
            remaining = 0.0
            for value in full.times[:prefix]:
                remaining += float(value)
            self.check(tpch, queries, remaining)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_plans(self, tpch, seed):
        queries = list(tpch.queries)
        plan = FaultPlan(seed=seed, density=DENSITIES[seed % len(DENSITIES)])
        for timeout in (None, 0.5, 5.0, 50.0):
            self.check(tpch, queries, timeout, plan=plan)

    def test_transient_storm_truncates_identically(self, tpch):
        """A storm beyond the retry budget surfaces the same
        TransientEngineError at the same query."""
        queries = list(tpch.queries)
        for seed in SEEDS:
            plan = FaultPlan(
                seed=seed, density=0.6, sites={"engine.io_transient"}
            )
            for timeout in (None, 0.05, 10.0):
                self.check(tpch, queries, timeout, plan=plan)


# -- evaluate equivalence (multi-segment, quarantine) --------------------------


def eval_config():
    return Configuration(
        name="batched-probe",
        settings={"work_mem": "64MB", "shared_buffers": "2GB"},
        indexes=[Index("events", ("user_id2",)), Index("users", ("age",))],
    )


def meta_label(meta):
    return (
        repr(meta.time),
        meta.is_complete,
        repr(meta.index_time),
        tuple(sorted(meta.completed_queries)),
        meta.failed,
        meta.failure,
    )


class TestEvaluateBatchedEqualsScalar:
    def run_pair(
        self, workload, timeout, plan=None, config=None, preexisting=(), **options
    ):
        labels = []
        clocks = []
        builds = []
        for batched in (True, False):
            engine = PostgresEngine(workload.catalog)
            for index in preexisting:
                engine.create_index(index)
            if plan is not None:
                engine.install_faults(plan)
            built = []
            create_index = engine.create_index

            def counted_create_index(index, create_index=create_index, built=built):
                built.append(index)
                return create_index(index)

            engine.create_index = counted_create_index
            evaluator = ConfigurationEvaluator(engine, **options)
            meta = ConfigMeta()
            with nullcontext() if batched else reference_mode():
                evaluator.evaluate(
                    config or eval_config(), list(workload.queries), timeout, meta
                )
            labels.append(meta_label(meta))
            clocks.append(repr(engine.clock.now))
            builds.append(built)
        assert labels[0] == labels[1], f"timeout={timeout!r}, plan={plan!r}"
        assert clocks[0] == clocks[1], f"timeout={timeout!r}, plan={plan!r}"
        assert builds[0] == builds[1], f"timeout={timeout!r}, plan={plan!r}"

    def test_lazy_multi_segment(self, tiny_workload):
        for timeout in (0.001, 0.05, 0.5, 10.0):
            self.run_pair(tiny_workload, timeout)

    def test_repeated_and_renamed_indexes(self, tiny_workload):
        """A repeated entry, one key under two names, and a preexisting
        index under a third: a build covers every name of its key, as
        ``has_index`` does in the per-query loop."""
        config = Configuration(
            name="renamed-probe",
            indexes=[
                Index("events", ("user_id2",)),
                Index("events", ("user_id2",), name="a_user_id2"),
                Index("users", ("age",)),
                Index("users", ("age",)),
                Index("events", ("kind", "payload")),
                Index("users", ("country",), name="z_country"),
            ],
        )
        for preexisting in ((), (Index("users", ("country",)),)):
            for timeout in (0.001, 0.05, 10.0):
                self.run_pair(
                    tiny_workload, timeout, config=config, preexisting=preexisting
                )

    def test_eager_indexes_single_segment(self, tiny_workload):
        self.run_pair(tiny_workload, 10.0, lazy_indexes=False)

    def test_no_scheduler(self, tiny_workload):
        self.run_pair(tiny_workload, 10.0, use_scheduler=False)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_quarantine_labels_match(self, tiny_workload, seed):
        plan = FaultPlan(seed=seed, density=0.5)
        for timeout in (0.05, 10.0):
            self.run_pair(tiny_workload, timeout, plan=plan)


# -- full-tune fingerprints: seeds x chaos densities ---------------------------

#: Fault-free tunes over candidate sets the seeded inputs never build.
#: k=32 makes the mock LLM repeat scripts, so a duplicate's final-pass
#: timeout ``best.time - meta.time`` equals its remaining run to the
#: bit; seed 0 at a 1 s initial timeout has a final pass in which a
#: candidate after the first improves ``best``, shrinking the timeouts
#: of the candidates after it.
EXTRA_TUNES = [
    pytest.param(
        None,
        dict(num_configs=32, initial_timeout=0.1, alpha=1.5),
        id="duplicates-at-exact-timeout-ties",
    ),
    pytest.param(
        None,
        dict(seed=0, initial_timeout=1.0),
        id="final-pass-improves-best",
    ),
]


class TestFullTuneEquivalence:
    @pytest.mark.parametrize(
        "seed,option_changes",
        [pytest.param(seed, {}, id=str(seed)) for seed in SEEDS] + EXTRA_TUNES,
    )
    def test_batched_tune_fingerprints_scalar(self, tpch, seed, option_changes):
        faulty = seed is not None and seed % 4 != 0
        plan = chaos_plan(seed) if faulty else None
        kwargs = dict(llm_faults=faulty, **option_changes)

        batched = chaos_tune(tpch, plan, **kwargs)
        with reference_mode():
            scalar = chaos_tune(tpch, plan, **kwargs)
        assert tune_fingerprint(batched) == tune_fingerprint(scalar), (
            f"batched tune diverged from scalar reference "
            f"(seed={seed}, options={option_changes}, plan={plan!r})"
        )


# -- resume across a mid-segment journal boundary ------------------------------


class TestResumeMidSegment:
    def test_mid_segment_boundaries_resume_identically(self, tpch, tmp_path):
        reference = plain_tune(tpch)
        with reference_mode():
            scalar = plain_tune(tpch)
        assert session_fingerprint(reference) == session_fingerprint(scalar)

        path = tmp_path / "run.journal"
        journaled = journaled_tune(tpch, path)
        assert session_fingerprint(journaled) == session_fingerprint(reference)

        lines = path.read_text().splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        # A boundary is *mid-segment* when the interrupted candidate has
        # partial progress: its journaled meta shows completed queries
        # but no completion, so the resumed evaluate re-enters the
        # workload inside what the uninterrupted run executed as one
        # index-stable segment (the pending set starts mid-run).
        boundaries = []
        for position, record in enumerate(records):
            if record["kind"] != "update_folded":
                continue
            meta = codec.decode(record["payload"])["meta"]
            if meta.completed_queries and not meta.is_complete:
                boundaries.append(position + 1)
        assert boundaries, "no mid-segment update boundary in the journal"

        for boundary in boundaries[:6]:
            trunc = tmp_path / "crash.journal"
            trunc.write_text("".join(lines[:boundary]))
            resumed = resume_tune(tpch, trunc)
            assert session_fingerprint(resumed) == session_fingerprint(
                reference
            ), f"mid-segment resume diverged at boundary {boundary}"
