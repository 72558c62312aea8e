"""Engine-level fault hooks: crashes, interruptions, I/O storms, OOM.

Every test drives the *public* engine API (``execute``,
``create_index``) with a single-site :class:`FaultPlan` installed and
checks the contract documented in ``repro.faults``: partial work is
charged to the clock, no state mutation survives a fault, every raised
error carries its ``(seed, site, key)`` replay label, and with no plan
installed the hooks are invisible.
"""

import pytest

from repro.db.hardware import HardwareSpec
from repro.db.indexes import Index
from repro.db.postgres import PostgresEngine
from repro.errors import EngineFaultError, TransientEngineError
from repro.faults import (
    ENGINE_INDEX_INTERRUPT,
    ENGINE_IO_TRANSIENT,
    ENGINE_OOM,
    ENGINE_QUERY_CRASH,
    FaultPlan,
)

QUERY = "SELECT count(*) FROM users WHERE country = 'US'"


def fresh_engine(tiny_catalog, plan=None):
    engine = PostgresEngine(tiny_catalog, HardwareSpec(memory_gb=61.0, cores=8))
    if plan is not None:
        engine.install_faults(plan)
    return engine


class TestNoPlan:
    def test_hooks_default_off(self, tiny_catalog):
        engine = fresh_engine(tiny_catalog)
        assert engine.fault_plan is None
        result = engine.execute(QUERY)
        assert result.complete

    def test_install_and_remove(self, tiny_catalog):
        plan = FaultPlan(seed=1, density=1.0, sites={ENGINE_QUERY_CRASH})
        engine = fresh_engine(tiny_catalog, plan)
        assert engine.fault_plan is plan
        engine.install_faults(None)
        assert engine.execute(QUERY).complete

    def test_zero_density_plan_is_inert(self, tiny_catalog):
        baseline = fresh_engine(tiny_catalog).execute(QUERY)
        engine = fresh_engine(tiny_catalog, FaultPlan(seed=1, density=0.0))
        result = engine.execute(QUERY)
        assert result.complete
        assert result.execution_time == baseline.execution_time


class TestQueryCrash:
    PLAN = FaultPlan(seed=8, density=1.0, sites={ENGINE_QUERY_CRASH})

    def test_crash_raises_with_replay_label(self, tiny_catalog):
        engine = fresh_engine(tiny_catalog, self.PLAN)
        with pytest.raises(EngineFaultError) as excinfo:
            engine.execute(QUERY)
        error = excinfo.value
        assert error.site == ENGINE_QUERY_CRASH
        assert error.seed == 8
        assert error.key is not None and error.key.startswith("query:")
        # The replay pair is embedded in the message itself, so a bare
        # traceback is enough to reproduce the fault.
        assert "site='engine.query_crash'" in str(error)
        assert "seed=8" in str(error)

    def test_crash_charges_partial_runtime(self, tiny_catalog):
        full = fresh_engine(tiny_catalog).execute(QUERY).execution_time
        engine = fresh_engine(tiny_catalog, self.PLAN)
        before = engine.clock.now
        with pytest.raises(EngineFaultError):
            engine.execute(QUERY)
        sunk = engine.clock.now - before
        # The crash lands mid-query: some work was done, but less than a
        # complete execution.
        assert 0.0 <= sunk < full

    def test_timeout_shields_the_crash(self, tiny_catalog):
        # If the caller's timeout would fire before the crash point, the
        # caller sees an ordinary incomplete execution -- the serial and
        # speculative paths must agree on which queries even *can* crash.
        engine = fresh_engine(tiny_catalog, self.PLAN)
        probe = fresh_engine(tiny_catalog)
        seconds = probe.execute(QUERY).execution_time
        key = f"query:by_country|{engine.config_signature:016x}"
        sunk = seconds * self.PLAN.magnitude(ENGINE_QUERY_CRASH, key)
        timeout = sunk * 0.5
        result = engine.execute(QUERY, timeout=timeout)
        assert not result.complete
        assert result.execution_time == timeout

    def test_crash_depends_on_configuration(self, tiny_catalog):
        # Keys fold in the config signature: the same query may crash
        # under one candidate and survive under another (paper §4).
        plan = FaultPlan(seed=8, density=0.5, sites={ENGINE_QUERY_CRASH})
        outcomes = set()
        for work_mem in (4 << 20, 8 << 20, 16 << 20, 64 << 20, 256 << 20):
            engine = fresh_engine(tiny_catalog, plan)
            engine.set_many({"work_mem": work_mem})
            try:
                engine.execute(QUERY)
                outcomes.add((work_mem, "ok"))
            except EngineFaultError:
                outcomes.add((work_mem, "crash"))
        assert {kind for _, kind in outcomes} == {"ok", "crash"}

    def test_determinism_across_engines(self, tiny_catalog):
        plan = FaultPlan(seed=4, density=0.5, sites={ENGINE_QUERY_CRASH})

        def run():
            engine = fresh_engine(tiny_catalog, plan)
            log = []
            for name in ("by_country", "join_all", "kind_filter"):
                sql = {
                    "by_country": QUERY,
                    "join_all": "SELECT count(*) FROM users u, events e "
                    "WHERE u.user_id = e.user_id2",
                    "kind_filter": "SELECT count(*) FROM events WHERE kind = 'x'",
                }[name]
                try:
                    log.append(repr(engine.execute(sql).execution_time))
                except EngineFaultError as error:
                    log.append(f"crash:{error.key}")
            return log, repr(engine.clock.now)

        assert run() == run()


class TestIndexInterrupt:
    PLAN = FaultPlan(seed=6, density=1.0, sites={ENGINE_INDEX_INTERRUPT})

    def test_interrupt_leaves_no_index_behind(self, tiny_catalog):
        engine = fresh_engine(tiny_catalog, self.PLAN)
        index = Index("users", ("country",))
        before = engine.clock.now
        with pytest.raises(EngineFaultError) as excinfo:
            engine.create_index(index)
        assert excinfo.value.site == ENGINE_INDEX_INTERRUPT
        assert index.key not in {i.key for i in engine.indexes}
        # The partial build still cost clock time.
        assert engine.clock.now >= before

    def test_interrupted_build_charges_less_than_full(self, tiny_catalog):
        clean = fresh_engine(tiny_catalog)
        full = clean.create_index(Index("users", ("country",)))
        engine = fresh_engine(tiny_catalog, self.PLAN)
        before = engine.clock.now
        with pytest.raises(EngineFaultError):
            engine.create_index(Index("users", ("country",)))
        assert engine.clock.now - before < full


class TestTransientIO:
    def test_retries_inflate_runtime_only(self, tiny_catalog):
        # Within the engine's internal retry budget the query completes;
        # each retry costs io_retry_seconds of extra runtime.
        plan = FaultPlan(
            seed=2, density=1.0, sites={ENGINE_IO_TRANSIENT}, max_transient=2
        )
        baseline = fresh_engine(tiny_catalog).execute(QUERY).execution_time
        engine = fresh_engine(tiny_catalog, plan)
        key = f"query:by_country|{engine.config_signature:016x}"
        retries = plan.transient_count(ENGINE_IO_TRANSIENT, key)
        assert 1 <= retries <= engine.max_io_retries
        result = engine.execute(QUERY)
        assert result.complete
        expected = baseline + retries * engine.io_retry_seconds
        assert result.execution_time == pytest.approx(expected)

    def test_storm_exceeding_budget_raises_transient_error(self, tiny_catalog):
        plan = FaultPlan(
            seed=2, density=1.0, sites={ENGINE_IO_TRANSIENT}, max_transient=12
        )
        engine = fresh_engine(tiny_catalog, plan)
        key = f"query:by_country|{engine.config_signature:016x}"
        assert plan.transient_count(ENGINE_IO_TRANSIENT, key) > engine.max_io_retries
        with pytest.raises(TransientEngineError) as excinfo:
            engine.execute(QUERY)
        assert excinfo.value.site == ENGINE_IO_TRANSIENT
        assert issubclass(TransientEngineError, EngineFaultError)


class TestOOM:
    PLAN = FaultPlan(seed=3, density=1.0, sites={ENGINE_OOM})

    OVERSUBSCRIBED = {
        "shared_buffers": int(61.0 * (1 << 30) * 0.9),
        "work_mem": int(61.0 * (1 << 30) * 0.25),
        "max_parallel_workers_per_gather": 8,
    }

    def test_no_oom_under_sane_memory_settings(self, tiny_catalog):
        engine = fresh_engine(tiny_catalog, self.PLAN)
        assert engine.runtime_env().swap_factor <= engine.oom_swap_threshold
        assert engine.execute(QUERY).complete

    def test_oom_kill_when_memory_oversubscribed(self, tiny_catalog):
        engine = fresh_engine(tiny_catalog, self.PLAN)
        engine.set_many(self.OVERSUBSCRIBED)
        assert engine.runtime_env().swap_factor > engine.oom_swap_threshold
        with pytest.raises(EngineFaultError) as excinfo:
            engine.execute(QUERY)
        assert excinfo.value.site == ENGINE_OOM
        assert "out of memory" in str(excinfo.value)

    def test_oom_site_disabled_is_harmless(self, tiny_catalog):
        plan = FaultPlan(seed=3, density=1.0, sites={ENGINE_INDEX_INTERRUPT})
        engine = fresh_engine(tiny_catalog, plan)
        engine.set_many(self.OVERSUBSCRIBED)
        assert engine.execute(QUERY).complete
