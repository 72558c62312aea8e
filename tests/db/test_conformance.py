"""The shared engine conformance harness.

Every backend in the registry -- PostgreSQL, MySQL, the columnar
engine, and anything registered later -- must honour the same contract:
valid defaults, typed rejection of bad and hardware-infeasible knob
values, atomic apply/reset round-trips, bit-stable state capture and
restore onto a second engine (a fork), deterministic resource
footprints, and independence from ``PYTHONHASHSEED``.  This replaces the generic system-identity tests
that used to be copy-pasted per engine in ``test_postgres.py`` /
``test_mysql.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.db.hardware import HardwareSpec
from repro.db.indexes import Index
from repro.db.knobs import HARDWARE_HEADROOM, KnobCategory, KnobKind
from repro.db.registry import (
    available_engines,
    create_engine,
    display_name,
    engine_info,
    register_engine,
    unregister_engine,
)
from repro.errors import HardwareLimitError, KnobError, ReproError
from repro.llm.scripts import render_script

SYSTEMS = available_engines()
HARDWARE = HardwareSpec(memory_gb=61.0, cores=8)
#: Small enough that 4x RAM sits far below the static knob maxima.
TINY_HARDWARE = HardwareSpec(memory_gb=1.0, cores=2)

JOIN_SQL = (
    "SELECT u.country, count(*) FROM users u, events e "
    "WHERE u.user_id = e.user_id2 GROUP BY u.country"
)


@pytest.fixture(params=SYSTEMS)
def system(request) -> str:
    return request.param


@pytest.fixture()
def engine(system, tiny_catalog):
    return create_engine(system, tiny_catalog, HARDWARE)


def memory_pool_knobs(engine):
    """The SIZE/MEMORY knobs -- the ones hardware caps apply to."""
    return [
        knob
        for knob in engine.knob_space
        if knob.kind is KnobKind.SIZE and knob.category is KnobCategory.MEMORY
    ]


def tunable_knob(engine):
    """A deterministic numeric knob with room above its default."""
    for knob in sorted(engine.knob_space, key=lambda k: k.name):
        if knob.kind in (KnobKind.SIZE, KnobKind.INTEGER):
            if knob.maximum is not None and knob.maximum > knob.default:
                value = knob.clamp(knob.default * 2 + 1)
                if knob.hardware_maximum is not None:
                    value = min(value, knob.hardware_maximum)
                if value != knob.default:
                    return knob, value
    raise AssertionError(f"{engine.system}: no tunable numeric knob found")


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"postgres", "mysql", "columnar"} <= set(SYSTEMS)
        assert SYSTEMS == sorted(SYSTEMS)

    def test_create_engine_resolves_system(self, system, tiny_catalog):
        engine = create_engine(system, tiny_catalog, HARDWARE)
        assert engine.system == system
        assert engine.catalog is tiny_catalog
        assert engine.hardware == HARDWARE

    def test_info_carries_display_name(self, system):
        info = engine_info(system)
        assert info.system == system
        assert info.display_name
        assert display_name(system) == info.display_name

    def test_display_names_are_distinct(self):
        names = [display_name(system) for system in SYSTEMS]
        assert len(set(names)) == len(names)

    def test_unknown_system_lists_alternatives(self, tiny_catalog):
        with pytest.raises(ReproError, match="unknown system 'oracle'"):
            create_engine("oracle", tiny_catalog)

    def test_unregistered_display_name_passes_through(self):
        assert display_name("oracle") == "oracle"

    def test_register_duplicate_rejected_then_replaceable(self, tiny_catalog):
        from repro.db.postgres import PostgresEngine

        def factory(catalog, hardware=None, clock=None):
            return PostgresEngine(catalog, hardware, clock=clock)

        with pytest.raises(ReproError):
            register_engine("postgres", factory)
        register_engine("testdb", factory, display_name="TestDB")
        try:
            assert "testdb" in available_engines()
            assert create_engine("testdb", tiny_catalog).system == "postgres"
        finally:
            unregister_engine("testdb")
        assert "testdb" not in available_engines()


class TestKnobContract:
    def test_defaults_coerce_to_themselves(self, engine):
        for knob in engine.knob_space:
            assert knob.coerce(knob.default) == knob.default

    def test_unknown_knob_raises_typed_error(self, engine):
        with pytest.raises(KnobError):
            engine.knob_space.knob("definitely_not_a_knob")

    def test_clamp_respects_static_bounds(self, engine):
        for knob in engine.knob_space:
            if knob.kind in (KnobKind.SIZE, KnobKind.INTEGER, KnobKind.FLOAT):
                if knob.minimum is not None:
                    assert knob.clamp(knob.minimum - 1) == knob.minimum
                if knob.maximum is not None:
                    assert knob.clamp(knob.maximum * 2) == knob.maximum

    def test_memory_pools_carry_hardware_caps(self, engine):
        pools = memory_pool_knobs(engine)
        assert pools, f"{engine.system}: no SIZE/MEMORY knobs declared"
        floor = HARDWARE_HEADROOM * engine.hardware.memory_bytes
        for knob in pools:
            assert knob.hardware_maximum is not None
            assert knob.hardware_maximum == max(floor, knob.default)

    def test_non_memory_knobs_stay_uncapped(self, engine):
        for knob in engine.knob_space:
            if not (
                knob.kind is KnobKind.SIZE
                and knob.category is KnobCategory.MEMORY
            ):
                assert knob.hardware_maximum is None, knob.name


class TestHardwareLimits:
    """Satellite: hardware-derived maxima reject out-of-range samples."""

    def test_over_ram_value_raises_hardware_limit_error(
        self, system, tiny_catalog
    ):
        engine = create_engine(system, tiny_catalog, TINY_HARDWARE)
        for knob in memory_pool_knobs(engine):
            over = knob.hardware_maximum + 1
            if knob.maximum is not None and over > knob.maximum:
                continue  # static bound fires first; typed either way
            with pytest.raises(HardwareLimitError):
                knob.coerce(over)

    def test_hardware_limit_is_a_knob_error(self):
        # The quarantine path catches KnobError; the subtype must flow
        # through it unchanged.
        assert issubclass(HardwareLimitError, KnobError)

    def test_apply_config_rejects_atomically(self, system, tiny_catalog):
        engine = create_engine(system, tiny_catalog, TINY_HARDWARE)
        knob = memory_pool_knobs(engine)[0]
        before = engine.config
        with pytest.raises(KnobError):
            engine.apply_config({knob.name: knob.hardware_maximum + 1})
        assert engine.config == before
        assert engine.clock.now == 0.0

    def test_oversized_llm_sample_line_lands_in_rejected(
        self, system, tiny_catalog
    ):
        """An LLM script asking for >4x RAM parses to a rejected line,
        not a crash -- on every backend."""
        engine = create_engine(system, tiny_catalog, TINY_HARDWARE)
        from repro.core.config import parse_config_script

        knob = memory_pool_knobs(engine)[0]
        oversized = (knob.hardware_maximum or 0) + 7 * 1024**3
        script = render_script(system, {knob.name: oversized}, [])
        config = parse_config_script(script, engine.knob_space, tiny_catalog)
        assert knob.name not in config.settings
        assert len(config.rejected) == 1
        assert knob.name in config.rejected[0]

    def test_clamp_is_unaffected_by_hardware_caps(self, engine):
        # Baseline search trajectories depend on clamp(); the caps must
        # only bite at coercion time.
        for knob in memory_pool_knobs(engine):
            if knob.maximum is not None and knob.maximum > knob.hardware_maximum:
                assert knob.clamp(knob.maximum * 2) == knob.maximum


class TestConfigRoundTrip:
    def test_apply_advances_clock_by_restart(self, engine):
        knob, value = tunable_knob(engine)
        elapsed = engine.apply_config({knob.name: value})
        assert elapsed == engine.restart_seconds > 0
        assert engine.clock.now == engine.restart_seconds
        assert engine.get(knob.name) == value

    def test_reset_restores_every_default(self, engine):
        knob, value = tunable_knob(engine)
        engine.apply_config({knob.name: value})
        engine.reset_config()
        assert engine.config == engine.knob_space.defaults()

    def test_empty_config_is_free(self, engine):
        assert engine.apply_config({}) == 0.0
        assert engine.clock.now == 0.0

    def test_invalid_setting_rejected_atomically(self, engine):
        knob, value = tunable_knob(engine)
        before = engine.config
        with pytest.raises(KnobError):
            engine.apply_config({knob.name: value, "nonsense_knob": 1})
        assert engine.config == before
        assert engine.clock.now == 0.0

    def test_snapshot_names_the_system(self, engine):
        snapshot = engine.snapshot()
        assert snapshot["system"] == engine.system
        assert "config" in snapshot and "indexes" in snapshot


class TestStateAndFork:
    def test_capture_restore_round_trip(self, engine):
        knob, value = tunable_knob(engine)
        engine.apply_config({knob.name: value})
        engine.create_index(Index("events", ("kind",)))
        state = engine.capture_state()

        other = create_engine(engine.system, engine.catalog, HARDWARE)
        other.restore_state(state)
        assert other.config == engine.config
        assert [i.key for i in other.indexes] == [i.key for i in engine.indexes]
        assert other.clock.now == engine.clock.now

    def test_fork_times_match_bit_for_bit(self, engine):
        # A fork: a second engine restored to this one's captured state.
        knob, value = tunable_knob(engine)
        engine.apply_config({knob.name: value})
        fork = create_engine(engine.system, engine.catalog, HARDWARE)
        fork.restore_state(engine.capture_state())
        assert repr(fork.estimate_seconds(JOIN_SQL)) == repr(
            engine.estimate_seconds(JOIN_SQL)
        )

    def test_execution_is_deterministic(self, engine):
        assert repr(engine.execute(JOIN_SQL).execution_time) == repr(
            engine.execute(JOIN_SQL).execution_time
        )


class TestResourceFootprint:
    def test_footprint_positive_and_pure(self, engine):
        footprint = engine.resource_footprint()
        assert footprint.peak_memory_bytes > 0
        assert footprint.disk_bytes > 0
        fresh = create_engine(engine.system, engine.catalog, HARDWARE)
        assert fresh.resource_footprint() == footprint

    def test_footprint_ignores_currently_applied_config(self, engine):
        """Feasibility must not depend on evaluation order: the engine's
        mutable config never leaks into a candidate's footprint."""
        default = engine.resource_footprint()
        knob, value = tunable_knob(engine)
        engine.apply_config({knob.name: value})
        assert engine.resource_footprint() == default

    def test_bigger_memory_pool_raises_peak_memory(self, engine):
        knob = memory_pool_knobs(engine)[0]
        base = engine.resource_footprint()
        grown = engine.resource_footprint(
            {knob.name: knob.default + 2 * 1024**3}
        )
        assert grown.peak_memory_bytes > base.peak_memory_bytes

    def test_candidate_indexes_add_disk(self, engine):
        base = engine.resource_footprint()
        indexed = engine.resource_footprint(
            indexes=(Index("events", ("kind",)),)
        )
        assert indexed.disk_bytes > base.disk_bytes
        assert indexed.peak_memory_bytes == base.peak_memory_bytes

    def test_installed_and_candidate_indexes_deduplicate(self, engine):
        index = Index("events", ("kind",))
        engine.create_index(index)
        installed = engine.resource_footprint()
        assert engine.resource_footprint(indexes=(index,)) == installed


class TestCrossProcessDeterminism:
    """Per-backend ``PYTHONHASHSEED`` independence (subprocess matrix)."""

    SCRIPT = (
        "from repro.db.registry import create_engine;"
        "from repro.workloads import load_workload;"
        "w = load_workload('synthetic:queries=12,scale=2');"
        "e = create_engine({system!r}, w.catalog);"
        "f = e.resource_footprint();"
        "print(repr(sum(e.estimate_seconds(q) for q in w.queries)),"
        " f.peak_memory_bytes, f.disk_bytes)"
    )

    def test_times_and_footprints_hash_seed_independent(self, system):
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        python_path = src_dir
        if os.environ.get("PYTHONPATH"):
            python_path += os.pathsep + os.environ["PYTHONPATH"]
        outputs = set()
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT.format(system=system)],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                    "PYTHONPATH": python_path,
                },
                check=True,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1
