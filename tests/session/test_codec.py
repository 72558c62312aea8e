"""The versioned JSON codec must round-trip session state *exactly*."""

import math

import pytest

from repro.core.config import Configuration
from repro.core.evaluator import ConfigMeta
from repro.core.result import TracePoint, TuningResult
from repro.core.rounds import BestConfig, RoundCursor, SelectionState
from repro.core.tuner import LambdaTuneOptions
from repro.db.engine import EngineState
from repro.db.indexes import Index
from repro.errors import SessionError
from repro.faults import FaultPlan
from repro.session import codec


def roundtrip(obj):
    return codec.loads(codec.dumps(obj))


class TestPrimitives:
    def test_scalars(self):
        for value in (None, True, False, 0, -17, "text", ""):
            assert roundtrip(value) == value
            assert type(roundtrip(value)) is type(value)

    @pytest.mark.parametrize(
        "value",
        [
            0.1 + 0.2,          # classic shortest-repr case
            1.0 / 3.0,
            6.62607015e-34,
            1.7976931348623157e308,
            5e-324,             # smallest subnormal
            -0.0,
            math.inf,
            -math.inf,
        ],
    )
    def test_floats_bit_exact(self, value):
        decoded = roundtrip(value)
        assert repr(decoded) == repr(value)

    def test_containers_keep_types(self):
        obj = {
            "list": [1, 2, 3],
            "tuple": (1, "two", 3.0),
            "set": {3, 1, 2},
            "frozenset": frozenset({"b", "a"}),
            "nested": [((1, 2), {"x": (3,)})],
        }
        decoded = roundtrip(obj)
        assert decoded == obj
        assert isinstance(decoded["tuple"], tuple)
        assert isinstance(decoded["set"], set)
        assert isinstance(decoded["frozenset"], frozenset)
        assert isinstance(decoded["nested"][0][0], tuple)

    def test_sets_serialize_sorted_for_stable_bytes(self):
        a = codec.dumps({"s": {"b", "a", "c"}})
        b = codec.dumps({"s": {"c", "a", "b"}})
        assert a == b

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(SessionError, match="non-string key"):
            codec.dumps({1: "x"})

    def test_unknown_type_rejected(self):
        class Mystery:
            pass

        with pytest.raises(SessionError, match="no codec"):
            codec.dumps(Mystery())

    def test_unknown_kind_rejected(self):
        with pytest.raises(SessionError, match="unknown codec kind"):
            codec.decode({"__k__": "Nonsense"})


class TestRegisteredTypes:
    def test_index(self):
        index = Index("users", ("country", "age"))
        decoded = roundtrip(index)
        assert decoded == index
        assert decoded.name == index.name

    def test_configuration(self):
        config = Configuration(
            name="llm-config-1",
            settings={"work_mem": "512MB", "random_page_cost": 1.1},
            indexes=[Index("users", ("country",))],
            raw_text="SET work_mem = '512MB';",
            rejected=["bogus command"],
        )
        decoded = roundtrip(config)
        assert decoded.name == config.name
        assert decoded.settings == config.settings
        assert decoded.indexes == config.indexes
        assert decoded.raw_text == config.raw_text
        assert decoded.rejected == config.rejected

    def test_config_meta(self):
        meta = ConfigMeta(
            time=1.5,
            is_complete=True,
            index_time=0.25,
            completed_queries={"q1", "q3"},
            failed=True,
            failure="crash [site='engine.query_crash']",
        )
        decoded = roundtrip(meta)
        for field in (
            "time",
            "is_complete",
            "index_time",
            "completed_queries",
            "failed",
            "failure",
        ):
            assert getattr(decoded, field) == getattr(meta, field)

    def test_selection_state_full_graph(self):
        config = Configuration(name="c1", settings={"work_mem": "1GB"})
        state = SelectionState(
            timeout=5.0,
            rounds=3,
            meta={"c1": ConfigMeta(time=0.7, is_complete=True)},
            best=BestConfig(time=0.7, config=config),
            trace=[(1.25, 0.7)],
            candidates=["c2", "c3"],
        )
        decoded = roundtrip(state)
        assert repr(decoded.timeout) == repr(state.timeout)
        assert decoded.rounds == state.rounds
        assert decoded.meta["c1"].time == 0.7
        assert decoded.best.config.name == "c1"
        assert decoded.trace == [(1.25, 0.7)]
        assert isinstance(decoded.trace[0], tuple)
        assert decoded.candidates == ["c2", "c3"]

    def test_fresh_selection_state_has_inf_best(self):
        state = SelectionState.initial([Configuration(name="x")], 10.0)
        decoded = roundtrip(state)
        assert math.isinf(decoded.best.time)
        assert decoded.best.config is None

    def test_round_cursor(self):
        cursor = RoundCursor(phase="final", order=["b", "a"], position=1)
        decoded = roundtrip(cursor)
        assert (decoded.phase, decoded.order, decoded.position) == (
            "final",
            ["b", "a"],
            1,
        )

    def test_engine_state(self):
        state = EngineState(
            settings=(("shared_buffers", "1GB"), ("work_mem", 4096)),
            indexes=(Index("users", ("country",)),),
            clock=123.456789,
        )
        decoded = roundtrip(state)
        assert decoded == state
        assert repr(decoded.clock) == repr(state.clock)

    def test_fault_plan(self):
        plan = FaultPlan(seed=7, density=0.15)
        assert roundtrip(plan) == plan

    def test_tuning_result(self):
        result = TuningResult(
            tuner="lambda-tune",
            workload="tpch",
            system="postgres",
            best_time=12.5,
            best_config=Configuration(name="winner"),
            trace=[TracePoint(1.0, 20.0), TracePoint(2.0, 12.5)],
            configs_evaluated=5,
            tuning_seconds=42.0,
            extras={"rounds": 2, "meta": {"winner": ConfigMeta(time=12.5)}},
        )
        decoded = roundtrip(result)
        assert decoded.workload == "tpch"
        assert repr(decoded.best_time) == repr(result.best_time)
        assert decoded.best_config.name == "winner"
        assert decoded.trace == result.trace
        assert decoded.extras["meta"]["winner"].time == 12.5

    def test_options(self):
        options = LambdaTuneOptions(token_budget=None, alpha=3.5, seed=3)
        assert roundtrip(options) == options

    def test_resource_budget(self):
        from repro.db.resources import ResourceBudget

        budget = ResourceBudget(
            max_memory_bytes=8 * 1024**3, max_disk_bytes=100 * 1024**3
        )
        assert roundtrip(budget) == budget
        assert roundtrip(ResourceBudget(max_memory_bytes=1)) == ResourceBudget(
            max_memory_bytes=1
        )

    def test_options_with_budget(self):
        from repro.db.resources import parse_budget

        options = LambdaTuneOptions(seed=3, budget=parse_budget("ram=8GB"))
        decoded = roundtrip(options)
        assert decoded == options
        assert decoded.budget.max_memory_bytes == 8 * 1024**3


class TestVersioning:
    def test_current_version_accepted(self):
        codec.check_version(codec.CODEC_VERSION)

    @pytest.mark.parametrize("version", [0, 2, None, "1"])
    def test_other_versions_rejected(self, version):
        with pytest.raises(SessionError, match="codec version"):
            codec.check_version(version)


class TestRetiredFields:
    """Fields older builds encoded and this one dropped stay decodable."""

    RETIRED = [
        (LambdaTuneOptions(seed=3), {"workers": 4, "executor": "thread"}),
        (
            SelectionState.initial([Configuration(name="x")], 10.0),
            {"stats": {"folded": 2, "recomputed": 0}},
        ),
    ]

    @pytest.mark.parametrize(
        "obj,old_fields", RETIRED, ids=["options", "selection-state"]
    )
    def test_retired_fields_dropped(self, obj, old_fields):
        data = codec.encode(obj)
        data.update(codec.encode(old_fields))
        assert codec.dumps(codec.decode(data)) == codec.dumps(obj)

    @pytest.mark.parametrize(
        "obj,old_fields", RETIRED, ids=["options", "selection-state"]
    )
    def test_unknown_fields_rejected(self, obj, old_fields):
        data = codec.encode(obj)
        data["verbosity"] = 2
        with pytest.raises(SessionError, match="verbosity"):
            codec.decode(data)
