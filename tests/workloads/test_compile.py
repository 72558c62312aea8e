"""The process-wide workload compile cache."""

import pickle

import pytest

from repro.db.indexes import Index
from repro.db.postgres import PostgresEngine
from repro.errors import ReproError
from repro.workloads import CompiledWorkload, compile_workload, tpch_workload
from tests.oracles import reference_mode


class TestCompileWorkload:
    def test_memoized_per_catalog(self, tiny_workload):
        first = compile_workload(tiny_workload)
        second = compile_workload(tiny_workload)
        assert first is second

    def test_costs_match_direct_estimation(self, tiny_workload):
        compiled = compile_workload(tiny_workload)
        engine = PostgresEngine(tiny_workload.catalog)
        for query in tiny_workload.queries:
            assert repr(compiled.default_costs[query.name]) == repr(
                engine.estimate_seconds(query)
            )
        assert compiled.default_time == sum(compiled.default_costs.values())

    def test_engine_state_is_part_of_the_key(self, tiny_workload):
        plain = compile_workload(tiny_workload)
        engine = PostgresEngine(tiny_workload.catalog)
        engine.create_index(Index(table="users", columns=("country",)))
        indexed = compile_workload(tiny_workload, engine=engine)
        assert indexed is not plain
        # Same engine state again: cache hit.
        assert compile_workload(tiny_workload, engine=engine) is indexed

    def test_artifact_is_picklable(self, tiny_workload):
        compiled = compile_workload(tiny_workload)
        clone = pickle.loads(pickle.dumps(compiled))
        assert isinstance(clone, CompiledWorkload)
        assert clone.default_costs == compiled.default_costs
        assert clone.join_values == compiled.join_values
        assert [q.name for q in clone.queries] == [
            q.name for q in compiled.queries
        ]

    def test_rejects_foreign_engine(self, tiny_workload, tpch):
        engine = PostgresEngine(tpch.catalog)
        with pytest.raises(ReproError):
            compile_workload(tiny_workload, engine=engine)

    def test_query_lookup(self, tiny_workload):
        compiled = compile_workload(tiny_workload)
        assert compiled.query_by_name("join_all").name == "join_all"
        with pytest.raises(ReproError):
            compiled.query_by_name("nope")

    def test_caches_disabled_recomputes(self, tiny_workload):
        engine = PostgresEngine(tiny_workload.catalog, caches=False)
        first = compile_workload(tiny_workload, engine=engine)
        second = compile_workload(tiny_workload, engine=engine)
        assert first is not second
        assert first.default_costs == second.default_costs
        assert first.default_costs == compile_workload(tiny_workload).default_costs

    def test_cached_artifact_matches_uncached_reference_on_tpch(self):
        workload = tpch_workload()
        compiled = compile_workload(workload)
        with reference_mode():
            reference = compile_workload(
                workload, engine=PostgresEngine(workload.catalog, caches=False)
            )
        assert reference is not compiled
        assert reference.default_costs == compiled.default_costs
        assert reference.join_values == compiled.join_values
