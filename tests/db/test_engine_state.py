"""Engine capture/restore.

Crash-safe sessions rest on these: a resumed run must rebuild a
bit-identical engine from a journaled snapshot.
"""

import pickle

from repro.db.indexes import Index


class TestCaptureRestore:
    def test_round_trip(self, pg_engine):
        pg_engine.set_many({"work_mem": "128MB"})
        index = Index(table="users", columns=("country",))
        pg_engine.create_index(index)
        state = pg_engine.capture_state()

        other = type(pg_engine)(pg_engine.catalog, pg_engine.hardware)
        other.restore_state(state)
        assert other.config == pg_engine.config
        assert [i.key for i in other.indexes] == [i.key for i in pg_engine.indexes]
        assert other.config_signature == pg_engine.config_signature
        assert other.clock.now == pg_engine.clock.now

    def test_state_is_picklable(self, pg_engine):
        pg_engine.set_many({"work_mem": "64MB"})
        state = pg_engine.capture_state()
        clone = pickle.loads(pickle.dumps(state))
        other = type(pg_engine)(pg_engine.catalog, pg_engine.hardware)
        other.restore_state(clone)
        assert other.config_signature == pg_engine.config_signature

    def test_restore_replaces_not_merges(self, pg_engine):
        state = pg_engine.capture_state()
        pg_engine.set_many({"work_mem": "1GB"})
        pg_engine.create_index(Index(table="users", columns=("age",)))
        pg_engine.restore_state(state)
        assert pg_engine.config == dict(state.settings)
        assert pg_engine.indexes == []
