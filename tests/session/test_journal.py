"""The write-ahead journal: contiguous, crash-tolerant, append-able."""

import json

import pytest

from repro.core.config import Configuration
from repro.errors import SessionError
from repro.session import TuningJournal, inspect_journal


class TestWriteRead:
    def test_appends_contiguous_sequence(self, tmp_path):
        path = tmp_path / "run.journal"
        with TuningJournal(path) as journal:
            assert journal.append("a", {"n": 1}) == 0
            assert journal.append("b", {"n": 2}) == 1
            assert journal.append("c", {"n": 3}, sync=True) == 2
        events = TuningJournal.read(path)
        assert [(e.seq, e.kind, e.payload["n"]) for e in events] == [
            (0, "a", 1),
            (1, "b", 2),
            (2, "c", 3),
        ]

    def test_payloads_round_trip_codec_types(self, tmp_path):
        path = tmp_path / "run.journal"
        config = Configuration(name="c1", settings={"work_mem": "1GB"})
        with TuningJournal(path) as journal:
            journal.append("sample_accepted", {"ordinal": 0, "config": config})
        [event] = TuningJournal.read(path)
        decoded = event.payload["config"]
        assert decoded.name == "c1"
        assert decoded.settings == {"work_mem": "1GB"}

    def test_read_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TuningJournal.read(tmp_path / "absent.journal")


class TestCrashTolerance:
    def write_events(self, path, count=3):
        with TuningJournal(path) as journal:
            for n in range(count):
                journal.append("tick", {"n": n})

    def test_torn_trailing_line_dropped(self, tmp_path):
        path = tmp_path / "run.journal"
        self.write_events(path)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"seq": 3, "kind": "tick", "payl')  # died mid-write
        events = TuningJournal.read(path)
        assert [e.seq for e in events] == [0, 1, 2]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "run.journal"
        self.write_events(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:10] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(SessionError, match="corrupt journal line 2"):
            TuningJournal.read(path)

    def test_undecodable_bytes_are_torn_at_the_end_and_corrupt_before(
        self, tmp_path
    ):
        path = tmp_path / "run.journal"
        self.write_events(path)
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"seq": 3, "kind": "\xff')
        assert [e.seq for e in TuningJournal.read(path)] == [0, 1, 2]
        lines = intact.splitlines(keepends=True)
        path.write_bytes(lines[0] + b"\xff\n" + b"".join(lines[1:]))
        with pytest.raises(SessionError, match="corrupt journal line 2"):
            TuningJournal.read(path)

    def test_non_contiguous_sequence_raises(self, tmp_path):
        path = tmp_path / "run.journal"
        self.write_events(path)
        record = json.dumps({"seq": 7, "kind": "tick", "payload": {}})
        with open(path, "a", encoding="utf-8") as f:
            f.write(record + "\n")
        with pytest.raises(SessionError, match="non-contiguous"):
            TuningJournal.read(path)


class TestAppendMode:
    def test_continues_sequence(self, tmp_path):
        path = tmp_path / "run.journal"
        with TuningJournal(path) as journal:
            journal.append("a", {})
            journal.append("b", {})
        with TuningJournal(path, append=True) as journal:
            assert journal.append("c", {}) == 2
        assert [e.kind for e in TuningJournal.read(path)] == ["a", "b", "c"]

    def test_truncates_torn_tail_before_continuing(self, tmp_path):
        path = tmp_path / "run.journal"
        with TuningJournal(path) as journal:
            journal.append("a", {})
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"torn')
        with TuningJournal(path, append=True) as journal:
            assert journal.append("b", {}) == 1
        events = TuningJournal.read(path)
        assert [e.kind for e in events] == ["a", "b"]
        assert "torn" not in path.read_text()

    def test_complete_last_event_without_newline_is_intact(self, tmp_path):
        path = tmp_path / "run.journal"
        with TuningJournal(path) as journal:
            journal.append("a", {})
            journal.append("b", {})
        cut = path.read_bytes()[:-1]  # the crash took only the newline
        path.write_bytes(cut)
        events, intact = TuningJournal.read_intact(path)
        assert [e.kind for e in events] == ["a", "b"]
        assert intact == len(cut)
        assert not inspect_journal(path).torn_tail
        with TuningJournal(path, append=True) as journal:
            assert journal.append("c", {}) == 2
        assert path.read_bytes().startswith(cut + b"\n")
        assert [e.kind for e in TuningJournal.read(path)] == ["a", "b", "c"]

    def test_append_to_fresh_path_starts_at_zero(self, tmp_path):
        path = tmp_path / "new.journal"
        with TuningJournal(path, append=True) as journal:
            assert journal.append("a", {}) == 0
