"""Write-ahead JSONL journal for crash-safe tuning sessions.

One tuning run appends one event per line::

    {"seq": 17, "kind": "update_folded", "payload": {...}}

Payloads are encoded with :mod:`repro.session.codec`.  Events are
flushed to the OS on every append and ``fsync``'d at the durability
points the session layer marks (session start, selection boundaries,
round checkpoints, completion), so a crash loses at most the tail
written since the last sync -- and a torn final line at most.

Reading is crash-tolerant: a malformed or truncated *last* line is
dropped silently (the expected artifact of dying mid-write), while
corruption anywhere else raises :class:`~repro.errors.SessionError`
because it means the file was damaged, not merely cut short.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import SessionError
from repro.session import codec


@dataclass(frozen=True, slots=True)
class JournalEvent:
    """One decoded journal line."""

    seq: int
    kind: str
    payload: dict[str, Any]


class TuningJournal:
    """Append-only JSONL event log backing one tuning session."""

    def __init__(self, path: str | Path, *, append: bool = False) -> None:
        self.path = Path(path)
        next_seq = 0
        if append and self.path.exists():
            events, intact = self.read_intact(self.path)
            if events:
                next_seq = events[-1].seq + 1
            # Drop a torn trailing line so the continuation starts at a
            # clean event boundary.
            self._truncate_to(intact)
        self._next_seq = next_seq
        self._file = open(self.path, "a", encoding="utf-8")

    def _truncate_to(self, intact: int) -> None:
        """Cut the file to its first ``intact`` bytes, newline-ended.

        The intact lines stay byte for byte as they are: a journal
        written by an older build may encode its events differently
        (retired fields, say) from how this build would.
        """
        with open(self.path, "r+b") as handle:
            if handle.seek(0, os.SEEK_END) > intact:
                handle.truncate(intact)
            if intact:
                handle.seek(intact - 1)
                if handle.read(1) != b"\n":
                    # The crash cut the last intact event's newline.
                    handle.seek(intact)
                    handle.write(b"\n")

    # -- writing -------------------------------------------------------------------

    def append(self, kind: str, payload: dict[str, Any], *, sync: bool = False) -> int:
        """Append one event; returns its sequence number.

        ``sync=True`` forces the line (and everything before it) to disk
        before returning -- the write-ahead guarantee for checkpoints.
        """
        seq = self._next_seq
        self._next_seq += 1
        self._file.write(_event_line(seq, kind, payload))
        self._file.flush()
        if sync:
            os.fsync(self._file.fileno())
        return seq

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()

    def __enter__(self) -> "TuningJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading -------------------------------------------------------------------

    @staticmethod
    def read(path: str | Path) -> list[JournalEvent]:
        """Decode all intact events; drop a torn trailing line."""
        return TuningJournal.read_intact(path)[0]

    @staticmethod
    def read_intact(path: str | Path) -> tuple[list[JournalEvent], int]:
        """All intact events, and the byte length of the intact prefix.

        The prefix ends after the last intact event's newline.  A last
        event whose JSON is complete but whose newline is missing is
        intact, and the prefix then ends with the file.  The file has a
        torn tail exactly when it is longer than the prefix.
        """
        data = Path(path).read_bytes()
        lines = data.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        events: list[JournalEvent] = []
        intact = 0
        for number, line in enumerate(lines):
            is_last = number == len(lines) - 1
            try:
                record = json.loads(line.decode("utf-8"))
                event = JournalEvent(
                    seq=record["seq"],
                    kind=record["kind"],
                    payload=codec.decode(record["payload"]),
                )
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                if is_last:
                    break
                raise SessionError(
                    f"corrupt journal line {number + 1} in {path}"
                ) from None
            if event.seq != len(events):
                raise SessionError(
                    f"journal {path} has non-contiguous sequence numbers "
                    f"(line {number + 1}: expected {len(events)}, got {event.seq})"
                )
            events.append(event)
            intact = min(intact + len(line) + 1, len(data))
        return events, intact


def _event_line(seq: int, kind: str, payload: dict[str, Any]) -> str:
    return (
        json.dumps(
            {"seq": seq, "kind": kind, "payload": codec.encode(payload)},
            separators=(",", ":"),
        )
        + "\n"
    )
