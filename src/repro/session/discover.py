"""Journal directory hygiene: discovery, classification, and leasing.

A service root accumulates one journal per tuning job.  After a server
crash the directory is the *only* durable record of what was running,
so startup recovery has to classify every journal correctly:

- ``complete`` -- the journal ends with a ``done`` event; the recorded
  :class:`~repro.core.result.TuningResult` is the job's result and the
  job must not be re-driven (final passes are not idempotent).
- incomplete -- the job crashed mid-flight; it must be *resumed* (not
  restarted from scratch, not skipped).
- ``torn_tail`` -- the crash happened mid-``write()``; the final line
  is garbage.  Still resumable: :class:`~repro.session.TuningJournal`
  drops the torn line on append, and the intact prefix is authoritative.

:func:`discover_journals` performs that classification without raising
on crash artifacts; only genuine corruption (a damaged non-tail line)
surfaces as :class:`~repro.errors.SessionError` from the reader.

:class:`JournalLease` is the double-resume protection: a worker must
hold the lease on a journal before adopting it.  Leases are exclusive
across threads *and* processes -- a same-process registry catches two
workers of one server (or two servers in one test process), and an
``O_EXCL`` lock file catches two server processes.  A lock left behind
by a dead process (or an in-process server whose liveness token was
retired, the test-harness analogue of process death) is *stale* and is
broken silently.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.core.result import TuningResult
from repro.errors import JournalLockedError
from repro.session.journal import JournalEvent, TuningJournal

#: Filename suffix distinguishing journals from their lock files.
JOURNAL_SUFFIX = ".journal"
LOCK_SUFFIX = ".lock"


@dataclass(frozen=True, slots=True)
class JournalInfo:
    """One discovered journal, classified for recovery."""

    path: Path
    #: Basename without :data:`JOURNAL_SUFFIX` -- the service job id.
    name: str
    #: Count of intact events (a torn tail is not an event).
    events: int
    #: The journal ends with a ``done`` event; result is recorded.
    complete: bool
    #: The raw file does not end at a clean event boundary.
    torn_tail: bool

    @property
    def resumable(self) -> bool:
        """An incomplete journal with at least its header intact."""
        return not self.complete and self.events >= 1


def inspect_journal(path: str | Path) -> JournalInfo:
    """Classify one journal file (see the module doc for the states)."""
    path = Path(path)
    events, intact = TuningJournal.read_intact(path)
    torn = path.stat().st_size != intact
    complete = bool(events) and events[-1].kind == "done"
    name = path.name
    if name.endswith(JOURNAL_SUFFIX):
        name = name[: -len(JOURNAL_SUFFIX)]
    return JournalInfo(
        path=path,
        name=name,
        events=len(events),
        complete=complete,
        torn_tail=torn,
    )


def discover_journals(directory: str | Path) -> list[JournalInfo]:
    """Classify every ``*.journal`` under ``directory`` (sorted by name).

    A missing directory is an empty service root, not an error.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [
        inspect_journal(path)
        for path in sorted(directory.glob(f"*{JOURNAL_SUFFIX}"))
    ]


def read_result(path: str | Path) -> TuningResult | None:
    """The journaled ``done`` result, or ``None`` if the job never finished."""
    events = TuningJournal.read(path)
    return _result_of(events)


def _result_of(events: list[JournalEvent]) -> TuningResult | None:
    for event in reversed(events):
        if event.kind == "done":
            return event.payload["result"]
    return None


# -- double-resume protection -------------------------------------------------

#: Liveness tokens of in-process servers (see :func:`register_owner`).
_LIVE_TOKENS: set[str] = set()
#: Lease paths currently held somewhere in this process.
_HELD_PATHS: set[str] = set()
_REGISTRY_LOCK = threading.Lock()


def register_owner(token: str) -> None:
    """Mark ``token`` as a live lease owner in this process."""
    with _REGISTRY_LOCK:
        _LIVE_TOKENS.add(token)


def retire_owner(token: str) -> None:
    """Declare ``token`` dead.

    The in-process analogue of process death: locks written under the
    token become stale and breakable, exactly as if the owning process
    had been ``kill -9``'d, but lease *files* stay on disk untouched --
    recovery has to break them, the crash never cleans up.
    """
    with _REGISTRY_LOCK:
        _LIVE_TOKENS.discard(token)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned elsewhere
        return True
    return True


class JournalLease:
    """Exclusive right to drive one journal; two holders cannot coexist.

    Acquire before running or resuming a journal; release after the
    terminal journal event is on disk.  ``owner_token`` identifies the
    owning server instance (see :func:`register_owner`); a lock whose
    owner is no longer live -- dead pid, or a retired in-process token
    -- is stale and is broken on acquire.
    """

    def __init__(self, path: Path, key: str) -> None:
        self.path = path
        self._key = key
        self._released = False

    @classmethod
    def acquire(
        cls, journal_path: str | Path, *, owner_token: str
    ) -> "JournalLease":
        lock_path = Path(os.fspath(journal_path) + LOCK_SUFFIX)
        key = str(lock_path.resolve().parent / lock_path.name)
        payload = json.dumps({"pid": os.getpid(), "token": owner_token})
        for attempt in range(2):
            with _REGISTRY_LOCK:
                if key in _HELD_PATHS:
                    raise JournalLockedError(
                        f"journal {journal_path} is already leased by a "
                        f"worker in this process"
                    )
            try:
                fd = os.open(lock_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                if attempt == 0 and cls._break_if_stale(lock_path):
                    continue
                raise JournalLockedError(
                    f"journal {journal_path} is leased by a live worker "
                    f"(lock file {lock_path})"
                ) from None
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            with _REGISTRY_LOCK:
                _HELD_PATHS.add(key)
            return cls(lock_path, key)
        raise JournalLockedError(  # pragma: no cover - loop always returns
            f"could not lease journal {journal_path}"
        )

    @staticmethod
    def _break_if_stale(lock_path: Path) -> bool:
        """Remove a lock whose owner is provably dead; True if removed."""
        try:
            record = json.loads(lock_path.read_text(encoding="utf-8"))
            pid, token = int(record["pid"]), str(record["token"])
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable or torn lock: its writer died mid-write.
            stale = True
        else:
            if pid != os.getpid():
                stale = not _pid_alive(pid)
            else:
                with _REGISTRY_LOCK:
                    stale = token not in _LIVE_TOKENS
        if stale:
            try:
                lock_path.unlink()
            except OSError:  # pragma: no cover - lost a removal race
                return False
        return stale

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        with _REGISTRY_LOCK:
            _HELD_PATHS.discard(self._key)
        try:
            self.path.unlink()
        except OSError:  # pragma: no cover - already broken by takeover
            pass

    def abandon(self) -> None:
        """Drop the in-process hold but leave the lock file on disk.

        Used when simulating a server kill: a real ``kill -9`` cannot
        unlink anything, so the file must survive for recovery to break.
        """
        if self._released:
            return
        self._released = True
        with _REGISTRY_LOCK:
            _HELD_PATHS.discard(self._key)

    def __enter__(self) -> "JournalLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
