"""Two-tier content-addressed artifact store.

Tier 1 is a small in-process LRU keyed by digest; tier 2 is a
disk-backed store where every artifact lives in its own file named by
the SHA-256 of its key material:

    <root>/v<FORMAT>/<kind>/<digest[:2]>/<digest>.bin

Entry layout: ``LTAC`` magic, a big-endian format version, the SHA-256
of the payload bytes, then the pickled payload.  Readers verify magic,
version, and payload digest before unpickling, so a truncated, torn, or
deliberately poisoned entry is detected and treated as a miss -- the
artifact is recomputed, never trusted.

Concurrency model (mirrors ``session/codec.py``'s versioning rules):

* writes go to a same-directory temp file then ``os.replace`` -- readers
  either see the old file, no file, or the complete new file, never a
  partial one;
* reads take no locks -- content addressing means any complete file with
  a valid digest is correct by construction, and two processes racing to
  write the same digest write identical bytes;
* every disk failure (``OSError`` from the fault layer, a read-only
  filesystem, a full disk) degrades to a miss or a dropped store.  The
  cache is an accelerator: it must never change results or raise.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Callable, TypeVar

from repro.cache.keys import CACHE_FORMAT_VERSION, digest_key

_MAGIC = b"LTAC"
_HEADER_SIZE = len(_MAGIC) + 4 + 32

#: Default bound on the in-memory tier (entries, not bytes); artifacts
#: here are small (plans, name lists, ILP assignments, LLM responses).
DEFAULT_MEMORY_ENTRIES = 8192


class _Miss:
    """Sentinel distinguishing "not cached" from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<cache miss>"


MISS = _Miss()

_T = TypeVar("_T")


@dataclass(slots=True)
class CacheStats:
    """Counters for observability and for the key-coverage tests."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    poisoned: int = 0
    errors: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "poisoned": self.poisoned,
            "errors": self.errors,
        }


@dataclass(slots=True)
class _MemoryTier:
    limit: int
    entries: OrderedDict[str, Any] = field(default_factory=OrderedDict)

    def get(self, digest: str) -> Any:
        try:
            value = self.entries[digest]
        except KeyError:
            return MISS
        self.entries.move_to_end(digest)
        return value

    def put(self, digest: str, value: Any) -> None:
        self.entries[digest] = value
        self.entries.move_to_end(digest)
        while len(self.entries) > self.limit:
            self.entries.popitem(last=False)


def _encode_entry(payload: bytes) -> bytes:
    header = _MAGIC + CACHE_FORMAT_VERSION.to_bytes(4, "big")
    return header + sha256(payload).digest() + payload


def _decode_entry(raw: bytes) -> bytes | None:
    """Return the payload bytes, or ``None`` if the entry is invalid."""
    if len(raw) < _HEADER_SIZE:
        return None
    if raw[: len(_MAGIC)] != _MAGIC:
        return None
    version = int.from_bytes(raw[len(_MAGIC) : len(_MAGIC) + 4], "big")
    if version != CACHE_FORMAT_VERSION:
        return None
    stored_digest = raw[len(_MAGIC) + 4 : _HEADER_SIZE]
    payload = raw[_HEADER_SIZE:]
    if sha256(payload).digest() != stored_digest:
        return None
    return payload


class ArtifactCache:
    """In-memory LRU over an optional content-addressed disk tier.

    ``root=None`` gives a memory-only cache (useful in tests and as a
    cheap default); with a root, warm entries survive across processes.
    """

    def __init__(
        self,
        root: str | os.PathLike[str] | None = None,
        *,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        self._root = os.fspath(root) if root is not None else None
        self._memory = _MemoryTier(limit=memory_entries)
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # -- layout -----------------------------------------------------------------

    @property
    def root(self) -> str | None:
        return self._root

    def _path_for(self, kind: str, digest: str) -> str:
        assert self._root is not None
        return os.path.join(
            self._root,
            f"v{CACHE_FORMAT_VERSION}",
            kind,
            digest[:2],
            f"{digest}.bin",
        )

    # -- disk tier -------------------------------------------------------------

    def _disk_read(self, kind: str, digest: str) -> Any:
        if self._root is None:
            return MISS
        path = self._path_for(kind, digest)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return MISS
        except OSError:
            with self._lock:
                self.stats.errors += 1
            return MISS
        payload = _decode_entry(raw)
        if payload is None:
            with self._lock:
                self.stats.poisoned += 1
            self._discard(path)
            return MISS
        try:
            return pickle.loads(payload)
        except Exception:
            # The digest matched but the pickle is not loadable in this
            # process (e.g. a renamed class).  Same treatment as poison.
            with self._lock:
                self.stats.poisoned += 1
            self._discard(path)
            return MISS

    def _disk_write(self, kind: str, digest: str, value: Any) -> None:
        if self._root is None:
            return
        path = self._path_for(kind, digest)
        directory = os.path.dirname(path)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            with self._lock:
                self.stats.errors += 1
            return
        try:
            os.makedirs(directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_encode_entry(payload))
                os.replace(temp_path, path)
            except OSError:
                with self._lock:
                    self.stats.errors += 1
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
        except OSError:
            with self._lock:
                self.stats.errors += 1

    def _discard(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- public API ---------------------------------------------------------------

    def fetch(self, kind: str, material: Any) -> Any:
        """Return the cached artifact or the ``MISS`` sentinel."""
        digest = digest_key(kind, material)
        with self._lock:
            value = self._memory.get(digest)
            if value is not MISS:
                self.stats.memory_hits += 1
                return value
        value = self._disk_read(kind, digest)
        with self._lock:
            if value is not MISS:
                self.stats.disk_hits += 1
                self._memory.put(digest, value)
            else:
                self.stats.misses += 1
        return value

    def store(self, kind: str, material: Any, value: Any) -> None:
        digest = digest_key(kind, material)
        with self._lock:
            self.stats.stores += 1
            self._memory.put(digest, value)
        self._disk_write(kind, digest, value)

    def get_or_compute(
        self, kind: str, material: Any, compute: Callable[[], _T]
    ) -> _T:
        value = self.fetch(kind, material)
        if value is not MISS:
            return value
        value = compute()
        self.store(kind, material, value)
        return value
