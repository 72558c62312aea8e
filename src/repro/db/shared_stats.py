"""Zero-copy :class:`CatalogStats` sharing across worker processes.

At SF100 scale the per-table and per-column statistics arrays that back
the vectorized planner run to megabytes per catalog.  The thread-based
drivers share them for free (one catalog object per process); a process
pool would rebuild -- and duplicate -- them once per worker.  This
module publishes the six float64 arrays of a built
:class:`~repro.db.catalog_stats.CatalogStats` into one
``multiprocessing.shared_memory`` segment per catalog, so every worker
on the host maps the *same* physical pages read-only instead of owning
a private copy.

Protocol (the picklable-context discipline of ``core/batch.py``'s pool
initializer):

- the parent calls :func:`publish_catalog_stats` over the unique
  catalogs of a batch, getting a :class:`StatsPublication` whose
  ``refs`` (small, picklable :class:`SharedStatsRef` records keyed by
  ``Catalog.content_fingerprint()``) travel to workers through the pool
  initializer;
- each worker calls :func:`register_shared_refs` once, then
  :func:`repro.db.catalog_stats.catalog_stats` consults
  :func:`attach_shared_stats` (via the ``SHARED_ATTACH_HOOK``) before
  building: a fingerprint match attaches read-only numpy views over the
  mapped segment (``writeable=False``, ``owndata=False``) -- never a
  copy;
- the parent keeps the publication alive for the pool's lifetime and
  calls :meth:`StatsPublication.close` after shutdown, which unlinks
  the segments.  Workers that are still mapped keep working (POSIX
  shm survives unlink until the last unmap); a *late* attach after
  close simply misses and the worker builds its own stats -- sharing
  is an accelerator, never a correctness dependency.

Bit-transparency: the arrays are copied byte-for-byte out of
``CatalogStats.build`` output, and attach only fires when the content
fingerprint -- the same key material the persistent artifact cache
trusts -- matches, so an attached view is indistinguishable from a
locally built one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db import catalog_stats as catalog_stats_module
from repro.db.catalog import Catalog
from repro.db.catalog_stats import CatalogStats

#: The CatalogStats array fields published per catalog, in segment
#: layout order.  ``rows``/``pages``/``size_bytes``/``depth`` are
#: per-table; ``column_ndv``/``column_eq_selectivity`` per-column.
ARRAY_FIELDS = (
    "rows",
    "pages",
    "size_bytes",
    "depth",
    "column_ndv",
    "column_eq_selectivity",
)

_DTYPE = np.float64
_ITEMSIZE = np.dtype(_DTYPE).itemsize


@dataclass(frozen=True, slots=True)
class SharedStatsRef:
    """Picklable recipe for attaching one catalog's shared arrays.

    Only the big float64 arrays live in shared memory; the small python
    metadata (names, integer sizes, column keys) rides along in the ref
    itself -- pickling a few hundred strings once per worker is cheap,
    mapping megabytes of statistics repeatedly is not.
    """

    fingerprint: str
    shm_name: str
    #: ``(field_name, element_offset, element_count)`` per array.
    layout: tuple[tuple[str, int, int], ...]
    names: tuple[str, ...]
    size_bytes_int: tuple[int, ...]
    #: ``(table, column)`` keys in ``column_id`` insertion order.
    column_keys: tuple[tuple[str, str], ...]


class StatsPublication:
    """Owner handle for a set of published catalog segments."""

    def __init__(self, refs: dict[str, SharedStatsRef], segments: list) -> None:
        self.refs = refs
        self._segments = segments

    def close(self) -> None:
        """Close and unlink every segment (idempotent).

        Call after the consuming pool has shut down.  Attached workers
        that still hold mappings are unaffected (POSIX semantics); new
        attaches simply miss and fall back to building locally.
        """
        for shm in self._segments:
            try:
                shm.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments = []

    def __enter__(self) -> "StatsPublication":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def publish_catalog_stats(catalogs: list[Catalog]) -> StatsPublication:
    """Build + publish stats for every unique catalog (by fingerprint).

    Returns a :class:`StatsPublication` whose ``refs`` dict is the
    picklable payload for worker initializers.  Duplicate catalogs
    (same content fingerprint) share one segment.
    """
    from multiprocessing import shared_memory

    refs: dict[str, SharedStatsRef] = {}
    segments = []
    for catalog in catalogs:
        fingerprint = catalog.content_fingerprint()
        if fingerprint in refs:
            continue
        stats = catalog_stats_module.catalog_stats(catalog)
        arrays = [
            np.ascontiguousarray(getattr(stats, name), dtype=_DTYPE)
            for name in ARRAY_FIELDS
        ]
        total = sum(array.size for array in arrays)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, total * _ITEMSIZE)
        )
        layout = []
        offset = 0
        view = np.ndarray((total,), dtype=_DTYPE, buffer=shm.buf)
        for name, array in zip(ARRAY_FIELDS, arrays):
            view[offset : offset + array.size] = array
            layout.append((name, offset, array.size))
            offset += array.size
        del view  # release the buffer reference before any later close
        refs[fingerprint] = SharedStatsRef(
            fingerprint=fingerprint,
            shm_name=shm.name,
            layout=tuple(layout),
            names=tuple(stats.names),
            size_bytes_int=tuple(stats.size_bytes_int),
            column_keys=tuple(stats.column_id),
        )
        segments.append(shm)
    return StatsPublication(refs, segments)


# -- worker side --------------------------------------------------------------

#: Refs registered in this process (worker side), by fingerprint.
_REGISTERED: dict[str, SharedStatsRef] = {}

#: Live attachments: fingerprint -> (SharedMemory, template CatalogStats).
#: The SharedMemory object must stay referenced while views are alive.
_ATTACHED: dict[str, tuple[object, CatalogStats]] = {}


def register_shared_refs(refs: dict[str, SharedStatsRef]) -> None:
    """Make ``refs`` attachable in this process and arm the hook."""
    _REGISTERED.update(refs)
    if _REGISTERED:
        catalog_stats_module.SHARED_ATTACH_HOOK = attach_shared_stats


def clear_shared_refs() -> None:
    """Forget registrations and drop attachments (tests, pool teardown)."""
    _REGISTERED.clear()
    for shm, _ in _ATTACHED.values():
        try:
            shm.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
    _ATTACHED.clear()
    catalog_stats_module.SHARED_ATTACH_HOOK = None


def _attach_segment(ref: SharedStatsRef) -> tuple[object, CatalogStats] | None:
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=ref.shm_name)
    except (FileNotFoundError, OSError):
        return None
    # Resource-tracker note (Python 3.11, bpo-38119 over-tracking): the
    # attach above re-registers the segment name.  Under the preferred
    # ``fork`` start method all processes share the parent's tracker,
    # whose name cache is a *set* -- the re-register is a no-op and the
    # publisher's ``unlink`` clears the single entry, so no explicit
    # unregister is needed here (an explicit one would race other
    # attachers and spam tracker KeyErrors).  Under ``spawn`` a worker's
    # private tracker may warn about a "leaked" segment at worker exit;
    # harmless, the publisher still owns cleanup.
    arrays: dict[str, np.ndarray] = {}
    for name, offset, count in ref.layout:
        view = np.ndarray(
            (count,),
            dtype=_DTYPE,
            buffer=shm.buf,
            offset=offset * _ITEMSIZE,
        )
        view.flags.writeable = False
        arrays[name] = view
    names = list(ref.names)
    stats = CatalogStats(
        generation=-1,  # stamped per catalog on attach
        names=names,
        table_id={name: position for position, name in enumerate(names)},
        rows=arrays["rows"],
        pages=arrays["pages"],
        size_bytes=arrays["size_bytes"],
        size_bytes_int=list(ref.size_bytes_int),
        depth=arrays["depth"],
        column_id={
            key: position for position, key in enumerate(ref.column_keys)
        },
        column_ndv=arrays["column_ndv"],
        column_eq_selectivity=arrays["column_eq_selectivity"],
    )
    stats.shared = True
    return shm, stats


def attach_shared_stats(catalog: Catalog) -> CatalogStats | None:
    """A shared-memory :class:`CatalogStats` for ``catalog``, or ``None``.

    Installed as ``catalog_stats.SHARED_ATTACH_HOOK`` by
    :func:`register_shared_refs`.  Returns ``None`` -- build locally --
    when no ref matches the catalog's content fingerprint or the
    segment is gone (publisher closed it).  A hit returns a *fresh*
    ``CatalogStats`` wrapper sharing the mapped arrays, so per-catalog
    mutable caches (index sizes, query statics) stay object-local while
    the numpy payload stays zero-copy.
    """
    ref = _REGISTERED.get(catalog.content_fingerprint())
    if ref is None:
        return None
    entry = _ATTACHED.get(ref.fingerprint)
    if entry is None:
        entry = _attach_segment(ref)
        if entry is None:
            return None
        _ATTACHED[ref.fingerprint] = entry
    _, template = entry
    stats = CatalogStats(
        generation=catalog.generation,
        names=template.names,
        table_id=template.table_id,
        rows=template.rows,
        pages=template.pages,
        size_bytes=template.size_bytes,
        size_bytes_int=template.size_bytes_int,
        depth=template.depth,
        column_id=template.column_id,
        column_ndv=template.column_ndv,
        column_eq_selectivity=template.column_eq_selectivity,
    )
    stats.shared = True
    return stats


def attachment_probe(catalog: Catalog) -> dict:
    """Observability: how this process resolved ``catalog``'s stats.

    Used by the bench ``scaling`` section and the acceptance tests to
    prove workers *attach* (map) rather than copy: a shared attach has
    ``owndata=False`` and ``writeable=False`` on every array view.
    """
    stats = catalog_stats_module.catalog_stats(catalog)
    return {
        "shared": bool(stats.shared),
        "owndata": bool(stats.rows.flags["OWNDATA"]),
        "writeable": bool(stats.rows.flags["WRITEABLE"]),
        "tables": len(stats.names),
        "columns": int(stats.column_ndv.size),
    }
