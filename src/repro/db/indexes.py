"""B-tree index objects and creation-cost estimation.

Index creation cost matters to the paper twice: Algorithm 2 folds index
build time into its round timeouts ("Reconfiguration Overheads"), and
Algorithm 4 orders queries to minimize *expected* index build cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.db.catalog import Catalog
from repro.db.knobs import MB
from repro.errors import CatalogError


@dataclass(frozen=True, slots=True)
class Index:
    """A (possibly multi-column) B-tree index on one table."""

    table: str
    columns: tuple[str, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.columns:
            raise CatalogError("an index needs at least one column")
        object.__setattr__(self, "table", self.table.lower())
        object.__setattr__(
            self, "columns", tuple(column.lower() for column in self.columns)
        )
        if not self.name:
            suffix = "_".join(self.columns)
            object.__setattr__(self, "name", f"idx_{self.table}_{suffix}")

    @property
    def key(self) -> tuple[str, tuple[str, ...]]:
        """Identity of the index: same table + columns = same index."""
        return (self.table, self.columns)

    @property
    def leading_column(self) -> str:
        return self.columns[0]

    def qualified_columns(self) -> tuple[str, ...]:
        return tuple(f"{self.table}.{column}" for column in self.columns)

    def validate(self, catalog: Catalog) -> None:
        """Raise :class:`CatalogError` if the table or a column is unknown."""
        table = catalog.table(self.table)
        for column in self.columns:
            table.column(column)

    def size_bytes(self, catalog: Catalog) -> int:
        """Approximate on-disk size: key widths + tuple pointer per row."""
        table = catalog.table(self.table)
        key_width = sum(table.column(column).width for column in self.columns)
        return table.rows * (key_width + 12)

    def creation_seconds(
        self,
        catalog: Catalog,
        maintenance_memory_bytes: int,
        disk_mb_per_s: float,
    ) -> float:
        """Simulated CREATE INDEX duration.

        Building a B-tree is an external sort of the keys followed by a
        sequential write.  More maintenance memory means fewer sort merge
        passes: we model passes as ``log_base(size/memory)`` with a fan-in
        tied to the memory budget, matching the familiar behaviour that
        raising ``maintenance_work_mem`` speeds up index builds with
        diminishing returns.
        """
        table = catalog.table(self.table)
        size = self.size_bytes(catalog)
        scan_seconds = table.size_bytes / (disk_mb_per_s * MB)
        memory = max(1 * MB, maintenance_memory_bytes)
        if size <= memory:
            sort_passes = 1.0
        else:
            sort_passes = 1.0 + math.log2(size / memory) / 4.0
        # B-tree construction writes leaf pages, internal pages, and WAL,
        # and cannot saturate sequential bandwidth; a 3x factor over the
        # raw write volume matches the minutes-scale builds PostgreSQL
        # shows on multi-gigabyte tables.
        write_seconds = 3.0 * size * sort_passes / (disk_mb_per_s * MB)
        cpu_seconds = table.rows * 1e-7 * max(1, len(self.columns))
        return max(0.01, scan_seconds + write_seconds + cpu_seconds)
